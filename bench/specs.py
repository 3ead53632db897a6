"""Job lists of the three workloads, as plain data.

Nothing here imports ranklab: the lists, their size-switch tags and the
coverage self-test are plain data, so they can be checked before the
program under test is even importable.  The workload seed only picks the
codes, centers and sampler seeds that set-up builds from these lists.

A round is one pass over a workload's job list, in which each job runs
``reps`` times back to back: short jobs repeat so that their medians
rest on as many samples as the long ones'.  Every round of a run repeats
the same jobs on the same inputs, so each distinct job is checked once
per run and its output must be identical in every sample.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("sweep", "ensemble", "cli")
GOLDEN_SEED = 0

# Size switches in the library, restated here on purpose: a change that
# deletes one must still be measured on both of its former sides.
RANK_TABLE_LIMIT = 2**16  # rank lookup table over the whole space
BALL_FILTER_LIMIT = 2**16  # enumerate_ball filters the whole space
EXT_LOG_LIMIT = 2**16  # extension log/antilog tables
BASE_TABLE_LIMIT = 256  # base-field mul/inv tables
NEIGHBORHOOD_CAP = 4096  # Monte Carlo scores every ball around every word
ENUM_CAP = 2**24  # run_ensemble: exhaustive sweep at or below, Monte Carlo above
SWITCHES = ("rank_table", "ball_filter", "ext_log", "base_tables", "mc_neighborhood", "ensemble_exhaustive")

# Defaults of the field contexts the cli jobs name by descriptor; each is
# what default_context(q, m) builds.  Loading one verifies irreducibility
# and, up to 2^16 elements, builds the log tables: that is the cost under test.
LARGE_FIELDS = {
    (2, 16): "2/16:1,1,0,1,0,1,0,0,0,0,0,0,0,0,0,0,1",
    (3, 10): "3/10:1,0,2,0,0,0,0,0,0,0,1",
    (4, 8): "2^2:1,1,1/8:2,1,0,1,0,0,0,0,1",
    (8, 8): "2^3:1,1,0,1/8:3,2,0,1,0,0,0,0,1",
    (16, 6): "2^4:1,1,0,0,1/6:13,2,1,0,0,0,1",
}


def job_seed(seed: int, key: str) -> int:
    """Per-input seed: the same workload seed always gives the same inputs."""
    return random.Random(f"{seed}/{key}").getrandbits(63)


def count_rank_u(q: int, m: int, n: int, u: int) -> int:
    """Closed form for the m x n matrices of rank u, independent of ranklab."""
    num = den = 1
    for i in range(u):
        num *= (q**n - q**i) * (q**m - q**i)
        den *= q**u - q**i
    return num // den


def ball_size(q: int, m: int, n: int, r: int) -> int:
    return sum(count_rank_u(q, m, n, u) for u in range(r + 1))


def _side(value: int, limit: int) -> str:
    return "below" if value <= limit else "above"


def code_size(q: int, m: int, code: tuple) -> int:
    kind, param = code[0], code[1]
    if kind == "random":
        return param
    if kind == "linear":
        return q**param
    return (q**m) ** param  # gabidulin: q^(mk)


def tags(job: dict) -> dict:
    """The side of every size switch this job takes."""
    op = job["op"]
    if op in ("volume", "bounds", "curves", "refuse"):
        return {}  # no field context is built
    q, m, n = job["q"], job["m"], job["n"]
    space = (q**m) ** n
    out = {"ext_log": _side(q**m, EXT_LOG_LIMIT), "base_tables": _side(q, BASE_TABLE_LIMIT)}
    if op in ("sweep", "coset", "mc", "ensemble"):
        out["rank_table"] = _side(space, RANK_TABLE_LIMIT)
    if op == "ball":
        out["ball_filter"] = _side(space, BALL_FILTER_LIMIT)
        if job["center"] == "zero" and space <= BALL_FILTER_LIMIT:
            out["rank_table"] = "below"
    if op == "ensemble":
        out["ensemble_exhaustive"] = _side(space, ENUM_CAP)
    mc = op == "mc" or (op == "ensemble" and space > ENUM_CAP)
    if mc:
        if op == "ensemble":
            size = q ** int(Fraction(job["rate"]) * m * n)
        else:
            size = code_size(q, m, job["code"])
        out["mc_neighborhood"] = _side(size * ball_size(q, m, n, job["s"]), NEIGHBORHOOD_CAP)
    return out


def _sweep_jobs() -> list[dict]:
    """Exhaustive certificates: center sweeps, coset tallies, ball enumeration.

    Two jobs of about two seconds (the no-table sweep and the shell-path
    ball) sit above a band of three q = 3 jobs of about half a second, so
    the tail percentile lands inside a band of like jobs rather than on
    the edge between two; those three run three times a round, and the short
    jobs around the median five or eight times.
    """
    jobs = []

    def add(op, q, m, n, **kw):
        jobs.append({"op": op, "q": q, "m": m, "n": n, **kw})

    # spaces below the 2^16 rank-table limit: 729, 4096, 19683 and 32768 centers
    for s in (1, 2):
        add("sweep", 2, 4, 3, code=("random", 8), s=s, reps=5)
        add("sweep", 2, 4, 3, code=("linear", 3), s=s, reps=5)
        add("coset", 2, 4, 3, code=("linear", 3), s=s, reps=8)
        add("sweep", 3, 3, 3, code=("random", 6), s=s, reps=3)
    add("sweep", 2, 4, 3, code=("gabidulin", 1), s=1, reps=5)
    add("sweep", 3, 3, 2, code=("gabidulin", 1), s=1, reps=8)
    add("sweep", 3, 3, 3, code=("linear", 1), s=2)
    add("coset", 3, 3, 3, code=("linear", 1), s=1)
    add("sweep", 2, 5, 3, code=("random", 4), s=1)
    add("sweep", 2, 5, 3, code=("linear", 2), s=2)
    add("coset", 2, 5, 3, code=("linear", 2), s=1)
    # above it: 2^18 centers, scored without the lookup table
    add("sweep", 2, 6, 3, code=("random", 1), s=1)
    # balls on both sides of the 2^16 filter limit, q = 2 and odd q
    add("ball", 2, 4, 3, r=1, center="zero", reps=8)
    add("ball", 2, 4, 3, r=2, center="random", reps=5)
    add("ball", 3, 3, 3, r=1, center="random", reps=3)
    add("ball", 3, 3, 3, r=2, center="zero", reps=5)
    add("ball", 2, 6, 3, r=1, center="random", reps=5)
    add("ball", 2, 6, 3, r=2, center="random")
    add("ball", 3, 4, 3, r=1, center="random", reps=8)
    return jobs


def _ensemble_jobs() -> list[dict]:
    jobs = []

    def add(kind, q, m, n, rate, s, variant=0, trials=1, reps=2):
        jobs.append({
            "op": "ensemble", "kind": kind, "q": q, "m": m, "n": n, "rate": rate,
            "s": s, "list_cap": 4, "trials": trials, "variant": variant, "reps": reps,
        })

    # small spaces: every trial is an exhaustive sweep
    for variant in (0, 1):
        add("random", 2, 4, 3, "1/4", 1, variant, reps=6)
        add("random_linear", 2, 4, 3, "1/4", 1, variant, reps=6)
        add("random_linear", 3, 3, 3, "1/9", 1, variant)
    add("random", 2, 4, 3, "1/3", 2, reps=3)
    # above the cap: Monte Carlo, no rank table; |C||B_1| <= 4096 takes
    # the neighborhood branch, the larger codes do not
    for variant in (0, 1):
        add("random", 2, 7, 4, "1/28", 1, variant)
    add("random_linear", 2, 7, 4, "1/28", 1)
    add("random", 2, 7, 4, "1/4", 1, reps=1)
    add("random_linear", 2, 7, 4, "1/4", 1, reps=1)
    add("random", 3, 4, 4, "1/8", 1)
    add("random_linear", 3, 4, 4, "1/8", 1)
    return jobs


def _cli_jobs() -> list[dict]:
    """One fresh ``python -m ranklab`` process per job.

    ``files`` name the code files the benchmark writes in set-up; the
    large-field ones are written from their descriptors without
    building the field, so every job that reads one pays the build.
    """
    jobs = []

    def add(name, argv, q, m, n, op, expect=0, files=(), **kw):
        jobs.append({"op": op, "name": name, "argv": argv.split(), "q": q, "m": m, "n": n,
                     "expect": expect, "files": list(files), **kw})

    lin = ("q2m4n3-linear", 2, 4, 3, ("linear", 3))
    mc = ("q2m7n4-random", 2, 7, 4, ("random", 2))
    add("volume", "volume --q 2 --m 6 --n 4 --r 2", 2, 6, 4, "volume")
    add("bounds-hamming", "bounds --name hamming --code-size 64 --q 2 --m 4 --n 3 --d 3",
        2, 4, 3, "bounds")
    add("curves", "curves --b 1/2 --grid 101", 2, 2, 1, "curves")
    add("sample-q2m4n3", "sample --kind random_linear --q 2 --m 4 --n 3 --k 3 --seed {seed:sample}",
        2, 4, 3, "sample")
    add("sample-F4^8", f"sample --kind gabidulin --field {LARGE_FIELDS[(4, 8)]} --n 2 --k 1",
        4, 8, 2, "sample")
    add("sample-F16^6", f"sample --kind gabidulin --field {LARGE_FIELDS[(16, 6)]} --n 3 --k 1",
        16, 6, 3, "sample")
    add("sample-q257m2", "sample --kind random --q 257 --m 2 --n 2 --size 3 --seed {seed:sample257}",
        257, 2, 2, "sample")
    add("listdecode-exhaustive", "listdecode --code {file:q2m4n3-linear} --radius 1",
        2, 4, 3, "sweep", files=[lin], code=("linear", 3), s=1)
    add("listdecode-montecarlo", "listdecode --code {file:q2m7n4-random} --radius 1 --mode montecarlo"
        " --centers 200 --seed {seed:mc}", 2, 7, 4, "mc", files=[mc], code=("random", 2), s=1)
    add("experiment-exhaustive", "experiment --kind random --q 2 --m 4 --n 3 --rate 1/4 --radius 1"
        " --list-cap 4 --trials 2 --seed {seed:exp}", 2, 4, 3, "ensemble", rate="1/4", s=1)
    add("experiment-montecarlo", "experiment --kind random_linear --q 2 --m 7 --n 4 --rate 1/28"
        " --radius 1 --list-cap 4 --trials 1 --seed {seed:exp-mc}", 2, 7, 4, "ensemble",
        rate="1/28", s=1)
    add("coset-check", "coset-check --code {file:q2m4n3-linear} --radius 1",
        2, 4, 3, "coset", files=[lin], code=("linear", 3), s=1)
    for (q, m), size in (((2, 16), 4), ((3, 10), 3), ((4, 8), 4), ((8, 8), 4)):
        name = f"F{q}^{m}-random"
        add(f"listdecode-F{q}^{m}", f"listdecode --code {{file:{name}}} --radius 1 --mode montecarlo"
            " --centers 200 --seed {seed:mc-large}", q, m, 2, "mc",
            files=[(name, q, m, 2, ("random", size))], code=("random", size), s=1)
    # refusals: exhaustive above --cap, and an extension past q^m = 2^32
    add("refuse-cap", "listdecode --code {file:q2m4n3-linear} --radius 1 --cap 1000",
        2, 4, 3, "refuse", expect=2, files=[lin])
    add("refuse-order", "sample --kind gabidulin --q 2 --m 33 --n 1 --k 1", 2, 33, 1, "refuse", expect=2)
    return jobs


# Inside the documented q^m <= 2^32 range, but the seed's trial-division
# irreducibility search takes minutes.  Kept out of the timed cli mix,
# where every job must succeed; ``run.py --self-test`` runs it under its
# time limit and reports whether it finished.
KNOWN_HANG = {
    "argv": "sample --kind gabidulin --q 16 --m 8 --n 1 --k 1".split(),
    "reason": "default_context(16, 8) searches moduli by trial division: 257 s at the seed",
}

_JOB_LISTS = {"sweep": _sweep_jobs, "ensemble": _ensemble_jobs, "cli": _cli_jobs}


def job_id(job: dict) -> str:
    """A name that is the same for every seed."""
    op = job["op"]
    space = f"q{job['q']}m{job['m']}n{job['n']}"
    if op == "ball":
        return f"ball.{space}.r{job['r']}.{job['center']}"
    if "argv" in job:
        return f"cli.{job['name']}"
    if op == "ensemble":
        rate = job["rate"].replace("/", "_")
        return f"ensemble.{job['kind']}.{space}.rate{rate}.s{job['s']}.v{job['variant']}"
    kind, param = job["code"]
    return f"{op}.{space}.{kind}{param}.s{job['s']}"


def jobs_for(workload: str) -> list[dict]:
    jobs = _JOB_LISTS[workload]()
    for job in jobs:
        job["id"] = job_id(job)
        job["tags"] = tags(job)
        job.setdefault("reps", 1)
    ids = [j["id"] for j in jobs]
    if len(set(ids)) != len(ids):
        raise RuntimeError(f"duplicate job ids in {workload}")
    return jobs


def coverage() -> dict:
    """switch -> side -> job ids, over every workload."""
    out = {s: {"below": [], "above": []} for s in SWITCHES}
    for workload in WORKLOADS:
        for job in jobs_for(workload):
            for switch, side in job["tags"].items():
                out[switch][side].append(job["id"])
    return out


def coverage_problems() -> list[str]:
    return [
        f"size switch {switch} has no job {side} its limit"
        for switch, sides in coverage().items()
        for side, ids in sides.items()
        if not ids
    ]
