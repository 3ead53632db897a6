"""Everything that calls into ranklab: set-up, jobs, cli replays, checks.

Checks are independent of the code under test where they can be: ball
shells are re-ranked with the elimination below and compared with the
closed-form shell counts, content hashes are recomputed with hashlib,
and pigeonhole floors come from ``specs.ball_size``.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import specs

WORKDIR = Path("bench") / ".work"  # relative to the checkout root


def import_ranklab(root: Path):
    """Import ranklab from this checkout's sources, never from elsewhere."""
    pkg = root / "src" / "ranklab"
    if not (pkg / "__init__.py").is_file():
        raise RuntimeError(f"no ranklab sources at {pkg}")
    sys.path.insert(0, str(root / "src"))
    import ranklab

    if Path(ranklab.__file__).resolve().parent != pkg.resolve():
        raise RuntimeError(f"imported ranklab from {ranklab.__file__}, not from {pkg}")
    return ranklab


def _make_code(R, ctx, n: int, code: tuple, seed: int):
    kind, param = code
    if kind == "random":
        return R.sample_random_code(ctx, n, param, seed)
    if kind == "linear":
        return R.sample_random_linear_code(ctx, n, param, seed)
    return R.gabidulin(ctx, n, param)


def _code_key(q, m, n, code) -> str:
    return f"q{q}m{m}n{n}-{code[0]}{code[1]}"


def _write_raw_code(path: Path, q: int, m: int, n: int, size: int, seed: int) -> None:
    """An explicit code file over a large field, written without building the field."""
    order = q**m
    rng = random.Random(seed)
    lines = [f"rankcode/1 field={specs.LARGE_FIELDS[(q, m)]} n={n} kind=explicit size={size}"]
    for idx in rng.sample(range(order**n), size):
        entries = [(idx // order**j) % order for j in range(n - 1, -1, -1)]
        lines.append(",".join(":".join(str((e // q**i) % q) for i in range(m)) for e in entries))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def resolve_argv(job: dict, seed: int) -> list[str]:
    out = []
    for arg in job["argv"]:
        if arg.startswith("{file:"):
            arg = str(WORKDIR / f"{arg[6:-1]}.code")
        elif arg.startswith("{seed:"):
            arg = str(specs.job_seed(seed, arg[6:-1]))
        out.append(arg)
    return out


def set_up(R, root: Path, workload: str, seed: int, jobs: list[dict]) -> dict:
    """Build every field context and code object the jobs use before the first job.

    For cli this writes the code files the commands read.  The returned
    dict maps job ids to their prepared inputs.
    """
    inputs: dict = {}
    codes: dict = {}
    for job in jobs:
        jid = job["id"]
        q, m, n = job["q"], job["m"], job["n"]
        if workload == "cli":
            for name, fq, fm, fn, code in job["files"]:
                path = root / WORKDIR / f"{name}.code"
                if path in codes:
                    continue
                fseed = specs.job_seed(seed, name)
                if (fq, fm) in specs.LARGE_FIELDS:
                    _write_raw_code(path, fq, fm, fn, code[1], fseed)
                else:
                    obj = _make_code(R, R.default_context(fq, fm), fn, code, fseed)
                    with open(path, "w", encoding="utf-8", newline="\n") as fh:
                        R.dump_code(obj, fh)
                codes[path] = True
            inputs[jid] = {"argv": resolve_argv(job, seed)}
            continue
        ctx = R.default_context(q, m)
        if job["op"] in ("sweep", "coset"):
            key = _code_key(q, m, n, job["code"])
            if key not in codes:
                codes[key] = _make_code(R, ctx, n, job["code"], specs.job_seed(seed, key))
            inputs[jid] = {"code": codes[key]}
        elif job["op"] == "ball":
            if job["center"] == "zero":
                center = R.RankVector.zero(ctx, n)
            else:
                rng = random.Random(specs.job_seed(seed, jid))
                center = R.RankVector(ctx, tuple(rng.randrange(ctx.order) for _ in range(n)))
            inputs[jid] = {"center": center}
        else:
            inputs[jid] = {"spec": ensemble_spec(R, job, specs.job_seed(seed, jid))}
    return inputs


def ensemble_spec(R, job: dict, seed: int, trials: int | None = None):
    return R.EnsembleSpec(
        kind=job["kind"], q=job["q"], m=job["m"], n=job["n"], rate_target=Fraction(job["rate"]),
        radius_s=job["s"], list_cap=job["list_cap"], trials=trials or job["trials"], seed=seed,
    )


def run_inprocess(R, job: dict, inp: dict):
    """One timed library call; a ball generator is consumed inside it."""
    op = job["op"]
    if op == "sweep":
        return R.max_list_size(inp["code"], job["s"], "exhaustive")
    if op == "coset":
        return R.coset_partition_check(inp["code"], job["s"])
    if op == "ball":
        return [v.entries for v in R.enumerate_ball(inp["center"], job["r"])]
    return R.run_ensemble(inp["spec"])


def run_cli(root: Path, argv: list[str], limit: float) -> dict:
    """Run ``python -m ranklab`` in a fresh process; kill it past ``limit`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_path = root / WORKDIR / "stdout.bin"
    err_path = root / WORKDIR / "stderr.bin"
    killed = []

    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ranklab", *argv], cwd=root,
                                stdout=fo, stderr=fe, env=env)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes().decode("utf-8", "replace")[-500:],
        "seconds": seconds,
        "rss_kb": usage.ru_maxrss,
        "timed_out": bool(killed),
    }


# -- canonical outputs and golden digests ------------------------------------

def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _strip_wall_time(stdout: bytes) -> bytes:
    env = json.loads(stdout)
    env["result"].pop("wall_time_s", None)
    return _canon_json(env)


def canonical(job: dict, out) -> bytes:
    """The bytes a refactor must not change: as_dict(), canonical_dict() or stdout."""
    op = job["op"]
    if "argv" in job:
        stdout = out["stdout"]
        if job["argv"][0] == "experiment" and out["exit"] == 0:
            stdout = _strip_wall_time(stdout)  # wall time is the one unreproducible field
        return f"exit={out['exit']}\n".encode() + stdout
    if op == "ball":
        return _canon_json(sorted(list(e) for e in out))  # iteration order is unspecified
    if op == "ensemble":
        return _canon_json(out.canonical_dict())
    return _canon_json(out.as_dict())


def digest(job: dict, out) -> str:
    return hashlib.sha256(canonical(job, out)).hexdigest()


# -- independent checks ------------------------------------------------------

def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matrix(q: int, m: int, x, y) -> list[list[int]]:
    """m x n coordinate matrix of x - y over prime F_q."""
    cols = [[((a // q**i) - (b // q**i)) % q for i in range(m)] for a, b in zip(x, y)]
    return [[col[i] for col in cols] for i in range(m)]


def _check_sweep(R, job, inp, report) -> list[str]:
    q, m, n, s = job["q"], job["m"], job["n"], job["s"]
    code = inp["code"]
    space = q ** (m * n)
    bad = []
    if not report.exhaustive or report.centers_tried != space:
        bad.append(f"exhaustive sweep reported {report.centers_tried} centers of {space}")
    if R.list_size_at(code, report.argmax_center, s) != report.l_max:
        bad.append("list_size_at(argmax_center) differs from l_max")
    floor = -((-code.size * specs.ball_size(q, m, n, s)) // space)
    if report.pigeonhole_lb != floor or report.l_max < floor:
        bad.append(f"l_max {report.l_max} or floor {report.pigeonhole_lb} against pigeonhole {floor}")
    if isinstance(code, R.LinearCode):
        cosets = R.coset_partition_check(code, s)
        if cosets.max_count != report.l_max or not cosets.identity_ok:
            bad.append(f"coset max {cosets.max_count} differs from l_max {report.l_max}")
    return bad


def _check_coset(R, job, inp, report) -> list[str]:
    q, m, n, s = job["q"], job["m"], job["n"], job["s"]
    ball = specs.ball_size(q, m, n, s)
    cosets = q ** (m * n - inp["code"].k)
    bad = []
    if not report.identity_ok or report.total != ball or report.ball != ball:
        bad.append(f"coset tally {report.total} against ball {ball}")
    if report.coset_count != cosets:
        bad.append(f"{report.coset_count} cosets, expected {cosets}")
    if report.max_count < -((-ball) // cosets) or not report.meets_average_bound:
        bad.append("max coset count below the average floor")
    return bad


def _check_ball(R, job, inp, vectors) -> list[str]:
    q, m, n, r = job["q"], job["m"], job["n"], job["r"]
    center = inp["center"].entries
    bad = []
    if len(set(vectors)) != len(vectors):
        bad.append("ball has duplicate vectors")
    if len(vectors) != R.ball_volume(q, m, n, r).exact or len(vectors) != specs.ball_size(q, m, n, r):
        bad.append(f"ball has {len(vectors)} vectors")
    shells = [0] * (n + 1)
    for v in vectors:
        shells[_rank_mod_p(_matrix(q, m, v, center), q)] += 1
    for u in range(n + 1):
        want = specs.count_rank_u(q, m, n, u) if u <= r else 0
        if shells[u] != want or (u <= r and R.count_rank_u(q, m, n, u) != want):
            bad.append(f"shell {u} has {shells[u]} vectors, expected {want}")
    return bad


def _check_ensemble(R, job, inp, report) -> list[str]:
    spec = inp["spec"]
    exact = (spec.q ** spec.m) ** spec.n <= specs.ENUM_CAP
    bad = []
    if len(report.outcomes) != spec.trials:
        bad.append(f"{len(report.outcomes)} outcomes for {spec.trials} trials")
    for o in report.outcomes:
        if o.exact != exact or o.failed != (o.l_max > spec.list_cap) or o.l_max < 1:
            bad.append(f"trial {o.index}: exact={o.exact} failed={o.failed} l_max={o.l_max}")
    failures = sum(o.failed for o in report.outcomes)
    if report.failures != failures or report.failure_fraction != Fraction(failures, spec.trials):
        bad.append("failure count does not match the outcomes")
    return bad


def _opts(argv: list[str]) -> dict:
    return {argv[i][2:].replace("-", "_"): argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def replay(R, root: Path, argv: list[str], split: bool):
    """What the command should print, computed in-process.

    With ``split`` the code file's field is built on its own first, so a
    traced run can tell field construction from code-file parsing.
    """
    cmd, o = argv[0], _opts(argv)
    if cmd == "volume":
        return R.ball_volume(int(o["q"]), int(o["m"]), int(o["n"]), int(o["r"])).as_dict()
    if cmd == "bounds":
        return R.hamming_check(int(o["code_size"]), int(o["q"]), int(o["m"]), int(o["n"]),
                               int(o["d"])).as_dict()
    if cmd == "curves":
        return {"rows": [p.as_dict() for p in R.emit_barrier_curves(Fraction(o["b"]), int(o["grid"]))]}
    if cmd == "sample":
        if "field" in o:
            ctx = R.context_from_descriptor(o["field"])
        else:
            ctx = R.default_context(int(o["q"]), int(o["m"]))
        param = int(o["size"] if o["kind"] == "random" else o["k"])
        kind = {"random_linear": "linear"}.get(o["kind"], o["kind"])
        return R.dumps_code(_make_code(R, ctx, int(o["n"]), (kind, param), int(o.get("seed", 0))))
    if cmd == "experiment":
        spec = R.EnsembleSpec(o["kind"], int(o["q"]), int(o["m"]), int(o["n"]), Fraction(o["rate"]),
                              int(o["radius"]), int(o["list_cap"]), int(o["trials"]), int(o["seed"]))
        return R.run_ensemble(spec).canonical_dict()
    path = root / o["code"]
    if split:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
        R.context_from_descriptor(next(t[6:] for t in header if t.startswith("field=")))
    with open(path, encoding="utf-8") as fh:
        code = R.load_code(fh)
    s = int(o["radius"])
    cap = int(o.get("cap", R.DEFAULT_ENUM_CAP))
    if cmd == "coset-check":
        return R.coset_partition_check(code, s, cap=cap).as_dict()
    report = R.max_list_size(code, s, o.get("mode", "exhaustive"), centers=int(o.get("centers", 1000)),
                             seed=int(o.get("seed", 0)), cap=cap)
    result = report.as_dict()
    ctx = code.ctx
    result["loose_closed_form"] = str(R.pigeonhole_loose_form(code.size, ctx.base.q, ctx.m, code.n, s))
    return result


def _check_cli(R, root, job, inp, out) -> list[str]:
    if out["timed_out"]:
        return ["killed at its time limit"]
    if out["exit"] != job["expect"]:
        return [f"exit {out['exit']}, expected {job['expect']}: {out['stderr']}"]
    if job["expect"] != 0:
        return [] if not out["stdout"] else ["a refused command printed a result"]
    argv = inp["argv"]
    expected = replay(R, root, argv, split=False)
    if argv[0] == "sample":
        return [] if out["stdout"].decode("utf-8") == expected else ["code file differs from the library's"]
    try:
        env = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    bad = []
    if env.get("schema") != f"ranklab.{argv[0]}/1":
        bad.append(f"schema {env.get('schema')!r}")
    if env.get("content_hash") != hashlib.sha256(_canon_json(env.get("inputs"))).hexdigest():
        bad.append("content_hash does not match the echoed inputs")
    result = env.get("result")
    if argv[0] == "experiment" and isinstance(result, dict):
        result.pop("wall_time_s", None)
    if result != json.loads(json.dumps(expected)):
        bad.append("result differs from the in-process library result")
    return bad


def check(R, root: Path, job: dict, inp: dict, out) -> list[str]:
    """Independent correctness checks of one job's output; empty when all hold."""
    if "argv" in job:
        return _check_cli(R, root, job, inp, out)
    return {"sweep": _check_sweep, "coset": _check_coset, "ball": _check_ball,
            "ensemble": _check_ensemble}[job["op"]](R, job, inp, out)


def worker_invariance(R, job: dict, inp: dict, seed: int, workers: int) -> list[str]:
    """The report must not depend on the worker count, argmax included."""
    if job["op"] == "sweep":
        one = R.max_list_size(inp["code"], job["s"], "exhaustive", workers=1)
        many = R.max_list_size(inp["code"], job["s"], "exhaustive", workers=workers)
        return [] if one.as_dict() == many.as_dict() else [f"report differs at workers={workers}"]
    spec = ensemble_spec(R, job, specs.job_seed(seed, job["id"]), trials=2)
    one = R.run_ensemble(spec, workers=1).canonical_dict()
    many = R.run_ensemble(spec, workers=workers).canonical_dict()
    return [] if one == many else [f"report differs at workers={workers}"]


# -- probes ------------------------------------------------------------------

def _median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def _per_call_ns(fn, batch, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for item in batch:
            fn(*item)
        times.append((time.perf_counter_ns() - t0) / len(batch))
    return _median(times)


def rank_probe(R, spaces, seed: int, per_space: int = 300) -> dict:
    """ns per rank_of_vector call on seeded vectors from the workload's spaces."""
    rng = random.Random(specs.job_seed(seed, "rank-probe"))
    batches = {"q2": [], "odd": []}
    for q, m, n in sorted(spaces):
        cls = "q2" if q == 2 else "odd" if q % 2 else None
        if cls is None:
            continue
        ctx = R.default_context(q, m)
        batches[cls] += [(R.RankVector(ctx, tuple(rng.randrange(ctx.order) for _ in range(n))),)
                         for _ in range(per_space)]
    return {cls: _per_call_ns(R.rank_of_vector, b) for cls, b in batches.items() if b}


def field_probe(R, contexts, seed: int, per_ctx: int = 300) -> dict:
    """ns per mul and inv, equal calls on each context and its base field."""
    rng = random.Random(specs.job_seed(seed, "field-probe"))
    mul, inv, kinds = [], [], {}
    for ctx in sorted(contexts, key=lambda c: c.descriptor()):
        ext_kind = "ext_log" if ctx.order <= specs.EXT_LOG_LIMIT else "ext_reduce"
        base_kind = "base_table" if ctx.base.q <= specs.BASE_TABLE_LIMIT else "base_generic"
        for f, size, kind in ((ctx, ctx.order, ext_kind), (ctx.base, ctx.base.q, base_kind)):
            pairs = [(rng.randrange(1, size), rng.randrange(1, size)) for _ in range(per_ctx)]
            mul.append(_per_call_ns(f.mul, pairs))
            inv.append(_per_call_ns(f.inv, [(a,) for a, _ in pairs]))
            kinds[kind] = kinds.get(kind, 0) + 1
    return {"mul_ns": sum(mul) / len(mul), "inv_ns": sum(inv) / len(inv), "kinds": kinds}
