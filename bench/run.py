"""The ranklab benchmark: one command for every workload.

    python3 bench/run.py --workload sweep|ensemble|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test      # size-switch coverage and the known-hang job
    python3 bench/run.py --write-golden   # refresh bench/golden.json at the default seed

Run it from the root of a checkout; it imports ranklab from ``src/`` of
that checkout and nowhere else, and exits non-zero without a result when
the sources are missing.

Each workload is a closed loop with one client: jobs run one after
another, in this process for ``sweep`` and ``ensemble`` and in one fresh
``python -m ranklab`` process at a time for ``cli``.  The run and its
children are pinned to one CPU.  A run first times the set-up in fresh
interpreters, then repeats the workload's job list for a number of
rounds fixed by ``--seconds`` (never by the machine's speed, so every
commit is measured on the same job count), each job ``reps`` times per
round, then checks every output untimed.

The host's speed drifts by tens of percent over seconds to minutes,
because other tenants share its cores.  So a fixed piece of pure-Python
work, the reference, is timed before and after each job's samples and
each set-up, and each time is scaled to seconds at the reference's
nominal speed: ``seconds * REFERENCE_S / mean(reference before,
reference after)``.  The reference does not touch ranklab, so a change
to the program moves the scaled times and a change of host speed mostly
does not.  The end-to-end metrics are scaled times; the same statistics
of the raw times go to the result file beside them.

Every timing statistic starts from each job's median over its samples:
``wall_s`` is their sum (one pass over the job list), ``job_p50_s`` their
median, ``job_tail_s`` the highest percentile with ten entries beyond it
when each job enters once per round at its median.  The last line of
stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  A result file with provenance,
every sample and, when traced, every span goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import build  # noqa: E402
import specs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden.json"
RESULTS = ROOT / "bench" / "results"

# Rounds per 40 s of --seconds.  At the seed on the 2-core host a round
# of sweep, ensemble and cli takes about 11, 7.5 and 11 s, so a 40-s run
# spends 30-35 s in its rounds and the rest in set-up and the untimed
# checks, with room left for a slower host.
ROUNDS_PER_40S = {"sweep": 3, "ensemble": 4, "cli": 3}
SETUP_REPEATS = 11
STARTUP_REPEATS = 5
JOB_LIMIT_S = 30.0
REFUSAL_LIMIT_S = 10.0
RUN_BUDGET_S = 110.0  # jobs not started by then count as failed, so a run ends in time
# The reference ranks a fixed batch of small matrices over F_3 by
# Gaussian elimination (the checker's own ``build._rank_mod_p``): lists,
# tuples and modular arithmetic, the kind of work ranklab's kernels do.
# Host slowdowns move it nearly in proportion with the jobs, which a
# tight loop over a table or a dict does not.  REFERENCE_S is its median
# time on the 2-core host the benchmark was tuned on, so scaled times are
# seconds at that host's usual speed.
REFERENCE_S = 0.010
_rng = random.Random(1)
REFERENCE_BATCH = [[[_rng.randrange(3) for _ in range(4)] for _ in range(4)] for _ in range(450)]
INVARIANCE_JOBS = {
    "sweep": ["sweep.q2m4n3.linear3.s1", "sweep.q2m4n3.random8.s2"],
    "ensemble": ["ensemble.random.q2m4n3.rate1_4.s1.v0", "ensemble.random.q2m7n4.rate1_28.s1.v0"],
}
LAYER_SPANS = ("fields.build", "codes.sample", "codes.enumerate", "rankmetric.ball",
               "rankmetric.volume", "listdec.sweep", "listdec.mc", "harness.coset",
               "harness.ensemble", "codefile.load", "codefile.dump", "cli.proc")
LAYER_COUNTS = ("fields.builds", "codes.words", "rankmetric.ball_vectors", "listdec.sweep_centers",
                "listdec.sweep_pairs", "listdec.mc_centers", "harness.cosets", "harness.trials",
                "cli.stdout_bytes")


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def tail(xs):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    k = max(1, len(xs) - 10)
    return xs[k - 1], 100.0 * k / len(xs)


def reference() -> float:
    """Time a fixed piece of pure-Python work that never calls ranklab."""
    t0 = time.perf_counter()
    for rows in REFERENCE_BATCH:
        build._rank_mod_p(rows, 3)
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Seconds at the reference's nominal speed, from the references either side."""
    return seconds * REFERENCE_S * 2 / (ref_before + ref_after)


def rounds_for(workload: str, seconds: int) -> int:
    return max(2, round(ROUNDS_PER_40S[workload] * seconds / 40))


def fresh_setup(workload: str, seed: int) -> float:
    """Import ranklab and build the workload's contexts and codes in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def startup_s() -> float:
    """A bare ``import ranklab`` in a child process: the floor of every cli job."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ranklab"], cwd=ROOT, env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return median(times)


def pin_to_one_cpu() -> int | None:
    """Run this process, and the children it starts, on one CPU of those allowed.

    The reference then runs where the jobs run: on a shared host the
    CPUs are not equally busy, and a child started on the other one
    would be scaled by the wrong reference.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ranklab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_job(R, job: dict, inp: dict, tracer) -> dict:
    """Run one job under its time limit and time it."""
    if "argv" in job:
        limit = REFUSAL_LIMIT_S if job["expect"] else JOB_LIMIT_S
        t0 = time.perf_counter()
        with tracer.span("cli.proc"):
            out = build.run_cli(ROOT, inp["argv"], limit)
        seconds = time.perf_counter() - t0
        if tracer.active:
            tracer.counts["cli.stdout_bytes"] += len(out["stdout"])
        err = "killed at its time limit" if out["timed_out"] else None
        return {"seconds": seconds, "out": out, "error": err}
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    t0 = time.perf_counter()
    try:
        out, err = build.run_inprocess(R, job, inp), None
    except JobTimeout:
        out, err = None, "killed at its time limit"
    except Exception as exc:  # a failing job is recorded and the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    if err:
        tracer.abandon()
    return {"seconds": seconds, "out": out, "error": err}


def run_workload(R, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    t_start = time.perf_counter()
    jobs = specs.jobs_for(workload)
    (ROOT / build.WORKDIR).mkdir(parents=True, exist_ok=True)
    setup_times, setup_raw = [], []
    ref = reference()
    for _ in range(SETUP_REPEATS):
        raw = fresh_setup(workload, seed)
        ref_after = reference()
        setup_raw.append(raw)
        setup_times.append(scaled(raw, ref, ref_after))
        ref = ref_after

    tracer = spans.Tracer()
    swapped = spans.install(tracer, R) if traced else []
    signal.signal(signal.SIGALRM, _alarm)
    tracer.active = traced
    inputs = build.set_up(R, ROOT, workload, seed, jobs)
    tracer.active = False

    t_rounds = time.perf_counter()
    rounds = rounds_for(workload, seconds)
    records, first, replay_errors = [], {}, []
    for rnd in range(rounds):
        # a traced run alternates untraced and traced rounds, so both are measured
        is_traced = traced and rnd % 2 == 1
        ref = reference()
        for job in jobs:
            samples = []
            for rep in range(job["reps"]):
                rec = {"job": job["id"], "round": rnd, "rep": rep, "traced": is_traced}
                records.append(rec)
                if time.perf_counter() - t_start > RUN_BUDGET_S:
                    rec.update(seconds=None, error="not started: run budget spent")
                    continue
                tracer.job = f"{job['id']}#{rnd}.{rep}"
                tracer.active = is_traced
                res = run_job(R, job, inputs[job["id"]], tracer)
                tracer.active = False
                rec.update(seconds=res["seconds"], error=res["error"])
                samples.append(rec)
                if res["out"] is not None:
                    rec["digest"] = build.digest(job, res["out"])
                    first.setdefault(job["id"], res["out"])
                    if "argv" in job:
                        rec["rss_kb"] = res["out"]["rss_kb"]
            # the references either side of a job's samples scale each of them
            ref_after = reference()
            for rec in samples:
                rec.update(scaled=scaled(rec["seconds"], ref, ref_after), ref=[ref, ref_after])
            ref = ref_after
        if is_traced and workload == "cli":
            tracer.active = True
            # replay each command in-process, outside the round's clock, to split it by layer
            for job in jobs:
                tracer.job = f"{job['id']}#{rnd}:replay"
                if job["expect"] != 0:
                    continue
                try:
                    build.replay(R, ROOT, inputs[job["id"]]["argv"], split=True)
                except Exception as exc:  # the untimed checks report the same failure
                    tracer.abandon()
                    replay_errors.append(f"{job['id']}: {type(exc).__name__}: {exc}")
        tracer.active = False
    peak_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans.uninstall(swapped)

    t_checks = time.perf_counter()
    problems = check_outputs(R, workload, seed, jobs, inputs, first, records)
    phase_s = {"setup": t_rounds - t_start, "rounds": t_checks - t_rounds,
               "checks": time.perf_counter() - t_checks}
    return {"jobs": jobs, "setup_times": setup_times, "setup_raw": setup_raw, "records": records,
            "problems": problems, "peak_self_kb": peak_self_kb, "tracer": tracer,
            "inputs": inputs, "rounds": rounds, "traced": traced, "replay_errors": replay_errors,
            "phase_s": phase_s}


def check_outputs(R, workload, seed, jobs, inputs, first, records) -> dict:
    """Untimed checks; job id -> problems.  One bad output fails every run of its job."""
    golden = None
    if seed == specs.GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.exists() else {}
    problems = {}
    for job in jobs:
        jid = job["id"]
        if jid not in first:
            continue
        bad = build.check(R, ROOT, job, inputs[jid], first[jid])
        digests = {r["digest"] for r in records if r["job"] == jid and "digest" in r}
        if len(digests) > 1:
            bad.append("output differs between samples")
        if golden is not None and golden.get(jid) not in digests:
            bad.append("output does not match its golden digest")
        if jid in INVARIANCE_JOBS.get(workload, []):
            workers = min(2, os.cpu_count() or 1)
            if workers > 1:
                bad += build.worker_invariance(R, job, inputs[jid], seed, workers)
        if bad:
            problems[jid] = bad
    return problems


def job_medians(records, key: str, traced: bool, first_round: int = 0) -> dict:
    """Job id -> median of its samples' ``key`` times, over untraced or traced rounds."""
    per_job: dict = {}
    for r in records:
        if r["seconds"] is not None and r["traced"] == traced and r["round"] >= first_round:
            per_job.setdefault(r["job"], []).append(r[key])
    return {jid: median(v) for jid, v in per_job.items()}


def job_stats(records, key: str, rounds: int) -> dict:
    """wall, p50 and tail of one run, from each job's median over its samples.

    wall is the job list's time, the sum of the job medians.  p50 is the
    median job.  The tail is taken over one entry per job and round, each
    at its job's median: which jobs are slow is what a run can tell
    apart, while a single sample's excursion is the host's.
    """
    med = job_medians(records, key, traced=False)
    entries = [t for t in med.values() for _ in range(rounds)]
    tail_s, tail_pct = tail(entries)
    return {"wall_s": sum(med.values()), "job_p50_s": median(list(med.values())),
            "job_tail_s": tail_s, "tail_pct": tail_pct, "entries": len(entries), "jobs": len(med)}


def end_to_end(result: dict, workload: str) -> tuple[dict, dict]:
    records = result["records"]
    plain_rounds = sum(1 for rnd in range(result["rounds"]) if not (result["traced"] and rnd % 2))
    stats = job_stats(records, "scaled", plain_rounds)
    raw = job_stats(records, "seconds", plain_rounds)
    failed = sum(1 for r in records if r["error"] or r["job"] in result["problems"])
    if workload == "cli":
        peak_kb = max(r.get("rss_kb", 0) for r in records)
    else:
        peak_kb = result["peak_self_kb"]
    metrics = {
        "setup_s": (median(result["setup_times"]), "s"),
        "wall_s": (stats["wall_s"], "s"),
        "job_p50_s": (stats["job_p50_s"], "s"),
        "job_tail_s": (stats["job_tail_s"], "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    extra = {
        "fail_frac": (failed / len(records), "ratio"),
        "attempted": len(records),
        "failed": failed,
        "jobs_per_round": stats["jobs"],
        "job_samples": sum(1 for r in records if r["seconds"] is not None and not r["traced"]),
        "tail_entries": stats["entries"],
        "job_tail_percentile": stats["tail_pct"],
        "rounds": plain_rounds,
        "setup_samples": len(result["setup_times"]),
        # the same statistics of the unscaled times, for reference
        "raw_s": {"setup_s": median(result["setup_raw"]),
                  **{k: raw[k] for k in ("wall_s", "job_p50_s", "job_tail_s")}},
        "reference_s": median([x for r in records if "ref" in r for x in r["ref"]]),
    }
    return metrics, extra


def per_layer(R, result: dict, workload: str, seed: int) -> tuple[dict, dict]:
    tracer = result["tracer"]
    for s in tracer.spans:
        if s["end"] is None:
            raise RuntimeError(f"span {s['name']} never closed")
    self_t = tracer.self_times()
    metrics = {f"{name}_s": (float(self_t[name]), "s") for name in LAYER_SPANS}
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts[name], "bytes" if name.endswith("_bytes") else "count")
    spaces, contexts = set(), {}
    for job in result["jobs"]:
        q, m, n = job["q"], job["m"], job["n"]
        if job["op"] in ("volume", "bounds", "curves", "refuse") or (q, m) in specs.LARGE_FIELDS:
            continue
        spaces.add((q, m, n))
        contexts[(q, m)] = R.default_context(q, m)
    rank = build.rank_probe(R, spaces, seed)
    fields = build.field_probe(R, contexts.values(), seed)
    metrics["rankmetric.rank_ns.q2"] = (rank["q2"], "ns")
    metrics["rankmetric.rank_ns.odd"] = (rank["odd"], "ns")
    metrics["fields.mul_ns"] = (fields["mul_ns"], "ns")
    metrics["fields.inv_ns"] = (fields["inv_ns"], "ns")
    metrics["cli.startup_s"] = (startup_s(), "s")

    # overhead compares scaled job times, as wall_s does; round 0 also
    # fills the lazy caches, so it is left out of both sides
    records = result["records"]
    plain = job_medians(records, "scaled", traced=False, first_round=1)
    traced = job_medians(records, "scaled", traced=True, first_round=1)
    metrics["trace.overhead_s"] = (sum(traced.values()) - sum(plain.values()), "s")
    in_rounds = [s for s in tracer.spans
                 if s["parent"] is None and s["job"] and "#" in s["job"] and ":replay" not in s["job"]]
    covered = sum(s["end"] - s["start"] for s in in_rounds)
    # spans are raw times, so coverage is a share of the raw traced job time
    traced_total = sum(r["seconds"] for r in records if r["traced"] and r["seconds"] is not None)
    metrics["trace.unattributed_frac"] = (1 - covered / traced_total, "ratio")
    extra = {"traced_rounds": result["rounds"] // 2,
             "field_kinds": fields["kinds"], "probe_spaces": sorted(spaces),
             "computed": ["listdec.sweep_pairs"]}
    return metrics, extra


def setup_probe(workload: str, seed: int) -> None:
    jobs = specs.jobs_for(workload)
    (ROOT / build.WORKDIR).mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    R = build.import_ranklab(ROOT)
    build.set_up(R, ROOT, workload, seed, jobs)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def write_golden(R) -> None:
    out = {}
    signal.signal(signal.SIGALRM, _alarm)
    (ROOT / build.WORKDIR).mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    for workload in specs.WORKLOADS:
        jobs = specs.jobs_for(workload)
        inputs = build.set_up(R, ROOT, workload, specs.GOLDEN_SEED, jobs)
        out[workload] = {}
        for job in jobs:
            res = run_job(R, job, inputs[job["id"]], tracer)
            bad = [res["error"]] if res["error"] else build.check(R, ROOT, job, inputs[job["id"]], res["out"])
            if bad:
                raise RuntimeError(f"{job['id']}: {bad}")
            out[workload][job["id"]] = build.digest(job, res["out"])
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in out.values())} digests to {GOLDEN.relative_to(ROOT)}")


def self_test(R) -> int:
    cov = specs.coverage()
    for switch, sides in cov.items():
        print(f"{switch:22s} below: {len(sides['below']):3d} jobs   above: {len(sides['above']):3d} jobs")
    job = specs.KNOWN_HANG
    (ROOT / build.WORKDIR).mkdir(parents=True, exist_ok=True)
    out = build.run_cli(ROOT, job["argv"], REFUSAL_LIMIT_S)
    state = "killed at its limit (known failure)" if out["timed_out"] else f"exit {out['exit']}"
    print(f"known-hang job {' '.join(job['argv'])}: {state} after {out['seconds']:.1f} s; {job['reason']}")
    problems = specs.coverage_problems()
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=specs.GOLDEN_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    problems = specs.coverage_problems()
    if problems:
        print("self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        R = build.import_ranklab(ROOT)
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.write_golden:
        write_golden(R)
        return 0
    if args.self_test:
        return self_test(R)
    if args.workload is None:
        ap.error("--workload is required")

    cpu = pin_to_one_cpu()
    result = run_workload(R, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, extra = end_to_end(result, args.workload)
    if args.trace:
        layer, layer_extra = per_layer(R, result, args.workload, args.seed)
        extra.update(layer_extra)
    for jid, bad in sorted(result["problems"].items()):
        for b in bad:
            print(f"FAIL {jid}: {b}")
    for rec in result["records"]:
        if rec["error"]:
            print(f"FAIL {rec['job']} round {rec['round']}: {rec['error']}")
    shown = dict(metrics)
    shown["fail_frac"] = extra["fail_frac"]
    if args.trace:
        shown.update(layer)
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:>16.6f} {unit}")
    print(f"{'jobs':32s} {extra['failed']} failed of {extra['attempted']} attempted; "
          f"{extra['job_samples']} timed samples of {extra['jobs_per_round']} jobs in {extra['rounds']} rounds; "
          f"wall_s sums and job_p50_s is the median of the per-job medians; "
          f"job_tail_s is p{extra['job_tail_percentile']:.1f} of {extra['tail_entries']} job-round entries")
    print(f"{'unscaled':32s} " + ", ".join(f"{k} {v:.6f}" for k, v in extra["raw_s"].items())
          + f"; reference median {extra['reference_s']:.6f} s against {REFERENCE_S} s nominal")

    report = {
        "workload": args.workload,
        "provenance": {**provenance(args.seed), "pinned_cpu": cpu},
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": result["rounds"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "extra": {k: v for k, v in extra.items() if k != "fail_frac"},
        "setup_times": result["setup_times"],
        "setup_raw": result["setup_raw"],
        "phase_s": result["phase_s"],
        "tags": {j["id"]: j["tags"] for j in result["jobs"]},
        "records": result["records"],
        "problems": result["problems"],
        "replay_errors": result["replay_errors"],
    }
    if args.trace:
        report["spans"] = result["tracer"].spans
        report["counts"] = dict(result["tracer"].counts)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    final = layer if args.trace else metrics
    print(json.dumps({
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in final.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
