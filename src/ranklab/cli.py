"""Command-line front end.

Subcommands: volume, bounds, sample, listdecode, experiment, curves,
coset-check.  Shared flags (--seed, --workers, --cap, --format) attach
to every subcommand.  JSON output is a versioned envelope carrying the
echoed inputs, a content hash of them, and the seed when one was used;
CSV output is a bare table with a header row, UTF-8, LF line endings;
a nested value (a dict or list) fills its cell as compact JSON.
Exit status: 0 on success, 2 for infeasible or out-of-range parameters,
1 for internal errors and for a reader that closed stdout early.  Each
subcommand imports only the modules it runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import InfeasibleError
from .fields import context_from_descriptor, default_context
from .rankmetric import DEFAULT_ENUM_CAP, _plain, ball_volume


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _emit(args, inputs: dict, result, rows=None, seed=None) -> None:
    """Print one report as an enveloped JSON object or a bare CSV table."""
    if args.format == "csv":
        import csv

        table = rows if rows is not None else [result]
        writer = csv.DictWriter(sys.stdout, fieldnames=list(table[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({key: _cell(value) for key, value in row.items()} for row in table)
        return
    from .rng import content_hash

    envelope = {
        "schema": f"ranklab.{args.command}/1",
        "inputs": inputs,
        "content_hash": content_hash(inputs),
    }
    if seed is not None:
        envelope["seed"] = seed
    envelope["result"] = {"rows": rows} if rows is not None else result
    json.dump(envelope, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cell(value):
    """A CSV cell: a dict or list as compact JSON, any other value as is."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def _echo(args, *names) -> dict:
    """The named flags as report inputs, each value through the report value rule."""
    return {name: _plain(getattr(args, name)) for name in names}


def _resolve_context(args):
    if getattr(args, "field", None):
        return context_from_descriptor(args.field)
    if args.q is None or args.m is None:
        raise ValueError("give either --field or both --q and --m")
    return default_context(args.q, args.m)


def _resolve_radius(args, n: int) -> int:
    if getattr(args, "radius", None) is not None:
        return args.radius
    if getattr(args, "rho", None) is not None:
        from .listdec import radius_from_fraction

        return radius_from_fraction(args.rho, n)
    raise ValueError("give either --radius or --rho")


def _cmd_volume(args) -> None:
    res = ball_volume(args.q, args.m, args.n, args.r, kq_tol=args.kq_tol)
    _emit(args, _echo(args, "q", "m", "n", "r", "kq_tol"), res.as_dict())


# each bound's function in ``bounds`` (loaded only by this command) and its flags
_BOUNDS = {
    "singleton": ("singleton_max_log_size", ("q", "m", "n", "d")),
    "hamming": ("hamming_check", ("code_size", "q", "m", "n", "d")),
    "gv_lower": ("gv_alpha_lower", ("delta", "b")),
    "alpha_exact": ("alpha_exact", ("delta",)),
    "singleton_barrier": ("singleton_barrier", ("rate",)),
    "gv_barrier": ("gv_barrier", ("rho", "b")),
    "theta_threshold": ("theta_threshold", ("rate", "eps")),
}


def _cmd_bounds(args) -> None:
    from . import bounds

    func, params = _BOUNDS[args.name]
    for pname in params:
        if getattr(args, pname) is None:
            raise ValueError(f"bound {args.name!r} needs --{pname.replace('_', '-')}")
    kwargs = {pname: getattr(args, pname) for pname in params}
    report = getattr(bounds, func)(**kwargs)
    if not isinstance(report, bounds.BoundReport):
        report = bounds.BoundReport(args.name, kwargs, report)
    _emit(args, {"name": args.name, **_echo(args, *params)}, report.as_dict())


def _cmd_sample(args) -> None:
    from . import codefile
    from .codes import _check_word_cap, gabidulin, sample_random_code, sample_random_linear_code

    ctx = _resolve_context(args)
    if args.kind == "random":
        if args.size is None:
            raise ValueError("kind=random needs --size")
        _check_word_cap(args.size, args.cap)  # before the whole space or any draw is built
        code = sample_random_code(ctx, args.n, args.size, args.seed)
    elif args.kind == "random_linear":
        if args.k is None:
            raise ValueError("kind=random_linear needs --k")
        code = sample_random_linear_code(ctx, args.n, args.k, args.seed)
    else:
        if args.k is None:
            raise ValueError("kind=gabidulin needs --k")
        code = gabidulin(ctx, args.n, args.k)
    text = codefile.dumps_code(code)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_listdecode(args) -> None:
    from . import codefile
    from .listdec import max_list_size, pigeonhole_loose_form

    if args.list_cap is not None and args.list_cap < 1:
        raise ValueError("list cap must be at least 1")
    with open(args.code, encoding="utf-8") as fh:
        code = codefile.load_code(fh)
    s = _resolve_radius(args, code.n)
    report = max_list_size(
        code,
        s,
        args.mode,
        centers=args.centers,
        seed=args.seed,
        cap=args.cap,
        workers=args.workers,
    )
    ctx = code.ctx
    result = report.as_dict()
    result["loose_closed_form"] = str(
        pigeonhole_loose_form(code.size, ctx.base.q, ctx.m, code.n, s)
    )
    if args.list_cap is not None:
        result["list_cap"] = args.list_cap
        result["list_decodable"] = report.l_max <= args.list_cap
    inputs = {
        "code": args.code,
        "radius_s": s,
        "mode": args.mode,
        "centers": args.centers,
        "cap": args.cap,
    }
    _emit(args, inputs, result, seed=args.seed)


def _cmd_experiment(args) -> None:
    from .harness import EnsembleSpec, run_ensemble

    n = args.n
    spec = EnsembleSpec(
        kind=args.kind,
        q=args.q,
        m=args.m,
        n=n,
        rate_target=args.rate,
        radius_s=_resolve_radius(args, n),
        list_cap=args.list_cap,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_ensemble(spec, workers=args.workers, cap=args.cap)
    _emit(args, spec.as_dict(), report.as_dict(), seed=args.seed)


def _cmd_curves(args) -> None:
    from .bounds import emit_barrier_curves

    points = emit_barrier_curves(args.b, args.grid)
    rows = [p.as_dict() for p in points]
    _emit(args, _echo(args, "b", "grid"), None, rows=rows)


def _cmd_coset_check(args) -> None:
    from . import codefile
    from .harness import coset_partition_check

    with open(args.code, encoding="utf-8") as fh:
        code = codefile.load_code(fh)
    s = _resolve_radius(args, code.n)
    report = coset_partition_check(code, s, cap=args.cap)
    inputs = {"code": args.code, "radius_s": s, "cap": args.cap}
    _emit(args, inputs, report.as_dict())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    common.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help=f"cap on centers swept, words held and ball offsets (default {DEFAULT_ENUM_CAP})",
    )
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="ranklab",
        description="Exact rank-metric code combinatorics, bounds, and list-decoding probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", parents=[common], help="exact rank-ball volume with bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kq-tol", type=_fraction, default=Fraction(1, 10**9))
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("bounds", parents=[common], help="evaluate one named bound")
    p.add_argument("--name", choices=sorted(_BOUNDS), required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--code-size", dest="code_size", type=int)
    p.add_argument("--b", type=_fraction)
    p.add_argument("--rate", type=_fraction)
    p.add_argument("--rho", type=_fraction)
    p.add_argument("--delta", type=_fraction)
    p.add_argument("--eps", type=_fraction)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sample", parents=[common], help="sample or build a code file")
    p.add_argument("--kind", choices=("random", "random_linear", "gabidulin"), required=True)
    p.add_argument("--field", help="field descriptor, e.g. 2/3:1,1,0,1")
    p.add_argument("--q", type=int, help="base field size (with --m, instead of --field)")
    p.add_argument("--m", type=int, help="extension degree (with --q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, help="codeword count for kind=random")
    p.add_argument("--k", type=int, help="dimension for the linear kinds")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("listdecode", parents=[common], help="worst list size for a code file")
    p.add_argument("--code", required=True, help="path to a rankcode/1 file")
    p.add_argument("--radius", type=int, help="rank radius s")
    p.add_argument("--rho", type=_fraction, help="radius fraction; s = floor(rho*n)")
    p.add_argument("--mode", choices=("exhaustive", "montecarlo"), default="exhaustive")
    p.add_argument("--centers", type=int, default=1000, help="extra Monte Carlo centers")
    p.add_argument("--list-cap", dest="list_cap", type=int, help="report a verdict against this L")
    p.set_defaults(func=_cmd_listdecode)

    p = sub.add_parser("experiment", parents=[common], help="seeded ensemble of sampled codes")
    p.add_argument("--kind", choices=("random", "random_linear"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=_fraction, required=True)
    p.add_argument("--radius", type=int)
    p.add_argument("--rho", type=_fraction)
    p.add_argument("--list-cap", dest="list_cap", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("curves", parents=[common], help="barrier curves on a rational grid")
    p.add_argument("--b", type=_fraction, required=True, help="aspect ratio n/m")
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("coset-check", parents=[common], help="exact ball-across-cosets tally")
    p.add_argument("--code", required=True, help="path to a kind=linear rankcode/1 file")
    p.add_argument("--radius", type=int)
    p.add_argument("--rho", type=_fraction)
    p.set_defaults(func=_cmd_coset_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): not a parameter error, and
        # the interpreter's exit flush must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InfeasibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
