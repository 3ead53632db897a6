"""Report digests over every route that reads the rank ball.

Each case is one report: the order of ``enumerate_ball``, a
``max_list_size`` sweep with each exhaustive route forced and with the
picker's own choice, a Monte Carlo run on each far route and on the
neighbourhood tally, or a ``coset_partition_check``.  Its digest is the
SHA-256 of the report's canonical JSON (sorted keys, no spaces), and
``tests/golden/digests.json`` holds one per case.  The grid covers q in
{2, 3, 4, 5, 8, 9}, small shapes, every radius, explicit, linear (k = 0,
1 and 2) and Gabidulin codes, and far runs at 0, 30 and 300 centers, and
runs in a few seconds; q = 16 and 257 take the picker's routes alone.  A
route is forced by patching the one route picker, ``listdec._route``, to
answer its name.  Beside the reports, the grid holds the
``min_rank_distance`` of each code of two or more words, the rows of
``run_ensemble`` for both ensembles, exhaustive and, under a small cap,
Monte Carlo, the counters and the ensemble split over two workers, and
the words each code sampler draws.

A change meant to alter report bytes regenerates the file with
``PYTHONPATH=src python tests/test_digests.py`` and names each case that
changed and why.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from ranklab import listdec
from ranklab.codes import (
    enumerate_codewords,
    gabidulin,
    min_rank_distance,
    sample_random_code,
    sample_random_linear_code,
)
from ranklab.fields import default_context
from ranklab.harness import EnsembleSpec, coset_partition_check, run_ensemble
from ranklab.listdec import max_list_size
from ranklab.rankmetric import RankVector, enumerate_ball

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

# (q, m, n): q = 4, 9 and 8 have a non-prime base field; a new shape goes
# last, so the random centers of the others stay as they were drawn
SHAPES = ((2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 3, 2), (3, 3, 3), (4, 2, 2), (5, 2, 2), (9, 2, 2), (8, 2, 2))
# shapes run on the picker's own routes alone, after ``SHAPES`` for the same
# reason: q = 16, and q = 257, past the byte slots (n(p - 1) > 255) and past
# q = 256 (no dependency keys, no probe); no route is forced here, as forcing
# the probe at q = 257 overflows a byte and forcing the rank on their 256- and
# 257-word linear codes takes about half a second a case
ROUTED_ONLY = ((16, 2, 1), (257, 1, 1))
# (q, m, n, s) whose balls are read in many chunks, on the routes that read
# the offsets: the order, the scatter, the coset tally and the probe
CHUNKED = ((2, 6, 3, 2), (3, 4, 3, 2))
EXPLICIT_SIZES = (1, 5, 20)
# F_q-dimensions of the linear codes beside k = 1 (kind "linear"): the zero
# code and a code of q^2 words
LINEAR_DIMS = (0, 2)
# random centers of the far runs beside ``MC``'s, none and more than the
# small spaces hold, for one explicit and one linear kind
FAR_CENTERS = (0, 300)
FAR_CENTERS_KINDS = ("explicit5", "linear")
MC = {"mode": "montecarlo", "centers": 30, "seed": 1}
FAR = {"neighborhood_cap": 0, **MC}  # past the neighbourhood tally
# (q, m, n) of the ensembles: a cap of 48 is below both spaces (64 and 81
# vectors) and above both radius-1 balls, so every trial falls back to
# Monte Carlo at one (ctx, n, s) and reads one memoized ball
ENSEMBLE_SHAPES = ((2, 3, 2), (3, 2, 2))
ENSEMBLE_CAPS = {"exhaustive": 2**24, "montecarlo": 48}
# (explicit shape, s) of the counters split over two worker processes
WORKER_SWEEPS = (((2, 4, 3), 1), ((3, 3, 2), 1))


def digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def forced(route):
    """A thunk factory: run ``call`` with ``listdec._route`` answering
    ``route``, or as it is when ``route`` is None."""

    def run(call):
        with pytest.MonkeyPatch.context() as patched:
            if route is not None:
                patched.setattr(listdec, "_route", lambda *args: route)
            return call()

    return run


def cases():
    """(name, thunk) for every case of the grid, the thunk returning the
    report's JSON payload."""
    rng = random.Random(14)
    for q, m, n in SHAPES + ROUTED_ONLY:
        ctx = default_context(q, m)
        shape = f"q{q}m{m}n{n}"
        routed_only = (q, m, n) in ROUTED_ONLY
        centers = {"zero": (0,) * n, "random": tuple(rng.randrange(ctx.order) for _ in range(n))}
        for r in range(n + 1):
            for label, entries in centers.items():
                center = RankVector(ctx, entries)
                yield f"ball/{shape}/r{r}/{label}", lambda c=center, r=r: [v.entries for v in enumerate_ball(c, r)]
        explicit = {f"explicit{size}": sample_random_code(ctx, n, size, seed=size) for size in EXPLICIT_SIZES}
        linear = {"linear": sample_random_linear_code(ctx, n, 1, seed=q), "gabidulin": gabidulin(ctx, n, 1)}
        linear |= {f"linear-k{k}": sample_random_linear_code(ctx, n, k, seed=q) for k in LINEAR_DIMS if k <= m * n}
        for kind, code in {**explicit, **linear}.items():
            if code.size > 1:
                yield f"min_distance/{shape}/{kind}", lambda code=code: min_rank_distance(code)
        for s in range(n + 1):
            keyed = listdec._key_count(ctx, n, s) > 0
            for kind, code in {**explicit, **linear}.items():
                routes = ("fold", "coset") if kind in linear else ("counters", "scatter")
                for route in (None,) if routed_only else (None, *routes):
                    run = forced(route)
                    yield (
                        f"exhaustive/{shape}/s{s}/{kind}/{route or 'routed'}",
                        lambda run=run, code=code, s=s: run(lambda: max_list_size(code, s).as_dict()),
                    )
                # (case name, route)
                far = [("routed", None)]
                if not routed_only:
                    far += [("probe", "probe"), ("rank", "rank")]
                    far += [("probe_keyed", "probe-keyed"), ("rank_keyed", "rank-keyed")] if keyed else []
                    far += [("coset", "far-coset")] if kind in linear else []
                for name, route in far:
                    run = forced(route)
                    yield (
                        f"montecarlo/{shape}/s{s}/{kind}/{name}",
                        lambda run=run, code=code, s=s: run(lambda: max_list_size(code, s, **FAR).as_dict()),
                    )
                    for drawn in FAR_CENTERS if kind in FAR_CENTERS_KINDS else ():
                        yield (
                            f"centers{drawn}/{shape}/s{s}/{kind}/{name}",
                            lambda run=run, code=code, s=s, kw={**FAR, "centers": drawn}: run(
                                lambda: max_list_size(code, s, **kw).as_dict()
                            ),
                        )
                yield (
                    f"montecarlo/{shape}/s{s}/{kind}/neighbourhood",
                    lambda code=code, s=s: max_list_size(code, s, neighborhood_cap=2**24, **MC).as_dict(),
                )
            code = linear["linear"]
            yield f"coset_check/{shape}/s{s}", lambda code=code, s=s: coset_partition_check(code, s).as_dict()


def chunked_cases():
    """(name, thunk) for the ``CHUNKED`` balls, as in ``cases``."""
    for q, m, n, s in CHUNKED:
        ctx = default_context(q, m)
        shape = f"q{q}m{m}n{n}"
        center = RankVector(ctx, tuple(range(1, n + 1)))
        yield f"ball/{shape}/r{s}/chunked", lambda c=center, s=s: [v.entries for v in enumerate_ball(c, s)]
        explicit = sample_random_code(ctx, n, 5, seed=5)
        linear = sample_random_linear_code(ctx, n, 1, seed=q)
        runs = {
            "exhaustive/explicit5/scatter": ("scatter", explicit, {}),
            "exhaustive/linear/coset": ("coset", linear, {}),
            "montecarlo/linear/coset": ("far-coset", linear, FAR),
            "montecarlo/explicit5/probe": ("probe", explicit, FAR),
            "montecarlo/explicit5/probe_keyed": ("probe-keyed", explicit, FAR),
        }
        for label, (route, code, kwargs) in runs.items():
            mode, _, rest = label.partition("/")
            run = forced(route)
            yield (
                f"{mode}/{shape}/s{s}/{rest}",
                lambda run=run, code=code, s=s, kw=kwargs: run(lambda: max_list_size(code, s, **kw).as_dict()),
            )


def sampler_cases():
    """(name, thunk) for the words of each code sampler over ``SHAPES``:
    explicit codes of ``EXPLICIT_SIZES`` words and, in spaces of at most
    256 vectors, of every vector; linear codes of F_q-dimension 0, 1 and 2,
    their basis and their codewords in enumeration order."""
    for q, m, n in SHAPES + ROUTED_ONLY:
        ctx = default_context(q, m)
        shape = f"q{q}m{m}n{n}"
        space = ctx.order**n
        for size in (*EXPLICIT_SIZES, space) if space <= 256 else EXPLICIT_SIZES:

            def explicit(ctx=ctx, n=n, size=size):
                return [w.entries for w in sample_random_code(ctx, n, size, seed=size).words]

            yield f"codes/{shape}/explicit{size}", explicit
        for k in range(min(2, m * n) + 1):

            def linear(ctx=ctx, n=n, k=k, seed=q + k):
                code = sample_random_linear_code(ctx, n, k, seed=seed)
                words = [w.entries for w in enumerate_codewords(code)]
                return {"basis": [w.entries for w in code.basis], "words": words}

            yield f"codes/{shape}/linear-k{k}", linear


def ensemble_cases():
    """(name, thunk) for the canonical rows of ``run_ensemble``, both
    kinds, over ``ENSEMBLE_SHAPES`` at each of ``ENSEMBLE_CAPS``, and at
    the first shape their trials split over two workers too."""
    for kind in ("random", "random_linear"):
        for q, m, n in ENSEMBLE_SHAPES:
            spec = EnsembleSpec(kind, q, m, n, Fraction(1, 3), 1, 2, 4, 7)
            for mode, cap in ENSEMBLE_CAPS.items():
                yield (
                    f"ensemble/q{q}m{m}n{n}/{kind}/{mode}",
                    lambda spec=spec, cap=cap: run_ensemble(spec, cap=cap).canonical_dict(),
                )
                if (q, m, n) == ENSEMBLE_SHAPES[0]:
                    yield (
                        f"ensemble/q{q}m{m}n{n}/{kind}/{mode}/workers2",
                        lambda spec=spec, cap=cap: run_ensemble(spec, workers=2, cap=cap).canonical_dict(),
                    )


def worker_cases():
    """(name, thunk) for the counters forced on a 20-word explicit code of
    each ``WORKER_SWEEPS`` shape, its codewords split over two workers."""
    run = forced("counters")
    for (q, m, n), s in WORKER_SWEEPS:
        code = sample_random_code(default_context(q, m), n, 20, seed=20)
        yield (
            f"exhaustive/q{q}m{m}n{n}/s{s}/explicit20/counters/workers2",
            lambda code=code, s=s: run(lambda: max_list_size(code, s, workers=2).as_dict()),
        )


def compute() -> dict:
    every = chain(cases(), chunked_cases(), sampler_cases(), ensemble_cases(), worker_cases())
    return {name: digest(thunk()) for name, thunk in every}


def test_every_report_matches_its_digest():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = compute()
    assert got.keys() == expected.keys()
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
