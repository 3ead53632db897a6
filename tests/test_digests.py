"""Report digests over every route that reads the rank ball.

Each case is one report: the order of ``enumerate_ball``, a
``max_list_size`` sweep with each exhaustive route forced and with the
router's own choice, a Monte Carlo run on each far route and on the
neighbourhood tally, or a ``coset_partition_check``.  Its digest is the
SHA-256 of the report's canonical JSON (sorted keys, no spaces), and
``tests/golden/digests.json`` holds one per case.  The grid covers q in
{2, 3, 4, 5, 9}, small shapes and every radius, and runs in a few
seconds.  A route is forced by patching ``listdec._sweep_route`` or
``listdec._far_route``.

A change meant to alter report bytes regenerates the file with
``PYTHONPATH=src python tests/test_digests.py`` and names each case that
changed and why.
"""

import hashlib
import json
import random
from itertools import chain
from pathlib import Path

import pytest

from ranklab import listdec
from ranklab.codes import gabidulin, sample_random_code, sample_random_linear_code
from ranklab.fields import default_context
from ranklab.harness import coset_partition_check
from ranklab.listdec import max_list_size
from ranklab.rankmetric import RankVector, enumerate_ball

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

# (q, m, n): q = 4 and 9 have a non-prime base field
SHAPES = ((2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 3, 2), (3, 3, 3), (4, 2, 2), (5, 2, 2), (9, 2, 2))
# (q, m, n, s) whose balls are read in many chunks, on the routes that read
# the offsets: the order, the scatter, the coset tally and the probe
CHUNKED = ((2, 6, 3, 2), (3, 4, 3, 2))
EXPLICIT_SIZES = (1, 5, 20)
MC = {"mode": "montecarlo", "centers": 30, "seed": 1}
FAR = {"neighborhood_cap": 0, **MC}  # past the neighbourhood tally


def digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def forced(name: str, result):
    """A thunk factory: run ``call`` with ``listdec.<name>`` returning
    ``result``, or as it is when ``result`` is None."""

    def run(call):
        with pytest.MonkeyPatch.context() as patched:
            if result is not None:
                patched.setattr(listdec, name, lambda *args: result)
            return call()

    return run


def cases():
    """(name, thunk) for every case of the grid, the thunk returning the
    report's JSON payload."""
    rng = random.Random(14)
    for q, m, n in SHAPES:
        ctx = default_context(q, m)
        shape = f"q{q}m{m}n{n}"
        centers = {"zero": (0,) * n, "random": tuple(rng.randrange(ctx.order) for _ in range(n))}
        for r in range(n + 1):
            for label, entries in centers.items():
                center = RankVector(ctx, entries)
                yield f"ball/{shape}/r{r}/{label}", lambda c=center, r=r: [v.entries for v in enumerate_ball(c, r)]
        explicit = {f"explicit{size}": sample_random_code(ctx, n, size, seed=size) for size in EXPLICIT_SIZES}
        linear = {"linear": sample_random_linear_code(ctx, n, 1, seed=q), "gabidulin": gabidulin(ctx, n, 1)}
        for s in range(n + 1):
            keyed = listdec._key_count(ctx, n, s) > 0
            for kind, code in {**explicit, **linear}.items():
                routes = ("fold", "coset") if kind in linear else ("counters", "scatter")
                for route in (None, *routes):
                    run = forced("_sweep_route", route)
                    yield (
                        f"exhaustive/{shape}/s{s}/{kind}/{route or 'routed'}",
                        lambda run=run, code=code, s=s: run(lambda: max_list_size(code, s).as_dict()),
                    )
                far = [None, ("probe", False), ("rank", False)]
                far += [("probe", True), ("rank", True)] if keyed else []
                far += [("coset", False)] if kind in linear else []
                for route in far:
                    run = forced("_far_route", route)
                    name = "routed" if route is None else route[0] + ("_keyed" if route[1] else "")
                    yield (
                        f"montecarlo/{shape}/s{s}/{kind}/{name}",
                        lambda run=run, code=code, s=s: run(lambda: max_list_size(code, s, **FAR).as_dict()),
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
            "exhaustive/explicit5/scatter": ("_sweep_route", "scatter", explicit, {}),
            "exhaustive/linear/coset": ("_sweep_route", "coset", linear, {}),
            "montecarlo/linear/coset": ("_far_route", ("coset", False), linear, FAR),
            "montecarlo/explicit5/probe": ("_far_route", ("probe", False), explicit, FAR),
            "montecarlo/explicit5/probe_keyed": ("_far_route", ("probe", True), explicit, FAR),
        }
        for label, (name, route, code, kwargs) in runs.items():
            mode, _, rest = label.partition("/")
            run = forced(name, route)
            yield (
                f"{mode}/{shape}/s{s}/{rest}",
                lambda run=run, code=code, s=s, kw=kwargs: run(lambda: max_list_size(code, s, **kw).as_dict()),
            )


def compute() -> dict:
    return {name: digest(thunk()) for name, thunk in chain(cases(), chunked_cases())}


def test_every_report_matches_its_digest():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = compute()
    assert got.keys() == expected.keys()
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
