"""The package's public surface, and what ``import ranklab`` loads."""

import importlib
import json

import pytest

import ranklab
from helpers import run_python
from ranklab.codefile import loads_code
from ranklab.codes import gabidulin, gabidulin_encode
from ranklab.fields import ExtCtx, FieldCtx, context_from_descriptor, default_context
from ranklab.rankmetric import (
    RankVector,
    matrix_to_vector,
    rank_fq,
    rref_fq,
    unflatten_vector,
    vector_from_index,
)

# frozen public surface: submodule -> the names ``from ranklab import *``
# binds from it; with the nine submodules themselves, 71 names
EXPORTS = {
    "bounds": [
        "BoundReport", "CurvePoint", "alpha_exact", "code_rate", "emit_barrier_curves",
        "gv_alpha_lower", "gv_barrier", "hamming_check", "singleton_barrier",
        "singleton_max_log_size", "theta_threshold",
    ],
    "codefile": ["dump_code", "dumps_code", "load_code", "loads_code"],
    "codes": [
        "ExplicitCode", "GabidulinCode", "LinearCode", "enumerate_codewords", "gabidulin",
        "gabidulin_encode", "min_rank_distance", "sample_random_code", "sample_random_linear_code",
    ],
    "errors": ["EnumerationCapExceeded", "InfeasibleError"],
    "fields": ["ExtCtx", "FieldCtx", "context_from_descriptor", "default_context"],
    "harness": [
        "CosetCheckReport", "EnsembleSpec", "ProbeRow", "TrialOutcome", "TrialReport",
        "coset_partition_check", "run_ensemble", "threshold_probe",
    ],
    "listdec": [
        "ListReport", "decoding_radius", "is_list_decodable", "list_size_at", "max_list_size",
        "pigeonhole_lower_bound", "pigeonhole_loose_form", "radius_from_fraction",
    ],
    "rankmetric": [
        "DEFAULT_ENUM_CAP", "KqInterval", "RankVector", "VolumeResult", "ball_volume",
        "count_rank_u", "enumerate_ball", "iter_all_vectors", "kq_constant", "matrix_to_vector",
        "rank_distance", "rank_fq", "rank_of_vector", "vector_to_matrix",
    ],
    "rng": ["make_rng", "substream_seed"],
}
STAR_NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_star_import_binds_the_frozen_names():
    assert len(STAR_NAMES) == 71
    namespace = {}
    exec("from ranklab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == STAR_NAMES
    assert set(STAR_NAMES) <= set(dir(ranklab))


def test_each_export_is_its_submodule_attribute():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"ranklab.{module}")
        assert getattr(ranklab, module) is sub
        for name in names:
            assert getattr(ranklab, name) is getattr(sub, name), name
    # names that moved to bounds stay importable from harness
    for name in ("CurvePoint", "emit_barrier_curves"):
        assert getattr(ranklab.harness, name) is getattr(ranklab.bounds, name)


def test_unknown_names_and_version():
    assert not hasattr(ranklab, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(ranklab, "no_such_export")
    assert ranklab.__version__ == "0.1.0"


def test_import_loads_no_submodule_until_one_is_used():
    # a fresh interpreter: here every submodule is loaded already
    probe = (
        "import json, sys\n"
        "import ranklab\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('ranklab.', 'concurrent')))\n"
        f"subs = {sorted(EXPORTS)!r}\n"
        "same = [getattr(ranklab, s) is sys.modules['ranklab.' + s] for s in subs]\n"
        "print(json.dumps({'loaded': loaded, 'same': same, 'unknown': hasattr(ranklab, 'nope')}))\n"
    )
    proc = run_python(["-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"loaded": [], "same": [True] * len(EXPORTS), "unknown": False}


def test_commands_load_neither_dataclasses_nor_inspect():
    # the frozen records are built without dataclasses, whose import (and
    # inspect's through it) cost more start-up than most commands' work
    probe = (
        "import json, runpy, sys\n"
        "def heavy():\n"
        "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "import ranklab.cli, ranklab.harness, ranklab.codefile\n"
        "imported = heavy()\n"
        "sys.argv = ['ranklab', 'volume', '--q', '2', '--m', '4', '--n', '3', '--r', '1']\n"
        "try:\n"
        "    runpy.run_module('ranklab', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps({'imported': imported, 'volume': heavy(), 'code': code}))\n"
    )
    # -S: the interpreter's site set-up (.pth files, site-packages) may
    # import inspect itself, which says nothing of ranklab
    proc = run_python(["-S", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert '"schema": "ranklab.volume/1"' in proc.stdout
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"imported": [], "volume": [], "code": 0}


def test_enumerate_ball_loads_neither_listdec_nor_codes():
    # the ball, its layout and its memo live in rankmetric: enumerating a
    # ball reaches no module above it
    probe = (
        "import json, sys\n"
        "from ranklab.fields import default_context\n"
        "from ranklab.rankmetric import RankVector, ball_volume, enumerate_ball\n"
        "center = RankVector(default_context(2, 4), (3, 9, 1))\n"
        "size = sum(1 for _ in enumerate_ball(center, 2))\n"
        "loaded = [m for m in ('ranklab.listdec', 'ranklab.codes') if m in sys.modules]\n"
        "print(json.dumps({'size': size, 'volume': ball_volume(2, 4, 3, 2).exact, 'loaded': loaded}))\n"
    )
    proc = run_python(["-S", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"size": 1576, "volume": 1576, "loaded": []}


# every public entry point that takes element codes from outside, each
# given one code through ``code(order)``: an F_9 code (order 9), an F_3
# coordinate or modulus coefficient (order 3), or a vector index (order 9
# at n = 1); the modulus cases read x^2 + x + code, irreducible at code 2
CODE_ENTRY_POINTS = {
    "RankVector": lambda ctx, code: RankVector(ctx, (0, code(9))),
    "ext_to_vec": lambda ctx, code: ctx.ext_to_vec(code(9)),
    "vec_to_ext": lambda ctx, code: ctx.vec_to_ext((0, code(3))),
    "matrix_to_vector": lambda ctx, code: matrix_to_vector(((0, 1), (code(3), 0)), ctx),
    "unflatten_vector": lambda ctx, code: unflatten_vector(ctx, 2, (0, 1, code(3), 0)),
    "rank_fq": lambda ctx, code: rank_fq(((1, code(3)),), ctx.base),
    "rref_fq": lambda ctx, code: rref_fq(((1, code(3)),), ctx.base),
    "gabidulin_encode": lambda ctx, code: gabidulin_encode(gabidulin(ctx, 2, 1), (code(9),)),
    "gabidulin_points": lambda ctx, code: gabidulin(ctx, 2, 1, points=(1, code(9))),
    "FieldCtx_modulus": lambda ctx, code: FieldCtx(3, 2, (code(3), 1, 1)),
    "ExtCtx_modulus": lambda ctx, code: ExtCtx(ctx.base, 2, (code(3), 1, 1)),
    "descriptor_base_modulus": lambda ctx, code: context_from_descriptor(f"3^2:{code(3)},1,1/1:0,1"),
    "descriptor_ext_modulus": lambda ctx, code: context_from_descriptor(f"3/2:{code(3)},1,1"),
    "loads_code_coordinate": lambda ctx, code: loads_code(
        f"rankcode/1 field={ctx.descriptor()} n=1 kind=explicit size=1\n0:{code(3)}\n"
    ),
    "loads_code_modulus": lambda ctx, code: loads_code(
        f"rankcode/1 field=3/2:{code(3)},1,1 n=1 kind=explicit size=1\n0:1\n"
    ),
    "loads_code_points": lambda ctx, code: loads_code(
        f"rankcode/1 field={ctx.descriptor()} n=2 kind=gabidulin k=1\n1:0,{code(3)}:1\n"
    ),
    "vector_from_index": lambda ctx, code: vector_from_index(ctx, 1, code(9)),
}


@pytest.mark.parametrize("entry", sorted(CODE_ENTRY_POINTS))
def test_every_entry_point_checks_the_element_codes_it_takes(entry):
    # the arithmetic takes codes unchecked, so each code from outside is
    # checked where it enters: -1 and the order are refused, order - 1 is not
    ctx = default_context(3, 2)
    CODE_ENTRY_POINTS[entry](ctx, lambda order: order - 1)
    for bad in (lambda order: -1, lambda order: order):
        with pytest.raises(ValueError):
            CODE_ENTRY_POINTS[entry](ctx, bad)
