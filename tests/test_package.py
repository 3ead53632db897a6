"""The package's public surface, and what ``import ranklab`` loads."""

import importlib
import json

import pytest

import ranklab
from helpers import run_python

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
