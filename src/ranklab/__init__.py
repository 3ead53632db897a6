"""Exact combinatorics, bounds, and list-decoding experiments for
rank-metric codes at desk scale.

Every export below, submodules included, loads its submodule on first
use (PEP 562), so ``import ranklab`` alone imports none of them.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "CurvePoint",
        "alpha_exact",
        "code_rate",
        "emit_barrier_curves",
        "gv_alpha_lower",
        "gv_barrier",
        "hamming_check",
        "singleton_barrier",
        "singleton_max_log_size",
        "theta_threshold",
    ),
    "codefile": ("dump_code", "dumps_code", "load_code", "loads_code"),
    "codes": (
        "ExplicitCode",
        "GabidulinCode",
        "LinearCode",
        "enumerate_codewords",
        "gabidulin",
        "gabidulin_encode",
        "min_rank_distance",
        "sample_random_code",
        "sample_random_linear_code",
    ),
    "errors": ("EnumerationCapExceeded", "InfeasibleError"),
    "fields": ("ExtCtx", "FieldCtx", "context_from_descriptor", "default_context"),
    "harness": (
        "CosetCheckReport",
        "EnsembleSpec",
        "ProbeRow",
        "TrialOutcome",
        "TrialReport",
        "coset_partition_check",
        "run_ensemble",
        "threshold_probe",
    ),
    "listdec": (
        "ListReport",
        "decoding_radius",
        "is_list_decodable",
        "list_size_at",
        "max_list_size",
        "pigeonhole_lower_bound",
        "pigeonhole_loose_form",
        "radius_from_fraction",
    ),
    "rankmetric": (
        "DEFAULT_ENUM_CAP",
        "KqInterval",
        "RankVector",
        "VolumeResult",
        "ball_volume",
        "count_rank_u",
        "enumerate_ball",
        "iter_all_vectors",
        "kq_constant",
        "matrix_to_vector",
        "rank_distance",
        "rank_fq",
        "rank_of_vector",
        "vector_to_matrix",
    ),
    "rng": ("make_rng", "substream_seed"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
