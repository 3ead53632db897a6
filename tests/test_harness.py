"""Seeded ensembles, coset tallies, barrier curves, and probe rows.

The coset check is mirrored by an independent grouping oracle: vectors
are bucketed by the smallest index in their translate set, so the
partition never consults the pivot bookkeeping under test.
"""

import json
from fractions import Fraction

import pytest

from helpers import inline_executor
from ranklab.codes import enumerate_codewords, sample_random_code, sample_random_linear_code
from ranklab.fields import default_context
from ranklab.harness import (
    EnsembleSpec,
    TrialReport,
    content_hash,
    coset_partition_check,
    emit_barrier_curves,
    run_ensemble,
    threshold_probe,
)
from ranklab.listdec import list_size_at
from ranklab.rankmetric import (
    RankVector,
    ball_volume,
    iter_all_vectors,
    rank_of_vector,
    vector_index,
)


def spec_kwargs(**overrides):
    base = dict(
        kind="random",
        q=2,
        m=3,
        n=2,
        rate_target=Fraction(1, 2),
        radius_s=1,
        list_cap=5,
        trials=6,
        seed=5,
    )
    base.update(overrides)
    return base


def test_spec_validation():
    EnsembleSpec(**spec_kwargs())  # baseline is fine
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(kind="exotic"))
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(n=4))  # n > m
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(rate_target=Fraction(3, 2)))
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(radius_s=3))
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(list_cap=0))
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(trials=0))


def test_spec_realized_rate_floors_onto_the_lattice():
    spec = EnsembleSpec(**spec_kwargs(rate_target=Fraction(1, 2)))
    assert spec.realized_log_size == 3  # floor(6 * 1/2)
    assert spec.realized_rate == Fraction(1, 2)
    spec = EnsembleSpec(**spec_kwargs(rate_target=Fraction(3, 10)))
    assert spec.realized_log_size == 1  # floor(1.8)
    assert spec.realized_rate == Fraction(1, 6)
    spec = EnsembleSpec(**spec_kwargs(rate_target=0))
    assert spec.realized_log_size == 0


def test_run_ensemble_is_reproducible():
    spec = EnsembleSpec(**spec_kwargs())
    first = run_ensemble(spec)
    second = run_ensemble(spec)
    assert first == second  # wall time is excluded from equality
    assert first.wall_time_s >= 0
    assert json.dumps(first.canonical_dict()) == json.dumps(second.canonical_dict())


def test_run_ensemble_worker_count_is_invisible():
    spec = EnsembleSpec(**spec_kwargs(trials=8))
    solo = run_ensemble(spec, workers=1)
    multi = run_ensemble(spec, workers=4)
    assert solo == multi
    assert json.dumps(solo.canonical_dict()) == json.dumps(multi.canonical_dict())


def test_run_ensemble_pool_is_sized_to_the_trials(monkeypatch):
    sizes = []
    monkeypatch.setattr("ranklab.harness.ProcessPoolExecutor", inline_executor(sizes))
    spec = EnsembleSpec(**spec_kwargs(trials=2))
    report = run_ensemble(spec, workers=4)
    assert sizes == [2]  # one process per trial, not per requested worker
    assert report == run_ensemble(spec)


def test_run_ensemble_outcome_shape():
    spec = EnsembleSpec(**spec_kwargs(trials=5))
    report = run_ensemble(spec)
    assert [o.index for o in report.outcomes] == [0, 1, 2, 3, 4]
    assert all(o.exact for o in report.outcomes)  # space 64 fits the cap
    assert report.failures == sum(1 for o in report.outcomes if o.failed)
    assert report.failure_fraction == Fraction(report.failures, 5)


def test_run_ensemble_frozen_failure_fraction():
    # 8-word random codes in F_{2^3}^2 at radius 1 against a list cap of 5:
    # 18 of these 30 seeded trials exceed the cap
    spec = EnsembleSpec(**spec_kwargs(trials=30, list_cap=5))
    report = run_ensemble(spec)
    assert report.failures == 18
    assert report.failure_fraction == Fraction(3, 5)
    caps_off = run_ensemble(EnsembleSpec(**spec_kwargs(trials=30, list_cap=7)))
    assert caps_off.failures == 0
    assert caps_off.failure_fraction == 0


def test_trial_report_serialization_contract():
    spec = EnsembleSpec(**spec_kwargs(trials=2))
    report = run_ensemble(spec)
    canon = report.canonical_dict()
    assert canon["schema"] == "ranklab.trial-report/1"
    assert "wall_time_s" not in canon
    assert canon["spec"]["rate_target"] == "1/2"
    assert canon["realized"] == {"log_size": 3, "rate": "1/2"}
    full = report.as_dict()
    assert full["wall_time_s"] == report.wall_time_s
    trimmed = {k: v for k, v in full.items() if k != "wall_time_s"}
    assert trimmed == canon


def test_trial_report_equality_ignores_wall_time():
    spec = EnsembleSpec(**spec_kwargs(trials=2))
    a = run_ensemble(spec)
    b = TrialReport(
        spec=a.spec,
        outcomes=a.outcomes,
        failures=a.failures,
        failure_fraction=a.failure_fraction,
        metadata=a.metadata,
        wall_time_s=a.wall_time_s + 1000.0,
    )
    assert a == b


def test_ensemble_metadata_frozen_values():
    random_meta = run_ensemble(
        EnsembleSpec(**spec_kwargs(m=2, rate_target=Fraction(1, 4), trials=2))
    ).metadata
    assert random_meta == (
        ("aspect_b", "1"),
        ("rho", "1/2"),
        ("epsilon_vs_singleton", "1/4"),
        ("list_size_scale_hint", "16"),
    )
    at_barrier = run_ensemble(
        EnsembleSpec(**spec_kwargs(m=2, rate_target=Fraction(1, 2), trials=2))
    ).metadata
    assert dict(at_barrier)["epsilon_vs_singleton"] == "0"
    assert "list_size_scale_hint" not in dict(at_barrier)
    linear_meta = run_ensemble(
        EnsembleSpec(
            **spec_kwargs(kind="random_linear", rate_target=Fraction(1, 6), trials=2)
        )
    ).metadata
    assert linear_meta == (
        ("aspect_b", "2/3"),
        ("rho", "1/2"),
        ("epsilon_vs_gv", "1/6"),
        ("aspect_m_hint", "12"),
    )


def oracle_partition_counts(code, s):
    """Bucket the whole space into translate classes and count ball hits."""
    ctx = code.ctx
    words = [w.entries for w in enumerate_codewords(code)]
    groups = {}
    for v in iter_all_vectors(ctx, code.n):
        translates = [
            tuple(ctx.add(a, b) for a, b in zip(v.entries, w)) for w in words
        ]
        key = min(vector_index(RankVector(ctx, t)) for t in translates)
        groups.setdefault(key, []).append(v)
    counts = []
    for bucket in groups.values():
        counts.append(sum(1 for v in bucket if rank_of_vector(v) <= s))
    return counts


def test_coset_partition_check_battery():
    ctx = default_context(2, 2)
    for k in range(5):
        code = sample_random_linear_code(ctx, 2, k, seed=k)
        for s in range(3):
            report = coset_partition_check(code, s)
            assert report.identity_ok
            assert report.total == report.ball == ball_volume(2, 2, 2, s).exact
            assert report.coset_count == 2 ** (4 - k)
            assert report.meets_average_bound
            counts = oracle_partition_counts(code, s)
            assert len(counts) == report.coset_count
            assert sum(counts) == report.ball
            assert max(counts) == report.max_count
            # the tally read at -max_rep is the list size there
            zero = RankVector.zero(ctx, 2)
            assert list_size_at(code, zero - report.max_rep, s) == report.max_count


def test_coset_partition_check_ternary():
    ctx = default_context(3, 2)
    for k, s in ((0, 1), (1, 1), (2, 0), (2, 1)):
        code = sample_random_linear_code(ctx, 1, k, seed=3)
        report = coset_partition_check(code, s)
        assert report.identity_ok and report.meets_average_bound
        counts = oracle_partition_counts(code, s)
        assert max(counts) == report.max_count


def test_coset_partition_check_errors():
    ctx = default_context(2, 2)
    explicit = sample_random_code(ctx, 2, 4, seed=0)
    with pytest.raises(ValueError):
        coset_partition_check(explicit, 1)
    linear = sample_random_linear_code(ctx, 2, 2, seed=0)
    with pytest.raises(ValueError):
        coset_partition_check(linear, 9)


def test_barrier_curves_grid_and_endpoints():
    points = emit_barrier_curves(Fraction(1, 2), grid_points=5)
    assert [p.rho for p in points] == [Fraction(i, 4) for i in range(5)]
    assert points[0].singleton == 1 and points[0].gv == 1
    assert points[-1].singleton == 0 and points[-1].gv == 0
    mid = points[2]
    assert mid.rho == Fraction(1, 2)
    assert mid.singleton == Fraction(1, 2)
    assert mid.gv == Fraction(3, 8)
    for p in points:
        assert isinstance(p.gv, Fraction)
        assert p.gv <= p.singleton


def test_barrier_curves_aspect_zero_coincide():
    for p in emit_barrier_curves(0, grid_points=11):
        assert p.gv == p.singleton == 1 - p.rho


def test_barrier_curves_interior_strictness():
    for p in emit_barrier_curves(Fraction(1, 2), grid_points=101):
        if 0 < p.rho < 1:
            assert p.gv < p.singleton


def test_barrier_curves_point_serialization():
    d = emit_barrier_curves(Fraction(1, 2), grid_points=3)[1].as_dict()
    assert d["rho"] == "1/2"
    assert d["gv"] == "3/8"
    assert d["gv_float"] == 0.375


def test_barrier_curves_errors():
    with pytest.raises(ValueError):
        emit_barrier_curves(Fraction(3, 2))
    with pytest.raises(ValueError):
        emit_barrier_curves(Fraction(1, 2), grid_points=1)


def test_threshold_probe_boundary_row():
    rows = threshold_probe(Fraction(1, 2), Fraction(1, 10), 2, [(12, 5)])
    row = rows[0]
    assert row.theta == Fraction(5, 6)
    assert row.aspect == Fraction(5, 12) == row.theta / 2
    assert row.bracket == 0  # the sign flips exactly at theta/2
    assert row.exponent == 0
    assert row.exceeds_one is False
    assert row.aspect_ge_theta is False


def test_threshold_probe_supercritical_rows():
    rows = threshold_probe(Fraction(1, 2), Fraction(1, 10), 2, [(12, 6), (12, 10)])
    just_above, far_above = rows
    assert just_above.bracket > 0 and just_above.exceeds_one
    assert just_above.aspect_ge_theta is False  # positive before theta itself
    assert far_above.aspect >= far_above.theta
    assert far_above.aspect_ge_theta is True
    # with m above 1/eps, aspect >= theta forces bracket >= eps*m
    assert far_above.bracket >= Fraction(1, 10) * 12
    assert far_above.exponent == far_above.bracket * 10


def test_threshold_probe_errors():
    with pytest.raises(ValueError):
        threshold_probe(Fraction(1, 2), Fraction(1, 10), 1, [(4, 2)])
    with pytest.raises(ValueError):
        threshold_probe(Fraction(1, 2), Fraction(1, 10), 2, [(2, 4)])  # n > m
    with pytest.raises(ValueError):
        threshold_probe(Fraction(1, 2), Fraction(1, 2), 2, [(4, 2)])  # eps too big


def test_probe_row_serialization():
    row = threshold_probe(Fraction(1, 2), Fraction(1, 10), 2, [(12, 5)])[0]
    d = row.as_dict()
    assert d["aspect"] == "5/12"
    assert d["bracket"] == "0"
    assert d["exceeds_one"] is False


def test_content_hash_properties():
    a = content_hash({"x": 1, "y": [1, 2]})
    b = content_hash({"y": [1, 2], "x": 1})
    assert a == b  # key order cannot matter
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    assert content_hash({"x": 2, "y": [1, 2]}) != a
