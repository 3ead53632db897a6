"""Seeded ensembles, coset tallies, barrier curves, and probe rows.

The coset check is mirrored by an independent grouping oracle: vectors
are bucketed by the smallest index in their translate set, so the
partition never consults the pivot bookkeeping under test.
"""

import _posixsubprocess
import json
import os
import time
from fractions import Fraction

import pytest

from helpers import coset_oracle, forbid_the_scatter
from ranklab import harness, listdec
from ranklab.cli import main
from ranklab.codes import (
    LinearCode,
    enumerate_codewords,
    sample_random_code,
    sample_random_linear_code,
)
from ranklab.errors import EnumerationCapExceeded
from ranklab.fields import default_context
from ranklab.harness import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    TrialReport,
    content_hash,
    coset_partition_check,
    emit_barrier_curves,
    run_ensemble,
    threshold_probe,
)
from ranklab.listdec import list_size_at, max_list_size
from ranklab.rankmetric import (
    RankVector,
    ball_volume,
    iter_all_vectors,
    rank_of_vector,
    vector_index,
)
from ranklab.rng import substream_seed


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
    with pytest.raises(ValueError, match="not a prime power: 6"):
        EnsembleSpec(**spec_kwargs(q=6))
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(rate_target=Fraction(3, 2)))
    with pytest.raises(ValueError):
        EnsembleSpec(**spec_kwargs(radius_s=3))
    with pytest.raises(ValueError, match="list_cap must be at least 1, got 0"):
        EnsembleSpec(**spec_kwargs(list_cap=0))
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        EnsembleSpec(**spec_kwargs(trials=0))


def test_an_experiment_over_no_field_is_refused_before_any_trial(monkeypatch, capsys):
    # q = 6 is no prime power: the spec refuses it, so no trial runs
    ran = []
    monkeypatch.setattr(harness, "max_list_size", lambda *args, **kwargs: ran.append(args))
    argv = ["experiment", "--kind", "random", "--q", "6", "--m", "3", "--n", "2", "--rate", "1/2",
            "--radius", "1", "--list-cap", "4", "--trials", "4", "--workers", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, ran) == ("", [])
    assert "not a prime power: 6" in captured.err


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


def test_no_worker_count_starts_a_process(monkeypatch):
    # with every way to start a process patched to raise, four workers give
    # the one-worker report on the forced counters and in an ensemble
    code = sample_random_code(default_context(2, 3), 2, 8, seed=5)
    spec = EnsembleSpec(**spec_kwargs(trials=4))
    expected = (max_list_size(code, 1), run_ensemble(spec))
    started = []

    def refuse(*args, **kwargs):
        started.append(args)
        raise AssertionError("a process was started")

    for owner, name in ((os, "fork"), (os, "posix_spawn"), (_posixsubprocess, "fork_exec")):
        monkeypatch.setattr(owner, name, refuse)
    routes = []
    monkeypatch.setattr(listdec, "_route", lambda *args: routes.append("counters") or "counters")
    assert (max_list_size(code, 1, workers=4), run_ensemble(spec, workers=4)) == expected
    assert started == []
    assert routes == ["counters"] * 5


def test_run_ensemble_rejects_worker_counts_below_one():
    spec = EnsembleSpec(**spec_kwargs(trials=2))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_ensemble(spec, workers=workers)


def test_run_ensemble_refuses_words_above_the_cap_before_the_first_draw(monkeypatch, capsys):
    # rate 1 at q2m4n4 is 2^16 words a trial, above a cap of 1000: the run
    # is refused before any code is sampled, with the word cap's own
    # message, whatever the kind and the worker count
    drawn = []
    for name in ("sample_random_code", "sample_random_linear_code"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: drawn.append(name))
    for kind in ENSEMBLE_KINDS:
        spec = EnsembleSpec(**spec_kwargs(kind=kind, m=4, n=4, rate_target=1, radius_s=1, trials=2))
        for workers in (1, 2):
            with pytest.raises(EnumerationCapExceeded) as info:
                run_ensemble(spec, workers=workers, cap=1000)
            assert str(info.value) == "code has 65536 words, above the cap of 1000"
    argv = ["experiment", "--kind", "random", "--q", "2", "--m", "4", "--n", "4", "--rate", "1",
            "--radius", "1", "--list-cap", "4", "--trials", "2", "--cap", "1000"]
    assert main(argv) == 2
    assert "code has 65536 words, above the cap of 1000" in capsys.readouterr().err
    assert drawn == []


def test_run_ensemble_outcome_shape():
    spec = EnsembleSpec(**spec_kwargs(trials=5))
    start = time.perf_counter()
    report = run_ensemble(spec)
    assert 0 <= report.wall_time_s <= time.perf_counter() - start
    assert [o.index for o in report.outcomes] == [0, 1, 2, 3, 4]
    assert all(o.exact for o in report.outcomes)  # space 64 fits the cap
    assert report.failures == sum(1 for o in report.outcomes if o.failed)
    assert report.failure_fraction == Fraction(report.failures, 5)


def test_each_trial_samples_and_scans_from_its_own_substreams(monkeypatch):
    # trial i samples its code from substream 2i and draws its Monte Carlo
    # centers from substream 2i + 1, so no two streams of a run coincide
    seeds = []
    real = (harness.sample_random_code, harness.max_list_size)
    monkeypatch.setattr(harness, "sample_random_code", lambda *args: seeds.append(args[-1]) or real[0](*args))
    monkeypatch.setattr(harness, "max_list_size", lambda *args, **kw: seeds.append(kw["seed"]) or real[1](*args, **kw))
    spec = EnsembleSpec(**spec_kwargs(trials=3, seed=11))
    report = run_ensemble(spec, cap=32)  # the space of 64 centers is above the cap
    assert not any(o.exact for o in report.outcomes)
    assert seeds == [substream_seed(11, j) for j in range(6)]


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
            assert report.average_bound == -(-report.ball // report.coset_count)
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
        assert report.average_bound == -(-report.ball // report.coset_count)
        counts = oracle_partition_counts(code, s)
        assert max(counts) == report.max_count


@pytest.mark.parametrize("q, m, n, k", [(2, 3, 2, 2), (2, 4, 2, 3), (2, 3, 3, 5), (3, 2, 2, 1),
                                        (3, 2, 2, 2), (3, 3, 2, 3), (5, 2, 2, 2), (4, 2, 2, 1),
                                        (4, 2, 2, 2), (8, 2, 2, 2), (9, 2, 2, 3)])
def test_coset_partition_check_matches_the_brute_force_oracle(q, m, n, k):
    ctx = default_context(q, m)
    for seed in range(2):
        code = sample_random_linear_code(ctx, n, k, seed)
        for s in range(n + 1):
            report = coset_partition_check(code, s)
            assert (
                report.coset_count, report.total, report.max_count, report.max_rep.entries
            ) == coset_oracle(code, s)


@pytest.mark.parametrize("route", ("fold", "coset"))
def test_coset_partition_check_does_not_depend_on_the_route(route, monkeypatch):
    # the check reads max_list_size, whichever linear route it takes; k = 0
    # is the empty basis
    from ranklab import listdec

    routes = []

    def forced(*args):
        routes.append(route)
        return route

    monkeypatch.setattr(listdec, "_route", forced)
    for q, m, n in ((2, 3, 3), (3, 3, 2), (4, 2, 2), (5, 2, 2), (9, 2, 2)):
        ctx = default_context(q, m)
        for k in (0, 1, 2):
            code = sample_random_linear_code(ctx, n, k, seed=q + k)
            assert code.k == k
            for s in range(n + 1):
                report = coset_partition_check(code, s)
                assert (
                    report.coset_count, report.total, report.max_count, report.max_rep.entries
                ) == coset_oracle(code, s), (q, k, s)
                assert report.identity_ok and report.total == report.ball
    assert routes == [route] * 3 * (4 + 3 + 3 + 3 + 3)


def test_coset_partition_check_tie_cases_frozen():
    # the first three frozen from the transversal walk the coset keys
    # replaced, the rest from the reduction in flatten_vector coordinates,
    # beyond the brute-force oracle's reach.  The first four codes have
    # several maximal cosets, and the first representative in
    # flatten_vector order is not the least center (see test_listdec);
    # q = 4 reduces over the F_2-span of the basis, and at q = 257 a key
    # is a tuple of digits, as n * (p - 1) > 255
    cases = (
        (2, 3, 2, [(3, 7), (7, 4)], 1, 16, 22, 3, [0, 4], 2),
        (3, 2, 2, [(6, 2), (7, 7)], 1, 9, 33, 6, [0, 7], 4),
        (4, 2, 2, [(9, 7), (1, 4)], 1, 16, 76, 8, [0, 9], 5),
        (16, 2, 2, [(220, 129), (207, 249)], 1, 256, 4336, 17, [0, 16], 17),
        (16, 2, 1, [(36,)], 0, 16, 1, 1, [0], 1),
        (16, 2, 1, [(36,)], 1, 16, 256, 16, [0], 16),
        (257, 2, 1, [(8292,)], 0, 257, 1, 1, [0], 1),
        (257, 2, 1, [(8292,)], 1, 257, 66049, 257, [0], 257),
    )
    for q, m, n, basis, s, cosets, ball, max_count, max_rep, average in cases:
        ctx = default_context(q, m)
        code = LinearCode(ctx, n, tuple(RankVector(ctx, b) for b in basis))
        assert coset_partition_check(code, s).as_dict() == {
            "radius_s": s,
            "k": len(basis),
            "coset_count": cosets,
            "ball": str(ball),
            "total": str(ball),
            "identity_ok": True,
            "max_count": max_count,
            "max_rep": max_rep,
            "average_bound": average,
            "meets_average_bound": True,
        }


def test_coset_partition_check_enumerates_no_codeword(monkeypatch):
    from ranklab import codes, listdec

    ctx = default_context(3, 2)
    cases = [(sample_random_linear_code(ctx, 2, k, seed=1), s) for k in (1, 2, 3) for s in (0, 1, 2)]
    expected = [coset_partition_check(code, s) for code, s in cases]

    message = "the coset check enumerated codewords or scattered them"

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for module, name in ((codes, "_packed_words"), (listdec, "_packed_words")):
        monkeypatch.setattr(module, name, forbidden)
    forbid_the_scatter(monkeypatch, message)
    assert [coset_partition_check(code, s) for code, s in cases] == expected


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
    for q in (1, 6):  # no prime power, refused before the first row
        for pairs in ([(4, 2)], []):
            with pytest.raises(ValueError, match=f"not a prime power: {q}"):
                threshold_probe(Fraction(1, 2), Fraction(1, 10), q, pairs)
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
    # no command prints a ProbeRow, so no golden file pins its key order
    assert list(d.items()) == [
        ("m", 12),
        ("n", 5),
        ("aspect", "5/12"),
        ("theta", "5/6"),
        ("bracket", "0"),
        ("exponent", "0"),
        ("exceeds_one", False),
        ("aspect_ge_theta", False),
    ]


def test_content_hash_properties():
    a = content_hash({"x": 1, "y": [1, 2]})
    b = content_hash({"y": [1, 2], "x": 1})
    assert a == b  # key order cannot matter
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    assert content_hash({"x": 2, "y": [1, 2]}) != a
