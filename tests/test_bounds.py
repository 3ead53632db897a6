"""Closed-form bounds, rate normalization, and barrier formulas."""

import math
from fractions import Fraction

import pytest

from ranklab.bounds import (
    BoundReport,
    alpha_exact,
    code_rate,
    gv_alpha_lower,
    gv_barrier,
    hamming_check,
    singleton_barrier,
    singleton_max_log_size,
    theta_threshold,
)


def test_code_rate_exact_for_q_powers():
    assert code_rate(8, 2, 3, 2) == Fraction(1, 2)
    assert isinstance(code_rate(8, 2, 3, 2), Fraction)
    assert code_rate(1, 2, 3, 2) == 0
    assert code_rate(2 ** (3 * 2), 2, 3, 2) == 1
    assert code_rate(81, 3, 2, 2) == 1


def test_code_rate_float_fallback():
    r = code_rate(10, 2, 3, 2)
    assert isinstance(r, float)
    assert r == pytest.approx(math.log2(10) / 6)


def test_code_rate_errors():
    with pytest.raises(ValueError):
        code_rate(0, 2, 3, 2)
    with pytest.raises(ValueError):
        code_rate(4, 2, 2, 3)  # n > m


def test_singleton_max_log_size():
    # for n <= m the binding branch is m*(n-d+1)
    assert singleton_max_log_size(2, 3, 3, 2) == 6
    assert singleton_max_log_size(2, 4, 3, 2) == 8
    assert singleton_max_log_size(2, 4, 3, 1) == 12  # d = 1 allows the full space
    assert singleton_max_log_size(3, 5, 4, 4) == 5
    for m, n, d in ((4, 3, 2), (5, 5, 3), (6, 2, 2)):
        assert singleton_max_log_size(2, m, n, d) == min(
            n * (m - d + 1), m * (n - d + 1)
        )


def test_singleton_errors():
    with pytest.raises(ValueError, match="d must be at least 1, got 0"):
        singleton_max_log_size(2, 3, 3, 0)
    with pytest.raises(ValueError, match="need 0 <= d <= n, got d = 4"):
        singleton_max_log_size(2, 3, 3, 4)  # d > n
    with pytest.raises(ValueError):
        singleton_max_log_size(2, 2, 3, 1)  # n > m


def test_hamming_check_satisfied_and_violated():
    # radius-1 ball in F_{2^3}^3 holds 1 + 49 = 50 vectors of the 512
    ok = hamming_check(8, 2, 3, 3, 3)
    assert ok.satisfied is True
    assert ok.details["radius"] == 1
    assert ok.details["ball"] == 50
    assert ok.value == Fraction(512, 8)
    assert ok.details["perfect"] is False

    bad = hamming_check(16, 2, 3, 3, 3)
    assert bad.satisfied is False  # 50 > 512/16


def test_hamming_trivial_perfect_code():
    # the full space with d = 1 packs radius-0 balls exactly
    full = hamming_check(16, 2, 2, 2, 1)
    assert full.satisfied is True
    assert full.details["perfect"] is True
    assert full.value == 1


def test_hamming_errors():
    with pytest.raises(ValueError):
        hamming_check(0, 2, 2, 2, 1)
    with pytest.raises(ValueError):
        hamming_check(4, 2, 2, 2, 3)  # d > n


def test_gv_alpha_lower_values():
    assert gv_alpha_lower(Fraction(1, 2), 1) == Fraction(1, 4)
    assert gv_alpha_lower(Fraction(1, 2), 0) == Fraction(1, 2)
    assert gv_alpha_lower(0, 1) == 1
    assert gv_alpha_lower(0.5, 1.0) == pytest.approx(0.25)
    # b = 0 collapses onto the exact square-matrix rate function
    for i in range(11):
        d = Fraction(i, 10)
        assert gv_alpha_lower(d, 0) == alpha_exact(d) == 1 - d


def test_the_alpha_bounds_are_the_barrier_curves():
    # one GV curve and one Singleton line, for exact and float inputs alike
    grid = [Fraction(i, 12) for i in range(13)]
    for delta in grid:
        for x in (delta, float(delta)):
            assert alpha_exact(x) == singleton_barrier(x)
            assert type(alpha_exact(x)) is type(singleton_barrier(x))
            for b in grid:
                for y in (b, float(b)):
                    assert gv_alpha_lower(x, y) == gv_barrier(x, y)
                    assert type(gv_alpha_lower(x, y)) is type(gv_barrier(x, y))
    for bad in (Fraction(-1, 2), -0.5):
        for call in (lambda: gv_alpha_lower(bad, Fraction(1, 2)), lambda: alpha_exact(bad)):
            with pytest.raises(ValueError, match=rf"^delta must lie in \[0, 1\], got {bad}$"):
                call()
    with pytest.raises(ValueError, match=r"^b must lie in \[0, 1\], got 3$"):
        gv_alpha_lower(Fraction(1, 2), 3)


def test_gv_alpha_lower_domain():
    with pytest.raises(ValueError):
        gv_alpha_lower(Fraction(3, 4), 2)  # delta beyond 1/b
    with pytest.raises(ValueError, match=r"b must lie in \[0, 1\], got 3"):
        gv_alpha_lower(Fraction(1, 4), 3)  # b = n/m is at most 1, also where delta <= 1/b
    with pytest.raises(ValueError):
        gv_alpha_lower(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        gv_alpha_lower(Fraction(3, 2), 0)


def test_barrier_endpoints_and_ordering():
    assert singleton_barrier(0) == 1
    assert singleton_barrier(1) == 0
    assert gv_barrier(0, Fraction(1, 2)) == 1
    assert gv_barrier(1, Fraction(1, 2)) == 0
    assert gv_barrier(Fraction(1, 2), Fraction(1, 2)) == Fraction(3, 8)
    for i in range(11):
        rho = Fraction(i, 10)
        assert gv_barrier(rho, Fraction(1, 2)) <= singleton_barrier(rho)
        if 0 < rho < 1:
            assert gv_barrier(rho, Fraction(1, 2)) < singleton_barrier(rho)
        assert gv_barrier(rho, 0) == singleton_barrier(rho)


def test_barrier_domain():
    with pytest.raises(ValueError):
        singleton_barrier(Fraction(3, 2))
    with pytest.raises(ValueError):
        gv_barrier(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        gv_barrier(-0.1, 0.5)


def test_theta_threshold_value():
    assert theta_threshold(Fraction(1, 2), Fraction(1, 10)) == Fraction(5, 6)
    assert theta_threshold(0.5, 0.1) == pytest.approx(5 / 6)
    # shrinking eps shrinks the required aspect ratio
    assert theta_threshold(Fraction(1, 2), Fraction(1, 100)) < Fraction(5, 6)


def test_theta_threshold_domain():
    with pytest.raises(ValueError):
        theta_threshold(0, Fraction(1, 10))
    with pytest.raises(ValueError):
        theta_threshold(1, Fraction(1, 10))
    with pytest.raises(ValueError):
        theta_threshold(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        theta_threshold(Fraction(1, 2), Fraction(1, 2))  # eps = 1 - rate
    with pytest.raises(ValueError):
        theta_threshold(Fraction(1, 2), Fraction(3, 4))


def test_bound_report_as_dict_normalization():
    rep = BoundReport(
        name="demo",
        inputs={"rate": Fraction(1, 2), "big": 2**60, "small": 7},
        value=Fraction(3, 8),
        satisfied=True,
        details={"huge": 10**20, "note": "x"},
    )
    d = rep.as_dict()
    assert d["inputs"]["rate"] == "1/2"
    assert d["inputs"]["big"] == str(2**60)
    assert d["inputs"]["small"] == 7
    assert d["value"] == "3/8"
    assert d["details"]["huge"] == str(10**20)
    assert d["details"]["note"] == "x"
