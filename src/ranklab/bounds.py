"""Classical bounds and barrier curves for rank-metric codes.

Every function here is a closed formula; arithmetic passes through the
argument types, so feeding ``fractions.Fraction`` in gives exact
rationals out and feeding floats gives floats.  Rates are normalized as
R = log_q |C| / (mn) and distances as delta = d/n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import rankmetric


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation: the value, the verdict, the inputs."""

    name: str
    inputs: dict
    value: object
    satisfied: bool | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        def norm(v):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, int) and abs(v) >= 2**53:
                return str(v)
            return v

        return {
            "name": self.name,
            "inputs": {k: norm(v) for k, v in self.inputs.items()},
            "value": norm(self.value),
            "satisfied": self.satisfied,
            "details": {k: norm(v) for k, v in self.details.items()},
        }


def _check_unit(name: str, x) -> None:
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def code_rate(size: int, q: int, m: int, n: int):
    """R = log_q(size) / (mn); exact Fraction when size is a power of q."""
    if size < 1:
        raise ValueError("code size must be positive")
    rankmetric._check_geometry(q, m, n)
    k, rest = 0, size
    while rest % q == 0:
        rest //= q
        k += 1
    if rest == 1:
        return Fraction(k, m * n)
    return math.log(size, q) / (m * n)


def singleton_max_log_size(q: int, m: int, n: int, d: int) -> int:
    """Largest possible log_q |C| for minimum rank distance d."""
    rankmetric._check_geometry(q, m, n)
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d = {d}")
    return min(n * (m - d + 1), m * (n - d + 1))


def hamming_check(code_size: int, q: int, m: int, n: int, d: int) -> BoundReport:
    """Packing bound: the radius-floor((d-1)/2) ball obeys |B| <= q^(mn)/|C|.

    ``satisfied`` is the packing inequality and ``details['perfect']``
    flags exact equality, the perfect-code condition.
    """
    if code_size < 1:
        raise ValueError("code size must be positive")
    rankmetric._check_geometry(q, m, n)
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d = {d}")
    radius = (d - 1) // 2
    ball = rankmetric._ball_size(q, m, n, radius)
    bound = Fraction(q ** (m * n), code_size)
    return BoundReport(
        name="hamming",
        inputs={"code_size": code_size, "q": q, "m": m, "n": n, "d": d},
        value=bound,
        satisfied=ball <= bound,
        details={"radius": radius, "ball": ball, "perfect": ball == bound},
    )


def gv_alpha_lower(delta, b):
    """Existence floor for the rate function: alpha(delta) >= (1-delta)(1-b*delta)."""
    if b < 0:
        raise ValueError(f"aspect ratio b must be non-negative, got {b}")
    _check_unit("delta", delta)
    if b > 1 and delta > Fraction(1, 1) / b:
        raise ValueError(f"delta must be at most 1/b = {Fraction(1, 1) / b}")
    return (1 - delta) * (1 - b * delta)


def alpha_exact(delta):
    """The exact rate function 1 - delta (square-or-wider matrices)."""
    _check_unit("delta", delta)
    return 1 - delta


def singleton_barrier(rate):
    """Largest decoding radius fraction compatible with rate R: 1 - R."""
    _check_unit("rate", rate)
    return 1 - rate


def gv_barrier(rho, b):
    """Rate ceiling (1 - rho)(1 - b*rho) for list decoding at radius fraction rho."""
    _check_unit("rho", rho)
    _check_unit("b", b)
    return (1 - rho) * (1 - b * rho)


def theta_threshold(rate, eps):
    """Aspect-ratio threshold 2*eps / ((1 - R - eps)(R + eps)).

    Defined for 0 < R < 1 and 0 < eps < 1 - R; outside that the
    denominator loses its sign and the threshold is meaningless.
    """
    if not 0 < rate < 1:
        raise ValueError(f"rate must lie in (0, 1), got {rate}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps >= 1 - rate:
        raise ValueError(f"eps must be below 1 - rate = {1 - rate}, got {eps}")
    return 2 * eps / ((1 - rate - eps) * (rate + eps))


@dataclass(frozen=True)
class CurvePoint:
    rho: Fraction
    singleton: Fraction
    gv: Fraction

    def as_dict(self) -> dict:
        return {
            "rho": str(self.rho),
            "singleton": str(self.singleton),
            "gv": str(self.gv),
            "rho_float": float(self.rho),
            "singleton_float": float(self.singleton),
            "gv_float": float(self.gv),
        }


def emit_barrier_curves(b, grid_points: int = 101) -> tuple[CurvePoint, ...]:
    """Rate barriers against the radius fraction on an even rational grid.

    At each rho the Singleton-style ceiling is 1 - rho and the
    denser-ensemble ceiling is (1 - rho)(1 - b*rho); all arithmetic is
    exact, so grid points like rho = 1/2 carry no rounding.
    """
    b = Fraction(b)
    if not 0 <= b <= 1:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    out = []
    for i in range(grid_points):
        rho = Fraction(i, grid_points - 1)
        out.append(
            CurvePoint(rho=rho, singleton=singleton_barrier(rho), gv=gv_barrier(rho, b))
        )
    return tuple(out)
