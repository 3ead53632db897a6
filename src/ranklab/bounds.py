"""Classical bounds and barrier curves for rank-metric codes.

Every function here is a closed formula; arithmetic passes through the
argument types, so feeding ``fractions.Fraction`` in gives exact
rationals out and feeding floats gives floats.  Rates are normalized as
R = log_q |C| / (mn) and distances as delta = d/n.

The one GV curve (1 - x)(1 - b*x) is ``gv_barrier`` and the one Singleton
line 1 - x is ``singleton_barrier``; the alpha bounds return them at delta.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import rankmetric
from .rankmetric import _check_count, _check_radius, _check_unit, _fields_dict, _Fresh, _plain, _Record


class BoundReport(_Record):
    """Outcome of one bound evaluation: the value, the verdict, the inputs."""

    name: str
    inputs: dict
    value: object
    satisfied: bool | None = None
    details: dict = _Fresh(dict)

    def as_dict(self) -> dict:
        def norm(v):
            # an integer past 2^53 loses digits in a JSON reader's double
            return str(v) if isinstance(v, int) and abs(v) >= 2**53 else _plain(v)

        return {
            "name": self.name,
            "inputs": {k: norm(v) for k, v in self.inputs.items()},
            "value": norm(self.value),
            "satisfied": self.satisfied,
            "details": {k: norm(v) for k, v in self.details.items()},
        }


def code_rate(size: int, q: int, m: int, n: int):
    """R = log_q(size) / (mn); exact Fraction when size is a power of q."""
    _check_count(size, "code size")
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
    _check_count(d, "d")
    _check_radius(d, n, "d")
    return min(n * (m - d + 1), m * (n - d + 1))


def hamming_check(code_size: int, q: int, m: int, n: int, d: int) -> BoundReport:
    """Packing bound: the radius-floor((d-1)/2) ball obeys |B| <= q^(mn)/|C|.

    ``satisfied`` is the packing inequality and ``details['perfect']``
    flags exact equality, the perfect-code condition.
    """
    _check_count(code_size, "code size")
    rankmetric._check_geometry(q, m, n)
    _check_count(d, "d")
    _check_radius(d, n, "d")
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
    """Existence floor for the rate function: alpha(delta) >= (1-delta)(1-b*delta),
    for the aspect ratio b = n/m in [0, 1]."""
    _check_unit(delta, "delta")
    return gv_barrier(delta, b)


def alpha_exact(delta):
    """The exact rate function 1 - delta (square-or-wider matrices)."""
    _check_unit(delta, "delta")
    return singleton_barrier(delta)


def singleton_barrier(rate):
    """Largest decoding radius fraction compatible with rate R: 1 - R."""
    _check_unit(rate, "rate")
    return 1 - rate


def gv_barrier(rho, b):
    """Rate ceiling (1 - rho)(1 - b*rho) for list decoding at radius fraction rho."""
    _check_unit(rho, "rho")
    _check_unit(b, "b")
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


class CurvePoint(_Record):
    """Singleton and denser-ensemble rate barriers at one radius fraction."""

    rho: Fraction
    singleton: Fraction
    gv: Fraction

    def as_dict(self) -> dict:
        floats = {f"{name}_float": float(getattr(self, name)) for name in self._fields}
        return {**_fields_dict(self), **floats}


def emit_barrier_curves(b, grid_points: int = 101) -> tuple[CurvePoint, ...]:
    """Rate barriers against the radius fraction on an even rational grid.

    At each rho the Singleton-style ceiling is 1 - rho and the
    denser-ensemble ceiling is (1 - rho)(1 - b*rho); all arithmetic is
    exact, so grid points like rho = 1/2 carry no rounding.
    """
    b = Fraction(b)
    _check_unit(b, "b")
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    out = []
    for i in range(grid_points):
        rho = Fraction(i, grid_points - 1)
        out.append(
            CurvePoint(rho=rho, singleton=singleton_barrier(rho), gv=gv_barrier(rho, b))
        )
    return tuple(out)
