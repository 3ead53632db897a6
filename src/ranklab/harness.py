"""Seeded ensemble experiments and exact finite-size identities.

``run_ensemble`` samples codes from a named ensemble and measures their
worst list size trial by trial.  Each trial derives its own RNG
substream from (seed, trial index), so a report is a pure function of
its spec: rerunning, or redistributing trials over workers, reproduces
it bit for bit.  Wall-clock time is carried for convenience but kept
out of equality and canonical serialization.

``coset_partition_check`` reads the list-size tally of ``listdec`` (one
count per codeword and ball offset) at a transversal of the cosets of a
linear code, one count per coset, and checks that these counts sum to
the closed-form ball volume, with the max coset compared against the
ceil(|B|/|S|) average floor.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product

from .bounds import gv_barrier, singleton_barrier, theta_threshold
from .codes import LinearCode, sample_random_code, sample_random_linear_code
from .errors import EnumerationCapExceeded
from .fields import default_context
from .listdec import _scan_codewords, _tally, max_list_size
from .rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    ball_volume,
    flatten_vector,
    rref_fq,
)
from .rng import substream_seed

ENSEMBLE_KINDS = ("random", "random_linear")


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one seeded ensemble experiment."""

    kind: str
    q: int
    m: int
    n: int
    rate_target: Fraction
    radius_s: int
    list_cap: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"kind must be one of {ENSEMBLE_KINDS}, got {self.kind!r}")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n = {self.n}, m = {self.m}")
        object.__setattr__(self, "rate_target", Fraction(self.rate_target))
        if not 0 <= self.rate_target <= 1:
            raise ValueError(f"rate_target must lie in [0, 1], got {self.rate_target}")
        if not 0 <= self.radius_s <= self.n:
            raise ValueError(f"need 0 <= radius_s <= n, got {self.radius_s}")
        if self.list_cap < 1:
            raise ValueError("list_cap must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    @property
    def realized_log_size(self) -> int:
        """log_q |C| after flooring the target rate onto the integer lattice."""
        return math.floor(self.rate_target * self.m * self.n)

    @property
    def realized_rate(self) -> Fraction:
        return Fraction(self.realized_log_size, self.m * self.n)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "rate_target": str(self.rate_target),
            "radius_s": self.radius_s,
            "list_cap": self.list_cap,
            "trials": self.trials,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    l_max: int
    exact: bool
    failed: bool


@dataclass(frozen=True)
class TrialReport:
    """Full record of one ensemble run; equality ignores wall time."""

    spec: EnsembleSpec
    outcomes: tuple[TrialOutcome, ...]
    failures: int
    failure_fraction: Fraction
    metadata: tuple[tuple[str, str], ...]
    wall_time_s: float = field(compare=False, default=0.0)

    def canonical_dict(self) -> dict:
        """Everything reproducible, wall time excluded."""
        return {
            "schema": "ranklab.trial-report/1",
            "spec": self.spec.as_dict(),
            "realized": {
                "log_size": self.spec.realized_log_size,
                "rate": str(self.spec.realized_rate),
            },
            "outcomes": [
                {"index": o.index, "l_max": o.l_max, "exact": o.exact, "failed": o.failed}
                for o in self.outcomes
            ],
            "failures": self.failures,
            "failure_fraction": str(self.failure_fraction),
            "metadata": dict(self.metadata),
        }

    def as_dict(self) -> dict:
        out = self.canonical_dict()
        out["wall_time_s"] = self.wall_time_s
        return out


def _ensemble_metadata(spec: EnsembleSpec) -> tuple[tuple[str, str], ...]:
    """Informational constants from the regime the ensemble probes."""
    b = Fraction(spec.n, spec.m)
    rho = Fraction(spec.radius_s, spec.n)
    meta = [("aspect_b", str(b)), ("rho", str(rho))]
    if spec.kind == "random":
        eps = singleton_barrier(spec.realized_rate) - rho
        meta.append(("epsilon_vs_singleton", str(eps)))
        if eps > 0:
            meta.append(("list_size_scale_hint", str(math.ceil(4 / eps))))
    else:
        eps = gv_barrier(rho, b) - spec.realized_rate
        meta.append(("epsilon_vs_gv", str(eps)))
        if eps > 0 and b > 0:
            meta.append(("aspect_m_hint", str(math.ceil(4 / math.sqrt(float(b * eps))))))
    return tuple(meta)


def _run_trial(spec: EnsembleSpec, cap: int, index: int) -> TrialOutcome:
    ctx = default_context(spec.q, spec.m)
    sample_seed = substream_seed(spec.seed, 2 * index)
    scan_seed = substream_seed(spec.seed, 2 * index + 1)
    if spec.kind == "random":
        code = sample_random_code(ctx, spec.n, spec.q**spec.realized_log_size, sample_seed)
    else:
        code = sample_random_linear_code(ctx, spec.n, spec.realized_log_size, sample_seed)
    space = ctx.order**spec.n
    if space <= cap:
        report = max_list_size(code, spec.radius_s, "exhaustive", cap=cap)
    else:
        report = max_list_size(code, spec.radius_s, "montecarlo", seed=scan_seed, cap=cap)
    return TrialOutcome(
        index=index,
        l_max=report.l_max,
        exact=report.exhaustive,
        failed=report.l_max > spec.list_cap,
    )


def run_ensemble(spec: EnsembleSpec, workers: int = 1, cap: int = DEFAULT_ENUM_CAP) -> TrialReport:
    """Run every trial of the ensemble; deterministic for any worker count."""
    t0 = time.perf_counter()
    workers = min(workers, spec.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            outcomes = tuple(ex.map(partial(_run_trial, spec, cap), range(spec.trials)))
    else:
        outcomes = tuple(_run_trial(spec, cap, i) for i in range(spec.trials))
    failures = sum(1 for o in outcomes if o.failed)
    return TrialReport(
        spec=spec,
        outcomes=outcomes,
        failures=failures,
        failure_fraction=Fraction(failures, spec.trials),
        metadata=_ensemble_metadata(spec),
        wall_time_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class CosetCheckReport:
    """Exact tally of a rank ball across the cosets of a linear code."""

    radius_s: int
    k: int
    coset_count: int
    ball: int
    total: int
    identity_ok: bool
    max_count: int
    max_rep: RankVector
    average_bound: int
    meets_average_bound: bool

    def as_dict(self) -> dict:
        return {
            "radius_s": self.radius_s,
            "k": self.k,
            "coset_count": self.coset_count,
            "ball": str(self.ball),
            "total": str(self.total),
            "identity_ok": self.identity_ok,
            "max_count": self.max_count,
            "max_rep": list(self.max_rep.entries),
            "average_bound": self.average_bound,
            "meets_average_bound": self.meets_average_bound,
        }


def coset_partition_check(code: LinearCode, s: int, cap: int = DEFAULT_ENUM_CAP) -> CosetCheckReport:
    """Tally the ball against every coset C + y and check the exact identity.

    The list-size tally of every center (one count per codeword w and
    offset b of rank <= s, at center w + b) is read at -y for the
    canonical representative y of each coset (pivot coordinates zeroed):
    that count is |(C + y) intersect B_s|.  The cosets partition the
    space, so the counts read at this transversal must sum to the
    closed-form ball volume, which certifies that the offsets behind the
    tally are exactly the |B_s| vectors the shell counts predict.
    """
    if not isinstance(code, LinearCode):
        raise ValueError("coset partition needs a linear code")
    if not 0 <= s <= code.n:
        raise ValueError(f"need 0 <= s <= n, got s = {s}")
    ctx = code.ctx
    m = ctx.m
    n = code.n
    q = ctx.base.q
    space = ctx.order**n
    if space > cap:
        raise EnumerationCapExceeded(f"{space} vectors in the ambient space, cap is {cap}")
    ball = ball_volume(q, m, n, s).exact
    coset_count = q ** (m * n - code.k)
    average_bound = -((-ball) // coset_count)

    basis_rows = [flatten_vector(w) for w in code.basis]
    _, pivots = rref_fq(basis_rows, ctx.base) if basis_rows else ((), ())
    pivot_set = set(pivots)
    # entry j of a representative ranges over its free coordinates; the
    # product over entries lists representatives in coordinate order
    values = []
    for j in range(n):
        free = [i for i in range(m) if j * m + i not in pivot_set]
        values.append([
            sum(v * q**i for i, v in zip(free, digits))
            for digits in product(range(q), repeat=len(free))
        ])
    negated = [[ctx.neg(e) for e in vals] for vals in values]
    tally = _tally(ctx, n, s, _scan_codewords(code, cap))

    total = 0
    max_count = -1
    max_rep = None
    # w + b = -y exactly when w + y = -b lies in the ball
    for rep, key in zip(product(*values), product(*negated)):
        count = tally[key]
        total += count
        if count > max_count:
            max_count = count
            max_rep = rep
    return CosetCheckReport(
        radius_s=s,
        k=code.k,
        coset_count=coset_count,
        ball=ball,
        total=total,
        identity_ok=total == ball,
        max_count=max_count,
        max_rep=RankVector(ctx, max_rep),
        average_bound=average_bound,
        meets_average_bound=max_count >= average_bound,
    )


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


@dataclass(frozen=True)
class ProbeRow:
    """Sign analysis of the random-ensemble failure exponent at one (m, n)."""

    m: int
    n: int
    aspect: Fraction
    theta: Fraction
    bracket: Fraction
    exponent: Fraction
    exceeds_one: bool
    aspect_ge_theta: bool

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "aspect": str(self.aspect),
            "theta": str(self.theta),
            "bracket": str(self.bracket),
            "exponent": str(self.exponent),
            "exceeds_one": self.exceeds_one,
            "aspect_ge_theta": self.aspect_ge_theta,
        }


def threshold_probe(rate, eps, q: int, pairs) -> tuple[ProbeRow, ...]:
    """Evaluate the exponent n*(-eps*m + (1-R-eps)(R+eps)*n) exactly.

    The pigeonhole floor q^exponent exceeds 1 exactly when the inner
    bracket is positive, i.e. when n/m crosses theta/2; aspect ratios at
    or above theta additionally push the bracket past eps*m, which is
    the regime the threshold is named for.  ``q`` only scales the floor,
    never its sign, and is echoed for context.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    rate = Fraction(rate)
    eps = Fraction(eps)
    theta = theta_threshold(rate, eps)
    rows = []
    for m, n in pairs:
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= n <= m, got n = {n}, m = {m}")
        bracket = -eps * m + (1 - rate - eps) * (rate + eps) * n
        exponent = n * bracket
        aspect = Fraction(n, m)
        rows.append(
            ProbeRow(
                m=m,
                n=n,
                aspect=aspect,
                theta=theta,
                bracket=bracket,
                exponent=exponent,
                exceeds_one=exponent > 0,
                aspect_ge_theta=aspect >= theta,
            )
        )
    return tuple(rows)


def content_hash(payload: dict) -> str:
    """Stable sha256 of a canonical JSON rendering, for self-describing output."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
