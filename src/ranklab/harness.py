"""Seeded ensemble experiments and exact finite-size identities.

``run_ensemble`` samples codes from a named ensemble and measures their
worst list size trial by trial.  Each trial derives its own RNG
substream from (seed, trial index), so a report is a pure function of
its spec: rerunning, or redistributing trials over workers, reproduces
it bit for bit.  Wall-clock time is carried for convenience but kept
out of equality and canonical serialization.

``coset_partition_check`` reads the coset tally of ``listdec`` (one key
per ball vector, the least vector of its coset) for a linear code, one
count per coset the ball meets, and checks that these counts sum to the
closed-form ball volume, with the max coset compared against the
ceil(|B|/|S|) average floor.  Only the cosets that reach the maximum
are mapped to their representatives; the others are never visited.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from functools import partial

# CurvePoint and emit_barrier_curves are re-exported here
from .bounds import (
    CurvePoint,
    emit_barrier_curves,
    gv_barrier,
    singleton_barrier,
    theta_threshold,
)
from .codes import LinearCode, sample_random_code, sample_random_linear_code
from .errors import EnumerationCapExceeded
from .fields import default_context
from .listdec import _CosetKeys, _pool_size, max_list_size
from .rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    _ball_size,
    _fields_dict,
    _Record,
    flatten_vector,
    rref_fq,
    unflatten_vector,
    vector_from_index,
)
from .rng import content_hash, substream_seed  # content_hash is re-exported here

ENSEMBLE_KINDS = ("random", "random_linear")


class EnsembleSpec(_Record):
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

    as_dict = _fields_dict


class TrialOutcome(_Record):
    """The worst list size of one ensemble trial and how it was found."""

    index: int
    l_max: int
    exact: bool
    failed: bool

    as_dict = _fields_dict


class TrialReport(_Record):
    """Full record of one ensemble run; equality ignores wall time."""

    spec: EnsembleSpec
    outcomes: tuple[TrialOutcome, ...]
    failures: int
    failure_fraction: Fraction
    metadata: tuple[tuple[str, str], ...]
    wall_time_s: float = 0.0

    _uncompared = ("wall_time_s",)

    def canonical_dict(self) -> dict:
        """Everything reproducible, wall time excluded."""
        return {
            "schema": "ranklab.trial-report/1",
            "spec": self.spec.as_dict(),
            "realized": {
                "log_size": self.spec.realized_log_size,
                "rate": str(self.spec.realized_rate),
            },
            "outcomes": [o.as_dict() for o in self.outcomes],
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
    """Run every trial of the ensemble; deterministic for any worker count >= 1."""
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    t0 = time.perf_counter()
    workers = _pool_size(workers, spec.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

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


class CosetCheckReport(_Record):
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
        # the counts are strings, as in VolumeResult; a key keeps its place
        return {**_fields_dict(self), "ball": str(self.ball), "total": str(self.total)}


def coset_partition_check(code: LinearCode, s: int, cap: int = DEFAULT_ENUM_CAP) -> CosetCheckReport:
    """Tally the ball against every coset C + y and check the exact identity.

    Keying every offset b of rank <= s by the coset of -b (``listdec``'s
    coset keys) counts |(C + y) intersect B_s| at the coset C + y.  The
    ball is symmetric, -B_s = B_s, so that is the same tally as keying
    each b by its own coset, which is what ``max_list_size`` reads.  A
    coset the ball misses counts zero.  The cosets partition the space,
    so the counts must sum to the closed-form ball volume, which
    certifies that the offsets behind the tally are exactly the |B_s|
    vectors the shell counts predict.  The reported representative of a
    coset has its pivot coordinates zeroed, pivots taken in
    ``flatten_vector`` order; that makes it the first vector of its coset
    in that order, and the maximal coset reported is the one whose
    representative comes first.
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
    ball = _ball_size(q, m, n, s)
    coset_count = q ** (m * n - code.k)
    average_bound = -((-ball) // coset_count)

    cosets = _CosetKeys(code)
    tally = Counter(cosets.ball(s))
    total = sum(tally.values())
    max_count = max(tally.values())

    field = ctx.base
    rows, pivots = rref_fq([flatten_vector(w) for w in code.basis], field)

    def representative(key):
        y = list(flatten_vector(vector_from_index(ctx, n, cosets.index(key))))
        for piv, row in zip(pivots, rows):
            c = y[piv]
            if c:
                y = [field.sub(a, field.mul(c, r)) for a, r in zip(y, row)]
        return tuple(y)

    max_rep = min(representative(key) for key, count in tally.items() if count == max_count)
    return CosetCheckReport(
        radius_s=s,
        k=code.k,
        coset_count=coset_count,
        ball=ball,
        total=total,
        identity_ok=total == ball,
        max_count=max_count,
        max_rep=unflatten_vector(ctx, n, max_rep),
        average_bound=average_bound,
        meets_average_bound=max_count >= average_bound,
    )


class ProbeRow(_Record):
    """Sign analysis of the random-ensemble failure exponent at one (m, n)."""

    m: int
    n: int
    aspect: Fraction
    theta: Fraction
    bracket: Fraction
    exponent: Fraction
    exceeds_one: bool
    aspect_ge_theta: bool

    as_dict = _fields_dict


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
