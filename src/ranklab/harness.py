"""Seeded ensemble experiments and exact finite-size identities.

``run_ensemble`` samples codes from a named ensemble and measures their
worst list size trial by trial.  Each trial derives its own RNG
substream from (seed, trial index), so a report is a pure function of
its spec: rerunning, or redistributing trials over workers, reproduces
it bit for bit.  Wall-clock time is carried for convenience but kept
out of equality and canonical serialization.

``coset_partition_check`` reads the largest count of the ball in one
coset of a linear code off ``max_list_size``, whose exhaustive sweep
refuses a tally that does not sum to its closed form (the double count),
and compares it against the ceil(|B|/|S|) average floor.  The sweep runs
on the code with each entry's coordinates reversed, so its least center,
reversed back, is the reported representative; no coset is reduced here.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial
from itertools import chain

# CurvePoint and emit_barrier_curves are re-exported here
from .bounds import (
    CurvePoint,
    emit_barrier_curves,
    gv_barrier,
    singleton_barrier,
    theta_threshold,
)
from .codes import LinearCode, _check_word_cap, sample_random_code, sample_random_linear_code
from .errors import EnumerationCapExceeded
from .fields import default_context
from .listdec import _split, max_list_size
from .rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    _ball_size,
    _check_length,
    _check_radius,
    _entries_of_index,
    _fields_dict,
    _index_of_entries,
    _Record,
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
        _check_length(self.n, self.m)
        object.__setattr__(self, "rate_target", Fraction(self.rate_target))
        if not 0 <= self.rate_target <= 1:
            raise ValueError(f"rate_target must lie in [0, 1], got {self.rate_target}")
        _check_radius(self.radius_s, self.n, "radius_s")
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


def _run_trials(spec: EnsembleSpec, cap: int, indices) -> list[TrialOutcome]:
    """The outcome of each trial in ``indices``, in order."""
    ctx = default_context(spec.q, spec.m)
    # exhaustive whenever the space fits the cap; only Monte Carlo reads the seed
    mode = "exhaustive" if ctx.order**spec.n <= cap else "montecarlo"
    outcomes = []
    for index in indices:
        sample_seed = substream_seed(spec.seed, 2 * index)
        scan_seed = substream_seed(spec.seed, 2 * index + 1)
        if spec.kind == "random":
            code = sample_random_code(ctx, spec.n, spec.q**spec.realized_log_size, sample_seed)
        else:
            code = sample_random_linear_code(ctx, spec.n, spec.realized_log_size, sample_seed)
        report = max_list_size(code, spec.radius_s, mode, seed=scan_seed, cap=cap)
        failed = report.l_max > spec.list_cap
        outcomes.append(TrialOutcome(index=index, l_max=report.l_max, exact=report.exhaustive, failed=failed))
    return outcomes


def run_ensemble(spec: EnsembleSpec, workers: int = 1, cap: int = DEFAULT_ENUM_CAP) -> TrialReport:
    """Run every trial of the ensemble; deterministic for any worker count >= 1."""
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    # both kinds draw q^k words, refused here before the first draw
    _check_word_cap(spec.q**spec.realized_log_size, cap)
    t0 = time.perf_counter()
    parts = _split(partial(_run_trials, spec, cap), range(spec.trials), workers)
    outcomes = tuple(chain.from_iterable(parts))
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

    The list size of a linear code at y is |(C + y) intersect B_s|, the
    count of the ball in the coset of y, so the exhaustive
    ``max_list_size`` sweep gives the largest count and the least vector
    that has it.  A coset the ball misses counts zero.  The cosets
    partition the space, so the counts sum to the closed-form ball
    volume; the sweep checks its own double count, which certifies that
    the offsets behind it are exactly the |B_s| vectors the shell counts
    predict, and raises ``RuntimeError`` on a mismatch, so a report
    always has ``total == ball`` and ``identity_ok``.

    The reported representative of the maximal coset is its first vector
    in ``flatten_vector`` order, and of the maximal cosets the one whose
    representative comes first.  That order is the packed order of the
    vector with each entry's F_q coordinates reversed.  The reversal
    permutes the rows of the m x n matrix of every vector, so it keeps
    rank, the ball B_s and the coset partition: the sweep runs on the
    reversed code, whose least center spells the reversed representative.
    """
    if not isinstance(code, LinearCode):
        raise ValueError("coset partition needs a linear code")
    _check_radius(s, code.n)
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

    def reversed_entries(entries):
        return tuple(_index_of_entries(q, _entries_of_index(q, m, e)[::-1]) for e in entries)

    mirror = tuple(RankVector(ctx, reversed_entries(w.entries)) for w in code.basis)
    worst = max_list_size(LinearCode(ctx, n, mirror), s, cap=cap)
    return CosetCheckReport(
        radius_s=s,
        k=code.k,
        coset_count=coset_count,
        ball=ball,
        total=ball,
        identity_ok=True,
        max_count=worst.l_max,
        max_rep=RankVector(ctx, reversed_entries(worst.argmax_center.entries)),
        average_bound=average_bound,
        meets_average_bound=worst.l_max >= average_bound,
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
        _check_length(n, m)
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
