"""Value semantics of the frozen spec and report records.

Each of the thirteen public records is built once with positional and
keyword arguments and checked for the behaviour of a frozen dataclass:
repr, equality against the same class only, hashing as the tuple of the
compared fields, frozen fields, pickling and copying, ``__match_args__``,
argument binding and defaults.  The repr strings were frozen from the
dataclass versions of the records.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from ranklab.bounds import BoundReport, CurvePoint
from ranklab.codes import ExplicitCode, GabidulinCode, LinearCode
from ranklab.fields import default_context
from ranklab.harness import CosetCheckReport, EnsembleSpec, ProbeRow, TrialOutcome, TrialReport
from ranklab.listdec import ListReport
from ranklab.rankmetric import KqInterval, RankVector, VolumeResult

CTX = default_context(2, 2)
V = RankVector(CTX, (1, 2))
W = RankVector(CTX, (3, 0))
SPEC = EnsembleSpec("random", 2, 2, 2, Fraction(1, 4), 1, 10, 1, 7)
OUTCOME = TrialOutcome(0, 3, True, False)
KQ = KqInterval(2, Fraction(1, 4), Fraction(1, 3))
DEFAULTED = ("truncated", "satisfied", "details", "wall_time_s")

# record class -> (field names, values, repr of the record built from them)
CASES = {
    KqInterval: (
        ("q", "lo", "hi"),
        (2, Fraction(1, 4), Fraction(1, 3)),
        "KqInterval(q=2, lo=Fraction(1, 4), hi=Fraction(1, 3))",
    ),
    VolumeResult: (
        ("q", "m", "n", "r", "exact", "lower", "upper_lo", "upper_hi", "kq", "truncated"),
        (2, 2, 2, 1, 10, 8, Fraction(21, 2), Fraction(32, 3), KQ, False),
        "VolumeResult(q=2, m=2, n=2, r=1, exact=10, lower=8, upper_lo=Fraction(21, 2), "
        "upper_hi=Fraction(32, 3), kq=KqInterval(q=2, lo=Fraction(1, 4), hi=Fraction(1, 3)), "
        "truncated=False)",
    ),
    ExplicitCode: (
        ("ctx", "n", "words"),
        (CTX, 2, (V, W)),
        "ExplicitCode(ctx=ExtCtx('2/2:1,1,1'), n=2, words=(RankVector(ctx=ExtCtx('2/2:1,1,1'), "
        "entries=(1, 2)), RankVector(ctx=ExtCtx('2/2:1,1,1'), entries=(3, 0))))",
    ),
    LinearCode: (
        ("ctx", "n", "basis"),
        (CTX, 2, (V,)),
        "LinearCode(ctx=ExtCtx('2/2:1,1,1'), n=2, basis=(RankVector(ctx=ExtCtx('2/2:1,1,1'), "
        "entries=(1, 2)),))",
    ),
    GabidulinCode: (
        ("ctx", "n", "k", "points"),
        (CTX, 2, 1, (1, 2)),
        "GabidulinCode(ctx=ExtCtx('2/2:1,1,1'), n=2, k=1, points=(1, 2))",
    ),
    BoundReport: (
        ("name", "inputs", "value", "satisfied", "details"),
        ("singleton", {"n": 2}, Fraction(1, 2), True, {"d": 1}),
        "BoundReport(name='singleton', inputs={'n': 2}, value=Fraction(1, 2), satisfied=True, "
        "details={'d': 1})",
    ),
    CurvePoint: (
        ("rho", "singleton", "gv"),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),
        "CurvePoint(rho=Fraction(1, 2), singleton=Fraction(1, 2), gv=Fraction(1, 4))",
    ),
    ListReport: (
        ("radius_s", "l_max", "argmax_center", "exhaustive", "centers_tried", "pigeonhole_lb"),
        (1, 3, V, True, 16, 2),
        "ListReport(radius_s=1, l_max=3, argmax_center=RankVector(ctx=ExtCtx('2/2:1,1,1'), "
        "entries=(1, 2)), exhaustive=True, centers_tried=16, pigeonhole_lb=2)",
    ),
    EnsembleSpec: (
        ("kind", "q", "m", "n", "rate_target", "radius_s", "list_cap", "trials", "seed"),
        ("random", 2, 2, 2, Fraction(1, 4), 1, 10, 1, 7),
        "EnsembleSpec(kind='random', q=2, m=2, n=2, rate_target=Fraction(1, 4), radius_s=1, "
        "list_cap=10, trials=1, seed=7)",
    ),
    TrialOutcome: (
        ("index", "l_max", "exact", "failed"),
        (0, 3, True, False),
        "TrialOutcome(index=0, l_max=3, exact=True, failed=False)",
    ),
    TrialReport: (
        ("spec", "outcomes", "failures", "failure_fraction", "metadata", "wall_time_s"),
        (SPEC, (OUTCOME,), 0, Fraction(0), (("python", "3"),), 1.5),
        "TrialReport(spec=EnsembleSpec(kind='random', q=2, m=2, n=2, rate_target=Fraction(1, 4), "
        "radius_s=1, list_cap=10, trials=1, seed=7), outcomes=(TrialOutcome(index=0, l_max=3, "
        "exact=True, failed=False),), failures=0, failure_fraction=Fraction(0, 1), "
        "metadata=(('python', '3'),), wall_time_s=1.5)",
    ),
    CosetCheckReport: (
        (
            "radius_s", "k", "coset_count", "ball", "total", "identity_ok", "max_count",
            "max_rep", "average_bound", "meets_average_bound",
        ),
        (1, 1, 8, 10, 10, True, 2, W, 2, True),
        "CosetCheckReport(radius_s=1, k=1, coset_count=8, ball=10, total=10, identity_ok=True, "
        "max_count=2, max_rep=RankVector(ctx=ExtCtx('2/2:1,1,1'), entries=(3, 0)), "
        "average_bound=2, meets_average_bound=True)",
    ),
    ProbeRow: (
        ("m", "n", "aspect", "theta", "bracket", "exponent", "exceeds_one", "aspect_ge_theta"),
        (4, 2, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 5), True, True),
        "ProbeRow(m=4, n=2, aspect=Fraction(1, 2), theta=Fraction(1, 3), bracket=Fraction(1, 5), "
        "exponent=Fraction(2, 5), exceeds_one=True, aspect_ge_theta=True)",
    ),
}
RECORDS = sorted(CASES, key=lambda cls: cls.__name__)


def compared(cls, record) -> tuple:
    return tuple(getattr(record, name) for name in CASES[cls][0] if name != "wall_time_s")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_builds_and_prints_as_the_dataclass_did(cls):
    names, values, text = CASES[cls]
    record = cls(*values)
    assert repr(record) == text
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:2], **dict(zip(names[2:], values[2:]))) == record
    assert list(vars(record)) == list(names)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality_is_per_class_and_hash_is_the_field_tuple(cls):
    names, values, _ = CASES[cls]
    record = cls(*values)
    key = compared(cls, record)
    assert record.__eq__(key) is NotImplemented and record != key and key != record
    sub = type("Sub", (cls,), {})(*values)
    assert record.__eq__(sub) is NotImplemented and record != sub
    assert record.__eq__(object()) is NotImplemented
    if cls is BoundReport:
        # dict fields: unhashable, as the tuple of them is
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(TypeError):
            hash(key)
    else:
        assert hash(record) == hash(key) == hash(cls(*values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_frozen(cls):
    names, values, _ = CASES[cls]
    record = cls(*values)
    for name in (names[0], names[-1], "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    assert not hasattr(record, "other")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_pickles_and_copies(cls):
    _, values, text = CASES[cls]
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == text
        assert vars(twin) == vars(record) and list(vars(twin)) == list(vars(record))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_missing_unknown_and_repeated_arguments(cls):
    names, values, _ = CASES[cls]
    required = [name for name in names if name not in DEFAULTED]
    with pytest.raises(TypeError):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def test_record_match_binds_positional_patterns():
    match TrialOutcome(4, 7, False, True):
        case TrialOutcome(index, l_max, exact=False):
            assert (index, l_max) == (4, 7)
        case _:
            pytest.fail("TrialOutcome did not match")


def test_record_defaults():
    values = CASES[VolumeResult][1][:-1]
    assert VolumeResult(*values).truncated is True
    assert VolumeResult.truncated is True
    a = BoundReport("singleton", {"n": 2}, 1)
    b = BoundReport(name="singleton", inputs={"n": 2}, value=1)
    assert a.satisfied is None and BoundReport.satisfied is None
    assert a.details == {} and b.details == {} and a.details is not b.details
    assert BoundReport("singleton", {}, 1, details=None).details is None
    assert repr(a) == (
        "BoundReport(name='singleton', inputs={'n': 2}, value=1, satisfied=None, details={})"
    )


def test_trial_report_wall_time_is_printed_but_not_compared():
    base = CASES[TrialReport][1][:-1]
    plain = TrialReport(*base)
    assert plain.wall_time_s == 0.0
    assert repr(plain).endswith(", metadata=(('python', '3'),), wall_time_s=0.0)")
    timed = TrialReport(*base, wall_time_s=2.5)
    assert timed == plain and hash(timed) == hash(plain) == hash(base)
    assert timed != TrialReport(*base[:2], 1, *base[3:])
