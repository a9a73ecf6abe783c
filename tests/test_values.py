"""Value semantics of the library's records and validating types: construction
by position, keyword and default, the validation messages (and those of the
calls that refuse their input), read-only fields, equality and hash by type
and value, and the ``Type(field=value, ...)`` repr."""

import re
from fractions import Fraction

import pytest

from lowdisc import (
    BoundReport, Box, BoxSide, BRational, DigitalSequence, DigitSumDistribution,
    DiscrepancyReport, Envelope, FloorPower, GeneratorMatrix, Halton, Point, SumOfDigits,
    TableTransform, VanDerCorput, WeylSum, check_net, check_rank_condition, hellekalek_star_bound,
    parse_spec, parse_transform, pascal_matrices,
)
from lowdisc.bounds import AlphaRow, EnvelopeFitRow, GeneralUpper
from lowdisc.cli import RunConfig

EYE = ((1, 0), (0, 1))
MAT = GeneratorMatrix(2, EYE)
HALF = BRational(1, 2, 1)
SIDE = BoxSide(Fraction(0), Fraction(1, 2), True, False)


def double(n):
    return 2.0 * n


# type -> positional arguments and the same value by keyword, every field in
# order and in the form the type stores it
VALUES = [
    (BRational, (1, 2, 1), dict(num=1, base=2, prec=1)),
    (VanDerCorput, (3,), dict(base=3)),
    (Halton, ((2, 3),), dict(bases=(2, 3))),
    (GeneratorMatrix, (2, EYE), dict(p=2, rows=EYE)),
    (DigitalSequence, (2, (MAT,), 2), dict(p=2, matrices=(MAT,), precision=2)),
    (SumOfDigits, (3,), dict(q=3)),
    (FloorPower, (2, 3), dict(u=2, v=3)),
    (TableTransform, ((0, 1, 1),), dict(values=(0, 1, 1))),
    (Envelope, ("constant", double, 7), dict(source="constant", _fn=double, n_max=7)),
    (Point, ((HALF,),), dict(coords=(HALF,))),
    (BoxSide, (Fraction(0), Fraction(1, 2), True, False),
     dict(lower=Fraction(0), upper=Fraction(1, 2), closed_lower=True, closed_upper=False)),
    (Box, ((SIDE,),), dict(sides=(SIDE,))),
    (DiscrepancyReport, (4, Fraction(1, 4), Box((SIDE,)), "windowed-star", 3),
     dict(n=4, value=Fraction(1, 4), witness=Box((SIDE,)), method="windowed-star", shift=3)),
    (WeylSum, (2, 3, 1, 10, 0.5 + 0.25j, "direct"),
     dict(b=2, q=3, k=1, n=10, value=0.5 + 0.25j, method="direct")),
    (DigitSumDistribution, (2, 2, (1, 2, 1)), dict(q=2, j=2, counts=(1, 2, 1))),
    (GeneralUpper, (1.5, [(0, 2, 1, 1, 1.0, 2.0)], {"unimodality_verified": True}),
     dict(value=1.5, per_j=[(0, 2, 1, 1, 1.0, 2.0)], flags={"unimodality_verified": True})),
    (BoundReport, (4, Fraction(1), Fraction(3, 2), 2.5, [], {"x": 1}),
     dict(n=4, lower=Fraction(1), measured=Fraction(3, 2), upper=2.5, per_j_terms=[],
          hypothesis_flags={"x": 1})),
    (EnvelopeFitRow, (1, 2, 0.5, 0.4, 0.3, None, True),
     dict(d=1, n=2, measured=0.5, scaled=0.4, lower_fit=0.3, upper_fit=None, holds=True)),
    (AlphaRow, (4, 0.25, 1.0, 0.75), dict(n=4, measured=0.25, scaled=1.0, banded=0.75)),
    (RunConfig, ("sod", "vdc:2", 3, 1, 2, 4, "star", "rep"),
     dict(curve="sod", spec="vdc:2", q=3, u=1, v=2, dmax=4, mode="star", out="rep")),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls,args,kwargs", VALUES, ids=IDS)
def test_position_and_keyword_build_one_value(cls, args, kwargs):
    value = cls(*args)
    assert type(value) is cls
    assert value == cls(**kwargs) and not value != cls(**kwargs)
    assert [getattr(value, name) for name in kwargs] == list(kwargs.values())
    if cls is not GeneralUpper and cls is not BoundReport:  # these hold a list
        assert hash(value) == hash(cls(**kwargs))


@pytest.mark.parametrize("cls,args,kwargs", VALUES, ids=IDS)
def test_fields_are_read_only(cls, args, kwargs):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)


@pytest.mark.parametrize("cls,args,kwargs", VALUES, ids=IDS)
def test_repr_names_every_field(cls, args, kwargs):
    if cls is BRational:
        assert repr(cls(*args)) == "BRational(1/2^1)"
        return
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


def test_defaults():
    assert DigitalSequence(2, pascal_matrices(2, 1)).precision == 32
    assert Envelope("constant", double).n_max is None
    assert DiscrepancyReport(1, Fraction(1), None, "exact-1d").shift is None
    report = BoundReport(1, Fraction(0), Fraction(1), 1.0)
    assert (list(report.per_j_terms), dict(report.hypothesis_flags)) == ([], {})
    assert RunConfig("sod", "vdc:2") == RunConfig("sod", "vdc:2", 2, 1, 2, 10, "extreme", "report")


def test_equality_and_hash_by_type_and_value():
    assert VanDerCorput(2) != SumOfDigits(2) and SumOfDigits(2) != VanDerCorput(2)
    assert Halton([2, 3]) == Halton((2, 3)) and hash(Halton([2, 3])) == hash(Halton((2, 3)))
    assert TableTransform([0, 1]) == TableTransform(iter((0, 1)))
    assert DigitalSequence(2, [MAT], 2) == DigitalSequence(2, (MAT,), 2)
    assert VanDerCorput(2) != VanDerCorput(3) and FloorPower(1, 2) != FloorPower(1, 3)
    assert len({VanDerCorput(2), VanDerCorput(2), Halton((2, 3)), Halton([2, 3])}) == 2
    assert VanDerCorput(2) != 2 and VanDerCorput(2) != (2,)
    # BRational keeps its own comparison by value (test_brational_value_semantics)
    assert BRational(3, 6, 1) == HALF and hash(BRational(3, 6, 1)) == hash(HALF)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BRational(1, 1, 0), "base must be an integer >= 2, got 1"),
        (lambda: BRational(-1, 2, 1), "expected a non-negative integer, got -1"),
        (lambda: BRational(0, 2, -1), "prec must be >= 0"),
        (lambda: BRational(4, 2, 2), "4/2^2 does not lie in [0, 1)"),
        (lambda: VanDerCorput(1), "van der Corput base must be >= 2"),
        (lambda: Halton(()), "need at least one base"),
        (lambda: Halton([2, 1]), "Halton bases must be >= 2"),
        (lambda: Halton([2, 3, 4]), "Halton bases must be pairwise co-prime; gcd(2, 4) != 1"),
        (lambda: GeneratorMatrix(4, ((1,),)), "matrix modulus must be prime, got 4"),
        (lambda: GeneratorMatrix(2, ((1, 0),)), "generator matrix must be square"),
        (lambda: GeneratorMatrix(2, ((2,),)), "entry 2 not reduced mod 2"),
        (lambda: DigitalSequence(4, (MAT,), 2), "digital base must be prime, got 4"),
        (lambda: DigitalSequence(2, (), 2), "need at least one generator matrix"),
        (lambda: DigitalSequence(3, (MAT,), 2), "matrix modulus differs from sequence base"),
        (lambda: DigitalSequence(2, (MAT,)), "matrix size 2 != precision 32"),
        (lambda: SumOfDigits(1), "digit-sum base must be >= 2"),
        (lambda: FloorPower(2, 2), "need 0 < u < v so that 0 < alpha < 1"),
        (lambda: FloorPower(2, 4), "u/v must be in lowest terms"),
        (lambda: TableTransform([]), "table must not be empty"),
        (lambda: TableTransform([0, 2, 1]), "table transform must be non-decreasing"),
        # calls that refuse their input
        (lambda: hellekalek_star_bound(2, 1, [Fraction(1, 2)]),
         "character bounds need exact b-adic points (BRational)"),
        (lambda: hellekalek_star_bound(2, 1, [BRational(1, 3, 1)]),
         "point base 3 differs from bound base 2"),
        (lambda: check_rank_condition(pascal_matrices(2, 2, 4), 3, 2), "need m >= t"),
        (lambda: check_net([Fraction(0), HALF], 2, 2), "need 0 <= t <= m"),
        (lambda: parse_spec("pascal:3"), "cannot parse digital spec 'pascal:3'"),
        (lambda: parse_spec("pascal:3,2,10,1"), "cannot parse digital spec 'pascal:3,2,10,1'"),
        (lambda: parse_transform('{"kind": "cube"}'), "unknown transform kind 'cube'"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        build()
