import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import (
    BRational,
    expand,
    monna_plus,
    radical_inverse,
    sum_of_digits,
)
from lowdisc.digits import _digit_count


@pytest.mark.parametrize(
    "n,b,digits",
    [(0, 2, ()), (5, 2, (1, 0, 1)), (10, 3, (1, 0, 1)), (255, 16, (15, 15))],
)
def test_expand_examples(n, b, digits):
    assert expand(n, b) == digits


@pytest.mark.parametrize("b", [2, 3, 10, 1031])
def test_digit_count_is_the_length_of_expand(b):
    for k in [*range(12), 100, 1000, 3000]:
        for n in (b**k - 1, b**k, b**k + 1):
            assert _digit_count(n, b) == len(expand(n, b)), (n, b)


def test_expand_rejects_bad_base():
    with pytest.raises(ValueError):
        expand(5, 1)
    with pytest.raises(ValueError):
        sum_of_digits(5, 0)


@pytest.mark.parametrize("n,q,s", [(0, 2, 0), (7, 2, 3), (1234, 10, 10)])
def test_sum_of_digits_examples(n, q, s):
    assert sum_of_digits(n, q) == s


@pytest.mark.parametrize(
    "n,b,num,prec",
    [(0, 2, 0, 0), (3, 2, 3, 2), (7, 5, 11, 2)],
)
def test_radical_inverse_examples(n, b, num, prec):
    x = radical_inverse(n, b)
    assert (x.num, x.base, x.prec) == (num, b, prec)


@pytest.mark.parametrize(
    "x,expected",
    [
        (BRational(3, 2, 2), 3),
        (BRational(0, 2, 0), 0),
        (BRational(11, 5, 2), 7),
    ],
)
def test_monna_plus_examples(x, expected):
    assert monna_plus(x) == expected


def test_monna_plus_ignores_padding():
    x = radical_inverse(6, 2)
    assert monna_plus(BRational(x.num * 2**3, 2, x.prec + 3)) == 6


@given(st.integers(0, 10**6 - 1), st.integers(2, 16))
@settings(max_examples=400)
def test_round_trips(n, b):
    assert sum(d * b**r for r, d in enumerate(expand(n, b))) == n
    assert monna_plus(radical_inverse(n, b)) == n


@given(
    st.integers(2, 12),
    st.integers(0, 6),
    st.integers(0, 10**4),
    st.integers(0, 10**4),
)
@settings(max_examples=300)
def test_digit_block_additivity(q, j, m_seed, a):
    # s_q(m + A q^j) = s_q(m) + s_q(A) for 0 <= m < q^j
    m = m_seed % q**j
    assert sum_of_digits(m + a * q**j, q) == sum_of_digits(m, q) + sum_of_digits(a, q)


@pytest.mark.parametrize("b,m", [(2, 6), (3, 4), (5, 3)])
def test_radical_inverse_is_bijective_on_prefix(b, m):
    image = {radical_inverse(n, b).as_fraction() for n in range(b**m)}
    assert image == {Fraction(a, b**m) for a in range(b**m)}


def test_brational_value_semantics():
    assert BRational(1, 2, 1) == BRational(2, 4, 1) == Fraction(1, 2)
    assert BRational(1, 2, 2) < BRational(1, 3, 1) < BRational(1, 2, 1)
    assert hash(BRational(1, 2, 1)) == hash(Fraction(1, 2))


def test_brational_range_validation():
    with pytest.raises(ValueError):
        BRational(4, 2, 2)
    with pytest.raises(ValueError):
        BRational(-1, 2, 2)
    with pytest.raises(ValueError):
        BRational(0, 1, 0)
