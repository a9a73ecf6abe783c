import cmath
import math
import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdisc import (
    BRational,
    SumOfDigits,
    VanDerCorput,
    gamma_k,
    hellekalek_bound,
    hellekalek_resolution,
    hellekalek_star_bound,
    lemma_le1_bound,
    lemma_le2_bound,
    product_identity_check,
    radical_inverse,
    rho_weight,
    value_counts_below,
    weyl_sum,
)
from lowdisc import expsums
from lowdisc.discrepancy import discrepancy
from lowdisc.expsums import DEFAULT_DIRECT_BUDGET, _phase
from oracles import oracle_weyl_direct


def brute_weyl(b, q, k, n):
    """Definition-level sum, no grouping, plain complex arithmetic."""
    from lowdisc import radical_inverse, sum_of_digits

    phi = radical_inverse(k, b).as_fraction()
    return sum(cmath.exp(2j * math.pi * sum_of_digits(m, q) * float(phi)) for m in range(n)) / n


def test_gamma_examples():
    assert gamma_k(2, 0, BRational(1, 2, 2)) == 1
    # monna_plus(1/2) = 1, phi_2(1) = 1/2 -> e(1/2) = -1
    assert gamma_k(2, 1, BRational(1, 2, 1)) == pytest.approx(-1)
    # monna_plus(3/4) = 3, 3 * 1/2 mod 1 = 1/2 -> -1
    assert gamma_k(2, 1, BRational(3, 2, 2)) == pytest.approx(-1)


def test_gamma_rejects_base_mismatch():
    with pytest.raises(ValueError):
        gamma_k(2, 1, BRational(1, 3, 1))


def test_weyl_examples():
    assert weyl_sum(2, 2, 1, 2).value == pytest.approx(0, abs=1e-14)
    assert weyl_sum(3, 5, 7, 1).value == pytest.approx(1)
    # s_2 of 0..3 = 0,1,1,2 -> (1 - 1 - 1 + 1)/4 = 0
    assert weyl_sum(2, 2, 1, 4).value == pytest.approx(0, abs=1e-14)
    assert weyl_sum(2, 2, 0, 100).value == 1


def test_weyl_matches_brute_force():
    rng = random.Random(31337)
    for _ in range(30):
        b = rng.choice([2, 3, 5])
        q = rng.choice([2, 3])
        k = rng.randint(0, 30)
        n = rng.randint(1, 400)
        got = weyl_sum(b, q, k, n).value
        assert abs(got - brute_weyl(b, q, k, n)) < 1e-9


def test_weyl_grouped_matches_direct(monkeypatch):
    for b, q, k in ((2, 2, 3), (3, 2, 5), (2, 3, 17), (10, 5, 99)):
        for n in (37, 1000, 4096):
            direct = weyl_sum(b, q, k, n)
            with monkeypatch.context() as patch:
                patch.setattr(expsums, "DEFAULT_DIRECT_BUDGET", 1)
                grouped = weyl_sum(b, q, k, n)
            assert direct.method == "direct" and grouped.method == "grouped"
            assert abs(direct.value - grouped.value) < 1e-12


@st.composite
def _direct_weyl_cases(draw):
    b = draw(st.integers(2, 7))
    q = draw(st.integers(2, 10))
    k = draw(st.integers(0, b**4 - 1))
    n = draw(st.integers(1, DEFAULT_DIRECT_BUDGET))
    return b, q, k, n


@settings(max_examples=300, deadline=None)
@given(_direct_weyl_cases())
@example((2, 2, 1, 1))
@example((7, 10, 7**4 - 1, 1))
@example((2, 2, 255 // 16, DEFAULT_DIRECT_BUDGET))
@example((5, 3, 5**4 - 1, DEFAULT_DIRECT_BUDGET))
@example((6, 7, 35, DEFAULT_DIRECT_BUDGET))
def test_weyl_direct_equals_fsum_over_every_term(case):
    """One term per digit-sum class rounds exactly as fsum over all N terms."""
    ws = weyl_sum(*case)
    value, method = oracle_weyl_direct(*case)
    assert ws.method == method
    assert (repr(ws.value.real), repr(ws.value.imag)) == (repr(value.real), repr(value.imag))


def test_phase_matches_the_numpy_table_bit_for_bit():
    # Published rows were computed from np.exp(2j*pi*np.arange(den)/den).
    # numpy divides a complex by a real through the reciprocal, so the angle
    # is 2*pi*a times 1/den; the plain quotient 2*pi*a/den rounds
    # differently for some a (den = 6, a = 5 below), so it would change rows.
    dens = sorted({b**r for b in range(2, 12) for r in range(1, 17) if b**r <= 1 << 16})
    for den in dens:
        table = np.exp(2j * math.pi * np.arange(den) / den)
        got = np.array([_phase(a, den) for a in range(den)])
        bad = np.flatnonzero(got.view(np.int64) != table.view(np.int64))  # bits, as repr shows
        assert not bad.size, (den, [(repr(got[i]), repr(table[i])) for i in bad[:3]])
    t = 2 * math.pi * 5 / 6
    assert complex(math.cos(t), math.sin(t)) != _phase(5, 6)


@pytest.mark.parametrize(
    "b,q,k",
    [(2, 2, 2**40), (2, 3, 2**60 + 3), (2, 2, 2**1100), (3, 5, 3**700 + 5)],
    ids=["2^40", "2^60+3", "2^1100", "3^700+5"],
)
def test_weyl_sum_at_huge_k(b, q, k):
    # phi_b(k) has a denominator of 2**41 (no table over it would fit in
    # memory), beyond 2**53 (the angle comes from one rounded a/den), or
    # beyond the float range (1.0/den would overflow)
    for n in (1, 37, 500):
        assert abs(weyl_sum(b, q, k, n).value - brute_weyl(b, q, k, n)) < 1e-12


def test_weyl_modulus_bounded():
    rng = random.Random(777)
    for _ in range(50):
        ws = weyl_sum(rng.choice([2, 3, 10]), rng.choice([2, 5]), rng.randint(0, 50), rng.randint(1, 300))
        assert ws.abs <= 1 + 1e-12


def test_product_identity_examples():
    assert product_identity_check(2, 2, 1, 3)  # both sides 0
    assert product_identity_check(2, 3, 1, 4)
    assert product_identity_check(2, 2, 5, 0)  # m=0: both sides 1


def test_product_identity_large_block():
    # q^m far beyond the direct budget exercises the grouped evaluation
    assert product_identity_check(3, 13, 7, 12)


def test_lemma1_equality_case():
    lhs, rhs, holds, clamped = lemma_le1_bound(2, 2, 1, 1)
    assert holds and not clamped
    assert lhs == pytest.approx(0, abs=1e-14)
    assert rhs == pytest.approx(0, abs=1e-14)


def test_lemma1_k0_trivial():
    lhs, rhs, holds, _ = lemma_le1_bound(2, 2, 0, 5)
    assert rhs == 1 and lhs == pytest.approx(1) and holds


def test_lemma1_direct_case():
    lhs, rhs, holds, clamped = lemma_le1_bound(3, 2, 1, 5)
    # |T_1(2)| = |(1 + e(1/3))/2| = 1/2; rhs = (5/9)^(5/2)
    assert lhs == pytest.approx(0.5**5)
    assert rhs == pytest.approx((5 / 9) ** 2.5)
    assert holds and not clamped


def test_lemma1_base_never_negative():
    # 1 - 16(q-1)/q^2 * dist^2 >= (q-2)^2/q^2 >= 0 for every q, so the
    # defensive clamp can never fire; check it stays dead across large q
    for q in (14, 17, 50):
        for k in (1, 2, 3):
            res = lemma_le1_bound(2, q, k, 2)
            assert not res.clamped and res.rhs >= 0
            assert res.holds


def test_lemma2_exact_power_case():
    lhs, rhs, holds, _ = lemma_le2_bound(2, 2, 1, 8)
    assert holds
    assert lhs == pytest.approx(rhs, abs=1e-12)  # single digit: rhs = lhs


def test_lemma2_examples():
    assert lemma_le2_bound(2, 2, 1, 3).holds
    assert lemma_le2_bound(2, 3, 2, 10).holds


def test_product_identity_full_small_sweep():
    for b in (2, 3, 4, 5):
        for q in (2, 3, 4, 5):
            for k in range(0, 41):
                for m in range(0, 11):
                    assert product_identity_check(b, q, k, m), (b, q, k, m)


def test_lemma_sweep_small():
    for b in (2, 3, 4, 5):
        for q in (2, 3, 4, 5):
            for k in (1, 2, 7, 19, 40):
                for m in (0, 1, 4, 7, 10):
                    assert lemma_le1_bound(b, q, k, m).holds
                for n in (3, 17, 100, 999):
                    assert lemma_le2_bound(b, q, k, n).holds


def test_rho_weights():
    assert rho_weight(2, 0) == 1.0
    assert rho_weight(2, 1) == pytest.approx(1.0)  # 2/(2 sin(pi/2))
    assert rho_weight(2, 2) == pytest.approx(0.5)  # r=1, kappa=1 -> 2/4
    assert rho_weight(3, 5) == pytest.approx(2 / (9 * math.sin(math.pi / 3)))


def test_hellekalek_bounds_need_one_multiplicity_per_point():
    pts = [radical_inverse(n, 2) for n in range(4)]
    cases = [([1], "one multiplicity per point"), ([1] * 5, "one multiplicity per point"),
             ([2, -1, 1, 1], "multiplicities must be non-negative")]
    for bound in (hellekalek_star_bound, hellekalek_bound):
        for counts, message in cases:
            with pytest.raises(ValueError, match=message):
                bound(2, 2, pts, counts)


def test_hellekalek_constant_sequence():
    pts = [BRational(0, 2, 0)] * 4
    # the display value of the character sum: 1/2 + rho_2(1) * 1
    assert hellekalek_star_bound(2, 1, pts) == pytest.approx(1.5)
    assert hellekalek_bound(2, 1, pts) == pytest.approx(3.0)
    assert discrepancy([p.as_fraction() for p in pts]).value == 1


def test_hellekalek_star_display_not_extreme_safe():
    # the display alone can be beaten by the extreme discrepancy: the star /
    # extreme gap is a full factor of two on this multiset
    pts = [BRational(0, 2, 0)] * 3 + [
        BRational(3, 2, 2),
        BRational(13, 2, 4),
        BRational(7, 2, 3),
    ]
    display = hellekalek_star_bound(2, 1, pts)
    assert discrepancy(pts).value == Fraction(3, 4) > display
    assert discrepancy(pts, mode="star").value == Fraction(1, 2) <= display


def test_hellekalek_dominates_discrepancies():
    rng = random.Random(60221023)
    for _ in range(60):
        b = rng.choice([2, 3])
        n = rng.randint(1, 64)
        prec = rng.randint(0, 4)
        pts = [BRational(rng.randrange(b**prec), b, prec) for _ in range(n)]
        extreme = float(discrepancy(pts).value)
        star = float(discrepancy(pts, mode="star").value)
        for g in (1, 2, 3):
            assert hellekalek_star_bound(b, g, pts) >= star - 1e-12
            assert hellekalek_bound(b, g, pts) >= extreme - 1e-12


def test_hellekalek_weighted_matches_flat():
    pts = [BRational(1, 2, 1), BRational(1, 2, 2)]
    counts = [3, 2]
    flat = [pts[0]] * 3 + [pts[1]] * 2
    assert hellekalek_bound(2, 2, pts, counts) == pytest.approx(
        hellekalek_bound(2, 2, flat)
    )


def test_hellekalek_resolution_tuning():
    # g = floor(log_b sqrt(log N)), clamped to >= 1
    assert hellekalek_resolution(2, 2) == 1
    n = 2**22
    expect = math.floor(math.log(math.sqrt(math.log(n)), 2))
    assert hellekalek_resolution(2, n) == expect
    assert hellekalek_resolution(3, 10) == 1
    # log base 1 divides by zero, and below it the resolution has no meaning
    for b in (1, 0, -2):
        with pytest.raises(ValueError, match="character base must be >= 2"):
            hellekalek_resolution(b, 100)


def test_hellekalek_on_digit_sum_indexed_sequence():
    # the Theorem's sequence: van der Corput indexed by s_q, bound vs exact D
    spec = VanDerCorput(2)
    for q in (2, 3):
        for n in (64, 512, 4096):
            mult = value_counts_below(SumOfDigits(q), n)
            pts = [spec.point(k).coords[0] for k in mult]
            counts = list(mult.values())
            exact = discrepancy(pts, counts).value
            g = hellekalek_resolution(2, n)
            assert hellekalek_bound(2, g, pts, counts) >= float(exact) - 1e-12
