"""b-adic characters, rho weights, Weyl sums over digit sums, and the
character-based discrepancy bound.

Phases are reduced mod 1 in exact integer arithmetic (every phase is a
rational with denominator b**(r+1)); the transcendental calls happen
afterwards, on Python floats.  A Weyl sum's terms depend on n only through
the digit sum s_q(n), so every sum is one term per digit-sum class, weighted
by the class's exact count, and each class computes its own phase.  No
table of the circle is built, so memory does not grow with k, and the cost
grows with log N, not N.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._util import BudgetExceededError, multiplicities
from .digits import BRational, expand, monna_plus, radical_inverse
from .digitsum_dist import COUNT_BUDGET, digit_sum_counts_below

# Up to this N a Weyl sum is the correctly rounded exact sum of its N terms
# ("direct"); beyond it each class weight c/N is rounded first ("grouped").
# Both cost one term per digit-sum class: the budget picks which rounding a
# row keeps, and published rows pin both.
DEFAULT_DIRECT_BUDGET = 1 << 14

# Float slack of the lemma checks |T_k| <= bound.
LEMMA_SLACK = 1e-12


def e_frac(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with the argument already reduced mod den."""
    return cmath.exp(2j * math.pi * (num % den) / den)


def phi_fraction(b: int, k: int) -> tuple[int, int]:
    """Radical inverse of k as an exact pair (numerator, denominator b**r)."""
    x = radical_inverse(k, b)
    return x.num, x.base**x.prec


def gamma_k(b: int, k: int, x: BRational) -> complex:
    """Character value e(phi_b(k) * monna_plus(x)) on the unit circle."""
    if x.base != b:
        raise ValueError(f"point base {x.base} differs from character base {b}")
    num, den = phi_fraction(b, k)
    return e_frac(num * monna_plus(x), den)


def _phase(a: int, den: int) -> complex:
    """e(a/den) for 0 <= a < den, rounded as np.exp(2j*pi*np.arange(den)/den).

    numpy divides a complex by a real through the reciprocal, so the angle
    is 2*pi*a times 1/den; 2*pi*a/den rounds differently for some a.  Past
    2**53, where a is no longer an exact double (and past the float range
    1.0/den overflows), the angle comes from a/den, which int true division
    rounds once.
    """
    t = 2 * math.pi * a * (1.0 / den) if den <= 1 << 53 else 2 * math.pi * (a / den)
    return complex(math.cos(t), math.sin(t))


def _exact_dot(counts, values) -> float:
    """sum c*x over integer counts and floats, rounded once (as math.fsum
    rounds the same terms repeated c times): every x = p / 2**e goes over
    one common power of two, and int true division rounds correctly."""
    ratios = [(c, *x.as_integer_ratio()) for c, x in zip(counts, values) if c]
    den = max(d for _, _, d in ratios)
    return sum(c * p * (den // d) for c, p, d in ratios) / den


class WeylSum(NamedTuple):
    b: int
    q: int
    k: int
    n: int
    value: complex
    method: str

    @property
    def abs(self) -> float:
        return abs(self.value)


def weyl_sum(b: int, q: int, k: int, n: int) -> WeylSum:
    """T_k(N) = (1/N) sum_{n<N} e(s_q(n) phi_b(k)).

    The N terms take one value x_j = e(j phi_b(k)) per digit sum j, so the
    sum is sum_j c_j x_j with the exact class counts c_j.  Up to N =
    DEFAULT_DIRECT_BUDGET that sum is rounded once, exactly as math.fsum
    over all N terms rounds it, and then divided by N ("direct"); beyond it
    each weight c_j/N is rounded first ("grouped").
    """
    (ws,), _ = weyl_sums(b, q, [k], n)
    return ws


def weyl_sums(b: int, q: int, ks: Sequence[int], n: int) -> tuple[list[WeylSum], list[int]]:
    """weyl_sum(b, q, k, n) for each k in ks, and the digit-sum counts below N
    that every sum reads, taken once.  Each sum costs one term per digit-sum
    class; past COUNT_BUDGET terms in all, BudgetExceededError comes before
    the first sum."""
    if n < 1:
        raise ValueError("need N >= 1")
    counts = digit_sum_counts_below(q, n)
    most = COUNT_BUDGET // len(counts)
    if len(ks[: most + 1]) > most:  # a slice: len() of a huge range would overflow
        raise BudgetExceededError(f"more than {most} Weyl sums of {len(counts)} digit-sum "
                                  f"classes each are past the budget {COUNT_BUDGET}")
    return [_weyl_sum(b, q, k, n, counts) for k in ks], counts


def _weyl_sum(b: int, q: int, k: int, n: int, counts: list[int]) -> WeylSum:
    num, den = phi_fraction(b, k)
    if num == 0:
        return WeylSum(b, q, k, n, complex(1.0, 0.0), "trivial")
    terms = [_phase(j * num % den, den) for j in range(len(counts))]
    if n <= DEFAULT_DIRECT_BUDGET:
        value = complex(
            _exact_dot(counts, [z.real for z in terms]) / n,
            _exact_dot(counts, [z.imag for z in terms]) / n,
        )
        return WeylSum(b, q, k, n, value, "direct")
    # int true division rounds each weight once, as float(Fraction(c, n)) does, at any size
    pairs = [(c / n, z) for c, z in zip(counts, terms) if c]
    value = complex(math.fsum(w * z.real for w, z in pairs),
                    math.fsum(w * z.imag for w, z in pairs))
    return WeylSum(b, q, k, n, value, "grouped")


def product_identity_check(b: int, q: int, k: int, m: int) -> bool:
    """Check |T_k(q**m) - T_k(q)**m| < 1e-10 numerically."""
    lhs = weyl_sum(b, q, k, q**m).value
    rhs = weyl_sum(b, q, k, q).value ** m
    return abs(lhs - rhs) < 1e-10


class LemmaBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    clamped: bool = False


def lemma_le1_bound(b: int, q: int, k: int, m: int) -> LemmaBound:
    """|T_k(q**m)| against (1 - 16(q-1)/q^2 ||phi_b(k)||^2)^(m/2).

    For q >= 14 the base can go negative (the theorem assumes q < 14); it is
    clamped to zero and flagged.
    """
    lhs = abs(weyl_sum(b, q, k, q**m).value)
    num, den = phi_fraction(b, k)
    dist = min(Fraction(num, den), 1 - Fraction(num, den))
    base = 1 - Fraction(16 * (q - 1), q * q) * dist * dist
    clamped = base < 0
    if clamped:
        base = Fraction(0)
    rhs = float(base) ** (m / 2.0)
    return LemmaBound(lhs, rhs, lhs <= rhs + LEMMA_SLACK, clamped)


def lemma_le2_bound(b: int, q: int, k: int, n: int) -> LemmaBound:
    """|T_k(N)| against (1/N) sum_r a_r q^r |T_k(q^r)| over the digits of N."""
    lhs = abs(weyl_sum(b, q, k, n).value)
    rhs_terms = []
    for r, a_r in enumerate(expand(n, q)):
        if a_r:
            rhs_terms.append(a_r * q**r * abs(weyl_sum(b, q, k, q**r).value))
    rhs = math.fsum(rhs_terms) / n
    return LemmaBound(lhs, rhs, lhs <= rhs + LEMMA_SLACK)


def rho_weight(b: int, k: int) -> float:
    """Decay weight of the k-th character: 2 / (b**(r+1) sin(pi kappa_r / b))."""
    if k == 0:
        return 1.0
    digs = expand(k, b)
    r = len(digs) - 1
    kappa = digs[-1]
    return 2.0 / (b ** (r + 1) * math.sin(math.pi * kappa / b))


def hellekalek_resolution(b: int, n: int) -> int:
    """The resolution g = floor(log_b sqrt(log N)) used to tune the bound (>= 1)."""
    if b < 2:
        raise ValueError(f"character base must be >= 2, got {b}")
    if n < 2:
        return 1
    return max(1, math.floor(math.log(math.sqrt(math.log(n)), b)))


def hellekalek_star_bound(b: int, g: int, points, counts=None) -> float:
    """Character-sum bound 1/b**g + sum_{k<b**g} rho_b(k) |mean_n gamma_k(y_n)|.

    This display dominates the STAR discrepancy of the multiset and is tight
    on some inputs; it does not dominate the extreme discrepancy (see
    hellekalek_bound for the certified extreme version).
    """
    if g < 1:
        raise ValueError("resolution g must be >= 1")
    pts = list(points)
    counts, n = multiplicities(counts, len(pts))
    if counts is None:
        counts = [1] * len(pts)
    zs = []
    for x in pts:
        if not isinstance(x, BRational):
            raise ValueError("character bounds need exact b-adic points (BRational)")
        if x.base != b:
            raise ValueError(f"point base {x.base} differs from bound base {b}")
        zs.append(monna_plus(x))
    weights = [c / n for c in counts]  # each rounded once, as float(Fraction(c, n)) rounds it
    terms = []
    for k in range(1, b**g):
        num, den = phi_fraction(b, k)
        vals = [(w, e_frac(num * z, den)) for z, w in zip(zs, weights)]
        mean = complex(math.fsum(w * v.real for w, v in vals),
                       math.fsum(w * v.imag for w, v in vals))
        terms.append(rho_weight(b, k) * abs(mean))
    return 1.0 / b**g + math.fsum(terms)


def hellekalek_bound(b: int, g: int, points, counts=None) -> float:
    """Certified character-sum upper bound on the EXTREME discrepancy.

    Twice the star-level display: an arbitrary interval [a, c) splits into
    two anchored ones, so extreme <= 2 * star <= 2 * display.  The display
    alone can be beaten by the extreme discrepancy (e.g. the multiset
    {0, 0, 0, 3/4, 13/16, 7/8} in base 2 has extreme discrepancy 3/4 while
    the g = 1 display is 1/2), hence the factor here.
    """
    return 2.0 * hellekalek_star_bound(b, g, points, counts)
