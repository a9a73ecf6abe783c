"""Base-b digit arithmetic: expansions, digit sums, radical inverses, Monna map.

Everything here is exact integer arithmetic on arbitrary-precision ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from ._util import Value


def _check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")


def _check_nonneg(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")


@total_ordering
class BRational(Value):
    """Exact value num / base**prec in [0, 1) with the base kept explicit.

    Comparisons (also across bases) cross-multiply arbitrary-precision
    integers; no floating point is involved.  Instances compare and hash by
    value, so ``BRational(1, 2, 1) == BRational(2, 4, 1) == Fraction(1, 2)``.
    """

    def __init__(self, num: int, base: int, prec: int):
        _check_base(base)
        _check_nonneg(num)
        if prec < 0:
            raise ValueError("prec must be >= 0")
        if num >= base**prec:
            raise ValueError(f"{num}/{base}^{prec} does not lie in [0, 1)")
        self._set(num=num, base=base, prec=prec)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.base**self.prec)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def _cmp_key(self, other):
        if isinstance(other, BRational):
            return (
                self.num * other.base**other.prec,
                other.num * self.base**self.prec,
            )
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return (self.num * f.denominator, f.numerator * self.base**self.prec)
        return None

    def __eq__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] == key[1]

    def __lt__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] < key[1]

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self):
        return f"BRational({self.num}/{self.base}^{self.prec})"


def expand(n: int, base: int) -> tuple[int, ...]:
    """Base-b digits of n, least-significant first (empty for n = 0)."""
    _check_nonneg(n)
    _check_base(base)
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    return tuple(digits)


def sum_of_digits(n: int, q: int) -> int:
    """Sum of the base-q digits of n."""
    return sum(expand(n, q))


def radical_inverse(n: int, base: int) -> BRational:
    """Mirror the base-b digits of n across the radix point.

    The result has precision equal to the digit count of n, which is minimal.
    """
    _check_nonneg(n)
    _check_base(base)
    num, prec = 0, 0
    while n:
        n, d = divmod(n, base)
        num = num * base + d
        prec += 1
    return BRational(num, base, prec)


def monna_plus(x: BRational) -> int:
    """Inverse of the radical inverse on finite expansions.

    Sends sum(x_r / b^(r+1)) to sum(x_r * b^r); exact for any finite b-adic
    rational regardless of normalization.
    """
    num, out = x.num, 0
    for _ in range(x.prec):
        num, d = divmod(num, x.base)
        out = out * x.base + d
    return out
