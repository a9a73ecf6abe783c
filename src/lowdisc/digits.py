"""Base-b digit arithmetic: expansions, digit sums, radical inverses, Monna map.

Everything here is exact integer arithmetic on arbitrary-precision ints.
A batch of radical inverses, digital points (a linear map of the index's
digit vector) or digit sums is one kernel, :func:`_block_sums`: a sum of
table entries over the index's base-b digit blocks, a range read by runs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._util import Value


def _check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")


def _check_nonneg(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")


@functools.total_ordering
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


def _digit_count(n: int, base: int) -> int:
    """len(expand(n, base)), 0 for 0: counted up from below n's bit length over log2(base)."""
    count = max(int(n.bit_length() / math.log2(base)) - 1, 0)
    while base**count <= n:
        count += 1
    return count


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


_TABLE_BITS = 10  # a table of index-digit blocks holds at most 2**10 entries


def _fits(base: int, length: int) -> bool:
    """Whether the base**length values of a block of digits fit in one table."""
    return base**length <= 1 << _TABLE_BITS


@functools.lru_cache(maxsize=256)
def _digit_blocks(base: int, used: int) -> tuple[int, ...]:
    """The lengths, from the lowest digits up, of the fewest blocks of `used`
    base-b digits whose values fit in tables (one digit each where two do
    not), as even as their count allows; no digits are one empty block."""
    chunk = 1
    while chunk < used and _fits(base, chunk + 1):
        chunk += 1
    blocks = max(-(-used // chunk), 1)
    chunk = -(-used // blocks)
    return tuple(min(chunk, used - chunk * i) for i in range(blocks))


@functools.lru_cache(maxsize=None)
def _mirror_table(base: int, length: int) -> list[int]:
    """Each of the base**length values of a block with its `length` digits mirrored."""
    table, high = [0], base ** (length - 1)
    for x in range(1, base**length):  # x's last digit goes first, then x // b's digits
        table.append(x % base * high + table[x // base] // base)
    return table


@functools.lru_cache(maxsize=64)
def _digit_sum_lookups(q: int, width: int) -> tuple:
    """The :func:`_block_sums` lookups of s_q on indices of `width` digits:
    each block's table of digit sums (none for a one-digit block too large
    for a table: a digit is its own sum)."""
    return tuple((q**length, [sum_of_digits(x, q) for x in range(q**length)]
                  if _fits(q, length) else None, 1) for length in _digit_blocks(q, width))


def _top(idx) -> int:
    """The largest of some checked indices, 0 for none: a range's is at an end."""
    if isinstance(idx, range):
        return max(idx[0], idx[-1]) if idx else 0
    return max(idx, default=0) if isinstance(idx, list) else int(idx.max(initial=0))


def _runs(indices, size: int) -> range | None:
    """The high parts n // size of a step-1 range of at least `size` indices,
    read by runs of `size` consecutive indices, which share their high part;
    None for any other batch.  The kernels take size = b**L, L the length of
    the lowest of several blocks, so size >= 3 and the high parts are fewer
    than half as many as the indices: runs of runs end after O(log) steps.
    """
    if not (isinstance(indices, range) and indices.step == 1 and len(indices) >= size):
        return None
    return range(indices.start // size, (indices.stop - 1) // size + 1)


def _block_sums(indices, lookups) -> list[int]:
    """For each non-negative index of a list or range, the sum over all its
    digit blocks, from the lowest, of table[block] * scale (block * scale
    with no table), given one (size, table, scale) per block.  A range that
    :func:`_runs` takes is one slice of the lowest block's entries per run
    plus the run's high part's sum over the blocks above (this function on
    the range of high parts), into an output allocated first, so a range
    past memory fails at once."""
    (size, table, scale), above = lookups[0], lookups[1:]
    highs = _runs(indices, size) if above else None
    if highs:
        sums, at = [0] * len(indices), 0
        for high, shared in zip(highs, _block_sums(highs, above)):
            lo, hi = max(indices.start - high * size, 0), min(indices.stop - high * size, size)
            run = table[lo:hi] if table else range(lo, hi)
            if scale != 1:
                run = [scale * x for x in run]
            sums[at : at + hi - lo] = [shared + x for x in run]
            at += hi - lo
        return sums
    sums, rest = None, indices
    for i, (size, table, scale) in enumerate(lookups):
        values = rest  # the last block is what the ones below leave
        if i + 1 < len(lookups):
            values, rest = [n % size for n in rest], [n // size for n in rest]
        values = [table[d] for d in values] if table else list(values)
        if scale != 1:
            values = [scale * x for x in values]
        sums = values if sums is None else [a + b for a, b in zip(sums, values)]
    return sums
