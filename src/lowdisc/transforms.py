"""Index transforms f: N0 -> N0 and their counting statistics.

Supported transforms: the q-ary sum-of-digits function, floor(n^(u/v)) for a
rational exponent 0 < u/v < 1 (kept rational so everything stays exact), and
explicit non-decreasing tables.  The value counts of f(0), ..., f(n-1) come
from one prefix histogram, value_counts_below: a digit dynamic program for
digit sums, exact ceilings for floor powers, a scan only for tables.
"""

from __future__ import annotations

import collections
import math
from typing import Iterable, Sequence

from ._util import Value, int_nth_root
from .digits import _block_sums, _digit_count, _digit_sum_lookups, _top, sum_of_digits

# FloorPower forms n**u and k**v before it takes a root.  Cube roots set the
# limit: one takes 0.03 s at 2^16 bits and 0.46 s at 2^18 on a 2-core VM, the
# slowest of orders 2, 3, 4, 5 and 7 (a square root is math.isqrt, 0.02 s at
# 2^18).  A larger power is refused.
POWER_BITS = 1 << 16


def _power(x: int, e: int) -> int:
    if x > 1 and (x.bit_length() - 1) * e > POWER_BITS:
        raise OverflowError(f"{x}**{e} has more than {POWER_BITS} bits")
    return x**e


class SumOfDigits(Value):
    """f(n) = s_q(n).  Every value is attained infinitely often."""

    def __init__(self, q: int):
        if q < 2:
            raise ValueError("digit-sum base must be >= 2")
        self._set(q=q)

    def apply(self, n: int) -> int:
        return sum_of_digits(n, self.q)

    @property
    def monotone(self) -> bool:
        return False


class FloorPower(Value):
    """f(n) = floor(n**(u/v)) with 0 < u < v and gcd(u, v) = 1.

    Evaluated by exact integer root bracketing k**v <= n**u < (k+1)**v; no
    floating point anywhere.  A power past POWER_BITS bits raises
    OverflowError.  Irrational exponents must be approximated by a rational
    by the caller.
    """

    def __init__(self, u: int, v: int):
        if not (0 < u < v):
            raise ValueError("need 0 < u < v so that 0 < alpha < 1")
        if math.gcd(u, v) != 1:
            raise ValueError("u/v must be in lowest terms")
        self._set(u=u, v=v)

    def apply(self, n: int) -> int:
        if n < 0:
            raise ValueError("index must be non-negative")
        if n == 0:
            return 0
        return int_nth_root(_power(n, self.u), self.v)

    def inverse_ceil(self, k: int) -> int:
        """Smallest integer n with n**u >= k**v, i.e. ceil(k**(v/u))."""
        if k < 0:
            raise ValueError("k must be non-negative")
        target = _power(k, self.v)
        r = int_nth_root(target, self.u)
        return r if r**self.u == target else r + 1

    @property
    def monotone(self) -> bool:
        return True


class TableTransform(Value):
    """Explicit non-decreasing map on 0..n_max."""

    def __init__(self, values: Iterable[int]):
        values = tuple(values)
        if not values:
            raise ValueError("table must not be empty")
        for a, b in zip(values, values[1:]):
            if b < a:
                raise ValueError("table transform must be non-decreasing")
        self._set(values=values)

    def apply(self, n: int) -> int:
        if not 0 <= n < len(self.values):
            raise ValueError(f"index {n} outside table range 0..{len(self.values)-1}")
        return self.values[n]

    @property
    def monotone(self) -> bool:
        return True


IndexTransform = SumOfDigits | FloorPower | TableTransform


def _apply_all(transform: IndexTransform, indices) -> list[int]:
    """f(n) for each n of a range or a list of non-negative ints: digit sums
    as the block sums of per-block digit-sum tables, any other transform by
    its apply, on the indices listed first (so a batch past memory fails
    before any value is formed)."""
    if isinstance(transform, SumOfDigits):
        q = transform.q
        return _block_sums(indices, _digit_sum_lookups(q, _digit_count(_top(indices), q)))
    return list(map(transform.apply, list(indices)))


def multiplicity_F(transform: IndexTransform, k: int) -> int:
    """Number of indices n with f(n) = k, for monotone transforms.

    For FloorPower this is the exact ceiling difference
    ceil((k+1)**(v/u)) - ceil(k**(v/u)).
    """
    if isinstance(transform, SumOfDigits):
        raise ValueError("multiplicity is infinite for the sum-of-digits transform")
    if isinstance(transform, FloorPower):
        if k < 0:
            raise ValueError("k must be >= f(0) = 0")
        return transform.inverse_ceil(k + 1) - transform.inverse_ceil(k)
    return sum(1 for v in transform.values if v == k)


def is_unimodal(counts: Sequence[int]) -> bool:
    """True iff the successive differences change sign at most once."""
    descending = False
    for a, b in zip(counts, counts[1:]):
        if b > a and descending:
            return False
        if b < a:
            descending = True
    return True


def value_counts_below(transform: IndexTransform, n: int) -> dict[int, int]:
    """Multiplicities of f(0), ..., f(n-1), computed without scanning when possible.

    Sum-of-digits uses an exact digit dynamic program, FloorPower uses exact
    ceilings, tables are scanned.  This is what makes desk-scale discrepancy
    of index-transformed sequences cheap: the number of distinct values is
    tiny compared to n.
    """
    if n <= 0:
        return {}
    if isinstance(transform, SumOfDigits):
        from .digitsum_dist import digit_sum_counts_below

        return dict(enumerate(digit_sum_counts_below(transform.q, n)))
    if isinstance(transform, FloorPower):
        # f steps by at most 1 (u < v), so every k up to the top has a count; inverse_ceil(k + 1)
        # < n below the top value, and at the top it may be too large to form
        out = {}
        lo, top = 0, transform.apply(n - 1)  # lo = inverse_ceil(0)
        for k in range(top + 1):
            hi = n if k == top else transform.inverse_ceil(k + 1)
            out[k] = hi - lo
            lo = hi
        return out
    return dict(sorted(collections.Counter(_apply_all(transform, range(n))).items()))


def parse_transform(text: str) -> IndexTransform:
    """Parse transform specs: JSON objects or the compact sod:Q / pow:U/V forms."""
    text = text.strip()
    if text.startswith("{"):
        import json  # only a JSON spec needs the parser

        cfg = json.loads(text)
        kind = cfg.get("kind")

        def field(key: str, kind_of: type = int):  # a JSON integer (not a bool), or a string
            value = cfg.get(key)  # None if missing
            if type(value) is not kind_of:
                raise ValueError(f"transform {kind!r} needs the key {key!r} as "
                                 f"{'an integer' if kind_of is int else 'a string'}, got {value!r}")
            return value

        if kind == "sod":
            return SumOfDigits(field("q"))
        if kind == "pow":
            return FloorPower(field("u"), field("v"))
        if kind == "table":
            with open(field("path", str)) as fh:
                values = tuple(int(line) for line in fh if line.strip())
            return TableTransform(values)
        raise ValueError(f"unknown transform kind {kind!r}")
    kind, _, rest = text.partition(":")
    kind = kind.lower()
    if kind == "sod":
        return SumOfDigits(int(rest))
    if kind == "pow":
        u, _, v = rest.replace(",", "/").partition("/")
        return FloorPower(int(u), int(v))
    raise ValueError(f"cannot parse transform {text!r}")
