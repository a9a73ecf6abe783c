"""Shared plumbing with no third-party import: the scan-budget and
unimodality errors, the base of the validating value types, the verdict
rule, integer roots, the multiset check and the size rule that sends small
inputs to Python ints.  Every command loads this module, so it stays free of numpy."""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

# Points given by a spec and their indices are evaluated on Python ints up
# to SCALAR_1D_CUT indices in 1D and, for s >= 2, up to SCALAR_CELL_CUT scan
# cells; an s >= 2 window of shifts 0..k_max counts (k_max + 1) times one
# shift's cells, and 1D windows slide on Python ints at every size.  2^18
# cells take 0.1-0.16 s there on a 2-core VM, what importing numpy costs a
# fresh process: `disc --spec halton:2,3` at N = 63, the last N under the
# cut, runs 0.28 s end to end either way.  In 1D, Python ints won 8 of 8
# alternating fresh runs at 2^15 indices (`disc` on vdc:2, vdc:3, star mode,
# pascal:3,1: 0.08-0.10 s, arrays 0.13-0.15 s) and 7 of 8 on weighted
# pow:1/2 values; at 2^16 that weighted case lost 7 of 8 (0.19 against 0.18 s).
SCALAR_1D_CUT = 1 << 15
SCALAR_CELL_CUT = 1 << 18
# A net check takes a block's coordinates once and counts its points once per
# shape along each axis, so its work is size * (1 + shapes * s).  On Python
# ints that costs 0.3-0.55 us a unit on the same VM, on arrays 0.13-0.15 us
# after numpy's 0.07 s import: they break even near 200,000 units.  One
# `pascal:3,2` block of 3^9 points is 413,343 of them (0.23 s on lists
# against 0.12 s), one of 3^8 is 124,659 (0.05 s against 0.08 s).  A check
# of many levels picks one backend for all of them, by their summed work.
NET_CUT = 200_000
UPPER_SLACK = 1e-9  # relative and absolute slack of a float side of every verdict


class BudgetExceededError(RuntimeError):
    """An exhaustive scan or enumeration would exceed its evaluation budget."""


class UnimodalityError(RuntimeError):
    """A bound hypothesis failed: the block-count profile at some level is not unimodal."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"block counts at level j={level} are not unimodal")


class Value:
    """Base of the value types that validate their input.

    A subclass's ``__init__`` checks its arguments and stores them with
    ``_set``, in field order.  The fields are read-only; two values are equal,
    and hash alike, when they have one type and equal fields; the repr is
    ``Type(field=value, ...)``.
    """

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


def _at_most(x, y) -> bool:
    if x is None or y is None:
        return True
    if not (isinstance(x, float) or isinstance(y, float)):
        return x <= y
    return float(x) <= float(y) * (1 + UPPER_SLACK) + UPPER_SLACK


def bound_holds(lower, measured, upper) -> bool:
    """lower <= measured <= upper: the one rule behind every "holds" verdict.

    Exact sides (anything but a float: ints, Fractions) compare with zero
    tolerance; a float side gets the relative and absolute slack
    UPPER_SLACK.  A None side is not checked, and a NaN side fails.
    """
    return _at_most(lower, measured) and _at_most(measured, upper)


def int_nth_root(x: int, r: int) -> int:
    """Largest integer g with g**r <= x, exact for arbitrary-precision x."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    if x.bit_length() <= r:  # x < 2**r: the root is 1, and g**(r-1) below would be huge
        return 1
    # Newton's step from an integer g > y = x^(1/r) lands in [floor(y), g): it is
    # floor(((r-1)g + x/g^(r-1))/r), >= floor(y) by AM-GM, and < g as g^r > x.
    # So the loop stops at floor(y) (Brent, Zimmermann, Modern Computer Arithmetic, 1.5).
    g = 1 << -(-x.bit_length() // r)  # >= true root
    while True:
        ng = ((r - 1) * g + x // g ** (r - 1)) // r
        if ng >= g:
            return g
        g = ng


def multiplicities(counts, size: int) -> tuple[list[int] | None, int]:
    """The multiplicities of `size` points, None for one each, and their total."""
    if counts is not None:
        counts = list(map(operator.index, counts))
        if len(counts) != size:
            raise ValueError("one multiplicity per point")
        if any(c < 0 for c in counts):
            raise ValueError("multiplicities must be non-negative")
    n = size if counts is None else sum(counts)
    if not size or n < 1:
        raise ValueError("empty point multiset")
    return counts, n


def _grid_cells(sizes: Sequence[int], at_zero: Sequence[bool]) -> int:
    """Scan cells of the extreme grid: its rows, the closed and the open
    products of leading-axis sides, times the last axis's distinct values
    plus one, the entries each row's scan reads.

    sizes are the distinct coordinates per axis, and at_zero tells whether an
    axis's smallest one is 0, whose wall is then no new open side.
    """
    *lead, last = sizes
    closed = math.prod(u * (u + 1) // 2 for u in lead)
    opened = math.prod(u * (u + 3) // 2 + 1 - z for u, z in zip(lead, at_zero))
    return (closed + opened) * (last + 1)


def _on_python_ints(size: int, s: int, mode: str, blocks: int = 1) -> bool:
    """Whether `blocks` multisets of `size` points in dimension s are cheaper
    on Python ints than numpy's import; for s >= 2 the work is counted in
    scan cells for `size` distinct values per axis, an upper bound."""
    if s == 1:
        return blocks * size <= SCALAR_1D_CUT
    if mode == "star":
        cells = (size + 1) ** s
    else:
        cells = _grid_cells([size] * s, [False] * s)
    return blocks * cells <= SCALAR_CELL_CUT


def _net_on_python_ints(s: int, levels: Iterable[tuple[int, int]], blocks: int = 1) -> bool:
    """Whether net checks in dimension s of `blocks` blocks at each level,
    given as (points, depth) pairs, are cheaper on Python ints than numpy's
    import.  The elementary intervals of volume b^-depth come in one shape
    per composition of depth into s parts.  Levels are read only until the
    work passes NET_CUT."""
    work = 0
    for size, depth in levels:
        work += blocks * size * (1 + math.comb(depth + s - 1, s - 1) * s)
        if work > NET_CUT:
            return False
    return True
