"""Exact extreme and star discrepancy of finite point multisets.

All values are exact rationals.  Suprema over half-open boxes are realized
symbolically: every candidate wall carries a closed/open attainment flag
standing for a one-sided limit, so no numeric epsilon ever appears.  Witness
boxes are reported so each value can be re-checked independently.

The numpy evaluators read one integer form of their input, built once per
call by ``_integer_form``: per axis a denominator D, the sorted distinct
coordinates times D and each point's rank among them, plus the weights as an
array.  A tuple of kernel ``Axis`` columns goes straight in; Point, Fraction
and BRational inputs are validated and converted.  Only the winning box is
turned back into Fractions.  numpy is imported inside the kernels, and
``_scalar_1d`` is the 1D closed form on Python ints for multisets too small
to repay that import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ._util import BudgetExceededError, as_fraction
from .generators import Axis, Point, SequenceSpec, _int_dtype, coordinates
from .transforms import IndexTransform

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BOX_BUDGET = 1 << 24


@dataclass(frozen=True)
class BoxSide:
    """One axis of a witness box; closed flags mark which walls touch points."""

    lower: Fraction
    upper: Fraction
    closed_lower: bool
    closed_upper: bool

    def admits(self, x: Fraction) -> bool:
        above = x > self.lower or (self.closed_lower and x == self.lower)
        below = x < self.upper or (self.closed_upper and x == self.upper)
        return above and below

    def __str__(self):
        lb = "[" if self.closed_lower else "("
        rb = "]" if self.closed_upper else ")"
        return f"{lb}{self.lower},{self.upper}{rb}"


@dataclass(frozen=True)
class Box:
    sides: tuple[BoxSide, ...]

    def volume(self) -> Fraction:
        vol = Fraction(1)
        for side in self.sides:
            vol *= side.upper - side.lower
        return vol

    def contains(self, coords: Sequence[Fraction]) -> bool:
        return all(side.admits(x) for side, x in zip(self.sides, coords))

    def __str__(self):
        return "x".join(str(s) for s in self.sides)


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    value: Fraction
    witness: Box | None
    method: str
    shift: int | None = None

    def __float__(self):
        return float(self.value)


def _coerce_points(points) -> list[tuple[Fraction, ...]]:
    out = []
    for pt in points:
        if isinstance(pt, Point):
            out.append(pt.as_fractions())
        elif isinstance(pt, (tuple, list)):
            out.append(tuple(as_fraction(c) for c in pt))
        else:
            out.append((as_fraction(pt),))
    return out


def recount(points, box: Box, counts=None) -> Fraction:
    """|A(box)/N - vol(box)| recomputed from scratch (witness verification)."""
    pts = _coerce_points(points)
    if counts is None:
        counts = [1] * len(pts)
    n = sum(counts)
    inside = sum(c for pt, c in zip(pts, counts) if box.contains(pt))
    return abs(Fraction(inside, n) - box.volume())


def _reduced(den: int, nums: np.ndarray) -> tuple[int, np.ndarray]:
    """nums / den over their least common denominator, den / gcd(den, *nums)."""
    import numpy as np
    common = math.gcd(den, int(np.gcd.reduce(nums)))
    if common > 1:
        den, nums = den // common, nums // common
    return den, nums.astype(_int_dtype(den), copy=False)


def _integer_form(points, counts):
    """Per axis (D, values, ranks), then the multiplicities and their total.

    values are the axis's sorted distinct coordinates times D, the least
    common denominator of the axis, and values[ranks[i]] is point i's.
    Zero-weight points stay on the axes as walls.
    """
    import numpy as np
    batch = isinstance(points, tuple) and bool(points) and isinstance(points[0], Axis)
    pts = None if batch else _coerce_points(points)
    size = len(points[0].nums) if batch else len(pts)
    if counts is None:
        counts, n = np.broadcast_to(np.int64(1), (size,)), size
    else:
        counts = np.array(counts, dtype=object)  # np.asarray may read ints >= 2**63 as floats
        if (counts < 0).any():
            raise ValueError("multiplicities must be non-negative")
        n = int(counts.sum())
    if not size or n < 1:
        raise ValueError("empty point multiset")
    if batch:
        columns = [(axis.base**axis.width, axis.nums) for axis in points]
    else:
        for pt in pts:
            if not all(0 <= x < 1 for x in pt):
                raise ValueError(f"point {pt} outside [0, 1)^s")
        columns = []
        for col in zip(*pts):
            den = math.lcm(*{x.denominator for x in col})
            nums = [x.numerator * (den // x.denominator) for x in col]
            columns.append((den, np.array(nums, dtype=_int_dtype(den))))
    axes = []
    for den, nums in columns:
        den, nums = _reduced(den, nums)
        axes.append((den, *np.unique(nums, return_inverse=True)))
    return axes, counts, n


# Candidate boxes are products of per-axis sides.  A side is a tuple
# (start, end, length, walls): the points inside it are those whose
# coordinate rank r on that axis has start <= r < end, and the length and
# the two walls are integers over the axis denominator D.


def _closed_sides(den: int, ints: list[int]) -> list[tuple]:
    """Shrink-wrapped sides [ints[i], ints[j]] for i <= j."""
    pairs = itertools.combinations_with_replacement(range(len(ints)), 2)
    return [(i, j + 1, ints[j] - ints[i], (ints[i], ints[j])) for i, j in pairs]


def _open_sides(den: int, ints: list[int]) -> list[tuple]:
    """Fattened sides (lo, hi) with lo in [0] + ints, hi in ints + [D], lo < hi."""
    # walls are strict: the wall at 0 excludes a coordinate 0 (rank 0), and
    # ints[0] == 0 then repeats that wall as its own (lo, hi) candidates
    lows = [(1 if ints[0] == 0 else 0, 0)] + [(i + 1, v) for i, v in enumerate(ints)]
    highs = list(enumerate(ints)) + [(len(ints), den)]
    return [(start, end, hv - lv, (lv, hv)) for start, lv in lows for end, hv in highs if lv < hv]


def _corner_sides(den: int, ints: list[int], closed: bool) -> list[tuple]:
    """Anchored sides [0, c] (closed) or [0, c) for corners c in ints + [D]."""
    sides = [(0, j + 1 if closed else j, v, (0, v)) for j, v in enumerate(ints)]
    sides.append((0, len(ints), den, (0, den)))
    return sides


def _open_side_count(values: np.ndarray) -> int:
    """len(_open_sides(den, values)), without building the sides (budget checks)."""
    u = len(values)
    return u * (u + 1) // 2 + u + 1 - (int(values[0]) == 0)


_CHUNK_CELLS = 1 << 13


class _BoxKernel:
    """Exact box deviations from one cumulative count array.

    ``prefix[k_1, ..., k_s]`` is the total weight of the points whose rank on
    every axis a is below k_a, so a box's count is a difference of prefix
    entries taken one axis at a time.  Deviations are the integers
    ``count * scale - n * prod(lengths)`` over the common denominator
    ``n * scale``, where scale is the product of the axis denominators,
    under the int64-or-exact rule of ``_int_dtype``.
    """

    def __init__(self, axes, counts, n):
        import numpy as np
        self.n = n
        self.scale = math.prod(den for den, _, _ in axes)
        self.dtype = _int_dtype(n * self.scale)
        prefix = np.zeros([len(values) + 1 for _, values, _ in axes], dtype=self.dtype)
        # a point of ranks r adds its weight at prefix[r + 1], here through a view
        cells = prefix[(slice(1, None),) * len(axes)]
        ranks = tuple(ranks for _, _, ranks in axes)
        np.add.at(cells, ranks, counts.astype(self.dtype, copy=False))
        for axis in range(prefix.ndim):
            np.cumsum(prefix, axis=axis, out=prefix)
        self.prefix = prefix

    def excess(self, family, negate: bool = False):
        """Deviation chunks, first axis outermost, for one attainment family.

        Closed boxes deviate by count/n - volume; open ones, the negation.
        """
        import numpy as np
        arrays = []
        for sides in family:
            starts, ends, lengths, _ = zip(*sides)
            bounds = np.array(starts, dtype=np.intp), np.array(ends, dtype=np.intp)
            arrays.append((*bounds, np.array(lengths, dtype=self.dtype)))
        rest = math.prod(max(len(a[0]), self.prefix.shape[i]) for i, a in enumerate(arrays) if i)
        step = max(1, _CHUNK_CELLS // rest)
        for row in range(0, len(family[0]), step):
            dev = self._chunk(arrays, slice(row, row + step))
            yield -dev if negate else dev

    def _chunk(self, arrays, rows):
        counts = self.prefix
        volume = None
        shape = [1] * counts.ndim
        for axis, (starts, ends, lengths) in enumerate(arrays):
            if axis == 0:
                starts, ends, lengths = starts[rows], ends[rows], lengths[rows]
            counts = counts.take(ends, axis=axis) - counts.take(starts, axis=axis)
            shape[axis] = len(lengths)
            lengths = lengths.reshape(shape)
            shape[axis] = 1
            volume = lengths if volume is None else volume * lengths
        return counts * self.scale - self.n * volume

    def value(self, best: int) -> Fraction:
        return Fraction(best, self.n * self.scale)


def _first_max(chunks) -> tuple[int, int]:
    """Largest entry over chunks in order and its flat index (first one wins)."""
    best = where = None
    offset = 0
    for chunk in chunks:
        i = int(chunk.argmax())
        if best is None or chunk.flat[i] > best:
            best, where = int(chunk.flat[i]), offset + i
        offset += chunk.size
    return best, where


def _side(den: int, lower, upper, closed_lower: bool, closed_upper: bool) -> BoxSide:
    """A witness side from integer walls over den: the only Fractions built."""
    return BoxSide(Fraction(int(lower), den), Fraction(int(upper), den), closed_lower, closed_upper)


def _witness(family, axes, where: int, closed_lower: bool, closed_upper: bool) -> Box:
    import numpy as np
    index = np.unravel_index(where, [len(sides) for sides in family])
    walls = [(den, sides[i][3]) for sides, (den, _, _), i in zip(family, axes, index)]
    return Box(tuple(_side(den, *w, closed_lower, closed_upper) for den, w in walls))


def _deviations_1d(values, below, at, den: int, n: int):
    """Integer D- and D+ deviations at sorted 1D values, over n * den.

    values are the coordinates y times den, below and at the weights
    strictly below and up to each of them: y - below/n and at/n - y, scaled.
    A value repeated along the last axis has its largest D- at its first
    copy and its largest D+ at its last, as if merged into one weighted value.
    """
    return n * values - below * den, at * den - n * values


def _report_1d(n: int, den: int, values, minus, plus, mode: str) -> DiscrepancyReport:
    """The 1D report from the first maxima (d, i) of D- and D+ over sorted values."""
    (d_minus, i_minus), (d_plus, i_plus) = minus, plus
    if mode == "star":
        # D- before D+ at each value, so a tie reports [0, y) before [0, y]
        closed = (d_plus, -i_plus) > (d_minus, -i_minus)
        side = _side(den, 0, values[i_plus if closed else i_minus], True, closed)
        best = max(d_minus, d_plus)
        return DiscrepancyReport(n, Fraction(best, n * den), Box((side,)), "star-1d")
    if i_minus <= i_plus:
        side = _side(den, values[i_minus], values[i_plus], True, True)
    else:
        side = _side(den, values[i_plus], values[i_minus], False, False)
    return DiscrepancyReport(n, Fraction(d_minus + d_plus, n * den), Box((side,)), "exact-1d")


def _closed_form_1d(axes, counts, n, mode: str) -> DiscrepancyReport:
    """The 1D closed form on the arrays of ``_integer_form``."""
    if len(axes) != 1:
        raise ValueError("the 1D closed form needs one-dimensional points")
    kernel = _BoxKernel(axes, counts, n)
    den, values, _ = axes[0]
    cum = kernel.prefix  # cum[i + 1] is the weight up to the i-th axis value
    scaled = values.astype(kernel.dtype, copy=False)
    minus, plus = _deviations_1d(scaled, cum[:-1], cum[1:], den, n)
    return _report_1d(n, den, values, _first_max([minus]), _first_max([plus]), mode)


def _scalar_1d(nums, den: int, counts, mode: str) -> DiscrepancyReport:
    """``discrepancy`` of the 1D multiset nums / den on Python ints: the same
    integers, witnesses and errors; counts None weighs every value 1."""
    if mode not in ("extreme", "star"):
        raise ValueError(f"unknown mode {mode!r}")
    weights = dict.fromkeys(nums, 0)
    for num, count in zip(nums, [1] * len(nums) if counts is None else counts):
        if count < 0:
            raise ValueError("multiplicities must be non-negative")
        weights[num] += count
    n = sum(weights.values())
    if n < 1:
        raise ValueError("empty point multiset")
    values, devs, below = sorted(weights), [], 0
    for y in values:
        devs.append(_deviations_1d(y, below, below + weights[y], den, n))
        below += weights[y]
    minus, plus = zip(*devs)
    first_max = [(max(d), d.index(max(d))) for d in (minus, plus)]
    return _report_1d(n, den, values, *first_max, mode)


def _extreme_grid(axes, counts, n, budget: int = DEFAULT_BOX_BUDGET) -> DiscrepancyReport:
    boxes = math.prod(len(values) * (len(values) + 1) // 2 for _, values, _ in axes)
    boxes += math.prod(_open_side_count(values) for _, values, _ in axes)
    if boxes > budget:
        corners = math.prod(len(values) + 1 for _, values, _ in axes)
        raise BudgetExceededError(
            f"{boxes} candidate boxes exceed the budget of {budget} boxes; "
            f"consider the star-discrepancy proxy ({corners} corners)"
        )
    kernel = _BoxKernel(axes, counts, n)
    walls = [(den, values.tolist()) for den, values, _ in axes]
    closed = [_closed_sides(*w) for w in walls]
    best, where = _first_max(kernel.excess(closed))
    box = _witness(closed, axes, where, True, True)
    opened = [_open_sides(*w) for w in walls]
    open_best, open_where = _first_max(kernel.excess(opened, negate=True))
    if open_best > best:
        best, box = open_best, _witness(opened, axes, open_where, False, False)
    return DiscrepancyReport(n, kernel.value(best), box, "exact-grid")


def _star(axes, counts, n, budget: int = DEFAULT_BOX_BUDGET) -> DiscrepancyReport:
    if len(axes) == 1:
        return _closed_form_1d(axes, counts, n, "star")
    import numpy as np
    corners = math.prod(len(values) + 1 for _, values, _ in axes)
    if corners > budget:
        raise BudgetExceededError(f"{corners} star corners exceed the budget of {budget} corners")
    kernel = _BoxKernel(axes, counts, n)
    walls = [(den, values.tolist()) for den, values, _ in axes]
    closed = [_corner_sides(*w, True) for w in walls]
    opened = [_corner_sides(*w, False) for w in walls]
    limits = zip(kernel.excess(closed), kernel.excess(opened, negate=True))
    best, where = _first_max(np.stack(pair, axis=-1) for pair in limits)
    corner, limit = divmod(where, 2)
    box = _witness(opened if limit else closed, axes, corner, True, not limit)
    return DiscrepancyReport(n, kernel.value(best), box, "star-grid")


def extreme_discrepancy_1d(points, counts=None) -> DiscrepancyReport:
    """Exact sup over half-open intervals [a, b) of |A/N - (b-a)|.

    Closed form on the sorted multiset: with cumulative counts c_i at the
    distinct values y_i, the value is max_i(c_i/N - y_i) + max_i(y_i -
    c_{i-1}/N), each maximum the first one.  The brute-force interval oracle
    in the test suite checks this exactly.
    """
    return _closed_form_1d(*_integer_form(points, counts), "extreme")


def extreme_discrepancy_grid(points, counts=None, budget=DEFAULT_BOX_BUDGET) -> DiscrepancyReport:
    """Exact sup over half-open boxes by exhaustive critical-grid enumeration.

    Positive deviations are maximized by boxes shrink-wrapped onto points
    (all walls closed on coordinate values); negative ones by boxes fattened
    until the walls exclude points (all walls open, or resting on 0/1).  Both
    attainment families are enumerated, counted by prefix sums in exact
    integer arithmetic; budget is in candidate boxes.  The witness is the
    first maximizer in product order, shrink-wrapped boxes first.
    """
    return _extreme_grid(*_integer_form(points, counts), budget)


def star_discrepancy(points, counts=None, budget=DEFAULT_BOX_BUDGET) -> DiscrepancyReport:
    """Sup over anchored boxes [0, b): the cheap proxy for extreme discrepancy.

    Satisfies star <= extreme <= 2^s * star.  Upper corners run over the
    coordinate grid (plus 1), each evaluated in both attainment limits, the
    closed limit first; budget is in corners.
    """
    return _star(*_integer_form(points, counts), budget)


def discrepancy(points, counts=None, mode: str = "extreme") -> DiscrepancyReport:
    """Exact "extreme" or "star" discrepancy of a (weighted) point multiset.

    The one place that picks the evaluator: the star proxy in any dimension,
    the 1D closed form for extreme discrepancy of 1D points, and the grid
    enumeration otherwise.
    """
    if mode not in ("extreme", "star"):
        raise ValueError(f"unknown mode {mode!r}")
    form = _integer_form(points, counts)
    if len(form[0]) == 1:
        return _closed_form_1d(*form, mode)
    return (_star if mode == "star" else _extreme_grid)(*form)


def _window_1d(axis: Axis, n: int, k_max: int, mode: str) -> tuple[int, Fraction]:
    """First shift with the largest block discrepancy, and that discrepancy.

    The window's numerators over their least common denominator are one
    integer table; each block is a sorted slice of it, whose i-th smallest
    value has i - 1 points below it and i up to it.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view
    den, table = _reduced(axis.base**axis.width, axis.nums)
    dtype = _int_dtype(n * den)
    table = table.astype(dtype, copy=False)
    at = np.arange(1, n + 1).astype(dtype)
    step = max(1, _CHUNK_CELLS // n)

    def block_values(start: int) -> np.ndarray:
        rows = sliding_window_view(table[start : start + step + n - 1], n)
        minus, plus = _deviations_1d(np.sort(rows, axis=1), at - 1, at, den, n)
        if mode == "star":
            return np.maximum(minus, plus).max(axis=1)
        return minus.max(axis=1) + plus.max(axis=1)

    best, best_k = _first_max(block_values(k) for k in range(0, k_max + 1, step))
    return best_k, Fraction(best, n * den)


def windowed_uniform_discrepancy(
    spec: SequenceSpec,
    transform: IndexTransform | None,
    n: int,
    k_max: int | None = None,
    mode: str = "extreme",
) -> DiscrepancyReport:
    """Max over shifts 0 <= k <= k_max of the discrepancy of the shifted block.

    This is a certified LOWER estimate of the uniform discrepancy (the true
    sup ranges over all shifts); the first arg-max shift is reported.  The
    window defaults to k_max = 4n.  The distinct (transformed) indices'
    coordinates come from one kernel call.  A 1D sequence has every shift
    evaluated by the 1D closed form and its witness from ``discrepancy`` on
    the winning block, which must agree on the value; for s >= 2
    ``discrepancy`` evaluates each shift.
    """
    import numpy as np
    if k_max is None:
        k_max = 4 * n
    if n < 1 or k_max < 0:
        raise ValueError("need n >= 1 and k_max >= 0")
    if transform is None:
        window = coordinates(spec, range(k_max + n))
    else:
        values = [transform.apply(i) for i in range(k_max + n)]
        distinct, rows = np.unique(values, return_inverse=True)
        window = tuple(axis.take(rows) for axis in coordinates(spec, distinct.tolist()))

    def block(k: int) -> DiscrepancyReport:
        return discrepancy(tuple(axis.take(slice(k, k + n)) for axis in window), mode=mode)

    if spec.dimension == 1:
        best_k, value = _window_1d(window[0], n, k_max, mode)
        rep = block(best_k)
        if rep.value != value:
            raise AssertionError("windowed closed form disagrees with the block's discrepancy")
    else:
        reports = [block(k) for k in range(k_max + 1)]
        best_k = max(range(k_max + 1), key=lambda k: reports[k].value)  # first maximum
        rep = reports[best_k]
    return DiscrepancyReport(n, rep.value, rep.witness, f"windowed-{mode}", best_k)
