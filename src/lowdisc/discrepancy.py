"""Exact extreme and star discrepancy of finite point multisets.

All values are exact rationals.  Suprema over half-open boxes are realized
symbolically: every candidate wall carries a closed/open attainment flag
standing for a one-sided limit, so no numeric epsilon ever appears.  Witness
boxes are reported so each value can be re-checked independently: ``recount``
takes every input that ``discrepancy``, the only evaluator, takes: a batch
of coordinates, Points, rows of exact coordinates or 1D scalars, all read
and checked by ``generators._as_batch``, as ``check_net``'s points are.

The evaluator reads one integer form of the batch: per axis a denominator
D, the sorted distinct coordinates times D and each point's rank among them,
plus the weights.  For s >= 2 the weighted ranks fill one prefix-count array.
The sides of the leading s - 1 axes are enumerated as rows, and along the
last axis each row's best side comes from a running minimum, the
maximum-subarray scan: the work is rows times (distinct last coordinates +
1) scan cells.  The form and the scan are written twice over the same
integers: on numpy arrays (``_integer_form``, ``_BoxKernel``) and on Python
ints (``_int_form``, ``_IntKernel``, ``_scalar_1d``) for multisets too small
to repay importing numpy.  ``discrepancy`` is the one entry to both: a batch
whose numerators are lists, from ``int_coordinates``, goes to the Python
ints and an array batch to the arrays.  ``_util._on_python_ints`` picks the
route from the number of points alone for converted input (Points, rows,
scalars) and for points given by a spec; ``transformed_discrepancy`` gives it an
index-transformed prefix as its distinct indices and their multiplicities,
and an s >= 2 ``windowed_uniform_discrepancy`` all its shifts.  A 1D window
slides one sorted block over Python ints at every size (``_window_1d``).
Only the winning box is turned back into Fractions.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ._util import BudgetExceededError, _grid_cells, _on_python_ints, multiplicities
from .generators import (
    Axis, SequenceSpec, _as_arrays, _as_batch, _int_dtype, coordinates, int_coordinates,
)
from .transforms import IndexTransform, value_counts_below

if TYPE_CHECKING:
    import numpy as np

# Scan cells one s >= 2 evaluation may take: `disc --spec halton:2,3 --N 300`
# scans 27.2 million.
DEFAULT_CELL_BUDGET = 1 << 25


class BoxSide(NamedTuple):
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


class Box(NamedTuple):
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


class DiscrepancyReport(NamedTuple):
    n: int
    value: Fraction
    witness: Box | None
    method: str
    shift: int | None = None

    def __float__(self):
        return float(self.value)


def recount(points, box: Box, counts=None) -> Fraction:
    """|A(box)/N - vol(box)| recomputed from scratch (witness verification),
    from any points that ``discrepancy`` takes."""
    batch = _as_batch(points)
    counts, n = multiplicities(counts, len(batch[0].nums))
    weights = itertools.repeat(1) if counts is None else counts
    columns = ([Fraction(int(x), axis.base**axis.width) for x in axis.nums] for axis in batch)
    inside = sum(c for pt, c in zip(zip(*columns), weights) if box.contains(pt))
    return abs(Fraction(inside, n) - box.volume())


def _integer_form(batch, counts):
    """Per axis of an array batch (D, values, ranks), then the multiplicities and their total.

    values are the axis's sorted distinct coordinates times D, the least
    common denominator of the axis, and values[ranks[i]] is point i's.
    Zero-weight points stay on the axes as walls.
    """
    import numpy as np
    size = len(batch[0].nums)
    counts, n = multiplicities(counts, size)
    if counts is None:
        counts = np.broadcast_to(np.int64(1), (size,))
    else:
        counts = np.array(counts, dtype=object)  # np.asarray may read ints >= 2**63 as floats
    axes = []
    for axis in batch:  # over the least common denominator, den / gcd(den, *nums)
        den, nums = axis.base**axis.width, axis.nums
        common = math.gcd(den, int(np.gcd.reduce(nums)))
        if common > 1:
            den, nums = den // common, nums // common
        nums = nums.astype(_int_dtype(den), copy=False)
        axes.append((den, *np.unique(nums, return_inverse=True)))
    return axes, counts, n


def _int_form(batch, counts):
    """``_integer_form`` on Python ints, from a batch with list numerators."""
    size = len(batch[0].nums)
    counts, n = multiplicities(counts, size)
    axes = []
    for axis in batch:
        den, nums = axis.base**axis.width, axis.nums
        common = math.gcd(den, *nums)
        if common > 1:
            den, nums = den // common, [x // common for x in nums]
        values = sorted(set(nums))
        rank = {v: i for i, v in enumerate(values)}
        axes.append((den, values, [rank[x] for x in nums]))
    return axes, [1] * size if counts is None else counts, n


# Rows are products of sides on the leading axes.  A side is a tuple
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


_CHUNK_CELLS = 1 << 13


class _BoxKernel:
    """The scan on numpy arrays, over one cumulative count array.

    ``prefix[k_1, ..., k_s]`` is the total weight of the points whose rank on
    every axis a is below k_a, so a row's counts along the last axis are a
    difference of prefix entries taken one leading axis at a time.
    Deviations are the integers ``count * scale - n * prod(lengths)`` over
    the common denominator ``n * scale``, where scale is the product of the
    axis denominators, under the int64-or-exact rule of ``_int_dtype``.
    Each scan returns its first largest deviation and where it is.
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

    def rows(self, family):
        """Chunks of rows in product order: scale times each row's weight
        below every last-axis rank, and n times the product of its sides'
        lengths."""
        import numpy as np
        scaled = self.prefix * self.scale
        arrays = []
        for sides in family:
            starts, ends, lengths, _ = zip(*sides)
            bounds = np.array(starts, dtype=np.intp), np.array(ends, dtype=np.intp)
            arrays.append((*bounds, np.array(lengths, dtype=self.dtype)))
        rest = math.prod(len(a[0]) for a in arrays[1:]) * self.prefix.shape[-1]
        step = max(1, _CHUNK_CELLS // rest)
        for row in range(0, len(family[0]), step):
            counts, volume = scaled, None
            for axis, (starts, ends, lengths) in enumerate(arrays):
                if axis == 0:
                    chunk = slice(row, row + step)
                    starts, ends, lengths = starts[chunk], ends[chunk], lengths[chunk]
                counts = counts.take(ends, axis=axis) - counts.take(starts, axis=axis)
                volume = lengths if volume is None else np.multiply.outer(volume, lengths)
            yield counts.reshape(-1, counts.shape[-1]), volume.reshape(-1) * self.n

    def _scan(self, family, deviations):
        """First largest entry over the rows' deviation chunks, with its
        (row, column) and whatever `deviations` reports for them."""
        best = where = None
        offset = 0
        for scaled, nl in self.rows(family):
            dev, locate = deviations(scaled, nl)
            k = int(dev.argmax())
            if best is None or dev.flat[k] > best:
                row, col = divmod(k, dev.shape[1])
                best, where = int(dev.flat[k]), (offset + row, *locate(row, col))
            offset += len(dev)
        return best, where

    def closed(self, family, ints):
        """Closed last-axis sides [y_i, y_j]: (value, (row, i, j))."""
        import numpy as np
        y = np.array(ints, dtype=self.dtype)

        def deviations(scaled, nl):
            volume = np.multiply.outer(nl, y)
            low = scaled[:, :-1] - volume
            dev = scaled[:, 1:] - volume - np.minimum.accumulate(low, axis=1)
            return dev, lambda row, j: (int(low[row, : j + 1].argmin()), j)

        return self._scan(family, deviations)

    def opened(self, family, den, ints):
        """Open last-axis sides: (value, (row, l, h)) for walls l of [0] + ints, h of ints + [D]."""
        import numpy as np
        first = int(ints[0] == 0)
        lows = np.array([0] + ints, dtype=self.dtype)
        highs = np.array(ints + [den], dtype=self.dtype)

        def deviations(scaled, nl):
            below = np.concatenate((scaled[:, first : first + 1], scaled[:, 1:]), axis=1)
            low = np.multiply.outer(nl, lows) - below
            dev = np.multiply.outer(nl, highs) - scaled - np.minimum.accumulate(low, axis=1)

            def locate(row, h):
                return int(low[row, : first + h + 1].argmin()), first + h

            return dev[:, first:], locate

        return self._scan(family, deviations)

    def star(self, closed, opened, den, ints):
        """Anchored corners: (value, (row, j, limit)), limit 0 closed and 1 open."""
        import numpy as np
        u = len(ints)
        ends = np.append(np.arange(1, u + 1), u)
        corners = np.array(ints + [den], dtype=self.dtype)
        best = where = None
        offset = 0
        for (inside, nl), (below, _) in zip(self.rows(closed), self.rows(opened)):
            volume = np.multiply.outer(nl, corners)
            dev = np.stack((inside[:, ends] - volume, volume - below), axis=-1)
            k = int(dev.argmax())
            if best is None or dev.flat[k] > best:
                row, j, limit = (int(i) for i in np.unravel_index(k, dev.shape))
                best, where = int(dev.flat[k]), (offset + row, j, limit)
            offset += len(dev)
        return best, where


def _nested_prefix(axes, counts) -> list:
    """``_BoxKernel.prefix`` as nested lists of Python ints."""
    shape = [len(values) + 1 for _, values, _ in axes]
    strides = [math.prod(shape[a + 1 :]) for a in range(len(shape))]
    flat = [0] * math.prod(shape)
    for weight, *ranks in zip(counts, *(ranks for _, _, ranks in axes)):
        flat[sum((r + 1) * stride for r, stride in zip(ranks, strides))] += weight
    for size, stride in zip(shape, strides):  # cumulative sums, one axis at a time
        block = size * stride
        for first in range(0, len(flat), block):
            if stride == 1:
                flat[first : first + block] = itertools.accumulate(flat[first : first + block])
                continue
            for k in range(first + stride, first + block, stride):
                flat[k : k + stride] = map(operator.add, flat[k : k + stride], flat[k - stride : k])
    for size in reversed(shape[1:]):
        flat = [flat[i : i + size] for i in range(0, len(flat), size)]
    return flat


def _difference(a: list, b: list) -> list:
    if a and isinstance(a[0], list):
        return [_difference(x, y) for x, y in zip(a, b)]
    return list(map(operator.sub, a, b))


class _IntKernel:
    """The scan of ``_BoxKernel`` on Python ints, one row at a time.

    The prefix holds the weights times the scale, and the products of a
    row's length with the last axis's walls are kept per length, which rows
    share often: the lengths are differences of a few grid values.
    """

    def __init__(self, axes, counts, n):
        self.n = n
        self.scale = math.prod(den for den, _, _ in axes)
        self.prefix = _nested_prefix(axes, [c * self.scale for c in counts])
        self.volumes = {}

    def rows(self, family, prefix=None):
        """Per row in product order: scale times its weight below every
        last-axis rank, and n times the product of its sides' lengths."""
        prefix = self.prefix if prefix is None else prefix
        if not family:
            yield prefix, self.n
            return
        for start, end, length, _ in family[0]:
            for scaled, nl in self.rows(family[1:], _difference(prefix[end], prefix[start])):
                yield scaled, nl * length

    def _volume(self, nl: int, ints: list[int]) -> list[int]:
        volume = self.volumes.get(nl)
        if volume is None:
            volume = self.volumes[nl] = list(map(nl.__mul__, ints))
        return volume

    @staticmethod
    def _scan(rows, first: int = 0):
        """First largest high[h] - min(low[:h + 1]) over the rows in order,
        h >= first: (value, (row, l, h)) with l the first smallest low."""
        best = found = None
        for row, (high, low) in enumerate(rows):
            dev = map(operator.sub, high, itertools.accumulate(low, min))
            if first:
                next(dev)
            top = max(dev)
            if best is None or top > best:
                best, found = top, (row, high, low)
        row, high, low = found
        dev = list(map(operator.sub, high, itertools.accumulate(low, min)))
        h = dev.index(best, first)
        return best, (row, low.index(min(low[: h + 1])), h)

    def closed(self, family, ints):
        def rows():
            for scaled, nl in self.rows(family):
                volume = self._volume(nl, ints)
                high = list(map(operator.sub, itertools.islice(scaled, 1, None), volume))
                yield high, list(map(operator.sub, scaled, volume))

        return self._scan(rows())

    def opened(self, family, den, ints):
        first = int(ints[0] == 0)

        def rows():
            for scaled, nl in self.rows(family):
                volume = self._volume(nl, ints)
                low = [-scaled[first]]
                low += map(operator.sub, volume, itertools.islice(scaled, 1, None))
                high = list(map(operator.sub, volume, scaled))
                high.append(nl * den - scaled[-1])
                yield high, low

        return self._scan(rows(), first)

    def star(self, closed, opened, den, ints):
        best = where = None
        rows = zip(self.rows(closed), self.rows(opened))
        for row, ((inside, nl), (below, _)) in enumerate(rows):
            volume = self._volume(nl, ints)
            # the closed corner j counts ranks up to j, the one at 1 every rank
            upper = list(map(operator.sub, itertools.islice(inside, 1, None), volume))
            upper.append(inside[-1] - nl * den)
            lower = list(map(operator.sub, volume, below))
            lower.append(nl * den - below[-1])
            top = max(max(upper), max(lower))
            if best is None or top > best:
                # the closed limit comes first at each corner
                j, limit = min((dev.index(top), limit) for limit, dev in enumerate((upper, lower))
                               if top in dev)
                best, where = top, (row, j, limit)
        return best, where


def _side(den: int, lower, upper, closed_lower: bool, closed_upper: bool) -> BoxSide:
    """A witness side from integer walls over den: the only Fractions built."""
    return BoxSide(Fraction(int(lower), den), Fraction(int(upper), den), closed_lower, closed_upper)


def _witness(family, lead, row: int, closed_lower: bool, closed_upper: bool, last) -> Box:
    """The box of a scanned row: the row's leading sides, then the last
    axis's walls `last` = (den, lower, upper)."""
    sides = []
    for choices, (den, _) in zip(reversed(family), reversed(lead)):
        row, i = divmod(row, len(choices))
        sides.append(_side(den, *choices[i][3], closed_lower, closed_upper))
    return Box((*reversed(sides), _side(*last, closed_lower, closed_upper)))


def _walls(axes) -> list[tuple[int, list[int]]]:
    """Each axis's denominator and distinct values as Python ints."""
    return [(den, v if isinstance(v, list) else v.tolist()) for den, v, _ in axes]


def _extreme_grid(kernel_type, axes, counts, n) -> DiscrepancyReport:
    """Exact sup over half-open boxes, s >= 2, over the critical grid.

    Positive deviations are maximized by boxes shrink-wrapped onto points
    (all walls closed on coordinate values); negative ones by boxes fattened
    until the walls exclude points (all walls open, or resting on 0/1).  For
    each row, a closed last-axis side [y_i, y_j] deviates by A(j) - B(i)
    with A(j) = C(j+1) S - n L y_j and B(i) = C(i) S - n L y_i, where C
    counts the row's weight below each rank, L is the row's length and S the
    scale; so the row's best side is max_j (A(j) - min_{i <= j} B(i)), one
    running minimum.  An open side's valid low walls form a prefix of the
    sorted lows, so the same scan applies.  The witness is the first
    maximizer in product order, (i, j) lexicographic within a row,
    shrink-wrapped boxes first.
    """
    sizes = [len(values) for _, values, _ in axes]
    cells = _grid_cells(sizes, [int(values[0]) == 0 for _, values, _ in axes])
    if cells > DEFAULT_CELL_BUDGET:
        corners = math.prod(u + 1 for u in sizes)
        raise BudgetExceededError(
            f"{cells} scan cells exceed the budget of {DEFAULT_CELL_BUDGET} cells; "
            f"consider the star-discrepancy proxy ({corners} corners)"
        )
    kernel = kernel_type(axes, counts, n)
    *lead, (den, ints) = _walls(axes)
    closed = [_closed_sides(*w) for w in lead]
    best, (row, i, j) = kernel.closed(closed, ints)
    box = _witness(closed, lead, row, True, True, (den, ints[i], ints[j]))
    opened = [_open_sides(*w) for w in lead]
    open_best, (row, low, high) = kernel.opened(opened, den, ints)
    if open_best > best:
        walls = (den, ([0] + ints)[low], (ints + [den])[high])
        best, box = open_best, _witness(opened, lead, row, False, False, walls)
    return DiscrepancyReport(n, Fraction(best, n * kernel.scale), box, "exact-grid")


def _star(kernel_type, axes, counts, n) -> DiscrepancyReport:
    """Sup over anchored boxes [0, b), s >= 2: upper corners on the coordinate
    grid plus 1, in product order, each closed limit before its open one."""
    corners = math.prod(len(values) + 1 for _, values, _ in axes)
    if corners > DEFAULT_CELL_BUDGET:
        raise BudgetExceededError(
            f"{corners} star corners exceed the budget of {DEFAULT_CELL_BUDGET} cells"
        )
    kernel = kernel_type(axes, counts, n)
    *lead, (den, ints) = _walls(axes)
    closed = [_corner_sides(*w, True) for w in lead]
    opened = [_corner_sides(*w, False) for w in lead]
    best, (row, j, limit) = kernel.star(closed, opened, den, ints)
    last = (den, 0, (ints + [den])[j])
    box = _witness(opened if limit else closed, lead, row, True, not limit, last)
    return DiscrepancyReport(n, Fraction(best, n * kernel.scale), box, "star-grid")


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
    """The 1D closed form on the arrays of ``_integer_form``.

    With C_i the weight up to the i-th smallest distinct value y_i, the sup
    over half-open intervals [a, b) is max_i(y_i - C_{i-1}/N) +
    max_i(C_i/N - y_i), and the star discrepancy the larger of the two; the
    witness comes from the first maximum of each.
    """
    kernel = _BoxKernel(axes, counts, n)
    den, values, _ = axes[0]
    cum = kernel.prefix  # cum[i + 1] is the weight up to the i-th axis value
    scaled = values.astype(kernel.dtype, copy=False)
    minus, plus = _deviations_1d(scaled, cum[:-1], cum[1:], den, n)
    first_max = [(int(d.max()), int(d.argmax())) for d in (minus, plus)]  # the first one wins
    return _report_1d(n, den, values, *first_max, mode)


def _scalar_1d(axis: Axis, counts, mode: str) -> DiscrepancyReport:
    """The 1D closed form on Python ints, from an Axis with list numerators:
    the integers and witness of ``_closed_form_1d``."""
    nums, den = axis.nums, axis.base**axis.width
    counts, n = multiplicities(counts, len(nums))
    weights = dict.fromkeys(nums, 0)
    for num, count in zip(nums, itertools.repeat(1) if counts is None else counts):
        weights[num] += count
    values, devs, below = sorted(weights), [], 0
    for y in values:
        devs.append(_deviations_1d(y, below, below + weights[y], den, n))
        below += weights[y]
    minus, plus = zip(*devs)
    first_max = [(max(d), d.index(max(d))) for d in (minus, plus)]
    return _report_1d(n, den, values, *first_max, mode)


def discrepancy(points, counts=None, mode: str = "extreme") -> DiscrepancyReport:
    """Exact "extreme" or "star" discrepancy of a (weighted) point multiset.

    points are a batch of ``Axis`` coordinates, ``Point``s, rows of exact
    coordinates or 1D scalars (Fractions or BRationals); counts are their
    multiplicities.  Every form is read by ``generators._as_batch``, which
    rejects points outside [0, 1)^s, rows of unequal or zero dimension and
    axes of unequal length.  "extreme" is the sup over half-open boxes of
    |A/N - vol|, "star" the sup over anchored boxes [0, b), and star <=
    extreme <= 2^s * star.  1D points take the closed form, the rest the
    star corners or the running-minimum scan of the extreme grid, up to
    DEFAULT_CELL_BUDGET cells.  A batch with list numerators, from
    ``int_coordinates``, is evaluated on Python ints, an array batch on numpy
    arrays, and converted input where ``_on_python_ints`` sends its number of
    points, all to the same report.
    """
    if mode not in ("extreme", "star"):
        raise ValueError(f"unknown mode {mode!r}")
    batch = _as_batch(points)
    if batch is not points and not _on_python_ints(len(batch[0].nums), len(batch), mode):
        batch = _as_arrays(batch)
    if isinstance(batch[0].nums, list):
        if len(batch) == 1:
            return _scalar_1d(batch[0], counts, mode)
        kernel, form = _IntKernel, _int_form(batch, counts)
    else:
        kernel, form = _BoxKernel, _integer_form(batch, counts)
        if len(form[0]) == 1:
            return _closed_form_1d(*form, mode)
    return (_star if mode == "star" else _extreme_grid)(kernel, *form)


def transformed_discrepancy(
    spec: SequenceSpec,
    transform: IndexTransform | None,
    n: int,
    mode: str = "extreme",
) -> DiscrepancyReport:
    """Exact discrepancy of the first n terms of (x_{f(m)})_m.

    Works at large n because only the distinct index values are materialized,
    weighted by their exact multiplicities; small multisets are evaluated on
    Python ints, as ``_on_python_ints`` picks them, to the same report.
    """
    if transform is None:
        indices, counts = range(n), None
    else:
        multiplicity = value_counts_below(transform, n)
        indices, counts = list(multiplicity), list(multiplicity.values())
    kernel = int_coordinates if _on_python_ints(len(indices), spec.dimension, mode) else coordinates
    return discrepancy(kernel(spec, indices), counts, mode)


def _window_1d(axis: Axis, n: int, k_max: int, mode: str) -> tuple[int, Fraction]:
    """First shift with the largest block discrepancy, and that discrepancy,
    from an Axis with list numerators.

    With y_(i) the block's i-th smallest value (from 0), D- is the largest
    minus(i) = n * y_(i) - i * den and D+ is den - the smallest, the integers
    of ``_deviations_1d``.  The sorted block of n * y values is kept in runs
    of `load` = max(32, isqrt(n)) to 2 * load values, with each run's largest
    and smallest minus(i) at its ranks.  A shift inserts one value into a run
    and deletes one from a run, which moves the ranks of the runs between the
    two by one: their extremes move by den, and the two runs are recounted.
    A run past 2 * load values splits in two and an emptied run is dropped,
    so a shift costs the length of two runs plus the number of runs, about
    sqrt(n) each, where the sorted block costs n.
    """
    den = axis.base**axis.width
    scaled = list(map(n.__mul__, axis.nums))
    load = max(32, math.isqrt(n))
    sub = operator.sub
    ramp = range(0, (2 * load + 1) * den, den)  # j * den for each place j in a run
    block, parts = sorted(scaled[:n]), max(1, n // load)
    starts = [i * n // parts for i in range(parts)]  # each run's rank of its first value
    runs = [block[i:j] for i, j in zip(starts, starts[1:] + [n])]
    maxes = [run[-1] for run in runs]
    his, los = [0] * parts, [0] * parts

    def count(i: int) -> None:  # run i's extremes of minus at its ranks
        minus = list(map(sub, runs[i], ramp))
        first = starts[i] * den
        his[i], los[i] = max(minus) - first, min(minus) - first

    def move(lo: int, hi: int, step: int) -> None:  # runs lo..hi - 1 gain step ranks
        starts[lo:hi] = map(step.__add__, starts[lo:hi])
        shift = -step * den
        his[lo:hi] = map(shift.__add__, his[lo:hi])
        los[lo:hi] = map(shift.__add__, los[lo:hi])

    def slide(a: int, b: int, y: int) -> None:  # y leaves run a after a value entered run b
        run = runs[a]
        del run[bisect.bisect_left(run, y)]
        if a < b:
            move(a + 1, b + 1, -1)
        else:
            move(b + 1, a + 1, 1)
        count(b)
        if run:
            maxes[a] = run[-1]
            count(a)
        else:
            for column in (runs, maxes, starts, his, los):
                del column[a]
            b -= a < b
        if len(runs[b]) > 2 * load:  # split in two
            half = runs[b][load:]
            del runs[b][load:]
            for column, value in zip((runs, maxes, starts, his, los),
                                     (half, half[-1], starts[b] + load, 0, 0)):
                column.insert(b + 1, value)
            maxes[b] = runs[b][-1]
            count(b)
            count(b + 1)

    for i in range(len(runs)):
        count(i)
    bisect_left, insort = bisect.bisect_left, bisect.insort
    best = best_k = None
    for k in range(k_max + 1):
        if k:  # insert first, so no block is ever empty
            x, y = scaled[k + n - 1], scaled[k - 1]
            b = bisect_left(maxes, x)
            if b == len(runs):
                b -= 1
                maxes[b] = x
            run = runs[b]
            insort(run, x)
            a = bisect_left(maxes, y)
            if a == b:  # one run changes, and no rank outside it
                del run[bisect_left(run, y)]
                maxes[b] = run[-1]
                count(b)
            else:
                slide(a, b, y)
        high, low = max(his), min(los)
        value = max(high, den - low) if mode == "star" else high - low + den
        if best is None or value > best:
            best, best_k = value, k
            if best == n * den:  # no discrepancy exceeds 1
                break
    return best_k, Fraction(best, n * den)


def windowed_uniform_discrepancy(
    spec: SequenceSpec,
    transform: IndexTransform | None,
    n: int,
    k_max: int,
    mode: str = "extreme",
) -> DiscrepancyReport:
    """Max over shifts 0 <= k <= k_max of the discrepancy of the shifted block.

    This is a certified LOWER estimate of the uniform discrepancy (the true
    sup ranges over all shifts); the first arg-max shift is reported.  The
    (transformed) indices' coordinates come from one kernel call.  A 1D
    sequence takes them from ``int_coordinates`` at every size and has every
    shift evaluated by the sliding 1D closed form (``_window_1d``), and its
    witness from ``discrepancy`` on the winning block, which must agree on
    the value.  For s >= 2 each shift is evaluated on its own, on Python ints
    while ``_on_python_ints`` says all the shifts are cheap enough.
    """
    if n < 1 or k_max < 0:
        raise ValueError("need n >= 1 and k_max >= 0")
    indices = range(k_max + n)
    on_ints = spec.dimension == 1 or _on_python_ints(n, spec.dimension, mode, k_max + 1)
    if transform is not None:  # all indices first: a window past memory fails at once
        indices = list(map(transform.apply, list(indices)))
    window = (int_coordinates if on_ints else coordinates)(spec, indices)

    def block(k: int) -> DiscrepancyReport:
        return discrepancy(tuple(axis.take(slice(k, k + n)) for axis in window), mode=mode)

    if spec.dimension == 1:
        best_k, value = _window_1d(window[0], n, k_max, mode)
        rep = block(best_k)
        if rep.value != value:
            raise AssertionError("windowed closed form disagrees with the block's discrepancy")
    else:
        shifts = ((k, block(k)) for k in range(k_max + 1))
        best_k, rep = max(shifts, key=lambda shift: shift[1].value)  # first maximum
    return DiscrepancyReport(n, rep.value, rep.witness, f"windowed-{mode}", best_k)
