"""Point sequences: van der Corput, Halton, and digital sequences over F_p.

A batch of points is one Axis per coordinate: exact numerators over a
common power of the axis's base, as Python lists from :func:`int_coordinates`
(radical inverses and digital points alike as ``digits._block_sums`` of
per-block tables of index digits, a range read by runs that share their
high digits) or as numpy arrays from :func:`coordinates`, for the batches that
``_util._on_python_ints`` (for a net check ``_net_on_python_ints``) finds
large enough to repay importing numpy.  A digital sequence's arrays are the
tables' lists, so one kernel applies the generator matrices on every route;
``_as_arrays`` is the one conversion of list numerators to arrays.  numpy is
imported there only, so parsing a spec, one point, :func:`points`, `gen`'s
chunks and 1D windows load none.  BRational points and CSV rows are read
from the lists.  ``_as_batch`` reads every form of points (a batch, Points,
rows of exact coordinates, 1D scalars) as one checked batch, for
``discrepancy``, ``recount`` and :func:`check_net`, which certifies
(t,m,s)-net properties by counting points in every elementary interval.
The module also checks the generator-matrix rank condition over F_p.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ._util import Value, _net_on_python_ints
from .digits import (BRational, _block_sums, _digit_blocks, _digit_count, _fits, _mirror_table,
                     _runs, _top)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_DIGITAL_PRECISION = 32

_INT64_LIMIT = 1 << 62


def _int_dtype(bound: int):
    """int64 for integers below ``bound`` while bound < 2**62, else exact
    Python ints (object arrays).  Below 2**62 even a sum or difference of
    two such integers fits in int64."""
    import numpy as np
    return np.int64 if bound < _INT64_LIMIT else object


class Point(NamedTuple):
    """A point of [0,1)^s with exact coordinates (bases may differ per axis)."""

    coords: tuple[BRational, ...]

    def as_fractions(self):
        return tuple(c.as_fraction() for c in self.coords)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class _Sequence(Value):
    """Base of the sequence specs: one point of the sequence by index."""

    def point(self, n: int) -> Point:
        return to_points(int_coordinates(self, [n]))[0]


class VanDerCorput(_Sequence):
    """One-dimensional radical-inverse sequence in a fixed base."""

    def __init__(self, base: int):
        if base < 2:
            raise ValueError("van der Corput base must be >= 2")
        self._set(base=base)

    @property
    def dimension(self) -> int:
        return 1


class Halton(_Sequence):
    """Coordinate-wise radical inverses in pairwise co-prime bases."""

    def __init__(self, bases: Iterable[int]):
        bases = tuple(bases)
        if not bases:
            raise ValueError("need at least one base")
        for b in bases:
            if b < 2:
                raise ValueError("Halton bases must be >= 2")
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                if math.gcd(bases[i], bases[j]) != 1:
                    raise ValueError(
                        f"Halton bases must be pairwise co-prime; "
                        f"gcd({bases[i]}, {bases[j]}) != 1"
                    )
        self._set(bases=bases)

    @property
    def dimension(self) -> int:
        return len(self.bases)


class GeneratorMatrix(Value):
    """Square generator matrix over F_p, rows indexed from the top.

    The finite size means every column has only finitely many nonzero entries,
    so all generated coordinates stay strictly below 1.
    """

    def __init__(self, p: int, rows: tuple[tuple[int, ...], ...]):
        if not _is_prime(p):
            raise ValueError(f"matrix modulus must be prime, got {p}")
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise ValueError("generator matrix must be square")
            for e in row:
                if not 0 <= e < p:
                    raise ValueError(f"entry {e} not reduced mod {p}")
        self._set(p=p, rows=rows)

    @property
    def size(self) -> int:
        return len(self.rows)


class DigitalSequence(_Sequence):
    """Digital sequence over F_p given by one generator matrix per axis.

    Indices must stay below p**precision: digits beyond the matrix width
    would otherwise be dropped silently, so they are rejected instead.
    """

    def __init__(self, p: int, matrices: Iterable[GeneratorMatrix],
                 precision: int = DEFAULT_DIGITAL_PRECISION):
        matrices = tuple(matrices)
        if not _is_prime(p):
            raise ValueError(f"digital base must be prime, got {p}")
        if not matrices:
            raise ValueError("need at least one generator matrix")
        for mat in matrices:
            if mat.p != p:
                raise ValueError("matrix modulus differs from sequence base")
            if mat.size != precision:
                raise ValueError(f"matrix size {mat.size} != precision {precision}")
        self._set(p=p, matrices=matrices, precision=precision)

    @property
    def dimension(self) -> int:
        return len(self.matrices)


SequenceSpec = VanDerCorput | Halton | DigitalSequence


class Axis(NamedTuple):
    """One coordinate of a batch of points: the values nums / base**width.

    From :func:`coordinates`, nums is an int64 array while base**width < 2**62
    and an object array of exact Python ints beyond; from
    :func:`int_coordinates` it is a list of Python ints.  Exact coordinates
    read by ``_as_batch`` are nums / D with D their least common denominator,
    as base D and width 1 (base 2 and width 0 for D = 1).
    """

    base: int
    width: int
    nums: np.ndarray | list[int]

    def take(self, rows) -> Axis:
        """The points at rows: a slice, or for arrays any numpy index."""
        return Axis(self.base, self.width, self.nums[rows])

    def ints(self) -> list[int]:
        """The numerators as a list of Python ints: the list itself, or the array's."""
        return self.nums if isinstance(self.nums, list) else self.nums.tolist()

    def normalized(self) -> tuple[list[int], list[int]]:
        """Numerators and precisions with trailing zero digits dropped (0 is 0/b^0).

        Since b**z divides b**width for z <= width, a numerator has as many
        trailing zeros as gcd(num, b**width), in any base (0's gcd is b**width
        itself, width zeros).  The zeros that every numerator has, those of
        gcd(b**width, *nums), are dropped from all at once; after them only a
        numerator whose last digit is 0 has digits to drop, and each distinct
        gcd is stripped once.
        """
        nums = list(self.ints())
        base, width = self.base, self.width
        power, shared = _trailing_zeros(math.gcd(base**width, *nums), base, width)
        if shared:
            nums, width = list(map(power.__rfloordiv__, nums)), width - shared
        den, precs, strips = base**width, [width] * len(nums), {}
        ending_in_zero = map(operator.not_, map(base.__rmod__, nums))
        for i in itertools.compress(range(len(nums)), ending_in_zero):
            common = math.gcd(nums[i], den)
            strip = strips.get(common)
            if strip is None:
                strip = strips[common] = _trailing_zeros(common, base, width)
            nums[i], precs[i] = nums[i] // strip[0], width - strip[1]
        return nums, precs

    def brationals(self) -> list[BRational]:
        nums, precs = self.normalized()
        return [BRational(num, self.base, prec) for num, prec in zip(nums, precs)]

    def floats(self) -> list[float]:
        """Each value correctly rounded, as float(Fraction) rounds it."""
        den = self.base**self.width
        return [num / den for num in self.ints()]  # int true division rounds once


def _trailing_zeros(num: int, base: int, width: int) -> tuple[int, int]:
    """(b**z, z) for the z <= width trailing zero digits of num in base b."""
    # b**2**j divides a numerator with z < 2**(j+1) trailing zeros iff
    # z >= 2**j, so the powers from the largest down strip z's binary
    # digits, in any base: O(log width) divisions, not z
    zeros, step = 0, 1 << max(width.bit_length() - 1, 0)
    while step:
        if not num % base**step:
            num, zeros = num // base**step, zeros + step
        step >>= 1
    return base**zeros, zeros


def _as_batch(points) -> tuple[Axis, ...]:
    """Any form of points as one checked batch of coordinates.

    A batch (a tuple of Axis) comes back as it is.  Points, rows of exact
    coordinates and 1D scalars become list numerators, each axis over the
    least common denominator D of its values, as Axis(D, 1, nums) (or
    Axis(2, 0, nums) for D = 1).  Every axis must have an int base >= 2 and
    an int width >= 0 and hold one int numerator per point, every axis of
    one form (lists, or arrays of an integer dtype or of Python ints), and
    each numerator must lie in [0, base**width).
    """
    batch = points
    if not (isinstance(points, tuple) and points and isinstance(points[0], Axis)):
        rows = [pt.coords if isinstance(pt, Point) else pt for pt in points]
        if not any(isinstance(row, (tuple, list)) for row in rows):
            rows = [(x,) for x in rows]
        dims = {len(row) if isinstance(row, (tuple, list)) else "scalar" for row in rows}
        if len(dims) > 1 or 0 in dims:
            raise ValueError(f"the points need one dimension of at least 1, got "
                             f"{sorted(dims, key=str)}")
        columns = [[x.as_fraction() if isinstance(x, BRational) else Fraction(x) for x in column]
                   for column in zip(*rows)]
        dens = [math.lcm(*(x.denominator for x in column)) for column in columns]
        # D = 1, every coordinate 0, is written 2**0: a base is at least 2
        batch = tuple(Axis(max(den, 2), int(den > 1), [x.numerator * (den // x.denominator)
                                                       for x in column])
                      for den, column in zip(dens, columns))
    size = len(batch[0].nums) if batch else 0
    if not size:
        raise ValueError("empty point multiset")
    if len({isinstance(axis.nums, list) for axis in batch}) > 1:
        raise ValueError("a batch needs lists on every axis or arrays on every axis")
    for axis in batch:
        nums, base, width = axis.nums, axis.base, axis.width
        if not (isinstance(base, int) and base >= 2 and isinstance(width, int) and width >= 0):
            raise ValueError(f"an axis needs an int base >= 2 and an int width >= 0, "
                             f"got {base!r}, {width!r}")
        if not (isinstance(nums, list) or hasattr(nums, "dtype")):
            raise ValueError(f"numerators must be a list or a numpy array, got {type(nums)}")
        listed = isinstance(nums, list) or nums.dtype == object
        if listed and not all(map(isinstance, nums, itertools.repeat(int))):
            bad = next(x for x in nums if not isinstance(x, int))
            raise ValueError(f"numerators must be ints, got {bad!r}")
        if not listed and nums.dtype.kind not in "iu":  # no pass over int64 arrays
            raise ValueError(f"numerators must be ints, got an array of {nums.dtype}")
        den = base**width
        if len(nums) != size:
            raise ValueError(f"every axis needs one numerator per point, got {size}, {len(nums)}")
        low, high = (min(nums), max(nums)) if isinstance(nums, list) else (nums.min(), nums.max())
        if low < 0 or high >= den:
            bad = Fraction(int(low if low < 0 else high), den)
            raise ValueError(f"a coordinate {bad} lies outside [0, 1)")
    return batch


def _as_arrays(batch: tuple[Axis, ...]) -> tuple[Axis, ...]:
    """The batch with each list axis as an array: int64 while base**width < 2**62,
    exact Python ints (object) beyond."""
    import numpy as np
    return tuple(
        Axis(axis.base, axis.width, np.array(axis.nums, dtype=_int_dtype(axis.base**axis.width)))
        if isinstance(axis.nums, list) else axis
        for axis in batch
    )


def _checked_indices(indices) -> list[int] | range:
    """The indices as a list, each a non-negative int; a range, being monotone,
    is checked at its two ends and kept."""
    if isinstance(indices, range):
        if indices and min(indices[0], indices[-1]) < 0:  # the first negative one
            first = 0 if indices[0] < 0 else indices[0] // -indices.step + 1
            raise ValueError(f"expected a non-negative integer, got {indices[first]!r}")
        return indices
    values = list(indices)
    if not all(map(isinstance, values, itertools.repeat(int))) or min(values, default=0) < 0:
        bad = next(v for v in values if not isinstance(v, int) or v < 0)
        raise ValueError(f"expected a non-negative integer, got {bad!r}")
    return values


def _index_array(indices) -> np.ndarray:
    """Non-negative integer indices: int64 below 2**62, exact Python ints beyond."""
    import numpy as np
    idx = _checked_indices(indices)
    dtype = _int_dtype(_top(idx) + 1)
    if isinstance(idx, range):  # built in place: no list of 10**7 ints
        return np.arange(idx.start, idx.stop, idx.step, dtype=dtype)
    return np.array(idx, dtype=dtype)


def coordinates(spec: SequenceSpec, indices) -> tuple[Axis, ...]:
    """The points x_n for n in indices, one integer Axis per coordinate.

    Van der Corput and Halton axes are radical inverses, through the tables of
    :func:`int_coordinates`; a digital sequence's are the lists it gives,
    with its errors, converted.  The arrays are int64 while the common
    denominator base**width is below 2**62 and exact Python ints beyond.
    """
    if isinstance(spec, DigitalSequence):
        return _as_arrays(int_coordinates(spec, indices))
    # a step-1 range stays one, for the runs of _radical_inverses
    step_1 = isinstance(indices, range) and indices.step == 1
    idx = _checked_indices(indices) if step_1 else _index_array(indices)
    bases = spec.bases if isinstance(spec, Halton) else (spec.base,)
    widths = [_digit_count(_top(idx), b) for b in bases]
    return tuple(Axis(b, w, _radical_inverses(idx, b, w)) for b, w in zip(bases, widths))


_GROUP_BITS = 12  # a table of output-digit fields holds at most 2**12 entries


@functools.lru_cache(maxsize=64)
def _mirror_lookups(base: int, width: int) -> tuple:
    """The :func:`digits._block_sums` lookups of radical inverses times b**width:
    each block's mirror table (none for a one-digit block in a base too large
    for one) times b**(digits above it), stored scaled while b**width < 2**62.
    Past that, scaled tables would grow with the square of the width."""
    narrow, lookups, scale = base**width < _INT64_LIMIT, [], 1  # scale: b**(digits above)
    for length in reversed(_digit_blocks(base, width)):  # from the top block down
        table = _mirror_table(base, length) if _fits(base, length) else None
        if table and narrow:
            lookups.append((base**length, [x * scale for x in table], 1))
        else:
            lookups.append((base**length, table, scale))
        scale *= base**length
    return tuple(reversed(lookups))


def _radical_inverses(idx, base: int, width: int) -> np.ndarray:
    """:func:`digits._block_sums` of :func:`_mirror_lookups` on an index array
    or a step-1 range, with the same blocks and runs: int64 numerators while
    b**width < 2**62, exact Python ints beyond.  A block is read by
    ``np.take`` from its table, or is its digits, times its scale."""
    import numpy as np
    dtype = _int_dtype(base**width)

    def sums(idx, lookups):
        (size, table, scale), above = lookups[0], lookups[1:]
        highs = _runs(idx, size) if above else None
        if highs:  # the runs are the rows of one outer sum, ravelled and sliced to the range
            first, low = idx.start - highs.start * size, sums(np.arange(size), lookups[:1])
            return np.add.outer(sums(highs, above), low).ravel()[first : first + len(idx)]
        total, rest = 0, _index_array(idx) if isinstance(idx, range) else idx
        for i, (size, table, scale) in enumerate(lookups):
            digits = rest
            if i + 1 < len(lookups):
                digits, rest = rest % size, rest // size
            values = np.take(table, digits.astype(np.int64, copy=False)) if table else digits
            total = total + values.astype(dtype, copy=False) * scale
        return total

    return sums(idx, _mirror_lookups(base, width))


def _reduce_fields(bits: int, count: int, p: int):
    """x -> x with each of its `count` bits-wide fields below 2p reduced mod p.

    Adding 2**(bits-1) - p to a field x <= 2p - 2 sets its top bit exactly
    when x >= p and carries into no other field, given 2**(bits-1) >= p; the
    fields so marked lose p each.
    """
    ones = sum(1 << bits * f for f in range(count))
    bias, top = ((1 << bits - 1) - p) * ones, ones << bits - 1
    return lambda x: x - ((x + bias & top) >> bits - 1) * p


@functools.lru_cache(maxsize=64)
def _field_digits(p: int, bits: int, group: int) -> list[int]:
    """u -> sum_i (field i of u mod p) * p**i over `group` bits-wide fields."""
    table, mask = [0], (1 << bits) - 1
    for u in range(1, 1 << bits * group):
        table.append((u & mask) % p + p * table[u >> bits])
    return table


@functools.lru_cache(maxsize=64)
def _digital_kernel(mat: GeneratorMatrix, used: int):
    """The numerators over p**width of mat applied to index lists below p**used.

    Output digit v of index n is sum_r rows[v][r] * digit_r(n) mod p, weight
    p**(width-1-v).  The digits are packed into one integer, digit v in the
    bits-wide field last - v, for the rows from the first to the last one
    that the used columns reach.  The index digits are read in the blocks of
    :func:`_digit_blocks`, each through a table of its values' packed
    digits, reduced mod p; ``_block_sums`` sums the blocks' entries, and each
    group of fields is reduced mod p and read as base-p digits by one shared
    table.  A base too large for a table takes one digit per block, times its
    packed column, and reduces each field with one division.  Built once per
    matrix and digit count.
    """
    p, width = mat.p, mat.size
    live = [v for v in range(width) if any(mat.rows[v][:used])]
    if not live:
        return lambda idx: [0] * len(idx)
    first, last = live[0], live[-1]
    fields = last - first + 1
    lengths = _digit_blocks(p, used)
    tabulated = _fits(p, lengths[0])
    if tabulated:  # summed fields stay below blocks * p, and reduction needs 2**(bits-1) >= p
        bits = max((len(lengths) * (p - 1)).bit_length(), p.bit_length() + 1)
        reduce = _reduce_fields(bits, fields, p)
    else:  # unreduced sums of used products below p**2
        bits = (used * (p - 1) ** 2).bit_length()

    def column(r: int) -> int:
        return sum(mat.rows[v][r] << bits * (last - v) for v in range(first, last + 1))

    lookups = []  # per block of index digits, from the lowest: size, table, scale
    for start, length in zip(itertools.accumulate(lengths, initial=0), lengths):
        if not tabulated:  # entry e is e times the packed column
            lookups.append((p, None, column(start)))
            continue
        table = [0]
        for r in range(start, start + length):  # entry e * p**j + t adds e times column r to t
            col, multiples = column(r), [0]
            for _ in range(p - 1):
                multiples.append(reduce(multiples[-1] + col))
            table = [reduce(t + m) for m in multiples for t in table]
        lookups.append((p**length, table, 1))
    group = _GROUP_BITS // bits
    convert = _field_digits(p, bits, group).__getitem__ if group else p.__rmod__
    group = max(group, 1)
    groups = [  # shift, mask (0 for the top group) and place value of each group
        (bits * f, (1 << bits * group) - 1 if f + group < fields else 0,
         p ** (width - 1 - last + f))
        for f in range(0, fields, group)
    ]

    def numerators(idx) -> list[int]:
        packed, nums = _block_sums(idx, lookups), None
        for shift, mask, place in groups:
            values = map(shift.__rrshift__, packed) if shift else packed
            values = map(convert, map(mask.__and__, values) if mask else values)
            if place != 1:
                values = map(place.__mul__, values)
            nums = list(values) if nums is None else list(map(operator.add, nums, values))
        return nums

    return numerators


def int_coordinates(spec: SequenceSpec, indices) -> tuple[Axis, ...]:
    """:func:`coordinates` on Python ints: the same Axis batch with its
    numerators as lists, and the same errors.

    For multisets too small to repay importing numpy, for one point, for
    :func:`points`, and for streams and windows, which take a bounded batch
    at a time.  A digital sequence's arrays are converted from these lists.
    """
    idx = _checked_indices(indices)
    top = _top(idx)
    if isinstance(spec, DigitalSequence):
        p, width = spec.p, spec.precision
        if top >= p**width:
            raise ValueError(f"index {top} needs more than {width} base-{p} digits; "
                             "raise the precision")
        used = _digit_count(top, p)
        return tuple(Axis(p, width, _digital_kernel(mat, used)(idx)) for mat in spec.matrices)
    bases = spec.bases if isinstance(spec, Halton) else (spec.base,)
    widths = [_digit_count(top, b) for b in bases]
    return tuple(Axis(b, w, _block_sums(idx, _mirror_lookups(b, w))) for b, w in zip(bases, widths))


def to_points(batch: tuple[Axis, ...]) -> list[Point]:
    """Exact Points with normalized coordinates from a batch of coordinates."""
    return [Point(coords) for coords in zip(*(axis.brationals() for axis in batch))]


def points(spec: SequenceSpec, count: int, start: int = 0) -> list[Point]:
    return to_points(int_coordinates(spec, range(start, start + count)))


def pascal_matrices(
    p: int, s: int, precision: int = DEFAULT_DIGITAL_PRECISION
) -> list[GeneratorMatrix]:
    """Powers of the upper-triangular Pascal matrix mod p (Faure construction).

    Matrix j is the (j-1)-th power, so the first one is the identity and the
    resulting digital sequence is a (0,s)-sequence for s <= p.  The a-th
    power has entry C(w, v) * a^(w - v) mod p at (v, w) for w >= v, and 0
    below the diagonal.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if s > p:
        raise ValueError(f"the Faure construction needs s <= p (got s={s}, p={p})")
    return [
        GeneratorMatrix(p, tuple(
            tuple(math.comb(w, v) * pow(a, w - v, p) % p if w >= v else 0 for w in range(precision))
            for v in range(precision)
        ))
        for a in range(s)
    ]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(e * inv) % p for e in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(e - f * g) % p for e, g in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def check_rank_condition(
    matrices: Iterable[GeneratorMatrix], t: int, m: int
) -> bool:
    """True iff all stacked row prefixes (d_1+...+d_s = m-t) have rank m-t."""
    matrices = list(matrices)
    p = matrices[0].p
    precision = matrices[0].size
    if m < t:
        raise ValueError("need m >= t")
    if m > precision:
        raise ValueError(f"depth m={m} exceeds matrix precision {precision}")
    if m == t:
        return True
    for comp in _compositions(m - t, len(matrices)):
        rows = []
        for mat, d in zip(matrices, comp):
            rows.extend(list(mat.rows[i][:m]) for i in range(d))
        if _rank_mod_p(rows, p) != m - t:
            return False
    return True


class NetViolation(NamedTuple):
    """First elementary interval with the wrong point count."""

    shape: tuple[int, ...]  # resolution exponents d_i
    cell: tuple[int, ...]  # interval indices a_i
    count: int
    expected: int


class NetCheck(NamedTuple):
    ok: bool
    violation: NetViolation | None

    def __bool__(self) -> bool:
        return self.ok


def check_net(points, b: int, t: int) -> NetCheck:
    """Exhaustively verify the (t,m,s)-net property in base b.

    points take any form that ``discrepancy`` takes: a batch of coordinates,
    Points, rows of exact coordinates or 1D scalars.  m comes from the point
    count b**m and s from the points' dimension.  Every elementary interval
    of volume b**(t-m) must contain exactly b**t of the points.  Returns the
    first violating interval on failure (shapes and cells in lexicographic
    order).  A point's interval is counted from its exact value, whatever
    the base of its coordinates.  The points are counted on Python ints
    while ``_net_on_python_ints`` finds them cheap enough, else on arrays.
    """
    batch = _as_batch(points)
    size = len(batch[0].nums)
    if b < 2:
        raise ValueError(f"need a base b >= 2 and at least one point, got b={b}")
    m = _digit_count(size - 1, b)  # the least m with b**m >= size
    if size != b**m:
        raise ValueError(f"a net in base {b} needs b**m points, got {size}")
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= m")
    if not _net_on_python_ints(len(batch), [(size, m - t)]):
        batch = _as_arrays(batch)
    return _net_check(batch, b, t, m)


def _first_wrong_cell(batch: tuple[Axis, ...], scales: list[int], expected: int):
    """The first cell, in lexicographic order, that does not hold `expected`
    of the batch's points, as (flat index, count); None if every cell does.

    A point's interval along an axis of resolution b**d is floor(x * b**d),
    an integer division of its numerator.  A batch with list numerators is
    counted on Python ints, any other on numpy arrays.
    """
    if isinstance(batch[0].nums, list):
        cells = None
        for axis, scale in zip(batch, scales):
            den = axis.base**axis.width
            along = map(den.__rfloordiv__, map(scale.__mul__, axis.nums))
            cells = list(along) if cells is None else list(
                map(operator.add, map(scale.__mul__, cells), along))
        counts = collections.Counter(cells)
        wrong = next((i for i in range(math.prod(scales)) if counts[i] != expected), None)
        return None if wrong is None else (wrong, counts[wrong])
    import numpy as np
    cells = np.zeros(len(batch[0].nums), dtype=np.int64)
    for axis, scale in zip(batch, scales):
        den = axis.base**axis.width
        nums = axis.nums.astype(_int_dtype(den * scale))
        cells = cells * scale + (nums * scale // den).astype(np.int64)
    counts = np.bincount(cells, minlength=math.prod(scales))
    wrong = np.flatnonzero(counts != expected)
    return (int(wrong[0]), int(counts[wrong[0]])) if len(wrong) else None


def _net_check(batch: tuple[Axis, ...], b: int, t: int, m: int) -> NetCheck:
    """Count the batch's points per elementary interval, one shape at a time;
    the first wrong count is the first violation."""
    expected = b**t
    for shape in _compositions(m - t, len(batch)):
        scales = [b**d for d in shape]
        wrong = _first_wrong_cell(batch, scales, expected)
        if wrong is not None:
            flat, count = wrong
            cell = []
            for scale in reversed(scales):
                flat, i = divmod(flat, scale)
                cell.append(i)
            return NetCheck(False, NetViolation(shape, tuple(reversed(cell)), count, expected))
    return NetCheck(True, None)


class SequencePropertyCheck(NamedTuple):
    ok: bool
    failed_m: int | None
    failed_block: int | None
    violation: NetViolation | None

    def __bool__(self) -> bool:
        return self.ok


def check_sequence_property(
    spec: SequenceSpec, b: int, t: int, k_max: int, m_max: int
) -> SequencePropertyCheck:
    """Check that every aligned block (x_n) for k*b^m <= n < (k+1)*b^m is a net.

    The blocks of every level are counted on Python ints if
    ``_net_on_python_ints`` finds them all cheap enough, else on arrays.
    """
    if t < 0:
        raise ValueError("need t >= 0")
    if b < 2 or k_max < 0 or m_max < t:  # nothing, or only one-point blocks, to check
        raise ValueError(
            f"need base >= 2, k_max >= 0 and m_max >= t; got base {b}, k_max {k_max}, "
            f"m_max {m_max}, t {t}"
        )
    levels = ((b**m, m - t) for m in range(t, m_max + 1))
    on_ints = _net_on_python_ints(spec.dimension, levels, k_max + 1)
    kernel = int_coordinates if on_ints else coordinates
    for m in range(t, m_max + 1):
        size = b**m
        for k in range(k_max + 1):
            res = _net_check(kernel(spec, range(k * size, (k + 1) * size)), b, t, m)
            if not res.ok:
                return SequencePropertyCheck(False, m, k, res.violation)
    return SequencePropertyCheck(True, None, None, None)


def parse_spec(text: str) -> SequenceSpec:
    """Parse compact sequence descriptions: vdc:B, halton:B1,B2,..., pascal:P,S[,PREC]."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "vdc":
        return VanDerCorput(int(rest))
    if kind == "halton":
        return Halton(tuple(int(b) for b in rest.split(",")))
    if kind == "pascal":
        parts = [int(x) for x in rest.split(",")]
        if len(parts) not in (2, 3):
            raise ValueError(f"cannot parse digital spec {text!r}")
        p, s, precision = (*parts, DEFAULT_DIGITAL_PRECISION)[:3]
        return DigitalSequence(p, tuple(pascal_matrices(p, s, precision)), precision)
    raise ValueError(f"unknown sequence spec {text!r}")


def csv_header(dimension: int) -> list[str]:
    cols = ["n", "dim"]
    for i in range(1, dimension + 1):
        cols += [f"base_{i}", f"prec_{i}", f"num_{i}", f"float_{i}"]
    return cols


def write_points_csv(fh, batches: Iterable[tuple[Axis, ...]], start_index: int = 0) -> None:
    """Write points in the exact CSV format as they arrive; float columns are advisory.

    batches yields batches of coordinates (as from :func:`int_coordinates`),
    each written normalized, a whole batch at a time, as one string: the
    row template repeated once per point, formatted by one ``%`` over the
    batch's fields, row by row.  Every field is a number, which a CSV
    writer never quotes, so the bytes are those of ``csv.writer`` with
    "\\n" line endings; the float columns hold Python floats, whose %r is
    their repr.
    """
    n = start_index
    for batch in batches:
        cols = []
        for axis in batch:
            nums, precs = axis.normalized()
            cols += [precs, nums, axis.floats()]
        count = len(cols[0])
        if count and n == start_index:
            fh.write(",".join(csv_header(len(batch))) + "\n")
        line = f"%d,{len(batch)}" + "".join(f",{axis.base},%d,%d,%r" for axis in batch) + "\n"
        fields = itertools.chain.from_iterable(zip(range(n, n + count), *cols))
        fh.write(line * count % tuple(fields))
        n += count
    if n == start_index:
        raise ValueError("no points to write")
