"""Point sequences: van der Corput, Halton, and digital sequences over F_p.

Every point comes from one integer kernel, :func:`coordinates`, which turns a
batch of indices into exact numerator arrays over a common power of each
axis's base.  Exact BRational points are built from them only at the API and
CSV boundaries.  numpy is imported inside the kernels, so parsing a spec
loads none, and :func:`int_coordinates` gives the same Axis batch with its
numerators as Python lists, for batches too small to repay that import.
The module also certifies (t,m,s)-net properties by counting points in every
elementary interval and checks the generator-matrix rank condition over F_p.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ._util import Value
from .digits import BRational

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

    @property
    def dimension(self) -> int:
        return len(self.coords)

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


class VanDerCorput(Value):
    """One-dimensional radical-inverse sequence in a fixed base."""

    def __init__(self, base: int):
        if base < 2:
            raise ValueError("van der Corput base must be >= 2")
        self._set(base=base)

    @property
    def dimension(self) -> int:
        return 1

    def point(self, n: int) -> Point:
        return to_points(coordinates(self, [n]))[0]


class Halton(Value):
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

    def point(self, n: int) -> Point:
        return to_points(coordinates(self, [n]))[0]


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


class DigitalSequence(Value):
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

    def point(self, n: int) -> Point:
        return to_points(coordinates(self, [n]))[0]


SequenceSpec = VanDerCorput | Halton | DigitalSequence


class Axis(NamedTuple):
    """One coordinate of a batch of points: the values nums / base**width.

    From :func:`coordinates`, nums is an int64 array while base**width < 2**62
    and an object array of exact Python ints beyond; from
    :func:`int_coordinates` it is a list of Python ints.
    """

    base: int
    width: int
    nums: np.ndarray | list[int]

    def take(self, rows) -> Axis:
        """The points at rows: a slice, or for arrays any numpy index."""
        return Axis(self.base, self.width, self.nums[rows])

    def normalized(self) -> tuple[list[int], list[int]]:
        """Numerators and precisions with trailing zero digits dropped (0 is 0/b^0)."""
        if isinstance(self.nums, list):
            nums, precs = [], []
            for num in self.nums:
                prec = self.width if num else 0
                while num and num % self.base == 0:
                    num //= self.base
                    prec -= 1
                nums.append(num)
                precs.append(prec)
            return nums, precs
        import numpy as np
        nums = self.nums.copy()
        precs = np.full(len(nums), self.width, dtype=np.int64)
        live = nums != 0
        precs[~live] = 0
        while True:
            strip = live & (nums % self.base == 0)
            if not strip.any():
                return nums.tolist(), precs.tolist()
            nums[strip] //= self.base
            precs[strip] -= 1

    def brationals(self) -> list[BRational]:
        nums, precs = self.normalized()
        return [BRational(num, self.base, prec) for num, prec in zip(nums, precs)]

    def floats(self) -> list[float]:
        """Each value correctly rounded, as float(Fraction) rounds it."""
        den, nums = self.base**self.width, self.nums
        if not isinstance(nums, list):
            if den <= 1 << 53:  # numerators and denominator are exact doubles: one rounding
                return (nums.astype(float) / den).tolist()
            nums = nums.tolist()
        return [num / den for num in nums]  # int true division rounds once


def _checked_indices(indices) -> list[int]:
    """The indices as a list, each a non-negative int."""
    values = list(indices)
    if not all(map(isinstance, values, itertools.repeat(int))) or min(values, default=0) < 0:
        bad = next(v for v in values if not isinstance(v, int) or v < 0)
        raise ValueError(f"expected a non-negative integer, got {bad!r}")
    return values


def _index_array(indices) -> np.ndarray:
    """Non-negative integer indices: int64 below 2**62, exact Python ints beyond."""
    import numpy as np
    if isinstance(indices, range):  # built in place: no list of 10**7 ints
        ends = (indices[0], indices[-1]) if indices else (0, 0)  # a range is monotone
        if min(ends) < 0:
            bad = next(v for v in indices if v < 0)
            raise ValueError(f"expected a non-negative integer, got {bad!r}")
        dtype = _int_dtype(max(ends) + 1)
        return np.arange(indices.start, indices.stop, indices.step, dtype=dtype)
    values = _checked_indices(indices)
    return np.array(values, dtype=_int_dtype(max(values, default=0) + 1))


def _radical_inverses(idx: np.ndarray, base: int) -> Axis:
    """The digits of each index mirrored across the radix point, over as many
    digits as the largest index has."""
    import numpy as np
    top = int(idx.max(initial=0))
    width = _digits_used(base, top)
    rem = idx.copy()
    nums = np.zeros(len(idx), dtype=_int_dtype(base**width))
    for _ in range(width):  # in place: one temporary array at a time
        nums *= base
        nums += rem % base
        rem //= base
    return Axis(base, width, nums)


def _digital_axes(spec: DigitalSequence, idx: np.ndarray) -> tuple[Axis, ...]:
    """Digit vectors times each generator matrix over F_p, read as base-p digits."""
    import numpy as np
    p, width = spec.p, spec.precision
    top = int(idx.max(initial=0))
    if top >= p**width:
        raise ValueError(
            f"index {top} needs more than {width} base-{p} digits; raise the precision"
        )
    # Each entry of the product sums width terms c*d with c, d < p, so it is
    # below width*(p-1)**2.  With p**width < 2**62 and width >= 2 that is below
    # 2**63, as (p-1)**2 < p**2 <= 2**62 / p**(width-2) <= 2**(64-width) and
    # width * 2**(64-width) <= 2**63; width == 1 has no such bound, so the
    # sums get their own check.  The numerators are below p**width.  Only the
    # `used` digits of the largest index can be nonzero, and sums of
    # used <= width terms obey the same bound.
    sums = np.int64 if width * (p - 1) ** 2 < 1 << 63 else object
    used = _digits_used(p, top)
    rem = idx.copy()
    digits = np.empty((len(idx), used), dtype=sums)
    for r in range(used):
        digits[:, r] = rem % p
        rem //= p
    nums = _int_dtype(p**width)
    place = np.array([p**e for e in range(width - 1, -1, -1)], dtype=nums)
    axes = []
    for mat in spec.matrices:
        matrix = np.array(mat.rows, dtype=sums).reshape(width, width)  # (0, 0) at precision 0
        axes.append(Axis(p, width, (digits @ matrix[:, :used].T % p).astype(nums) @ place))
    return tuple(axes)


def coordinates(spec: SequenceSpec, indices) -> tuple[Axis, ...]:
    """The points x_n for n in indices, one integer Axis per coordinate.

    Van der Corput and Halton axes are radical inverses (digit reversal of
    the index array); a digital sequence multiplies each index's digit vector
    by its generator matrices mod p.  The arithmetic is int64 while the
    common denominator base**width is below 2**62 and exact beyond.
    """
    idx = _index_array(indices)
    if isinstance(spec, DigitalSequence):
        return _digital_axes(spec, idx)
    bases = spec.bases if isinstance(spec, Halton) else (spec.base,)
    return tuple(_radical_inverses(idx, b) for b in bases)


def _digits_used(base: int, top: int) -> int:
    """The number of base-b digits of top (0 for top 0)."""
    return next(w for w in itertools.count() if base**w > top)


def _reversed_digits(indices: list[int], base: int, width: int) -> list[int]:
    """Each index's `width` base-b digits mirrored: its radical inverse times b**width.

    The digits are reversed a block of `chunk` at a time through a table of
    the b**chunk <= 1024 block values, so an index costs a few divisions, not
    one per digit, and each step maps over every index at once.  A block of
    one digit is its own reversal and needs no table, so any base works.
    """
    chunk = 1
    while chunk < width and base ** (chunk + 1) <= 1 << 10:
        chunk += 1
    size, high = base**chunk, base ** (chunk - 1)
    table = None
    if chunk > 1:
        table = [0] * size
        for x in range(1, size):  # x's last digit goes first, then x // b's digits
            table[x] = x % base * high + table[x // base] // base
    blocks = -(-width // chunk)
    nums, rest = [0] * len(indices), indices
    for _ in range(blocks):  # one block of digits of every index at a time
        digits = map(size.__rmod__, rest)
        if table is not None:
            digits = map(table.__getitem__, digits)
        nums = list(map(operator.add, map(size.__mul__, nums), digits))
        rest = list(map(size.__rfloordiv__, rest))
    pad = base ** (blocks * chunk - width)  # the zero digits above the width end up last
    return nums if pad == 1 else list(map(pad.__rfloordiv__, nums))


def int_coordinates(spec: SequenceSpec, indices) -> tuple[Axis, ...]:
    """:func:`coordinates` on Python ints: the same Axis batch with its
    numerators as lists, and the same errors.

    For multisets too small to repay importing numpy.
    """
    idx = _checked_indices(indices)
    top = max(idx, default=0)
    if isinstance(spec, DigitalSequence):
        p, width = spec.p, spec.precision
        if top >= p**width:
            raise ValueError(
                f"index {top} needs more than {width} base-{p} digits; raise the precision"
            )
        used = _digits_used(p, top)
        digits = []
        for n in idx:
            row = []
            for _ in range(used):
                n, d = divmod(n, p)
                row.append(d)
            digits.append(row)
        columns = []
        for mat in spec.matrices:
            # digit v of x_n has weight p**-(v+1); rows zero on the used columns add nothing
            live = [(p ** (width - 1 - v), row[:used]) for v, row in enumerate(mat.rows)
                    if any(row[:used])]
            nums = [sum(w * (sum(map(operator.mul, row, d)) % p) for w, row in live)
                    for d in digits]
            columns.append(Axis(p, width, nums))
        return tuple(columns)
    bases = spec.bases if isinstance(spec, Halton) else (spec.base,)
    widths = [_digits_used(b, top) for b in bases]
    return tuple(Axis(b, w, _reversed_digits(idx, b, w)) for b, w in zip(bases, widths))


def to_points(batch: tuple[Axis, ...]) -> list[Point]:
    """Exact Points with normalized coordinates from a batch of coordinates."""
    return [Point(coords) for coords in zip(*(axis.brationals() for axis in batch))]


def points(spec: SequenceSpec, count: int, start: int = 0) -> list[Point]:
    return to_points(coordinates(spec, range(start, start + count)))


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


def check_net(points: list[Point], b: int, t: int) -> NetCheck:
    """Exhaustively verify the (t,m,s)-net property in base b.

    m comes from the point count b**m and s from the points' dimension.
    Every elementary interval of volume b**(t-m) must contain exactly b**t of
    the points.  Returns the first violating interval on failure (shapes and
    cells in lexicographic order).
    """
    import numpy as np
    if b < 2 or not points:
        raise ValueError(f"need a base b >= 2 and at least one point, got b={b}")
    m = next(m for m in itertools.count() if b**m >= len(points))
    if len(points) != b**m:
        raise ValueError(f"a net in base {b} needs b**m points, got {len(points)}")
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= m")
    if any(pt.dimension != points[0].dimension for pt in points):
        raise ValueError("the points of a net need one dimension")
    axes = []
    for coords in zip(*(pt.coords for pt in points)):
        base, width = coords[0].base, max(c.prec for c in coords)
        if any(c.base != base for c in coords):
            raise ValueError("the points of a net need one base per axis")
        nums = [c.num * base ** (width - c.prec) for c in coords]
        axes.append(Axis(base, width, np.array(nums, dtype=_int_dtype(base**width))))
    return _net_check(tuple(axes), b, t, m)


def _net_check(batch: tuple[Axis, ...], b: int, t: int, m: int) -> NetCheck:
    """Count the batch's points per elementary interval, one shape at a time.

    A point's interval along an axis of resolution b**d is floor(x * b**d),
    an integer division of its numerator; the cells of a shape are numbered
    in lexicographic order, so the first wrong count is the first violation.
    """
    import numpy as np
    expected = b**t
    for shape in _compositions(m - t, len(batch)):
        scales = [b**d for d in shape]
        cells = np.zeros(len(batch[0].nums), dtype=np.int64)
        for axis, scale in zip(batch, scales):
            den = axis.base**axis.width
            nums = axis.nums.astype(_int_dtype(den * scale))
            cells = cells * scale + (nums * scale // den).astype(np.int64)
        counts = np.bincount(cells, minlength=b ** (m - t))
        wrong = np.flatnonzero(counts != expected)
        if len(wrong):
            cell = tuple(int(i) for i in np.unravel_index(wrong[0], scales))
            return NetCheck(False, NetViolation(shape, cell, int(counts[wrong[0]]), expected))
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
    """Check that every aligned block (x_n) for k*b^m <= n < (k+1)*b^m is a net."""
    if t < 0:
        raise ValueError("need t >= 0")
    if b < 2 or k_max < 0 or m_max < t:  # nothing, or only one-point blocks, to check
        raise ValueError(
            f"need base >= 2, k_max >= 0 and m_max >= t; got base {b}, k_max {k_max}, "
            f"m_max {m_max}, t {t}"
        )
    for m in range(t, m_max + 1):
        size = b**m
        for k in range(k_max + 1):
            res = _net_check(coordinates(spec, range(k * size, (k + 1) * size)), b, t, m)
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
        if len(parts) == 2:
            p, s = parts
            precision = DEFAULT_DIGITAL_PRECISION
        elif len(parts) == 3:
            p, s, precision = parts
        else:
            raise ValueError(f"cannot parse digital spec {text!r}")
        return DigitalSequence(p, tuple(pascal_matrices(p, s, precision)), precision)
    raise ValueError(f"unknown sequence spec {text!r}")


def csv_header(dimension: int) -> list[str]:
    cols = ["n", "dim"]
    for i in range(1, dimension + 1):
        cols += [f"base_{i}", f"prec_{i}", f"num_{i}", f"float_{i}"]
    return cols


def _columns(item) -> tuple[list[int], list[list]]:
    """The bases, and the prec, num and float columns per axis, of a Point
    (one row, as stored) or of a batch of coordinates (normalized)."""
    if isinstance(item, Point):
        cols = [[v] for c in item.coords for v in (c.prec, c.num, float(c))]
        return [c.base for c in item.coords], cols
    cols = []
    for axis in item:
        nums, precs = axis.normalized()
        cols += [precs, nums, axis.floats()]
    return [axis.base for axis in item], cols


def write_points_csv(fh, pts: Iterable, start_index: int = 0) -> None:
    """Write points in the exact CSV format as they arrive; float columns are advisory.

    pts yields Points, or batches of coordinates (as from :func:`coordinates`),
    which are written a whole batch at a time, as one string formatted from
    one row template.  Every field is a number, which a CSV writer never
    quotes, so the bytes are those of ``csv.writer`` with "\\n" line endings;
    the float columns hold Python floats, whose %r is their repr.
    """
    n = start_index
    for item in pts:
        bases, cols = _columns(item)
        count = len(cols[0])
        if count and n == start_index:
            fh.write(",".join(csv_header(len(bases))) + "\n")
        line = f"%d,{len(bases)}" + "".join(f",{b},%d,%d,%r" for b in bases) + "\n"
        fh.write("".join(map(line.__mod__, zip(range(n, n + count), *cols))))
        n += count
    if n == start_index:
        raise ValueError("no points to write")
