"""Point sequences: van der Corput, Halton, and digital sequences over F_p.

Every point comes from one integer kernel, :func:`coordinates`, which turns a
batch of indices into exact numerator arrays over a common power of each
axis's base.  Exact BRational points are built from them only at the API and
CSV boundaries.  numpy is imported inside the kernels, so parsing a spec
loads none.  The module also certifies (t,m,s)-net properties by counting
points in every elementary interval and checks the generator-matrix rank
condition over F_p.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

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


@dataclass(frozen=True)
class Point:
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


@dataclass(frozen=True)
class VanDerCorput:
    """One-dimensional radical-inverse sequence in a fixed base."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("van der Corput base must be >= 2")

    @property
    def dimension(self) -> int:
        return 1

    def point(self, n: int) -> Point:
        return to_points(coordinates(self, [n]))[0]

    def label(self) -> str:
        return f"vdc:{self.base}"


@dataclass(frozen=True)
class Halton:
    """Coordinate-wise radical inverses in pairwise co-prime bases."""

    bases: tuple[int, ...]

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
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

    @property
    def dimension(self) -> int:
        return len(self.bases)

    def point(self, n: int) -> Point:
        return to_points(coordinates(self, [n]))[0]

    def label(self) -> str:
        return "halton:" + ",".join(str(b) for b in self.bases)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Square generator matrix over F_p, rows indexed from the top.

    The finite size means every column has only finitely many nonzero entries,
    so all generated coordinates stay strictly below 1.
    """

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"matrix modulus must be prime, got {self.p}")
        size = len(self.rows)
        for row in self.rows:
            if len(row) != size:
                raise ValueError("generator matrix must be square")
            for e in row:
                if not 0 <= e < self.p:
                    raise ValueError(f"entry {e} not reduced mod {self.p}")

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class DigitalSequence:
    """Digital sequence over F_p given by one generator matrix per axis.

    Indices must stay below p**precision: digits beyond the matrix width
    would otherwise be dropped silently, so they are rejected instead.
    """

    p: int
    matrices: tuple[GeneratorMatrix, ...]
    precision: int = DEFAULT_DIGITAL_PRECISION

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not _is_prime(self.p):
            raise ValueError(f"digital base must be prime, got {self.p}")
        if not self.matrices:
            raise ValueError("need at least one generator matrix")
        for mat in self.matrices:
            if mat.p != self.p:
                raise ValueError("matrix modulus differs from sequence base")
            if mat.size != self.precision:
                raise ValueError(
                    f"matrix size {mat.size} != precision {self.precision}"
                )

    @property
    def dimension(self) -> int:
        return len(self.matrices)

    def point(self, n: int) -> Point:
        return to_points(coordinates(self, [n]))[0]

    def label(self) -> str:
        return f"digital:{self.p},s={self.dimension},prec={self.precision}"


SequenceSpec = VanDerCorput | Halton | DigitalSequence


class Axis(NamedTuple):
    """One coordinate of a batch of points: the values nums / base**width.

    nums is an int64 array while base**width < 2**62 and an object array of
    exact Python ints beyond.
    """

    base: int
    width: int
    nums: np.ndarray

    def take(self, rows) -> Axis:
        return Axis(self.base, self.width, self.nums[rows])

    def normalized(self) -> tuple[list[int], list[int]]:
        """Numerators and precisions with trailing zero digits dropped (0 is 0/b^0)."""
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
        import numpy as np
        den = self.base**self.width
        if den <= 1 << 53:  # numerators and denominator are exact doubles: one rounding
            return (self.nums.astype(np.float64) / den).tolist()
        return [num / den for num in self.nums.tolist()]  # int true division rounds once


def _index_array(indices) -> np.ndarray:
    """Non-negative integer indices: int64 below 2**62, exact Python ints beyond."""
    import numpy as np
    values = list(indices)
    if not all(map(isinstance, values, itertools.repeat(int))) or min(values, default=0) < 0:
        bad = next(v for v in values if not isinstance(v, int) or v < 0)
        raise ValueError(f"expected a non-negative integer, got {bad!r}")
    return np.array(values, dtype=_int_dtype(max(values, default=0) + 1))


def _radical_inverses(idx: np.ndarray, base: int) -> Axis:
    """The digits of each index mirrored across the radix point, over as many
    digits as the largest index has."""
    import numpy as np
    top = int(idx.max(initial=0))
    width = next(w for w in itertools.count() if base**w > top)
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
    used = next(u for u in itertools.count() if p**u > top)
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


def to_points(batch: tuple[Axis, ...]) -> list[Point]:
    """Exact Points with normalized coordinates from a batch of coordinates."""
    return [Point(coords) for coords in zip(*(axis.brationals() for axis in batch))]


def points(spec: SequenceSpec, count: int, start: int = 0) -> list[Point]:
    return to_points(coordinates(spec, range(start, start + count)))


def _binom_mod(n: int, k: int, p: int) -> int:
    return math.comb(n, k) % p


def pascal_matrices(
    p: int, s: int, precision: int = DEFAULT_DIGITAL_PRECISION
) -> list[GeneratorMatrix]:
    """Powers of the upper-triangular Pascal matrix mod p (Faure construction).

    Matrix j is the (j-1)-th power, so the first one is the identity and the
    resulting digital sequence is a (0,s)-sequence for s <= p.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if s > p:
        raise ValueError(f"the Faure construction needs s <= p (got s={s}, p={p})")
    pascal = [
        [_binom_mod(w, v, p) if w >= v else 0 for w in range(precision)]
        for v in range(precision)
    ]
    power = [[1 if v == w else 0 for w in range(precision)] for v in range(precision)]
    out = []
    for _ in range(s):
        out.append(GeneratorMatrix(p, tuple(tuple(row) for row in power)))
        power = [
            [
                sum(power[v][i] * pascal[i][w] for i in range(v, w + 1)) % p
                for w in range(precision)
            ]
            for v in range(precision)
        ]
    return out


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


def read_points_csv(fh) -> list[tuple[int, Point]]:
    """Read points back, trusting only the exact fields."""
    reader = csv.reader(fh)
    header = next(reader)
    if not header or header[0] != "n":
        raise ValueError("not a point CSV (missing header)")
    out = []
    for row in reader:
        n, dim = int(row[0]), int(row[1])
        coords = []
        for i in range(dim):
            base, prec, num = (int(row[2 + 4 * i + j]) for j in range(3))
            coords.append(BRational(num, base, prec))
        out.append((n, Point(tuple(coords))))
    return out
