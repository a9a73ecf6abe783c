"""Point sequences: van der Corput, Halton, and digital sequences over F_p.

Coordinates are exact BRational values throughout.  The module also certifies
(t,m,s)-net properties by exhaustive enumeration of elementary intervals and
checks the generator-matrix rank condition over F_p.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .digits import BRational, expand, radical_inverse

DEFAULT_DIGITAL_PRECISION = 32


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
        return Point((radical_inverse(n, self.base),))

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
        return Point(tuple(radical_inverse(n, b) for b in self.bases))

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
        if n >= self.p**self.precision:
            raise ValueError(
                f"index {n} needs more than {self.precision} base-{self.p} "
                "digits; raise the precision"
            )
        digs = list(expand(n, self.p).digits)
        digs += [0] * (self.precision - len(digs))
        coords = []
        for mat in self.matrices:
            num = 0
            for row in mat.rows:
                y = sum(c * d for c, d in zip(row, digs) if d) % self.p
                num = num * self.p + y
            coords.append(BRational(num, self.p, self.precision).normalized())
        return Point(tuple(coords))

    def label(self) -> str:
        return f"digital:{self.p},s={self.dimension},prec={self.precision}"


SequenceSpec = VanDerCorput | Halton | DigitalSequence


def points(spec: SequenceSpec, count: int, start: int = 0) -> list[Point]:
    return [spec.point(n) for n in range(start, start + count)]


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


def check_net(points: list[Point], b: int, t: int, m: int, s: int) -> NetCheck:
    """Exhaustively verify the (t,m,s)-net property in base b.

    Every elementary interval of volume b**(t-m) must contain exactly b**t of
    the points.  Returns the first violating interval on failure (shapes and
    cells in lexicographic order).
    """
    if len(points) != b**m:
        raise ValueError(f"a (t,m,s)-net in base {b} needs exactly {b**m} points")
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= m")
    expected = b**t
    for shape in _compositions(m - t, s):
        scales = [b**d for d in shape]
        counts: dict[tuple[int, ...], int] = {}
        for pt in points:
            if pt.dimension != s:
                raise ValueError("point dimension does not match s")
            key = tuple(
                (c.num * scale) // c.base**c.prec
                for c, scale in zip(pt.coords, scales)
            )
            counts[key] = counts.get(key, 0) + 1
        if any(v != expected for v in counts.values()) or len(counts) != b ** (
            m - t
        ):
            for cell in _compositions_cells(scales):
                got = counts.get(cell, 0)
                if got != expected:
                    return NetCheck(False, NetViolation(shape, cell, got, expected))
    return NetCheck(True, None)


def _compositions_cells(scales: list[int]) -> Iterator[tuple[int, ...]]:
    """Lexicographic cell indices of the grid prod(range(scale))."""
    if not scales:
        yield ()
        return
    for head in range(scales[0]):
        for tail in _compositions_cells(scales[1:]):
            yield (head,) + tail


class SequencePropertyCheck(NamedTuple):
    ok: bool
    failed_m: int | None
    failed_block: int | None
    violation: NetViolation | None

    def __bool__(self) -> bool:
        return self.ok


def check_sequence_property(
    spec: SequenceSpec, b: int, t: int, s: int, k_max: int, m_max: int
) -> SequencePropertyCheck:
    """Check that every aligned block (x_n) for k*b^m <= n < (k+1)*b^m is a net."""
    if spec.dimension != s:
        raise ValueError("spec dimension does not match s")
    for m in range(t, m_max + 1):
        size = b**m
        for k in range(k_max + 1):
            block = [spec.point(n) for n in range(k * size, (k + 1) * size)]
            res = check_net(block, b, t, m, s)
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


def write_points_csv(fh, pts: Iterable[Point], start_index: int = 0) -> None:
    """Write points in the exact CSV format as they arrive; float columns are advisory."""
    pts = iter(pts)
    first = next(pts, None)
    if first is None:
        raise ValueError("no points to write")
    dim = first.dimension
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(csv_header(dim))
    for offset, pt in enumerate(itertools.chain([first], pts)):
        row: list = [start_index + offset, dim]
        for c in pt.coords:
            row += [c.base, c.prec, c.num, repr(float(c))]
        writer.writerow(row)


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
