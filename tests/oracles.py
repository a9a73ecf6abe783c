"""Independent brute-force oracles used to pin expected values.

These deliberately share no code with the library paths they check: interval
suprema are enumerated over flagged endpoint candidates (in/out flags stand
for one-sided limits), and counting statistics are recomputed by raw scans.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from fractions import Fraction

import numpy as np


def oracle_extreme_1d(values) -> Fraction:
    """Sup over half-open intervals by enumerating flagged endpoint pairs."""
    pts = sorted(Fraction(v) if not hasattr(v, "as_fraction") else v.as_fraction() for v in values)
    n = len(pts)
    lowers = [Fraction(0)] + pts
    uppers = pts + [Fraction(1)]
    best = Fraction(0)
    for lo in lowers:
        for hi in uppers:
            if hi < lo:
                continue
            vol = hi - lo
            for inc_lo in (True, False):
                for inc_hi in (True, False):
                    cnt = 0
                    for x in pts:
                        ok_lo = x > lo or (inc_lo and x == lo)
                        ok_hi = x < hi or (inc_hi and x == hi)
                        if ok_lo and ok_hi:
                            cnt += 1
                    best = max(best, abs(Fraction(cnt, n) - vol))
    return best


def oracle_extreme_grid(points, grid_den: int) -> Fraction:
    """Sup over boxes with walls on the grid k/grid_den, all flag combinations.

    Valid whenever every coordinate is a multiple of 1/grid_den: the
    deviation is piecewise linear in each wall with breakpoints only at
    coordinates, so grid walls plus in/out flags realize the sup.
    """
    pts = [tuple(c if isinstance(c, Fraction) else c.as_fraction() for c in p) for p in points]
    n = len(pts)
    s = len(pts[0])
    grid = [Fraction(i, grid_den) for i in range(grid_den + 1)]
    for p in pts:
        for c in p:
            assert c.denominator and (c * grid_den).denominator == 1, "point off grid"
    best = Fraction(0)
    walls = [(lo, hi) for lo in grid for hi in grid if lo <= hi]
    for combo in itertools.product(walls, repeat=s):
        vol = Fraction(1)
        for lo, hi in combo:
            vol *= hi - lo
        for flags in itertools.product((True, False), repeat=2 * s):
            cnt = 0
            for p in pts:
                inside = True
                for i, (x, (lo, hi)) in enumerate(zip(p, combo)):
                    inc_lo, inc_hi = flags[2 * i], flags[2 * i + 1]
                    ok_lo = x > lo or (inc_lo and x == lo)
                    ok_hi = x < hi or (inc_hi and x == hi)
                    if not (ok_lo and ok_hi):
                        inside = False
                        break
                if inside:
                    cnt += 1
            best = max(best, abs(Fraction(cnt, n) - vol))
    return best


def oracle_extreme_grid_flagged(points, counts=None) -> Fraction:
    """Sup over boxes with per-dimension flagged walls on {0} u coords u {1}.

    Enumerates every in/out flag combination per wall (a superset of the
    attainment families the library considers), so it would expose a missed
    mixed-attainment optimum.  Each axis lists its distinct candidate sides
    once, as their lengths and the points they admit; a box admits the
    points that all of its sides admit.
    """
    pts = [tuple(c if isinstance(c, Fraction) else c.as_fraction() for c in p) for p in points]
    weights = [1] * len(pts) if counts is None else list(counts)
    n = sum(weights)
    side_cands = []
    for i in range(len(pts[0])):
        ax = sorted({p[i] for p in pts})
        cands = set()
        for lo in [Fraction(0)] + ax:
            for hi in ax + [Fraction(1)]:
                if hi < lo:
                    continue
                for inc_lo in (True, False):
                    for inc_hi in (True, False):
                        inside = frozenset(
                            k for k, p in enumerate(pts)
                            if (p[i] > lo or (inc_lo and p[i] == lo))
                            and (p[i] < hi or (inc_hi and p[i] == hi))
                        )
                        cands.add((hi - lo, inside))
        side_cands.append(cands)
    best = Fraction(0)
    for combo in itertools.product(*side_cands):
        vol = Fraction(1)
        for length, _ in combo:
            vol *= length
        cnt = sum(weights[k] for k in frozenset.intersection(*(inside for _, inside in combo)))
        best = max(best, abs(Fraction(cnt, n) - vol))
    return best


def oracle_star_1d(values) -> Fraction:
    """Sup over anchored intervals [0, b) via flagged upper endpoints."""
    pts = sorted(Fraction(v) if not hasattr(v, "as_fraction") else v.as_fraction() for v in values)
    n = len(pts)
    best = Fraction(0)
    for hi in pts + [Fraction(1)]:
        for inc_hi in (True, False):
            cnt = sum(1 for x in pts if x < hi or (inc_hi and x == hi))
            best = max(best, abs(Fraction(cnt, n) - hi))
    return best


def faure_vdc_discrepancy(b: int, n: int) -> Fraction:
    """D_N = D*_N of the first n >= 1 points of van der Corput's sequence in
    base b, from the base-b digits of n alone (H. Faure, Bull. Soc. Math.
    France 109 (1981), 143-182).

    With phi_h(x) = h (1 - x) if h <= floor(b x) and (b - h) x otherwise, and
    psi_b(x) the largest phi_h(x) over 0 <= h < b, N D_N is the sum of
    psi_b({N / b^j}) over j = 1..J plus N / b^J, J the digit count of N.
    """
    digits, rest = 0, n
    while rest:
        rest //= b
        digits += 1
    total = Fraction(n, b**digits)
    for j in range(1, digits + 1):
        x = Fraction(n % b**j, b**j)
        total += max(h * (1 - x) if h <= math.floor(b * x) else (b - h) * x for h in range(b))
    return total / n


def oracle_window_1d(nums, den: int, n: int, k_max: int, mode: str) -> tuple[int, Fraction]:
    """First shift k <= k_max with the largest discrepancy of the block
    nums[k:k + n] / den, and that discrepancy.

    Every block is sorted on its own, all at once by numpy; the i-th smallest
    value y (from 0) gives the deviations y - i/n and (i+1)/n - y of the
    sorted-points closed form (Niederreiter 1992, §2.1), scaled by n * den.
    """
    dtype = np.int64 if n * den < 2**62 else object
    blocks = np.lib.stride_tricks.sliding_window_view(np.array(nums, dtype=dtype), n)
    rows = np.sort(blocks[: k_max + 1], axis=1)
    ranks = np.arange(n).astype(dtype)
    minus, plus = n * rows - ranks * den, (ranks + 1) * den - n * rows
    if mode == "star":
        values = np.maximum(minus, plus).max(axis=1)
    else:
        values = minus.max(axis=1) + plus.max(axis=1)
    k = int(values.argmax())
    return k, Fraction(int(values[k]), n * den)


def oracle_normalized(base: int, width: int, nums) -> tuple[list[int], list[int]]:
    """Each num / base**width in lowest b-adic terms: the numerator over the
    least power base**prec that the Fraction's denominator divides, and prec."""
    pairs = []
    for num in nums:
        x = Fraction(num, base**width)
        prec = next(p for p in itertools.count() if base**p % x.denominator == 0)
        pairs.append((x.numerator * (base**prec // x.denominator), prec))
    return [num for num, _ in pairs], [prec for _, prec in pairs]


def oracle_digital_point(p: int, matrices, precision: int, n: int) -> tuple:
    """Normalized (num, prec) per axis of point n of a digital sequence.

    The per-point construction the generation kernel replaced: the base-p
    digits of n, least significant first, times each generator matrix one
    row at a time; row v gives the digit of weight p**-(v+1).  ``matrices``
    holds each matrix's rows.
    """
    if n >= p**precision:
        raise ValueError(f"index {n} needs more than {precision} base-{p} digits")
    digs = []
    while n:
        n, d = divmod(n, p)
        digs.append(d)
    digs += [0] * (precision - len(digs))
    coords = []
    for rows in matrices:
        num = 0
        for row in rows:
            num = num * p + sum(c * d for c, d in zip(row, digs) if d) % p
        prec = precision if num else 0
        while num and num % p == 0:
            num //= p
            prec -= 1
        coords.append((num, prec))
    return tuple(coords)


def _oracle_csv_fields(base: int, width: int, num: int) -> tuple:
    """base, prec, num and float of num / base**width with trailing zero digits dropped."""
    prec = width if num else 0
    while num and num % base == 0:
        num //= base
        prec -= 1
    return base, prec, num, float(Fraction(num, base**prec))


def oracle_pascal_matrices(p: int, s: int, precision: int) -> list[tuple]:
    """Rows of the first s powers of the upper-triangular Pascal matrix mod
    p, each the product of the one before it and the Pascal matrix."""
    pascal = [[math.comb(w, v) % p if w >= v else 0 for w in range(precision)]
              for v in range(precision)]
    power = [[int(v == w) for w in range(precision)] for v in range(precision)]
    out = []
    for _ in range(s):
        out.append(tuple(tuple(row) for row in power))
        power = [[sum(power[v][i] * pascal[i][w] for i in range(v, w + 1)) % p
                  for w in range(precision)] for v in range(precision)]
    return out


def oracle_points_csv(items, start_index: int = 0) -> str:
    """The point CSV as ``csv.writer`` writes it, one row at a time.

    items are batches of coordinates (one Axis per coordinate, its
    numerators a list or an array), written normalized; each float is
    rounded as float(Fraction) rounds it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    n = start_index
    for item in items:
        rows = list(zip(*(
            [_oracle_csv_fields(axis.base, axis.width, int(num)) for num in axis.nums]
            for axis in item
        )))
        if rows and n == start_index:
            names = ("base", "prec", "num", "float")
            writer.writerow(["n", "dim"] + [f"{k}_{i}" for i in range(1, len(rows[0]) + 1)
                                            for k in names])
        for fields in rows:
            writer.writerow([n, len(fields), *itertools.chain.from_iterable(fields)])
            n += 1
    return buf.getvalue()


def read_points_csv(fh) -> list:
    """(n, Point) per row of a point CSV, built from the exact fields only."""
    from lowdisc import BRational, Point
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


def oracle_net_violation(points, b: int, t: int, m: int):
    """First (shape, cell, count, expected) of a wrong elementary-interval
    count, or None: every interval of volume b**(t-m), shapes and cells in
    lexicographic order, counted by a scan of the points."""
    pts = [tuple(c.as_fraction() for c in getattr(p, "coords", p)) for p in points]
    s = len(pts[0])
    for shape in itertools.product(range(m - t + 1), repeat=s):
        if sum(shape) != m - t:
            continue
        scales = [b**d for d in shape]
        for cell in itertools.product(*(range(k) for k in scales)):
            count = sum(
                1 for p in pts if all(math.floor(x * k) == c for x, k, c in zip(p, scales, cell))
            )
            if count != b**t:
                return shape, cell, count, b**t
    return None


def brute_digit_sum_counts(q: int, n: int) -> dict[int, int]:
    """#{m < n : s_q(m) = k} by raw scanning."""
    out: dict[int, int] = {}
    for m in range(n):
        s, t = 0, m
        while t:
            s += t % q
            t //= q
        out[s] = out.get(s, 0) + 1
    return out


@functools.cache
def convolution_counts(q: int, j: int) -> tuple[int, ...]:
    """#{n < q**j : s_q(n) = k}: the coefficients of (1 + ... + x^(q-1))**j,
    convolved in one digit at a time."""
    counts = [1]
    for _ in range(j):
        nxt = [0] * (len(counts) + q - 1)
        for k, c in enumerate(counts):
            for d in range(q):
                nxt[k + d] += c
        counts = nxt
    return tuple(counts)


def digit_walk_counts(q: int, n: int) -> list[int]:
    """#{m < n : s_q(m) = k} from the most significant digit of n down: each
    digit a_r adds the block counts of level r shifted by the digit sum above
    it plus a, for every a < a_r; the last entry is nonzero."""
    digits = []
    while n:
        n, a = divmod(n, q)
        digits.append(a)
    counts = [0] * (len(digits) * (q - 1) + 1)
    above = 0
    for r in range(len(digits) - 1, -1, -1):
        for a in range(digits[r]):
            for k, c in enumerate(convolution_counts(q, r)):
                counts[above + a + k] += c
        above += digits[r]
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def oracle_digit_sums(q: int, n: int) -> np.ndarray:
    """s_q(m) for m = 0..n-1, digit by digit over the whole index array."""
    s = np.zeros(n, dtype=np.int64)
    rem = np.arange(n, dtype=np.int64)
    while rem.any():
        s += rem % q
        rem //= q
    return s


def oracle_weyl_direct(b: int, q: int, k: int, n: int) -> tuple[complex, str]:
    """T_k(N) term by term, and the method name weyl_sum reports for it.

    phi_b(k) = num / b**r mirrors the r base-b digits of k; every one of the
    N terms e(s_q(m) * phi_b(k)) is read from the unit-circle table
    np.exp(2j*pi*np.arange(den)/den) that published rows were computed with,
    and math.fsum adds the N real and imaginary parts.  This is the reference
    the library, which computes each phase on its own, must match bit for bit.
    """
    num, r, rem = 0, 0, k
    while rem:
        rem, d = divmod(rem, b)
        num, r = num * b + d, r + 1
    if num == 0:
        return complex(1.0, 0.0), "trivial"
    den = b**r
    table = np.exp(2j * math.pi * np.arange(den) / den)
    terms = table[(oracle_digit_sums(q, n) * num) % den]
    return complex(math.fsum(terms.real) / n, math.fsum(terms.imag) / n), "direct"


def brute_floor_power(n: int, u: int, v: int) -> int:
    """floor(n**(u/v)) by scanning k upward (slow, exact)."""
    k = 0
    while (k + 1) ** v <= n**u:
        k += 1
    return k


def brute_multiplicity(u: int, v: int, k: int, scan_limit: int) -> int:
    return sum(1 for n in range(scan_limit) if brute_floor_power(n, u, v) == k)


def _oracle_points(points, counts):
    pts = [
        tuple(c if isinstance(c, Fraction) else c.as_fraction() for c in p)
        for p in points
    ]
    if counts is None:
        counts = [1] * len(pts)
    axes = [sorted({pt[i] for pt in pts}) for i in range(len(pts[0]))]
    return pts, counts, axes


def oracle_grid_enumeration(points, counts=None):
    """(value, witness) of the per-point grid enumeration the kernel replaced.

    Scans every point for every shrink-wrapped closed box, then every
    fattened open box, keeping the first strict maximum in product order.
    """
    from lowdisc.discrepancy import Box, BoxSide

    ZERO, ONE = Fraction(0), Fraction(1)
    pts, counts, axes = _oracle_points(points, counts)
    n = sum(counts)

    best: Fraction | None = None
    best_box: Box | None = None

    def consider(dev: Fraction, box: Box):
        nonlocal best, best_box
        if best is None or dev > best:
            best, best_box = dev, box

    # shrink-wrapped closed boxes
    pair_lists = [
        [(lo, hi) for i, lo in enumerate(ax) for hi in ax[i:]] for ax in axes
    ]
    for combo in itertools.product(*pair_lists):
        vol = ONE
        for lo, hi in combo:
            vol *= hi - lo
        inside = sum(
            c
            for pt, c in zip(pts, counts)
            if all(lo <= x <= hi for x, (lo, hi) in zip(pt, combo))
        )
        consider(
            Fraction(inside, n) - vol,
            Box(tuple(BoxSide(lo, hi, True, True) for lo, hi in combo)),
        )

    # fattened open boxes (walls exclude points; 0/1 walls are domain edges)
    lower_lists = [[ZERO] + ax for ax in axes]
    upper_lists = [ax + [ONE] for ax in axes]
    side_lists = [
        [(lo, hi) for lo in los for hi in his if lo < hi]
        for los, his in zip(lower_lists, upper_lists)
    ]
    for combo in itertools.product(*side_lists):
        vol = ONE
        for lo, hi in combo:
            vol *= hi - lo
        inside = sum(
            c
            for pt, c in zip(pts, counts)
            if all(lo < x < hi for x, (lo, hi) in zip(pt, combo))
        )
        consider(
            vol - Fraction(inside, n),
            Box(tuple(BoxSide(lo, hi, False, False) for lo, hi in combo)),
        )

    return best, best_box


def oracle_star_enumeration(points, counts=None):
    """(value, witness) of the per-point star enumeration the kernel replaced.

    Scans every point at every grid corner, closed limit before open, keeping
    the first strict maximum in product order.
    """
    from lowdisc.discrepancy import Box, BoxSide

    ZERO, ONE = Fraction(0), Fraction(1)
    pts, counts, axes = _oracle_points(points, counts)
    n = sum(counts)
    corner_lists = [ax + [ONE] for ax in axes]
    best: Fraction | None = None
    best_box: Box | None = None
    for corner in itertools.product(*corner_lists):
        vol = ONE
        for c in corner:
            vol *= c
        closed = sum(
            c for pt, c in zip(pts, counts) if all(x <= u for x, u in zip(pt, corner))
        )
        opened = sum(
            c for pt, c in zip(pts, counts) if all(x < u for x, u in zip(pt, corner))
        )
        dev_p = Fraction(closed, n) - vol
        dev_m = vol - Fraction(opened, n)
        if best is None or dev_p > best:
            best = dev_p
            best_box = Box(tuple(BoxSide(ZERO, u, True, True) for u in corner))
        if dev_m > best:
            best = dev_m
            best_box = Box(tuple(BoxSide(ZERO, u, True, False) for u in corner))
    return best, best_box
