import io
import random
import re
from functools import lru_cache

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdisc import (
    BRational,
    DigitalSequence,
    GeneratorMatrix,
    Halton,
    Point,
    VanDerCorput,
    check_net,
    check_rank_condition,
    check_sequence_property,
    parse_spec,
    pascal_matrices,
    points,
    radical_inverse,
)
from lowdisc.cli import main
from lowdisc import _util, generators
from lowdisc.generators import (
    Axis,
    coordinates,
    int_coordinates,
    to_points,
    write_points_csv,
)
from oracles import (
    oracle_digital_point, oracle_net_violation, oracle_pascal_matrices, oracle_points_csv,
    read_points_csv,
)


def identity_matrices(p, s, size):
    eye = tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    return tuple(GeneratorMatrix(p, eye) for _ in range(s))


def test_vdc_first_points():
    got = [p.coords[0].as_fraction() for p in points(VanDerCorput(2), 4)]
    assert got == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]


def test_halton_point_example():
    assert Halton((2, 3)).point(5).as_fractions() == (Fraction(5, 8), Fraction(7, 9))


def test_halton_requires_coprime_bases():
    with pytest.raises(ValueError):
        Halton((2, 4))


def test_digital_identity_matches_vdc():
    spec = DigitalSequence(2, identity_matrices(2, 1, 8), 8)
    vdc = VanDerCorput(2)
    for n in range(8):
        assert spec.point(n).coords[0] == vdc.point(n).coords[0]


def test_digital_rejects_out_of_precision_index():
    spec = DigitalSequence(2, identity_matrices(2, 1, 4), 4)
    with pytest.raises(ValueError, match="digits"):
        spec.point(16)


def test_pascal_matrices_examples():
    assert pascal_matrices(2, 1, 3)[0].rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    mats = pascal_matrices(3, 2, 2)
    assert mats[0].rows == ((1, 0), (0, 1))
    assert mats[1].rows == ((1, 1), (0, 1))
    # third matrix is the square of the Pascal matrix mod 5
    assert pascal_matrices(5, 3, 2)[2].rows == ((1, 2), (0, 1))


@pytest.mark.parametrize("precision", [1, 12, 32, 60])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pascal_closed_form_matches_repeated_products(p, precision):
    want = oracle_pascal_matrices(p, p, precision)
    for s in range(1, p + 1):
        assert [m.rows for m in pascal_matrices(p, s, precision)] == want[:s]


def test_pascal_requires_s_at_most_p():
    with pytest.raises(ValueError):
        pascal_matrices(3, 4, 4)


def test_rank_condition_cases():
    assert check_rank_condition(identity_matrices(2, 1, 6), t=0, m=4)
    assert check_rank_condition(pascal_matrices(3, 2, 4), t=0, m=2)
    zeros = tuple(
        GeneratorMatrix(2, tuple(tuple(0 for _ in range(2)) for _ in range(2)))
        for _ in range(1)
    )
    assert not check_rank_condition(zeros, t=0, m=1)
    with pytest.raises(ValueError):
        check_rank_condition(identity_matrices(2, 1, 3), t=0, m=5)


def test_check_net_vdc_block():
    res = check_net(points(VanDerCorput(2), 8), b=2, t=0)
    assert res.ok and res.violation is None


def test_check_net_pascal_block():
    spec = DigitalSequence(3, tuple(pascal_matrices(3, 2, 6)), 6)
    assert check_net(points(spec, 9), b=3, t=0).ok


def test_check_net_duplicate_points_fail():
    origin = VanDerCorput(2).point(0)
    res = check_net([origin] * 8, b=2, t=0)
    assert not res.ok
    assert res.violation.count == 8 and res.violation.expected == 1
    assert res.violation.cell == (0,)


def test_check_net_wrong_count_rejected():
    with pytest.raises(ValueError):
        check_net(points(VanDerCorput(2), 7), b=2, t=0)


def test_check_net_needs_a_base_points_and_one_dimension():
    # m is read off the count b**m, which base 1 (or no point) leaves undefined
    for pts, b in ((points(VanDerCorput(2), 1), 1), (points(VanDerCorput(2), 1), 0)):
        with pytest.raises(ValueError, match="need a base b >= 2 and at least one point"):
            check_net(pts, b, t=0)
    with pytest.raises(ValueError, match="empty point multiset"):  # the check of every route
        check_net([], 2, t=0)
    mixed = points(VanDerCorput(2), 1) + points(Halton((2, 3)), 1, start=1)
    with pytest.raises(ValueError, match="one dimension"):
        check_net(mixed, b=2, t=0)


def test_check_net_takes_every_point_form():
    # an interval index floor(x * b**d) is exact for any rational x, so an
    # axis may mix bases; 0 in base 3 and 1/2 in base 2 are a net in base 2
    mixed = [Point((BRational(0, 3, 1),)), Point((BRational(1, 2, 1),))]
    forms = [mixed, [Fraction(0), Fraction(1, 2)], [(Fraction(1, 2),), (Fraction(0),)],
             (Axis(2, 1, [0, 1]),), (Axis(2, 1, np.array([1, 0])),)]
    for pts in forms:
        assert check_net(pts, 2, 0).ok
    assert not check_net([Fraction(1, 4), Fraction(1, 3)], 2, 0).ok


def test_vdc_is_01_sequence():
    assert check_sequence_property(VanDerCorput(2), b=2, t=0, k_max=3, m_max=4).ok


def test_pascal_is_02_sequence():
    spec = DigitalSequence(3, tuple(pascal_matrices(3, 2, 8)), 8)
    assert check_sequence_property(spec, b=3, t=0, k_max=2, m_max=2).ok


def test_halton_is_not_a_net_sequence():
    res = check_sequence_property(Halton((2, 3)), b=2, t=0, k_max=2, m_max=2)
    assert not res.ok
    assert res.violation is not None


def test_rank_condition_implies_block_nets():
    spec = DigitalSequence(3, tuple(pascal_matrices(3, 2, 6)), 6)
    for m in range(0, 3):
        assert check_rank_condition(spec.matrices, t=0, m=m)
    assert check_sequence_property(spec, b=3, t=0, k_max=3, m_max=2).ok


def test_halton_projection_is_vdc():
    h = Halton((2, 3))
    v2, v3 = VanDerCorput(2), VanDerCorput(3)
    for n in range(50):
        pt = h.point(n)
        assert pt.coords[0] == v2.point(n).coords[0]
        assert pt.coords[1] == v3.point(n).coords[1 - 1]


def test_point_csv_roundtrip_bit_exact():
    spec = Halton((2, 3))
    pts = points(spec, 20)
    buf = io.StringIO()
    write_points_csv(buf, [int_coordinates(spec, range(20))])
    buf.seek(0)
    back = read_points_csv(buf)
    assert len(back) == 20
    for (n, pt), orig in zip(back, pts):
        for got, want in zip(pt.coords, orig.coords):
            assert (got.num, got.base, got.prec) == (want.num, want.base, want.prec)


def test_points_csv_streams_from_any_iterable():
    spec = Halton((2, 3))
    batches = [int_coordinates(spec, r) for r in (range(5, 9), range(9, 12))]
    from_list, from_generator, whole = io.StringIO(), io.StringIO(), io.StringIO()
    write_points_csv(from_list, batches, 5)
    write_points_csv(from_generator, (batch for batch in batches), 5)
    write_points_csv(whole, [coordinates(spec, range(5, 12))], 5)
    assert from_generator.getvalue() == from_list.getvalue() == whole.getvalue()
    # the rows hold the exact points 5 to 11
    back = read_points_csv(io.StringIO(from_list.getvalue()))
    assert back == list(zip(range(5, 12), points(spec, 7, start=5)))
    with pytest.raises(ValueError, match="no points"):
        write_points_csv(io.StringIO(), iter([]))


# vdC and Halton up to 2**64, and digital specs over int64 and exact ints whose
# denominators lie on both sides of 2**53 (the two float-column branches)
WRITER_SPECS = ["vdc:2", "vdc:3", "halton:2,3", "halton:2,3,5,7", "pascal:3,2", "pascal:5,1",
                "pascal:3,1,40", "pascal:2,1,53", "pascal:2,1,54"]


@lru_cache(maxsize=None)
def parse_spec_cached(text):
    return parse_spec(text)


@st.composite
def point_streams(draw):
    """A spec's points from a start index, as a stream of batches that mixes
    array and list numerators, some lists over one more digit than needed."""
    spec = parse_spec_cached(draw(st.sampled_from(WRITER_SPECS)))
    limit = spec.p**spec.precision if isinstance(spec, DigitalSequence) else 2**64
    starts = (0, 5, 2**53 - 6, 2**62 - 7, limit - 16)
    start = draw(st.sampled_from([s for s in starts if s <= limit - 16]))
    items, n = [], start
    for size in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)):
        indices = range(n, n + size)
        form = draw(st.sampled_from(["arrays", "lists", "padded"]))
        if form == "arrays":
            items.append(coordinates(spec, indices))
        else:
            pad = int(form == "padded")
            items.append(tuple(Axis(a.base, a.width + pad, [num * a.base**pad for num in a.nums])
                               for a in int_coordinates(spec, indices)))
        n += size
    return items, start, n - start


@settings(max_examples=200, deadline=None)
@given(point_streams())
def test_writer_matches_csv_writer_oracle(case):
    items, start, count = case
    buf = io.StringIO()
    if not count:
        with pytest.raises(ValueError, match="no points"):
            write_points_csv(buf, items, start)
        return
    write_points_csv(buf, items, start)
    assert buf.getvalue() == oracle_points_csv(items, start)


@pytest.mark.parametrize(
    "indices,bad", [([3, -1, -2], -1), ([1, 2.5, -1], 2.5), ([0, np.int64(3)], np.int64(3))]
)
def test_index_validation_names_the_first_bad_index(indices, bad):
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}") + "$"):
        coordinates(VanDerCorput(2), indices)


def test_parse_spec_roundtrip():
    assert parse_spec("vdc:5") == VanDerCorput(5)
    assert parse_spec("halton:2,3") == Halton((2, 3))
    dig = parse_spec("pascal:3,2,6")
    assert isinstance(dig, DigitalSequence) and dig.precision == 6
    with pytest.raises(ValueError):
        parse_spec("sobol:2")


@lru_cache(maxsize=None)
def pascal(p, s, precision):
    return DigitalSequence(p, tuple(pascal_matrices(p, s, precision)), precision)


def kernel_coords(spec, indices, kernel=coordinates):
    """Per index, ((num, prec), value, float) per axis from one kernel call."""
    per_axis = []
    for axis in kernel(spec, indices):
        nums, precs = axis.normalized()
        listed = axis.nums if isinstance(axis.nums, list) else axis.nums.tolist()
        values = [Fraction(num, axis.base**axis.width) for num in listed]
        per_axis.append(list(zip(zip(nums, precs), values, axis.floats())))
    return list(zip(*per_axis))


def oracle_coords(spec, n):
    if isinstance(spec, DigitalSequence):
        pairs = oracle_digital_point(spec.p, [m.rows for m in spec.matrices], spec.precision, n)
        bases = [spec.p] * spec.dimension
    else:
        bases = spec.bases if isinstance(spec, Halton) else (spec.base,)
        pairs = [(x.num, x.prec) for x in (radical_inverse(n, b) for b in bases)]
    values = [Fraction(num, b**prec) for (num, prec), b in zip(pairs, bases)]
    return tuple(zip(pairs, values, (float(v) for v in values)))


@st.composite
def specs_and_indices(draw):
    kind = draw(st.sampled_from(["vdc", "halton", "pascal"]))
    if kind == "pascal":
        p = draw(st.sampled_from([2, 3, 5, 7]))
        spec = pascal(p, draw(st.integers(1, min(p, 3))), draw(st.integers(1, 40)))
        top = p**spec.precision
    else:
        if kind == "vdc":
            spec = VanDerCorput(draw(st.integers(2, 7)))
        else:
            spec = Halton(draw(st.sampled_from([(2, 3), (3, 2), (2, 3, 5), (4, 7), (7, 5, 6)])))
        top = draw(st.sampled_from([2**10, 2**62, 10**20]))
    # like transform outputs: unsorted, repeated, with 0 and the largest index
    drawn = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=25))
    indices = draw(st.permutations(drawn + drawn[:3] + [0, top - 1]))
    return spec, indices


@settings(max_examples=250, deadline=None)
@given(specs_and_indices())
def test_kernel_matches_per_point_oracles(case):
    spec, indices = case
    got = kernel_coords(spec, indices)
    assert got == [oracle_coords(spec, n) for n in indices]
    for n, coords in zip(indices[:3], got):
        point = spec.point(n)
        assert [(c.num, c.prec) for c in point.coords] == [pair for pair, _, _ in coords]


BIG_P = 3037000507  # a prime with BIG_P < 2**62 but (BIG_P - 1)**2 > 2**63


@pytest.mark.parametrize(
    "spec,indices,exact",
    [
        # int64 while p**precision < 2**62: 3**39 and 2**61 are below, 3**40,
        # 5**32 and 2**62 are not
        (parse_spec("pascal:3,1,39"), [3**39 - 1, 0, 3**38, 3**39 - 2, 12345, 3**39 - 1, 1], False),
        (parse_spec("pascal:3,1,40"), [3**40 - 1, 0, 3**39, 3**40 - 2, 12345, 1], True),
        (parse_spec("pascal:5,1"), [5**32 - 1, 0, 5**31, 5**32 - 2, 12345, 1], True),
        (parse_spec("pascal:2,2,61"), [2**61 - 1, 0, 2**60, 2**61 - 2, 12345, 1], False),
        (parse_spec("pascal:2,2,62"), [2**62 - 1, 0, 2**61, 2**62 - 2, 12345, 1], True),
        # precision 1 and a base too large for the tables: int64 numerators
        (DigitalSequence(BIG_P, (GeneratorMatrix(BIG_P, ((BIG_P - 1,),)),), 1),
         [BIG_P - 1, BIG_P - 2, 1, 0], False),
        # indices below 2**62 whose mirrored numerators pass 2**63
        (VanDerCorput(3), [3**39 + 8, 5, 3**39 + 8], True),
        # indices across 2**62
        (Halton((2, 3)), [2**62 - 1, 2**62, 2**62 + 1, 5], True),
        # precision 0: the one point 0, from empty matrices
        (parse_spec("pascal:3,2,0"), [0, 0], False),
    ],
    ids=["pascal-3-39", "pascal-3-40", "pascal-5-32", "pascal-2-61", "pascal-2-62",
         "precision-1-big-p", "vdc-3-numerators", "halton-across-2-62", "precision-0"],
)
def test_kernel_int64_or_exact_boundary(spec, indices, exact):
    # the dtypes the arrays take: a digital sequence's are converted from lists
    assert all((axis.nums.dtype == object) == exact for axis in coordinates(spec, indices))
    assert kernel_coords(spec, indices) == [oracle_coords(spec, n) for n in indices]


@pytest.mark.parametrize(
    "spec",
    [pascal(3, 2, 32), pascal(5, 2, 4), pascal(3, 2, 0), pascal(2, 2, 62),
     DigitalSequence(BIG_P, (GeneratorMatrix(BIG_P, ((BIG_P - 1,),)),), 1)],
    ids=["pascal-3-2", "pascal-5-2-4", "precision-0", "pascal-2-2-62", "precision-1-big-p"],
)
def test_digital_kernel_at_digit_count_boundaries(spec):
    # the largest index sets how many digits the tables read: 0, p**k - 1
    # and p**k for every k the precision allows
    p, width = spec.p, spec.precision
    tops = sorted({0} | {p**k - 1 for k in range(1, width + 1)} | {p**k for k in range(width)})
    for top in tops:
        indices = [top, top // 3, 0]
        assert kernel_coords(spec, indices) == [oracle_coords(spec, n) for n in indices]


# indices at and next to 2**62 and 2**63, where the arrays' dtypes change
NEAR_INT64 = [c + d for c in (2**62, 2**63) for d in (-2, -1, 0, 1)]


@st.composite
def int_coordinate_cases(draw):
    spec, indices = draw(specs_and_indices())
    top = spec.p**spec.precision if isinstance(spec, DigitalSequence) else 10**20
    near = [n for n in NEAR_INT64 if n < top]
    if near:
        indices = indices + draw(st.lists(st.sampled_from(near), max_size=4))
    return spec, indices


@settings(max_examples=250, deadline=None)
@given(int_coordinate_cases())
def test_int_coordinates_match_the_kernel_and_the_oracles(case):
    # the Python-int coordinates of the small discrepancy jobs, which the
    # golden CLI test's per-point path does not replace; the arrays read the
    # same tables (a digital sequence's are converted from these lists), so
    # matching them checks the conversion, and the oracle the values
    spec, indices = case
    columns = int_coordinates(spec, indices)
    if not isinstance(spec, DigitalSequence):
        arrays = coordinates(spec, indices)
        assert columns == tuple(a._replace(nums=a.nums.tolist()) for a in arrays)
    want = [oracle_coords(spec, n) for n in indices]
    for a, (base, width, nums) in enumerate(columns):
        assert [Fraction(num, base**width) for num in nums] == [point[a][1] for point in want]


@settings(max_examples=150, deadline=None)
@given(int_coordinate_cases())
@example((Halton((2, 3)), list(range(5))))
# denominators past 2**53, where floats() divides Python ints: below and past 2**62
@example((VanDerCorput(2), [2**54 + 3, 0, 2**53, 6]))
@example((Halton((2, 3)), [2**62 + 1, 5, 0, 3**40]))
@example((pascal(2, 2, 60), [2**59 + 7, 1, 0]))
@example((pascal(3, 2, 40), [3**39 + 2, 3, 0]))
def test_int_coordinates_give_the_kernels_points_and_csv(case):
    # normalized(), brationals() and floats() read list numerators too
    spec, indices = case
    arrays, lists = coordinates(spec, indices), int_coordinates(spec, indices)
    assert to_points(lists) == to_points(arrays)
    assert [a.floats() for a in lists] == [a.floats() for a in arrays]
    want, got = io.StringIO(), io.StringIO()
    write_points_csv(want, [arrays])
    write_points_csv(got, [lists])
    assert got.getvalue() == want.getvalue()


# the most digits whose block values fit in one table (b**chunk <= 2**10),
# and one digit, with no table, where two do not fit
CHUNKS = {2: 10, 3: 6, 5: 4, 32: 2, 33: 1, 1031: 1, 10**9 + 7: 1}
# next to 2**62, where the arrays turn from int64 to exact ints, and past 2**64
FAR = [2**62 - 1, 2**62, 2**62 + 1, 2**64 - 1, 2**64, 2**64 + 1]


@st.composite
def radical_inverse_cases(draw):
    # the largest index has k * chunk - 1, k * chunk or k * chunk + 1 digits:
    # one block more or less, or a last block of one digit
    base = draw(st.sampled_from(sorted(CHUNKS)))
    width = max(draw(st.integers(1, 4)) * CHUNKS[base] + draw(st.sampled_from([-1, 0, 1])), 0)
    top = draw(st.integers(base ** (width - 1), base**width - 1)) if width else 0
    indices = draw(st.lists(st.integers(0, top), max_size=12)) + [top]
    if draw(st.booleans()):
        indices += draw(st.lists(st.sampled_from(FAR), min_size=1, max_size=3))
    spec = VanDerCorput(base) if draw(st.booleans()) else Halton((base, 3 if base % 3 else 2))
    return spec, draw(st.permutations(indices))


@settings(max_examples=300, deadline=None)
@given(radical_inverse_cases())
@example((VanDerCorput(2), []))
@example((Halton((1031, 10**9 + 7)), []))
@example((VanDerCorput(2), [2**10000, 0, 1]))
@example((Halton((3, 10**9 + 7)), [2**10000, 5]))
def test_radical_inverse_kernels_match_the_oracle(case):
    # the lists and the arrays read the same blocks and tables, so each kernel
    # answers to the per-point radical inverse on its own
    spec, indices = case
    want = [oracle_coords(spec, n) for n in indices]
    assert kernel_coords(spec, indices, int_coordinates) == want
    assert kernel_coords(spec, indices) == want
    for axis in coordinates(spec, indices):
        assert len(axis.nums) == len(indices)
        assert (axis.nums.dtype == object) == (axis.base**axis.width >= 2**62)


@pytest.mark.parametrize("base", sorted(CHUNKS))
def test_digit_blocks_fit_the_tables(base):
    # the fewest blocks of at most `chunk` digits, all but the last of one
    # length, so no table passes 2**10 entries whatever the width
    for used in range(200):
        lengths = generators._digit_blocks(base, used)
        assert sum(lengths) == used and min(lengths) >= (used > 0)
        assert len(lengths) == max(-(-used // CHUNKS[base]), 1)
        assert len(set(lengths[:-1])) <= 1 and lengths[-1] <= lengths[0] <= CHUNKS[base]
    tables = [generators._mirror_table(base, n) for n in range(2, CHUNKS[base] + 1)]
    assert all(len(table) == base**n <= 1 << 10 for n, table in enumerate(tables, 2))


@pytest.mark.parametrize(
    "spec,indices,message",
    [(pascal(3, 1, 2), [0, 9, 3], "index 9 needs more than 2 base-3 digits; raise the precision"),
     (pascal(2, 2, 62), [2**62],
      f"index {2**62} needs more than 62 base-2 digits; raise the precision"),
     (VanDerCorput(2), [3, -1, -2], "expected a non-negative integer, got -1"),
     (Halton((2, 3)), [1, 2.5], "expected a non-negative integer, got 2.5"),
     (VanDerCorput(2), [0, np.int64(3)], f"expected a non-negative integer, got {np.int64(3)!r}")],
    ids=["needs-more-digits", "needs-more-digits-2-62", "negative", "float", "numpy-int"],
)
def test_int_coordinates_raise_what_the_kernel_raises(spec, indices, message):
    for kernel in (coordinates, int_coordinates):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            kernel(spec, indices)


@pytest.mark.parametrize(
    "spec,indices",
    [(VanDerCorput(10**9 + 7), [0, 1, 2]), (VanDerCorput(1031), [5, 1031**3 + 7, 0]),
     (Halton((2, 10**6 + 3)), [0, 5, 2**40, 2**63 + 1]), (Halton((10**9 + 7, 3)), list(range(20)))],
    ids=["vdc-1e9+7", "vdc-1031", "halton-2-1e6+3", "halton-1e9+7-3"],
)
def test_int_coordinates_large_bases(spec, indices):
    # bases past 32 read one digit per block, its own mirror, with no table
    want = [oracle_coords(spec, n) for n in indices]
    assert kernel_coords(spec, indices, int_coordinates) == want
    assert kernel_coords(spec, indices) == want


@st.composite
def digital_table_cases(draw):
    # Pascal matrices, random dense ones and sparse ones with zero rows, whose
    # live rows start and end anywhere; indices at p**k - 1 and p**k, where a
    # block of index digits opens, and at p**width - 1
    if draw(st.integers(0, 9)) == 0:
        rng = random.Random(40)
        rows = tuple(tuple(rng.randrange(3) for _ in range(40)) for _ in range(40))
        spec = DigitalSequence(3, (GeneratorMatrix(3, rows),), 40)
    else:
        p, width = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 32))
        kind = draw(st.sampled_from(["pascal", "dense", "sparse"]))
        if kind == "pascal":
            spec = pascal(p, draw(st.integers(1, min(p, 3))), width)
        else:
            rng = random.Random(draw(st.integers(0, 2**32)))
            zero = 0.0 if kind == "dense" else 0.7
            rows = tuple(tuple(0 if rng.random() < zero else rng.randrange(p)
                               for _ in range(width)) for _ in range(width))
            spec = DigitalSequence(p, (GeneratorMatrix(p, rows),), width)
    p, width = spec.p, spec.precision
    edges = [n for k in range(width + 1) for n in (p**k - 1, p**k) if n < p**width]
    if draw(st.booleans()):
        return spec, []
    indices = draw(st.lists(st.sampled_from(edges) | st.integers(0, p**width - 1), max_size=12))
    return spec, indices + draw(st.sampled_from([[], [p**width - 1]]))


@settings(max_examples=300, deadline=None)
@given(digital_table_cases())
@example((pascal(3, 2, 32), list(range(3**10 - 3, 3**10 + 3))))
@example((DigitalSequence(BIG_P, (GeneratorMatrix(BIG_P, ((BIG_P - 1,),)),), 1), [BIG_P - 1, 1]))
# a base past the tables: one digit per block, whose sums of 3 products
# p - 1 times p - 1 need their own field width
@example((DigitalSequence(1031, (GeneratorMatrix(1031, ((1030,) * 3,) * 3),), 3),
          [1031**3 - 1, 1031**2, 5]))
def test_digital_tables_match_the_kernel_and_the_oracles(case):
    # the tables of index-digit blocks and of output fields against the
    # per-point construction; past p**width both forms raise
    spec, indices = case
    p, width = spec.p, spec.precision
    columns = int_coordinates(spec, indices)
    assert all(axis.width == width for axis in columns)
    want = [oracle_digital_point(p, [m.rows for m in spec.matrices], width, n) for n in indices]
    normalized = [axis.normalized() for axis in columns]
    assert [tuple((nums[i], precs[i]) for nums, precs in normalized)
            for i in range(len(indices))] == want
    message = f"index {p**width} needs more than {width} base-{p} digits; raise the precision"
    for kernel in (coordinates, int_coordinates):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            kernel(spec, indices + [p**width])


@pytest.mark.parametrize(
    "indices",
    [range(10), range(7, 0, -2), range(3, 3), range(2**62 - 2, 2**62 + 2),
     range(2**63 + 5, 2**63 - 5, -3), range(-1, 3), range(4, -3, -2)],
)
def test_index_range_is_the_index_list(indices):
    # a range is built by np.arange: the same array, dtype and error as its list
    try:
        want = generators._index_array(list(indices))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc)) + "$"):
            generators._index_array(indices)
        return
    got = generators._index_array(indices)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert all(type(n) is int for n in got.tolist())


@pytest.mark.parametrize("precision", [39, 40])
def test_net_cells_at_int64_boundary(precision):
    # coordinates over 3**39 (int64) and 3**40 (exact ints); numerator times
    # 3**d passes 2**63 before the division either way
    spec = pascal(3, 2, precision)
    assert check_sequence_property(spec, b=3, t=0, k_max=2, m_max=3).ok


@pytest.mark.parametrize(
    "args,expected",
    [
        (["pascal:3,1,39", "--start", str(3**39 - 3), "--count", "3"],
         "n,dim,base_1,prec_1,num_1,float_1\n"
         "4052555153018976264,1,3,39,1350851717672992088,0.3333333333333333\n"
         "4052555153018976265,1,3,39,2701703435345984177,0.6666666666666666\n"
         "4052555153018976266,1,3,39,4052555153018976266,1.0\n"),
        (["pascal:3,1,40", "--start", str(3**40 - 3), "--count", "3"],
         "n,dim,base_1,prec_1,num_1,float_1\n"
         "12157665459056928798,1,3,40,4052555153018976266,0.3333333333333333\n"
         "12157665459056928799,1,3,40,8105110306037952533,0.6666666666666666\n"
         "12157665459056928800,1,3,40,12157665459056928800,1.0\n"),
        (["pascal:5,1", "--start", str(5**32 - 2), "--count", "2"],
         "n,dim,base_1,prec_1,num_1,float_1\n"
         "23283064365386962890623,1,5,32,18626451492309570312499,0.8\n"
         "23283064365386962890624,1,5,32,23283064365386962890624,1.0\n"),
        (["halton:2,3", "--start", "4611686018427387903", "--count", "2"],
         "n,dim,base_1,prec_1,num_1,float_1,base_2,prec_2,num_2,float_2\n"
         "4611686018427387903,2,2,62,4611686018427387903,1.0,"
         "3,40,1880928477073175149,0.15471132047575514\n"
         "4611686018427387904,2,2,63,1,1.0842021724855044e-19,"
         "3,40,5933483630092151416,0.48804465380908846\n"),
    ],
    ids=["pascal-3-39-int64", "pascal-3-40-exact", "pascal-5-32-exact", "halton-across-2-62"],
)
def test_gen_bytes_at_int64_boundary(capsys, args, expected):
    # the rows the per-point generator wrote; a float column may round up to 1.0
    assert main(["gen", "--spec", *args]) == 0
    assert capsys.readouterr().out == expected


@st.composite
def net_candidates(draw):
    b = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(0, 3))
    t = draw(st.integers(0, m))
    s = draw(st.integers(1, 3))
    if draw(st.booleans()):  # an aligned block of a sequence: often a net
        spec = draw(st.sampled_from([VanDerCorput(b), pascal(b, min(s, b), 6), Halton((2, 3))]))
        pts = points(spec, b**m, start=draw(st.integers(0, 5)) * b**m)
    else:
        coord = st.integers(0, 4).flatmap(
            lambda prec: st.integers(0, b**prec - 1).map(lambda num: BRational(num, b, prec))
        )
        pts = [Point(tuple(draw(coord) for _ in range(s))) for _ in range(b**m)]
    return pts, b, t, m


@settings(max_examples=200, deadline=None)
@given(net_candidates())
def test_check_net_matches_interval_scan(case):
    pts, b, t, m = case
    res = check_net(pts, b, t)
    want = oracle_net_violation(pts, b, t, m)
    assert res.ok == (want is None)
    if want is not None:
        assert tuple(res.violation) == want


@settings(max_examples=100, deadline=None)
@given(net_candidates())
def test_check_net_on_arrays_matches_the_lists(case):
    # check_net counts past NET_CUT on arrays; with the cut at 0 every set goes there
    pts, b, t, m = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_util, "NET_CUT", 0)
        arrays = check_net(pts, b, t)
    assert arrays == check_net(pts, b, t)


@pytest.mark.parametrize(
    "spec,indices,b,t,m,ok",
    [
        (pascal(3, 2, 32), range(27, 54), 3, 0, 3, True),
        # a 2D Halton block is no (0,3,2)-net in base 2
        (Halton((2, 3)), range(8), 2, 0, 3, False),
        # a repeated point leaves one interval empty
        (VanDerCorput(2), [0, 2, 1, 1], 2, 0, 2, False),
    ],
    ids=["pascal-passes", "halton-fails", "duplicate-fails"],
)
def test_net_check_on_lists_matches_the_arrays(spec, indices, b, t, m, ok):
    lists = generators._net_check(int_coordinates(spec, indices), b, t, m)
    arrays = generators._net_check(coordinates(spec, indices), b, t, m)
    assert lists == arrays and lists.ok == ok
    if not ok:
        want = oracle_net_violation(to_points(int_coordinates(spec, indices)), b, t, m)
        assert tuple(lists.violation) == want


@pytest.mark.parametrize("base,width", [(2, 0), (2, 1), (2, 40), (3, 7), (3, 41), (10, 16), (10, 25)])
def test_normalized_lists_strip_what_the_arrays_strip(base, width):
    # numerators with every count of trailing zero digits from 0 to width - 1,
    # and 0; in base 10 the leading digit may be even or 5, so b**e divides a
    # numerator only as far as its zero digits go
    rng = random.Random(base * 100 + width)
    nums = [0]
    for zeros in range(width):
        for _ in range(3):
            head = rng.randrange(1, base ** (width - zeros))
            while head % base == 0:
                head = rng.randrange(1, base ** (width - zeros))
            nums.append(head * base**zeros)
    array = np.array(nums, dtype=generators._int_dtype(base**width))
    assert Axis(base, width, nums).normalized() == Axis(base, width, array).normalized()
    assert Axis(base, width, nums).normalized()[1] == [
        0 if num == 0 else width - next(z for z in range(width) if num % base ** (z + 1))
        for num in nums
    ]
