import math
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lowdisc import (
    FloorPower,
    SumOfDigits,
    TableTransform,
    distribution,
    is_unimodal,
    multiplicity_F,
    parse_transform,
    value_counts_below,
)
from lowdisc._util import int_nth_root
from oracles import brute_floor_power, brute_multiplicity


@pytest.mark.parametrize(
    "t,n,expected",
    [
        (SumOfDigits(2), 7, 3),
        (FloorPower(1, 2), 10, 3),
        (FloorPower(2, 3), 8, 4),
    ],
)
def test_apply_examples(t, n, expected):
    assert t.apply(n) == expected


@given(st.integers(0, 5000), st.integers(1, 3), st.integers(2, 5))
@settings(max_examples=200)
def test_floor_power_matches_brute_force(n, u, v_extra):
    v = u + v_extra
    from math import gcd

    if gcd(u, v) != 1:
        return
    assert FloorPower(u, v).apply(n) == brute_floor_power(n, u, v)


def test_table_transform():
    t = TableTransform((0, 0, 1, 2, 2))
    assert t.apply(3) == 2
    with pytest.raises(ValueError):
        t.apply(5)
    with pytest.raises(ValueError):
        TableTransform((1, 0))


def test_multiplicity_examples():
    assert multiplicity_F(FloorPower(1, 2), 2) == 5  # n in 4..8
    assert multiplicity_F(FloorPower(1, 2), 0) == 1
    # brute-force oracle: #{n : floor(n^(2/3)) = 4} = |{8,9,10,11}| = 4
    assert brute_multiplicity(2, 3, 4, 50) == 4
    assert multiplicity_F(FloorPower(2, 3), 4) == 4


def test_multiplicity_unsupported_for_digit_sums():
    with pytest.raises(ValueError, match="infinite"):
        multiplicity_F(SumOfDigits(2), 3)


@pytest.mark.parametrize("u,v,top_k", [(1, 2, 1000), (1, 3, 100), (2, 3, 1000)])
def test_multiplicity_matches_scan(u, v, top_k):
    # exhaustive index scan up to the end of the top_k bucket
    t = FloorPower(u, v)
    scan_limit = t.inverse_ceil(top_k + 1)
    counted = {}
    for n in range(scan_limit):
        counted[t.apply(n)] = counted.get(t.apply(n), 0) + 1
    for k in range(top_k + 1):
        assert multiplicity_F(t, k) == counted.get(k, 0), (u, v, k)


def block_counts(t, a, size):
    """G_{A,j}: the value histogram of t on [a*size, (a+1)*size), from two prefixes."""
    before = value_counts_below(t, a * size)
    after = value_counts_below(t, (a + 1) * size)
    return {k: c - before.get(k, 0) for k, c in after.items() if c > before.get(k, 0)}


def scan_counts(t, lo, hi):
    scan = {}
    for k in map(t.apply, range(lo, hi)):
        scan[k] = scan.get(k, 0) + 1
    return scan


def test_block_counts_shift_identity_vs_scan():
    # every digit-sum block profile is the block-0 profile shifted by s_q(A)
    t = SumOfDigits(3)
    for a in range(6):
        for j in range(4):
            shifted = {t.apply(a) + k: c for k, c in enumerate(distribution(3, j).counts)}
            scan = scan_counts(t, a * 3**j, (a + 1) * 3**j)
            assert shifted == scan
            assert block_counts(t, a, 3**j) == scan


TABLE = TableTransform(tuple(n * n // 50 for n in range(64)))  # uneven steps, some repeats
TRANSFORMS = (
    [SumOfDigits(q) for q in range(2, 6)]
    + [FloorPower(u, v) for u, v in ((1, 2), (1, 3), (2, 3), (3, 5))]
    + [TABLE]
)


@st.composite
def prefixes(draw):
    """A transform and a prefix length n it covers."""
    t = draw(st.sampled_from(TRANSFORMS))
    return t, draw(st.integers(0, len(TABLE.values) if t is TABLE else 2000))


@st.composite
def blocks(draw):
    """A transform, a block size and a block A the transform covers."""
    t = draw(st.sampled_from(TRANSFORMS))
    sizes = [1, 4, 6, 8, 12, 24, 36]
    if isinstance(t, SumOfDigits):
        sizes += [t.q**j for j in range(4)]
    size = draw(st.sampled_from(sizes))
    top = len(TABLE.values) // size - 1 if t is TABLE else 40
    return t, size, draw(st.integers(0, top))


@given(prefixes())
@settings(max_examples=200, deadline=None)
def test_value_counts_below_match_direct_scan(case):
    t, n = case
    scan = scan_counts(t, 0, n)
    counts = value_counts_below(t, n)
    assert counts == scan and list(counts) == sorted(scan)
    assert sum(counts.values()) == n


@given(blocks())
@settings(max_examples=200, deadline=None)
def test_block_counts_match_direct_scan(case):
    # a block profile G_{A,j} is the difference of two prefix histograms
    t, size, a = case
    assert block_counts(t, a, size) == scan_counts(t, a * size, (a + 1) * size)


@given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 8))
@settings(max_examples=120)
def test_block_counts_total_mass(q, j, a):
    assert sum(distribution(q, j).counts) == distribution(q, j).total == q**j
    assert sum(block_counts(SumOfDigits(q), a, q**j).values()) == q**j


@pytest.mark.parametrize(
    "counts,expected",
    [
        ((1, 4, 6, 4, 1), True),
        ((2, 1, 2), False),
        ((3, 3, 3), True),
        ((), True),
        ((1, 0, 1), False),  # an interior zero breaks unimodality
        ([1, 2, 2, 1], True),
    ],
)
def test_is_unimodal(counts, expected):
    assert is_unimodal(counts) is expected


def test_multiplicity_sum_covers_prefix():
    # sum_{r <= f(N-1)} F(r) >= N for floor-power transforms
    t = FloorPower(1, 2)
    for n in (10, 100, 1000, 10**5):
        top = t.apply(n - 1)
        total = sum(multiplicity_F(t, r) for r in range(top + 1))
        assert total >= n


def test_floor_power_multiplicity_is_nondecreasing_for_sqrt():
    t = FloorPower(1, 2)
    vals = [multiplicity_F(t, k) for k in range(200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_value_counts_below_matches_scan():
    for t in (SumOfDigits(2), SumOfDigits(3), FloorPower(1, 2), FloorPower(2, 3)):
        for n in (1, 7, 64, 100):
            scan = {}
            for i in range(n):
                k = t.apply(i)
                scan[k] = scan.get(k, 0) + 1
            assert value_counts_below(t, n) == scan


def test_parse_transform(tmp_path):
    assert parse_transform("sod:2") == SumOfDigits(2)
    assert parse_transform("pow:1/2") == FloorPower(1, 2)
    assert parse_transform('{"kind":"sod","q":3}') == SumOfDigits(3)
    assert parse_transform('{"kind":"pow","u":2,"v":3}') == FloorPower(2, 3)
    table_file = tmp_path / "table.txt"
    table_file.write_text("0\n1\n1\n2\n")
    t = parse_transform('{"kind":"table","path":"%s"}' % table_file)
    assert t == TableTransform((0, 1, 1, 2))
    with pytest.raises(ValueError):
        parse_transform("weird:1")


@pytest.mark.parametrize(
    "text, key",
    [('{"kind":"sod","q":null}', "q"), ('{"kind":"sod","q":[2]}', "q"),
     ('{"kind":"sod","q":1e400}', "q"), ('{"kind":"sod","q":2.9}', "q"),
     ('{"kind":"sod","q":"3"}', "q"), ('{"kind":"pow","u":true,"v":3}', "u"),
     ('{"kind":"pow","u":1,"v":3.0}', "v"), ('{"kind":"table","path":null}', "path"),
     ('{"kind":"table","path":["t.txt"]}', "path")],
)
def test_json_transform_takes_integers_and_a_string_path(text, key):
    # a float is not truncated nor a bool read as 0 or 1; each names its key
    with pytest.raises(ValueError, match=f"needs the key '{key}' as an? (integer|string), got "):
        parse_transform(text)


def test_floor_power_validation():
    with pytest.raises(ValueError):
        FloorPower(2, 4)  # not reduced
    with pytest.raises(ValueError):
        FloorPower(3, 2)  # alpha >= 1


@given(st.integers(2, 9), st.one_of(st.integers(0, 10**6), st.integers(0, 2**600),
                                    st.tuples(st.integers(2, 2**70), st.integers(-1, 1))))
@example(3, (2, -1))
@example(5, (3, 0))
@example(9, (2**66 + 1, 1))
@example(7, 2**600)
def test_int_nth_root_brackets(r, x):
    # FloorPower(u, v) takes v-th roots for any v; r = 2 goes to math.isqrt
    if isinstance(x, tuple):  # b^r - 1, b^r or b^r + 1
        b, d = x
        x = b**r + d
    g = int_nth_root(x, r)
    assert g**r <= x < (g + 1) ** r
    if x >= 1:  # and at the perfect powers around it
        assert int_nth_root(g**r, r) == g
        assert int_nth_root((g + 1) ** r - 1, r) == g


@given(st.integers(1, 10**40), st.integers(2, 40), st.integers(1, 10**5), st.integers(1, 3),
       st.integers(1, 4))
@example(1, 2, 1, 1, 1)
@example(2**64, 2, 10**5, 3, 1)
@example(10**40 - 1, 10, 4097, 1, 2)
def test_no_value_count_is_zero(n_sod, q, n_pow, u, v_extra):
    # below N digit sums take every value up to their largest (lowering a
    # nonzero digit lowers the sum by one), and floor(n^(u/v)) with u < v
    # steps by at most 1: every value from 0 to the largest has a count
    assume(math.gcd(u, u + v_extra) == 1)
    for t, n in ((SumOfDigits(q), n_sod), (FloorPower(u, u + v_extra), n_pow)):
        counts = value_counts_below(t, n)
        assert list(counts) == list(range(len(counts)))
        assert min(counts.values()) >= 1 and sum(counts.values()) == n


def test_square_root_of_a_huge_integer_is_quick():
    # square roots go to math.isqrt: the Newton loop took 9 s on this
    # integer of about 2^20 bits
    x = 3 ** 661_400
    start = time.perf_counter()
    g = int_nth_root(x, 2)
    assert time.perf_counter() - start < 2.0
    assert g * g <= x < (g + 1) ** 2
