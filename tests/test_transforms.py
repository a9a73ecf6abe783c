import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import (
    FloorPower,
    SumOfDigits,
    TableTransform,
    block_counts,
    distinct_values,
    is_unimodal,
    multiplicity_F,
    parse_transform,
    value_counts_below,
)
from oracles import brute_floor_power, brute_multiplicity


def chain2(d):
    return [2**j for j in range(d + 1)]


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


def test_block_counts_sod_examples():
    assert block_counts(SumOfDigits(2), 0, 4, chain2(5)) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    # A=3, j=1: scan {6, 7} -> digit sums {2, 3}; matches the shift by s_2(3)=2
    assert block_counts(SumOfDigits(2), 3, 1, chain2(5)) == {2: 1, 3: 1}
    assert block_counts(SumOfDigits(3), 0, 2, [3**j for j in range(4)]) == {
        0: 1, 1: 2, 2: 3, 3: 2, 4: 1,
    }


def test_block_counts_shift_identity_vs_scan():
    t = SumOfDigits(3)
    chain = [3**j for j in range(5)]
    for a in range(6):
        for j in range(4):
            fast = block_counts(t, a, j, chain)
            scan = {}
            for n in range(a * 3**j, (a + 1) * 3**j):
                k = t.apply(n)
                scan[k] = scan.get(k, 0) + 1
            assert fast == scan


def test_block_counts_floor_power():
    t = FloorPower(1, 2)
    counts = block_counts(t, 0, 3, chain2(4))
    assert counts == {0: 1, 1: 3, 2: 4}  # n<8: f = 0,1,1,1,2,2,2,2
    assert sum(counts.values()) == 8


TABLE = TableTransform(tuple(n * n // 50 for n in range(64)))  # uneven steps, some repeats


@st.composite
def blocks(draw):
    """A transform, a chain, a level j and a block A the transform covers."""
    t = draw(st.sampled_from(
        [SumOfDigits(q) for q in range(2, 6)]
        + [FloorPower(u, v) for u, v in ((1, 2), (1, 3), (2, 3), (3, 5))]
        + [TABLE]
    ))
    chains = [(1, 6, 12, 36), (1, 4, 8, 24)]
    if isinstance(t, SumOfDigits):
        chains.append(tuple(t.q**j for j in range(4)))
    chain = draw(st.sampled_from(chains))
    j = draw(st.integers(0, len(chain) - 1))
    top = len(TABLE.values) // chain[j] - 1 if t is TABLE else 40
    return t, chain, j, draw(st.integers(0, top))


@given(blocks())
@settings(max_examples=200, deadline=None)
def test_block_counts_match_direct_scan(case):
    t, chain, j, a = case
    scan = {}
    for k in map(t.apply, range(a * chain[j], (a + 1) * chain[j])):
        scan[k] = scan.get(k, 0) + 1
    counts = block_counts(t, a, j, chain)
    assert counts == scan and list(counts) == sorted(scan)
    assert distinct_values(t, a, j, chain) == len(scan)


@pytest.mark.parametrize("t", [SumOfDigits(2), FloorPower(1, 2), TableTransform((0, 1, 2))])
def test_negative_block_is_rejected(t):
    with pytest.raises(ValueError, match="non-negative block"):
        block_counts(t, -1, 0, chain2(1))
    with pytest.raises(ValueError, match="non-negative block"):
        distinct_values(t, -2, 1, chain2(1))


@given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 8))
@settings(max_examples=120)
def test_block_counts_total_mass(q, j, a):
    chain = [q**i for i in range(j + 1)]
    assert sum(block_counts(SumOfDigits(q), a, j, chain).values()) == q**j


def test_distinct_values_examples():
    assert distinct_values(SumOfDigits(2), 0, 3, chain2(4)) == 4
    assert distinct_values(SumOfDigits(3), 1, 2, [3**j for j in range(3)]) == 5
    assert distinct_values(FloorPower(1, 2), 0, 0, chain2(1)) == 1
    assert distinct_values(SumOfDigits(2), 5, 0, chain2(1)) == 1


@pytest.mark.parametrize(
    "counts,expected",
    [
        ({0: 1, 1: 4, 2: 6, 3: 4, 4: 1}, True),
        ({0: 2, 1: 1, 2: 2}, False),
        ({0: 3, 1: 3, 2: 3}, True),
        ({}, True),
        ({0: 1, 2: 1}, False),  # interior gap counts as a zero
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


def test_floor_power_validation():
    with pytest.raises(ValueError):
        FloorPower(2, 4)  # not reduced
    with pytest.raises(ValueError):
        FloorPower(3, 2)  # alpha >= 1
