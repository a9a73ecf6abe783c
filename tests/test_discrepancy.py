import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdisc import (
    BRational,
    BudgetExceededError,
    DigitalSequence,
    GeneratorMatrix,
    Halton,
    VanDerCorput,
    parse_spec,
    parse_transform,
    points,
    recount,
    windowed_uniform_discrepancy,
)
from lowdisc import discrepancy
from lowdisc.generators import (
    Axis, _as_arrays, _as_batch, _int_dtype, check_net, coordinates, int_coordinates,
)
from oracles import (
    oracle_extreme_1d,
    oracle_extreme_grid,
    oracle_extreme_grid_flagged,
    oracle_grid_enumeration,
    oracle_star_1d,
    oracle_star_enumeration,
    oracle_window_1d,
)

F = Fraction


def random_badic(rng, base, max_prec=4):
    prec = rng.randint(0, max_prec)
    return BRational(rng.randrange(base**prec), base, prec)


def test_extreme_1d_oracle_frozen_examples():
    # values computed with the flagged-interval oracle before implementing
    # the closed form; a lone point has discrepancy 1 (tiny interval around it)
    assert oracle_extreme_1d([F(1, 2)]) == 1
    assert discrepancy.discrepancy([F(1, 2)]).value == 1
    assert discrepancy.discrepancy([F(0), F(1, 2)]).value == F(1, 2)
    vdc4 = [p.coords[0] for p in points(VanDerCorput(2), 4)]
    assert discrepancy.discrepancy(vdc4).value == F(1, 4)
    # witnesses: the first maximizers of D+ and D-, closed or open by order
    assert str(discrepancy.discrepancy(vdc4).witness) == "[0,0]"
    assert str(discrepancy.discrepancy([F(1, 4), F(1, 2), F(3, 4)]).witness) == "[1/4,3/4]"
    assert str(discrepancy.discrepancy([F(1, 8), F(7, 8)]).witness) == "(1/8,7/8)"


def test_extreme_1d_matches_oracle_randomized():
    rng = random.Random(20240817)
    for trial in range(120):
        base = rng.choice([2, 3, 5])
        n = rng.randint(1, 12)
        pts = [random_badic(rng, base) for _ in range(n)]
        got = discrepancy.discrepancy(pts)
        want = oracle_extreme_1d(pts)
        assert got.value == want, (base, pts)
        # the witness reproduces the reported deviation exactly
        assert recount(pts, got.witness) == got.value


def test_extreme_1d_weighted_equals_expanded():
    rng = random.Random(7)
    for _ in range(40):
        base = rng.choice([2, 3])
        vals = [random_badic(rng, base) for _ in range(rng.randint(1, 5))]
        counts = [rng.randint(1, 4) for _ in vals]
        flat = [v for v, c in zip(vals, counts) for _ in range(c)]
        assert (
            discrepancy.discrepancy(vals, counts).value
            == discrepancy.discrepancy(flat).value
        )


def test_extreme_1d_rejects_empty():
    with pytest.raises(ValueError):
        discrepancy.discrepancy([])


def test_duplicate_point_lower_bound():
    rng = random.Random(99)
    for _ in range(40):
        base = rng.choice([2, 3])
        pts = [random_badic(rng, base) for _ in range(rng.randint(1, 8))]
        pts += [pts[0]] * rng.randint(0, 4)  # force multiplicity
        mult = max(pts.count(p) for p in pts)
        assert discrepancy.discrepancy(pts).value >= F(mult, len(pts))


def test_triangle_inequality_on_random_splits():
    rng = random.Random(4242)
    for _ in range(40):
        base = rng.choice([2, 3, 5])
        m = rng.randint(1, 8)
        k = rng.randint(1, 8)
        first = [random_badic(rng, base) for _ in range(m)]
        second = [random_badic(rng, base) for _ in range(k)]
        d_all = discrepancy.discrepancy(first + second).value
        d1 = discrepancy.discrepancy(first).value
        d2 = discrepancy.discrepancy(second).value
        assert (m + k) * d_all <= m * d1 + k * d2


def test_grid_single_point_at_origin():
    rep = discrepancy.discrepancy([(F(0), F(0))])
    assert rep.value == 1
    assert recount([(F(0), F(0))], rep.witness) == 1


def test_grid_matches_oracle_centered_lattice():
    pts = [(F(a, 4), F(b, 4)) for a in (1, 3) for b in (1, 3)]
    want = oracle_extreme_grid(pts, grid_den=8)  # 9x9 rational grid oracle
    got = discrepancy.discrepancy(pts)
    assert got.value == want
    assert recount(pts, got.witness) == got.value


def test_grid_matches_flagged_oracle_halton():
    pts = [p.as_fractions() for p in points(Halton((2, 3)), 9)]
    want = oracle_extreme_grid_flagged(pts)
    got = discrepancy.discrepancy(pts)
    assert got.value == want


def test_grid_matches_flagged_oracle_random():
    rng = random.Random(5150)
    for _ in range(10):
        pts = [
            (random_badic(rng, 2, 3), random_badic(rng, 3, 2))
            for _ in range(rng.randint(1, 5))
        ]
        assert discrepancy.discrepancy(pts).value == oracle_extreme_grid_flagged(pts)


def test_1d_rows_match_the_1d_oracle():
    # one-coordinate rows and bare scalars both take the 1D closed form
    rng = random.Random(11)
    for _ in range(25):
        base = rng.choice([2, 3])
        pts = [random_badic(rng, base) for _ in range(rng.randint(1, 7))]
        rows_val = discrepancy.discrepancy([(p,) for p in pts]).value
        assert rows_val == discrepancy.discrepancy(pts).value == oracle_extreme_1d(pts)


@st.composite
def badic_multisets(draw):
    """Weighted b-adic point sets with repeated coordinates, zeros and 0 weights."""
    s = draw(st.integers(1, 3))
    pools = []
    for _ in range(s):
        base = draw(st.sampled_from([2, 3, 5]))
        pool = []
        for _ in range(draw(st.integers(1, 3))):
            prec = draw(st.integers(0, 3))  # prec 0 is the coordinate 0
            pool.append(BRational(draw(st.integers(0, base**prec - 1)), base, prec))
        pools.append(pool)
    size = draw(st.integers(1, 5 if s < 3 else 3))
    pts = [
        tuple(draw(st.sampled_from(pool)) for pool in pools) for _ in range(size)
    ]
    counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if not any(counts):
        counts[0] = 1
    return pts, draw(st.sampled_from([None, counts]))


@settings(max_examples=150, deadline=None)
@given(badic_multisets(), st.sampled_from([None, 1]))
def test_grid_and_star_match_enumeration_oracles(case, chunk_cells):
    # chunk_cells=1 puts every first-axis side in its own chunk, so ties
    # between chunks must still resolve to the first maximizer
    pts, counts = case
    cells = chunk_cells or discrepancy._CHUNK_CELLS
    with mock.patch.object(discrepancy, "_CHUNK_CELLS", cells):
        got = discrepancy.discrepancy(pts, counts)
        value, witness = oracle_grid_enumeration(pts, counts)
        assert recount(pts, got.witness, counts) == got.value == value
        star = discrepancy.discrepancy(pts, counts, mode="star")
        star_value, star_witness = oracle_star_enumeration(pts, counts)
        assert recount(pts, star.witness, counts) == star.value == star_value
        if len(pts[0]) >= 2:
            # the 1D closed form breaks ties its own way, so there only values match
            assert str(got.witness) == str(witness)
            assert str(star.witness) == str(star_witness)


@pytest.mark.parametrize(
    "den_x, den_y, wide",
    [(2**30, 3**19, False), (2**40, 3**25, True), (2**60, None, False), (2**61, None, True)],
)
def test_grid_and_star_at_int64_boundary(den_x, den_y, wide):
    # N * D against 2^62 picks int64 (here just below) or exact Python ints;
    # numerators prime to 2 and 3 keep the denominators unreduced; without
    # den_y the points are 1D
    rng = random.Random(62)
    pts = []
    for _ in range(3):
        pt = (F(2 * rng.randrange(den_x // 2) + 1, den_x),)
        if den_y:
            pt += (F(3 * rng.randrange(den_y // 3) + 1, den_y),)
        pts.append(pt)
    scale = len(pts) * den_x * (den_y or 1)
    assert (scale >= 2**62) == wide
    assert scale >= 2**61
    got = discrepancy.discrepancy(pts)
    assert got.value == oracle_extreme_grid_flagged(pts)
    value, witness = oracle_grid_enumeration(pts)
    assert recount(pts, got.witness) == got.value == value
    star = discrepancy.discrepancy(pts, mode="star")
    star_value, star_witness = oracle_star_enumeration(pts)
    assert star.value == star_value
    if den_y:
        assert str(got.witness) == str(witness)
        assert str(star.witness) == str(star_witness)
    else:
        values = [x for (x,) in pts]
        assert recount(pts, star.witness) == star.value == oracle_star_1d(values)
        assert got.value == oracle_extreme_1d(values)


@st.composite
def scan_cases(draw, low=2):
    """Weighted sets of dimension low to 3 as per-axis (base, width, numerators),
    with ties, zero weights, and denominators that put n * D on both sides of 2^62."""
    s = draw(st.integers(low, 3))
    size = draw(st.integers(1, 6 if s <= 2 else 4))
    columns = []
    for _ in range(s):
        base, width = draw(st.sampled_from([(2, 2), (3, 1), (5, 2), (6, 1), (2, 30), (3, 19),
                                            (2, 62), (3, 40)]))
        pool = draw(st.lists(st.integers(0, base**width - 1), min_size=1, max_size=size))
        columns.append((base, width, [draw(st.sampled_from(pool)) for _ in range(size)]))
    counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if not any(counts):
        counts[0] = 1
    return columns, draw(st.sampled_from([None, counts]))


def twins(columns):
    """A list batch of (base, width, numerators) columns, then its int64 twin
    (object where base**width passes 2^62) and its object-array twin."""
    return [tuple(Axis(*column) for column in columns),
            *(tuple(Axis(base, width, np.array(nums, dtype=dtype or _int_dtype(base**width)))
                    for base, width, nums in columns) for dtype in (None, object))]


def one_rank_form(batches, counts):
    """The ``_rank_form`` of each batch, asserted equal and all Python ints."""
    form, *others = (discrepancy._rank_form(batch, counts) for batch in batches)
    assert all(other == form for other in others)
    axes, weights, n = form
    ints = [n, *weights, *(x for axis in axes for x in (axis[0], *axis[1], *axis[2]))]
    assert {type(x) for x in ints} == {int}
    return form


def assert_both_scans_match_the_oracles(columns, counts):
    """A list batch and its array twins give one rank form, and the
    Python-int and the numpy scan, each run from it, give the enumeration
    oracles' value and witness, grid and star.  Returns the form."""
    pts = list(zip(*([F(num, base**width) for num in nums] for base, width, nums in columns)))
    form = one_rank_form(twins(columns), counts)
    for evaluate, oracle in [(discrepancy._extreme_grid, oracle_grid_enumeration),
                             (discrepancy._star, oracle_star_enumeration)]:
        value, witness = oracle(pts, counts)
        for kernel in (discrepancy._IntKernel, discrepancy._BoxKernel):
            got = evaluate(kernel, *form)
            assert (got.value, str(got.witness)) == (value, str(witness)), kernel
    return form


@settings(max_examples=200, deadline=None)
@given(scan_cases(), st.sampled_from([None, 1]))
# axes reduced by gcd(D, *nums) to 2^1, 3^0 and 2^29, and a zero weight
@example(([(2, 2, [0, 2, 2]), (6, 1, [0, 0, 0]), (2, 30, [2, 0, 6])], [1, 0, 2]), None)
def test_both_scans_match_the_enumeration_oracles(case, chunk_cells):
    # chunk_cells=1 gives the numpy scan one leading side per chunk
    with mock.patch.object(discrepancy, "_CHUNK_CELLS", chunk_cells or discrepancy._CHUNK_CELLS):
        assert_both_scans_match_the_oracles(*case)


@settings(max_examples=300, deadline=None)
@given(scan_cases(low=1), st.sampled_from(["extreme", "star"]), st.booleans())
@example(([(2, 1, [0, 1])], None), "extreme", False)  # D+ and D- each tie at 0 and 1/2
@example(([(2, 1, [0, 1])], [1, 1]), "star", True)
def test_entry_point_gives_one_report_on_both_backends(case, mode, wide):
    # list numerators, as int_coordinates gives them, against the arrays of
    # coordinates (int64 where the denominator allows) or all-object arrays
    columns, counts = case
    listed = tuple(Axis(*column) for column in columns)
    batch = tuple(Axis(base, width, np.array(nums, dtype=object if wide else _int_dtype(base**width)))
                  for base, width, nums in columns)
    want = discrepancy.discrepancy(batch, counts, mode)
    got = discrepancy.discrepancy(listed, counts, mode)
    assert (got.value, str(got.witness), got.method) == (want.value, str(want.witness), want.method)


@pytest.mark.parametrize("counts", [[1], [1, 1, 1, 1]], ids=["short", "long"])
def test_one_multiplicity_per_point_on_every_route(counts):
    pts = [F(1, 2), F(1, 4), F(3, 4)]
    rows = [(x, x) for x in pts]
    listed = (Axis(2, 2, [2, 1, 3]),)
    arrays = (Axis(2, 2, np.array([2, 1, 3])),)
    box = discrepancy.Box((discrepancy.BoxSide(F(0), F(1), True, False),))
    calls = [
        lambda: discrepancy.discrepancy(pts, counts),
        lambda: discrepancy.discrepancy(pts, counts, mode="star"),
        lambda: discrepancy.discrepancy(rows, counts),
        lambda: discrepancy.discrepancy(rows, counts, mode="star"),
        lambda: discrepancy.discrepancy(listed, counts),
        lambda: discrepancy.discrepancy(listed * 2, counts, "star"),
        lambda: discrepancy.discrepancy(arrays * 2, counts),
        lambda: recount(pts, box, counts),
        lambda: recount(arrays, box, counts),
        lambda: recount(listed, box, counts),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="one multiplicity per point"):
            call()


@pytest.mark.parametrize(
    "points",
    [
        [(F(1, 2), F(1, 3)), (F(1, 4),)],  # ragged rows
        [(F(1, 2),), F(1, 4)],  # a row and a scalar
        [()],
        [F(1, 2), F(-1, 2)],
        [(F(1, 2), F(1))],
        (Axis(2, 2, [1, 2]), Axis(2, 2, [1])),
        (Axis(2, 2, np.array([1, 2])), Axis(2, 2, np.array([1]))),
        (Axis(2, 1, [0, 2]),),
        (Axis(2, 1, np.array([0, 2])),),
        (Axis(2, 1, [-1, 0]),),
        (Axis(2, 1, np.array([-1, 0])),),
        (Axis(2, 1, [0, 1]), Axis(2, 1, np.array([1, 0]))),  # lists and arrays in one batch
    ],
    ids=["ragged", "row-and-scalar", "no-coordinate", "negative-fraction", "fraction-1",
         "short-axis-lists", "short-axis-arrays", "num-at-den-list", "num-at-den-array",
         "negative-list", "negative-array", "mixed-forms"],
)
def test_one_point_check_on_every_route(points):
    # every reader of points rejects what lies outside [0, 1)^s or has no
    # one dimension, as every route reads them through one check
    box = discrepancy.Box((discrepancy.BoxSide(F(0), F(1), True, False),) * 2)
    calls = [
        lambda: discrepancy.discrepancy(points),
        lambda: discrepancy.discrepancy(points, mode="star"),
        lambda: recount(points, box),
        lambda: check_net(points, 2, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "dens, wide",
    [((2**30, 3**19), False), ((2**40, 3**25), True), ((2**20, 3**12, 5**9), False),
     ((2**21, 3**12, 5**9), True)],
)
def test_both_scans_at_int64_boundary(dens, wide):
    # numerators prime to the base keep each denominator unreduced, so with 3
    # points n * D lands just below 2^62 (int64) or past it (exact ints)
    rng = random.Random(62)
    columns = []
    for den in dens:
        base = next(b for b in (2, 3, 5) if den % b == 0)
        width = round(math.log(den, base))
        columns.append((base, width, [base * rng.randrange(den // base) + 1 for _ in range(3)]))
    assert (3 * math.prod(dens) >= 2**62) == wide
    form = assert_both_scans_match_the_oracles(columns, None)
    assert discrepancy._BoxKernel(*form).dtype == (object if wide else np.int64)
    assert_both_scans_match_the_oracles(columns, [2, 0, 1])
    # the same points over one more digit: each axis is reduced by its base
    widened = [(base, width + 1, [base * x for x in nums]) for base, width, nums in columns]
    assert assert_both_scans_match_the_oracles(widened, [2, 0, 1]) == (form[0], [2, 0, 1], 3)


def test_grid_budget_counts_scan_cells(monkeypatch):
    # 18 Halton points, one at the origin: the first axis has 18 * 19 / 2 = 171
    # closed sides and 171 + 18 open ones, the wall at 0 listed twice; each of
    # these rows scans the 18 last-axis values plus one
    pts = [p.as_fractions() for p in points(Halton((2, 3)), 18)]
    cells = (171 + 189) * 19
    monkeypatch.setattr(discrepancy, "DEFAULT_CELL_BUDGET", cells)
    discrepancy.discrepancy(pts)
    monkeypatch.setattr(discrepancy, "DEFAULT_CELL_BUDGET", cells - 1)
    with pytest.raises(BudgetExceededError, match=f"{cells} scan cells"):
        discrepancy.discrepancy(pts)
    monkeypatch.setattr(discrepancy, "DEFAULT_CELL_BUDGET", 19**2)
    discrepancy.discrepancy(pts, mode="star")
    monkeypatch.setattr(discrepancy, "DEFAULT_CELL_BUDGET", 19**2 - 1)
    with pytest.raises(BudgetExceededError, match="361 star corners"):
        discrepancy.discrepancy(pts, mode="star")


def test_grid_budget_at_its_default():
    # 300 points are 27.2 million cells, 400 are 64.5 million, over 2^25
    pts = [p.as_fractions() for p in points(Halton((2, 3)), 400)]
    with pytest.raises(BudgetExceededError, match="64480800 scan cells exceed the budget of "
                       "33554432 cells; consider the star-discrepancy proxy"):
        discrepancy.discrepancy(pts)


@pytest.mark.parametrize("form", [int_coordinates, coordinates], ids=["lists", "arrays"])
@pytest.mark.parametrize("mode, n, match", [("extreme", 400, "64480800 scan cells"),
                                            ("star", 5792, "33558849 star corners")],
                         ids=["extreme", "star"])
def test_budget_refuses_before_any_kernel_is_built(form, mode, n, match):
    # 5793^2 corners are the first past 2^25
    batch = form(parse_spec("halton:2,3"), range(n))
    with mock.patch.object(discrepancy._IntKernel, "__init__", side_effect=AssertionError), \
            mock.patch.object(discrepancy._BoxKernel, "__init__", side_effect=AssertionError):
        with pytest.raises(BudgetExceededError, match=match):
            discrepancy.discrepancy(batch, mode=mode)


@pytest.mark.parametrize("mode, n, kernel", [
    ("extreme", 63, "_IntKernel"), ("extreme", 64, "_BoxKernel"),
    ("star", 511, "_IntKernel"), ("star", 512, "_BoxKernel"),
])
def test_converted_points_take_their_kernel_at_the_cut(mode, n, kernel):
    # 63 points are 2^18 extreme-grid cells and 511 points 2^18 star corners,
    # the most that _on_python_ints sends to Python ints
    spies = {name: mock.patch.object(discrepancy, name, wraps=getattr(discrepancy, name))
             for name in ("_IntKernel", "_BoxKernel")}
    with spies["_IntKernel"] as ints, spies["_BoxKernel"] as arrays:
        discrepancy.discrepancy(points(Halton((2, 3)), n), mode=mode)
    assert (ints.call_count, arrays.call_count) == ((1, 0) if kernel == "_IntKernel" else (0, 1))


@pytest.mark.parametrize("batch", [
    (Axis(2, 3, [1.5, 3.0]),),
    (Axis(2, 3, np.array([1.5, 3.0])),),
    (Axis(2, 3, np.array([1, 2.5], dtype=object)),),
    (Axis(2, 3, np.array([True, False])),),
    (Axis(2, -1, [0]),),
    (Axis(2, 1.0, [0]),),
    (Axis(1, 3, [0]),),
    (Axis(2.0, 3, [1]),),
], ids=["float-list", "float-array", "float-in-object-array", "bool-array", "negative-width",
        "float-width", "base-1", "float-base"])
@pytest.mark.parametrize("reader", ["discrepancy", "recount", "check_net"])
def test_unreadable_axes_are_refused(batch, reader):
    # bases, widths and numerators that no evaluator reads are refused where
    # every reader reads its points, not answered wrongly further on
    box = discrepancy.Box((discrepancy.BoxSide(F(0), F(1), True, False),))
    call = {"discrepancy": lambda: discrepancy.discrepancy(batch),
            "recount": lambda: recount(batch, box),
            "check_net": lambda: check_net(batch, 2, 0)}[reader]
    with pytest.raises(ValueError, match="int base|must be ints"):
        call()


def test_grid_budget_error_mentions_star(monkeypatch):
    pts = [p.as_fractions() for p in points(Halton((2, 3)), 40)]
    monkeypatch.setattr(discrepancy, "DEFAULT_CELL_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match="star"):
        discrepancy.discrepancy(pts)


def test_star_examples():
    half = discrepancy.discrepancy([F(1, 2)], mode="star")
    assert half.value == F(1, 2)
    vdc4 = [p.coords[0] for p in points(VanDerCorput(2), 4)]
    star = discrepancy.discrepancy(vdc4, mode="star")
    assert star.value == F(1, 4)
    assert str(star.witness) == "[0,0]"  # the first maximizer
    assert str(half.witness) == "[0,1/2)"  # [0, y) wins a tie at y
    # a single point close to 1 pushes the anchored deviation toward 1
    assert discrepancy.discrepancy([F(63, 64)], mode="star").value == F(63, 64)


def test_star_matches_oracle_1d():
    rng = random.Random(2718)
    for _ in range(60):
        base = rng.choice([2, 3, 5])
        pts = [random_badic(rng, base) for _ in range(rng.randint(1, 10))]
        assert discrepancy.discrepancy(pts, mode="star").value == oracle_star_1d(pts)


def test_star_extreme_sandwich():
    rng = random.Random(314)
    for _ in range(30):
        pts = [
            (random_badic(rng, 2), random_badic(rng, 3))
            for _ in range(rng.randint(1, 6))
        ]
        star = discrepancy.discrepancy(pts, mode="star").value
        extreme = discrepancy.discrepancy(pts).value
        assert star <= extreme <= 4 * star
    # and in one dimension
    for _ in range(30):
        pts = [random_badic(rng, 2) for _ in range(rng.randint(1, 10))]
        star = discrepancy.discrepancy(pts, mode="star").value
        extreme = discrepancy.discrepancy(pts).value
        assert star <= extreme <= 2 * star


def test_windowed_examples():
    v = VanDerCorput(2)
    # degenerate window equals the plain discrepancy
    plain = discrepancy.discrepancy([p.coords[0] for p in points(v, 5)]).value
    shifted = []
    for k in range(9):
        block = [v.point(i).coords[0] for i in range(k, k + 3)]
        shifted.append(discrepancy.discrepancy(block).value)
    assert windowed_uniform_discrepancy(v, None, 2, 0).value == F(1, 2)
    assert windowed_uniform_discrepancy(v, None, 5, 0).value == plain
    rep = windowed_uniform_discrepancy(v, None, 3, 8)
    assert rep.value == max(shifted)
    assert shifted[rep.shift] == rep.value


def _assert_window_matches_per_shift(spec, transform, n, k_max, mode):
    """The window against every shift evaluated on its own."""
    apply = transform.apply if transform else (lambda i: i)
    per_shift = [
        discrepancy.discrepancy([spec.point(apply(i)) for i in range(k, k + n)], mode=mode)
        for k in range(k_max + 1)
    ]
    values = [r.value for r in per_shift]
    rep = windowed_uniform_discrepancy(spec, transform, n, k_max, mode)
    assert rep.value == max(values)
    assert rep.shift == values.index(rep.value)  # the first maximizing shift
    assert str(rep.witness) == str(per_shift[rep.shift].witness)
    assert rep.method == f"windowed-{mode}"


@pytest.mark.parametrize("mode", ["extreme", "star"])
@pytest.mark.parametrize("transform", [None, "sod:2", "pow:1/2"])
@pytest.mark.parametrize("spec", ["vdc:2", "vdc:3", "halton:5", "pascal:3,1,6"])
def test_windowed_1d_matches_per_shift(spec, transform, mode):
    # every 1D spec, transformed or not, takes the sliding closed form
    spec = parse_spec(spec)
    transform = parse_transform(transform) if transform else None
    for n in (1, 2, 5, 9):
        for k_max in (0, 3, 17):
            _assert_window_matches_per_shift(spec, transform, n, k_max, mode)


def dense_3_40():
    """A dense 40-digit matrix over F_3: coordinates over 3^40, so n * den
    passes 2^62."""
    rng = random.Random(40)
    rows = tuple(tuple(rng.randrange(3) for _ in range(40)) for _ in range(40))
    return DigitalSequence(3, (GeneratorMatrix(3, rows),), 40)


@pytest.mark.parametrize("mode", ["extreme", "star"])
@pytest.mark.parametrize("transform", [None, "sod:2"])
def test_windowed_1d_exact_int_branch(transform, mode):
    spec = dense_3_40()
    transform = parse_transform(transform) if transform else None
    window = [transform.apply(i) if transform else i for i in range(6 + 4)]
    den = math.lcm(*(spec.point(i).coords[0].as_fraction().denominator for i in window))
    assert den == 3**40 > 2**62
    for n in (1, 4):
        _assert_window_matches_per_shift(spec, transform, n, 6, mode)


def test_windowed_with_transform():
    from lowdisc import SumOfDigits

    v = VanDerCorput(2)
    by_hand = []
    for k in range(6):
        idx = [SumOfDigits(2).apply(i) for i in range(k, k + 4)]
        by_hand.append(
            discrepancy.discrepancy([v.point(i).coords[0] for i in idx]).value
        )
    rep = windowed_uniform_discrepancy(v, SumOfDigits(2), 4, 5)
    assert rep.value == max(by_hand)
    assert rep.shift == by_hand.index(rep.value)  # the first maximizing shift


WINDOW_SPECS = {name: parse_spec(name) for name in
                ("vdc:2", "vdc:3", "vdc:5", "halton:5", "pascal:3,1,6")}
WINDOW_SPECS["dense-3^40"] = dense_3_40()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(WINDOW_SPECS)),
    st.sampled_from([None, "sod:2", "sod:3", "pow:1/2", "pow:2/3"]),
    st.sampled_from(["extreme", "star"]),
    st.integers(1, 300),
    st.integers(0, 600),
)
@example("vdc:2", None, "extreme", 1, 0)
@example("vdc:3", "pow:2/3", "star", 1, 40)
@example("dense-3^40", "sod:3", "extreme", 12, 0)
# runs of load to 2 * load values: sod and floor powers repeat indices, so
# values tie, runs fill up and split, whole runs empty, and a full run's last
# value holds the block's extreme
@example("vdc:2", None, "extreme", 300, 600)
@example("vdc:5", "sod:2", "star", 289, 600)
@example("vdc:3", "pow:2/3", "extreme", 300, 600)
@example("halton:5", "pow:1/2", "star", 64, 600)
@example("vdc:5", "pow:1/2", "extreme", 64, 342)
@example("halton:5", "sod:2", "star", 99, 419)
def test_python_int_window_matches_array_window(name, transform, mode, n, k_max):
    # the run window against the array window's per-block sort, kept as a
    # reference in the oracles: value and first maximizing shift; then the
    # whole report, witness included, and the winning block against the
    # interval oracles while they are cheap
    spec = WINDOW_SPECS[name]
    transform = parse_transform(transform) if transform else None
    if name == "pascal:3,1,6" and transform is None:
        k_max = max(0, min(k_max, 3**6 - n))
        n = min(n, 3**6)
    indices = [transform.apply(i) if transform else i for i in range(k_max + n)]
    axis, = int_coordinates(spec, indices)
    den = axis.base**axis.width
    shift, value = discrepancy._window_1d(axis, n, k_max, mode)
    assert (shift, value) == oracle_window_1d(axis.nums, den, n, k_max, mode)
    rep = windowed_uniform_discrepancy(spec, transform, n, k_max, mode)
    assert (rep.shift, rep.value) == (shift, value)
    block = [Fraction(x, den) for x in axis.nums[shift : shift + n]]
    assert recount(block, rep.witness) == value
    if n <= 24:
        assert (oracle_extreme_1d if mode == "extreme" else oracle_star_1d)(block) == value


# one sorted block below n = 2 * 8, runs of 8 to 16 values from there, and
# runs of isqrt(n) from n = 81: each boundary and its two sides
@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 80, 81, 82, 99, 100])
@pytest.mark.parametrize("name, transform", [("vdc:2", None), ("vdc:3", "sod:2"), ("vdc:5", "pow:1/2")])
def test_window_1d_at_run_length_boundaries(n, name, transform):
    spec = parse_spec(name)
    transform = parse_transform(transform) if transform else None
    k_max = 3 * n + 40
    indices = [transform.apply(i) if transform else i for i in range(k_max + n)]
    axis, = int_coordinates(spec, indices)
    for mode in ("extreme", "star"):
        want = oracle_window_1d(axis.nums, axis.base**axis.width, n, k_max, mode)
        assert discrepancy._window_1d(axis, n, k_max, mode) == want


def test_windowed_star_mode_2d():
    h = Halton((2, 3))
    rep = windowed_uniform_discrepancy(h, None, 4, 3, mode="star")
    per_shift = [discrepancy.discrepancy(points(h, 4, start=k), mode="star") for k in range(4)]
    values = [r.value for r in per_shift]
    assert rep.value == max(values)
    assert rep.shift == values.index(rep.value)
    assert str(rep.witness) == str(per_shift[rep.shift].witness)
    assert rep.method == "windowed-star"


def oracle_1d(oracle):
    """A 1D oracle on points weighted by counts, each repeated that often."""
    return lambda pts, counts: oracle([p for p, c in zip(pts, counts) for _ in range(c)])


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "spec,mode,method,oracle",
    [
        (VanDerCorput(3), "extreme", "exact-1d", oracle_1d(oracle_extreme_1d)),
        (VanDerCorput(3), "star", "star-1d", oracle_1d(oracle_star_1d)),
        (Halton((2, 3)), "extreme", "exact-grid", oracle_extreme_grid_flagged),
        (Halton((2, 3)), "star", "star-grid", lambda *case: oracle_star_enumeration(*case)[0]),
    ],
    ids=["1d-extreme", "1d-star", "2d-extreme", "2d-star"],
)
def test_dispatch_matches_direct_evaluator(spec, mode, method, oracle, weighted):
    # the dispatcher against the brute-force oracles, and its witness recounted
    pts = points(spec, 11, start=3)
    counts = [1 + i % 3 for i in range(len(pts))] if weighted else None
    rep = discrepancy.discrepancy(pts, counts, mode)
    rows = [p.as_fractions() for p in pts]
    assert rep.method == method
    assert rep.value == oracle([x for (x,) in rows] if spec.dimension == 1 else rows,
                               counts or [1] * len(pts))
    assert recount(pts, rep.witness, counts) == rep.value


def test_dispatch_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        discrepancy.discrepancy([F(1, 2)], mode="uniform")


def as_fraction_rows(batch):
    """The points of an Axis batch as tuples of Fractions, built by hand."""
    cols = [[Fraction(num, a.base**a.width) for num in a.nums.tolist()] for a in batch]
    return list(zip(*cols))


@st.composite
def axis_batches(draw):
    """Weighted Axis batches with ties, zeros, zero weights, int64 or object numerators."""
    s = draw(st.integers(1, 3))
    size = draw(st.integers(1, 5 if s < 3 else 3))
    dtype = draw(st.sampled_from([np.int64, object]))
    batch = []
    for _ in range(s):
        base, width = draw(st.sampled_from([2, 3, 5, 6])), draw(st.integers(0, 4))
        pool = draw(st.lists(st.integers(0, base**width - 1), min_size=1, max_size=3))
        nums = [draw(st.sampled_from(pool)) for _ in range(size)]
        batch.append(Axis(base, width, np.array(nums, dtype=dtype)))
    counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if not any(counts):
        counts[0] = 1
    return tuple(batch), draw(st.sampled_from([None, counts]))


def assert_integer_input_matches_fractions(batch, counts=None):
    """Both modes give the same report for the batch and its Fractions, and
    recount checks the witness from the batch."""
    pts = as_fraction_rows(batch)
    for mode in ("extreme", "star"):
        got, want = (discrepancy.discrepancy(p, counts, mode) for p in (batch, pts))
        assert (got.n, got.value, str(got.witness), got.method) == (
            want.n, want.value, str(want.witness), want.method
        )
        assert recount(batch, got.witness, counts) == got.value


@settings(max_examples=200, deadline=None)
@given(axis_batches())
def test_integer_input_matches_fraction_input(case):
    assert_integer_input_matches_fractions(*case)


@pytest.mark.parametrize(
    "dens", [(2**60,), (2**61,), (3**40,), (2**30, 3**19), (2**40, 3**25)],
    ids=["2^60", "2^61", "3^40", "2^30*3^19", "2^40*3^25"],
)
def test_integer_input_at_int64_boundary(dens):
    # numerators prime to the base keep each denominator unreduced, so N * D
    # straddles 2^62 as in test_grid_and_star_at_int64_boundary
    rng = random.Random(62)
    batch = []
    for den in dens:
        base = 2 if den % 2 == 0 else 3
        width = round(math.log(den, base))
        nums = [base * rng.randrange(den // base) + 1 for _ in range(3)]
        batch.append(Axis(base, width, np.array(nums, dtype=np.int64 if den < 2**62 else object)))
    assert_integer_input_matches_fractions(tuple(batch))
    assert_integer_input_matches_fractions(tuple(batch), [2, 0, 1])


def test_integer_input_reduces_its_denominator():
    # 81 points of a 40-digit sequence are numerators over 3^40, but they are
    # multiples of 3^36: every form of them (lists, object arrays, and their
    # Fractions read as lists, int64 arrays or object arrays) has one rank
    # form over 3^4, from which both kernels scan in int64 to one report
    spec = parse_spec("pascal:3,2,40")
    batch = coordinates(spec, range(81))
    assert batch[0].nums.dtype == object
    converted = _as_batch(as_fraction_rows(batch))
    twin = tuple(Axis(a.base, a.width, np.array(a.nums, dtype=object)) for a in converted)
    forms = [int_coordinates(spec, range(81)), batch, converted, _as_arrays(converted), twin]
    form = one_rank_form(forms, [k % 3 for k in range(81)])  # zero weights among them
    assert [den for den, _, _ in form[0]] == [3**4, 3**4]
    assert discrepancy._BoxKernel(*form).dtype is np.int64
    for evaluate in (discrepancy._extreme_grid, discrepancy._star):
        ints, arrays = (evaluate(kernel, *form) for kernel in (discrepancy._IntKernel,
                                                               discrepancy._BoxKernel))
        assert (ints.value, str(ints.witness)) == (arrays.value, str(arrays.witness))
    # in 1D the closed form reduces its array axis alike
    for points in (batch[:1], _as_arrays(converted[:1])):
        den, nums = discrepancy._lowest_terms(points[0], 81)
        assert den == 3**4 and nums.dtype == np.int64
        assert_integer_input_matches_fractions(points)
    assert_integer_input_matches_fractions(batch)


@pytest.mark.parametrize(
    "counts", [[2**63 + 1, 1, 3], [2**64 - 1, 2, 0], [10**30, 0, 7]], ids=["2^63", "2^64", "10^30"]
)
def test_huge_multiplicities_stay_exact(counts):
    # numpy reads a list that mixes small ints with ints in [2**63, 2**64) as
    # floats; digit-sum multiplicities reach that range at N = 5**29
    pts = [(F(0),), (F(1, 4),), (F(1, 2),)]
    value, _ = oracle_grid_enumeration(pts, counts)
    closed_form = discrepancy.discrepancy(pts, counts)
    assert recount(pts, closed_form.witness, counts) == closed_form.value == value
    star = discrepancy.discrepancy(pts, counts, mode="star")
    star_value, _ = oracle_star_enumeration(pts, counts)
    assert recount(pts, star.witness, counts) == star.value == star_value
    # the s >= 2 scan on the same weights
    rows = [(x, x) for (x,) in pts]
    value, witness = oracle_grid_enumeration(rows, counts)
    got = discrepancy.discrepancy(rows, counts)
    assert (got.value, str(got.witness)) == (value, str(witness))
    assert_integer_input_matches_fractions((Axis(2, 2, np.array([0, 1, 2])),), counts)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("mode", ["extreme", "star"])
@pytest.mark.parametrize("spec", ["vdc:3", "halton:2,3", "halton:2,3,5"])
def test_every_input_form_gives_one_report(spec, mode, weighted):
    # one multiset, with a repeated index and a zero weight, given as Fraction
    # rows, Points, BRational scalars (1D), and array or list batches
    spec = parse_spec(spec)
    indices = [4, 0, 7, 4, 2, 9]
    counts = [2, 1, 0, 1, 3, 1] if weighted else None
    pts = [spec.point(i) for i in indices]
    forms = {
        "rows": [p.as_fractions() for p in pts],
        "points": pts,
        "arrays": coordinates(spec, indices),
        "lists": int_coordinates(spec, indices),
    }
    if spec.dimension == 1:
        forms["scalars"] = [p.coords[0] for p in pts]
    reports = {}
    for name, form in forms.items():
        rep = discrepancy.discrepancy(form, counts, mode)
        reports[name] = (rep.value, str(rep.witness), rep.method)
        assert recount(form, rep.witness, counts) == rep.value, name
    assert len(set(reports.values())) == 1, reports
