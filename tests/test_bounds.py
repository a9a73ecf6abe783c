import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import (
    Envelope,
    FloorPower,
    Halton,
    SumOfDigits,
    TableTransform,
    UnimodalityError,
    VanDerCorput,
    alpha_corollary_check,
    bound_holds,
    fit_monotone_constant,
    general_lower,
    general_sandwich,
    general_upper,
    halton_uniform_main_term,
    measured_delta_table,
    measured_envelope,
    monotone_hypotheses,
    monotone_lower,
    monotone_upper,
    transformed_discrepancy,
    uniform_bound_ts,
    windowed_uniform_discrepancy,
)
from lowdisc import bounds, value_counts_below
from lowdisc.discrepancy import discrepancy
from lowdisc.generators import Axis, coordinates
from oracles import oracle_digit_sums, oracle_extreme_1d, oracle_star_1d


def test_bound_holds_exact_sides_have_zero_tolerance():
    measured = Fraction(1, 3)
    assert bound_holds(measured, measured, None)
    assert not bound_holds(measured * (1 + Fraction(1, 10**30)), measured, None)


def test_bound_holds_float_side_gets_slack():
    assert bound_holds(Fraction(0), Fraction(1), 1.0 - 1e-10)
    assert not bound_holds(Fraction(0), Fraction(1), 1.0 - 1e-8)
    assert bound_holds(0.5 + 1e-10, 0.5, None)


def test_bound_holds_none_side_is_skipped():
    assert bound_holds(Fraction(1, 2), Fraction(1, 2), None)
    assert bound_holds(None, 10**9, None)


@pytest.mark.parametrize(
    "lower,measured,upper",
    [(math.nan, 0.5, 1.0), (0.0, math.nan, 1.0), (0.0, 0.5, math.nan), (None, Fraction(1), math.nan)],
)
def test_bound_holds_nan_side_fails(lower, measured, upper):
    assert not bound_holds(lower, measured, upper)


def test_general_lower_examples():
    t = SumOfDigits(2)
    assert general_lower(t, 4) == 6  # C(4, 2)
    assert general_lower(SumOfDigits(3), 2) == 3
    assert general_lower(t, 0) == 1


def test_general_upper_constant_envelope_example():
    t = SumOfDigits(2)
    res = general_upper(t, Envelope.constant(1.0), d=2)
    # sum_{j<=2} 2 * G_j * 1 = 2 (1 + 1 + 2) = 8
    assert res.value == pytest.approx(8.0)
    assert [term[2] for term in res.per_j] == [1, 1, 2]
    assert res.flags == {"unimodality_verified": True, "envelope_source": "constant"}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_general_upper_sod_rows_match_closed_form(q):
    # G_j = max_k #{n < q^j : s_q(n) = k} and v_j = j(q-1) + 1, counted by brute force
    res = general_upper(SumOfDigits(q), Envelope.constant(1.0), 8)
    assert [row[0] for row in res.per_j] == list(range(9))
    for j, ratio, g_j, v_j, _, _ in res.per_j:
        counts = np.bincount(oracle_digit_sums(q, q**j))
        assert ratio == q
        assert g_j == counts.max()
        assert v_j == len(counts) == j * (q - 1) + 1


def test_general_upper_d0_case():
    res = general_upper(SumOfDigits(2), Envelope.constant(3.5), d=0)
    assert res.value == pytest.approx(2 * 1 * 3.5)


def test_general_upper_refuses_non_unimodal_blocks(monkeypatch):
    # a bimodal profile at level 1 stands in for a digit-sum distribution
    real = bounds._block_levels
    fake = [2, 1, 3, 2]
    monkeypatch.setattr(
        bounds, "_block_levels",
        lambda q, d: (fake if j == 1 else level for j, level in enumerate(real(q, d))),
    )
    with pytest.raises(UnimodalityError) as err:
        general_upper(SumOfDigits(2), Envelope.constant(1.0), d=2)
    assert err.value.level == 1


def test_measured_envelope_is_nondecreasing():
    env = measured_envelope(VanDerCorput(2), 12)
    values = [env(n) for n in range(1, 13)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert env(1) >= 1.0  # a single point has discrepancy 1
    with pytest.raises(ValueError):
        env(13)


def test_transformed_discrepancy_matches_direct_pointset():
    spec = VanDerCorput(2)
    t = SumOfDigits(2)
    for n in (1, 5, 16, 100):
        direct = discrepancy([spec.point(t.apply(i)).coords[0] for i in range(n)])
        weighted = transformed_discrepancy(spec, t, n)
        assert weighted.value == direct.value


def report_key(rep):
    return rep.n, rep.value, rep.method, str(rep.witness)


@st.composite
def index_transforms(draw):
    kind = draw(st.sampled_from(["none", "sod", "pow", "table"]))
    if kind == "sod":
        return SumOfDigits(draw(st.integers(2, 7)))
    if kind == "pow":
        pairs = [(u, v) for v in range(2, 6) for u in range(1, v) if math.gcd(u, v) == 1]
        return FloorPower(*draw(st.sampled_from(pairs)))
    if kind == "table":
        steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=80))
        return TableTransform(tuple(itertools.accumulate(steps)))
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([VanDerCorput(b) for b in range(2, 8)] + [Halton((b,)) for b in range(2, 8)]),
    index_transforms(),
    st.integers(1, 3000),
    st.sampled_from(["extreme", "star"]),
)
def test_scalar_1d_matches_the_array_path(spec, transform, n, mode):
    if isinstance(transform, TableTransform):
        n = min(n, len(transform.values))
    if transform is None:
        indices, counts = list(range(n)), None
    else:
        multiplicity = value_counts_below(transform, n)
        indices, counts = list(multiplicity), list(multiplicity.values())
    batch = coordinates(spec, indices)
    want = report_key(discrepancy(batch, counts, mode))
    (axis,) = batch
    listed = (axis._replace(nums=axis.nums.tolist()),)  # evaluated by the scalar 1D form
    assert report_key(discrepancy(listed, counts, mode)) == want
    assert report_key(transformed_discrepancy(spec, transform, n, mode)) == want


@pytest.mark.parametrize("mode", ["extreme", "star"])
@pytest.mark.parametrize(
    "spec,transform,n",
    [(VanDerCorput(10**9 + 7), None, 3), (VanDerCorput(10**6 + 3), SumOfDigits(2), 200),
     (Halton((2, 10**6 + 3)), None, 20), (Halton((10**9 + 7, 3)), SumOfDigits(3), 60)],
    ids=["vdc-1e9+7", "vdc-1e6+3-sod", "halton-2-1e6+3", "halton-1e9+7-3-sod"],
)
def test_large_bases_on_python_ints_match_the_arrays(spec, transform, n, mode):
    # small multisets with a base far above the digit-reversal table's 1024
    if transform is None:
        indices, counts = list(range(n)), None
    else:
        multiplicity = value_counts_below(transform, n)
        indices, counts = list(multiplicity), list(multiplicity.values())
    want = report_key(discrepancy(coordinates(spec, indices), counts, mode))
    assert report_key(transformed_discrepancy(spec, transform, n, mode)) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.integers(0, 3), st.data())
def test_scalar_1d_matches_the_oracles_and_weighted_arrays(b, width, data):
    den = b**width
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=1, max_size=12))
    points = [Fraction(x, den) for x in nums]
    listed = (Axis(b, width, nums),)  # evaluated by the scalar 1D form
    assert discrepancy(listed, None, "extreme").value == oracle_extreme_1d(points)
    assert discrepancy(listed, None, "star").value == oracle_star_1d(points)
    # weighted, with repeated values and zero weights
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(nums), max_size=len(nums)))
    counts[0] += not any(counts)
    batch = (Axis(b, width, np.array(nums, dtype=np.int64)),)
    for mode in ("extreme", "star"):
        want = report_key(discrepancy(batch, counts, mode))
        assert report_key(discrepancy(listed, counts, mode)) == want


@pytest.mark.parametrize(
    "nums, counts, mode",
    [([], None, "extreme"), ([1, 3], [0, 0], "star"), ([1, 3], [2, -1], "extreme"),
     ([1], None, "both"), ([1, 3], [1], "extreme"), ([1, 3], [1, 1, 1], "star")],
    ids=["empty", "zero-weight", "negative", "mode", "short-counts", "long-counts"],
)
def test_scalar_1d_raises_what_the_array_path_raises(nums, counts, mode):
    with pytest.raises(ValueError) as want:
        discrepancy((Axis(2, 2, np.array(nums, dtype=np.int64)),), counts, mode)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        discrepancy((Axis(2, 2, nums),), counts, mode)


def test_general_sandwich_small():
    reports = general_sandwich(VanDerCorput(2), SumOfDigits(2), d_max=8)
    for d, rep in enumerate(reports):
        assert rep.lower == math.comb(d, d // 2)
        assert rep.holds, (d, rep)
        assert rep.lower <= rep.measured
        assert float(rep.measured) <= rep.upper


def test_general_sandwich_rejects_other_transforms():
    with pytest.raises(ValueError) as err:
        general_sandwich(VanDerCorput(2), FloorPower(1, 2), d_max=2)
    assert str(err.value) == "the sandwich driver currently covers the digit-sum transform"


def test_monotone_lower_examples():
    t = FloorPower(1, 2)
    assert monotone_lower(t, 10) == Fraction(5, 10)  # f(10)=3, F(2)=5
    assert monotone_lower(t, 100) == Fraction(19, 100)  # f(100)=10, F(9)=19
    assert monotone_lower(t, 1) == Fraction(1)  # f(1)=1 > f(0): F(0)/1
    table = TableTransform((0, 0, 0, 0))
    assert monotone_lower(table, 3) == 0  # f(N) == f(0): degenerate branch


def test_monotone_lower_requires_monotone():
    with pytest.raises(ValueError):
        monotone_lower(SumOfDigits(2), 4)


def test_monotone_lower_below_exact_discrepancy():
    spec = VanDerCorput(2)
    for u, v in ((1, 2), (1, 3), (2, 3)):
        t = FloorPower(u, v)
        for n in (2, 16, 128, 1024):
            lower = monotone_lower(t, n)
            measured = transformed_discrepancy(spec, t, n).value
            assert lower <= measured


def test_monotone_hypotheses_flags():
    hyp = monotone_hypotheses(FloorPower(1, 2), n_max=500, k_max=200)
    assert hyp["f_monotone_surjective"]
    assert hyp["F_monotonicity"] == "monotone"
    # ceiling jitter: F for alpha=2/3 dips by one infinitely often
    hyp23 = monotone_hypotheses(FloorPower(2, 3), n_max=500, k_max=200)
    assert hyp23["f_monotone_surjective"]
    assert hyp23["F_monotonicity"] == "unit-jitter"


def test_monotone_upper_shape():
    t = FloorPower(1, 2)
    # F(f(9)+1) = F(4) = 9
    from lowdisc import multiplicity_F

    assert multiplicity_F(t, t.apply(9) + 1) == 9
    val = monotone_upper(t, 10, s=1, fitted_c=1.0)
    assert val == pytest.approx(2 * 9 * math.log(10) / 10)


def test_fitted_monotone_constant_dominates_calibration_and_extension():
    spec = VanDerCorput(2)
    t = FloorPower(1, 2)
    cal = [2**d for d in range(1, 7)]
    c = fit_monotone_constant(t, 1, {n: transformed_discrepancy(spec, t, n).value for n in cal})
    for n in cal + [256, 1024, 4096]:
        measured = float(transformed_discrepancy(spec, t, n).value)
        assert measured <= monotone_upper(t, n, 1, c) * (1 + 1e-9) + 1e-12


def test_alpha_corollary_window_and_band():
    spec = VanDerCorput(2)
    rows, stats = alpha_corollary_check(
        spec, FloorPower(1, 2), [2**d for d in range(1, 11)]
    )
    # F(k) k^(1-1/alpha) = (2k+1)/k in [2, 3] for k >= 1
    assert 2.0 <= stats["f_window_min"] <= stats["f_window_max"] <= 3.0
    scaled = [row.scaled for row in rows]
    assert max(scaled) / min(scaled) < 100  # two-decade band


def test_uniform_bound_examples():
    delta = {m: 1.0 for m in range(0, 4)}
    # (2b-1)(t b^t + sum Delta) = 3 * (0 + 4) at N=8, b=2
    assert uniform_bound_ts(2, 0, 8, delta) == pytest.approx(12.0)
    # trivial branch N < b^t
    assert uniform_bound_ts(2, 3, 7, {}) == 7.0
    with pytest.raises(ValueError, match="missing"):
        uniform_bound_ts(2, 0, 64, {0: 1.0})
    # a base below 2 never reaches N by powers, and t < 0 has no net levels
    for b, t in ((1, 0), (0, 0), (2, -1)):
        with pytest.raises(ValueError, match="need a base b >= 2 and t >= 0"):
            uniform_bound_ts(b, t, 8, {})


def test_measured_delta_table_vdc():
    # every aligned van der Corput block is a shifted grid: b^m * D = 1 exactly
    table = measured_delta_table(VanDerCorput(2), 2, 0, m_max=6, blocks=8)
    for m, val in table.items():
        assert val == pytest.approx(1.0)


def test_windowed_below_uniform_bound():
    spec = VanDerCorput(2)
    delta = measured_delta_table(spec, 2, 0, m_max=7, blocks=8)
    for d in range(0, 8):
        n = 2**d
        rep = windowed_uniform_discrepancy(spec, None, n, 4 * n)
        assert float(n * rep.value) <= uniform_bound_ts(2, 0, n, delta) + 1e-9


def test_halton_main_term_examples():
    for d in (1, 5, 12):
        assert halton_uniform_main_term([2], 2**d) == pytest.approx(d + 1)
        assert halton_uniform_main_term([3], 3**d) == pytest.approx(d + 1)
    # s = 2 sanity: (1/2) prod (floor(b/2) log N / log b + 2)
    n = 729
    want = 0.5 * (math.log(n) / math.log(2) + 2) * (math.log(n) / math.log(3) + 2)
    assert halton_uniform_main_term([2, 3], n) == pytest.approx(want)


def test_sod_envelope_check_band():
    from lowdisc import sod_envelope_check

    rows, fits = sod_envelope_check(VanDerCorput(2), 2, d_max=12, calibration_d=6)
    assert all(row.holds for row in rows)
    assert fits["c2"] > 0
    # s-dimensional star proxy flavor on the Halton sequence
    rows_h, fits_h = sod_envelope_check(Halton((2, 3)), 2, d_max=8, calibration_d=4, mode="star")
    assert all(row.holds for row in rows_h)


@pytest.mark.parametrize("b,q,d_max", [(3, 2, 10), (2, 3, 9), (3, 3, 9)])
def test_sqrt_log_band_other_bases(b, q, d_max):
    # the scaled discrepancy stays in a narrow band for all small (b, q) pairs
    spec = VanDerCorput(b)
    t = SumOfDigits(q)
    scaled = []
    for d in range(max(2, d_max - 8), d_max + 1):
        n = q**d
        value = float(transformed_discrepancy(spec, t, n).value)
        scaled.append(value * math.sqrt(math.log(n)))
    assert max(scaled) <= 3.0 * min(scaled)


@pytest.mark.parametrize("b,q", [(3, 2), (2, 3), (3, 3)])
def test_general_sandwich_other_bases(b, q):
    reports = general_sandwich(VanDerCorput(b), SumOfDigits(q), d_max=8)
    for rep in reports:
        assert rep.holds, (b, q, rep.n)
