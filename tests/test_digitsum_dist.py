import math

import pytest

from lowdisc import (
    BudgetExceededError,
    digit_sum_counts_below,
    digitsum_dist,
    distribution,
    gaussian_main_term,
    max_count,
    unimodality_onset,
)
from oracles import brute_digit_sum_counts


@pytest.mark.parametrize(
    "q,j,counts",
    [
        (2, 4, (1, 4, 6, 4, 1)),
        (3, 2, (1, 2, 3, 2, 1)),
        (2, 0, (1,)),
    ],
)
def test_distribution_examples(q, j, counts):
    assert distribution(q, j).counts == counts


def test_distribution_budget(monkeypatch):
    monkeypatch.setattr(digitsum_dist, "DEFAULT_J_BUDGET", 5)
    distribution(2, 5)
    with pytest.raises(BudgetExceededError):
        distribution(2, 10)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_distribution_matches_brute_force(q):
    for j in range(11):
        want = brute_digit_sum_counts(q, q**j)
        got = distribution(q, j).counts
        assert {k: c for k, c in enumerate(got) if c} == want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_mass_and_symmetry_large_j(q):
    for j in (0, 1, 7, 33, 64):
        counts = distribution(q, j).counts
        assert sum(counts) == q**j
        assert len(counts) == j * (q - 1) + 1
        assert counts == counts[::-1]


@pytest.mark.parametrize(
    "q,j,expected",
    [(2, 4, (2, 6)), (3, 2, (2, 3)), (2, 5, (2, 10))],
)
def test_max_count_examples(q, j, expected):
    assert max_count(q, j) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_max_attained_at_midpoint(q):
    # the maximum is attained at floor(j(q-1)/2); the reported arg-max is the
    # smallest tie (0 for the flat j=1 rows of q >= 3)
    for j in range(1, 40):
        k_star, peak = max_count(q, j)
        counts = distribution(q, j).counts
        assert counts[j * (q - 1) // 2] == peak
        assert k_star == min(k for k, c in enumerate(counts) if c == peak)


def test_gaussian_sigma_value():
    # sigma_2 = sqrt((4-1)/12) = 1/2
    assert math.isqrt(1) == 1
    assert abs(math.sqrt((2 * 2 - 1) / 12) - 0.5) < 1e-15


def test_gaussian_centered_case():
    j = 16
    val = gaussian_main_term(2, j, j // 2)
    expected = 2**j / math.sqrt(2 * math.pi * j * 0.25)
    assert val == pytest.approx(expected, rel=1e-12)


def test_gaussian_vs_exact_binomial():
    exact = math.comb(20, 10)
    approx = gaussian_main_term(2, 20, 10)
    assert abs(approx - exact) / exact < 0.05


def test_gaussian_requires_positive_j():
    with pytest.raises(ValueError):
        gaussian_main_term(2, 0, 0)


@pytest.mark.parametrize("q,j_max,expected", [(2, 64, 0), (3, 64, 0)])
def test_unimodality_onset_binary_ternary(q, j_max, expected):
    assert unimodality_onset(q, j_max) == expected


def test_unimodality_onset_q10_by_scan():
    # exhaustive scan; uniform-block convolutions stay unimodal from the start
    assert unimodality_onset(10, 32) == 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_scaled_gaussian_error_decreases(q):
    def scaled_err(j):
        counts = distribution(q, j).counts
        worst = max(
            abs(c - gaussian_main_term(q, j, k)) for k, c in enumerate(counts)
        )
        return worst * math.sqrt(j) / q**j

    for j in (8, 16):
        assert scaled_err(4 * j) < scaled_err(j)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_max_count_scaling_window(q):
    # embodiment of the c_q q^j / sqrt(j) envelopes: the scaled max stays in a
    # fixed positive window (about 0.77-0.80 for q=2, smaller for larger q)
    ratios = [
        max_count(q, j)[1] * math.sqrt(j) / q**j for j in range(8, 65)
    ]
    assert all(0.2 <= r <= 0.9 for r in ratios)
    assert max(ratios) / min(ratios) < 1.5


def test_digit_sum_counts_below_matches_brute_force():
    for q in (2, 3, 5, 10):
        for n in (1, 2, 9, 100, 1000):
            want = brute_digit_sum_counts(q, n)
            got = digit_sum_counts_below(q, n)
            assert {k: c for k, c in enumerate(got) if c} == want


def test_digit_sum_counts_below_total():
    for q, n in ((2, 12345), (7, 99999)):
        assert sum(digit_sum_counts_below(q, n)) == n
