"""Exact distribution of the q-ary digit sum on blocks of length q**j.

The counts are the coefficients of (1 + x + ... + x^(q-1))**j, computed by
iterated integer convolution; they are compared against the local Gaussian
main term with sigma_q = sqrt((q^2 - 1)/12).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from ._util import BudgetExceededError
from .digits import expand
from .transforms import is_unimodal

DEFAULT_J_BUDGET = 256


class DigitSumDistribution(NamedTuple):
    """counts[k] = #{0 <= n < q**j : s_q(n) = k}, exact integers."""

    q: int
    j: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.q**self.j


@lru_cache(maxsize=4096)
def _convolution_counts(q: int, j: int) -> tuple[int, ...]:
    counts = [1]
    for _ in range(j):
        nxt = [0] * (len(counts) + q - 1)
        for k, c in enumerate(counts):
            for d in range(q):
                nxt[k + d] += c
        counts = nxt
    return tuple(counts)


def distribution(q: int, j: int) -> DigitSumDistribution:
    """j-fold convolution of the uniform digit distribution (exact), j <= DEFAULT_J_BUDGET."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if j < 0:
        raise ValueError("j must be >= 0")
    if j > DEFAULT_J_BUDGET:
        raise BudgetExceededError(f"j={j} exceeds the convolution budget {DEFAULT_J_BUDGET}")
    return DigitSumDistribution(q, j, _convolution_counts(q, j))


def max_count(q: int, j: int) -> tuple[int, int]:
    """Arg-max (smallest on ties) and maximum of the block digit-sum counts.

    The arg-max is found by scanning, not assumed to sit at the midpoint.
    """
    counts = distribution(q, j).counts
    best_k, best = 0, counts[0]
    for k, c in enumerate(counts):
        if c > best:
            best_k, best = k, c
    return best_k, best


def gaussian_main_term(q: int, j: int, k: int) -> float:
    """Local central-limit main term for the digit-sum counts.

    Returns q**j / (sqrt(2*pi*j) * sigma_q) * exp(-x^2 / 2) with the
    standardized coordinate x = (k - j(q-1)/2) / (sigma_q sqrt(j)).  The
    polynomial correction terms of the sharper expansion are out of scope.
    """
    if j < 1:
        raise ValueError("the main term needs j >= 1")
    sigma = sigma_q(q)
    x = (k - j * (q - 1) / 2.0) / (sigma * math.sqrt(j))
    # log-space keeps q**j out of overflow range for large j
    log_val = j * math.log(q) - math.log(math.sqrt(2 * math.pi * j) * sigma) - x * x / 2.0
    return math.exp(log_val)


def sigma_q(q: int) -> float:
    return math.sqrt((q * q - 1) / 12.0)


def unimodality_onset(q: int, j_max: int) -> int:
    """Smallest j0 such that the distribution is unimodal for all j0 <= j <= j_max.

    Exhaustive scan; returns j_max + 1 if even the last level fails.
    """
    onset = 0
    for j in range(j_max + 1):
        if not is_unimodal(distribution(q, j).counts):
            onset = j + 1
    return onset


def digit_sum_counts_below(q: int, n: int) -> list[int]:
    """counts[k] = #{0 <= m < n : s_q(m) = k} for arbitrary n (exact digit DP).

    Walks the digits of n from the most significant end; each position
    contributes a shifted copy of the full-block convolution counts.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return []
    digs = expand(n, q)
    top = len(digs) - 1
    counts = [0] * (len(digs) * (q - 1) + 1)
    prefix_sum = 0
    for r in range(top, -1, -1):
        a_r = digs[r]
        if a_r:
            block = distribution(q, r).counts
            for a in range(a_r):
                off = prefix_sum + a
                for idx, c in enumerate(block):
                    counts[off + idx] += c
        prefix_sum += a_r
    while counts and counts[-1] == 0:
        counts.pop()
    return counts
