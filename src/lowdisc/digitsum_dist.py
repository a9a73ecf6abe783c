"""Exact distribution of the q-ary digit sum on blocks of q**j indices and below any N.

One step, ``_spread(counts, width)``, the sum of `width` shifted copies of
`counts` read off one prefix-sum list, gives every count.  The block counts
C_j[k] = #{n < q**j : s_q(n) = k} follow C_{r+1} = _spread(C_r, q); below N,
with N's base-q digits a_r from the lowest one up, B_{r+1} = _spread(C_r, a_r)
plus B_r shifted by a_r.  A call that would return more than COUNT_BUDGET
counts raises BudgetExceededError before its first step.  The block counts
are compared with the local Gaussian main term, sigma_q = sqrt((q^2 - 1)/12).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, NamedTuple

from ._util import BudgetExceededError
from .digits import expand
from .transforms import is_unimodal

# The largest calls it allows take 0.7-1.0 s on a 2-core VM: distribution(q,
# j) at (2, 2894), (5, 1447) and (100, 290), and the counts below 2^2047 - 1
# and below 5^1023 - 1.
COUNT_BUDGET = 1 << 22


class DigitSumDistribution(NamedTuple):
    """counts[k] = #{0 <= n < q**j : s_q(n) = k}, exact integers."""

    q: int
    j: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.q**self.j


def _spread(counts: list[int], width: int) -> list[int]:
    """out[k] = counts[k - width + 1] + ... + counts[k]: `width` >= 1 shifted copies of counts."""
    prefix = [0, *itertools.accumulate(counts)]
    pad = width - 1
    return list(map(operator.sub, prefix[1:] + [prefix[-1]] * pad, [0] * pad + prefix[:-1]))


def _block_levels(q: int, j: int, more: int = 0) -> Iterator[list[int]]:
    """C_0, ..., C_j, each built once from the one before.  A call whose steps
    return these r(q-1) + 1 counts for 1 <= r <= j and `more` besides past
    COUNT_BUDGET is refused first."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if j < 0:
        raise ValueError("j must be >= 0")
    work = (q - 1) * j * (j + 1) // 2 + j + more
    if work > COUNT_BUDGET:
        raise BudgetExceededError(f"the digit-sum counts up to level j={j} in base q={q} "
                                  f"take {work}, past the budget {COUNT_BUDGET}")
    return itertools.accumulate(range(j), lambda counts, _: _spread(counts, q), initial=[1])


def distribution(q: int, j: int) -> DigitSumDistribution:
    """The exact block counts C_j, built level by level from C_0 = (1,)."""
    for counts in _block_levels(q, j):
        pass
    return DigitSumDistribution(q, j, tuple(counts))


def max_count(q: int, j: int) -> tuple[int, int]:
    """Arg-max (smallest on ties, found by scanning) and maximum of the block counts."""
    counts = distribution(q, j).counts
    best_k = max(range(len(counts)), key=counts.__getitem__)
    return best_k, counts[best_k]


def gaussian_main_term(q: int, j: int, k: int) -> float:
    """Local central-limit main term for the digit-sum counts.

    Returns q**j / (sqrt(2*pi*j) * sigma_q) * exp(-x^2 / 2) with the
    standardized coordinate x = (k - j(q-1)/2) / (sigma_q sqrt(j)).  The
    polynomial correction terms of the sharper expansion are out of scope.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if j < 1:
        raise ValueError("the main term needs j >= 1")
    sigma = math.sqrt((q * q - 1) / 12.0)
    x = (k - j * (q - 1) / 2.0) / (sigma * math.sqrt(j))
    # log-space keeps q**j out of overflow range for large j
    log_val = j * math.log(q) - math.log(math.sqrt(2 * math.pi * j) * sigma) - x * x / 2.0
    try:
        return math.exp(log_val)
    except OverflowError:
        raise OverflowError(f"the Gaussian main term at q={q}, j={j}, k={k} is larger than "
                            "the float range") from None


def unimodality_onset(q: int, j_max: int) -> int:
    """Smallest j0 such that the distribution is unimodal for all j0 <= j <= j_max.

    Exhaustive scan; returns j_max + 1 if even the last level fails.
    """
    levels = enumerate(_block_levels(q, j_max))
    return max((j + 1 for j, counts in levels if not is_unimodal(counts)), default=0)


def digit_sum_counts_below(q: int, n: int) -> list[int]:
    """counts[k] = #{0 <= m < n : s_q(m) = k} for arbitrary n (exact digit recurrence).

    Walks the digits a_r of n from the lowest one up, keeping the block
    counts C_r and the counts B_r below n mod q**r; the last entry is nonzero.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    digits = expand(n, q) or (0,)
    more = sum(r * (q - 1) + a for r, a in enumerate(digits) if a)  # the B_{r+1}
    below = []
    for a, block in zip(digits, _block_levels(q, len(digits) - 1, more)):
        if a:
            spread = _spread(block, a)
            spread[a : a + len(below)] = map(operator.add, spread[a:], below)
            below = spread
    return below
