"""Shared plumbing: scan budgets, integer roots, exact-value coercion, and
the int64-or-exact rule of the integer kernels."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_INT64_LIMIT = 1 << 62


def _int_dtype(bound: int):
    """int64 for integers below ``bound`` while bound < 2**62, else exact
    Python ints (object arrays).  Below 2**62 even a sum or difference of
    two such integers fits in int64."""
    return np.int64 if bound < _INT64_LIMIT else object


class BudgetExceededError(RuntimeError):
    """An exhaustive scan or enumeration would exceed its evaluation budget."""


class UnimodalityError(RuntimeError):
    """A bound hypothesis failed: some block-count profile is not unimodal."""

    def __init__(self, block: int, level: int):
        self.block = block
        self.level = level
        super().__init__(
            f"block counts for A={block}, j={level} are not unimodal"
        )


def int_nth_root(x: int, r: int) -> int:
    """Largest integer g with g**r <= x, exact for arbitrary-precision x."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1 or x < 2:
        return x
    g = 1 << -(-x.bit_length() // r)  # >= true root
    while True:
        ng = ((r - 1) * g + x // g ** (r - 1)) // r
        if ng >= g:
            break
        g = ng
    while g**r > x:
        g -= 1
    while (g + 1) ** r <= x:
        g += 1
    return g


def as_fraction(x) -> Fraction:
    """Coerce Fraction / int / BRational-like values to Fraction."""
    if isinstance(x, Fraction):
        return x
    if hasattr(x, "as_fraction"):
        return x.as_fraction()
    return Fraction(x)

