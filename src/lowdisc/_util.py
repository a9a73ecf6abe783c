"""Shared plumbing with no third-party import: the scan-budget and
unimodality errors, integer roots, and exact-value coercion.  Every command
loads this module, so it stays free of numpy."""

from __future__ import annotations

from fractions import Fraction


class BudgetExceededError(RuntimeError):
    """An exhaustive scan or enumeration would exceed its evaluation budget."""


class UnimodalityError(RuntimeError):
    """A bound hypothesis failed: the block-count profile at some level is not unimodal."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"block counts at level j={level} are not unimodal")


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

