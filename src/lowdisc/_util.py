"""Shared plumbing with no third-party import: the scan-budget and
unimodality errors, the base of the validating value types, integer roots,
and exact-value coercion.  Every command loads this module, so it stays free
of numpy."""

from __future__ import annotations

from fractions import Fraction


class BudgetExceededError(RuntimeError):
    """An exhaustive scan or enumeration would exceed its evaluation budget."""


class UnimodalityError(RuntimeError):
    """A bound hypothesis failed: the block-count profile at some level is not unimodal."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"block counts at level j={level} are not unimodal")


class Value:
    """Base of the value types that validate their input.

    A subclass's ``__init__`` checks its arguments and stores them with
    ``_set``, in field order.  The fields are read-only; two values are equal,
    and hash alike, when they have one type and equal fields; the repr is
    ``Type(field=value, ...)``.
    """

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


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

