"""Exact integer/rational arithmetic for rays and projection probabilities.

Rays are kept unnormalized with integer entries; normalization is folded
into :func:`overlap_prob`, so every ideal quantity is an exact rational.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from math import inf
from numbers import Integral, Real
from operator import mul
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

DIM = 8


class Ray(namedtuple("Ray", "entries")):
    """Unnormalized 8-component integer vector representing a rank-1 yes-no test.

    Built from any 8 whole numbers, not all zero, or from another Ray; rays compare by entries.
    """

    __slots__ = ()

    def __new__(cls, entries: RayLike) -> Ray:
        entries = entries_of(entries)
        if not any(entries):
            raise ValueError("zero ray")
        return super().__new__(cls, entries)


RayLike = Union[Ray, Sequence[int]]


def entries_of(v: RayLike) -> tuple[int, ...]:
    """A Ray's entries, or a plain sequence's 8 whole numbers as ints (zero allowed)."""
    if isinstance(v, Ray):
        return v.entries
    t = tuple(map(integer, listed(v)))
    if len(t) != DIM:
        raise ValueError(f"expected {DIM} entries, got {len(t)}")
    return t


def dot(a: RayLike, b: RayLike) -> int:
    """Exact integer inner product (all rays are real)."""
    return sum(map(mul, entries_of(a), entries_of(b)))


def overlap_prob(state: RayLike, v: RayLike) -> Fraction:
    """Exact projection probability |<v|state>|^2 for unnormalized integer rays.

    Returns dot(state, v)^2 / (dot(state, state) * dot(v, v)) in lowest terms.
    Raises ValueError for a zero argument.
    """
    from fractions import Fraction    # here, so that importing rays loads no fractions

    es, ev = Ray(state).entries, Ray(v).entries
    d = sum(map(mul, es, ev))
    return Fraction(d * d, sum(map(mul, es, es)) * sum(map(mul, ev, ev)))


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as "num/den" (always in lowest terms, positive denominator)."""
    return f"{q.numerator}/{q.denominator}"


def clipped_repr(v) -> str:
    """repr(v) for a message that quotes an input value: its first 200 characters and "..."
    when longer, so that the message stays a short line however large the value."""
    text = repr(v)
    return text if len(text) <= 200 else text[:200] + "..."


def integer(v) -> int:
    """A whole number as an int: ints, NumPy ints and integral floats (1.0 is 1) pass;
    1.5, NaN, infinity, a bool or a string raise a ValueError naming the value."""
    if type(v) is int:    # the common case, checked first
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, Integral) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"{clipped_repr(v)} is not an integer")


def listed(v):
    """v itself if it holds values one by one: a list, tuple, range or NumPy array passes; a
    string, bytes, a mapping or a value that is not iterable raises a ValueError."""
    if type(v) in (list, tuple):    # the common case, checked first
        return v
    if isinstance(v, (str, bytes, Mapping)) or not isinstance(v, Iterable):
        raise ValueError(f"expected a list, got {clipped_repr(v)}")
    return v


def number(v) -> float:
    """A real number as a float; a bool, a string or anything else raises a ValueError."""
    if type(v) in (int, float) or isinstance(v, Real) and not isinstance(v, bool):    # common case first
        return float(v)
    raise ValueError(f"{clipped_repr(v)} is not a number")


def positive(v) -> float:
    """A finite real above zero as a float; NaN, infinity, zero or less raise a ValueError
    naming the value, and so does anything that is not a number."""
    f = number(v)
    if not 0 < f < inf:    # false for NaN too
        raise ValueError(f"{clipped_repr(v)} is not a finite positive number")
    return f


def nonnegative(v) -> float:
    """A finite real of zero or more as a float; NaN, infinity, a negative number or anything
    that is not a number raise a ValueError naming the value."""
    f = number(v)
    if not 0 <= f < inf:    # false for NaN too
        raise ValueError(f"{clipped_repr(v)} is not a finite nonnegative number")
    return f
