"""Exact integer/rational arithmetic for rays and projection probabilities.

Rays are kept unnormalized with integer entries; normalization is folded
into :func:`overlap_prob`, so every ideal quantity is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence, Union

DIM = 8


@dataclass(frozen=True)
class Ray:
    """Unnormalized 8-component integer vector representing a rank-1 yes-no test."""

    entries: tuple[int, ...]
    label: int | None = None

    def __post_init__(self) -> None:
        entries = tuple(int(e) for e in self.entries)
        if len(entries) != DIM:
            raise ValueError(f"ray needs {DIM} entries, got {len(entries)}")
        if not any(entries):
            raise ValueError("zero ray")
        object.__setattr__(self, "entries", entries)


RayLike = Union[Ray, Sequence[int]]


def entries_of(v: RayLike) -> tuple[int, ...]:
    """Coerce a Ray or plain sequence to an 8-tuple of ints (zero allowed)."""
    if isinstance(v, Ray):
        return v.entries
    t = tuple(int(x) for x in v)
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
    es, ev = entries_of(state), entries_of(v)
    if not any(es) or not any(ev):
        raise ValueError("overlap_prob of a zero ray")
    d = sum(map(mul, es, ev))
    return Fraction(d * d, sum(map(mul, es, es)) * sum(map(mul, ev, ev)))


def canonical_form(v: RayLike) -> Ray:
    """Divide by the gcd of the entries and fix sign so the first nonzero entry is positive."""
    e = entries_of(v)
    g = gcd(*e)
    if not g:
        raise ValueError("zero ray has no canonical form")
    if next(x for x in e if x) < 0:
        g = -g
    label = v.label if isinstance(v, Ray) else None
    return Ray(tuple(x // g for x in e), label=label)


def same_direction(a: RayLike, b: RayLike) -> bool:
    """True iff a and b span the same line, that is, their canonical forms agree."""
    return canonical_form(a).entries == canonical_form(b).entries


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as "num/den" (always in lowest terms, positive denominator)."""
    return f"{q.numerator}/{q.denominator}"


def integer(v) -> int:
    """A loaded number as an int: 1.0 loads as 1, but 1.5, NaN or infinity raise a ValueError."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def parse_ray_entries(row: Iterable, index: int | None = None) -> tuple[int, ...]:
    """Parse one serialized ray (JSON array of 8 integers), naming the row on error."""
    where = f"ray {index}" if index is not None else "ray"
    try:
        t = tuple(integer(x) for x in row)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: entries must be integers") from exc
    if len(t) != DIM:
        raise ValueError(f"{where}: expected {DIM} entries, got {len(t)}")
    if not any(t):
        raise ValueError(f"{where}: all entries are zero")
    return t
