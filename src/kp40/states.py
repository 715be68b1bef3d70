"""Exact quantum values of the two sums for integer-component states."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .ksset import canonical_set, mermin_subset
from .rays import entries_of

# Unnormalized integer components; basis order matches the ray table's qubit ordering.
NAMED_STATES: dict[str, tuple[int, ...]] = {
    "ghz": (0, 1, 1, 0, 1, 0, 0, -1),
    "w": (0, 1, 1, 0, 1, 0, 0, 0),
    "beta": (0, 0, 1, 1, -1, -1, 0, 0),
    "eta": (1, 1, 1, 1, 1, 1, 0, 0),
    "prod": (1, 0, 0, 0, 0, 0, 0, 0),
}


@dataclass(frozen=True)
class ProbabilityProfile:
    """Exact outcome probabilities of one state against all 40 rays."""

    state: tuple[int, ...]
    probs: dict[int, Fraction]


def resolve_state(state: str | Sequence[int]) -> tuple[int, ...]:
    if isinstance(state, str):
        try:
            return NAMED_STATES[state.lower()]
        except KeyError:
            raise ValueError(f"unknown state name {state!r}; known: {sorted(NAMED_STATES)}") from None
    entries = entries_of(state)
    if len(entries) != 8 or not any(entries):
        raise ValueError("state must be 8 integer components, not all zero")
    return entries


def profile(state: str | Sequence[int]) -> ProbabilityProfile:
    """Exact overlap_prob(state, v_i) for every ray, on the validated entry tuples."""
    entries = resolve_state(state)
    norm = sum(map(mul, entries, entries))
    probs = {
        i: Fraction(sum(map(mul, entries, v)) ** 2, norm * sum(map(mul, v, v)))
        for i, v in enumerate((r.entries for r in canonical_set().rays), start=1)
    }
    return ProbabilityProfile(state=entries, probs=probs)


def sigma_of_profile(probs: Mapping[int, Fraction | float]) -> Fraction | float:
    return sum(probs.values())


def S_of_profile(probs: Mapping[int, Fraction | float]) -> Fraction | float:
    return sum(probs[i] for i in mermin_subset())
