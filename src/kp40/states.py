"""Exact quantum values of the two sums for integer-component states."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from .ksset import KSSet, kept, mermin_subset
from .rays import Ray, clipped_repr

# Unnormalized integer components; basis order matches the ray table's qubit ordering.
NAMED_STATES: dict[str, tuple[int, ...]] = {
    "ghz": (0, 1, 1, 0, 1, 0, 0, -1),
    "w": (0, 1, 1, 0, 1, 0, 0, 0),
    "beta": (0, 0, 1, 1, -1, -1, 0, 0),
    "eta": (1, 1, 1, 1, 1, 1, 0, 0),
    "prod": (1, 0, 0, 0, 0, 0, 0, 0),
}


class ProbabilityProfile(NamedTuple):
    """Exact outcome probabilities of one state against all 40 rays, by ray index."""

    probs: dict[int, Fraction]


def resolve_state(state: str | Sequence[int]) -> tuple[int, ...]:
    """A named state's components, or a sequence's checked as a Ray's entries."""
    if isinstance(state, str):
        try:
            return NAMED_STATES[state.lower()]
        except KeyError:
            raise ValueError(f"unknown state name {clipped_repr(state)}; "
                             f"known: {sorted(NAMED_STATES)}") from None
    return Ray(state).entries


_KEPT = 8    # profiles kept: the five named states, and room for a few rays asked again


def _profiles(s: KSSet) -> Callable[[tuple[int, ...]], dict[int, Fraction]]:
    """Validated entries -> their exact probabilities against the rays of `s`, whose squared
    norms are computed once here; the 8 most recently asked are kept."""
    rows = tuple((r.entries, sum(map(mul, r.entries, r.entries))) for r in s.rays)

    @lru_cache(maxsize=_KEPT)
    def probs(entries: tuple[int, ...]) -> dict[int, Fraction]:
        norm = sum(map(mul, entries, entries))
        return {i: Fraction(sum(map(mul, entries, v)) ** 2, norm * norm_v)
                for i, (v, norm_v) in enumerate(rows, start=1)}

    return probs


def profile(state: str | Sequence[int]) -> ProbabilityProfile:
    """Exact overlap_prob(state, v_i) for every ray, on the validated entry tuples.

    The profiles of the 8 most recently asked states are kept with the canonical set (see
    ksset.kept), so a state asked again is not built again, and one asked after
    `canonical_set.cache_clear()` is.  Every call returns a new `probs` dict, so a caller that
    edits it changes no other call's profile."""
    return ProbabilityProfile(probs=dict(kept("profiles", _profiles)(resolve_state(state))))


def sigma_of_profile(probs: Mapping[int, Fraction]) -> Fraction:
    """The sum as one Fraction over the lcm of the denominators: the same value as adding the
    Fractions one at a time, which reduces every partial sum by a gcd."""
    den = lcm(*(q.denominator for q in probs.values()))
    return Fraction(sum(q.numerator * (den // q.denominator) for q in probs.values()), den)


def S_of_profile(probs: Mapping[int, Fraction]) -> Fraction:
    return sigma_of_profile({i: probs[i] for i in mermin_subset()})
