"""Exact quantum values of the two sums for integer-component states."""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .ksset import canonical_norms, mermin_subset
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

# entries -> (the canonical_norms() they were built from, probs), least recently asked first
_kept: OrderedDict[tuple[int, ...], tuple[tuple, dict[int, Fraction]]] = OrderedDict()
_kept_lock = threading.Lock()


def profile(state: str | Sequence[int]) -> ProbabilityProfile:
    """Exact overlap_prob(state, v_i) for every ray, on the validated entry tuples and the ray
    norms kept with the canonical set.

    The profiles of the 8 most recently asked states are kept, each with the norms it was
    built from, so a state asked again is not built again, and one asked after
    `canonical_set.cache_clear()` is.  Every call returns a new `probs` dict, so a caller that
    edits it changes no other call's profile."""
    entries = resolve_state(state)
    rows = canonical_norms()
    with _kept_lock:
        kept = _kept.get(entries)
        if kept is not None and kept[0] is rows:
            _kept.move_to_end(entries)
            return ProbabilityProfile(probs=dict(kept[1]))
    norm = sum(map(mul, entries, entries))
    probs = {i: Fraction(sum(map(mul, entries, v)) ** 2, norm * norm_v)
             for i, (v, norm_v) in enumerate(rows, start=1)}
    with _kept_lock:
        _kept[entries] = rows, probs
        _kept.move_to_end(entries)
        if len(_kept) > _KEPT:
            _kept.popitem(last=False)
    return ProbabilityProfile(probs=dict(probs))


def sigma_of_profile(probs: Mapping[int, Fraction]) -> Fraction:
    """The sum as one Fraction over the lcm of the denominators: the same value as adding the
    Fractions one at a time, which reduces every partial sum by a gcd."""
    den = lcm(*(q.denominator for q in probs.values()))
    return Fraction(sum(q.numerator * (den // q.denominator) for q in probs.values()), den)


def S_of_profile(probs: Mapping[int, Fraction]) -> Fraction:
    return sigma_of_profile({i: probs[i] for i in mermin_subset()})
