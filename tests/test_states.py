from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40.ksset import canonical_set, mermin_subset
from kp40.rays import Ray
from kp40.states import (
    NAMED_STATES,
    S_of_profile,
    profile,
    resolve_state,
    sigma_of_profile,
)

from oracles import basis_sums

nonzero_state = st.lists(st.integers(-20, 20), min_size=8, max_size=8).filter(any)


def test_sigma_is_exactly_five_for_named_states():
    for name in NAMED_STATES:
        assert sigma_of_profile(profile(name).probs) == 5


def test_S_exact_values():
    S = {name: S_of_profile(profile(name).probs) for name in NAMED_STATES}
    assert S["ghz"] == 4
    assert S["w"] == Fraction(7, 2)
    assert S["beta"] == 2
    assert S["eta"] == Fraction(8, 3)
    assert S["prod"] == Fraction(3, 2)


@settings(max_examples=200, deadline=None)
@given(nonzero_state)
def test_sigma_is_exactly_five_for_any_state(entries):
    # five complete bases, each resolving the identity, so the sum is exactly 5
    assert sigma_of_profile(profile(entries).probs) == 5


@given(nonzero_state)
def test_basis_sums_are_each_exactly_one(entries):
    sums = basis_sums(profile(entries), canonical_set())
    assert sums == {g: 1 for g in range(1, 6)}


@given(nonzero_state, st.sampled_from([-5, -2, 2, 3, 7]))
def test_profile_invariant_under_scaling(entries, k):
    scaled = [k * x for x in entries]
    assert profile(scaled).probs == profile(entries).probs


def test_profile_shape():
    p = profile("w")
    assert sorted(p.probs) == list(range(1, 41))
    assert all(isinstance(v, Fraction) for v in p.probs.values())
    assert all(0 <= v <= 1 for v in p.probs.values())


def test_ghz_profile_exact_values_on_the_first_two_bases():
    p = profile("ghz").probs
    assert p[1] == 1
    assert all(p[i] == 0 for i in range(2, 9))
    assert p[10] == p[11] == p[13] == p[16] == Fraction(1, 4)


def test_resolve_state_accepts_names_sequences_and_rays():
    assert resolve_state("GHZ") == NAMED_STATES["ghz"]
    assert resolve_state([1, 0, 0, 0, 0, 0, 0, 0]) == (1, 0, 0, 0, 0, 0, 0, 0)
    assert resolve_state(Ray((0, 1, 1, 0, 1, 0, 0, 0))) == (0, 1, 1, 0, 1, 0, 0, 0)


def test_resolve_state_rejects_garbage():
    with pytest.raises(ValueError, match="unknown state"):
        resolve_state("qhz")
    with pytest.raises(ValueError):
        resolve_state([1, 2, 3])
    with pytest.raises(ValueError):
        resolve_state([0] * 8)
    with pytest.raises(ValueError):
        profile([1.5, 0, 0, 0, 0, 0, 0, 1])


def test_profile_sums_match_value_functions():
    p = profile("eta")
    assert sigma_of_profile(p.probs) == sum(p.probs.values()) == 5
    assert S_of_profile(p.probs) == sum(p.probs[i] for i in mermin_subset()) == Fraction(8, 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8).filter(any))
def test_profile_sums_over_one_denominator_equal_the_term_by_term_sums(entries):
    probs = profile(entries).probs
    sigma, S = sigma_of_profile(probs), S_of_profile(probs)
    assert type(sigma) is type(S) is Fraction
    assert sigma == sum(probs.values()) == 5
    assert S == sum(probs[i] for i in mermin_subset())
