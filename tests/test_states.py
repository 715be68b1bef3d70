import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40 import analysis, ksset, simulate, states
from kp40.ksset import canonical_set, mermin_subset
from kp40.rays import Ray, overlap_prob
from kp40.states import (
    NAMED_STATES,
    S_of_profile,
    profile,
    resolve_state,
    sigma_of_profile,
)

from oracles import basis_sums, fresh_profile

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 3) | st.integers(-10**40, 10**40), min_size=8, max_size=8).filter(any))
def test_profile_is_the_fresh_oracle_and_overlap_prob_before_and_after_a_rebuild(entries):
    for rebuilt in (False, True):
        if rebuilt:
            canonical_set.cache_clear()
        probs = profile(entries).probs
        assert probs == fresh_profile(entries).probs
        assert probs == {i: overlap_prob(entries, v) for i, v in enumerate(canonical_set().rays, 1)}
        assert all(type(q) is Fraction for q in probs.values())


def test_a_set_rebuilt_from_another_table_rebuilds_the_kept_profiles(monkeypatch):
    before = profile("ghz").probs
    run = simulate.PulseRun(1, 32768)
    truth = simulate.ground_truth_probabilities("ghz", simulate.IDEAL_NOISE, run)
    table = list(ksset._TABLE)
    table[0], table[1] = table[1], table[0]    # rows 1 and 2 swap within their basis group
    monkeypatch.setattr(ksset, "_TABLE", tuple(table))
    canonical_set.cache_clear()
    try:
        after = profile("ghz").probs
        assert after == fresh_profile("ghz").probs
        assert (after[1], after[2]) == (before[2], before[1]) == (0, 1)
        swapped = simulate.ground_truth_probabilities("ghz", simulate.IDEAL_NOISE, run)
        assert (swapped[1], swapped[2]) == (truth[2], truth[1]) == (0.0, 1.0)
    finally:
        monkeypatch.undo()
        canonical_set.cache_clear()
    assert profile("ghz").probs == before
    assert simulate.ground_truth_probabilities("ghz", simulate.IDEAL_NOISE, run) == truth


def test_editing_a_returned_profile_changes_no_later_call():
    probs = profile("w").probs
    want = dict(probs)
    probs[1] = Fraction(7)
    del probs[2]
    assert profile("w").probs == want
    profile("w").probs.clear()
    assert profile("w").probs == want


def test_a_thousand_distinct_rays_keep_no_more_profiles_than_the_bound():
    rng = random.Random(42)
    rays = set()
    while len(rays) < 1000:
        if any(ray := tuple(rng.randint(-9, 9) for _ in range(8))):
            rays.add(ray)
    for ray in rays:
        profile(ray)
    assert 0 < ksset.kept("profiles", states._profiles).cache_info().currsize <= states._KEPT


def test_threads_that_switch_often_get_the_oracles_profiles():
    # more states than are kept, so the threads evict each other's profiles as they go
    asked = [*NAMED_STATES, *(tuple(random.Random(k).choices(range(-4, 5), k=7)) + (1,)
                              for k in range(states._KEPT))]
    want = {resolve_state(s): fresh_profile(s).probs for s in asked}

    def ask(seed: int) -> list[bool]:
        order = asked * 20
        random.Random(seed).shuffle(order)
        return [profile(s).probs == want[resolve_state(s)] for s in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(ask, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [len(r) for r in results] == [20 * len(asked)] * 4
    assert all(all(r) for r in results)


def test_one_reproduce_builds_each_named_states_profile_at_most_once(monkeypatch):
    judged: dict[tuple[int, ...], list] = {}

    def spy(state):
        judged.setdefault(resolve_state(state), []).append(p := profile(state))
        return p

    monkeypatch.setattr(analysis, "profile", spy)
    files = simulate.reproduce(7, 40_000, simulate.DEFAULT_MU, simulate.load_noise_config(None))
    assert len(files["summary.json"]["rows"]) == sum(map(len, judged.values())) == 7
    assert sorted(judged) == sorted(NAMED_STATES.values())
    for kept in judged.values():    # one build: the same Fractions, in a new dict each call
        assert len({id(p.probs) for p in kept}) == len(kept)
        assert all(p.probs[i] is kept[0].probs[i] for p in kept for i in p.probs)
