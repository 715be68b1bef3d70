import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40.bounds import (
    S_NCHV_BOUND,
    SIGMA_NCHV_BOUND,
    Assignment,
    corrected_S_bound,
    corrected_sigma_bound,
    extrapolated_quantum_sigma_bound,
    full_report_json,
    ks_colorable,
    max_ones,
)
from kp40.ksset import N_OCTADS, N_RAYS, mermin_subset
from kp40.states import NAMED_STATES, profile, sigma_of_profile

from oracles import brute_lex_min_mis, brute_mis_size, mermin_kappa_to_S


def test_max_ones_full_graph(graph):
    best, witness = max_ones(graph)
    assert best == 4 == SIGMA_NCHV_BOUND
    assert witness.ones() == (1, 10, 20, 32)
    assert witness.is_admissible(graph)


def test_max_ones_mermin_subgraph(graph):
    best, witness = max_ones(graph, mermin_subset())
    assert best == 3 == S_NCHV_BOUND
    assert witness.ones() == (10, 20, 32)
    assert witness.is_admissible(graph)
    assert set(witness.ones()) <= set(mermin_subset())


def test_max_ones_matches_exhaustive_oracle_on_mermin(graph):
    assert brute_mis_size(graph, mermin_subset()) == 3 == S_NCHV_BOUND


def test_max_ones_within_a_single_octad_is_one(graph, octads):
    # the eight rays are mutually orthogonal, so at most one can be assigned 1
    best, witness = max_ones(graph, octads[0])
    assert best == 1
    assert len(witness.ones()) == 1


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=12))
def test_max_ones_matches_exhaustive_oracle_on_random_subsets(graph, subset):
    best, witness = max_ones(graph, subset)
    assert best == brute_mis_size(graph, subset)
    assert len(witness.ones()) == best
    assert set(witness.ones()) <= subset
    assert witness.is_admissible(graph)
    assert witness.ones() == brute_lex_min_mis(graph, subset)


def test_witness_is_lexicographically_smallest(graph):
    best, witness = max_ones(graph)
    # no other admissible 4-subset sorts before the returned one
    for combo in itertools.combinations(range(1, witness.ones()[-1] + 1), 4):
        if combo >= witness.ones():
            break
        assert any(graph.adjacent(i, j) for i, j in itertools.combinations(combo, 2))


def test_assignment_admissibility(graph):
    ok = Assignment(bits={i: 1 for i in (1, 10, 20, 32)})
    assert ok.ones() == (1, 10, 20, 32)
    assert ok.is_admissible(graph)
    bad = Assignment(bits={1: 1, 2: 1})    # rays 1 and 2 are orthogonal
    assert not bad.is_admissible(graph)


def test_ks_colorable_full_octad_list_is_false(octads, graph):
    res = ks_colorable(octads, graph)
    assert res.colorable is False
    assert res.witness is None
    assert res.nodes_explored > 0


def test_no_ks_coloring_by_counting_octads(octads, graph):
    # a KS coloring puts one 1 in each of the 25 octads; every ray lies in 5 of them and an
    # admissible assignment has at most max_ones = 4 ones, so it meets at most 20 octads
    incidence = Counter(i for o in octads for i in o)
    assert len(octads) == N_OCTADS == 25
    assert sorted(incidence) == list(range(1, N_RAYS + 1))
    assert set(incidence.values()) == {5}
    best, _ = max_ones(graph)
    assert best * 5 < len(octads)
    assert ks_colorable(octads, graph).colorable is False


def test_ks_colorable_basis_groups_alone_already_fail(kset, graph):
    res = ks_colorable(kset.basis_groups, graph)
    assert res.colorable is False


def test_ks_colorable_single_octad_is_satisfiable(kset, graph):
    res = ks_colorable(kset.basis_groups[:1], graph)
    assert res.colorable is True
    assert res.witness is not None
    assert res.witness.is_admissible(graph)
    assert len(set(res.witness.ones()) & set(kset.basis_groups[0])) == 1


def test_mermin_kappa_to_S():
    assert mermin_kappa_to_S(4.0) == 4.0
    assert mermin_kappa_to_S(-4.0) == 0.0
    assert mermin_kappa_to_S(2.0) == 3.0
    with pytest.raises(ValueError):
        mermin_kappa_to_S(4.5)


def test_corrected_bounds_at_zero_noise():
    assert corrected_sigma_bound(0.0) == 4.0
    assert corrected_S_bound(0.0) == 3.0


def test_corrected_bounds_at_paper_scale_epsilon():
    assert abs(corrected_sigma_bound(0.0140) - 4.504) < 1e-12
    assert abs(corrected_S_bound(0.0140) - 3.182) < 1e-12


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_corrected_bounds_are_affine_in_epsilon(eps):
    assert corrected_sigma_bound(eps) == pytest.approx(4 * (1 - eps) + 40 * eps)
    assert corrected_S_bound(eps) == pytest.approx(3 * (1 - eps) + 16 * eps)


def test_corrected_bounds_reject_bad_epsilon():
    for f in (corrected_sigma_bound, corrected_S_bound):
        with pytest.raises(ValueError):
            f(-0.001)
        with pytest.raises(ValueError):
            f(1.001)


@pytest.mark.parametrize("epsilon", ["0.5", True, None])
def test_an_epsilon_that_is_not_a_number_is_refused(epsilon):
    for f in (corrected_sigma_bound, corrected_S_bound, extrapolated_quantum_sigma_bound,
              full_report_json):
        with pytest.raises(ValueError, match="is not a number"):
            f(epsilon)


def test_extrapolated_quantum_bound():
    assert extrapolated_quantum_sigma_bound(0.0) == 5.0
    assert extrapolated_quantum_sigma_bound(0.0140) == pytest.approx(5 * (1 - 0.0140) + 40 * 0.0140)
    # at eps = 0 the extrapolation is the exact quantum sigma of every state
    for name in NAMED_STATES:
        assert extrapolated_quantum_sigma_bound(0.0) == sigma_of_profile(profile(name).probs)


def test_reports():
    report = full_report_json(0.0140)
    assert report["sigma_nchv"] == 4
    assert report["sigma_corrected"] == pytest.approx(4.504)
    assert report["S_nchv"] == 3
    assert report["S_corrected"] == pytest.approx(3.182)


def test_full_report_json_keys():
    report = full_report_json(epsilon=0.0140)
    assert set(report) == {
        "sigma_nchv", "S_nchv", "ks_colorable", "epsilon",
        "sigma_corrected", "S_corrected", "witness",
    }
    assert report["sigma_nchv"] == 4
    assert report["S_nchv"] == 3
    assert report["ks_colorable"] is False
    assert report["witness"] == [1, 10, 20, 32]
