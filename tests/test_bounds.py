import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40 import bounds, cli, ksset, pentagram
from kp40.bounds import (
    KS_PARITY_PROOF,
    S_NCHV_BOUND,
    S_WITNESS,
    SIGMA_NCHV_BOUND,
    SIGMA_WITNESS,
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

from oracles import brute_lex_min_mis, brute_mis_size, gf2_kernel, mermin_kappa_to_S


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


# ------------------------------------------------------------- certificates

def test_the_certified_values_are_the_values_the_searches_find(graph, octads):
    report = full_report_json()
    sigma, sigma_witness = max_ones(graph)
    S, S_witness = max_ones(graph, mermin_subset())
    assert (report["sigma_nchv"], report["S_nchv"], report["ks_colorable"]) == (
        sigma, S, ks_colorable(octads, graph).colorable) == (4, 3, False)
    assert (SIGMA_WITNESS, S_WITNESS) == (sigma_witness.ones(), S_witness.ones())


def test_every_proof_octad_is_an_octad_of_the_graph(octads):
    assert set(KS_PARITY_PROOF) <= set(octads)
    assert len(KS_PARITY_PROOF) == 11
    assert len({i for o in KS_PARITY_PROOF for i in o}) == 36


def _flip_sign_of_line_1(monkeypatch):
    contexts = pentagram.pentagram_contexts()
    flipped = (contexts[0]._replace(product_sign=-contexts[0].product_sign), *contexts[1:])
    monkeypatch.setattr(bounds, "pentagram_contexts", lambda: flipped)


def _flip_line_1_sign_of_ray_10(monkeypatch):
    # ray 10 lies on line ZII IZI IIZ ZZZ; ZZZ, its last word, is the one it shares with line 1
    mapping = {key: i for key, i in ksset.pentagram_match_map().items() if i != 10}
    mapping[(2, (1, 1, -1, 1))] = 10    # its pattern is (1, 1, -1, -1)
    monkeypatch.setattr(bounds, "pentagram_match_map", lambda: mapping)


def _set(name, value):
    return lambda monkeypatch: monkeypatch.setattr(bounds, name, value)


# fault -> (how it is injected, the start of the message that names its certificate)
CERTIFICATE_FAULTS = {
    "a-product-sign-flipped": (
        _flip_sign_of_line_1,
        "sigma <= 4 certificate: the line signs and the signs of the words on an odd number of "
        "lines multiply to +1"),
    "a-mermin-ray-line-1-sign-flipped": (
        _flip_line_1_sign_of_ray_10,
        "S <= 3 certificate: the rays of line ZII IZI IIZ ZZZ take both signs on ZZZ"),
    "a-proof-octad-dropped": (
        _set("KS_PARITY_PROOF", KS_PARITY_PROOF[:-1]),
        "no KS coloring certificate of 10 octads: ray 25 lies in 3 of them"),
    "a-proof-ray-swapped-for-a-non-orthogonal-one": (
        # ray 10 = (0, 1, 0, ...) meets ray 1 = (0, 1, 1, 0, 1, 0, 0, -1)
        _set("KS_PARITY_PROOF", ((1, 2, 3, 4, 5, 6, 7, 10), *KS_PARITY_PROOF[1:])),
        "no KS coloring certificate of 11 octads: octad (1, 2, 3, 4, 5, 6, 7, 10) holds rays 1 "
        "and 10, which are not orthogonal"),
    "a-proof-octad-short-of-a-ray": (
        _set("KS_PARITY_PROOF", (KS_PARITY_PROOF[0][:7], *KS_PARITY_PROOF[1:])),
        "no KS coloring certificate of 11 octads: octad (1, 2, 3, 4, 5, 6, 7) holds 7 rays, not 8"),
    "an-even-number-of-proof-octads": (
        _set("KS_PARITY_PROOF", KS_PARITY_PROOF[:1] * 2),
        "no KS coloring certificate of 2 octads: an even number of octads"),
    "a-witness-with-two-orthogonal-rays": (
        _set("S_WITNESS", (10, 11, 32)),    # rays 10 and 11 share basis group 2
        "S >= 3 witness [10, 11, 32] assigns 1 to orthogonal rays 10 and 11"),
    "a-witness-short-of-the-bound": (
        _set("SIGMA_WITNESS", (1, 10, 20)),
        "sigma >= 3 witness [1, 10, 20] does not meet the sigma <= 4 certificate"),
    "a-witness-outside-its-pool": (
        _set("S_WITNESS", (1, 10, 20)),    # ray 1 is no Mermin ray
        "S >= 3 witness [1, 10, 20] holds ray 1, outside its pool"),
}


@pytest.mark.parametrize("fault", list(CERTIFICATE_FAULTS))
def test_a_faulty_certificate_is_refused_by_name(monkeypatch, capsys, fault):
    inject, message = CERTIFICATE_FAULTS[fault]
    inject(monkeypatch)
    with pytest.raises(ValueError) as e:
        full_report_json()
    assert str(e.value).startswith(message)
    assert cli.main(["bounds"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {e.value}\n"


def test_full_report_json_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search ran")

    for name in ("build_graph", "enumerate_octads", "max_ones", "ks_colorable", "pentagram_unsat"):
        for module in (ksset, bounds, pentagram, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert full_report_json()["ks_colorable"] is False


def test_the_octads_hold_1024_parity_proofs_and_the_stored_one_is_of_type_36_11(octads):
    # a parity proof is an odd number of octads holding each of their rays an even number of
    # times: an odd-weight vector in the GF(2) kernel of the 40 x 25 ray-octad incidence
    incidence = [sum(1 << k for k, o in enumerate(octads) if i in o) for i in range(1, N_RAYS + 1)]
    rank, kernel = gf2_kernel(incidence, len(octads))
    assert (rank, len(kernel)) == (14, 2 ** 11)
    proofs: dict[tuple[int, int], set] = {}    # (rays, octads) -> the proofs of that type
    for v in kernel:
        chosen = tuple(o for k, o in enumerate(octads) if v >> k & 1)
        held = Counter(i for o in chosen for i in o)
        assert not any(n % 2 for n in held.values())
        if len(chosen) % 2:
            proofs.setdefault((len(held), len(chosen)), set()).add(chosen)
    assert {t: len(found) for t, found in proofs.items()} == {(36, 11): 320, (38, 13): 640, (40, 15): 64}
    assert sum(map(len, proofs.values())) == len(kernel) // 2 == 1024
    assert tuple(sorted(KS_PARITY_PROOF)) in proofs[36, 11]
