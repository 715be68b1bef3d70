import itertools
import json

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kp40.ksset import (
    _BASIS_GROUPS,
    EDGE_COUNT,
    N_OCTADS,
    N_RAYS,
    KSSet,
    _match_pentagram,
    build_graph,
    canonical_set,
    induced_bitmask,
    load_ksset_file,
    mermin_subset,
    pentagram_match_map,
)
from kp40.rays import Ray, dot


def test_forty_rays_in_five_groups(kset):
    assert len(kset.rays) == N_RAYS
    assert len(kset.basis_groups) == 5
    flat = sorted(i for g in kset.basis_groups for i in g)
    assert flat == list(range(1, N_RAYS + 1))


def test_basis_groups_are_orthogonal_octads(kset):
    for group in kset.basis_groups:
        for i, j in itertools.combinations(group, 2):
            assert dot(kset.ray(i), kset.ray(j)) == 0


def test_basis_of_round_trip(kset):
    for g, group in enumerate(kset.basis_groups, start=1):
        for i in group:
            assert kset.basis_of(i) == g
    with pytest.raises(IndexError):
        kset.basis_of(N_RAYS + 1)


def test_every_degree_is_23(graph):
    assert all(graph.degree(i) == 23 for i in range(1, N_RAYS + 1))


def test_edge_count(graph):
    assert graph.edge_count() == EDGE_COUNT == 460


def test_adjacency_matches_orthogonality(kset, graph):
    for i, j in itertools.combinations(range(1, N_RAYS + 1), 2):
        ortho = dot(kset.ray(i), kset.ray(j)) == 0
        assert graph.adjacent(i, j) == ortho
        assert graph.adjacent(j, i) == ortho


def test_neighbors_consistent_with_adjacent(graph):
    for i in range(1, N_RAYS + 1):
        nbrs = graph.neighbors(i)
        assert len(nbrs) == graph.degree(i)
        assert all(graph.adjacent(i, j) for j in nbrs)
        assert i not in nbrs


def test_octad_enumeration_cross_checked_against_networkx(kset, graph, octads):
    assert len(octads) == N_OCTADS == 25
    for o in octads:
        assert len(o) == 8
        for i, j in itertools.combinations(o, 2):
            assert graph.adjacent(i, j)

    gx = nx.Graph()
    gx.add_nodes_from(range(1, N_RAYS + 1))
    gx.add_edges_from(
        (i, j)
        for i, j in itertools.combinations(range(1, N_RAYS + 1), 2)
        if graph.adjacent(i, j)
    )
    reference = {frozenset(c) for c in nx.find_cliques(gx) if len(c) == 8}
    # no clique can exceed 8 mutually orthogonal rays in dimension 8
    assert max(len(c) for c in nx.find_cliques(gx)) == 8
    assert {frozenset(o) for o in octads} == reference


@pytest.mark.slow
def test_octad_count_matches_naive_combinations_scan(graph, octads):
    # literal pass over all C(40,8) = 76 904 685 index combinations (about a minute)
    adj = graph.adj
    count = 0
    for combo in itertools.combinations(range(40), 8):
        chosen = 0
        for v in combo:
            if chosen & ~adj[v]:
                break
            chosen |= 1 << v
        else:
            count += 1
    assert count == len(octads) == 25


def test_basis_groups_appear_among_octads(kset, octads):
    found = {frozenset(o) for o in octads}
    for group in kset.basis_groups:
        assert frozenset(group) in found


def test_octads_sorted_and_deterministic(graph, octads):
    assert list(octads) == sorted(octads)
    from kp40.ksset import enumerate_octads

    assert enumerate_octads(graph) == octads


def test_mermin_subset_spreads_over_groups_2_to_5(kset):
    sub = mermin_subset()
    assert len(sub) == 16
    assert len(set(sub)) == 16
    assert all(1 <= i <= N_RAYS for i in sub)
    per_group = {g: 0 for g in range(1, 6)}
    for i in sub:
        per_group[kset.basis_of(i)] += 1
    assert per_group == {1: 0, 2: 4, 3: 4, 4: 4, 5: 4}


def test_pentagram_regeneration_is_a_bijection():
    mapping = pentagram_match_map()
    assert len(mapping) == N_RAYS
    assert sorted(mapping.values()) == list(range(1, N_RAYS + 1))


# entries in -1..1 make orthogonal pairs common
small_rays = st.lists(
    st.lists(st.integers(-1, 1), min_size=8, max_size=8).filter(any), min_size=1, max_size=12
)


@given(small_rays)
def test_build_graph_is_the_pairwise_dot_adjacency(rows):
    s = KSSet(rays=tuple(Ray(r) for r in rows), basis_groups=())
    g = build_graph(s)
    assert g.n == len(rows)
    for i, j in itertools.product(range(1, g.n + 1), repeat=2):
        assert g.adjacent(i, j) == (i != j and dot(rows[i - 1], rows[j - 1]) == 0)


def _table_with(changes: dict[int, tuple[int, ...]]) -> tuple[Ray, ...]:
    """The canonical rays with the given 1-based rows replaced."""
    return tuple(
        Ray(changes.get(r.label, r.entries), label=r.label) for r in canonical_set().rays
    )


def test_match_pentagram_finds_a_row_scaled_by_minus_three(kset):
    scaled = tuple(-3 * e for e in kset.ray(5).entries)
    assert _match_pentagram(_table_with({5: scaled}), _BASIS_GROUPS) == pentagram_match_map()


def test_match_pentagram_rejects_two_rows_on_one_line(kset):
    doubled = tuple(2 * e for e in kset.ray(17).entries)
    with pytest.raises(ValueError, match="span one line"):
        _match_pentagram(_table_with({18: doubled}), _BASIS_GROUPS)


def test_match_pentagram_rejects_a_row_swapped_into_another_group(kset):
    swapped = {1: kset.ray(9).entries, 9: kset.ray(1).entries}    # groups 1 and 2
    with pytest.raises(ValueError, match="context 1"):
        _match_pentagram(_table_with(swapped), _BASIS_GROUPS)


def test_pentagram_match_map_is_a_fresh_copy():
    mapping = pentagram_match_map()
    mapping.clear()
    assert len(pentagram_match_map()) == N_RAYS


def test_load_ksset_file_rejects_a_non_orthogonal_group(tmp_path, kset):
    data = kset.to_json()
    data["basis_groups"][0][7] = 10    # ray 10 is not orthogonal to ray 1
    p = tmp_path / "groups.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="not orthogonal"):
        load_ksset_file(p)


def test_induced_bitmask():
    assert induced_bitmask([1, 3]) == 0b101
    assert induced_bitmask([]) == 0


def test_load_ksset_file_round_trip(tmp_path, kset):
    p = tmp_path / "ksset.json"
    p.write_text(json.dumps(kset.to_json()))
    loaded = load_ksset_file(p)
    assert loaded.rays == kset.rays
    assert loaded.basis_groups == kset.basis_groups


def test_load_ksset_file_names_bad_row(tmp_path, kset):
    data = kset.to_json()
    data["rays"][36] = data["rays"][36][:7]    # drop one entry from ray 37
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="ray 37"):
        load_ksset_file(p)


def test_load_ksset_file_rejects_wrong_count(tmp_path, kset):
    data = kset.to_json()
    data["rays"] = data["rays"][:39]
    p = tmp_path / "short.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="40"):
        load_ksset_file(p)


def test_canonical_set_is_cached():
    assert canonical_set() is canonical_set()
