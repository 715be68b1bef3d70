import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40.ksset import (
    _BASIS_GROUPS,
    EDGE_COUNT,
    N_OCTADS,
    N_RAYS,
    KSSet,
    OrthoGraph,
    _match_pentagram,
    basis_of,
    build_graph,
    canonical_set,
    enumerate_octads,
    induced_bitmask,
    load_ksset_file,
    mermin_subset,
    pentagram_match_map,
    ray_indices,
)
from kp40.rays import Ray, dot
from oracles import brute_octads, regenerating_match, sliced_ray_indices


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
            assert basis_of(i) == g
    for wild in (0, N_RAYS + 1):
        with pytest.raises(IndexError, match=f"ray index {wild} in no basis group"):
            basis_of(wild)


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


def _random_graph(seed: int) -> OrthoGraph:
    rng = random.Random(seed)
    n, density = rng.randint(8, 16), rng.uniform(0.6, 0.9)
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return OrthoGraph(n=n, adj=tuple(adj))


def test_octad_search_matches_the_combinations_scan_on_random_graphs():
    # dense graphs of 8-16 vertices, where the pruning decides most branches
    graphs = [_random_graph(seed) for seed in range(100)]
    found = [enumerate_octads(g) for g in graphs]
    assert found == [brute_octads(g) for g in graphs]
    assert sum(map(len, found)) > 1000


@pytest.mark.parametrize("edge", [(1, 2), (1, 33), (13, 37), (26, 39)])
def test_octad_search_drops_exactly_the_octads_through_a_cleared_edge(graph, octads, edge):
    i, j = edge
    assert graph.adjacent(i, j)
    adj = list(graph.adj)
    adj[i - 1] &= ~(1 << (j - 1))
    adj[j - 1] &= ~(1 << (i - 1))
    kept = tuple(o for o in octads if not {i, j} <= set(o))
    assert len(kept) < len(octads)
    assert enumerate_octads(OrthoGraph(n=graph.n, adj=tuple(adj))) == kept


def test_basis_groups_appear_among_octads(kset, octads):
    found = {frozenset(o) for o in octads}
    for group in kset.basis_groups:
        assert frozenset(group) in found


def test_octads_sorted_and_deterministic(graph, octads):
    assert list(octads) == sorted(octads)
    assert enumerate_octads(graph) == octads


def test_mermin_subset_spreads_over_groups_2_to_5(kset):
    sub = mermin_subset()
    assert len(sub) == 16
    assert len(set(sub)) == 16
    assert all(1 <= i <= N_RAYS for i in sub)
    per_group = {g: 0 for g in range(1, 6)}
    for i in sub:
        per_group[basis_of(i)] += 1
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
        Ray(changes.get(i, r.entries)) for i, r in enumerate(canonical_set().rays, start=1)
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


def test_match_pentagram_rejects_a_group_short_of_a_row(kset):
    groups = (_BASIS_GROUPS[0][:7], _BASIS_GROUPS[1] + (8,), *_BASIS_GROUPS[2:])
    with pytest.raises(ValueError, match="^context 1 has 7 table rows, not 8$"):
        _match_pentagram(kset.rays, groups)


def test_the_regenerated_eigenrays_match_the_table_as_the_row_check_does(kset):
    mapping = regenerating_match(kset.rays, kset.basis_groups)
    assert list(mapping.items()) == list(pentagram_match_map().items())


@st.composite
def edited_tables(draw):
    """The canonical rays and basis groups after one to three edits, each one of: a row scaled
    by a nonzero integer in -5..5, two rows swapped, an index moved to another group, a group
    permuted, a row set to twice another of its group, a row replaced by a small-integer ray."""
    rays = list(canonical_set().rays)
    groups = [list(grp) for grp in _BASIS_GROUPS]
    row = st.integers(1, N_RAYS)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("scale", "swap", "move", "permute", "double", "replace")))
        if edit == "scale":
            i, k = draw(row), draw(st.integers(-5, 5).filter(bool))
            rays[i - 1] = Ray([k * e for e in rays[i - 1].entries])
        elif edit == "swap":
            i, j = draw(row), draw(row)
            rays[i - 1], rays[j - 1] = rays[j - 1], rays[i - 1]
        elif edit == "move":
            src = draw(st.sampled_from([grp for grp in groups if grp]))
            dst = draw(st.sampled_from([grp for grp in groups if grp is not src]))
            dst.insert(draw(st.integers(0, len(dst))), src.pop(draw(st.integers(0, len(src) - 1))))
        elif edit == "permute":
            grp = draw(st.sampled_from(groups))
            grp[:] = draw(st.permutations(grp))
        elif edit == "double":
            grp = draw(st.sampled_from([grp for grp in groups if len(grp) > 1]))
            i, j = draw(st.lists(st.sampled_from(grp), min_size=2, max_size=2, unique=True))
            rays[i - 1] = Ray([2 * e for e in rays[j - 1].entries])
        else:
            rays[draw(row) - 1] = Ray(draw(st.lists(st.integers(-2, 2), min_size=8, max_size=8).filter(any)))
    return tuple(rays), tuple(map(tuple, groups))


def _outcome(match, rays, groups):
    try:
        return list(match(rays, groups).items())
    except ValueError:
        return ValueError


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edited_tables())
def test_match_pentagram_agrees_with_the_regenerating_match_on_an_edited_table(table):
    outcome = _outcome(_match_pentagram, *table)
    assert outcome == _outcome(regenerating_match, *table)
    rays, groups = table
    if outcome is not ValueError:    # an accepted table's bases are orthogonal, unchecked
        for grp in groups:
            for i, j in itertools.combinations(grp, 2):
                assert dot(rays[i - 1], rays[j - 1]) == 0, (i, j)


def test_pentagram_match_map_is_a_fresh_copy():
    mapping = pentagram_match_map()
    mapping.clear()
    assert len(pentagram_match_map()) == N_RAYS


def test_induced_bitmask():
    assert induced_bitmask([1, 3]) == 0b101
    assert induced_bitmask([]) == 0


def test_load_ksset_file_round_trip(tmp_path, kset):
    p = tmp_path / "ksset.json"
    p.write_text(json.dumps(kset.to_json()))
    loaded = load_ksset_file(p)
    assert loaded.rays == kset.rays
    assert loaded.basis_groups == kset.basis_groups


def test_load_ksset_file_takes_a_bare_list_and_refuses_an_unknown_field(tmp_path, kset):
    p = tmp_path / "ksset.json"
    p.write_text(json.dumps(kset.to_json()["rays"]))
    assert load_ksset_file(p) == kset
    data = kset.to_json()
    data["basis_group"] = data.pop("basis_groups")    # misspelt, so the built-in groups would be checked
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="^ray file: unexpected field 'basis_group'$"):
        load_ksset_file(p)


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


# the canonical set's ray file in each shape it may take
_RAY_FILE_SHAPES = {
    "bare list": lambda doc: doc["rays"],
    "object": lambda doc: doc,
    "object without basis_groups": lambda doc: {"rays": doc["rays"]},
}


def _ray_file_edits(row: int, col: int, group: int):
    """(shapes it applies to, edit in place, what the ValueError names) for each format mutation
    at ray `row`, entry or group position `col` and basis group `group`, all 0-based."""
    objects, grouped = ("object", "object without basis_groups"), ("object",)

    def rays(doc):
        return doc if isinstance(doc, list) else doc["rays"]

    yield objects, lambda doc: doc.pop("rays"), "missing field 'rays'"
    yield objects, lambda doc: doc.update(ray=doc.pop("rays")), "missing field 'rays'"
    yield grouped, lambda doc: doc.update(basis_group=doc.pop("basis_groups")), "unexpected field 'basis_group'"
    yield objects, lambda doc: doc.update(note="by hand"), "unexpected field 'note'"
    yield _RAY_FILE_SHAPES, lambda doc: rays(doc)[row].pop(), f"ray {row + 1}: expected 8 entries, got 7"
    for v in (1.5, True, "1"):
        yield _RAY_FILE_SHAPES, lambda doc, v=v: rays(doc)[row].__setitem__(col, v), \
            f"ray {row + 1}: {v!r} is not an integer"
    for i, why in ((0, "outside 1..40"), (41, "outside 1..40"), (_BASIS_GROUPS[group][col - 1], "is repeated")):
        yield grouped, lambda doc, i=i: doc["basis_groups"][group].__setitem__(col, i), \
            f"'basis_groups': index {i} {why}"
    for v in (5, "abc", None):
        yield grouped, lambda doc, v=v: doc.update(basis_groups=v), f"'basis_groups': expected a list, got {v!r}"
    yield grouped, lambda doc: doc["basis_groups"].__setitem__(group, "12345678"), \
        "'basis_groups': expected a list, got '12345678'"
    for v in ("12345678", 5):
        yield _RAY_FILE_SHAPES, lambda doc, v=v: rays(doc).__setitem__(row, v), \
            f"ray {row + 1}: expected a list, got {v!r}"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, N_RAYS - 1), st.integers(0, 7), st.integers(0, 4))
def test_ray_file_round_trips_in_each_shape_and_names_each_edit(tmp_path_factory, row, col, group):
    p = tmp_path_factory.mktemp("rays") / "ksset.json"
    for shape, build in _RAY_FILE_SHAPES.items():
        p.write_text(json.dumps(build(canonical_set().to_json())))
        assert load_ksset_file(p) == canonical_set()
        for shapes, edit, named in _ray_file_edits(row, col, group):
            if shape not in shapes:
                continue
            doc = build(canonical_set().to_json())
            edit(doc)
            p.write_text(json.dumps(doc))
            with pytest.raises(ValueError) as e:
                load_ksset_file(p)
            assert named in str(e.value) and "\n" not in str(e.value), (shape, named)


def test_canonical_set_is_cached():
    assert canonical_set() is canonical_set()


def _indices_outcome(check, values):
    try:
        return check(values, "pool index")
    except ValueError as e:
        return str(e)


# mostly indices in range, so that repeats are common, with a few out of range and a few
# that are not whole numbers
_INDEX_VALUES = st.one_of(st.integers(1, 12), st.integers(1, N_RAYS), st.integers(-2, N_RAYS + 3),
                          st.sampled_from([3.0, 2.5, True, "7", None, float("nan")]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_INDEX_VALUES, max_size=45))
def test_ray_indices_names_what_the_slicing_check_names(values):
    assert _indices_outcome(ray_indices, values) == _indices_outcome(sliced_ray_indices, values)


def test_ray_indices_names_the_first_fault_in_order():
    assert _indices_outcome(ray_indices, [1, 2, 2, 50]) == "pool index 2 is repeated"
    assert _indices_outcome(ray_indices, [1, 50, 2, 2]) == "pool index 50 outside 1..40"
    assert _indices_outcome(ray_indices, [3, 3, 0]) == "pool index 3 is repeated"
    assert _indices_outcome(ray_indices, [1, 2, 1.5]) == "1.5 is not an integer"
