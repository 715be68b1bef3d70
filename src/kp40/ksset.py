"""The canonical 40-ray Kernaghan-Peres set, its orthogonality graph, octads and structural checks."""

from __future__ import annotations

import json
from functools import lru_cache
from operator import mul
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

from . import pentagram
from .rays import DIM, Ray, clipped_repr, integer, listed

N_RAYS = 40
RAY_DEGREE = 23
EDGE_COUNT = 460
N_OCTADS = 25    # frozen regression constant, cross-checked against networkx in tests

# Rows 1-40 in table order, one basis group of 8 per commuting line of the
# pentagram (see pentagram._LINES for the group-to-line correspondence).
_TABLE: tuple[tuple[int, ...], ...] = (
    # common eigenvectors of {zxx, xxz, xzx, zzz}
    (0, 1, 1, 0, 1, 0, 0, -1),
    (1, 0, 0, 1, 0, 1, -1, 0),
    (1, 0, 0, 1, 0, -1, 1, 0),
    (0, 1, 1, 0, -1, 0, 0, 1),
    (1, 0, 0, -1, 0, 1, 1, 0),
    (0, 1, -1, 0, 1, 0, 0, 1),
    (0, -1, 1, 0, 1, 0, 0, 1),
    (-1, 0, 0, 1, 0, 1, 1, 0),
    # common eigenvectors of {z1, z2, z3, zzz}: the computational basis
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
    # common eigenvectors of {x1, x2, z3, xxz}
    (1, 0, 1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1, 0, 1),
    (1, 0, -1, 0, 1, 0, -1, 0),
    (0, 1, 0, -1, 0, 1, 0, -1),
    (1, 0, 1, 0, -1, 0, -1, 0),
    (0, 1, 0, 1, 0, -1, 0, -1),
    (1, 0, -1, 0, -1, 0, 1, 0),
    (0, 1, 0, -1, 0, -1, 0, 1),
    # common eigenvectors of {x1, z2, x3, xzx}
    (0, 0, 1, -1, 0, 0, -1, 1),
    (0, 0, 1, 1, 0, 0, -1, -1),
    (1, -1, 0, 0, -1, 1, 0, 0),
    (1, 1, 0, 0, -1, -1, 0, 0),
    (0, 0, 1, -1, 0, 0, 1, -1),
    (0, 0, 1, 1, 0, 0, 1, 1),
    (1, -1, 0, 0, 1, -1, 0, 0),
    (1, 1, 0, 0, 1, 1, 0, 0),
    # common eigenvectors of {z1, x2, x3, zxx}
    (0, 0, 0, 0, 1, -1, -1, 1),
    (0, 0, 0, 0, 1, 1, -1, -1),
    (0, 0, 0, 0, 1, -1, 1, -1),
    (0, 0, 0, 0, 1, 1, 1, 1),
    (1, -1, -1, 1, 0, 0, 0, 0),
    (1, 1, -1, -1, 0, 0, 0, 0),
    (1, -1, 1, -1, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0),
)

_BASIS_GROUPS: tuple[tuple[int, ...], ...] = tuple(
    tuple(range(8 * g + 1, 8 * g + 9)) for g in range(5)
)

_MERMIN_SUBSET: tuple[int, ...] = (10, 11, 13, 16, 17, 20, 22, 23, 26, 27, 29, 32, 34, 35, 37, 40)
KS40_POOL: tuple[int, ...] = tuple(range(1, N_RAYS + 1))    # every ray, the pool of the sigma runs

Octad = tuple[int, ...]
T = TypeVar("T")


PentagramMap = dict[tuple[int, tuple[int, int, int, int]], int]


class KSSet(NamedTuple):
    """The 40 rays (1-based table order) plus the 5 basis groups of 8 indices."""

    rays: tuple[Ray, ...]
    basis_groups: tuple[tuple[int, ...], ...]

    def ray(self, index: int) -> Ray:
        if not 1 <= index <= len(self.rays):
            raise IndexError(f"ray index {index} out of range 1..{len(self.rays)}")
        return self.rays[index - 1]

    def to_json(self) -> dict:
        return {
            "rays": [list(r.entries) for r in self.rays],
            "basis_groups": [list(g) for g in self.basis_groups],
        }


class OrthoGraph(NamedTuple):
    """Orthogonality graph over ray indices 1..n; adjacency stored as bitmasks (bit i = index i+1)."""

    n: int
    adj: tuple[int, ...]

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i - 1] >> (j - 1) & 1)

    def degree(self, i: int) -> int:
        return self.adj[i - 1].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j + 1 for j in range(self.n) if self.adj[i - 1] >> j & 1)


def _match_pentagram(rays: tuple[Ray, ...], groups: tuple[tuple[int, ...], ...]) -> PentagramMap:
    """Map (context number 1..5, sign pattern) -> table index of the row that is the context's
    joint eigenvector for that pattern, patterns in itertools.product((1, -1), repeat=4) order.

    Raises unless there is one basis group per context and each group holds 8 rows, each a
    joint eigenvector of its context's four words, with 8 distinct sign patterns.  Such rows
    are pairwise orthogonal without a check: each word W is a real symmetric signed
    permutation, so W u = s u and W v = t v with s != t give s<u,v> = <u,Wv> = <Wu,v> = t<u,v>,
    that is <u,v> = 0, and two distinct patterns differ in some word's sign.  Eight orthogonal
    nonzero rows in dimension 8 fill the context's 8 joint eigenspaces, so each is one line:
    they are its 8 eigenrays, and two rows with one pattern span one line.
    """
    contexts = pentagram.pentagram_contexts()
    if len(groups) != len(contexts):
        raise ValueError(f"expected {len(contexts)} basis groups, got {len(groups)}")
    mapping: PentagramMap = {}
    for c_idx, (context, group) in enumerate(zip(contexts, groups), start=1):
        found: dict[tuple[int, ...], int] = {}
        for i in group:
            try:
                pattern = pentagram.eigen_pattern(context, rays[i - 1].entries)
            except ValueError as e:
                raise ValueError(f"table row {i} of context {c_idx} is {e}") from None
            j = found.setdefault(pattern, i)
            if j != i:
                raise ValueError(f"table rows {j} and {i} of context {c_idx} span one line")
        if len(found) != DIM:
            raise ValueError(f"context {c_idx} has {len(found)} table rows, not {DIM}")
        for pattern in sorted(found, reverse=True):    # +1 sorts before -1, as in product order
            mapping[(c_idx, pattern)] = found[pattern]
    return mapping


# the pentagram map that the cached canonical_set() certified when it was built, and the values
# kept(name, build) derived from that set on first use; each construction starts them afresh
_derived: dict[str, object] = {}


@lru_cache(maxsize=1)
def canonical_set() -> KSSet:
    """The table data, certified at construction to match the pentagram, whose bases are orthogonal."""
    rays = tuple(map(Ray, _TABLE))
    _derived.clear()
    _derived["map"] = _match_pentagram(rays, _BASIS_GROUPS)
    return KSSet(rays=rays, basis_groups=_BASIS_GROUPS)


def kept(name: str, build: Callable[[KSSet], T]) -> T:
    """build(canonical_set()), built at most once per construction of the set, on first use,
    kept under `name` beside the cached set and gone with it on `canonical_set.cache_clear()`."""
    s = canonical_set()
    if name not in _derived:
        _derived[name] = build(s)
    return _derived[name]


def build_graph(s: KSSet) -> OrthoGraph:
    """Edge (i, j) iff dot(v_i, v_j) == 0."""
    rows = [r.entries for r in s.rays]
    adj = [0] * len(rows)
    for i, a in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if not sum(map(mul, a, rows[j])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return OrthoGraph(n=len(rows), adj=tuple(adj))


def enumerate_octads(g: OrthoGraph) -> tuple[Octad, ...]:
    """All 8-cliques of the orthogonality graph, sorted lexicographically.

    Ordered backtracking: members are chosen in increasing index order and each
    new member must be adjacent to all chosen ones, so every 8-clique is
    produced exactly once, and in lexicographic order.  A member is tried only
    while enough candidates remain after it, and recursed into only if enough
    of them are its neighbours; the eighth member closes a clique without a call.
    """
    out: list[Octad] = []
    adj = g.adj

    def extend(clique: Octad, cand: int) -> None:
        need = 7 - len(clique)    # members still to come after the next one
        while cand.bit_count() > need:
            v = (cand & -cand).bit_length()    # the lowest candidate, as a 1-based index
            cand &= cand - 1
            if not need:
                out.append(clique + (v,))
            elif (nxt := cand & adj[v - 1]).bit_count() >= need:
                extend(clique + (v,), nxt)

    extend((), (1 << g.n) - 1)
    return tuple(out)


def canonical_graph() -> OrthoGraph:
    """build_graph(canonical_set()), kept with the set (see kept)."""
    return kept("graph", build_graph)


def canonical_octads() -> tuple[Octad, ...]:
    """enumerate_octads(canonical_graph()), kept with the set (see kept)."""
    return kept("octads", lambda s: enumerate_octads(canonical_graph()))


def basis_of(index: int) -> int:
    """1-based basis-group number of a table index: rows 8g-7..8g form group g."""
    if not 1 <= index <= N_RAYS:
        raise IndexError(f"ray index {index} in no basis group")
    return (index + 7) // 8


def mermin_subset() -> tuple[int, ...]:
    """The 16 ray indices of the single-system Mermin inequality."""
    return _MERMIN_SUBSET


def pentagram_match_map() -> PentagramMap:
    """Map (context number 1..5, sign pattern) -> table index: a copy of the 40/40 bijection
    canonical_set certified once per construction, which goes with the set on
    `canonical_set.cache_clear()`."""
    canonical_set()
    return dict(_derived["map"])


def verification_checks(s: KSSet | None = None,
                        g: OrthoGraph | None = None) -> list[tuple[str, bool, str]]:
    """All structural checks as (name, ok, detail) rows; injectable for fault testing.

    On the canonical set they read the pentagram map, graph and octads kept with it, each
    derived at most once per construction (see kept); any other set, or an
    injected `g`, is matched, built and enumerated afresh."""
    checks: list[tuple[str, bool, str]] = []
    try:
        s = s or canonical_set()
        canonical = s is canonical_set()
        mapping = pentagram_match_map() if canonical else _match_pentagram(s.rays, s.basis_groups)
        checks.append(("ray regeneration", True, f"{len(mapping)}/40 rays matched"))
    except (ValueError, IndexError) as e:
        checks.append(("ray regeneration", False, str(e)))
        return checks

    kept = canonical and g is None
    g = canonical_graph() if kept else g if g is not None else build_graph(s)
    bad_deg = [i for i in range(1, g.n + 1) if g.degree(i) != RAY_DEGREE]
    checks.append(
        ("degree check", not bad_deg,
         f"all degrees {RAY_DEGREE}" if not bad_deg else f"wrong degree at rays {bad_deg[:5]}")
    )
    edges = g.edge_count()
    checks.append(("edge count", edges == EDGE_COUNT, f"{edges} edges"))

    octads = canonical_octads() if kept else enumerate_octads(g)
    groups_found = {tuple(sorted(grp)) for grp in s.basis_groups} <= set(octads)
    checks.append(
        ("octad enumeration", len(octads) == N_OCTADS and groups_found,
         f"{len(octads)} octads, basis groups {'included' if groups_found else 'MISSING'}")
    )

    sat, max_lines = pentagram.pentagram_unsat()
    checks.append(
        ("pentagram contradiction", sat == 0 and max_lines == 4,
         f"{sat} satisfying assignments, at most {max_lines} of 5 lines satisfiable")
    )
    return checks


def ray_indices(values: Iterable, what: str) -> tuple[int, ...]:
    """Whole numbers in 1..40, none repeated, as ints.  An index out of range or repeated
    raises a ValueError naming `what` and the index; values that are not a list, or a value
    that is not a whole number, raise `listed`'s or `integer`'s, which names the value."""
    indices = tuple(map(integer, listed(values)))
    seen = set()
    for i in indices:
        if not 1 <= i <= N_RAYS:
            raise ValueError(f"{what} {clipped_repr(i)} outside 1..{N_RAYS}")
        if i in seen:
            raise ValueError(f"{what} {i} is repeated")
        seen.add(i)
    return indices


def read_json(path: str | Path, what: str):
    """Parse a JSON file as UTF-8 whatever the locale (RFC 8259); bytes that are not UTF-8, text
    that is not JSON, nesting past the parser's depth or an integer past Python's digit limit
    raise a ValueError naming `what` and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:    # JSONDecodeError and UnicodeDecodeError too
        raise ValueError(f"{what} {path} is not JSON: {e}") from None


def read_fields(data, what: str, converters: Mapping[str, Callable]) -> dict:
    """Convert a loaded JSON object that holds exactly the converters' fields, one per field.

    Input that is not an object, a missing field, a field that has no converter, or a failed
    conversion raises a ValueError naming `what` and the field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object")
    for key in [*converters, *data]:
        if key not in data or key not in converters:
            raise ValueError(f"{what}: {'missing' if key not in data else 'unexpected'} field "
                             f"{clipped_repr(key)}")
    out = {}
    for key, convert in converters.items():
        try:
            out[key] = convert(data[key])
        except (TypeError, ValueError, AttributeError, OverflowError) as e:
            raise ValueError(f"{what} field {key!r}: {e}") from None
    return out


def _rays(rows) -> tuple[Ray, ...]:
    if len(listed(rows)) != N_RAYS:
        raise ValueError(f"expected a list of {N_RAYS} rays")
    rays = []
    for i, row in enumerate(rows, start=1):
        try:
            rays.append(Ray(row))
        except (TypeError, ValueError) as e:
            raise ValueError(f"ray {i}: {e}") from None
    return tuple(rays)


def load_ksset_file(path: str | Path) -> KSSet:
    """Parse a ksset.json file: an object with `rays`, optional `basis_groups` and no other field,
    or a bare list of rays.  Malformed input raises a ValueError naming the field or ray."""
    data = read_json(path, "ray file")
    data = data if isinstance(data, dict) else {"rays": data}
    converters: dict[str, Callable] = {"rays": _rays}
    if "basis_groups" in data:
        converters["basis_groups"] = lambda v: tuple(ray_indices(grp, "index") for grp in listed(v))
    return KSSet(**{"basis_groups": _BASIS_GROUPS, **read_fields(data, "ray file", converters)})


def induced_bitmask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask
