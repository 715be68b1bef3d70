"""The canonical 40-ray Kernaghan-Peres set, its orthogonality graph, and octads."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from pathlib import Path
from typing import Callable, Iterable, Mapping

from . import pentagram
from .rays import Ray, canonical_form, integer, parse_ray_entries

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


PentagramMap = dict[tuple[int, tuple[int, int, int, int]], int]


@dataclass(frozen=True)
class KSSet:
    """The 40 rays (1-based table order) plus the 5 basis groups of 8 indices."""

    rays: tuple[Ray, ...]
    basis_groups: tuple[tuple[int, ...], ...]
    # the pentagram map canonical_set certified for this set; a loaded set has none
    _pentagram: PentagramMap | None = field(default=None, repr=False, compare=False)
    _group_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        group_of: dict[int, int] = {}
        for g, group in enumerate(self.basis_groups, start=1):
            for i in group:
                group_of.setdefault(i, g)    # an index listed twice keeps its first group
        object.__setattr__(self, "_group_of", group_of)

    def ray(self, index: int) -> Ray:
        if not 1 <= index <= len(self.rays):
            raise IndexError(f"ray index {index} out of range 1..{len(self.rays)}")
        return self.rays[index - 1]

    def basis_of(self, index: int) -> int:
        """1-based basis-group number containing the given ray index."""
        if index not in self._group_of:
            raise IndexError(f"ray index {index} in no basis group")
        return self._group_of[index]

    def to_json(self) -> dict:
        return {
            "rays": [list(r.entries) for r in self.rays],
            "basis_groups": [list(g) for g in self.basis_groups],
        }


@dataclass(frozen=True)
class OrthoGraph:
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


def _validate_groups(rays: tuple[Ray, ...], groups: tuple[tuple[int, ...], ...]) -> None:
    for group in groups:
        for a_pos, a in enumerate(group):
            for b in group[a_pos + 1:]:
                if sum(map(mul, rays[a - 1].entries, rays[b - 1].entries)):
                    raise ValueError(f"rays {a} and {b} in one basis group are not orthogonal")


def _match_pentagram(rays: tuple[Ray, ...], groups: tuple[tuple[int, ...], ...]) -> PentagramMap:
    """Map (context number 1..5, sign pattern) -> table index of the ray it generates.

    Raises unless the rows of each basis group span distinct lines and each
    generated ray, already canonical, is the canonical form of one unmatched row.
    """
    mapping: PentagramMap = {}
    for c_idx, (context, group) in enumerate(zip(pentagram.pentagram_contexts(), groups), start=1):
        remaining: dict[tuple[int, ...], int] = {}
        for i in group:
            j = remaining.setdefault(canonical_form(rays[i - 1]).entries, i)
            if j != i:
                raise ValueError(f"table rows {j} and {i} of context {c_idx} span one line")
        for ray, pattern in pentagram.common_eigenrays(context):
            if ray.entries not in remaining:
                raise ValueError(f"context {c_idx} pattern {pattern}: generated ray "
                                 f"{ray.entries} matches no unmatched table row")
            mapping[(c_idx, pattern)] = remaining.pop(ray.entries)
        if remaining:
            raise ValueError(f"table rows {list(remaining.values())} not produced by their context")
    if len(mapping) != N_RAYS:
        raise ValueError(f"matched {len(mapping)} rays, expected {N_RAYS}")
    return mapping


@lru_cache(maxsize=1)
def canonical_set() -> KSSet:
    """The table data, validated at construction against orthogonality and the pentagram."""
    rays = tuple(Ray(row, label=i) for i, row in enumerate(_TABLE, start=1))
    _validate_groups(rays, _BASIS_GROUPS)
    mapping = _match_pentagram(rays, _BASIS_GROUPS)
    return KSSet(rays=rays, basis_groups=_BASIS_GROUPS, _pentagram=mapping)


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
    produced exactly once.
    """
    out: list[Octad] = []
    adj = g.adj

    def extend(clique: list[int], cand: int) -> None:
        if len(clique) == 8:
            out.append(tuple(v + 1 for v in clique))
            return
        if len(clique) + cand.bit_count() < 8:
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            clique.append(v)
            extend(clique, cand & adj[v])
            clique.pop()

    extend([], (1 << g.n) - 1)
    return tuple(sorted(out))


def mermin_subset() -> tuple[int, ...]:
    """The 16 ray indices of the single-system Mermin inequality."""
    return _MERMIN_SUBSET


def pentagram_match_map() -> PentagramMap:
    """Map (context number 1..5, sign pattern) -> table index: a copy of the 40/40 bijection
    canonical_set certified, which goes with the set on `canonical_set.cache_clear()`."""
    return dict(canonical_set()._pentagram)


def read_json(path: str | Path, what: str):
    """Parse a JSON file; text that is not JSON raises a ValueError naming `what` and the path."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} {path} is not JSON: {e}") from None


def read_fields(data, what: str, converters: Mapping[str, Callable]) -> dict:
    """Convert the named fields of a loaded JSON object, one converter per field.

    Input that is not an object, a missing field, or a failed conversion raises a
    ValueError naming `what` and the field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object")
    for key in converters:
        if key not in data:
            raise ValueError(f"{what}: missing field {key!r}")
    out = {}
    for key, convert in converters.items():
        try:
            out[key] = convert(data[key])
        except (TypeError, ValueError, AttributeError, OverflowError) as e:
            raise ValueError(f"{what} field {key!r}: {e}") from None
    return out


def load_ksset_file(path: str | Path) -> KSSet:
    """Parse a ksset.json file: an object with `rays` and optional `basis_groups`, or a
    bare list of rays.  Malformed input raises a ValueError naming the field or ray."""
    data = read_json(path, "ray file")
    if isinstance(data, dict) and "rays" not in data:
        raise ValueError("ray file: missing field 'rays'")
    rows = data["rays"] if isinstance(data, dict) else data
    if not isinstance(rows, list) or len(rows) != N_RAYS:
        raise ValueError(f"ray file field 'rays': expected a list of {N_RAYS} rays")
    rays = tuple(
        Ray(parse_ray_entries(row, index=i), label=i) for i, row in enumerate(rows, start=1)
    )
    groups = _BASIS_GROUPS
    if isinstance(data, dict) and "basis_groups" in data:
        try:
            groups = tuple(tuple(integer(i) for i in grp) for grp in data["basis_groups"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"ray file field 'basis_groups': {e}") from None
        if any(not 1 <= i <= N_RAYS for grp in groups for i in grp):
            raise ValueError(f"ray file field 'basis_groups': index outside 1..{N_RAYS}")
    _validate_groups(rays, groups)
    return KSSet(rays=rays, basis_groups=groups)


def induced_bitmask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask
