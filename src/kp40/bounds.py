"""Exact noncontextual bounds: maximum independent sets, KS colorability, corrected limits."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .ksset import (N_RAYS, Octad, OrthoGraph, build_graph, canonical_set, enumerate_octads,
                    induced_bitmask, mermin_subset)
from .rays import number

# The noncontextual bounds, max_ones on the full graph and on the Mermin subset
SIGMA_NCHV_BOUND = 4
S_NCHV_BOUND = 3


class Assignment(NamedTuple):
    """Noncontextual 0/1 assignment over ray indices."""

    bits: dict[int, int]

    def ones(self) -> tuple[int, ...]:
        return tuple(sorted(i for i, b in self.bits.items() if b))

    def is_admissible(self, g: OrthoGraph) -> bool:
        """No two rays assigned 1 may be orthogonal (adjacent)."""
        ones = self.ones()
        return all(not g.adjacent(a, b) for k, a in enumerate(ones) for b in ones[k + 1:])


class ColorabilityResult(NamedTuple):
    colorable: bool
    witness: Assignment | None
    nodes_explored: int    # size of the exhausted search tree; only rerunning the search checks it


def _mis(adj: Sequence[int], cand: int, memo: dict[int, int]) -> int:
    """The lexicographically smallest maximum independent set within the candidate
    bitmask, as a bitmask.  It branches on the lowest candidate and keeps it on a tie:
    every set that holds the lowest index sorts before every set that does not."""
    if cand == 0:
        return 0
    hit = memo.get(cand)
    if hit is not None:
        return hit
    low = cand & -cand
    rest = cand ^ low
    take = low | _mis(adj, rest & ~adj[low.bit_length() - 1], memo)
    skip = _mis(adj, rest, memo)
    best = take if take.bit_count() >= skip.bit_count() else skip
    memo[cand] = best
    return best


def max_ones(g: OrthoGraph, subset: Iterable[int] | None = None) -> tuple[int, Assignment]:
    """Exact maximum number of 1s assignable on the induced subgraph, with the
    lexicographically smallest optimal witness."""
    indices = tuple(subset) if subset is not None else tuple(range(1, g.n + 1))
    best = _mis(g.adj, induced_bitmask(indices), {})
    return best.bit_count(), Assignment(bits={i: best >> (i - 1) & 1 for i in indices})


def ks_colorable(octads: Sequence[Octad], g: OrthoGraph) -> ColorabilityResult:
    """Search for a 0/1 assignment with exactly one 1 per octad and no two
    orthogonal 1s.  Octads are processed in order; an octad that already holds
    a chosen 1 is satisfied (it cannot hold two, being a clique)."""
    adj = g.adj
    masks = [induced_bitmask(o) for o in octads]
    nodes = 0

    def search(k: int, chosen: int, forbidden: int) -> int | None:
        nonlocal nodes
        nodes += 1
        if k == len(masks):
            return chosen
        if masks[k] & chosen:
            return search(k + 1, chosen, forbidden)
        cands = masks[k] & ~forbidden
        while cands:
            v = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            hit = search(k + 1, chosen | (1 << v), forbidden | adj[v] | (1 << v))
            if hit is not None:
                return hit
        return None

    found = search(0, 0, 0)
    witness = None if found is None else Assignment(
        bits={i: found >> (i - 1) & 1 for i in sorted({i for o in octads for i in o})})
    return ColorabilityResult(colorable=found is not None, witness=witness, nodes_explored=nodes)


def _check_epsilon(epsilon: float) -> float:
    eps = number(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    return eps


def corrected_sigma_bound(epsilon: float) -> float:
    """Noncontextual limit of the 40-test sum once every test may false-positive
    with rate epsilon: 4(1-eps) + 40 eps."""
    eps = _check_epsilon(epsilon)
    return SIGMA_NCHV_BOUND * (1.0 - eps) + N_RAYS * eps


def corrected_S_bound(epsilon: float) -> float:
    """Noncontextual limit of the 16-test sum under the same false-positive
    argument: 3(1-eps) + 16 eps."""
    eps = _check_epsilon(epsilon)
    return S_NCHV_BOUND * (1.0 - eps) + len(mermin_subset()) * eps


def extrapolated_quantum_sigma_bound(epsilon: float) -> float:
    """Affine extrapolation 5(1-eps) + 40 eps of the quantum 40-test value: every
    state's sigma is the number of basis groups, each complete basis summing to 1.
    Exposed as an optional, clearly labeled extrapolation with no measured
    target; reported only on explicit request."""
    eps = _check_epsilon(epsilon)
    return len(canonical_set().basis_groups) * (1.0 - eps) + N_RAYS * eps


def full_report_json(epsilon: float = 0.0) -> dict:
    """The combined bounds report: both inequalities plus the colorability verdict.  Each
    search's witness is checked against the graph before its bound is reported."""
    g = build_graph(canonical_set())
    sigma_nchv, witness = max_ones(g)
    S_nchv, S_witness = max_ones(g, subset=mermin_subset())
    for w in (witness, S_witness):
        if not w.is_admissible(g):
            raise ValueError(f"max_ones witness {list(w.ones())} assigns 1 to two orthogonal rays")
    return {
        "sigma_nchv": sigma_nchv,
        "S_nchv": S_nchv,
        "ks_colorable": ks_colorable(enumerate_octads(g), g).colorable,
        "epsilon": _check_epsilon(epsilon),
        "sigma_corrected": corrected_sigma_bound(epsilon),
        "S_corrected": corrected_S_bound(epsilon),
        "witness": list(witness.ones()),
    }
