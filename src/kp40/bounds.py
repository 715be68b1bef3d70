"""Exact noncontextual bounds: their certificates, the searches that cross-check them, corrected limits."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .ksset import (KS40_POOL, N_RAYS, Octad, OrthoGraph, canonical_set, induced_bitmask,
                    mermin_subset, pentagram_match_map)
from .pentagram import Context, pentagram_contexts
from .rays import DIM, number

Rows = Sequence[tuple[int, ...]]    # the table's rays' entries, row i - 1 for ray i
LineMap = dict[int, tuple[Context, tuple[int, ...]]]    # ray -> its pentagram line and sign pattern

# The noncontextual bounds: full_report_json certifies them, and max_ones finds them by search
SIGMA_NCHV_BOUND = 4
S_NCHV_BOUND = 3

# The lower bounds' witnesses, pairwise non-orthogonal rays: the lexicographically smallest
# maximum independent sets of the full graph and of the Mermin subset
SIGMA_WITNESS = (1, 10, 20, 32)
S_WITNESS = (10, 20, 32)

# A parity proof that no KS coloring exists (Kernaghan and Peres's 36 rays in 11 bases): 11
# octads, each ray of them in an even number.  A coloring puts exactly one 1 in each octad, so
# its 1s counted octad by octad number 11, an odd total, and ray by ray an even one.
KS_PARITY_PROOF: tuple[Octad, ...] = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 2, 5, 6, 25, 28, 30, 31),
    (1, 3, 5, 7, 18, 19, 21, 24),
    (1, 4, 6, 7, 9, 12, 14, 15),
    (5, 6, 7, 8, 34, 35, 37, 40),
    (9, 10, 11, 12, 33, 34, 35, 36),
    (9, 10, 13, 14, 25, 26, 29, 30),
    (9, 11, 13, 15, 18, 20, 22, 24),
    (17, 18, 19, 20, 25, 26, 27, 28),
    (17, 18, 21, 22, 33, 34, 37, 38),
    (25, 27, 29, 31, 34, 36, 38, 40),
)


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


def _upper_bound(name: str, pool: Iterable[int], lines_of: LineMap) -> int:
    """One less than the number of pentagram lines the pool's rays lie on, by parity.

    `lines_of` maps each ray to its line and sign pattern, as canonical_set certified them: each
    ray a joint eigenvector of its line's four words, and the rays of one line pairwise
    orthogonal.  Two rays with opposite signs on a word are orthogonal too: a symmetric
    operator's eigenvectors for different eigenvalues are.  So pairwise non-orthogonal rays, one
    on every line, would give each word one value, and each line's values would multiply to its
    product sign.  The product of the line signs would then be the product of the values of the
    words that lie on an odd number of the lines.  The check: each such word takes one sign on
    all the pool's rays of its line, and those signs times the line signs multiply to -1, so no
    such rays exist.
    """
    patterns: dict[Context, list[tuple[int, ...]]] = {}
    for i in pool:
        line, pattern = lines_of[i]
        patterns.setdefault(line, []).append(pattern)
    held = Counter(w for line in patterns for w in line.words)
    what = f"{name} <= {len(patterns) - 1} certificate"
    parity = 1
    for line, found in patterns.items():
        parity *= line.product_sign
        for k, w in enumerate(line.words):
            if held[w] % 2:
                signs = {p[k] for p in found}
                if len(signs) != 1:
                    raise ValueError(f"{what}: the rays of line {' '.join(map(str, line.words))} "
                                     f"take both signs on {w}, which lies on {held[w]} of the lines")
                parity *= signs.pop()
    if parity != -1:
        raise ValueError(f"{what}: the line signs and the signs of the words on an odd number "
                         f"of lines multiply to +1")
    return len(patterns) - 1


def _certified_bound(name: str, witness: Sequence[int], pool: Sequence[int], lines_of: LineMap,
                     rows: Rows) -> int:
    """The bound on the pool that `_upper_bound` certifies, once the witness reaches it: pool
    rays, as many as the bound, pairwise non-orthogonal by dot products, so all may be 1."""
    what = f"{name} >= {len(witness)} witness {list(witness)}"
    outside = sorted(set(witness) - set(pool))
    if outside:
        raise ValueError(f"{what} holds ray {outside[0]}, outside its pool")
    for i, j in combinations(witness, 2):
        if not sum(map(mul, rows[i - 1], rows[j - 1])):
            raise ValueError(f"{what} assigns 1 to orthogonal rays {i} and {j}")
    bound = _upper_bound(name, pool, lines_of)
    if len(witness) != bound:
        raise ValueError(f"{what} does not meet the {name} <= {bound} certificate")
    return bound


def _ks_colorable(proof: Sequence[Octad], rows: Rows) -> bool:
    """False, by the parity proof: its octads are orthogonal bases, each ray of them lies in an
    even number of them, and they are an odd number."""
    what = f"no KS coloring certificate of {len(proof)} octads"
    for o in proof:
        if len(o) != DIM:
            raise ValueError(f"{what}: octad {o} holds {len(o)} rays, not {DIM}")
        for i, j in combinations(o, 2):
            if sum(map(mul, rows[i - 1], rows[j - 1])):
                raise ValueError(f"{what}: octad {o} holds rays {i} and {j}, which are not orthogonal")
    held = Counter(i for o in proof for i in o)
    odd = [i for i in sorted(held) if held[i] % 2]
    if odd:
        raise ValueError(f"{what}: ray {odd[0]} lies in {held[odd[0]]} of them")
    if not len(proof) % 2:
        raise ValueError(f"{what}: an even number of octads")
    return False


def full_report_json(epsilon: float = 0.0) -> dict:
    """The combined bounds report: both inequalities plus the colorability verdict, each read off
    a certificate checked here, with no search run.  sigma <= 4 and S <= 3 are parity arguments
    over the pentagram lines (`_upper_bound`), and SIGMA_WITNESS and S_WITNESS reach them;
    KS_PARITY_PROOF rules out a KS coloring.  A failed check raises a ValueError naming its
    certificate.  max_ones and ks_colorable find the same values by search, as a cross-check."""
    rows = [r.entries for r in canonical_set().rays]
    contexts = pentagram_contexts()
    lines_of = {i: (contexts[c - 1], pattern) for (c, pattern), i in pentagram_match_map().items()}
    return {
        "sigma_nchv": _certified_bound("sigma", SIGMA_WITNESS, KS40_POOL, lines_of, rows),
        "S_nchv": _certified_bound("S", S_WITNESS, mermin_subset(), lines_of, rows),
        "ks_colorable": _ks_colorable(KS_PARITY_PROOF, rows),
        "epsilon": _check_epsilon(epsilon),
        "sigma_corrected": corrected_sigma_bound(epsilon),
        "S_corrected": corrected_S_bound(epsilon),
        "witness": list(SIGMA_WITNESS),
    }
