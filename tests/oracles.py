"""Slow independent reference implementations the fast code is checked against."""

import argparse
import hashlib
import itertools
import json
import math
from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import Sequence

import numpy as np

from kp40 import cli, simulate
from kp40.analysis import CountRecord, estimate_probabilities
from kp40.ksset import N_RAYS, KSSet, PentagramMap, basis_of, canonical_set, ray_indices, read_fields
from kp40.pentagram import (_LINES, _SIGNS, Context, PauliWord, Vector, _apply, _masks,
                            pentagram_contexts)
from kp40.rays import Ray, RayLike, clipped_repr, entries_of, integer, listed, number, positive
from kp40.simulate import BLOCK, CHUNK, DIM, NoiseModel, PulseRun, derive_seed, ray_to_mask
from kp40.states import ProbabilityProfile, resolve_state

# an 8-slit mask as ray_to_mask returns it: (transmissivities, phases)
Mask = tuple[Sequence[float], Sequence[float]]


def stream(seed: int, name: str) -> np.random.Generator:
    """A run's named stream, built the plain way: Philox keyed by derive_seed(seed, name)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, name)))


def estimate_basis_sums(est) -> dict[int, tuple[float, float]]:
    """Sum of an estimate set's probabilities over each basis group it covers, errors in quadrature."""
    out: dict[int, list[float]] = {}
    for i, (p, err) in est.probabilities.items():
        tot = out.setdefault(basis_of(i), [0.0, 0.0])
        tot[0] += p
        tot[1] += err * err
    return {b: (tot[0], math.sqrt(tot[1])) for b, tot in sorted(out.items())}


def canonical_form(v: RayLike) -> Ray:
    """Divide by the gcd of the entries and fix sign so the first nonzero entry is positive."""
    e = entries_of(v)
    g = gcd(*e)
    if not g:
        raise ValueError("zero ray has no canonical form")
    if next(x for x in e if x) < 0:
        g = -g
    return Ray._make((tuple(x // g for x in e),))    # e is checked and nonzero: no second pass


def same_direction(a: RayLike, b: RayLike) -> bool:
    """True iff a and b span the same line, that is, their canonical forms agree."""
    return canonical_form(a).entries == canonical_form(b).entries


def mermin_kappa_to_S(kappa: float) -> float:
    """Map the correlation form kappa in [-4, 4] to the probability form kappa/2 + 2."""
    if not -4.0 <= kappa <= 4.0:
        raise ValueError(f"kappa {kappa} outside [-4, 4]")
    return kappa / 2.0 + 2.0


def norm_sq(ray: Ray) -> int:
    """Squared Euclidean norm of a ray's integer entries."""
    return sum(e * e for e in ray.entries)


def fresh_profile(state) -> ProbabilityProfile:
    """states.profile with nothing kept: every ray's squared norm and all 40 Fractions are
    computed afresh from canonical_set() on each call."""
    entries = resolve_state(state)
    norm = sum(map(mul, entries, entries))
    probs = {
        i: Fraction(sum(map(mul, entries, v)) ** 2, norm * sum(map(mul, v, v)))
        for i, v in enumerate((r.entries for r in canonical_set().rays), start=1)
    }
    return ProbabilityProfile(probs=probs)


def basis_sums(p: ProbabilityProfile, s: KSSet) -> dict[int, Fraction]:
    """Exact sum of a profile's probabilities over each basis group, by group number."""
    return {
        g + 1: sum((p.probs[i] for i in group), Fraction(0))
        for g, group in enumerate(s.basis_groups)
    }


def slit_amplitudes(mask: Mask) -> np.ndarray:
    """The complex slit amplitudes a mask encodes, scaled to unit norm by 1 / sqrt(sum(t))."""
    t, phases = map(np.asarray, mask)
    return np.sqrt(t / t.sum()) * np.exp(1j * phases)


def mask_to_ray(mask: Mask) -> Ray:
    """Decode a noiseless mask back to the integer ray it encodes."""
    transmissivities, phases = mask
    mags = [math.sqrt(t) for t in transmissivities]
    signs = [-1 if math.cos(p) < 0 else 1 for p in phases]
    smallest = min(m for m in mags if m > 1e-12)
    entries = tuple(
        int(round(m / smallest)) * s if m > 1e-12 else 0 for m, s in zip(mags, signs)
    )
    return canonical_form(entries)


def count_independent_subsets(g, size: int) -> int:
    """Literal scan over all C(n, size) index tuples, counting pairwise non-adjacent ones."""
    found = 0
    for combo in itertools.combinations(range(1, g.n + 1), size):
        if all(not g.adjacent(i, j) for i, j in itertools.combinations(combo, 2)):
            found += 1
    return found


def brute_octads(g) -> tuple[tuple[int, ...], ...]:
    """Every 8-clique of a small graph, from a literal scan over all C(n, 8) index tuples
    in `combinations` order: a tuple counts when each member is adjacent to all before it."""
    out = []
    for combo in itertools.combinations(range(g.n), 8):
        chosen = 0
        for v in combo:
            if chosen & ~g.adj[v]:
                break
            chosen |= 1 << v
        else:
            out.append(tuple(v + 1 for v in combo))
    return tuple(out)


def pentagram_words_from_lines() -> tuple[PauliWord, ...]:
    """The ten distinct words in first-appearance order over the five lines, each built afresh
    from the line strings in _LINES rather than read from the cached contexts."""
    seen: dict[str, PauliWord] = {}
    for line in _LINES:
        for f in line:
            seen.setdefault(f, PauliWord(f))
    return tuple(seen.values())


def pentagram_tally_loop(lines, n_words: int) -> tuple[int, int]:
    """(assignments satisfying every line, max lines satisfied at once) for lines given as
    (word bitmask, 1 if the line product is -1), tallied one assignment at a time."""
    sat = [0] * (1 << n_words)    # lines each assignment satisfies, tallied line by line
    for mask, odd in lines:
        for bits in range(len(sat)):
            sat[bits] += (bits & mask).bit_count() & 1 == odd
    return sat.count(len(lines)), max(sat)


def brute_mis_size(g, subset) -> int:
    """Exhaustive 2^k scan for the maximum independent set within a small vertex subset."""
    verts = sorted(subset)
    k = len(verts)
    if k > 20:
        raise ValueError("subset too large for the exhaustive oracle")
    local = []
    for a, va in enumerate(verts):
        m = 0
        for b, vb in enumerate(verts):
            if b != a and g.adjacent(va, vb):
                m |= 1 << b
        local.append(m)
    best = 0
    for mask in range(1 << k):
        if mask.bit_count() <= best:
            continue
        mm, ok = mask, True
        while mm:
            b = (mm & -mm).bit_length() - 1
            if local[b] & mask:
                ok = False
                break
            mm &= mm - 1
        if ok:
            best = mask.bit_count()
    return best


def gf2_kernel(rows: Sequence[int], n_cols: int) -> tuple[int, list[int]]:
    """(rank, every kernel vector) of a GF(2) matrix given as row bitmasks over n_cols columns.

    Gauss-Jordan elimination keeps each pivot row reduced against every other pivot column; a
    free column f then gives the basis vector with bit f set and, for each pivot column, the
    pivot row's bit f.  The 2^(n_cols - rank) kernel vectors are the XORs of basis subsets."""
    pivots: dict[int, int] = {}    # pivot column -> its fully reduced row
    for r in rows:
        for col, p in pivots.items():
            if r >> col & 1:
                r ^= p
        if r:
            col = (r & -r).bit_length() - 1
            for c in pivots:
                if pivots[c] >> col & 1:
                    pivots[c] ^= r
            pivots[col] = r
    basis = [(1 << f) | sum(1 << col for col, p in pivots.items() if p >> f & 1)
             for f in range(n_cols) if f not in pivots]
    kernel = [0]
    for b in basis:
        kernel += [v ^ b for v in kernel]
    return len(pivots), kernel


def brute_lex_min_mis(g, subset) -> tuple[int, ...]:
    """The lexicographically smallest maximum independent set within a small vertex
    subset: the first pairwise non-adjacent tuple that `combinations` yields, largest size first
    (size 0 yields the empty tuple, so it always returns)."""
    verts = sorted(subset)
    for size in range(len(verts), -1, -1):
        for combo in itertools.combinations(verts, size):
            if all(not g.adjacent(i, j) for i, j in itertools.combinations(combo, 2)):
                return combo


def _jittered_amplitudes(mask: Mask, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    # both arrays are always drawn so stream consumption never depends on the noise settings
    t_err = rng.normal(0.0, 1.0, DIM) * noise.amplitude_jitter
    p_err = rng.normal(0.0, 1.0, DIM) * noise.phase_jitter
    t, phases = map(np.asarray, mask)
    t = np.clip(t * (1.0 + t_err), 0.0, None)
    return np.sqrt(t) * np.exp(1j * (phases + p_err))


def chunk_probs_loop(
    state_mask: Mask,
    pool_masks: Sequence[Mask],
    noise: NoiseModel,
    mu: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-pulse detection probabilities for one chunk, one mask at a time.

    Masks drift once per chunk (state first, then pool order), modeling slow
    rendering miscalibration over a long run rather than per-pulse noise.
    """
    a = _jittered_amplitudes(state_mask, noise, rng)
    a = a / np.linalg.norm(a)
    occupied = 1.0 - math.exp(-mu)
    probs = np.empty(len(pool_masks))
    for idx, mask in enumerate(pool_masks):
        b = _jittered_amplitudes(mask, noise, rng)
        b = b / np.linalg.norm(b)
        o = abs(np.vdot(b, a)) ** 2
        probs[idx] = occupied * min(1.0, max(0.0, noise.efficiency * o + noise.background))
    return probs


def chunk_probs_cos_sin(
    masks: tuple[np.ndarray, np.ndarray], noise: NoiseModel, mu: float, drift: np.ndarray
) -> np.ndarray:
    """The batched chunk kernel with a direct cos and sin of each drifted slit phase.

    Same inputs and output as simulate._chunk_probs: (K, P) detection
    probabilities from (1+P, 8) transmissivities and phases and a (K, 1+P, 2, 8)
    drift.  Its exact zeros are the ones a seed's bytes were first drawn with.
    """
    t, phases = masks
    t = np.clip(t * (1.0 + drift[:, :, 0] * noise.amplitude_jitter), 0.0, None)
    theta = phases + drift[:, :, 1] * noise.phase_jitter
    root = np.sqrt(t)
    c, s = root * np.cos(theta), root * np.sin(theta)
    c_psi, s_psi = c[:, 0, :, None], s[:, 0, :, None]
    re = (c[:, 1:] @ c_psi + s[:, 1:] @ s_psi)[..., 0]
    im = (c[:, 1:] @ s_psi - s[:, 1:] @ c_psi)[..., 0]
    norms = t.sum(axis=2)
    overlaps = (re * re + im * im) / (norms[:, 1:] * norms[:, :1])
    occupied = 1.0 - math.exp(-mu)
    return occupied * np.clip(noise.efficiency * overlaps + noise.background, 0.0, 1.0)


def fresh_blocks(entries: tuple[int, ...], noise: NoiseModel, run: PulseRun):
    """simulate._blocks with the masks stacked from ray_to_mask on every call and each block's
    drift drawn into a new array, so that no block can read what an earlier one left behind."""
    s = canonical_set()
    t, phases = zip(ray_to_mask(entries), *(ray_to_mask(s.ray(i).entries) for i in run.projector_pool))
    masks = np.array(t), np.array(phases)
    drift = stream(run.seed, "drift")
    for start in range(0, run.n_pulses, CHUNK * BLOCK):
        stop = min(start + CHUNK * BLOCK, run.n_pulses)
        sizes = np.diff(np.append(np.arange(start, stop, CHUNK), stop))
        shape = (len(sizes), len(masks[0]), 2, DIM)
        yield sizes, simulate._chunk_probs(masks, noise, run.mu, drift.standard_normal(shape))


def chunk_at_a_time(
    state_mask: Mask,
    pool_masks: Sequence[Mask],
    noise: NoiseModel,
    run: PulseRun,
):
    """A run one chunk at a time, each chunk drawing its own rows of the drift, alloc and
    detect streams.

    Returns the running (pulses, allocation, detections) after each chunk and the
    expected counts.
    """
    drift, alloc_rng, detect_rng = (stream(run.seed, name) for name in ("drift", "alloc", "detect"))
    n = len(pool_masks)
    uniform = np.full(n, 1.0 / n)
    alloc, det, expected = np.zeros(n, np.int64), np.zeros(n, np.int64), np.zeros(n)
    running = []
    for start in range(0, run.n_pulses, CHUNK):
        size = min(CHUNK, run.n_pulses - start)
        probs = chunk_probs_loop(state_mask, pool_masks, noise, run.mu, drift)
        a = alloc_rng.multinomial(size, uniform)
        alloc, det = alloc + a, det + detect_rng.binomial(a, probs)
        expected += (size / n) * probs
        running.append((start + size, alloc, det))
    return running, expected


def trace_by_records(state, noise: NoiseModel, run: PulseRun, checkpoints: Sequence[int]):
    """simulate.convergence_trace building and validating a full CountRecord at each mark and
    estimating it with estimate_probabilities; the last mark's record is the full run's."""
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be increasing")
    entries = resolve_state(state)
    flux = simulate._flux_pass(run, noise)
    marks = simulate.snap_checkpoints(checkpoints, run.n_pulses)
    rows: list[dict] = []
    last = (0, 0, 0)
    for block in simulate._block_counts(entries, noise, run):
        done, alloc, det = (total + np.cumsum(x, axis=0) for total, x in zip(last, block))
        last = done[-1], alloc[-1], det[-1]
        for k in np.flatnonzero(np.isin(done, marks)):
            record = simulate._record(entries, run, det[k], alloc[k], flux)
            est = estimate_probabilities(record)
            rows.append({"pulses": int(done[k]), "sigma_est": est.sigma_est,
                         "sigma_err": est.sigma_err, "S_est": est.S_est, "S_err": est.S_err})
    return rows, record


def sliced_ray_indices(values, what: str) -> tuple[int, ...]:
    """ksset.ray_indices checking each index against a slice of the ones before it."""
    indices = tuple(map(integer, listed(values)))
    for k, i in enumerate(indices):
        if not 1 <= i <= N_RAYS:
            raise ValueError(f"{what} {i} outside 1..{N_RAYS}")
        if i in indices[:k]:
            raise ValueError(f"{what} {i} is repeated")
    return indices


def similarity_hashes(p, q, per_basis: bool) -> tuple[str, str]:
    """The p and q hashes analysis.bhattacharyya reports, computed eagerly: sha256 of the sorted
    JSON of each table normalized within its groups (basis groups, or one group 0), values
    rounded to 12 places, cut to 12 hex digits."""
    groups: dict[int, list[int]] = {}
    for i in p if per_basis else sorted(p):    # the order bhattacharyya adds each group in
        groups.setdefault(basis_of(i) if per_basis else 0, []).append(i)

    def digest(d) -> str:
        normalized = {}
        for b, members in groups.items():
            total = 0
            for i in members:    # left to right, as bhattacharyya adds
                total += float(d[i])
            normalized[str(b)] = {str(i): round(float(d[i]) / total, 12) for i in members}
        payload = json.dumps(normalized, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    return digest(p), digest(q)


_PAULI_2 = {
    "I": np.eye(2, dtype=np.int64),
    "X": np.array([[0, 1], [1, 0]], dtype=np.int64),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.int64),
}


def pauli_matrix(w: PauliWord | str) -> np.ndarray:
    """8x8 integer matrix: Kronecker product of the three 2x2 factors (qubit 1 first)."""
    factors = w.factors if isinstance(w, PauliWord) else PauliWord(w).factors
    a, b, c = (_PAULI_2[f] for f in factors)
    return np.kron(np.kron(a, b), c)


def sign_pattern_projector(c: Context, pattern: tuple[int, int, int, int]) -> np.ndarray:
    """16x the joint eigenprojector for the given sign pattern, as an exact integer matrix."""
    p = np.eye(8, dtype=np.int64)
    for s, w in zip(pattern, c.words):
        p = p @ (np.eye(8, dtype=np.int64) + s * pauli_matrix(w))
    return p


def _eigenvector(masks: list[tuple[int, int]], pattern: tuple[int, ...]) -> Vector:
    """prod_k (I + s_k W_k), 16x the joint eigenprojector, applied to v0 = (1, 2, 4, ..., 128).
    An eigenvector e with entries in {0, +/-c} gives 16 <e, v0> e / |e|^2, and <e, v0> is c
    times a signed sum of distinct powers of two, so it is never zero."""
    v = tuple(1 << r for r in range(DIM))
    for (x, z), s in zip(reversed(masks), reversed(pattern)):
        signs = _SIGNS[z]    # v + s W v, entry by entry
        v = tuple(v[r] + s * signs[r ^ x] * v[r ^ x] for r in range(DIM))
    if any(v):
        return v
    raise ArithmeticError(f"sign pattern {pattern} has no common eigenvector")


def common_eigenrays(c: Context) -> list[tuple[Ray, tuple[int, int, int, int]]]:
    """The 8 common eigenrays of a context, one per sign pattern consistent with its product sign.

    Patterns with s1*s2*s3*s4 != product_sign have no common eigenvector,
    because W1 W2 W3 W4 = product_sign * identity (checked by composing the
    words in pentagram_contexts).  For each of the 8 consistent patterns the
    ray is the vector v that _eigenvector projects out, certified here:
    W_k v = s_k v for all four words, and the 8 vectors are pairwise
    orthogonal.  Eight orthogonal nonzero joint eigenvectors in dimension 8
    make every joint eigenspace rank one.  A failed check raises ArithmeticError.
    """
    masks = [_masks(w) for w in c.words]
    found = []
    for pattern in itertools.product((1, -1), repeat=4):
        if prod(pattern) != c.product_sign:
            continue
        v = _eigenvector(masks, pattern)
        for m, s in zip(masks, pattern):
            if _apply(m, v) != tuple(s * a for a in v):
                raise ArithmeticError(f"sign pattern {pattern}: column is not an eigenvector")
        found.append((v, pattern))
    for (u, p), (v, q) in itertools.combinations(found, 2):
        if sum(map(mul, u, v)):
            raise ArithmeticError(f"eigenvectors of patterns {p} and {q} are not orthogonal")
    return [(canonical_form(v), pattern) for v, pattern in found]


def regenerating_match(rays: tuple[Ray, ...], groups: tuple[tuple[int, ...], ...]) -> PentagramMap:
    """Map (context number 1..5, sign pattern) -> table index of the ray it generates.

    Raises unless there is one basis group per context, its rows span distinct lines,
    and each generated ray, already canonical, is the canonical form of one unmatched row.
    """
    contexts = pentagram_contexts()
    if len(groups) != len(contexts):
        raise ValueError(f"expected {len(contexts)} basis groups, got {len(groups)}")
    mapping: PentagramMap = {}
    for c_idx, (context, group) in enumerate(zip(contexts, groups), start=1):
        remaining: dict[tuple[int, ...], int] = {}
        for i in group:
            j = remaining.setdefault(canonical_form(rays[i - 1]).entries, i)
            if j != i:
                raise ValueError(f"table rows {j} and {i} of context {c_idx} span one line")
        for ray, pattern in common_eigenrays(context):
            if ray.entries not in remaining:
                raise ValueError(f"context {c_idx} pattern {pattern}: generated ray "
                                 f"{ray.entries} matches no unmatched table row")
            mapping[(c_idx, pattern)] = remaining.pop(ray.entries)
        if remaining:
            raise ValueError(f"table rows {list(remaining.values())} not produced by their context")
    return mapping


def fresh_parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """cli.parse_args with both stages' parsers built anew on every call, so that no call
    can see what an earlier one left behind."""
    top = argparse.ArgumentParser(
        prog="kp40",
        description="40-ray Kochen-Specker toolkit: exact bounds, quantum values,\n"
        "and a pulse-level photon-counting simulator.",
        epilog="commands:\n"
        + "".join(f"  {name:<22}{line}\n" for name, (line, *_) in cli.COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    cli._global_flags(top, after_command=False)
    top.add_argument("command", choices=cli.COMMANDS,
                     help="the command to run, from the list below")
    rest = top.add_argument("args", nargs=argparse.REMAINDER,
                            help="its own flags and arguments, listed by `kp40 COMMAND --help`")
    rest.required = False
    ns = top.parse_args(argv)

    _, own_flags, handler = cli.COMMANDS[ns.command]
    p = argparse.ArgumentParser(prog=f"kp40 {ns.command}")
    cli._global_flags(p, after_command=True)
    if own_flags:
        own_flags(p)
    p.set_defaults(func=handler)
    return p.parse_args(ns.args, namespace=ns)


def record_from_json(data: dict) -> CountRecord:
    """CountRecord.from_json as it was before its loader checked the common case first: every
    amount goes through number, the range check, is_integer and integer."""

    def amount(v):
        f = number(v)
        if not 0 <= v <= 2**53:
            raise ValueError(f"{clipped_repr(v)} is not a finite nonnegative number up to 2**53")
        return integer(v) if f.is_integer() else f

    def per_key(d) -> dict:
        if not isinstance(d, dict):
            raise ValueError("expected a JSON object")
        out = {}
        for k, v in d.items():
            try:
                i = int(k)
            except ValueError:
                i = None
            if i is None or str(i) != k:
                raise ValueError(f"key {clipped_repr(k)} is not an index in decimal form")
            out[i] = amount(v)
        return out

    fields = read_fields(data, "record", {
        "state": lambda v: Ray(v).entries,
        "projector_pool": lambda v: ray_indices(v, "index"),
        "counts": per_key,
        "pulses_per_projector": per_key,
        "flux_calibration": per_key,
        "flux_pulses": lambda d: {b: integer(n) for b, n in per_key(d).items()},
        "mu": positive,
        "seed": integer,
    })
    return CountRecord(**fields)
