"""Slow independent reference implementations the fast code is checked against."""

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from kp40.ksset import KSSet
from kp40.pentagram import Context, PauliWord
from kp40.rays import Ray
from kp40.simulate import CHUNK, DIM, NoiseModel, PulseRun, SlitPreparation, _path_digest
from kp40.states import ProbabilityProfile


def substream(seed: int, *path) -> np.random.Generator:
    """A named substream of the master seed, built the plain way: one PCG64 keyed by the
    integer of the path digest's first 16 bytes, with NumPy's own SeedSequence."""
    digest = _path_digest(seed, path)
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))


def estimate_basis_sums(est, s: KSSet) -> dict[int, tuple[float, float]]:
    """Sum of an estimate set's probabilities over each basis group it covers, errors in quadrature."""
    out: dict[int, list[float]] = {}
    for i, (p, err) in est.probabilities.items():
        tot = out.setdefault(s.basis_of(i), [0.0, 0.0])
        tot[0] += p
        tot[1] += err * err
    return {b: (tot[0], math.sqrt(tot[1])) for b, tot in sorted(out.items())}


def norm_sq(ray: Ray) -> int:
    """Squared Euclidean norm of a ray's integer entries."""
    return sum(e * e for e in ray.entries)


def basis_sums(p: ProbabilityProfile, s: KSSet) -> dict[int, Fraction]:
    """Exact sum of a profile's probabilities over each basis group, by group number."""
    return {
        g + 1: sum((p.probs[i] for i in group), Fraction(0))
        for g, group in enumerate(s.basis_groups)
    }


def slit_amplitudes(prep: SlitPreparation) -> np.ndarray:
    """The complex slit amplitudes a mask encodes, scaled by its normalization constant."""
    t = np.asarray(prep.transmissivities)
    return prep.normalization * np.sqrt(t) * np.exp(1j * np.asarray(prep.phases))


def count_independent_subsets(g, size: int) -> int:
    """Literal scan over all C(n, size) index tuples, counting pairwise non-adjacent ones."""
    found = 0
    for combo in itertools.combinations(range(1, g.n + 1), size):
        if all(not g.adjacent(i, j) for i, j in itertools.combinations(combo, 2)):
            found += 1
    return found


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


def _jittered_amplitudes(prep: SlitPreparation, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    # both arrays are always drawn so stream consumption never depends on the noise settings
    t_err = rng.normal(0.0, 1.0, DIM) * noise.amplitude_jitter
    p_err = rng.normal(0.0, 1.0, DIM) * noise.phase_jitter
    t = np.clip(np.asarray(prep.transmissivities) * (1.0 + t_err), 0.0, None)
    return np.sqrt(t) * np.exp(1j * (np.asarray(prep.phases) + p_err))


def chunk_probs_loop(
    state_mask: SlitPreparation,
    pool_masks: Sequence[SlitPreparation],
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


def chunks_loop(
    state_mask: SlitPreparation,
    pool_masks: Sequence[SlitPreparation],
    noise: NoiseModel,
    run: PulseRun,
):
    """Each chunk's (pulses, probabilities, generator) of a run, one chunk at a time."""
    for k, start in enumerate(range(0, run.n_pulses, CHUNK)):
        rng = substream(run.seed, "pulse", k)
        probs = chunk_probs_loop(state_mask, pool_masks, noise, run.mu, rng)
        yield min(CHUNK, run.n_pulses - start), probs, rng


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
