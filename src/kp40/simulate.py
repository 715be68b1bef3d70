"""Pulse-level Monte Carlo of the slit-mask photon-counting experiment.

A state is encoded as an 8-slit mask (transmissivity + binary phase per slit),
each pulse is assigned a uniformly drawn projector from the run's pool, and a
detection fires with probability (1 - e^-mu) * noisy_probability.  All
randomness flows through named substreams of the run seed, ("pulse", k) for
pulse chunk k and ("flux", b) for basis group b, so results are bit-identical
however the chunks are scheduled.  A substream is np.random.PCG64(key), where
key is the first 16 bytes of the sha256 of its path, read little-endian: NumPy's
SeedSequence hash turns each key into the four 64-bit words that seed its PCG64,
here as uint32 array operations over a whole block of keys at once.

Chunks are processed in blocks of up to BLOCK.  Each chunk's stream gives its
mask drift first, one (1+P, 2, 8) standard-normal block for the state mask and
the P pool masks (state row first, then pool order, each row's transmissivity
errors before its phase errors), then its pulse allocation and detections.  The
block's (K, 1+P, 2, 8) drift becomes a (K, P) probability matrix in one NumPy
pass.  Every stream is consumed exactly as if the chunks ran one at a time, and
memory depends on BLOCK, not on the run's length.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .analysis import CountRecord, estimate_probabilities
from .ksset import KS40_POOL, N_RAYS, build_graph, canonical_set, read_fields
from .rays import Ray, canonical_form, entries_of
from .states import resolve_state

DIM = 8
DEFAULT_MU = 0.14
CHUNK = 32768    # pulses per RNG substream; results never depend on scheduling across chunks
BLOCK = 64       # chunks whose probabilities are computed in one pass (a 2M-pulse run is one block)
# four named in the reference data plus one ray per remaining basis group
DEFAULT_INITIAL_RAYS: tuple[int, ...] = (1, 9, 17, 25, 27, 34, 36, 40)


def _path_digest(seed: int, path: tuple) -> bytes:
    """sha256 of the master seed followed by "/part" for each part of a named path."""
    h = hashlib.sha256(str(int(seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return h.digest()


def _hash_keys(h: int, mult: int, n: int) -> np.ndarray:
    """(2, n) uint32: the xors and multipliers SeedSequence's running hash constant steps through."""
    return np.array([(h, h := h * mult & 0xFFFFFFFF) for _ in range(n)], dtype=np.uint32).T


# NumPy's SeedSequence constants: 4 pool words then 12 cross mixes, and 8 output words
_MIX_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8).reshape(2, 2, 4)    # word 4j + i hashes pool[i]


def _hashmix(v: np.ndarray, keys: np.ndarray) -> np.ndarray:
    v = (v ^ keys[0]) * keys[1]
    return v ^ (v >> 16)


@dataclass
class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words computed for it in advance."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """np.random.SeedSequence(key).generate_state(4, np.uint64) for each (K, 4) row of a
    key's little-endian uint32 words, as uint32 array operations over the whole block."""
    # an int key's missing top words hash as zero words, so every key takes all four
    pool = _hashmix(entropy, _MIX_KEYS[:, :4])
    for src in range(4):
        # word src, hashed afresh for each other word in turn, is mixed into that word
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[:, src, None], _MIX_KEYS[:, 4 + 3 * src:7 + 3 * src])
        mixed = 0xCA01F9DD * pool[:, dst] - 0x4973F715 * hashed
        pool[:, dst] = mixed ^ (mixed >> 16)
    state = _hashmix(pool[:, None, :], _STATE_KEYS).reshape(-1, 8)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _substreams(seed: int, name: str, indices) -> list[np.random.Generator]:
    """A generator on np.random.PCG64(int.from_bytes(digest[:16], "little")) per path (name, index)."""
    digests = b"".join(_path_digest(seed, (name, k))[:16] for k in indices)
    entropy = np.frombuffer(digests, dtype="<u4").reshape(-1, 4)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in _seed_words(entropy)]


def derive_seed(seed: int, *path) -> int:
    """64-bit child seed for a named sub-run."""
    return int.from_bytes(_path_digest(seed, path)[:8], "little")


@dataclass(frozen=True)
class SlitPreparation:
    """8-slit mask: per-slit transmissivity, binary phase, and the normalization constant."""

    transmissivities: tuple[float, ...]
    phases: tuple[float, ...]
    normalization: float


def ray_to_mask(v: Ray | Sequence[int]) -> SlitPreparation:
    """Encode an integer ray: t_l = (entry_l / max|entry|)^2, phase pi for negative entries."""
    entries = entries_of(v)
    if not any(entries):
        raise ValueError("cannot encode the zero ray as a slit mask")
    peak = max(abs(e) for e in entries)
    t = tuple((e / peak) ** 2 for e in entries)
    phases = tuple(math.pi if e < 0 else 0.0 for e in entries)
    return SlitPreparation(
        transmissivities=t, phases=phases, normalization=1.0 / math.sqrt(sum(t))
    )


def mask_to_ray(prep: SlitPreparation) -> Ray:
    """Decode a noiseless mask back to the integer ray it encodes."""
    mags = [math.sqrt(t) for t in prep.transmissivities]
    signs = [-1 if math.cos(p) < 0 else 1 for p in prep.phases]
    smallest = min(m for m in mags if m > 1e-12)
    entries = tuple(
        int(round(m / smallest)) * s if m > 1e-12 else 0 for m, s in zip(mags, signs)
    )
    return canonical_form(entries)


@dataclass(frozen=True)
class NoiseModel:
    """Mask imperfections and detection parameters.

    noisy probability = clamp(efficiency * |<v_noisy|psi_noisy>|^2 + background, 0, 1),
    then scaled by the pulse-occupancy factor (1 - e^-mu).
    """

    amplitude_jitter: float = 0.0    # std-dev of multiplicative transmissivity error
    phase_jitter: float = 0.0        # std-dev (radians) of per-slit phase error
    background: float = 0.0          # per-projection false-count probability
    efficiency: float = 1.0          # overall detection scale

    def __post_init__(self):
        for name in ("amplitude_jitter", "phase_jitter"):
            if not 0 <= getattr(self, name) < math.inf:    # false for NaN too
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if not 0.0 <= self.background < 1.0:
            raise ValueError("background must be in [0, 1)")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "NoiseModel":
        """Load the four fields; malformed input raises a ValueError that names the field."""
        fields = read_fields(data, "noise config", dict.fromkeys(cls.__dataclass_fields__, float))
        return cls(**fields)


IDEAL_NOISE = NoiseModel()


@dataclass(frozen=True)
class PulseRun:
    seed: int
    n_pulses: int
    mu: float = DEFAULT_MU
    projector_pool: tuple[int, ...] = KS40_POOL

    def __post_init__(self):
        if self.n_pulses <= 0:
            raise ValueError("n_pulses must be positive")
        if not 0 < self.mu < math.inf:    # false for NaN too
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        pool = tuple(self.projector_pool)
        if not pool or len(set(pool)) != len(pool):
            raise ValueError("projector_pool must be nonempty without repeats")
        if any(not 1 <= i <= N_RAYS for i in pool):
            raise ValueError("projector_pool indices must lie in 1..40")
        object.__setattr__(self, "projector_pool", pool)


@lru_cache(maxsize=128)
def _mask_of(entries: tuple[int, ...]) -> SlitPreparation:
    """ray_to_mask, kept for rays seen before: every run re-stacks the same pool masks."""
    return ray_to_mask(entries)


def _mask_stack(entries: tuple[int, ...], pool: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(1+P, 8) transmissivities and phases: the state's mask, then the pool's in order."""
    s = canonical_set()
    masks = [_mask_of(entries)] + [_mask_of(s.ray(i).entries) for i in pool]
    return np.array([m.transmissivities for m in masks]), np.array([m.phases for m in masks])


def _chunk_probs(
    masks: tuple[np.ndarray, np.ndarray], noise: NoiseModel, mu: float, drift: np.ndarray
) -> np.ndarray:
    """(K, P) per-pulse detection probabilities of K chunks from their (K, 1+P, 2, 8) mask drift.

    Masks drift once per chunk, modeling slow rendering miscalibration over a
    long run rather than per-pulse noise.
    """
    t, phases = masks
    t = np.clip(t * (1.0 + drift[:, :, 0] * noise.amplitude_jitter), 0.0, None)
    amps = np.sqrt(t) * np.exp(1j * (phases + drift[:, :, 1] * noise.phase_jitter))
    amps /= np.linalg.norm(amps, axis=2, keepdims=True)
    overlaps = np.abs(amps[:, 1:].conj() @ amps[:, 0, :, None])[..., 0] ** 2
    occupied = 1.0 - math.exp(-mu)
    return occupied * np.clip(noise.efficiency * overlaps + noise.background, 0.0, 1.0)


def _chunks(entries: tuple[int, ...], noise: NoiseModel, run: PulseRun):
    """Yield each chunk's (pulses, detection probabilities, generator) in chunk order.

    Chunk k's generator is its ("pulse", k) substream, left just after its drift.
    Drift is drawn in full whatever the noise settings, so stream consumption
    never depends on them.
    """
    masks = _mask_stack(entries, run.projector_pool)
    shape = (len(masks[0]), 2, DIM)
    sizes = [min(CHUNK, run.n_pulses - p) for p in range(0, run.n_pulses, CHUNK)]
    for start in range(0, len(sizes), BLOCK):
        block = sizes[start:start + BLOCK]
        rngs = _substreams(run.seed, "pulse", range(start, start + len(block)))
        drift = np.empty((len(block), *shape))
        for rng, chunk_drift in zip(rngs, drift):
            rng.standard_normal(out=chunk_drift)
        yield from zip(block, _chunk_probs(masks, noise, run.mu, drift), rngs)


def _running_counts(entries: tuple[int, ...], noise: NoiseModel, run: PulseRun):
    """Yield (pulses so far, pulses per projector, detections per projector) after each chunk."""
    n = len(run.projector_pool)
    uniform = np.full(n, 1.0 / n)
    alloc_total = np.zeros(n, dtype=np.int64)
    det_total = np.zeros(n, dtype=np.int64)
    done = 0
    for size, probs, rng in _chunks(entries, noise, run):
        alloc = rng.multinomial(size, uniform)
        alloc_total += alloc
        det_total += rng.binomial(alloc, probs)
        done += size
        yield done, alloc_total, det_total


def _flux_pass(run: PulseRun, noise: NoiseModel, expected: bool = False) -> tuple[dict, dict]:
    """Independent calibration of each basis group the pool touches: all-pass analyzer,
    detection probability eff*(1 - e^-mu).  `expected` gives the mean count, not a draw."""
    p_cal = noise.efficiency * (1.0 - math.exp(-run.mu))
    n_cal = max(1, run.n_pulses // len(run.projector_pool))
    bases = sorted({canonical_set().basis_of(i) for i in run.projector_pool})
    if expected:
        flux = {b: n_cal * p_cal for b in bases}
    else:
        rngs = _substreams(run.seed, "flux", bases)
        flux = {b: int(rng.binomial(n_cal, p_cal)) for b, rng in zip(bases, rngs)}
    return flux, {b: n_cal for b in bases}


def _record(
    entries: tuple[int, ...],
    run: PulseRun,
    counts: np.ndarray,
    pulses: np.ndarray,
    flux: tuple[dict, dict],
) -> CountRecord:
    pool = run.projector_pool
    flux_calibration, flux_pulses = flux
    return CountRecord(
        state=entries,
        projector_pool=pool,
        counts=dict(zip(pool, counts.tolist())),
        pulses_per_projector=dict(zip(pool, pulses.tolist())),
        flux_calibration=flux_calibration,
        flux_pulses=flux_pulses,
        mu=run.mu,
        seed=run.seed,
    )


def ground_truth_probabilities(state, noise: NoiseModel, run: PulseRun) -> dict[int, float]:
    """What the flux-normalized estimator converges to for this run: the
    pulse-weighted mean over chunks of clamp(eff*o + bg) / eff."""
    occupied = 1.0 - math.exp(-run.mu)
    total = np.zeros(len(run.projector_pool))
    for size, p, _ in _chunks(resolve_state(state), noise, run):
        total += size * (p / occupied / noise.efficiency)
    mean = total / run.n_pulses
    return {i: float(v) for i, v in zip(run.projector_pool, mean)}


def run_ks_experiment(state, noise: NoiseModel, run: PulseRun) -> CountRecord:
    """Simulate one run: every pulse gets a uniformly drawn pool projector, detections
    are Bernoulli at (1 - e^-mu) * noisy_probability, plus an independent flux pass."""
    entries = resolve_state(state)
    *_, (_, alloc, det) = _running_counts(entries, noise, run)
    return _record(entries, run, det, alloc, _flux_pass(run, noise))


def expected_record(state, noise: NoiseModel, run: PulseRun) -> CountRecord:
    """Infinite-statistics limit: counts replaced by their exact expected values
    (floats) given this seed's drift sequence, with exact uniform pulse allocation."""
    entries = resolve_state(state)
    n = len(run.projector_pool)
    expected = np.zeros(n)
    for size, p, _ in _chunks(entries, noise, run):
        expected += (size / n) * p
    share = np.full(n, run.n_pulses / n)
    return _record(entries, run, expected, share, _flux_pass(run, noise, expected=True))


@dataclass(frozen=True)
class PairEstimate:
    initial: int
    partner: int
    probability: float
    error: float


def run_exclusivity_campaign(
    run: PulseRun,
    noise: NoiseModel = IDEAL_NOISE,
    initial_rays: Sequence[int] = DEFAULT_INITIAL_RAYS,
) -> tuple[float, list[PairEstimate]]:
    """Prepare each initial ray as the state and measure its 23 orthogonal partners.

    Returns (epsilon, per-pair table) with epsilon the mean of all should-be-zero
    probability estimates.  Each leg is a full run with its own derived seed.
    """
    initial_rays = tuple(initial_rays)
    for k, i in enumerate(initial_rays):
        if not 1 <= i <= N_RAYS:
            raise ValueError(f"initial ray {i} outside 1..40")
        if i in initial_rays[:k]:
            raise ValueError(f"initial ray {i} is repeated")
    s = canonical_set()
    g = build_graph(s)
    pairs: list[PairEstimate] = []
    for i in initial_rays:
        partners = g.neighbors(i)
        leg = PulseRun(
            seed=derive_seed(run.seed, "exclusivity", i),
            n_pulses=run.n_pulses,
            mu=run.mu,
            projector_pool=partners,
        )
        record = run_ks_experiment(s.ray(i), noise, leg)
        est = estimate_probabilities(record)
        for j in partners:
            p, err = est.probabilities[j]
            pairs.append(PairEstimate(initial=i, partner=j, probability=p, error=err))
    epsilon = sum(p.probability for p in pairs) / len(pairs)
    return epsilon, pairs


@dataclass(frozen=True)
class TracePoint:
    pulses: int
    sigma_est: float
    sigma_err: float
    S_est: float
    S_err: float


@dataclass(frozen=True)
class TraceResult:
    points: tuple[TracePoint, ...]
    record: CountRecord    # the full-run record; its estimates equal the last point


def snap_checkpoints(checkpoints: Sequence[int], n_pulses: int) -> tuple[int, ...]:
    """Round checkpoints up to chunk boundaries (capped at n_pulses), keeping them increasing."""
    snapped: list[int] = []
    for cp in checkpoints:
        if cp <= 0:
            raise ValueError("checkpoints must be positive")
        b = min(n_pulses, CHUNK * math.ceil(cp / CHUNK))
        if not snapped or b > snapped[-1]:
            snapped.append(b)
    if not snapped or snapped[-1] != n_pulses:
        snapped.append(n_pulses)
    return tuple(snapped)


def convergence_trace(
    state,
    noise: NoiseModel,
    run: PulseRun,
    checkpoints: Sequence[int],
) -> TraceResult:
    """Running (pulses, sigma_est +- err, S_est +- err) at chunk-aligned checkpoints.

    The final point always sits at n_pulses, so it matches estimating the full record.
    """
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be increasing")
    entries = resolve_state(state)
    flux = _flux_pass(run, noise)
    marks = snap_checkpoints(checkpoints, run.n_pulses)
    points: list[TracePoint] = []
    for done, alloc, det in _running_counts(entries, noise, run):
        if done in marks:
            record = _record(entries, run, det, alloc, flux)
            est = estimate_probabilities(record)
            points.append(
                TracePoint(
                    pulses=done,
                    sigma_est=est.sigma_est,
                    sigma_err=est.sigma_err,
                    S_est=est.S_est,
                    S_err=est.S_err,
                )
            )
    # the last chunk ends at n_pulses, always a mark, so record is the full run's
    return TraceResult(points=tuple(points), record=record)
