"""Pulse-level Monte Carlo of the slit-mask photon-counting experiment.

A state is encoded as an 8-slit mask (transmissivity + binary phase per slit),
each pulse is assigned a uniformly drawn projector from the run's pool, and a
detection fires with probability (1 - e^-mu) * noisy_probability.

All randomness of a run flows through four named streams of its seed: "drift",
"alloc", "detect" and "flux", each a Philox generator keyed by
derive_seed(seed, name) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  Pulses come in chunks of CHUNK, and chunks in blocks of up
to BLOCK.  A block of K chunks is drawn with one call per stream, in chunk
order: a (K, 1+P, 2, 8) standard-normal mask drift (per chunk the state mask
first, then the P pool masks in order, each row's transmissivity errors before
its phase errors), the K chunks' multinomial pulse allocations, and their
binomial detections.  The flux pass is one binomial draw over the basis groups
in ascending order.  Each stream is thus one sequence of draws in chunk order,
so the bytes depend neither on BLOCK nor on how runs are spread over worker
threads, while memory depends on BLOCK, not on the run's length.  Each thread
that runs a leg keeps one drift array of its last block's shape for the life
of the thread, at most BLOCK x 41 x 2 x 8 float64 (336 KB), and draws each
block of that shape into it; the draws, and so the bytes, are those of a
fresh array.
A detection probability of exactly 0 draws nothing from the "detect" stream, so
the exact zeros of the chunk kernel, _chunk_probs, are part of those bytes too.
reproduce and calibrate run the legs of a reproduce bundle and of a noise grid
search and return their documents, which the command line writes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import threading
from collections import namedtuple
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import CountRecord, estimate_counts, estimate_probabilities, exclusivity_document, judge
from .bounds import corrected_S_bound, corrected_sigma_bound
from .ksset import (KS40_POOL, KSSet, basis_of, canonical_graph, canonical_set, kept, mermin_subset,
                    ray_indices, read_fields, read_json)
from .rays import DIM, Ray, clipped_repr, integer, listed, number, positive
from .states import resolve_state

DEFAULT_MU = 0.14
CHUNK = 32768    # pulses per mask drift, allocation and detection draw
BLOCK = 64       # chunks drawn in one call per stream (a 2M-pulse run is one block)
MAX_AMPLITUDE_JITTER = 1e6    # far beyond any physical mask; squared amplitudes stay finite
# four named in the reference data plus one ray per remaining basis group
DEFAULT_INITIAL_RAYS: tuple[int, ...] = (1, 9, 17, 25, 27, 34, 36, 40)


def derive_seed(seed: int, *path) -> int:
    """64-bit child seed for a named sub-run: the first 8 bytes, little-endian, of the
    sha256 of the seed followed by "/part" for each part of the path."""
    h = hashlib.sha256(str(int(seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "little")


@lru_cache(maxsize=1)
def _key_sequence() -> type:
    """A seed sequence holding a 128-bit Philox key k: Philox asks it for two 64-bit words
    and gets k's, low word first, as Philox(key=k) splits k, so no OS-entropy SeedSequence
    is built.  Made on first use, so that importing this module loads no numpy.random."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: int):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return np.array([self.key & (2**64 - 1), self.key >> 64], dtype=np.uint64)

    return KeySequence


def _stream(seed: int, name: str) -> np.random.Generator:
    """The run's stream `name`: a Philox generator keyed by derive_seed(seed, name)."""
    return np.random.Generator(np.random.Philox(_key_sequence()(derive_seed(seed, name))))


def ray_to_mask(v: Ray | Sequence[int]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Encode an integer ray as an 8-slit mask, the pair (transmissivities, phases):
    t_l = (entry_l / max|entry|)^2, and phase pi for negative entries, else 0."""
    entries = Ray(v).entries
    peak = max(abs(e) for e in entries)
    t = tuple((e / peak) ** 2 for e in entries)
    return t, tuple(math.pi if e < 0 else 0.0 for e in entries)


class NoiseModel(namedtuple("NoiseModel", "amplitude_jitter phase_jitter background efficiency")):
    """Mask imperfections and detection parameters.

    noisy probability = clamp(efficiency * |<v_noisy|psi_noisy>|^2 + background, 0, 1),
    then scaled by the pulse-occupancy factor (1 - e^-mu).
    """

    __slots__ = ()

    def __new__(cls,
                amplitude_jitter: float = 0.0,    # std-dev of multiplicative transmissivity error
                phase_jitter: float = 0.0,        # std-dev (radians) of per-slit phase error
                background: float = 0.0,          # per-projection false-count probability
                efficiency: float = 1.0,          # overall detection scale
                ) -> NoiseModel:
        self = super().__new__(cls, amplitude_jitter, phase_jitter, background, efficiency)
        for name in ("amplitude_jitter", "phase_jitter"):
            if not 0 <= getattr(self, name) < math.inf:    # false for NaN too
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if self.amplitude_jitter > MAX_AMPLITUDE_JITTER:
            raise ValueError(f"amplitude_jitter must be at most {MAX_AMPLITUDE_JITTER:g}, "
                             f"got {self.amplitude_jitter}")
        if not 0.0 <= self.background < 1.0:
            raise ValueError("background must be in [0, 1)")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        return self

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data: dict) -> NoiseModel:
        """Load exactly the four fields, bare or under `noise` in the document `calibrate` writes
        from its `search`.  Malformed input raises a ValueError that names the field."""
        config = data if isinstance(data, dict) and "noise" in data else {"noise": data}
        noise = cls(**read_fields(config["noise"], "noise config", _NOISE_FIELDS))
        if config is data:    # a calibrate output
            _check_config(config)
        return noise


IDEAL_NOISE = NoiseModel()
_NOISE_FIELDS = dict.fromkeys(NoiseModel._fields, number)    # the converters of its four bare fields


def _config(search: list[dict], target: float, n_pulses: int, seed: int) -> dict:
    """The noise config `kp40 calibrate` writes, {noise, calibration, search}: the noise, epsilon
    and F_GHZ of the chosen `search` row, the accepted row nearest `target`, else the nearest row
    of all."""
    best = min(search, key=lambda p: (not p["accepted"], abs(p["epsilon"] - target)))
    calibration = {"epsilon_simulated": best["epsilon"], "epsilon_target": target,
                   "F_GHZ_simulated": best["F_GHZ"], "pulses": n_pulses, "seed": seed}
    return {"noise": best["noise"], "calibration": calibration, "search": search}


def _true_or_false(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ValueError(f"{clipped_repr(v)} is not true or false")


def _check_config(config: dict) -> None:
    """Refuse a calibrate output that is not the document `_config` rebuilds from its `search`
    rows and its `calibration`'s `epsilon_target`, `pulses` and `seed`; a ValueError names the
    first field that is missing, unexpected or different."""
    # all five read as what they are, so that `true` is not taken for a matching 1.0
    cal = read_fields(config.get("calibration"), "noise config field 'calibration'",
                      {"epsilon_simulated": number, "epsilon_target": number,
                       "F_GHZ_simulated": number, "pulses": integer, "seed": integer})
    row_fields = {"noise": lambda v: NoiseModel(**read_fields(v, "noise", _NOISE_FIELDS)).to_json(),
                  "epsilon": number, "F_GHZ": number, "accepted": _true_or_false}

    def rows(v) -> list[dict]:
        if not listed(v):
            raise ValueError("expected a non-empty list of grid rows")
        return [read_fields(r, f"row {k}", row_fields) for k, r in enumerate(v, start=1)]

    # `noise` and `calibration` are read already
    search = read_fields(config, "noise config", {"noise": dict, "calibration": dict, "search": rows})["search"]
    target = cal["epsilon_target"]
    have, want = dict(config), _config(search, target, cal["pulses"], cal["seed"])
    for doc in (have, want):    # calibration's fields by dotted name
        doc.update((f"calibration.{k}", v) for k, v in doc.pop("calibration").items())
    for name in want:
        if have[name] != want[name]:
            raise ValueError(f"noise config field {name!r} is {clipped_repr(have[name])}, but the "
                             f"search row chosen for epsilon_target {target!r} holds "
                             f"{clipped_repr(want[name])}")


def load_noise_config(path: str | Path | None) -> NoiseModel:
    """Read a noise config, by default the packaged calibrated one: either the four
    bare NoiseModel fields or a calibrate output."""
    p = Path(__file__).parent / "data" / "noise_calibrated.json" if path is None else Path(path)
    if not p.exists():
        raise FileNotFoundError(
            f"noise config {p} not found; run `kp40 calibrate --config-out {p}` to create one"
        )
    return NoiseModel.from_json(read_json(p, "noise config"))


class PulseRun(namedtuple("PulseRun", "seed n_pulses mu projector_pool")):
    __slots__ = ()

    def __new__(cls, seed: int, n_pulses: int, mu: float = DEFAULT_MU,
                projector_pool: Sequence[int] = KS40_POOL) -> PulseRun:
        seed, n_pulses = integer(seed), integer(n_pulses)
        try:
            mu = positive(mu)
        except ValueError:
            raise ValueError(f"mu must be finite and positive, got {mu}") from None
        pool = ray_indices(projector_pool, "projector_pool index")
        if not 0 < n_pulses <= 2**53:    # above 2**53, a record's float counts stop being exact
            raise ValueError(f"n_pulses must be in 1..2**53, got {n_pulses}")
        if not pool:
            raise ValueError("projector_pool must be nonempty")
        return super().__new__(cls, seed, n_pulses, mu, pool)


def _ray_masks(s: KSSet) -> tuple[np.ndarray, np.ndarray]:
    """(40, 8) transmissivities and phases of the set's rays in table order, read-only."""
    stacked = tuple(map(np.array, zip(*(ray_to_mask(r.entries) for r in s.rays))))
    for a in stacked:
        a.flags.writeable = False
    return stacked


def _mask_stack(entries: tuple[int, ...], pool: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(1+P, 8) transmissivities and phases: the state's mask, then the pool's in order."""
    rows = np.subtract(pool, 1)
    return tuple(np.vstack((state, plane[rows]))
                 for state, plane in zip(ray_to_mask(entries), kept("masks", _ray_masks)))


def _chunk_probs(
    masks: tuple[np.ndarray, np.ndarray], noise: NoiseModel, mu: float, drift: np.ndarray
) -> np.ndarray:
    """(K, P) per-pulse detection probabilities of K chunks from their (K, 1+P, 2, 8) mask drift.

    Masks drift once per chunk, modeling slow rendering miscalibration over a
    long run rather than per-pulse noise.  A slit's amplitude is
    sqrt(t) * e^(i theta); the overlap of pool mask v with the state mask psi is
    |<v|psi>|^2 / (|v|^2 |psi|^2), with |v|^2 = sum(t), taken in real arithmetic:
    with c = sqrt(t) cos(theta) and s = sqrt(t) sin(theta), <v|psi> has real
    part c_v.c_psi + s_v.s_psi and imaginary part c_v.s_psi - s_v.c_psi.

    cos and sin come from one half-angle tangent u = tan(theta / 2), as
    (1 - u^2) / (1 + u^2) and 2u / (1 + u^2).  With no phase drift u is 0 or
    tan(pi/2) = 1.6e16, where the ratios are exactly 1 and 0, or -1 and
    sin(pi) = 1.2e-16: c and s, and so the exact zeros among the probabilities,
    are bitwise those of a direct cos and sin.  Folding the binary phase into the
    sign of sqrt(t) instead would turn 1e-34 overlaps of exclusive rays into zeros.
    """
    t, phases = masks
    jitter = np.array([noise.amplitude_jitter, noise.phase_jitter / 2])[:, None, None, None]
    root, u = np.multiply(drift.transpose(2, 0, 1, 3), jitter, order="C")    # contiguous planes
    root += 1.0
    root *= t
    norms = np.maximum(root, 0.0, out=root) @ np.ones(DIM)    # of the drifted t
    np.sqrt(root, out=root)
    u += phases / 2
    c = np.square(np.tan(u, out=u))
    den = c + 1.0
    np.subtract(1.0, c, out=c)
    c /= den
    c *= root
    s = np.add(u, u, out=u)
    s /= den
    s *= root
    c_psi, s_psi = c[:, 0, :, None], s[:, 0, :, None]
    re = (c[:, 1:] @ c_psi + s[:, 1:] @ s_psi)[..., 0]
    im = (c[:, 1:] @ s_psi - s[:, 1:] @ c_psi)[..., 0]
    norm = norms[:, 1:] * norms[:, :1]    # 0 for a mask drifted dark: it passes no light
    overlaps = np.divide(re * re + im * im, norm, out=np.zeros_like(norm), where=norm > 0)
    occupied = 1.0 - math.exp(-mu)
    return occupied * np.clip(noise.efficiency * overlaps + noise.background, 0.0, 1.0)


# per thread, the drift array of the last block it drew, reused while blocks keep its shape
_scratch = threading.local()


def _blocks(entries: tuple[int, ...], noise: NoiseModel, run: PulseRun):
    """Yield each block's chunk sizes (K,) and (K, P) detection probabilities, in chunk order.

    A block's drift is one draw from the run's "drift" stream, made in full
    whatever the noise settings, so stream consumption never depends on them.
    It is drawn into this thread's scratch array, which _chunk_probs reads before
    the block is yielded and never returns, so nothing yielded aliases it.
    """
    masks = _mask_stack(entries, run.projector_pool)
    drift = _stream(run.seed, "drift")
    for start in range(0, run.n_pulses, CHUNK * BLOCK):
        stop = min(start + CHUNK * BLOCK, run.n_pulses)
        sizes = np.diff(np.append(np.arange(start, stop, CHUNK), stop))
        shape = (len(sizes), len(masks[0]), 2, DIM)
        scratch = getattr(_scratch, "drift", None)
        if scratch is None or scratch.shape != shape:
            scratch = _scratch.drift = np.empty(shape)
        yield sizes, _chunk_probs(masks, noise, run.mu, drift.standard_normal(out=scratch))


def _block_counts(entries: tuple[int, ...], noise: NoiseModel, run: PulseRun):
    """Yield, for each block, its chunk sizes (K,) and each chunk's pulses and detections per
    projector (K, P)."""
    n = len(run.projector_pool)
    uniform = np.full(n, 1.0 / n)
    alloc_rng, detect_rng = _stream(run.seed, "alloc"), _stream(run.seed, "detect")
    for sizes, probs in _blocks(entries, noise, run):
        alloc = alloc_rng.multinomial(sizes, uniform)
        yield sizes, alloc, detect_rng.binomial(alloc, probs)


def _flux_pass(run: PulseRun, noise: NoiseModel, expected: bool = False) -> tuple[dict, dict]:
    """Independent calibration of each basis group the pool touches: all-pass analyzer,
    detection probability eff*(1 - e^-mu).  `expected` gives the mean count, not a draw."""
    p_cal = noise.efficiency * (1.0 - math.exp(-run.mu))
    n_cal = max(1, run.n_pulses // len(run.projector_pool))
    bases = sorted({basis_of(i) for i in run.projector_pool})
    if expected:
        flux = {b: n_cal * p_cal for b in bases}
    else:
        counts = _stream(run.seed, "flux").binomial(n_cal, p_cal, size=len(bases))
        flux = dict(zip(bases, counts.tolist()))
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


def _pulse_weighted(entries: tuple[int, ...], noise: NoiseModel, run: PulseRun) -> np.ndarray:
    """The sum over chunks of each chunk's pulses times its (P,) detection probabilities."""
    return sum((sizes[:, None] * p).sum(axis=0) for sizes, p in _blocks(entries, noise, run))


def ground_truth_probabilities(state, noise: NoiseModel, run: PulseRun) -> dict[int, float]:
    """What the flux-normalized estimator converges to for this run: the
    pulse-weighted mean over chunks of clamp(eff*o + bg) / eff."""
    occupied = 1.0 - math.exp(-run.mu)
    total = _pulse_weighted(resolve_state(state), noise, run)
    mean = total / (occupied * noise.efficiency * run.n_pulses)
    return {i: float(v) for i, v in zip(run.projector_pool, mean)}


def run_ks_experiment(state, noise: NoiseModel, run: PulseRun) -> CountRecord:
    """Simulate one run: every pulse gets a uniformly drawn pool projector, detections
    are Bernoulli at (1 - e^-mu) * noisy_probability, plus an independent flux pass."""
    entries = resolve_state(state)
    alloc = det = 0
    for _, a, d in _block_counts(entries, noise, run):
        alloc, det = alloc + a.sum(axis=0), det + d.sum(axis=0)
    return _record(entries, run, det, alloc, _flux_pass(run, noise))


def expected_record(state, noise: NoiseModel, run: PulseRun) -> CountRecord:
    """Infinite-statistics limit: counts replaced by their exact expected values
    (floats) given this seed's drift sequence, with exact uniform pulse allocation."""
    entries = resolve_state(state)
    n = len(run.projector_pool)
    expected = _pulse_weighted(entries, noise, run) / n
    share = np.full(n, run.n_pulses / n)
    return _record(entries, run, expected, share, _flux_pass(run, noise, expected=True))


def run_exclusivity_campaign(
    run: PulseRun,
    noise: NoiseModel = IDEAL_NOISE,
    initial_rays: Sequence[int] = DEFAULT_INITIAL_RAYS,
) -> dict:
    """Prepare each initial ray as the state and measure its 23 orthogonal partners, each leg
    a full run with its own derived seed.  Returns the pairs' `exclusivity_document`."""
    initial_rays = ray_indices(initial_rays, "initial ray")
    s = canonical_set()
    g = canonical_graph()
    pairs: list[dict] = []
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
            pairs.append({"initial": i, "partner": j, "probability": p, "error": err})
    return exclusivity_document(initial_rays, pairs)


def snap_checkpoints(checkpoints: Sequence[int], n_pulses: int) -> tuple[int, ...]:
    """Round checkpoints up to chunk boundaries (capped at n_pulses), sorted, each once, and
    ending at n_pulses."""
    if any(cp <= 0 for cp in checkpoints):
        raise ValueError("checkpoints must be positive")
    return tuple(sorted({min(n_pulses, CHUNK * math.ceil(cp / CHUNK)) for cp in checkpoints} | {n_pulses}))


def convergence_trace(
    state,
    noise: NoiseModel,
    run: PulseRun,
    checkpoints: Sequence[int],
) -> tuple[list[dict], CountRecord]:
    """The trace.csv rows {pulses, sigma_est, sigma_err, S_est, S_err} at chunk-aligned
    checkpoints, and the full-run record.

    The final row always sits at n_pulses, so it matches estimating the record.
    """
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be increasing")
    entries = resolve_state(state)
    flux = _flux_pass(run, noise)
    marks = set(snap_checkpoints(checkpoints, run.n_pulses))
    rows: list[dict] = []
    last = (0, 0, 0)    # the pulses, and the pulses and detections per projector, so far
    for block in _block_counts(entries, noise, run):
        done, alloc, det = (total + np.cumsum(x, axis=0) for total, x in zip(last, block))
        last = done[-1], alloc[-1], det[-1]
        for k, pulses in enumerate(done.tolist()):
            if pulses in marks:    # the simulator's own counts, which pass every record rule
                est = estimate_counts(run.projector_pool, det[k].tolist(), alloc[k].tolist(), *flux)
                rows.append({"pulses": pulses, "sigma_est": est.sigma_est,
                             "sigma_err": est.sigma_err, "S_est": est.S_est, "S_err": est.S_err})
    # the last chunk ends at n_pulses, always a mark, so the last row estimates the record
    return rows, _record(entries, run, last[2], last[1], flux)


F_TARGETS = {"ghz": 0.93, "w": 0.97, "beta": 0.92, "eta": 0.98, "prod": 0.95}
SIGMA_STATES = ("ghz", "w", "beta", "eta", "prod")
S_STATES = ("ghz", "w")
# The legs of a reproduce bundle as (kind, state): the exclusivity campaign,
# the longest, first; then one record per sigma state (all 40 tests) and per
# S state (the 16 Mermin tests).
REPRODUCE_LEGS: tuple[tuple[str, str | None], ...] = (
    ("excl", None),
    *(("sigma", st) for st in SIGMA_STATES),
    *(("s", st) for st in S_STATES),
)


def _summary_row(kind: str, state: str, judged) -> dict:
    """One summary row: a leg's judged sum, with F for the sigma legs only."""
    sigma = kind == "sigma"
    quantity = "sigma" if sigma else "S"
    v = judged.verdict[quantity]
    return {
        "state": state,
        "quantity": quantity,
        "estimate": v["value"],
        "error": v["error"],
        "corrected_bound": v["corrected_bound"],
        "quantum_value": v["quantum_value"],
        "violates": v["value"] > v["corrected_bound"],
        "F": judged.similarity.F if sigma else "",
        "F_target": F_TARGETS[state] if sigma else "",
    }


def reproduce(seed: int, n_pulses: int, mu: float, noise: NoiseModel, workers: int = 1) -> dict:
    """The files of a reproduce bundle by name: eps.json, a record per leg under records/,
    and the judged summary as summary.json and as summary.csv rows.

    Up to `workers` legs run at once on threads of this process; each leg draws from its
    own streams, so the documents do not depend on `workers`.
    """
    from concurrent.futures import ThreadPoolExecutor

    def leg(kind: str, state: str | None):
        """Run one leg: the campaign's eps.json document, or a record."""
        if state is None:
            return run_exclusivity_campaign(
                PulseRun(seed=derive_seed(seed, kind), n_pulses=n_pulses, mu=mu), noise)
        run = PulseRun(seed=derive_seed(seed, kind, state), n_pulses=n_pulses, mu=mu,
                       projector_pool=mermin_subset() if kind == "s" else KS40_POOL)
        return run_ks_experiment(state, noise, run)

    if workers > 1:
        # NumPy's draws and ufuncs release the GIL, so legs overlap on threads.  One worker
        # stays on this thread: a one-thread pool made a 2M-pulse reproduce 2-4 ms slower.
        with ThreadPoolExecutor(max_workers=min(workers, len(REPRODUCE_LEGS))) as ex:
            eps, *records = ex.map(leg, *zip(*REPRODUCE_LEGS))
    else:
        eps, *records = map(leg, *zip(*REPRODUCE_LEGS))
    epsilon = eps["epsilon"]
    legs = REPRODUCE_LEGS[1:]
    rows = [_summary_row(kind, state, judge(record, epsilon, per_basis=True))
            for (kind, state), record in zip(legs, records)]
    return {
        "eps.json": eps,
        **{f"records/{kind}_{state}.json": record.to_json()
           for (kind, state), record in zip(legs, records)},
        "summary.json": {
            "epsilon": epsilon,
            "sigma_corrected_bound": corrected_sigma_bound(epsilon),
            "S_corrected_bound": corrected_S_bound(epsilon),
            "rows": rows,
        },
        "summary.csv": rows,
    }


CALIBRATION_GRID = {
    "phase_jitter": (0.0, 0.22, 0.25, 0.28),
    "amplitude_jitter": (0.0, 0.06),
    "background": (0.0, 0.001, 0.002),
    "efficiency": (0.5,),
}


def calibrate(seed: int, n_pulses: int, mu: float, target: float) -> tuple[dict, bool]:
    """Search CALIBRATION_GRID for the noise whose campaign epsilon is nearest `target`.

    Returns the noise config `kp40 calibrate` writes, `_config` of the search rows {noise,
    epsilon, F_GHZ, accepted} in the grid's key order (phase jitter slowest), and whether a row,
    and so the chosen one, was accepted.
    """
    run = PulseRun(seed=seed, n_pulses=n_pulses, mu=mu)
    ghz_run = PulseRun(seed=derive_seed(seed, "cal", "ghz"), n_pulses=n_pulses, mu=mu)
    search = []
    for values in itertools.product(*CALIBRATION_GRID.values()):
        noise = NoiseModel(**dict(zip(CALIBRATION_GRID, values)))
        epsilon = run_exclusivity_campaign(run, noise)["epsilon"]
        F = judge(run_ks_experiment("ghz", noise, ghz_run), epsilon, per_basis=True).similarity.F
        search.append({"noise": noise.to_json(), "epsilon": epsilon, "F_GHZ": F,
                       "accepted": 0.010 <= epsilon <= 0.018 and 0.90 <= F <= 0.99})
    return _config(search, target, n_pulses, seed), any(row["accepted"] for row in search)
