import itertools
import math

import numpy as np
import pytest

from kp40.analysis import estimate_probabilities
from kp40.cli import load_noise_config
from kp40.ksset import build_graph, canonical_set, mermin_subset
from kp40.simulate import (
    BLOCK,
    CHUNK,
    DEFAULT_INITIAL_RAYS,
    DEFAULT_MU,
    DIM,
    IDEAL_NOISE,
    KS40_POOL,
    CountRecord,
    NoiseModel,
    PulseRun,
    convergence_trace,
    derive_seed,
    expected_record,
    ground_truth_probabilities,
    mask_to_ray,
    ray_to_mask,
    run_exclusivity_campaign,
    run_ks_experiment,
    snap_checkpoints,
    _chunks,
    _seed_words,
    _substreams,
)
from kp40 import simulate
from kp40.rays import same_direction
from kp40.states import profile, resolve_state

from oracles import chunk_probs_loop, chunks_loop, slit_amplitudes, substream


# ------------------------------------------------------------- randomness plumbing

def test_substream_is_deterministic_and_path_separated():
    a = substream(7, "pulse", 0).random(4)
    b = substream(7, "pulse", 0).random(4)
    c = substream(7, "pulse", 1).random(4)
    d = substream(8, "pulse", 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


SEEDER_SEEDS = [0, 1, 2**63, 2**64 - 1, *np.random.default_rng(10).integers(0, 2**62, 6).tolist()]


@pytest.mark.parametrize("name", ["pulse", "flux"])
def test_block_seeder_matches_the_plain_substream(name):
    # 10 seeds x 2 names x 100 indices: 2000 (seed, name, index) triples across a block boundary
    indices = range(BLOCK - 50, BLOCK + 50)
    for seed in SEEDER_SEEDS:
        for k, fast in zip(indices, _substreams(seed, name, indices), strict=True):
            slow = substream(seed, name, k)
            assert fast.bit_generator.state == slow.bit_generator.state, (seed, name, k)
            assert fast.random(3).tolist() == slow.random(3).tolist(), (seed, name, k)


def test_seed_words_match_seed_sequence_on_short_keys():
    # an int key with zero top words has fewer than four words; the block hash takes all four
    rng = np.random.default_rng(11)
    entropy = rng.integers(0, 2**32, (400, 4), dtype=np.uint32)
    for row, zeros in zip(entropy, itertools.cycle([0, 1, 2, 3])):
        row[4 - zeros:] = 0
    entropy[-1] = 0
    for row, words in zip(entropy, _seed_words(entropy), strict=True):
        key = int.from_bytes(row.astype("<u4").tobytes(), "little")
        assert np.array_equal(words, np.random.SeedSequence(key).generate_state(4, np.uint64)), key


def test_block_drift_is_the_plain_normal_stack(monkeypatch):
    # two blocks, the second short: each block's drift stack is the substreams' normal draws
    seen = []
    chunk_probs = simulate._chunk_probs
    monkeypatch.setattr(simulate, "_chunk_probs", lambda *a: seen.append(a[3]) or chunk_probs(*a))
    run = PulseRun(seed=5, n_pulses=(BLOCK + 3) * CHUNK, projector_pool=mermin_subset())
    shape = (1 + len(run.projector_pool), 2, DIM)
    list(_chunks(resolve_state("w"), IDEAL_NOISE, run))
    assert [len(d) for d in seen] == [BLOCK, 3]
    for start, drift in zip((0, BLOCK), seen):
        plain = np.stack([substream(5, "pulse", start + k).normal(0.0, 1.0, shape)
                          for k in range(len(drift))])
        assert drift.tobytes() == plain.tobytes()


@pytest.mark.parametrize("chunks,calls", [(BLOCK, 2), (BLOCK + 3, 3)])
def test_a_run_seeds_each_block_once(monkeypatch, chunks, calls):
    # one seeder call per block of chunks plus one for the flux pass, never one per chunk
    seeder, count = simulate._substreams, []
    monkeypatch.setattr(simulate, "_substreams", lambda *a: count.append(a) or seeder(*a))
    run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=3, n_pulses=chunks * CHUNK))
    assert len(count) == calls
    assert [a[1] for a in count] == ["pulse"] * (calls - 1) + ["flux"]


def test_derive_seed_is_stable():
    assert derive_seed(3, "x") == derive_seed(3, "x")
    assert derive_seed(3, "x") != derive_seed(3, "y")
    assert derive_seed(3, "x", 1) != derive_seed(3, "x", 2)


# ------------------------------------------------------------- slit masks

def test_mask_round_trip_over_all_forty_rays(kset):
    for i in range(1, 41):
        r = kset.ray(i)
        back = mask_to_ray(ray_to_mask(r))
        assert same_direction(back, r)


def test_mask_amplitudes_are_normalized(kset):
    for i in (1, 17, 40):
        a = slit_amplitudes(ray_to_mask(kset.ray(i)))
        assert np.vdot(a, a).real == pytest.approx(1.0)


def test_mask_rejects_zero_ray():
    with pytest.raises(ValueError):
        ray_to_mask((0,) * 8)


# ------------------------------------------------------------- chunk kernel

# Both paths sum the same eight products per norm and per overlap, in different
# orders; on unit vectors each order is off by at most about DIM ulps, and
# squaring the overlap doubles that.
KERNEL_RTOL = 2 * DIM * np.finfo(float).eps
HEAVY_NOISE = NoiseModel(phase_jitter=0.4, amplitude_jitter=0.2, background=0.01, efficiency=0.5)


@pytest.mark.parametrize("noise", [IDEAL_NOISE, load_noise_config(None), HEAVY_NOISE],
                         ids=["ideal", "calibrated", "heavy"])
@pytest.mark.parametrize("state,pool", [
    ("ghz", KS40_POOL),
    ("w", mermin_subset()),
    (canonical_set().ray(1), build_graph(canonical_set()).neighbors(1)),    # an exclusivity leg
], ids=["ks40", "mermin16", "exclusivity23"])
def test_chunk_kernel_matches_per_mask_loop(kset, noise, state, pool):
    # six chunks make one block: one drift stack, one batched probability pass
    entries = resolve_state(state)
    run = PulseRun(seed=17, n_pulses=6 * CHUNK, projector_pool=pool)
    state_mask, pool_masks = ray_to_mask(entries), [ray_to_mask(kset.ray(i)) for i in pool]
    chunks = list(_chunks(entries, noise, run))
    assert len(chunks) == 6
    for k, (size, fast, fast_rng) in enumerate(chunks):
        slow_rng = substream(17, "pulse", k)
        slow = chunk_probs_loop(state_mask, pool_masks, noise, DEFAULT_MU, slow_rng)
        assert size == CHUNK
        assert fast.shape == slow.shape == (len(pool),)
        assert np.max(np.abs(fast - slow)) <= KERNEL_RTOL * np.max(slow)
        # each chunk's generator is left where the loop leaves it, so later draws agree
        assert fast_rng.random() == slow_rng.random()


def _chunk_at_a_time(entries, noise, run, kset):
    """(running (pulses, allocation, detections) per chunk, expected counts) of the reference loop."""
    pool = run.projector_pool
    uniform = np.full(len(pool), 1.0 / len(pool))
    alloc, det, expected = np.zeros(len(pool), np.int64), np.zeros(len(pool), np.int64), np.zeros(len(pool))
    running, done = [], 0
    state_mask, pool_masks = ray_to_mask(entries), [ray_to_mask(kset.ray(i)) for i in pool]
    for size, probs, rng in chunks_loop(state_mask, pool_masks, noise, run):
        a = rng.multinomial(size, uniform)
        alloc, det = alloc + a, det + rng.binomial(a, probs)
        expected += (size / len(pool)) * probs
        done += size
        running.append((done, alloc, det))
    return running, expected


def test_run_across_a_block_boundary_matches_chunk_at_a_time(kset):
    # BLOCK + 4 chunks, the last one partial: two blocks, the second short
    pool = mermin_subset()
    run = PulseRun(seed=31, n_pulses=(BLOCK + 3) * CHUNK + 123, projector_pool=pool)
    entries = resolve_state("ghz")
    running, expected = _chunk_at_a_time(entries, IDEAL_NOISE, run, kset)
    assert len(running) == BLOCK + 4 and running[-1][0] == run.n_pulses

    rec = run_ks_experiment(entries, IDEAL_NOISE, run)
    _, alloc, det = running[-1]
    assert rec.counts == dict(zip(pool, det.tolist()))
    assert rec.pulses_per_projector == dict(zip(pool, alloc.tolist()))

    marks = [CHUNK, BLOCK * CHUNK, (BLOCK + 1) * CHUNK, run.n_pulses]
    trace = convergence_trace(entries, IDEAL_NOISE, run, marks)
    assert trace.record == rec
    want = []
    for done, a, d in running:
        if done in marks:
            est = estimate_probabilities(CountRecord(
                state=entries, projector_pool=pool, counts=dict(zip(pool, d.tolist())),
                pulses_per_projector=dict(zip(pool, a.tolist())),
                flux_calibration=rec.flux_calibration, flux_pulses=rec.flux_pulses,
                mu=run.mu, seed=run.seed,
            ))
            want.append((done, est.sigma_est, est.sigma_err, est.S_est, est.S_err))
    assert [(p.pulses, p.sigma_est, p.sigma_err, p.S_est, p.S_err) for p in trace.points] == want

    assert expected_record(entries, IDEAL_NOISE, run).counts == dict(zip(pool, expected.tolist()))
    _, expected = _chunk_at_a_time(entries, load_noise_config(None), run, kset)
    fast = np.array(list(expected_record(entries, load_noise_config(None), run).counts.values()))
    assert np.max(np.abs(fast - expected)) <= KERNEL_RTOL * np.max(expected)


# ------------------------------------------------------------- config objects

def test_noise_model_validation_and_round_trip():
    n = NoiseModel(amplitude_jitter=0.05, phase_jitter=0.2, background=0.003, efficiency=0.4)
    assert NoiseModel.from_json(n.to_json()) == n
    with pytest.raises(ValueError):
        NoiseModel(phase_jitter=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(background=1.0)
    with pytest.raises(ValueError):
        NoiseModel(efficiency=0.0)
    with pytest.raises(ValueError):
        NoiseModel(efficiency=1.5)


def test_pulse_run_validation():
    with pytest.raises(ValueError):
        PulseRun(seed=1, n_pulses=0)
    with pytest.raises(ValueError):
        PulseRun(seed=1, n_pulses=10, mu=0.0)
    with pytest.raises(ValueError):
        PulseRun(seed=1, n_pulses=10, projector_pool=())
    with pytest.raises(ValueError):
        PulseRun(seed=1, n_pulses=10, projector_pool=(1, 1, 2))
    with pytest.raises(ValueError):
        PulseRun(seed=1, n_pulses=10, projector_pool=(0, 1))


NON_FINITE_FIELDS = {
    "amplitude_jitter": lambda v: NoiseModel(amplitude_jitter=v),
    "phase_jitter": lambda v: NoiseModel(phase_jitter=v),
    "mu": lambda v: PulseRun(seed=1, n_pulses=10, mu=v),
}


@pytest.mark.parametrize("field", list(NON_FINITE_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_value_is_rejected_with_its_field_named(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        NON_FINITE_FIELDS[field](value)


def test_count_record_round_trip_and_validation():
    run = PulseRun(seed=11, n_pulses=60_000)
    rec = run_ks_experiment("ghz", IDEAL_NOISE, run)
    back = CountRecord.from_json(rec.to_json())
    assert back == rec
    assert sum(rec.pulses_per_projector.values()) == 60_000
    bad = rec.to_json()
    first = str(rec.projector_pool[0])
    bad["counts"][first] = bad["pulses_per_projector"][first] + 1
    with pytest.raises(ValueError):
        CountRecord.from_json(bad)


@pytest.mark.parametrize("field,corrupt", [
    ("projector_pool", lambda r: r["projector_pool"].append(r["projector_pool"][0])),
    ("flux_calibration", lambda r: r["flux_calibration"].pop("1")),
    ("flux_pulses", lambda r: r["flux_pulses"].pop("1")),
    ("mu", lambda r: r.update(mu="high")),
    ("state", lambda r: r.update(state=[0] * 8)),
    ("flux_pulses", lambda r: r["flux_pulses"].update({"1": 1000.5})),
    ("seed", lambda r: r.update(seed=1.9)),
    ("projector_pool", lambda r: r["projector_pool"].__setitem__(0, 1.5)),
], ids=["repeated-index", "uncalibrated-basis", "flux-pulses-keys", "mu-type", "zero-state",
        "flux-pulses-fraction", "seed-fraction", "pool-index-fraction"])
def test_count_record_loader_names_the_bad_field(field, corrupt):
    data = run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=11, n_pulses=40_000)).to_json()
    corrupt(data)
    with pytest.raises(ValueError, match=f"'{field}'"):
        CountRecord.from_json(data)


def test_count_record_loads_integral_floats_as_integers():
    data = run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=11, n_pulses=40_000)).to_json()
    data["flux_pulses"]["1"] = float(data["flux_pulses"]["1"])
    data["seed"] = 11.0
    rec = CountRecord.from_json(data)
    assert rec.seed == 11 and type(rec.seed) is int
    assert all(type(n) is int for n in rec.flux_pulses.values())


# ------------------------------------------------------------- runs

def test_runs_are_reproducible_and_seed_sensitive():
    run = PulseRun(seed=5, n_pulses=80_000)
    a = run_ks_experiment("w", IDEAL_NOISE, run)
    b = run_ks_experiment("w", IDEAL_NOISE, run)
    c = run_ks_experiment("w", IDEAL_NOISE, PulseRun(seed=6, n_pulses=80_000))
    assert a == b
    assert a.counts != c.counts


def test_pulse_allocation_is_complete_and_roughly_uniform():
    run = PulseRun(seed=2, n_pulses=200_000)
    rec = run_ks_experiment("ghz", IDEAL_NOISE, run)
    alloc = rec.pulses_per_projector
    assert sum(alloc.values()) == 200_000
    lo, hi = min(alloc.values()), max(alloc.values())
    mean = 200_000 / 40
    assert lo > mean * 0.8 and hi < mean * 1.2


def test_ideal_noise_estimates_match_exact_profile():
    run = PulseRun(seed=3, n_pulses=400_000)
    rec = run_ks_experiment("ghz", IDEAL_NOISE, run)
    est = estimate_probabilities(rec)
    exact = profile("ghz").probs
    for i, (p, err) in est.probabilities.items():
        n = rec.pulses_per_projector[i]
        se = max(err, math.sqrt(max(float(exact[i]) * (1 - float(exact[i])), 1e-12) / n))
        assert abs(p - float(exact[i])) < 5 * se + 1e-9


def test_ideal_noise_estimates_track_exact_profile_over_many_seeds():
    # without jitter or background the orthogonal projectors must read exactly
    # zero, and every other estimate should sit inside four propagated standard
    # errors; a seed fails if any of the 40 rays falls outside
    exact = {i: float(v) for i, v in profile("w").probs.items()}
    good = 0
    for seed in range(100):
        rec = run_ks_experiment("w", IDEAL_NOISE, PulseRun(seed=seed, n_pulses=200_000))
        est = estimate_probabilities(rec)
        ok = True
        for i, (p, err) in est.probabilities.items():
            if exact[i] == 0.0:
                ok = ok and p == 0.0
            else:
                ok = ok and abs(p - exact[i]) <= 4 * err
        good += ok
    assert good >= 95


def test_estimator_converges_to_ground_truth_in_the_infinite_limit():
    noise = NoiseModel(amplitude_jitter=0.06, phase_jitter=0.25, background=0.002, efficiency=0.5)
    run = PulseRun(seed=9, n_pulses=130_000)
    est = estimate_probabilities(expected_record("ghz", noise, run))
    truth = ground_truth_probabilities("ghz", noise, run)
    for i, (p, _) in est.probabilities.items():
        assert p == pytest.approx(truth[i], abs=1e-9)


def test_background_raises_epsilon():
    template = PulseRun(seed=4, n_pulses=60_000)
    eps0, _ = run_exclusivity_campaign(run=template)
    noisy = NoiseModel(background=0.01, efficiency=0.5)
    eps1, _ = run_exclusivity_campaign(noise=noisy, run=template)
    assert eps0 == pytest.approx(0.0, abs=1e-6)    # exact orthogonality, no background
    assert eps1 > 0.01


def test_phase_jitter_raises_epsilon():
    template = PulseRun(seed=4, n_pulses=60_000)
    lo, _ = run_exclusivity_campaign(noise=NoiseModel(phase_jitter=0.05), run=template)
    hi, _ = run_exclusivity_campaign(noise=NoiseModel(phase_jitter=0.4), run=template)
    assert hi > lo


def _mean_epsilon(noise: NoiseModel, seeds) -> float:
    total = 0.0
    for seed in seeds:
        eps, _ = run_exclusivity_campaign(
            noise=noise, run=PulseRun(seed=seed, n_pulses=20_000)
        )
        total += eps
    return total / len(seeds)


@pytest.mark.parametrize("knob,levels", [
    ("background", (0.0, 0.004, 0.008)),
    ("phase_jitter", (0.0, 0.2, 0.4)),
])
def test_epsilon_is_monotone_in_each_noise_knob(knob, levels):
    seeds = range(20)
    means = [_mean_epsilon(NoiseModel(**{knob: v}), seeds) for v in levels]
    assert means[0] <= means[1] <= means[2]


def test_campaign_covers_all_184_orthogonal_pairs(graph):
    template = PulseRun(seed=1, n_pulses=40_000)
    eps, pairs = run_exclusivity_campaign(run=template)
    assert len(pairs) == 8 * 23 == 184
    assert {p.initial for p in pairs} == set(DEFAULT_INITIAL_RAYS)
    for p in pairs:
        assert graph.adjacent(p.initial, p.partner)
    assert eps == pytest.approx(sum(p.probability for p in pairs) / 184)


def test_campaign_requires_a_run_template():
    with pytest.raises(TypeError):
        run_exclusivity_campaign()


# ------------------------------------------------------------- traces

def test_snap_checkpoints():
    assert snap_checkpoints([1, 40_000, 70_000], 100_000) == (CHUNK, 2 * CHUNK, 3 * CHUNK, 100_000)
    assert snap_checkpoints([100], 50) == (50,)
    with pytest.raises(ValueError):
        snap_checkpoints([0, 10], 100)


def test_trace_final_point_matches_direct_run():
    run = PulseRun(seed=12, n_pulses=100_000)
    trace = convergence_trace("ghz", IDEAL_NOISE, run, [20_000, 100_000])
    direct = run_ks_experiment("ghz", IDEAL_NOISE, run)
    assert trace.record == direct
    est = estimate_probabilities(direct)
    last = trace.points[-1]
    assert last.pulses == 100_000
    assert last.sigma_est == est.sigma_est
    assert last.S_est == est.S_est


def test_trace_rejects_decreasing_checkpoints():
    run = PulseRun(seed=12, n_pulses=100_000)
    with pytest.raises(ValueError):
        convergence_trace("ghz", IDEAL_NOISE, run, [50_000, 20_000])


def test_trace_error_shrinks_with_pulses():
    # Poisson scaling with 25% slack: err(t2) <= err(t1) * sqrt(t1/t2) * 1.25
    run = PulseRun(seed=13, n_pulses=524_288)
    trace = convergence_trace("w", IDEAL_NOISE, run, [65_536, 131_072, 262_144, 524_288])
    for which in ("sigma_err", "S_err"):
        pts = [(p.pulses, getattr(p, which)) for p in trace.points]
        for (t1, e1), (t2, e2) in itertools.combinations(pts, 2):
            assert e2 <= e1 * math.sqrt(t1 / t2) * 1.25
