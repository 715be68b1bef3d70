import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40.analysis import EstimationError, estimate_probabilities
from kp40.ksset import build_graph, canonical_set, mermin_subset
from kp40.simulate import (
    BLOCK,
    CHUNK,
    DEFAULT_INITIAL_RAYS,
    DEFAULT_MU,
    DIM,
    IDEAL_NOISE,
    KS40_POOL,
    MAX_AMPLITUDE_JITTER,
    CountRecord,
    NoiseModel,
    PulseRun,
    convergence_trace,
    derive_seed,
    expected_record,
    ground_truth_probabilities,
    load_noise_config,
    ray_to_mask,
    run_exclusivity_campaign,
    run_ks_experiment,
    snap_checkpoints,
    _blocks,
    _stream,
)
from kp40 import ksset, simulate
from kp40.states import NAMED_STATES, profile, resolve_state

from oracles import (
    chunk_at_a_time,
    chunk_probs_cos_sin,
    chunk_probs_loop,
    fresh_blocks,
    mask_to_ray,
    norm_sq,
    record_from_json,
    same_direction,
    slit_amplitudes,
    stream,
    trace_by_records,
)


# ------------------------------------------------------------- randomness plumbing

def test_substream_is_deterministic_and_path_separated():
    a = _stream(7, "drift").random(4)
    assert np.array_equal(a, _stream(7, "drift").random(4))
    assert np.array_equal(a, stream(7, "drift").random(4))
    assert not np.array_equal(a, _stream(7, "alloc").random(4))
    assert not np.array_equal(a, _stream(8, "drift").random(4))


def test_keyed_stream_draws_as_philox_keyed_by_its_derived_seed():
    # the keyed seed sequence must give the generator Philox(key=k) gives, for keys on both
    # sides of 2**63 and for every stream a run draws from
    keys = []
    for seed in (0, 1, 5, 7, 2**31 - 1, 2**40 + 3):
        for name in ("drift", "alloc", "detect", "flux"):
            keys.append(derive_seed(seed, name))
            ours, plain = _stream(seed, name), stream(seed, name)
            assert ours.standard_normal() == plain.standard_normal()
            assert ours.binomial(1000, 0.3) == plain.binomial(1000, 0.3)
            assert np.array_equal(ours.multinomial(1000, [0.25] * 4),
                                  plain.multinomial(1000, [0.25] * 4))
    assert min(keys) < 2**63 <= max(keys)


def test_block_drift_is_the_plain_normal_stack(monkeypatch):
    # two blocks, the second short: together they are one normal stack from the drift stream
    seen = []
    chunk_probs = simulate._chunk_probs
    monkeypatch.setattr(simulate, "_chunk_probs", lambda *a: seen.append(a[3]) or chunk_probs(*a))
    run = PulseRun(seed=5, n_pulses=(BLOCK + 3) * CHUNK, projector_pool=mermin_subset())
    list(_blocks(resolve_state("w"), IDEAL_NOISE, run))
    assert [len(d) for d in seen] == [BLOCK, 3]
    plain = stream(5, "drift").standard_normal((BLOCK + 3, 1 + len(run.projector_pool), 2, DIM))
    assert np.concatenate(seen).tobytes() == plain.tobytes()


def test_a_block_holds_memory_for_its_own_chunks_not_the_whole_run():
    # a 2**36-pulse run has 2**21 chunks; the first block has BLOCK of them
    blocks = _blocks(resolve_state("ghz"), IDEAL_NOISE, PulseRun(seed=1, n_pulses=2**36))
    tracemalloc.start()
    try:
        sizes, _ = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes.tolist() == [CHUNK] * BLOCK
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB"


class _CountedStream:
    """A generator that records (stream name, method) for every draw made from it."""

    def __init__(self, rng, name, calls):
        self._rng, self._name, self._calls = rng, name, calls

    def __getattr__(self, method):
        draw = getattr(self._rng, method)

        def counted(*args, **kwargs):
            self._calls.append((self._name, method))
            return draw(*args, **kwargs)
        return counted


@pytest.mark.parametrize("pulses,blocks", [(2_000_000, 1), ((BLOCK + 3) * CHUNK, 2)],
                         ids=["2M-pulses", "BLOCK+3-chunks"])
def test_a_run_draws_once_per_stream_and_block(monkeypatch, pulses, blocks):
    # one drift draw, one multinomial and one binomial per block, one flux draw per run
    calls = []
    make = simulate._stream
    monkeypatch.setattr(simulate, "_stream", lambda seed, name: _CountedStream(make(seed, name), name, calls))
    run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=3, n_pulses=pulses))
    assert Counter(calls) == {("drift", "standard_normal"): blocks, ("alloc", "multinomial"): blocks,
                              ("detect", "binomial"): blocks, ("flux", "binomial"): 1}


def test_derive_seed_is_stable():
    assert derive_seed(3, "x") == derive_seed(3, "x")
    assert derive_seed(3, "x") != derive_seed(3, "y")
    assert derive_seed(3, "x", 1) != derive_seed(3, "x", 2)


# ------------------------------------------------------------- slit masks

def test_mask_round_trip_over_all_forty_rays(kset):
    for i in range(1, 41):
        r = kset.ray(i)
        mask = ray_to_mask(r)
        assert same_direction(mask_to_ray(mask), r)
        unit = np.array(r.entries) / math.sqrt(norm_sq(r))
        np.testing.assert_allclose(slit_amplitudes(mask), unit, rtol=0, atol=1e-15)


# entries other than 0 and +-1: transmissivities strictly between 0 and 1
GENERAL_RAY = (41, 33, -7, 0, 5, -2, 0, 1)


def test_mask_stack_keeps_the_python_square_of_each_entry():
    # NumPy's square is one ulp off Python's ** at 33 / 41, enough to move a probability
    t, phases = simulate._mask_stack(GENERAL_RAY, mermin_subset())
    assert t[0].tolist() == [(e / 41) ** 2 for e in GENERAL_RAY]
    assert t[0][1] != np.square(33 / 41)
    assert phases[0].tolist() == [math.pi if e < 0 else 0.0 for e in GENERAL_RAY]
    assert ray_to_mask(GENERAL_RAY) == (tuple(t[0]), tuple(phases[0]))


def test_each_pools_masks_are_stacked_once_and_read_only(kset):
    pool = mermin_subset()
    kept = ksset.kept("masks", simulate._ray_masks)
    assert ksset.kept("masks", simulate._ray_masks) is kept    # one stack per construction
    assert [a.shape for a in kept] == [(40, 8), (40, 8)]
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    t, phases = simulate._mask_stack(GENERAL_RAY, list(pool))    # a fresh stack on each call
    assert t.flags.writeable and phases.flags.writeable
    assert t[1:].tolist() == [list(ray_to_mask(kset.ray(i))[0]) for i in pool]
    assert phases[1:].tolist() == [list(ray_to_mask(kset.ray(i))[1]) for i in pool]
    assert simulate._mask_stack(GENERAL_RAY, pool)[0] is not t
    canonical_set.cache_clear()    # a new construction stacks its masks afresh
    assert ksset.kept("masks", simulate._ray_masks) is not kept


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
    [(sizes, fast)] = list(_blocks(entries, noise, run))
    assert sizes.tolist() == [CHUNK] * 6
    drift = stream(17, "drift")
    for chunk in fast:
        slow = chunk_probs_loop(state_mask, pool_masks, noise, DEFAULT_MU, drift)
        assert chunk.shape == slow.shape == (len(pool),)
        assert np.max(np.abs(chunk - slow)) <= KERNEL_RTOL * np.max(slow)


@pytest.mark.parametrize("state,pool", [
    ("ghz", KS40_POOL),
    (canonical_set().ray(1), build_graph(canonical_set()).neighbors(1)),    # all 23 exclusive
], ids=["ks40", "exclusivity23"])
def test_ideal_chunk_kernel_is_the_exact_profile(state, pool):
    # without noise every chunk gives (1 - e^-mu) * efficiency * |<v|psi>|^2 / (|v|^2 |psi|^2);
    # an exclusive pair's overlap cancels to rounding, far below any count's resolution
    run = PulseRun(seed=19, n_pulses=3 * CHUNK, projector_pool=pool)
    [(_, probs)] = list(_blocks(resolve_state(state), IDEAL_NOISE, run))
    exact = profile(state).probs
    want = (1.0 - math.exp(-run.mu)) * IDEAL_NOISE.efficiency * np.array([float(exact[i]) for i in pool])
    for chunk in probs:
        np.testing.assert_allclose(chunk, want, rtol=1e-14, atol=1e-28)


@pytest.mark.parametrize("noise", [IDEAL_NOISE, NoiseModel(amplitude_jitter=0.06)],
                         ids=["ideal", "amplitude-only"])
def test_chunk_kernel_keeps_the_zeros_of_cos_and_sin(kset, graph, noise):
    # a probability of exactly 0 draws nothing from the detect stream, so the zeros fix the bytes
    drift = stream(29, "drift")
    cases = [(kset.ray(i).entries, pool) for i in range(1, 41) for pool in (KS40_POOL, graph.neighbors(i))]
    cases += [(resolve_state(name), KS40_POOL) for name in NAMED_STATES]
    zeros = 0
    for entries, pool in cases:
        masks = simulate._mask_stack(entries, pool)
        block = drift.standard_normal((3, 1 + len(pool), 2, DIM))
        fast = simulate._chunk_probs(masks, noise, DEFAULT_MU, block)
        slow = chunk_probs_cos_sin(masks, noise, DEFAULT_MU, block)
        assert np.array_equal(fast == 0, slow == 0), (entries, pool)
        np.testing.assert_allclose(fast, slow, rtol=1e-14, atol=0)
        zeros += np.count_nonzero(slow == 0)
    assert zeros > 0


def test_a_mask_drifted_dark_counts_background_only():
    # ray 9's one open slit drifts to t <= 0 once 1 + a z < 0; its mask then passes no light
    noise = NoiseModel(amplitude_jitter=0.5, background=0.003)
    masks = simulate._mask_stack(resolve_state("eta"), KS40_POOL)    # eta overlaps ray 9
    still = np.zeros((1, 1 + len(KS40_POOL), 2, DIM))
    drift = still.copy()
    drift[0, 9, 0, 0] = -3.0    # row 0 is the state's mask, row 9 is ray 9's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dark = simulate._chunk_probs(masks, noise, DEFAULT_MU, drift)
    lit = simulate._chunk_probs(masks, noise, DEFAULT_MU, still)
    assert lit[0, 8] > dark[0, 8] == (1.0 - math.exp(-DEFAULT_MU)) * noise.background
    np.testing.assert_array_equal(np.delete(dark, 8, axis=1), np.delete(lit, 8, axis=1))


def test_run_across_a_block_boundary_matches_chunk_at_a_time(kset):
    # BLOCK + 4 chunks, the last one partial: two blocks, the second short
    pool = mermin_subset()
    run = PulseRun(seed=31, n_pulses=(BLOCK + 3) * CHUNK + 123, projector_pool=pool)
    entries = resolve_state("ghz")
    masks = ray_to_mask(entries), [ray_to_mask(kset.ray(i)) for i in pool]
    running, expected = chunk_at_a_time(*masks, IDEAL_NOISE, run)
    assert len(running) == BLOCK + 4 and running[-1][0] == run.n_pulses

    rec = run_ks_experiment(entries, IDEAL_NOISE, run)
    _, alloc, det = running[-1]
    assert rec.counts == dict(zip(pool, det.tolist()))
    assert rec.pulses_per_projector == dict(zip(pool, alloc.tolist()))
    # the flux pass: one draw per basis group, in ascending order, from the flux stream
    flux = stream(31, "flux")
    p_cal = 1.0 - math.exp(-run.mu)
    assert rec.flux_calibration == {
        b: int(flux.binomial(run.n_pulses // len(pool), p_cal)) for b in sorted(rec.flux_pulses)}

    marks = [CHUNK, BLOCK * CHUNK, (BLOCK + 1) * CHUNK, run.n_pulses]
    rows, record = convergence_trace(entries, IDEAL_NOISE, run, marks)
    assert record == rec
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
    assert [tuple(row.values()) for row in rows] == want
    assert all(list(row) == ["pulses", "sigma_est", "sigma_err", "S_est", "S_err"]
               and type(row["pulses"]) is int for row in rows)

    # the block sums add the chunks in another order than the loop does
    for noise in (IDEAL_NOISE, load_noise_config(None)):
        _, expected = chunk_at_a_time(*masks, noise, run)
        fast = np.array(list(expected_record(entries, noise, run).counts.values()))
        assert np.max(np.abs(fast - expected)) <= KERNEL_RTOL * np.max(expected)


def test_block_size_changes_no_byte(monkeypatch):
    # 20 chunks: one block of 64, or blocks of 7, 7 and 6
    run = PulseRun(seed=23, n_pulses=20 * CHUNK - 5)
    noise = load_noise_config(None)
    marks = [CHUNK, 7 * CHUNK, 8 * CHUNK, 15 * CHUNK]
    whole = convergence_trace("ghz", noise, run, marks)
    monkeypatch.setattr(simulate, "BLOCK", 7)
    assert convergence_trace("ghz", noise, run, marks) == whole
    assert run_ks_experiment("ghz", noise, run) == whole[1]


def test_noise_leaves_the_pulse_allocation_alone():
    # the allocation stream is drawn apart from the drift and detection streams
    run = PulseRun(seed=29, n_pulses=5 * CHUNK + 7)
    ideal = run_ks_experiment("w", IDEAL_NOISE, run)
    heavy = run_ks_experiment("w", HEAVY_NOISE, run)
    assert ideal.pulses_per_projector == heavy.pulses_per_projector
    assert ideal.counts != heavy.counts


# ------------------------------------------------------------- drift scratch

# one pool of each leg's width: all 40 tests, the 16 Mermin tests, an exclusivity leg's 23
LEG_POOLS = (KS40_POOL, mermin_subset(), build_graph(canonical_set()).neighbors(1))
TWO_BLOCKS = (2 * BLOCK + 3) * CHUNK + 5    # two full blocks and a short third


def _blocks_bytes(blocks) -> list[tuple[bytes, bytes]]:
    return [(sizes.tobytes(), probs.tobytes()) for sizes, probs in blocks]


def _mixed_legs() -> list[tuple]:
    """(entries, noise, run) of legs that alternate the three pool widths, short and long."""
    noise = load_noise_config(None)
    states = ["ghz", "w", canonical_set().ray(1), "beta", "eta", "prod"]
    legs = []
    for k, pulses in enumerate([3 * CHUNK, TWO_BLOCKS, 5 * CHUNK + 1, BLOCK * CHUNK, 7 * CHUNK, 2 * CHUNK]):
        pool = LEG_POOLS[k % 3]
        legs.append((resolve_state(states[k]), HEAVY_NOISE if k % 2 else noise,
                     PulseRun(seed=50 + k, n_pulses=pulses, projector_pool=pool)))
    return legs


def test_interleaved_block_generators_read_no_stale_drift():
    # two pools of one shape share the thread's scratch, and a third pool replaces it each turn
    noise = load_noise_config(None)
    legs = [(resolve_state("ghz"), noise, PulseRun(seed=41, n_pulses=TWO_BLOCKS)),
            (resolve_state("w"), noise, PulseRun(seed=42, n_pulses=TWO_BLOCKS, projector_pool=mermin_subset())),
            (resolve_state("eta"), HEAVY_NOISE, PulseRun(seed=43, n_pulses=TWO_BLOCKS))]
    got = [[] for _ in legs]
    for turn in itertools.zip_longest(*(_blocks(*leg) for leg in legs)):
        for out, block in zip(got, turn):
            out.append(block)
    assert [len(out) for out in got] == [3, 3, 3]
    for out, leg in zip(got, legs):
        assert _blocks_bytes(out) == _blocks_bytes(fresh_blocks(*leg))


def test_legs_alternating_pool_widths_on_one_thread_match_fresh_draws():
    legs = _mixed_legs()
    assert len(list(fresh_blocks(*legs[1]))) == 3    # a leg longer than one block
    for leg in legs + legs[::-1]:
        assert _blocks_bytes(_blocks(*leg)) == _blocks_bytes(fresh_blocks(*leg))


def test_threads_running_mixed_legs_match_fresh_draws():
    # threads 0 and 2, and 1 and 3, run the same legs in step, so that legs of one shape overlap
    legs = _mixed_legs()
    want = [_blocks_bytes(fresh_blocks(*leg)) for leg in legs]

    def in_order(items: list, k: int) -> list:
        order = items[k % 2:] + items[:k % 2]
        return 3 * (order + order[::-1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            results = list(ex.map(lambda k: [_blocks_bytes(_blocks(*leg)) for leg in in_order(legs, k)],
                                  range(4)))
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(results):
        assert got == in_order(want, k)


def test_a_thread_keeps_one_drift_array_of_its_last_blocks_shape():
    kept, refs = [], []

    def legs():
        for pool in (KS40_POOL, KS40_POOL, mermin_subset()):
            list(_blocks(resolve_state("ghz"), IDEAL_NOISE,
                         PulseRun(seed=5, n_pulses=3 * CHUNK, projector_pool=pool)))
            kept.append(simulate._scratch.drift)
        refs.append(weakref.ref(simulate._scratch.drift))

    thread = threading.Thread(target=legs)
    thread.start()
    thread.join()
    first, second, third = kept
    assert second is first and first.shape == (3, 1 + len(KS40_POOL), 2, DIM)
    assert third is not first and third.shape == (3, 1 + len(mermin_subset()), 2, DIM)
    assert getattr(simulate._scratch, "drift", None) is not third    # not this thread's
    del first, second, third
    kept.clear()
    assert refs[0]() is None    # it went with its thread


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


_NOISE_FIELDS = st.fixed_dictionaries({
    "amplitude_jitter": st.floats(0.0, MAX_AMPLITUDE_JITTER),
    "phase_jitter": st.floats(0.0, 1e300),
    "background": st.floats(0.0, 1.0, exclude_max=True),
    "efficiency": st.floats(0.0, 1.0, exclude_min=True),
})
# edits of a noise config's fields, each refused with the field named: (edit, fields it may hit)
_NOISE_EDITS = {
    "dropped": (None, NoiseModel._fields),
    "a string": ("0.1", NoiseModel._fields),
    "a bool": (True, NoiseModel._fields),
    "NaN": (math.nan, NoiseModel._fields),
    "a negative jitter": (-0.1, ("amplitude_jitter", "phase_jitter")),
    "efficiency 0": (0.0, ("efficiency",)),
    "amplitude_jitter above 1e6": (MAX_AMPLITUDE_JITTER * 2, ("amplitude_jitter",)),
}


_CALIBRATION_FIELDS = ("epsilon_simulated", "epsilon_target", "F_GHZ_simulated", "pulses", "seed")
_ROW_FIELDS = ("epsilon", "F_GHZ", "accepted")
# edits of a calibrate output's `calibration` and search-row fields, each refused with the field
# named: (edit, fields it may hit)
_CALIBRATED_EDITS = {
    "dropped": (None, _CALIBRATION_FIELDS + _ROW_FIELDS),
    "a string": ("0.1", _CALIBRATION_FIELDS + _ROW_FIELDS),
    "a bool": (True, _CALIBRATION_FIELDS + _ROW_FIELDS[:2]),    # `accepted` is true already
    "NaN": (math.nan, _CALIBRATION_FIELDS + _ROW_FIELDS),
    "a fraction": (1.5, ("pulses", "seed", "accepted")),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_NOISE_FIELDS, st.floats(0.0, 1.0),
       st.text(min_size=1).filter(lambda s: s not in {*NoiseModel._fields, *_CALIBRATION_FIELDS,
                                                      *_ROW_FIELDS, "noise", "calibration", "search"}))
def test_noise_config_round_trips_bare_or_calibrated_and_refuses_each_edit(fields, epsilon, name):
    calibrated = {"noise": fields,
                  "calibration": {"epsilon_simulated": epsilon, "epsilon_target": 0.014,
                                  "F_GHZ_simulated": 0.95, "pulses": 60_000, "seed": 0},
                  "search": [{"noise": fields, "epsilon": epsilon, "F_GHZ": 0.95, "accepted": True}]}
    noise = NoiseModel(**fields)
    for doc in (fields, calibrated):
        assert NoiseModel.from_json(json.loads(json.dumps(doc))) == noise

    # every edit, where it lands: the bare fields, or one part of a calibrate output
    for where, edits in (("bare", _NOISE_EDITS), ("noise", _NOISE_EDITS), ("row noise", _NOISE_EDITS),
                         ("calibration", _CALIBRATED_EDITS), ("row", _CALIBRATED_EDITS)):
        for edit, field in ((edit, f) for edit, targets in edits.values() for f in targets):
            doc = json.loads(json.dumps(calibrated))
            part = {"bare": doc["noise"], "noise": doc["noise"], "row noise": doc["search"][0]["noise"],
                    "calibration": doc["calibration"], "row": doc["search"][0]}[where]
            if field not in part:
                continue
            if edit is None:
                del part[field]
            else:
                part[field] = edit
            with pytest.raises(ValueError, match=field):
                NoiseModel.from_json(doc["noise"] if where == "bare" else doc)

    # a fifth field, bare or under `noise`, is refused and named, not read past
    for doc in ({**fields, "phase_jiter": 0.9}, {**calibrated, "noise": {**fields, "phase_jiter": 0.9}}):
        with pytest.raises(ValueError, match="unexpected field 'phase_jiter'"):
            NoiseModel.from_json(doc)

    # a field no noise config has, at each level of a calibrate output, and a search that is not a list
    for where, what in (("top", "noise config"), ("calibration", "noise config field 'calibration'"),
                        ("row", "noise config field 'search': row 1"),
                        ("row noise", "noise config field 'search': row 1 field 'noise': noise")):
        doc = json.loads(json.dumps(calibrated))
        {"top": doc, "calibration": doc["calibration"], "row": doc["search"][0],
         "row noise": doc["search"][0]["noise"]}[where][name] = 0
        with pytest.raises(ValueError) as e:
            NoiseModel.from_json(doc)
        assert str(e.value) == f"{what}: unexpected field {name!r}"
    for v in (5, "abc", {}):
        with pytest.raises(ValueError) as e:
            NoiseModel.from_json({**calibrated, "search": v})
        assert str(e.value) == f"noise config field 'search': expected a list, got {v!r}"


def test_packaged_noise_config_is_the_four_bare_fields():
    packaged = Path(simulate.__file__).parent / "data" / "noise_calibrated.json"
    assert json.loads(packaged.read_text()) == NoiseModel(0.06, 0.25, 0.002, 0.5).to_json()
    assert load_noise_config(None) == NoiseModel(0.06, 0.25, 0.002, 0.5)


def test_amplitude_jitter_above_its_limit_is_refused_with_the_field_named():
    for v in (MAX_AMPLITUDE_JITTER * (1 + 1e-9), 1e154, 1e308):
        with pytest.raises(ValueError, match=r"^amplitude_jitter must be at most 1e\+06, got "):
            NoiseModel(amplitude_jitter=v)
    # at the limit a run still ends in finite probabilities, with no NumPy warning
    noise = NoiseModel(amplitude_jitter=MAX_AMPLITUDE_JITTER, phase_jitter=0.2, efficiency=0.5)
    record = run_ks_experiment("ghz", noise, PulseRun(seed=0, n_pulses=40_000))
    assert all(0 <= c <= record.pulses_per_projector[i] for i, c in record.counts.items())


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
    with pytest.raises(ValueError):
        PulseRun(seed=1.9, n_pulses=10)
    with pytest.raises(ValueError):
        PulseRun(seed=1, n_pulses=2.5)


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
    for pool in (mermin_subset(), KS40_POOL):
        run = PulseRun(seed=11, n_pulses=60_000, projector_pool=pool)
        rec = run_ks_experiment("ghz", IDEAL_NOISE, run)
        back = CountRecord.from_json(rec.to_json())
        assert back == rec
        # a written record reloads to its own bytes: a flux count stays an integer
        assert json.dumps(back.to_json()) == json.dumps(rec.to_json())
        assert all(type(flux) is int for flux in back.flux_calibration.values())
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


@lru_cache(maxsize=None)
def _simulated_record(pool) -> str:
    """A simulated record on `pool`, as to_json writes it."""
    run = PulseRun(seed=11, n_pulses=40_000, projector_pool=pool)
    return json.dumps(run_ks_experiment("ghz", IDEAL_NOISE, run).to_json())


_TABLES = ("counts", "pulses_per_projector", "flux_calibration", "flux_pulses")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([mermin_subset(), KS40_POOL]), st.sampled_from(CountRecord._fields),
       st.text(min_size=1).filter(lambda s: s not in CountRecord._fields), st.sampled_from(_TABLES))
def test_count_record_round_trips_and_names_each_edit(pool, field, name, table):
    text = _simulated_record(pool)
    assert json.dumps(CountRecord.from_json(json.loads(text)).to_json()) == text

    # (edit in place, the field the error names)
    edits = [(lambda d: d.pop(field), field),
             (lambda d: d.update({name: d.pop(field)}), field),
             (lambda d: d.update({name: 0}), name),
             (lambda d: d[table].update({"010": 0}), table)]
    edits += [(lambda d, k=k, v=v: d.update({k: v}), k) for k in ("state", "projector_pool")
              for v in (5, "abc", {})]
    for edit, named in edits:
        bad = json.loads(_simulated_record(pool))
        edit(bad)
        with pytest.raises(ValueError) as e:
            CountRecord.from_json(bad)
        assert repr(named) in str(e.value) and "\n" not in str(e.value), (named, str(e.value))

    for key in _TABLES:    # a count table that is not an object is refused as one
        for v in ([1, 2], 5, "abc", None):
            bad = json.loads(text)
            bad[key] = v
            with pytest.raises(ValueError) as e:
                CountRecord.from_json(bad)
            assert str(e.value) == f"record field {key!r}: expected a JSON object"


# a record built in the library on rays 9 and 10 (basis group 2), with the given fields replaced
def _record_on_rays_9_and_10(**fields) -> CountRecord:
    return CountRecord(**{
        "state": (0, 1, 1, 0, 1, 0, 0, -1), "projector_pool": (9, 10),
        "counts": {9: 5, 10: 5}, "pulses_per_projector": {9: 10, 10: 10},
        "flux_calibration": {2: 5}, "flux_pulses": {2: 10}, "mu": 0.14, "seed": 0, **fields,
    })


@pytest.mark.parametrize("field,fields", [
    ("counts", {"counts": {9: 5, 10: 5, 11: 5}}),
    ("counts", {"counts": {9: 5}}),
    ("pulses_per_projector", {"pulses_per_projector": {9: 10}}),
    ("flux_calibration", {"flux_calibration": {}, "flux_pulses": {}}),
    ("flux_calibration", {"flux_calibration": {0: 5, 2: 5}, "flux_pulses": {0: 10, 2: 10}}),
    ("flux_calibration", {"flux_calibration": {2: 5, 99: 5}, "flux_pulses": {2: 10, 99: 10}}),
    ("flux_pulses", {"flux_pulses": {2: 10, 3: 10}}),
], ids=["counts-key-outside-the-pool", "pool-ray-without-counts", "counts-key-without-pulses",
        "pool-group-without-flux", "flux-group-0", "flux-group-99", "flux-pulses-keys"])
def test_count_record_built_in_the_library_names_the_bad_field(field, fields):
    with pytest.raises(ValueError, match=f"^record field '{field}'"):
        _record_on_rays_9_and_10(**fields)


def test_count_record_keeps_flux_for_a_group_the_pool_does_not_touch():
    rec = _record_on_rays_9_and_10(flux_calibration={1: 5, 2: 5}, flux_pulses={1: 10, 2: 10})
    assert estimate_probabilities(rec).probabilities[9][0] == 1.0    # 5 counts / 10 pulses * 10 / 5
    data = run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=11, n_pulses=40_000,
                                                          projector_pool=mermin_subset())).to_json()
    data["flux_calibration"]["1"], data["flux_pulses"]["1"] = 0, 1000
    assert CountRecord.from_json(data).flux_calibration[1] == 0


def test_count_record_loads_integral_floats_as_integers():
    data = run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=11, n_pulses=40_000)).to_json()
    data["flux_pulses"]["1"] = float(data["flux_pulses"]["1"])
    data["seed"] = 11.0
    rec = CountRecord.from_json(data)
    assert rec.seed == 11 and type(rec.seed) is int
    assert all(type(n) is int for n in rec.flux_pulses.values())


# the loader's inputs beside a whole count: a bool, integral and fractional floats, negative
# zero, the ends of the exact range and past it, and values that are not numbers
_AMOUNT_EDITS = (True, 1.0, 1.5, -0.0, 0, 2**53, 2**53 + 1, 10**29, 10**400, "1", None)
# keys that int() reads as an index but that to_json never writes
_KEY_EDITS = ("010", "+1", " 1")
_RECORD_TEXTS = {
    "ks40": lambda: _simulated_record(KS40_POOL),
    "mermin16": lambda: _simulated_record(mermin_subset()),
    "expected": lambda: json.dumps(
        expected_record("ghz", IDEAL_NOISE, PulseRun(seed=11, n_pulses=40_000)).to_json()),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_RECORD_TEXTS)), st.sampled_from(_TABLES), st.integers(0, 39),
       st.just(("none", None)) | st.sampled_from(_AMOUNT_EDITS).map(lambda v: ("value", v))
       | st.sampled_from(_KEY_EDITS).map(lambda k: ("key", k)))
def test_count_record_loader_gives_the_oracles_record_or_its_message(source, table, k, edit):
    data = json.loads(_RECORD_TEXTS[source]())
    entries = data[table]
    key = list(entries)[k % len(entries)]
    kind, v = edit
    if kind == "value":
        entries[key] = v
    elif kind == "key":
        entries[v] = entries.pop(key)
    try:
        want = record_from_json(data)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            CountRecord.from_json(data)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
    else:
        got = CountRecord.from_json(data)
        assert got == want and repr(got) == repr(want)    # repr tells 1 from 1.0 and -0.0 from 0


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
    eps0 = run_exclusivity_campaign(run=template)["epsilon"]
    noisy = NoiseModel(background=0.01, efficiency=0.5)
    eps1 = run_exclusivity_campaign(noise=noisy, run=template)["epsilon"]
    assert eps0 == pytest.approx(0.0, abs=1e-6)    # exact orthogonality, no background
    assert eps1 > 0.01


def test_phase_jitter_raises_epsilon():
    template = PulseRun(seed=4, n_pulses=60_000)
    lo = run_exclusivity_campaign(noise=NoiseModel(phase_jitter=0.05), run=template)["epsilon"]
    hi = run_exclusivity_campaign(noise=NoiseModel(phase_jitter=0.4), run=template)["epsilon"]
    assert hi > lo


def _mean_epsilon(noise: NoiseModel, seeds) -> float:
    total = 0.0
    for seed in seeds:
        total += run_exclusivity_campaign(
            noise=noise, run=PulseRun(seed=seed, n_pulses=20_000)
        )["epsilon"]
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
    doc = run_exclusivity_campaign(run=template)
    eps, pairs = doc["epsilon"], doc["pairs"]
    assert len(pairs) == 8 * 23 == 184
    assert {p["initial"] for p in pairs} == set(DEFAULT_INITIAL_RAYS)
    for p in pairs:
        assert graph.adjacent(p["initial"], p["partner"])
    assert eps == pytest.approx(sum(p["probability"] for p in pairs) / 184)


def test_campaign_over_no_initial_ray_is_refused_in_one_line():
    with pytest.raises(ValueError, match="^the probabilities of 0 pairs have no finite mean$"):
        run_exclusivity_campaign(PulseRun(seed=1, n_pulses=40_000), initial_rays=())


def test_campaign_requires_a_run_template():
    with pytest.raises(TypeError):
        run_exclusivity_campaign()


# ------------------------------------------------------------- reproduce and calibrate

def test_reproduce_documents_do_not_depend_on_workers():
    noise = load_noise_config(None)
    one = simulate.reproduce(5, 200_000, DEFAULT_MU, noise, workers=1)
    assert list(one) == ["eps.json", *(f"records/{kind}_{state}.json"
                                       for kind, state in simulate.REPRODUCE_LEGS[1:]),
                         "summary.json", "summary.csv"]
    assert simulate.reproduce(5, 200_000, DEFAULT_MU, noise, workers=2) == one


def test_calibrate_chooses_an_accepted_row_over_a_nearer_rejected_one(monkeypatch):
    # the zero-jitter point lands nearer a zero target but outside the epsilon window
    monkeypatch.setattr(simulate, "CALIBRATION_GRID", {
        "phase_jitter": (0.0, 0.28), "amplitude_jitter": (0.0,), "background": (0.002,),
        "efficiency": (0.5,),
    })
    config, accepted = simulate.calibrate(0, 60_000, DEFAULT_MU, 0.0)
    search = config["search"]
    assert [row["noise"]["phase_jitter"] for row in search] == [0.0, 0.28]
    assert [row["accepted"] for row in search] == [False, True]
    assert search[0]["epsilon"] < search[1]["epsilon"]
    # the config holds the chosen row, search[1]
    assert accepted
    assert config["noise"] is search[1]["noise"]
    assert config["calibration"] == {"epsilon_simulated": search[1]["epsilon"],
                                     "epsilon_target": 0.0, "F_GHZ_simulated": search[1]["F_GHZ"],
                                     "pulses": 60_000, "seed": 0}


# ------------------------------------------------------------- traces

def test_snap_checkpoints():
    assert snap_checkpoints([1, 40_000, 70_000], 100_000) == (CHUNK, 2 * CHUNK, 3 * CHUNK, 100_000)
    assert snap_checkpoints([100], 50) == (50,)
    with pytest.raises(ValueError):
        snap_checkpoints([0, 10], 100)


def test_trace_final_point_matches_direct_run():
    run = PulseRun(seed=12, n_pulses=100_000)
    rows, record = convergence_trace("ghz", IDEAL_NOISE, run, [20_000, 100_000])
    direct = run_ks_experiment("ghz", IDEAL_NOISE, run)
    assert record == direct
    est = estimate_probabilities(direct)
    last = rows[-1]
    assert last["pulses"] == 100_000
    assert last["sigma_est"] == est.sigma_est
    assert last["S_est"] == est.S_est


def _trace_outcome(trace, state, noise, run, checkpoints):
    """A trace's rows and record, or the message of the EstimationError it raised."""
    try:
        return trace(state, noise, run, checkpoints)
    except EstimationError as e:
        return str(e)


# a ray whose mask has transmissivities strictly between 0 and 1: 1/9, 4/9 and 1
_GREY_RAY = (3, 1, -2, 1, 1, -1, 2, 1)
_TRACE_STATES = st.one_of(st.sampled_from([*NAMED_STATES, _GREY_RAY]),
                          st.lists(st.integers(-3, 3), min_size=DIM, max_size=DIM).filter(any).map(tuple))
_TRACE_POOLS = st.one_of(st.sampled_from([KS40_POOL, mermin_subset()]),
                         st.integers(0, 4).map(lambda g: tuple(range(8 * g + 1, 8 * g + 9))),
                         st.lists(st.integers(1, 40), min_size=1, max_size=40, unique=True).map(tuple))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_TRACE_STATES, _TRACE_POOLS, st.sampled_from(["ideal", "packaged"]), st.integers(0, 2**32),
       st.integers(1, 3), st.integers(1, 7), st.sampled_from([0, 1, 777, CHUNK - 1]),
       st.lists(st.integers(1, 7 * CHUNK), max_size=4))
def test_trace_estimates_each_mark_as_a_record_of_its_counts_would(state, pool, noise, seed, block,
                                                                  chunks, short, extra):
    # up to 7 blocks, the last chunk full or short by `short` pulses; the chunks before and
    # after the first block boundary are marks whenever the run reaches them.  A run shorter
    # than its flux raises at its first mark, in both
    noise = IDEAL_NOISE if noise == "ideal" else load_noise_config(None)
    pulses = chunks * CHUNK - short
    run = PulseRun(seed=seed, n_pulses=pulses, projector_pool=pool)
    marks = sorted(m for m in [block * CHUNK, block * CHUNK + 1, *extra] if m <= pulses)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "BLOCK", block)
        got = _trace_outcome(convergence_trace, state, noise, run, marks)
        want = _trace_outcome(trace_by_records, state, noise, run, marks)
    assert repr(got) == repr(want)
    assert got == want


def test_a_run_too_short_for_its_flux_raises_what_a_record_of_its_counts_raises():
    run = PulseRun(seed=0, n_pulses=100)
    with pytest.raises(EstimationError) as want:
        trace_by_records("ghz", load_noise_config(None), run, [50, 100])
    with pytest.raises(EstimationError) as got:
        convergence_trace("ghz", load_noise_config(None), run, [50, 100])
    assert str(got.value) == str(want.value) == "zero calibration flux for basis 1"


def test_trace_rejects_decreasing_checkpoints():
    run = PulseRun(seed=12, n_pulses=100_000)
    with pytest.raises(ValueError):
        convergence_trace("ghz", IDEAL_NOISE, run, [50_000, 20_000])


def test_trace_error_shrinks_with_pulses():
    # Poisson scaling with 25% slack: err(t2) <= err(t1) * sqrt(t1/t2) * 1.25
    run = PulseRun(seed=13, n_pulses=524_288)
    rows, _ = convergence_trace("w", IDEAL_NOISE, run, [65_536, 131_072, 262_144, 524_288])
    for which in ("sigma_err", "S_err"):
        pts = [(row["pulses"], row[which]) for row in rows]
        for (t1, e1), (t2, e2) in itertools.combinations(pts, 2):
            assert e2 <= e1 * math.sqrt(t1 / t2) * 1.25
