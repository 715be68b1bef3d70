import math

import pytest

from kp40.analysis import (
    EstimateSet,
    EstimationError,
    bhattacharyya,
    estimate_probabilities,
    fig3_rows,
    fig4_rows,
    verdict,
)
from kp40.ksset import canonical_set, mermin_subset
from kp40.simulate import IDEAL_NOISE, CountRecord, PulseRun, run_ks_experiment
from kp40.states import profile

from oracles import estimate_basis_sums


def _record(pool, counts, pulses, flux, flux_pulses):
    return CountRecord(
        state=(0, 1, 1, 0, 1, 0, 0, -1),
        projector_pool=pool,
        counts=counts,
        pulses_per_projector=pulses,
        flux_calibration=flux,
        flux_pulses=flux_pulses,
        mu=0.14,
        seed=0,
    )


# ------------------------------------------------------------- estimator

def test_estimator_formula_exact_on_synthetic_counts():
    rec = _record(
        pool=(1, 2),
        counts={1: 50, 2: 25},
        pulses={1: 100, 2: 100},
        flux={1: 200},
        flux_pulses={1: 400},
    )
    est = estimate_probabilities(rec)
    p1, e1 = est.probabilities[1]
    p2, e2 = est.probabilities[2]
    assert p1 == pytest.approx(50 * 400 / (100 * 200))
    assert p2 == pytest.approx(25 * 400 / (100 * 200))
    assert e1 > e2 > 0
    assert est.sigma_err == pytest.approx(math.sqrt(e1 * e1 + e2 * e2))


def test_estimator_rejects_zero_flux():
    rec = _record((1,), {1: 0}, {1: 10}, {1: 0}, {1: 10})
    with pytest.raises(EstimationError, match="flux"):
        estimate_probabilities(rec)


def test_estimator_rejects_unallocated_projector():
    rec = _record((1,), {1: 0}, {1: 0}, {1: 5}, {1: 10})
    with pytest.raises(EstimationError, match="pulses"):
        estimate_probabilities(rec)


def test_estimation_error_is_a_value_error():
    assert issubclass(EstimationError, ValueError)


def test_basis_sums_near_one_on_a_real_run():
    run = PulseRun(seed=21, n_pulses=300_000)
    est = estimate_probabilities(run_ks_experiment("ghz", IDEAL_NOISE, run))
    for b, (total, err) in estimate_basis_sums(est, canonical_set()).items():
        assert abs(total - 1.0) < 5 * err + 1e-9, f"basis {b}"


def test_S_over_partial_pool_uses_available_indices_only():
    run = PulseRun(seed=22, n_pulses=100_000, projector_pool=mermin_subset())
    est = estimate_probabilities(run_ks_experiment("ghz", IDEAL_NOISE, run))
    assert len(est.probabilities) == 16
    assert est.S_est == pytest.approx(sum(p for p, _ in est.probabilities.values()))


# ------------------------------------------------------------- similarity

def test_bhattacharyya_identical_profiles():
    p = profile("ghz").probs
    rep = bhattacharyya(p, p)
    assert rep.F == 1.0
    assert rep.p_hash == rep.q_hash
    assert rep.grouping == "per-basis"
    assert set(rep.per_basis) == {1, 2, 3, 4, 5}


def test_bhattacharyya_symmetric_and_bounded():
    a = bhattacharyya(profile("ghz").probs, profile("w").probs)
    b = bhattacharyya(profile("w").probs, profile("ghz").probs)
    assert a.F == pytest.approx(b.F)
    assert 0.0 <= a.F < 1.0
    assert a.p_hash != a.q_hash


def test_bhattacharyya_uniform_vs_point_mass():
    members = list(range(1, 9))    # basis group 1
    uniform = {i: 1.0 / 8.0 for i in members}
    point = {i: 1.0 if i == 1 else 0.0 for i in members}
    rep = bhattacharyya(uniform, point)
    assert rep.F == pytest.approx(math.sqrt(1.0 / 8.0))


def test_bhattacharyya_global_grouping():
    p = profile("ghz").probs
    rep = bhattacharyya(p, p, per_basis=False)
    assert rep.grouping == "global"
    assert list(rep.per_basis) == [0]
    assert rep.F == 1.0


def test_bhattacharyya_normalizes_within_groups():
    members = list(range(1, 9))
    p = {i: 0.25 for i in members}    # unnormalized, sums to 2
    q = {i: 0.125 for i in members}
    assert bhattacharyya(p, q).F == pytest.approx(1.0)


def test_bhattacharyya_input_validation():
    p = {i: 0.125 for i in range(1, 9)}
    with pytest.raises(ValueError, match="different ray indices"):
        bhattacharyya(p, {i: 0.125 for i in range(2, 10)})
    with pytest.raises(ValueError, match="nonnegative"):
        bhattacharyya(p, {**p, 3: -0.1})
    with pytest.raises(ValueError, match="zero total"):
        bhattacharyya(p, {i: 0.0 for i in range(1, 9)})


# ------------------------------------------------------------- verdicts and tables

def _flat_estimate(indices, p, err):
    probs = {i: (p, err) for i in indices}
    in_s = [i for i in mermin_subset() if i in probs]
    return EstimateSet(
        probabilities=probs,
        sigma_est=sum(v for v, _ in probs.values()),
        sigma_err=math.sqrt(sum(e * e for _, e in probs.values())),
        S_est=sum(probs[i][0] for i in in_s),
        S_err=math.sqrt(sum(probs[i][1] ** 2 for i in in_s)),
    )


def test_verdict_full_pool():
    e = _flat_estimate(range(1, 41), 0.125, 0.001)
    v = verdict(e, 0.0140, profile("ghz"))
    assert v["sigma"]["label"].startswith("violates corrected NCHV bound")
    assert v["sigma"]["margin_sigma"] > 0
    assert v["S"]["label"] == "no violation"    # 16 * 0.125 = 2 < 3.182
    assert (v["sigma"]["ideal_bound"], v["S"]["ideal_bound"]) == (4, 3)
    assert (v["sigma"]["quantum_value"], v["S"]["quantum_value"]) == (5.0, 4.0)


def test_verdict_partial_pool_has_no_sigma_section():
    e = _flat_estimate(mermin_subset(), 0.24, 0.002)
    v = verdict(e, 0.0140, profile("w"))
    assert v["sigma"] is None
    assert v["S"]["label"].startswith("violates corrected Mermin bound")
    assert v["S"]["quantum_value"] == 3.5


def test_fig3_rows_with_and_without_ideal():
    e = _flat_estimate(range(1, 41), 0.125, 0.001)
    rows = fig3_rows(e, profile("ghz"))
    assert len(rows) == 40
    assert {"index", "basis_group", "estimate", "error", "ideal_num", "ideal_den"} <= set(rows[0])
    assert rows[0]["index"] == 1


def test_fig4_rows_shapes():
    full = _flat_estimate(range(1, 41), 0.125, 0.001)
    assert [r["quantity"] for r in fig4_rows(verdict(full, 0.014, profile("ghz")))] == ["sigma", "S"]
    partial = _flat_estimate(mermin_subset(), 0.24, 0.002)
    assert [r["quantity"] for r in fig4_rows(verdict(partial, 0.014, profile("ghz")))] == ["S"]
