import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kp40 import analysis, cli, simulate
from kp40.analysis import (
    EstimateSet,
    EstimationError,
    _add,
    bhattacharyya,
    estimate_counts,
    estimate_probabilities,
    exclusivity_document,
    exclusivity_epsilon,
    fig3_rows,
    fig4_rows,
    verdict,
)
from kp40.ksset import basis_of, build_graph, canonical_set, mermin_subset
from kp40.simulate import IDEAL_NOISE, CountRecord, PulseRun, run_ks_experiment
from kp40.states import profile

from oracles import estimate_basis_sums, similarity_hashes


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


def test_estimate_counts_reads_its_tables_in_pool_order():
    # a record's tables may hold the pool's rays in another order than the pool lists them
    pool = (17, 3, 40, 9)
    counts, pulses = [5, 0, 7, 2], [60, 55, 70, 61]
    flux, flux_pulses = {1: 30, 2: 31, 3: 32, 5: 29}, {1: 40, 2: 40, 3: 40, 5: 40}
    rec = _record(pool, dict(sorted(zip(pool, counts))), dict(sorted(zip(pool, pulses))),
                  flux, flux_pulses)
    est = estimate_counts(pool, counts, pulses, flux, flux_pulses)
    assert est == estimate_probabilities(rec)
    assert list(est.probabilities) == list(pool)
    with pytest.raises(ValueError):
        estimate_counts(pool, counts[:3], pulses, flux, flux_pulses)


def _sum_left_to_right(values):
    total = 0
    for v in values:
        total = total + v
    return total


def _outcome(add, values):
    """The type and bits of a sum, or its error's type and message.  A NaN sum reads as "nan"
    whatever its sign bit: IEEE 754 leaves that bit open, and CPython's specialized float
    adds set it differently once warm, so two left-to-right sums may differ only there."""
    try:
        total = add(values)
    except (OverflowError, TypeError) as e:
        return type(e), str(e)
    if isinstance(total, float):
        return type(total), "nan" if math.isnan(total) else struct.pack("<d", total)
    return type(total), total


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(-2**60, 2**60), st.integers(), st.floats(),
                          st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]))))
def test_add_sums_left_to_right_bit_for_bit(values):
    # not sum(), which compensates floats from Python 3.12 on, nor math.fsum
    assert _outcome(_add, iter(values)) == _outcome(_sum_left_to_right, values)


def test_estimation_error_is_a_value_error():
    assert issubclass(EstimationError, ValueError)


def test_basis_sums_near_one_on_a_real_run():
    run = PulseRun(seed=21, n_pulses=300_000)
    est = estimate_probabilities(run_ks_experiment("ghz", IDEAL_NOISE, run))
    for b, (total, err) in estimate_basis_sums(est).items():
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


@st.composite
def _table_pairs(draw):
    """Two tables over the same indices, each group's total positive in both; values are floats,
    zeros among them, or fractions, as an exact profile holds."""
    indices = draw(st.lists(st.integers(1, 40), min_size=1, max_size=40, unique=True))
    value = st.one_of(st.floats(0, 10), st.just(0.0), st.fractions(0, 1))
    p, q = ({i: draw(value) for i in indices} for _ in "pq")
    for d in (p, q):
        for i in indices:    # one positive value per group keeps both groupings' totals positive
            if not any(float(d[j]) > 0 for j in indices if basis_of(j) == basis_of(i)):
                d[i] = draw(st.floats(1e-3, 10))
    return p, q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_table_pairs(), st.booleans())
def test_similarity_hashes_read_are_the_eager_hashes_of_the_normalized_tables(tables, per_basis):
    rep = bhattacharyya(*tables, per_basis=per_basis)
    want = similarity_hashes(*tables, per_basis=per_basis)
    assert (rep.p_hash, rep.q_hash) == want
    assert (analysis._dist_hash(rep.p_norm), analysis._dist_hash(rep.q_norm)) == want
    assert (rep.to_json()["p_hash"], rep.to_json()["q_hash"]) == want


def test_a_reproduce_hashes_nothing_and_analyze_hashes_each_table_once(tmp_path, capsys, monkeypatch):
    hash_calls = []
    dist_hash = analysis._dist_hash
    monkeypatch.setattr(analysis, "_dist_hash", lambda groups: hash_calls.append(groups) or dist_hash(groups))
    files = simulate.reproduce(7, 40_000, simulate.DEFAULT_MU, IDEAL_NOISE)
    assert len(files["summary.json"]["rows"]) == 7 and hash_calls == []

    record = run_ks_experiment("ghz", IDEAL_NOISE, PulseRun(seed=3, n_pulses=150_000))
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record.to_json()))
    assert cli.main(["--out", str(tmp_path), "analyze", str(path), "--epsilon", "0.014"]) == 0
    capsys.readouterr()
    assert len(hash_calls) == 2
    similarity = json.loads((tmp_path / "report.json").read_text())["similarity"]
    est, exact = estimate_probabilities(record), profile("ghz").probs
    want = similarity_hashes({i: est.probabilities[i][0] for i in record.projector_pool},
                             {i: exact[i] for i in record.projector_pool}, per_basis=True)
    assert (similarity["p_hash"], similarity["q_hash"]) == want


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


# ------------------------------------------------------------- eps.json

_GRAPH = build_graph(canonical_set())
# finite, and small enough that the mean of a few hundred of them stays finite
_NUMBERS = st.floats(min_value=-1e300, max_value=1e300)
# what a row's probability and error may hold: one of those numbers that is not negative
_ROW_NUMBERS = st.floats(min_value=0, max_value=1e300)


@st.composite
def _campaigns(draw):
    """A nonempty set of initial rays, in a drawn order, with made-up numbers for each pair."""
    initial = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    pairs = [{"initial": i, "partner": j, "probability": draw(_ROW_NUMBERS), "error": draw(_ROW_NUMBERS)}
             for i in initial for j in _GRAPH.neighbors(i)]
    return initial, pairs


@pytest.mark.parametrize("field", ["probability", "error"])
@pytest.mark.parametrize("value", [-0.125, math.inf, math.nan])
def test_eps_document_refuses_a_row_its_loader_refuses(field, value):
    pairs = [{"initial": 1, "partner": j, "probability": 0.01, "error": 0.001} for j in _GRAPH.neighbors(1)]
    pairs[1][field] = value
    with pytest.raises(ValueError, match=f"^row 2 field '{field}': {value!r} is not a finite nonnegative number$"):
        exclusivity_document([1], pairs)


def _error_of(data: dict) -> str:
    with pytest.raises(ValueError) as e:
        exclusivity_epsilon(data)
    return str(e.value)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_campaigns(), st.data())
def test_eps_document_round_trips_and_refuses_each_edit(campaign, data):
    doc = exclusivity_document(*campaign)
    loaded = json.loads(json.dumps(doc))
    assert loaded == doc
    assert exclusivity_epsilon(loaded).hex() == doc["epsilon"].hex()    # bit for bit

    epsilon = data.draw(_NUMBERS.filter(lambda x: x != doc["epsilon"]), label="epsilon")
    assert "eps file field 'epsilon'" in _error_of({**loaded, "epsilon": epsilon})
    n_pairs = data.draw(st.integers(0, 1000).filter(lambda n: n != doc["n_pairs"]), label="n_pairs")
    assert "eps file field 'n_pairs'" in _error_of({**loaded, "n_pairs": n_pairs})
    k = data.draw(st.integers(0, doc["n_pairs"] - 1), label="row")
    rows = json.loads(json.dumps(doc["pairs"]))
    rows[k]["partner"] = data.draw(st.integers(-5, 45).filter(lambda j: j != rows[k]["partner"]),
                                   label="partner")
    assert f"eps file field 'pairs': row {k + 1} holds" in _error_of({**loaded, "pairs": rows})

    # a field no eps file has, at the top or in a row, and a list field that is not a list
    name = data.draw(st.text(min_size=1).filter(lambda s: s not in doc and s not in doc["pairs"][0]),
                     label="name")
    assert _error_of({**loaded, name: 0}) == f"eps file: unexpected field {name!r}"
    rows = json.loads(json.dumps(doc["pairs"]))
    rows[k][name] = 0
    assert _error_of({**loaded, "pairs": rows}) == \
        f"eps file field 'pairs': row {k + 1}: unexpected field {name!r}"
    for key in ("pairs", "initial_rays"):
        for v in (5, "abc", {}):
            assert _error_of({**loaded, key: v}) == f"eps file field {key!r}: expected a list, got {v!r}"
