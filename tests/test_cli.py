import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kp40
from kp40 import cli, pentagram
from kp40.ksset import canonical_set, mermin_subset
from kp40.simulate import CountRecord


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------- verify

def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) == 5
    assert all(c["ok"] for c in data["checks"])


def test_verify_text_format(capsys):
    code, out, _ = run_cli(["verify", "--format", "csv"], capsys)
    assert code == 0
    assert out.count("ok:") == 5


def test_verify_names_malformed_ray(tmp_path, capsys):
    data = canonical_set().to_json()
    data["rays"][36] = [1, -2, 1, 0, 0, 0, 0]    # ray 37 short one entry
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, _, err = run_cli(["verify", "--rays", str(p)], capsys)
    assert code == 2
    assert "ray 37" in err


def _swap_first_two_groups(rays):
    # still orthogonal groups, but group 1 no longer holds the rays its
    # pentagram context generates
    return rays[8:16] + rays[:8] + rays[16:]


@pytest.mark.parametrize("rows,code,report", [
    (lambda rays: rays, 0, ["ok: ray regeneration: 40/40 rays matched"]),
    (_swap_first_two_groups, 1, [
        "FAIL: ray regeneration: context 1 pattern (1, 1, 1, -1): generated ray "
        "(0, 1, 1, 0, 1, 0, 0, -1) matches no unmatched table row"]),
], ids=["built-in-rows", "groups-swapped"])
def test_verify_rays_regenerates_and_matches_the_file(tmp_path, capsys, rows, code, report):
    data = canonical_set().to_json()
    data["rays"] = rows(data["rays"])
    p = tmp_path / "rays.json"
    p.write_text(json.dumps(data))
    got, out, _ = run_cli(["verify", "--rays", str(p), "--format", "csv"], capsys)
    assert got == code
    assert out.splitlines()[:1] == report
    assert out.count("ok:") == (5 if code == 0 else 0)


def test_verify_reports_first_failing_check(monkeypatch, capsys):
    fake = [("degree check", False, "vertex 3 has degree 22")]
    monkeypatch.setattr(cli, "verification_checks", lambda *a, **k: fake)
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1
    assert "degree check" in err


def test_a_cold_set_and_verify_certify_the_pentagram_once(monkeypatch, capsys):
    # canonical_set certifies the bijection; verify reads it back, not regenerates it
    calls = []
    real = pentagram.common_eigenrays
    monkeypatch.setattr(pentagram, "common_eigenrays", lambda c: calls.append(c) or real(c))
    canonical_set.cache_clear()
    canonical_set()
    assert all(ok for _, ok, _ in cli.verification_checks())
    assert len(calls) == 5
    calls.clear()
    canonical_set.cache_clear()
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert len(calls) == 5


def test_verification_checks_fail_on_a_graph_with_a_missing_edge():
    from kp40.ksset import OrthoGraph, build_graph

    g = build_graph(canonical_set())
    adj = list(g.adj)
    adj[0] &= ~(1 << 1)    # drop edge (1, 2), both directions
    adj[1] &= ~(1 << 0)
    broken = OrthoGraph(n=g.n, adj=tuple(adj))
    rows = {name: ok for name, ok, _ in cli.verification_checks(g=broken)}
    assert rows["degree check"] is False
    assert rows["edge count"] is False
    assert rows["ray regeneration"] is True    # the set itself is untouched


# ------------------------------------------------------------- octads and bounds

def test_octads_json_and_csv(capsys):
    code, out, _ = run_cli(["octads"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 25
    code, out, _ = run_cli(["octads", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 25


def test_global_flags_accepted_before_or_after_subcommand(capsys):
    _, before, _ = run_cli(["--format", "csv", "octads"], capsys)
    _, after, _ = run_cli(["octads", "--format", "csv"], capsys)
    assert before == after


def test_bounds_report(capsys):
    code, out, _ = run_cli(["bounds"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["sigma_nchv"] == 4
    assert data["S_nchv"] == 3
    assert data["ks_colorable"] is False
    assert data["witness"] == [1, 10, 20, 32]
    assert data["sigma_corrected"] == 4.0
    assert data["S_corrected"] == 3.0


def test_bounds_with_epsilon_and_extrapolation(capsys):
    code, out, _ = run_cli(
        ["bounds", "report", "--epsilon", "0.014", "--extrapolated-quantum"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["sigma_corrected"] == pytest.approx(4.504)
    assert data["S_corrected"] == pytest.approx(3.182)
    assert data["sigma_quantum_extrapolated"] == pytest.approx(5 * 0.986 + 40 * 0.014)


def test_bounds_without_flag_omits_extrapolation(capsys):
    _, out, _ = run_cli(["bounds"], capsys)
    assert "sigma_quantum_extrapolated" not in json.loads(out)


def test_bounds_rejects_bad_epsilon(capsys):
    code, _, err = run_cli(["bounds", "--epsilon", "1.5"], capsys)
    assert code == 2
    assert "epsilon" in err


# ------------------------------------------------------------- predict

def test_predict_csv_default(capsys):
    code, out, _ = run_cli(["predict", "--state", "GHZ"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 40
    assert rows[0] == {"index": "1", "basis_group": "1", "num": "1", "den": "1", "decimal": "1.0"}


def test_predict_json_carries_exact_sums(capsys):
    _, out, _ = run_cli(["predict", "--state", "w", "--format", "json"], capsys)
    data = json.loads(out)
    assert data["sigma"] == "5/1"
    assert data["S"] == "7/2"
    assert len(data["profile"]) == 40


def test_predict_accepts_a_raw_ray(capsys):
    code, out, _ = run_cli(["predict", "--ray", "1,0,0,0,0,0,0,0", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["sigma"] == "5/1"


def test_predict_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        cli.main(["predict", "--state", "ghz", "--ray", "1,0,0,0,0,0,0,0"])
    capsys.readouterr()


def test_predict_rejects_malformed_ray(capsys):
    code, _, err = run_cli(["predict", "--ray", "1,2,three"], capsys)
    assert code == 2
    assert "integers" in err


# ------------------------------------------------------------- simulate and analyze

def test_simulate_writes_bundle(tmp_path, capsys):
    code, _, _ = run_cli(
        ["--seed", "3", "--out", str(tmp_path), "simulate", "--state", "ghz",
         "--pulses", "100000"], capsys
    )
    assert code == 0
    record = CountRecord.from_json(json.loads((tmp_path / "record.json").read_text()))
    assert sum(record.pulses_per_projector.values()) == 100_000
    assert record.seed == 3
    trace = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()))
    assert int(trace[-1]["pulses"]) == 100_000
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert sorted(manifest["outputs"]) == manifest["outputs"]


def test_simulate_is_deterministic_at_the_byte_level(tmp_path, capsys):
    for d in ("a", "b"):
        code, _, _ = run_cli(
            ["--seed", "9", "--out", str(tmp_path / d), "simulate", "--state", "w",
             "--pulses", "80000", "--pool", "mermin16"], capsys
        )
        assert code == 0
    assert (tmp_path / "a" / "record.json").read_bytes() == (tmp_path / "b" / "record.json").read_bytes()
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_analyze_produces_report_and_figures(tmp_path, capsys):
    run_cli(
        ["--seed", "3", "--out", str(tmp_path), "simulate", "--state", "ghz",
         "--pulses", "150000"], capsys
    )
    code, _, _ = run_cli(
        ["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
         "--epsilon", "0.014"], capsys
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["sigma"]["label"].startswith("violates")
    assert report["similarity"]["F"] > 0.9
    fig3 = list(csv.DictReader((tmp_path / "fig3.csv").read_text().splitlines()))
    assert len(fig3) == 40
    fig4 = list(csv.DictReader((tmp_path / "fig4.csv").read_text().splitlines()))
    assert [r["quantity"] for r in fig4] == ["sigma", "S"]


def test_analyze_reads_epsilon_file(tmp_path, capsys):
    run_cli(
        ["--seed", "4", "--out", str(tmp_path), "simulate", "--state", "ghz",
         "--pulses", "100000"], capsys
    )
    (tmp_path / "eps.json").write_text(json.dumps({"epsilon": 0.012}))
    code, _, _ = run_cli(
        ["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
         "--epsilon-file", str(tmp_path / "eps.json")], capsys
    )
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text())["verdict"]["epsilon"] == 0.012


@pytest.mark.parametrize("state,groups,S", [
    ("ghz", [2, 3, 4, 5], 4.0),
    ("prod", [3, 4, 5], 1.5),    # no Mermin ray of group 2 overlaps prod, so F leaves it out
], ids=["ghz", "prod"])
def test_analyze_a_mermin16_record(tmp_path, capsys, state, groups, S):
    run_cli(
        ["--seed", "5", "--out", str(tmp_path), "simulate", "--state", state,
         "--pool", "mermin16", "--pulses", "100000"], capsys
    )
    code, _, err = run_cli(
        ["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
         "--epsilon", "0.014"], capsys
    )
    assert code == 0, err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["sigma"] is None
    assert report["verdict"]["S"]["quantum_value"] == S
    assert sorted(int(i) for i in report["estimates"]["probabilities"]) == list(mermin_subset())
    assert [int(b) for b in report["similarity"]["per_basis"]] == groups
    fig4 = list(csv.DictReader((tmp_path / "fig4.csv").read_text().splitlines()))
    assert [r["quantity"] for r in fig4] == ["S"]


def test_analyze_missing_record_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["analyze", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert err


@pytest.mark.parametrize("corrupt,field", [
    (lambda r: r.pop("seed"), "seed"),
    (lambda r: r["counts"].update({"1": -1}), "counts"),
    (lambda r: r["counts"].update({"1": r["pulses_per_projector"]["1"] + 1}), "counts"),
    (lambda r: r["projector_pool"].pop(), "counts"),
    (lambda r: r["pulses_per_projector"].update({"41": r["pulses_per_projector"].pop("40")}),
     "pulses_per_projector"),
], ids=["missing-key", "negative-count", "count-above-pulses", "pool-mismatch", "index-out-of-range"])
def test_analyze_rejects_a_malformed_record(tmp_path, capsys, corrupt, field):
    run_cli(["--seed", "3", "--out", str(tmp_path), "simulate", "--state", "ghz",
             "--pulses", "40000"], capsys)
    record = json.loads((tmp_path / "record.json").read_text())
    corrupt(record)
    (tmp_path / "record.json").write_text(json.dumps(record))
    code, _, err = run_cli(["--out", str(tmp_path), "analyze", str(tmp_path / "record.json")], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"'{field}'" in err


def test_reproduce_summary_agrees_with_analyze_on_its_records(tmp_path, capsys):
    full = tmp_path / "full"
    code, _, _ = run_cli(["--seed", "42", "--out", str(full), "reproduce", "--pulses", "200000"],
                         capsys)
    assert code == 0
    rows = {(r["quantity"].lower(), r["state"]): r
            for r in json.loads((full / "summary.json").read_text())["rows"]}
    records = sorted((full / "records").glob("*.json"))
    assert sorted(f"{kind}_{state}.json" for kind, state in rows) == [p.name for p in records]
    for record in records:
        row = rows[tuple(record.stem.split("_"))]
        out = tmp_path / record.stem
        code, _, err = run_cli(["--out", str(out), "analyze", str(record),
                                "--epsilon-file", str(full / "eps.json")], capsys)
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        v = report["verdict"][row["quantity"]]
        assert [row[k] for k in ("estimate", "error", "corrected_bound", "quantum_value")] == \
            [v[k] for k in ("value", "error", "corrected_bound", "quantum_value")], record.name
        assert row["violates"] == v["label"].startswith("violates"), record.name
        F = report["similarity"]["F"] if row["quantity"] == "sigma" else ""    # sigma rows only
        assert row["F"] == F, record.name


_SIMULATE_GHZ = ["simulate", "--state", "ghz", "--pulses", "1000", "--noise", "bad.json"]
_ANALYZE_WITH_EPS = ["analyze", "record.json", "--epsilon-file", "bad.json"]
# a well-formed record on rays 1-8 alone: neither all 40 rays nor the 16 Mermin rays
_RECORD_ON_RAYS_1_TO_8 = json.dumps({
    "state": [0, 1, 1, 0, 1, 0, 0, -1], "projector_pool": list(range(1, 9)),
    "counts": {str(i): 10 for i in range(1, 9)},
    "pulses_per_projector": {str(i): 100 for i in range(1, 9)},
    "flux_calibration": {"1": 50}, "flux_pulses": {"1": 100}, "mu": 0.14, "seed": 0,
})
# a well-formed mermin16 record of a state orthogonal to all 16 Mermin rays: F compares no group
_MERMIN16_RECORD_OF_A_DARK_STATE = json.dumps({
    "state": [1, 0, 0, -1, 0, -1, -1, 0], "projector_pool": list(mermin_subset()),
    "counts": {str(i): 0 for i in mermin_subset()},
    "pulses_per_projector": {str(i): 2500 for i in mermin_subset()},
    "flux_calibration": {str(b): 300 for b in range(2, 6)},
    "flux_pulses": {str(b): 2500 for b in range(2, 6)}, "mu": 0.14, "seed": 0,
})


# a well-formed mermin16 record of GHZ that analyze judges, with the given fields replaced
def _mermin16_ghz_record(**fields) -> str:
    return json.dumps({
        "state": [1, 0, 0, 0, 0, 0, 0, 1], "projector_pool": list(mermin_subset()),
        "counts": {str(i): 300 for i in mermin_subset()},
        "pulses_per_projector": {str(i): 2500 for i in mermin_subset()},
        "flux_calibration": {str(b): 300 for b in range(2, 6)},
        "flux_pulses": {str(b): 2500 for b in range(2, 6)}, "mu": 0.14, "seed": 0, **fields,
    })


# the canonical set as a ray file, with entry [row][col] of `field` replaced by `value`
def _ray_file(field: str, row: int, col: int, value) -> str:
    data = canonical_set().to_json()
    data[field][row][col] = value
    return json.dumps(data)


# case -> (content of bad.json, or None to make it a directory; command; what the error names)
MALFORMED_ARTIFACTS = {
    "noise-missing-field": ('{"phase_jitter": 0.1, "background": 0.0, "efficiency": 0.5}',
                            _SIMULATE_GHZ, "'amplitude_jitter'"),
    "noise-field-not-an-object": ('{"noise": 3}', _SIMULATE_GHZ, "noise config"),
    "noise-not-an-object": ("[1, 2]", _SIMULATE_GHZ, "noise config"),
    "noise-nan-jitter": ('{"amplitude_jitter": NaN, "phase_jitter": 0.1, "background": 0.0, '
                         '"efficiency": 0.5}', _SIMULATE_GHZ, "amplitude_jitter must be finite"),
    "eps-missing-field": ('{"eps": 0.1}', _ANALYZE_WITH_EPS, "'epsilon'"),
    "eps-not-a-number": ('{"epsilon": "x"}', _ANALYZE_WITH_EPS, "'epsilon'"),
    "ray-file-without-rays": ('{"basis_groups": []}', ["verify", "--rays", "bad.json"], "'rays'"),
    "ray-file-not-json": ("{rays: 1", ["verify", "--rays", "bad.json"], "ray file bad.json is not JSON"),
    "ray-file-entry-not-an-integer": (_ray_file("rays", 8, 0, 1.5), ["verify", "--rays", "bad.json"],
                                      "ray 9: entries must be integers"),
    "ray-file-group-index-not-an-integer": (_ray_file("basis_groups", 0, 0, 1.9),
                                            ["verify", "--rays", "bad.json"],
                                            "'basis_groups': 1.9 is not an integer"),
    "record-is-a-directory": (None, ["analyze", "bad.json"], "bad.json"),
    "record-not-json": ("{counts: 1", ["analyze", "bad.json"], "record"),
    "record-pool-without-mermin-rays": (_RECORD_ON_RAYS_1_TO_8, ["analyze", "bad.json"],
                                        "'projector_pool': [1, 2, 3, 4, 5, 6, 7, 8]"),
    "record-of-a-state-no-pool-ray-sees": (_MERMIN16_RECORD_OF_A_DARK_STATE, ["analyze", "bad.json"],
                                           "[1, 0, 0, -1, 0, -1, -1, 0]"),
    "record-flux-pulses-not-an-integer": (
        _mermin16_ghz_record(flux_pulses={str(b): 1000.5 for b in range(2, 6)}),
        ["analyze", "bad.json"], "'flux_pulses': 1000.5 is not an integer"),
    "record-seed-not-an-integer": (_mermin16_ghz_record(seed=1.9), ["analyze", "bad.json"],
                                   "'seed': 1.9 is not an integer"),
    "record-count-beyond-a-float": (_mermin16_ghz_record(counts={str(i): 10**400 for i in mermin_subset()}),
                                    ["analyze", "bad.json"], "'counts': int too large to convert to float"),
    "record-state-not-an-integer": (_mermin16_ghz_record(state=[1, 0, 0, 0, 0, 0, 0, 1.5]),
                                    ["analyze", "bad.json"], "'state': 1.5 is not an integer"),
    "record-flux-above-its-pulses": (
        _mermin16_ghz_record(flux_pulses={str(b): 100 for b in range(2, 6)}),
        ["analyze", "bad.json"], "'flux_calibration': basis group 2 has 300.0 counts but 100 pulses"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ARTIFACTS))
def test_malformed_artifact_is_a_one_line_usage_error(tmp_path, monkeypatch, capsys, case):
    content, argv, named = MALFORMED_ARTIFACTS[case]
    monkeypatch.chdir(tmp_path)
    if "record.json" in argv:
        run_cli(["--out", ".", "simulate", "--state", "ghz", "--pulses", "40000"], capsys)
    if content is None:
        Path("bad.json").mkdir()
    else:
        Path("bad.json").write_text(content)
    code, _, err = run_cli(["--out", "out", *argv], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert named in err


# case -> (command line, what the one error line names)
BAD_FLAG_VALUES = {
    "mu-nan": (["simulate", "--state", "ghz", "--pulses", "1000", "--mu", "nan"],
               "mu must be finite and positive, got nan"),
    "mu-inf": (["exclusivity", "--pulses", "1000", "--mu", "inf"],
               "mu must be finite and positive, got inf"),
    "initial-not-an-integer": (["exclusivity", "--pulses", "1000", "--initial", "1,x"],
                               "--initial takes comma-separated integers, got '1,x'"),
    "checkpoints-not-an-integer": (
        ["simulate", "--state", "ghz", "--pulses", "1000", "--checkpoints", "5,y"],
        "--checkpoints takes comma-separated integers, got '5,y'"),
    "workers-zero": (["reproduce", "--pulses", "1000", "--workers", "0"],
                     "--workers must be at least 1, got 0"),
    "workers-negative": (["reproduce", "--pulses", "1000", "--workers", "-2"],
                         "--workers must be at least 1, got -2"),
}


@pytest.mark.parametrize("case", list(BAD_FLAG_VALUES))
def test_bad_flag_value_is_a_one_line_usage_error(tmp_path, capsys, case):
    argv, named = BAD_FLAG_VALUES[case]
    code, _, err = run_cli(["--out", str(tmp_path), *argv], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert named in err
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------- exclusivity and calibrate

def test_exclusivity_bundle(tmp_path, capsys):
    code, _, _ = run_cli(
        ["--seed", "6", "--out", str(tmp_path), "exclusivity", "--pulses", "30000"], capsys
    )
    assert code == 0
    eps = json.loads((tmp_path / "eps.json").read_text())
    assert eps["n_pairs"] == 184
    assert len(eps["pairs"]) == 184
    assert 0.0 <= eps["epsilon"] < 0.05


def test_exclusivity_rejects_a_repeated_initial_ray(tmp_path, capsys):
    code, _, err = run_cli(
        ["--out", str(tmp_path), "exclusivity", "--pulses", "30000", "--initial", "1,9,1"], capsys
    )
    assert code == 2
    assert err.splitlines() == ["error: initial ray 1 is repeated"]
    assert not (tmp_path / "eps.json").exists()


def test_calibrate_closed_loop(tmp_path, capsys):
    import math

    from kp40.simulate import NoiseModel, PulseRun, run_exclusivity_campaign

    cfg = tmp_path / "noise.json"
    code, out, _ = run_cli(
        ["--seed", "1", "--out", str(tmp_path), "calibrate", "--pulses", "60000",
         "--config-out", str(cfg)], capsys
    )
    assert code == 0
    data = json.loads(cfg.read_text())
    assert set(data) == {"noise", "calibration", "search"}
    assert 0.010 <= data["calibration"]["epsilon_simulated"] <= 0.018
    assert 0.90 <= data["calibration"]["F_GHZ_simulated"] <= 0.99
    assert (tmp_path / "manifest.json").exists()
    # the zero-noise grid point can never pass the epsilon window
    zero = [p for p in data["search"]
            if p["noise"]["phase_jitter"] == 0.0 and p["noise"]["background"] == 0.0
            and p["noise"]["amplitude_jitter"] == 0.0]
    assert zero and all(not p["accepted"] for p in zero)
    assert any(p["accepted"] for p in data["search"])

    # closed loop: a fresh campaign with the written config lands on the recorded
    # epsilon within twice the combined counting error
    noise = NoiseModel.from_json(data["noise"])
    rerun = PulseRun(seed=2, n_pulses=data["calibration"]["pulses"])
    eps, pairs = run_exclusivity_campaign(noise=noise, run=rerun)
    sd = math.sqrt(sum(p.error ** 2 for p in pairs)) / len(pairs)
    assert abs(eps - data["calibration"]["epsilon_simulated"]) <= 2 * math.sqrt(2) * sd


def test_reproduce_says_when_pulses_are_too_few_to_calibrate(tmp_path, capsys):
    code, _, err = run_cli(["--out", str(tmp_path), "reproduce", "--pulses", "10"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "--pulses 10 is too short for a flux calibration" in err
    assert not (tmp_path / "summary.json").exists()


def test_reproduce_without_config_names_calibrate(tmp_path, capsys):
    code, _, err = run_cli(
        ["--out", str(tmp_path), "reproduce", "--pulses", "1000",
         "--noise", str(tmp_path / "missing.json")], capsys
    )
    assert code == 2
    assert "calibrate" in err


def test_cli_default_mu_is_the_simulator_default():
    from kp40.simulate import DEFAULT_MU

    assert cli.DEFAULT_MU == DEFAULT_MU


# ------------------------------------------------------------- package and imports

def _readme_commands() -> list[list[str]]:
    """Every `kp40 ...` line in the README's code blocks, split as a shell would, comments off."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    return [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()
            if line.startswith("kp40 ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    assert argv[0] == "kp40"
    args = cli.build_parser().parse_args(argv[1:])    # parses only; runs nothing
    assert args.command == argv[1]

def test_star_import_yields_every_public_name():
    namespace: dict = {}
    exec("from kp40 import *", namespace)
    assert set(kp40.__all__) <= set(namespace)
    assert namespace["canonical_set"] is kp40.ksset.canonical_set
    assert namespace["simulate"] is kp40.simulate


def _src_env() -> dict:
    """The environment with this tree's kp40 first on PYTHONPATH."""
    src = str(Path(kp40.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# case -> code run in a fresh interpreter
EXACT_RUNS = {
    **{argv[0]: f"from kp40.cli import main; assert main({argv!r}) == 0"
       for argv in (["bounds"], ["verify"], ["octads"], ["predict", "--state", "ghz"])},
    "canonical_set": "import kp40; kp40.canonical_set()",
    # a command that reads a record and draws nothing
    "analyze": "import pathlib, tempfile\nfrom kp40.cli import main\n"
               "with tempfile.TemporaryDirectory() as d:\n"
               f"    pathlib.Path(d, 'record.json').write_text({_mermin16_ghz_record()!r})\n"
               "    assert main(['--out', d, 'analyze', str(pathlib.Path(d, 'record.json'))]) == 0",
    "CountRecord": "import kp40; kp40.CountRecord; kp40.judge",
}


@pytest.mark.parametrize("case", list(EXACT_RUNS))
def test_exact_path_never_imports_numpy(case):
    code = f"import sys\n{EXACT_RUNS[case]}\nprint('numpy' in sys.modules, file=sys.stderr)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env())
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "False", "numpy was imported"


def test_console_script_is_installed(tmp_path):
    # The suite runs from a checkout with no install, so build the launcher
    # that pip would write for [project.scripts] and run it from a PATH
    # whose first entry is its directory. Any other kp40 on PATH is ignored.
    try:
        import tomllib
    except ModuleNotFoundError:    # Python 3.10
        tomllib = pytest.importorskip("tomli")

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["kp40"]
    module, _, attr = entry.partition(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "kp40"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)

    src = str(Path(kp40.__file__).resolve().parents[1])
    env = dict(os.environ)
    for var, first in (("PATH", str(bindir)), ("PYTHONPATH", src)):
        env[var] = os.pathsep.join(filter(None, [first, env.get(var)]))
    exe = shutil.which("kp40", path=env["PATH"])
    assert exe, f"kp40 entry point not on PATH (declared as {entry!r})"
    assert Path(exe) == launcher
    res = subprocess.run([exe, "bounds"], capture_output=True, text=True, env=env)
    assert res.returncode == 0, f"kp40 bounds ({entry}) failed:\n{res.stderr}"
    assert json.loads(res.stdout)["sigma_nchv"] == 4
