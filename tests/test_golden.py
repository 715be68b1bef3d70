"""Pinned digest of a small reproduce bundle.

Any change to the simulated output bytes shows here. A change that alters
them on purpose updates the digest and says so in CHANGES.md.
"""

import hashlib
import math
import sys
from pathlib import Path

import pytest

from kp40 import analysis, cli
from kp40.simulate import BLOCK, CHUNK, REPRODUCE_LEGS

GOLDEN_REPRODUCE_DIGEST = "0b2a8c2adc0fae135a352e90a28bd1298d9c727cfc9d0e448223d0e97011f523"
# 2.2M pulses are 68 chunks, more than one block of the chunk engine; a
# one-chunk-at-a-time run of the same four streams gives the same bytes
GOLDEN_MULTI_BLOCK_SIMULATE_DIGEST = "2dd0a38422aa68b476b1e8fd14aec05bbad210c70c0fd1e9658a4b4eb34864ef"


def tree_digest(root: Path) -> str:
    """sha256 over sorted relative paths of name + NUL + sha256(file bytes)."""
    h = hashlib.sha256()
    files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_reproduce_bundle_matches_golden_digest(tmp_path, capsys, workers):
    code = cli.main(["--seed", "42", "--out", str(tmp_path), "reproduce",
                     "--pulses", "200000", "--workers", str(workers)])
    capsys.readouterr()
    assert code == 0
    assert tree_digest(tmp_path) == GOLDEN_REPRODUCE_DIGEST


def _compensated_sum(values, start=0):
    """Builtin sum() as Python 3.12 and later add floats, with Neumaier's compensation."""
    total, c = start, 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_reproduce_bundle_does_not_depend_on_how_builtin_sum_adds_floats(tmp_path, capsys,
                                                                         monkeypatch):
    # Python 3.12 and later compensate sum() over floats; the bytes must not follow
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0 != sum([1.0, 1e100, 1.0, -1e100])
    monkeypatch.setattr(analysis, "sum", _compensated_sum, raising=False)
    code = cli.main(["--seed", "42", "--out", str(tmp_path), "reproduce", "--pulses", "200000"])
    capsys.readouterr()
    assert code == 0
    assert tree_digest(tmp_path) == GOLDEN_REPRODUCE_DIGEST


def test_reproduce_bundle_holds_on_threads_that_switch_often(tmp_path, capsys):
    # a thread per leg, more threads than cores, and a thread switch every microsecond
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        code = cli.main(["--seed", "42", "--out", str(tmp_path), "reproduce",
                         "--pulses", "200000", "--workers", str(len(REPRODUCE_LEGS))])
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert code == 0
    assert tree_digest(tmp_path) == GOLDEN_REPRODUCE_DIGEST


def test_multi_block_simulate_matches_golden_digest(tmp_path, capsys):
    assert math.ceil(2_200_000 / CHUNK) > BLOCK
    code = cli.main(["--seed", "7", "--out", str(tmp_path), "simulate", "--state", "ghz",
                     "--pool", "mermin16", "--pulses", "2200000"])
    capsys.readouterr()
    assert code == 0
    assert tree_digest(tmp_path) == GOLDEN_MULTI_BLOCK_SIMULATE_DIGEST


_EXCLUSIVITY = ["--seed", "6", "--out", "excl", "exclusivity", "--pulses", "30000",
                "--initial", "1,9,40"]
_SIMULATE = ["--seed", "3", "--out", "sim", "simulate", "--state", "ghz", "--pulses", "100000"]
_SIMULATE_M16 = ["--seed", "3", "--out", "sim16", "simulate", "--state", "w", "--pool", "mermin16",
                 "--pulses", "100000"]

# name -> (commands run in order, bundle directory, tree digest).  The paths are
# relative because analyze writes the record path it is given into its manifest.
# Every digest here was retaken when the simulator moved to four named Philox
# streams per run; the output formats are unchanged since, but for calibrate's
# manifest, which now lists its config relative to the manifest.
GOLDEN_BUNDLES = {
    "exclusivity": (
        [_EXCLUSIVITY], "excl",
        "4bb5733b73f1f42c0c70322022a7d42a2517a04ac053c289a70b098aff92c216"),
    "analyze-epsilon-file": (
        [_EXCLUSIVITY, _SIMULATE,
         ["--out", "an", "analyze", "sim/record.json", "--epsilon-file", "excl/eps.json"]], "an",
        "1c776456d84662a97dd752f827bf9c280ba34350731b6b40aa4c87a3667d14bd"),
    "analyze-global-F": (
        [_SIMULATE, ["--out", "an", "analyze", "sim/record.json", "--epsilon", "0.01", "--global-F"]],
        "an", "9c9d71534a7f673da7332e334bd1472093bd5e44dea425a20381c113356ff30e"),
    "analyze-mermin16": (
        [_SIMULATE_M16, ["--out", "an", "analyze", "sim16/record.json", "--epsilon", "0.014"]],
        "an", "7e8ae7d207d02f845a3c44a65173948a9a743b19d6311512beb91b2c8f5ae9e0"),
    # the one bundle whose state has transmissivities strictly between 0 and 1
    "simulate-general-ray": (
        [["--seed", "3", "--out", "sim", "simulate", "--ray", "41,33,-7,0,5,-2,0,1",
          "--pulses", "65536"]], "sim",
        "ede4edbb98552c0c26710c40df1d59d9923a688c95ccf367cac5b26f44366fbe"),
    "calibrate": (
        [["--seed", "1", "--out", "cal", "calibrate", "--pulses", "60000",
          "--config-out", "cal/noise.json"]], "cal",
        "b5638d53259387c5686e30c83d958eb10c94f4b6d5044e19e010fba94dad8025"),
}

# (command, --format) -> sha256 of stdout, taken with the same code as above
GOLDEN_STDOUT = {
    ("verify", "json"): "ddbdbd32a4ca44f0188f6965f10e9e2f542fe54e6eae1e8573568fda8d61daab",
    ("verify", "csv"): "ed0c9d6d800e8d6712c2c264acf924bcde8e6fd6b7a83b71a73bd6c7396cfbed",
    ("octads", "json"): "60871a2b6985cc5766e9fbd667c5e7facddb11c4ab2946ae4efc398ffa637479",
    ("octads", "csv"): "971b1bf5c66f0838e502e288118c2382bd0ed5c0f828bef8630da4eb410b7676",
    ("bounds --epsilon 0.014 --extrapolated-quantum", "json"):
        "7a828d380fa9de77d4489adc9a3ead343ca4843236ed41404eaaae4dbfd5cfb7",
    ("bounds --epsilon 0.014 --extrapolated-quantum", "csv"):
        "cef2208913e9fdf5807a5a63eec9cf0be66ed18fc2b50e81234f5751841574b7",
    ("predict --state ghz", "json"): "9ffb7b71677b3664e5169d787e73564d6328167ff6c754459b25cbd65123d0a2",
    ("predict --state ghz", "csv"): "19b367db948e2003fc21e097151989385711260ef00e57b9d78752b0b63987a3",
    ("predict --ray 1,1,0,0,1,-1,0,0", "json"):
        "6ffa98e602179e912a2542a734b63f8c4981983c1710c898a55814db6cf39688",
    ("predict --ray 1,1,0,0,1,-1,0,0", "csv"):
        "368dad4e47761cfc4cedd89bd0055379b6ccc7f500e796926d8e66c13723b0eb",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BUNDLES))
def test_bundle_matches_golden_digest(tmp_path, monkeypatch, capsys, name):
    commands, bundle, digest = GOLDEN_BUNDLES[name]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert tree_digest(Path(bundle)) == digest


def test_a_shorter_rerun_into_a_bundle_leaves_no_old_bytes(tmp_path, monkeypatch, capsys):
    # a command writes an existing file in place, so its new end must cut the old tail
    monkeypatch.chdir(tmp_path)

    def simulate(out: str, pulses: str) -> list[str]:
        return ["--seed", "3", "--out", out, "simulate", "--state", "ghz", "--pulses", pulses]

    def analyze(out: str, epsilon: str) -> list[str]:
        return ["--out", out, "analyze", "sim/record.json", "--epsilon", epsilon]

    def sizes(out: str) -> dict[str, int]:
        return {p.name: p.stat().st_size for p in Path(out).iterdir()}

    assert cli.main(simulate("sim", "40000")) == 0    # the record that analyze reads
    for command, long, short in ((simulate, "100000", "40000"), (analyze, "0.0123456789", "0.01")):
        again, fresh = f"{command.__name__}-again", f"{command.__name__}-fresh"
        assert cli.main(command(again, long)) == 0
        before = sizes(again)
        assert cli.main(command(again, short)) == 0
        assert cli.main(command(fresh, short)) == 0
        after = sizes(again)
        assert after.keys() == before.keys()
        assert all(after[name] <= before[name] for name in after)
        assert after["manifest.json"] < before["manifest.json"]
        assert tree_digest(Path(again)) == tree_digest(Path(fresh))
    capsys.readouterr()


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_STDOUT), ids=" ".join)
def test_report_matches_golden_digest(capsys, command, fmt):
    code = cli.main([*command.split(), "--format", fmt])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command, fmt]
