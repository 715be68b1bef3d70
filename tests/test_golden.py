"""Pinned digest of a small reproduce bundle.

Any change to the simulated output bytes shows here. A change that alters
them on purpose updates the digest and says so in CHANGES.md.
"""

import hashlib
import math
from pathlib import Path

import pytest

from kp40 import cli
from kp40.simulate import BLOCK, CHUNK

GOLDEN_REPRODUCE_DIGEST = "539f73a1eed3c76e4b8414797d443193614a2050c24c4aa9f092b6ada4a14cfe"
# 2.2M pulses are 68 chunks, more than one block of the chunk engine; the
# digest was taken from the one-chunk-at-a-time engine before blocks existed
GOLDEN_MULTI_BLOCK_SIMULATE_DIGEST = "cc5af429bd49092bda858adb62e28d0a57c9315ad72197ade0da53117ba8b517"


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
# relative because analyze and calibrate write the paths they are given into
# their manifests.  The digests were taken before the CLI wrote its bundles
# through one writer; the mermin16 analyze digest was taken when that flow
# first ran.  The three analyze digests were retaken when quantum_value came
# to be read from the state's exact profile, written as a float.
GOLDEN_BUNDLES = {
    "exclusivity": (
        [_EXCLUSIVITY], "excl",
        "0f1c2de680865d06cfe372e63ed65c1888278b600dd069f5f1f88a11e7dacf22"),
    "analyze-epsilon-file": (
        [_EXCLUSIVITY, _SIMULATE,
         ["--out", "an", "analyze", "sim/record.json", "--epsilon-file", "excl/eps.json"]], "an",
        "108b868d279396d9fe4f16a4cb591a81b6bb7f18e29410463f2d64d02304df29"),
    "analyze-global-F": (
        [_SIMULATE, ["--out", "an", "analyze", "sim/record.json", "--epsilon", "0.01", "--global-F"]],
        "an", "f258f71fa9d16bad9a163161cb95db09e6a4bc99c1a621c29beca2385334a02a"),
    "analyze-mermin16": (
        [_SIMULATE_M16, ["--out", "an", "analyze", "sim16/record.json", "--epsilon", "0.014"]],
        "an", "4c2c86d392963d9c0a7b7c496222aeba3d13d55a0f6b79c9c848adf7d35a7df5"),
    "calibrate": (
        [["--seed", "1", "--out", "cal", "calibrate", "--pulses", "60000",
          "--config-out", "cal/noise.json"]], "cal",
        "b0ccee69bab669c26a476e78505b7e18f84ab2d764e7daa5d8666c0e0d54db2f"),
}

# (command, --format) -> sha256 of stdout, taken with the same code as above
GOLDEN_STDOUT = {
    ("verify", "json"): "ddbdbd32a4ca44f0188f6965f10e9e2f542fe54e6eae1e8573568fda8d61daab",
    ("verify", "csv"): "2ebfe027569828e0f8d5f4fa03aebf0a045634768cd620699d3e5a8ec7da62b9",
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


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_STDOUT), ids=" ".join)
def test_report_matches_golden_digest(capsys, command, fmt):
    code = cli.main([*command.split(), "--format", fmt])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command, fmt]
