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
