"""The benchmark's three workloads: their operations, seeded inputs and gates.

Every operation drives kp40 from outside, through its public functions or
through ``cli.main`` exactly as a user runs a command. An operation returns
the seconds spent inside the package; its correctness gates run after the
clock stops. A gate that fails raises :class:`GateFailure`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

from kp40 import bounds, cli, ksset, pentagram, states
from kp40.states import NAMED_STATES

# Captured at import, before a tracer can replace the module attribute.
_CANONICAL_SET = ksset.canonical_set

FLOW_PULSES = 262144    # 8 chunks of 32768 pulses
POOL_SIZES = {"ks40": 40, "mermin16": 16}
# What ``kp40 analyze`` prints for every mermin16 record (a known defect).
KNOWN_DEFECT = "error: probability tables cover different ray indices"


class GateFailure(Exception):
    """An operation failed or gave a wrong output.

    ``known`` marks the one failure expected today: ``kp40 analyze`` on a
    mermin16 record stops with :data:`KNOWN_DEFECT`. It is counted apart,
    neither as failed nor as a wrong output; every other failure is both.
    """

    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr
        self.known = False


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def run_cli(argv: list[str]) -> tuple[str, float]:
    """Run one ``kp40`` command in this process; returns (stdout, seconds)."""
    command = "kp40 " + " ".join(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:    # argparse rejects a command line this way
            code = f"{e.code} (arguments rejected)"
        elapsed = time.perf_counter() - t0
    if code != 0:
        stderr = err.getvalue().strip()
        raise GateFailure(f"{command}: exit {code}: {stderr}", stderr)
    return out.getvalue(), elapsed


def random_ray(rng: random.Random) -> list[int]:
    entries = [rng.randint(-9, 9) for _ in range(8)]
    if not any(entries):
        entries[0] = 1
    return entries


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def tree_digest(tree: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(tree.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class Exact:
    """Cold proof passes (library calls) and the exact-side commands (``cli.main``)."""

    name = "exact"
    writes_files = False    # picks the kernel that normalizes the timings (see run.py)
    kinds = (("proof_s", "s"), ("exact_cli_ms", "ms"))
    traced = (0, 1)    # the kinds the traced run repeats under the tracer

    def __init__(self, rng: random.Random, tmp: Path):
        self.rng = rng

    def round(self):
        return [(0, self.proof_pass), (1, self.cli_pass)]

    def proof_pass(self) -> float:
        rays = [random_ray(self.rng) for _ in range(4)]
        t0 = time.perf_counter()
        _CANONICAL_SET.cache_clear()
        s = ksset.canonical_set()
        g = ksset.build_graph(s)
        octads = ksset.enumerate_octads(g)
        sigma_bound = bounds.max_ones(g)[0]
        s_bound = bounds.max_ones(g, ksset.mermin_subset())[0]
        color = bounds.ks_colorable(octads, g)
        unsat = pentagram.pentagram_unsat()
        checks = cli.verification_checks()
        profiles = [states.profile(r) for r in rays]
        elapsed = time.perf_counter() - t0

        gate((sigma_bound, s_bound) == (4, 3), f"bounds {(sigma_bound, s_bound)}, expected (4, 3)")
        gate(len(octads) == 25, f"{len(octads)} octads, expected 25")
        gate(not color.colorable, "the 25 octads admit a KS coloring")
        gate(unsat == (0, 4), f"pentagram_unsat() = {unsat}, expected (0, 4)")
        failed = [name for name, ok, _ in checks if not ok]
        gate(not failed, f"verification checks failed: {failed}")
        for ray, p in zip(rays, profiles):
            total = sum(p.probs.values(), Fraction(0))
            gate(type(total) is Fraction and total == 5, f"profile of {ray} sums to {total!r}, not 5")
        return elapsed

    def cli_pass(self) -> float:
        ray = ",".join(str(e) for e in random_ray(self.rng))
        verify, t1 = run_cli(["verify"])
        report, t2 = run_cli(["bounds"])
        predict, t3 = run_cli(["--format", "json", "predict", f"--ray={ray}"])

        gate(json.loads(verify)["passed"] is True, "kp40 verify did not pass")
        b = json.loads(report)
        gate((b["sigma_nchv"], b["S_nchv"], b["ks_colorable"]) == (4, 3, False),
             f"kp40 bounds reported {b['sigma_nchv']}, {b['S_nchv']}, colorable={b['ks_colorable']}")
        sigma = json.loads(predict)["sigma"]
        gate(sigma == "5/1", f"kp40 predict --ray={ray}: sigma {sigma}, expected 5/1")
        return t1 + t2 + t3


class Reproduce:
    """Whole ``kp40 reproduce`` runs at workers 1 and 2 on the same master seeds."""

    name = "reproduce"
    writes_files = False    # its bundle is small next to the simulation
    kinds = (("reproduce_w1_s", "s"), ("reproduce_w2_s", "s"))
    traced = (0,)    # workers 2 runs in a process pool, out of the tracer's reach

    def __init__(self, rng: random.Random, tmp: Path):
        self.rng = rng
        self.tmp = tmp
        self.rounds = 0
        self.digests: dict[int, str] = {}     # master seed -> sha256 of its bundle tree
        self.ac7: dict[int, int] = {}         # master seed -> AC-7 clauses passed, of 6
        self.bundle_bytes: dict[int, int] = {}

    def round(self):
        master = self.rng.randrange(1 << 31)
        order = (1, 2) if self.rounds % 2 == 0 else (2, 1)
        self.rounds += 1
        return [(w - 1, lambda w=w: self.reproduce(master, w)) for w in order]

    def reproduce(self, master: int, workers: int) -> float:
        out = self.tmp / f"reproduce-w{workers}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            _, elapsed = run_cli(
                ["--seed", str(master), "--out", str(out), "reproduce", "--workers", str(workers)]
            )
            tree = read_tree(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

        digest = tree_digest(tree)
        first = self.digests.setdefault(master, digest)
        gate(first == digest, f"seed {master}: bundle at workers {workers} differs from an earlier run")
        self.bundle_bytes[master] = sum(len(b) for b in tree.values())
        if workers == 1:
            self.ac7[master] = sum(ac7_clauses(json.loads(tree["summary.json"]), elapsed).values())
        return elapsed


def ac7_clauses(summary: dict, seconds: float) -> dict[str, bool]:
    """The acceptance test's AC-7 clauses for one bundle; informational, not a gate."""
    eps = summary["epsilon"]
    rows = {(r["state"], r["quantity"]): r for r in summary["rows"]}
    sigma_states = ("ghz", "w", "beta", "eta", "prod")
    return {
        "eps": 0.0104 <= eps <= 0.0176,
        "S_ghz": 3.41 <= rows[("ghz", "S")]["estimate"] <= 4.0,
        "S_w": 3.16 <= rows[("w", "S")]["estimate"] <= 3.76,
        "sigma": all(rows[(st, "sigma")]["violates"] for st in sigma_states),
        "F": all(0.88 <= rows[(st, "sigma")]["F"] <= 0.995 for st in sigma_states),
        "runtime": seconds < 300.0,
    }


class Flow:
    """Short ``kp40 simulate`` runs, each followed by ``kp40 analyze`` on its record."""

    name = "flow"
    writes_files = True    # every short run writes and reads back JSON files
    kinds = (("simulate_op_ms", "ms"), ("analyze_op_ms", "ms"))
    traced = (0, 1)

    def __init__(self, rng: random.Random, tmp: Path):
        self.rng = rng
        self.out = tmp / "flow"
        self.pool = ""    # the pool of the last record simulated

    def step(self, pool: str) -> tuple[list[str], str, int]:
        """Seeded (state arguments, pool, seed): a named state or a random integer ray."""
        if self.rng.random() < 0.5:
            state = ["--state", self.rng.choice(sorted(NAMED_STATES))]
        else:
            state = ["--ray=" + ",".join(str(e) for e in random_ray(self.rng))]
        return state, pool, self.rng.randrange(1 << 31)

    def round(self, pools: tuple[str, ...] | None = None):
        """One step on each pool, in seeded order, each simulate followed by its analyze.

        A mermin16 step is cheaper than a ks40 one; a round holding one of each
        keeps the per-round mean, and so its median, off the gap between them.
        """
        if pools is None:
            pools = tuple(self.rng.sample(sorted(POOL_SIZES), 2))
        ops = []
        for pool in pools:
            step = self.step(pool)
            ops += [(0, lambda step=step: self.simulate(step)), (1, self.analyze)]
        return ops

    def simulate(self, step) -> float:
        state, pool, seed = step
        self.pool = pool
        self.out.mkdir(parents=True, exist_ok=True)
        for name in ("record.json", "report.json"):
            (self.out / name).unlink(missing_ok=True)
        _, elapsed = run_cli(["--seed", str(seed), "--out", str(self.out), "simulate", *state,
                              "--pool", pool, "--pulses", str(FLOW_PULSES)])
        record = json.loads((self.out / "record.json").read_text())
        counts, pulses = record["counts"], record["pulses_per_projector"]
        gate(len(record["projector_pool"]) == POOL_SIZES[pool], f"record pool is not {pool}")
        gate(sum(pulses.values()) == FLOW_PULSES, "record pulses do not add up")
        gate(all(0 <= counts[i] <= pulses[i] for i in counts), "record counts exceed their pulses")
        return elapsed

    def analyze(self) -> float:
        try:
            _, elapsed = run_cli(["--out", str(self.out), "analyze", str(self.out / "record.json")])
        except GateFailure as e:
            e.known = self.pool == "mermin16" and e.stderr == KNOWN_DEFECT
            raise
        report = json.loads((self.out / "report.json").read_text())
        gate({"estimates", "similarity", "verdict"} <= set(report), "report.json lacks a section")
        return elapsed


WORKLOADS = {w.name: w for w in (Exact, Reproduce, Flow)}
