"""One test per acceptance criterion, each emitting a single PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -q` to see the lines as they pass.
The statistical criteria (7 and 8) use fixed master seeds, so reruns are stable.
"""

import filecmp
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from kp40 import cli
from kp40.bounds import (
    corrected_S_bound,
    corrected_sigma_bound,
    ks_colorable,
    max_ones,
)
from kp40.ksset import build_graph, canonical_set, enumerate_octads, pentagram_match_map
from kp40.pentagram import pentagram_unsat
from kp40.simulate import IDEAL_NOISE, PulseRun, convergence_trace
from kp40.states import S_of_profile, profile, sigma_of_profile

from oracles import count_independent_subsets


def report(name: str, ok: bool, detail: str = ""):
    line = f"{name} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


def test_ac1_pentagram_regenerates_all_forty_rays():
    canonical_set.cache_clear()
    t0 = time.perf_counter()
    mapping = pentagram_match_map()
    dt = time.perf_counter() - t0
    ok = sorted(mapping.values()) == list(range(1, 41)) and dt < 1.0
    report("AC-1", ok, f"{len(mapping)}/40 rays regenerated in {dt:.2f} s")


def test_ac2_graph_structure():
    t0 = time.perf_counter()
    g = build_graph(canonical_set())
    octads = enumerate_octads(g)
    dt = time.perf_counter() - t0
    degrees_ok = all(g.degree(i) == 23 for i in range(1, 41))
    groups_ok = all(
        frozenset(grp) in {frozenset(o) for o in octads}
        for grp in canonical_set().basis_groups
    )
    ok = degrees_ok and g.edge_count() == 460 and len(octads) == 25 and groups_ok and dt < 10.0
    report(
        "AC-2", ok,
        f"degree 23 everywhere, {g.edge_count()} edges, {len(octads)} octads in {dt:.2f} s",
    )


def test_ac3_nchv_bound_is_four():
    g = build_graph(canonical_set())
    t0 = time.perf_counter()
    best, witness = max_ones(g)
    fives = count_independent_subsets(g, 5)
    dt = time.perf_counter() - t0
    ok = best == 4 and witness.is_admissible(g) and fives == 0 and dt < 60.0
    report("AC-3", ok, f"max = {best}, independent 5-subsets = {fives}, oracle in {dt:.1f} s")


def test_ac4_ks_contradiction():
    g = build_graph(canonical_set())
    octads = enumerate_octads(g)
    t0 = time.perf_counter()
    color = ks_colorable(octads, g)
    sat, best_lines = pentagram_unsat()
    dt = time.perf_counter() - t0
    ok = (not color.colorable) and sat == 0 and best_lines == 4 and dt < 10.0
    report(
        "AC-4", ok,
        f"colorable={color.colorable}, {sat}/1024 assignments, "
        f"max {best_lines}/5 lines, in {dt:.2f} s",
    )


def test_ac5_exact_quantum_values():
    t0 = time.perf_counter()
    sigmas = {n: sigma_of_profile(profile(n).probs) for n in ("ghz", "w", "beta", "eta", "prod")}
    ok = all(v == 5 for v in sigmas.values())
    ok = ok and S_of_profile(profile("ghz").probs) == 4
    ok = ok and S_of_profile(profile("w").probs) == Fraction(7, 2)
    g = build_graph(canonical_set())
    from kp40.ksset import mermin_subset

    ok = ok and max_ones(g, mermin_subset())[0] == 3
    rng = random.Random(12345)
    checked = 0
    for _ in range(1000):
        entries = [rng.randint(-9, 9) for _ in range(8)]
        if not any(entries):
            entries[0] = 1
        if sigma_of_profile(profile(entries).probs) != 5:
            ok = False
            break
        checked += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    report("AC-5", ok, f"five named states and {checked}/1000 random rays, exact, in {dt:.2f} s")


def test_ac6_corrected_bounds():
    s = corrected_sigma_bound(0.0140)
    m = corrected_S_bound(0.0140)
    ok = (
        abs(s - 4.52) < 0.02
        and abs(m - 3.18) < 0.005
        and corrected_sigma_bound(0.0) == 4.0
        and corrected_S_bound(0.0) == 3.0
    )
    report("AC-6", ok, f"sigma bound {s:.4f} (target 4.52), S bound {m:.4f} (target 3.18)")


def test_ac7_experiment_reproduction(tmp_path, capsys):
    seeds = list(range(1, 21))
    passes = 0
    worst: list[str] = []
    for seed in seeds:
        t0 = time.perf_counter()
        out = tmp_path / f"seed{seed}"
        code = cli.main(["--seed", str(seed), "--out", str(out), "reproduce"])
        dt = time.perf_counter() - t0
        summary = json.loads((out / "summary.json").read_text())
        eps = summary["epsilon"]
        rows = {(r["state"], r["quantity"]): r for r in summary["rows"]}

        clauses = {
            "eps": 0.0104 <= eps <= 0.0176,
            "S_ghz": 3.41 <= rows[("ghz", "S")]["estimate"] <= 4.0,
            "S_w": 3.16 <= rows[("w", "S")]["estimate"] <= 3.76,
            "sigma": all(
                rows[(st, "sigma")]["violates"]
                for st in ("ghz", "w", "beta", "eta", "prod")
            ),
            "F": all(
                0.88 <= rows[(st, "sigma")]["F"] <= 0.995
                for st in ("ghz", "w", "beta", "eta", "prod")
            ),
            "runtime": code == 0 and dt < 300.0,
        }
        if all(clauses.values()):
            passes += 1
        else:
            worst.append(f"seed {seed}: {[k for k, v in clauses.items() if not v]}")
    capsys.readouterr()    # drop the per-run console chatter
    ok = passes >= 18
    report("AC-7", ok, f"{passes}/20 seeds pass all clauses" + (f"; {worst}" if worst else ""))


def test_ac8_statistical_soundness():
    marks = [131072, 262144, 524288, 1048576, 2097152]
    converged = True
    ratios: list[float] = []
    for seed in range(20):
        run = PulseRun(seed=seed, n_pulses=2_097_152)
        rows, _ = convergence_trace("ghz", IDEAL_NOISE, run, marks)
        for p in rows:
            if p["pulses"] > 100_000 and (
                abs(p["sigma_est"] - 5.0) > 3 * p["sigma_err"]
                or abs(p["S_est"] - 4.0) > 3 * p["S_err"]
            ):
                converged = False
        errs = [p["sigma_err"] for p in rows]
        ratios.extend(b / a for a, b in zip(errs, errs[1:]))
    mean_ratio = sum(ratios) / len(ratios)
    ok = converged and 0.65 <= mean_ratio <= 0.75
    report(
        "AC-8", ok,
        f"all checkpoints within 3 SE: {converged}; "
        f"error doubling factor {mean_ratio:.3f} over 20 seeds",
    )


def test_ac9_byte_identical_reproduction(tmp_path, capsys):
    dirs = []
    for name, workers in (("r1", 1), ("r2", 1), ("r4", 4)):
        out = tmp_path / name
        code = cli.main(["--seed", "42", "--out", str(out), "reproduce",
                         "--workers", str(workers)])
        assert code == 0
        dirs.append(out)
    capsys.readouterr()

    def tree(d: Path) -> dict[str, bytes]:
        return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    base = tree(dirs[0])
    same = all(tree(d) == base for d in dirs[1:])
    identical_pairs = filecmp.dircmp(dirs[0], dirs[2])
    ok = same and not identical_pairs.diff_files
    report("AC-9", ok, f"{len(base)} files byte-identical across runs and worker counts")
