"""Command-line entry point: verification, exact reports, simulation, and reproduction bundles."""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from . import __version__
from .analysis import (
    EstimationError,
    bhattacharyya,
    estimate_probabilities,
    fig3_rows,
    fig4_rows,
    verdict,
)
from .bounds import (
    corrected_S_bound,
    corrected_sigma_bound,
    extrapolated_quantum_sigma_bound,
    full_report_json,
)
from .ksset import (
    EDGE_COUNT,
    N_OCTADS,
    N_RAYS,
    RAY_DEGREE,
    KSSet,
    OrthoGraph,
    build_graph,
    canonical_set,
    enumerate_octads,
    load_ksset_file,
    mermin_subset,
    pentagram_match_map,
)
from .pentagram import pentagram_unsat
from .simulate import (
    DEFAULT_INITIAL_RAYS,
    DEFAULT_MU,
    KS40_POOL,
    CountRecord,
    NoiseModel,
    PulseRun,
    convergence_trace,
    derive_seed,
    run_exclusivity_campaign,
    run_ks_experiment,
)
from .rays import rational_to_str
from .states import NAMED_STATES, S_of_profile, profile, resolve_state, sigma_of_profile

EPSILON_TARGET = 0.0140
F_TARGETS = {"ghz": 0.93, "w": 0.97, "beta": 0.92, "eta": 0.98, "prod": 0.95}
SIGMA_STATES = ("ghz", "w", "beta", "eta", "prod")
S_STATES = ("ghz", "w")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(args, default: str = "json") -> str:
    return args.format or default


def _write_json(path: Path, obj) -> None:
    path.write_text(_dump_json(obj))


def _write_csv(path: Path, rows: Sequence[dict], fieldnames: Sequence[str]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _write_manifest(out: Path, command: str, arguments: dict, outputs: list[str]) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "arguments": arguments,
            "outputs": sorted(outputs),
            "version": __version__,
        },
    )


def packaged_noise_path() -> Path:
    return Path(importlib.resources.files("kp40") / "data" / "noise_calibrated.json")


def load_noise_config(path: str | Path | None) -> NoiseModel:
    """Read a noise config: either the four bare NoiseModel fields or a calibrate output."""
    if path is None:
        path = packaged_noise_path()
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(
            f"noise config {p} not found; run `kp40 calibrate --config-out {p}` to create one"
        )
    data = json.loads(p.read_text())
    return NoiseModel.from_json(data["noise"] if "noise" in data else data)


def _parse_ray_arg(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        entries = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"ray entries must be integers, got {text!r}") from None
    return resolve_state(entries)


def _resolve_state_arg(args) -> tuple[str, tuple[int, ...]]:
    if getattr(args, "ray", None):
        entries = _parse_ray_arg(args.ray)
        return ",".join(str(e) for e in entries), entries
    name = args.state.lower()
    return name, resolve_state(name)


# ---------------------------------------------------------------- verify

def verification_checks(
    s: KSSet | None = None,
    g: OrthoGraph | None = None,
    octads: Sequence[tuple[int, ...]] | None = None,
) -> list[tuple[str, bool, str]]:
    """All structural checks as (name, ok, detail) rows; injectable for fault testing."""
    checks: list[tuple[str, bool, str]] = []
    try:
        s = s or canonical_set()
        if s is canonical_set():
            pentagram_match_map()    # raises unless the bijection is perfect
        checks.append(("ray regeneration", True, f"{len(s.rays)}/40 rays matched"))
    except (ValueError, IndexError) as e:
        checks.append(("ray regeneration", False, str(e)))
        return checks

    g = g if g is not None else build_graph(s)
    bad_deg = [i for i in range(1, g.n + 1) if g.degree(i) != RAY_DEGREE]
    checks.append(
        ("degree check", not bad_deg,
         f"all degrees {RAY_DEGREE}" if not bad_deg else f"wrong degree at rays {bad_deg[:5]}")
    )
    edges = g.edge_count()
    checks.append(("edge count", edges == EDGE_COUNT, f"{edges} edges"))

    octads = octads if octads is not None else enumerate_octads(g)
    groups_found = set(s.basis_groups) <= set(octads)
    checks.append(
        ("octad enumeration", len(octads) == N_OCTADS and groups_found,
         f"{len(octads)} octads, basis groups {'included' if groups_found else 'MISSING'}")
    )

    sat, max_lines = pentagram_unsat()
    checks.append(
        ("pentagram contradiction", sat == 0 and max_lines == 4,
         f"{sat} satisfying assignments, at most {max_lines} of 5 lines satisfiable")
    )
    return checks


def cmd_verify(args) -> int:
    if args.rays:
        try:
            s = load_ksset_file(args.rays)
        except (ValueError, KeyError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        checks = verification_checks(s)
    else:
        checks = verification_checks()

    passed = all(ok for _, ok, _ in checks)
    if _fmt(args) == "json":
        print(_dump_json({
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "passed": passed,
        }), end="")
    else:
        for name, ok, detail in checks:
            print(f"{'ok' if ok else 'FAIL'}: {name}: {detail}")
    if not passed:
        first = next(name for name, ok, _ in checks if not ok)
        print(f"verification failed at: {first}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- octads

def cmd_octads(args) -> int:
    g = build_graph(canonical_set())
    octads = enumerate_octads(g)
    if _fmt(args) == "csv":
        rows = [
            {"octad": k, **{f"ray{j + 1}": o[j] for j in range(8)}}
            for k, o in enumerate(octads, start=1)
        ]
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    else:
        print(_dump_json({"count": len(octads), "octads": [list(o) for o in octads]}), end="")
    return 0


# ---------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    report = full_report_json(epsilon=args.epsilon)
    if args.extrapolated_quantum:
        report["sigma_quantum_extrapolated"] = extrapolated_quantum_sigma_bound(args.epsilon)
    if _fmt(args) == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["key", "value"])
        for k, v in sorted(report.items()):
            w.writerow([k, v])
    else:
        print(_dump_json(report), end="")
    return 0


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    label, entries = _resolve_state_arg(args)
    prof = profile(entries)
    s = canonical_set()
    rows = [
        {
            "index": i,
            "basis_group": s.basis_of(i),
            "num": prof.probs[i].numerator,
            "den": prof.probs[i].denominator,
            "decimal": float(prof.probs[i]),
        }
        for i in range(1, N_RAYS + 1)
    ]
    if _fmt(args, default="csv") == "json":
        print(_dump_json({
            "state": label,
            "profile": rows,
            "sigma": rational_to_str(sigma_of_profile(prof.probs)),
            "S": rational_to_str(S_of_profile(prof.probs)),
        }), end="")
    else:
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    return 0


# ---------------------------------------------------------------- simulate

def _default_checkpoints(n: int) -> list[int]:
    marks = {max(1, int(n * 10 ** (-2 + 2 * t / 9))) for t in range(10)}
    marks.add(n)
    return sorted(marks)


def cmd_simulate(args) -> int:
    noise = load_noise_config(args.noise)
    pool = mermin_subset() if args.pool == "mermin16" else KS40_POOL
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu, projector_pool=pool)
    label, entries = _resolve_state_arg(args)
    checkpoints = (
        [int(c) for c in args.checkpoints.split(",")] if args.checkpoints
        else _default_checkpoints(args.pulses)
    )
    trace = convergence_trace(entries, noise, run, checkpoints)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "record.json", trace.record.to_json())
    _write_csv(
        out / "trace.csv",
        [
            {
                "pulses": p.pulses,
                "sigma_est": p.sigma_est,
                "sigma_err": p.sigma_err,
                "S_est": p.S_est,
                "S_err": p.S_err,
            }
            for p in trace.points
        ],
        ["pulses", "sigma_est", "sigma_err", "S_est", "S_err"],
    )
    _write_manifest(
        out,
        "simulate",
        {
            "state": label,
            "pool": args.pool,
            "pulses": args.pulses,
            "mu": args.mu,
            "seed": args.seed,
            "noise": noise.to_json(),
            "checkpoints": checkpoints,
        },
        ["record.json", "trace.csv"],
    )
    print(f"wrote {out / 'record.json'} and {out / 'trace.csv'}")
    return 0


# ---------------------------------------------------------------- exclusivity

def cmd_exclusivity(args) -> int:
    noise = load_noise_config(args.noise)
    initial = (
        tuple(int(i) for i in args.initial.split(",")) if args.initial else DEFAULT_INITIAL_RAYS
    )
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu)
    epsilon, pairs = run_exclusivity_campaign(noise=noise, initial_rays=initial, run=run)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eps.json", {
        "epsilon": epsilon,
        "n_pairs": len(pairs),
        "initial_rays": list(initial),
        "pairs": [p.to_json() for p in pairs],
    })
    _write_manifest(
        out,
        "exclusivity",
        {"pulses": args.pulses, "mu": args.mu, "seed": args.seed,
         "noise": noise.to_json(), "initial_rays": list(initial)},
        ["eps.json"],
    )
    print(f"epsilon = {epsilon:.5f} over {len(pairs)} pairs; wrote {out / 'eps.json'}")
    return 0


# ---------------------------------------------------------------- calibrate

CALIBRATION_GRID = {
    "phase_jitter": (0.0, 0.22, 0.25, 0.28),
    "amplitude_jitter": (0.0, 0.06),
    "background": (0.0, 0.001, 0.002),
    "efficiency": (0.5,),
}


def cmd_calibrate(args) -> int:
    target = args.target
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu)
    ghz_run = PulseRun(seed=derive_seed(args.seed, "cal", "ghz"), n_pulses=args.pulses, mu=args.mu)
    trace = []
    for pj in CALIBRATION_GRID["phase_jitter"]:
        for aj in CALIBRATION_GRID["amplitude_jitter"]:
            for bg in CALIBRATION_GRID["background"]:
                for eff in CALIBRATION_GRID["efficiency"]:
                    noise = NoiseModel(
                        amplitude_jitter=aj, phase_jitter=pj, background=bg, efficiency=eff
                    )
                    epsilon, _ = run_exclusivity_campaign(noise=noise, run=run)
                    est = estimate_probabilities(run_ks_experiment("ghz", noise, ghz_run))
                    F = bhattacharyya(est, profile("ghz")).F
                    trace.append({
                        "noise": noise.to_json(),
                        "epsilon": epsilon,
                        "F_GHZ": F,
                        "accepted": 0.010 <= epsilon <= 0.018 and 0.90 <= F <= 0.99,
                    })

    accepted = [p for p in trace if p["accepted"]]
    if not accepted:
        nearest = min(trace, key=lambda p: abs(p["epsilon"] - target))
        print(
            "error: no grid point meets the target window; nearest achieved "
            f"epsilon={nearest['epsilon']:.5f}, F_GHZ={nearest['F_GHZ']:.3f} at {nearest['noise']}",
            file=sys.stderr,
        )
        return 1
    best = min(accepted, key=lambda p: abs(p["epsilon"] - target))

    out_path = Path(args.config_out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out_path, {
        "noise": best["noise"],
        "calibration": {
            "epsilon_simulated": best["epsilon"],
            "epsilon_target": target,
            "F_GHZ_simulated": best["F_GHZ"],
            "pulses": args.pulses,
            "seed": args.seed,
        },
        "search": trace,
    })
    _write_manifest(
        Path(args.out),
        "calibrate",
        {"target": target, "pulses": args.pulses, "mu": args.mu, "seed": args.seed,
         "grid": {k: list(v) for k, v in CALIBRATION_GRID.items()}},
        [str(out_path)],
    )
    print(
        f"calibrated: epsilon={best['epsilon']:.5f} F_GHZ={best['F_GHZ']:.3f} -> {out_path}"
    )
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    record = CountRecord.from_json(json.loads(Path(args.record).read_text()))
    if args.epsilon is not None:
        epsilon = args.epsilon
    elif args.epsilon_file:
        data = json.loads(Path(args.epsilon_file).read_text())
        epsilon = float(data["epsilon"]) if isinstance(data, dict) else float(data)
    else:
        epsilon = 0.0

    est = estimate_probabilities(record)
    ideal = profile(record.state)
    sim = bhattacharyya(est, ideal, per_basis=not args.global_F)
    report = {
        "estimates": est.to_json(),
        "similarity": sim.to_json(),
        "verdict": verdict(est, epsilon),
        "epsilon": epsilon,
    }

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    rows3 = fig3_rows(est, ideal)
    _write_csv(out / "fig3.csv", rows3, list(rows3[0]))
    rows4 = fig4_rows(est, epsilon)
    _write_csv(out / "fig4.csv", rows4, list(rows4[0]))
    _write_manifest(
        out,
        "analyze",
        {"record": str(args.record), "epsilon": epsilon, "global_F": bool(args.global_F)},
        ["report.json", "fig3.csv", "fig4.csv"],
    )
    print(f"wrote {out / 'report.json'}, {out / 'fig3.csv'}, {out / 'fig4.csv'}")
    return 0


# ---------------------------------------------------------------- reproduce

# The legs of a reproduce bundle as (kind, state): the exclusivity campaign,
# the longest, first; then one record per sigma state (all 40 tests) and per
# S state (the 16 Mermin tests).
REPRODUCE_LEGS: tuple[tuple[str, str | None], ...] = (
    ("excl", None),
    *(("sigma", st) for st in SIGMA_STATES),
    *(("s", st) for st in S_STATES),
)


def _leg(task):
    """Run one reproduce leg: the campaign's (epsilon, pairs), or a record's JSON."""
    (kind, state), seed, noise_json, pulses, mu = task
    noise = NoiseModel.from_json(noise_json)
    if state is None:
        run = PulseRun(seed=derive_seed(seed, kind), n_pulses=pulses, mu=mu)
        epsilon, pairs = run_exclusivity_campaign(noise=noise, run=run)
        return epsilon, [p.to_json() for p in pairs]
    pool = mermin_subset() if kind == "s" else KS40_POOL
    run = PulseRun(seed=derive_seed(seed, kind, state), n_pulses=pulses, mu=mu, projector_pool=pool)
    return run_ks_experiment(state, noise, run).to_json()


def _summary_row(kind: str, state: str, est, bound: float) -> dict:
    sigma = kind == "sigma"
    estimate, error = (est.sigma_est, est.sigma_err) if sigma else (est.S_est, est.S_err)
    return {
        "state": state,
        "quantity": "sigma" if sigma else "S",
        "estimate": estimate,
        "error": error,
        "corrected_bound": bound,
        "quantum_value": 5.0 if sigma else 4.0 if state == "ghz" else 3.5,
        "violates": estimate > bound,
        "F": bhattacharyya(est, profile(state)).F if sigma else "",
        "F_target": F_TARGETS[state] if sigma else "",
    }


def cmd_reproduce(args) -> int:
    noise = load_noise_config(args.noise)
    noise_json = noise.to_json()
    seed, pulses, mu = args.seed, args.pulses, args.mu

    tasks = [(leg, seed, noise_json, pulses, mu) for leg in REPRODUCE_LEGS]
    try:
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as ex:
                results = dict(zip(REPRODUCE_LEGS, ex.map(_leg, tasks)))
        else:
            results = dict(zip(REPRODUCE_LEGS, map(_leg, tasks)))
        epsilon, pairs = results.pop(("excl", None))
        estimates = {
            leg: estimate_probabilities(CountRecord.from_json(record_json))
            for leg, record_json in results.items()
        }
    except EstimationError as e:
        raise ValueError(f"--pulses {pulses} is too short for a flux calibration: {e}") from None

    out = Path(args.out)
    (out / "records").mkdir(parents=True, exist_ok=True)
    outputs = ["eps.json", "summary.json", "summary.csv"]
    _write_json(out / "eps.json", {
        "epsilon": epsilon,
        "n_pairs": len(pairs),
        "initial_rays": list(DEFAULT_INITIAL_RAYS),
        "pairs": pairs,
    })

    bounds = {"sigma": corrected_sigma_bound(epsilon), "s": corrected_S_bound(epsilon)}
    summary_rows: list[dict] = []
    for (kind, state), record_json in results.items():
        rel = f"records/{kind}_{state}.json"
        _write_json(out / rel, record_json)
        outputs.append(rel)
        summary_rows.append(_summary_row(kind, state, estimates[kind, state], bounds[kind]))

    _write_json(out / "summary.json", {
        "epsilon": epsilon,
        "sigma_corrected_bound": bounds["sigma"],
        "S_corrected_bound": bounds["s"],
        "rows": summary_rows,
    })
    _write_csv(out / "summary.csv", summary_rows, list(summary_rows[0]))
    _write_manifest(
        out,
        "reproduce",
        {"seed": seed, "pulses": pulses, "mu": mu, "noise": noise_json,
         "workers_invariant": True},
        outputs,
    )
    for row in summary_rows:
        q = row["quantity"]
        print(
            f"{row['state']:>5} {q:>5}: {row['estimate']:.3f} +- {row['error']:.3f} "
            f"(corrected bound {row['corrected_bound']:.3f}, "
            f"{'violates' if row['violates'] else 'no violation'})"
        )
    print(f"epsilon = {epsilon:.5f}; bundle in {out}")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kp40",
        description="40-ray Kochen-Specker toolkit: exact bounds, quantum values, "
        "and a pulse-level photon-counting simulator.",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=".", help="output directory (default current)")
    p.add_argument("--format", choices=("json", "csv"), default=None)

    # same flags accepted after the subcommand; suppressed defaults keep the
    # top-level values unless explicitly overridden
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", parents=[common], help="structural self-checks of the ray set")
    sp.add_argument("--rays", help="optional ksset.json file to check instead of the built-in data")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("octads", parents=[common], help="enumerate all complete orthogonal octads")
    sp.set_defaults(func=cmd_octads)

    sp = sub.add_parser("bounds", parents=[common], help="exact classical bounds and corrected limits")
    sp.add_argument("verb", nargs="?", default="report", choices=("report",))
    sp.add_argument("--epsilon", type=float, default=0.0)
    sp.add_argument("--extrapolated-quantum", action="store_true", dest="extrapolated_quantum",
                    help="also report the affine quantum extrapolation 5(1-eps)+40eps")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("predict", parents=[common],
                        help="exact 40-entry probability profile of a state")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--state", type=str.lower, choices=sorted(NAMED_STATES))
    grp.add_argument("--ray", help="8 comma-separated integer components")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("simulate", parents=[common],
                        help="one pulse-level run with a convergence trace")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--state", type=str.lower, choices=sorted(NAMED_STATES))
    grp.add_argument("--ray")
    sp.add_argument("--pool", choices=("ks40", "mermin16"), default="ks40")
    sp.add_argument("--pulses", type=int, default=2_000_000)
    sp.add_argument("--mu", type=float, default=DEFAULT_MU)
    sp.add_argument("--noise", help="noise config path (default: packaged calibrated config)")
    sp.add_argument("--checkpoints", help="comma-separated pulse counts for the trace")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("exclusivity", parents=[common],
                        help="orthogonal-pair campaign estimating epsilon")
    sp.add_argument("--pulses", type=int, default=2_000_000)
    sp.add_argument("--mu", type=float, default=DEFAULT_MU)
    sp.add_argument("--noise")
    sp.add_argument("--initial", help="comma-separated initial ray indices (default 8 rays)")
    sp.set_defaults(func=cmd_exclusivity)

    sp = sub.add_parser("calibrate", parents=[common],
                        help="grid-search a noise config hitting the epsilon target")
    sp.add_argument("--target", type=float, default=EPSILON_TARGET)
    sp.add_argument("--pulses", type=int, default=400_000)
    sp.add_argument("--mu", type=float, default=DEFAULT_MU)
    sp.add_argument("--config-out", default="noise.json", dest="config_out")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("analyze", parents=[common],
                        help="estimate probabilities, similarity, and verdicts")
    sp.add_argument("record", help="record.json from `simulate`")
    sp.add_argument("--epsilon-file", dest="epsilon_file", help="eps.json from `exclusivity`")
    sp.add_argument("--epsilon", type=float, help="literal epsilon instead of a file")
    sp.add_argument("--global-F", action="store_true", dest="global_F",
                    help="single global similarity coefficient instead of the per-basis mean")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("reproduce", parents=[common],
                        help="full bundle: 5 sigma runs, 2 S runs, exclusivity")
    sp.add_argument("--pulses", type=int, default=2_000_000)
    sp.add_argument("--mu", type=float, default=DEFAULT_MU)
    sp.add_argument("--noise", help="noise config path (default: packaged calibrated config)")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
