"""Command-line entry point: verification, exact reports, simulation, and reproduction bundles.

The exact commands (verify, octads, bounds, predict) run on integers and
fractions alone.  The simulator, the analysis and the process pool are
imported inside the commands that use them, looked up at call time.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .bounds import (
    corrected_S_bound,
    corrected_sigma_bound,
    extrapolated_quantum_sigma_bound,
    full_report_json,
)
from .ksset import (
    EDGE_COUNT,
    KS40_POOL,
    N_OCTADS,
    N_RAYS,
    RAY_DEGREE,
    KSSet,
    OrthoGraph,
    _match_pentagram,
    build_graph,
    canonical_set,
    enumerate_octads,
    load_ksset_file,
    mermin_subset,
    pentagram_match_map,
    read_fields,
    read_json,
)
from .pentagram import pentagram_unsat
from .rays import rational_to_str
from .states import NAMED_STATES, S_of_profile, profile, resolve_state, sigma_of_profile

if TYPE_CHECKING:
    from .simulate import NoiseModel, PulseRun

DEFAULT_MU = 0.14    # simulate.DEFAULT_MU, restated so that building the parser imports no NumPy
EPSILON_TARGET = 0.0140
F_TARGETS = {"ghz": 0.93, "w": 0.97, "beta": 0.92, "eta": 0.98, "prod": 0.95}
SIGMA_STATES = ("ghz", "w", "beta", "eta", "prod")
S_STATES = ("ghz", "w")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(_dump_json(obj))


def _write_rows(f, rows: Sequence[dict]) -> None:
    """CSV with a header taken from the first row's keys."""
    w = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)


def _print(args, default: str, obj, rows: Sequence[dict]) -> None:
    """Report on stdout: `rows` as CSV, or `obj` as JSON, by --format (else `default`)."""
    if (args.format or default) == "csv":
        _write_rows(sys.stdout, rows)
    else:
        print(_dump_json(obj), end="")


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


def _write_bundle(out: Path, command: str, arguments: dict, files: dict) -> None:
    """Write `files` under `out`, rows for a .csv name and JSON otherwise, then the manifest."""
    for name, content in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith(".csv"):
            with open(path, "w", newline="") as f:
                _write_rows(f, content)
        else:
            _write_json(path, content)
    _write_manifest(out, command, arguments, list(files))


def load_noise_config(path: str | Path | None) -> NoiseModel:
    """Read a noise config, by default the packaged calibrated one: either the four
    bare NoiseModel fields or a calibrate output."""
    from .simulate import NoiseModel

    p = Path(__file__).parent / "data" / "noise_calibrated.json" if path is None else Path(path)
    if not p.exists():
        raise FileNotFoundError(
            f"noise config {p} not found; run `kp40 calibrate --config-out {p}` to create one"
        )
    data = read_json(p, "noise config")
    if isinstance(data, dict) and "noise" in data:    # a calibrate output
        data = data["noise"]
    return NoiseModel.from_json(data)    # rejects anything that is not a JSON object


def _resolve_state_arg(args) -> tuple[str, tuple[int, ...]]:
    if getattr(args, "ray", None):
        try:
            entries = tuple(int(p) for p in args.ray.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"ray entries must be integers, got {args.ray!r}") from None
        entries = resolve_state(entries)
        return ",".join(str(e) for e in entries), entries
    return args.state, resolve_state(args.state)


def _int_list(flag: str, value: str) -> list[int]:
    """Comma-separated integers; a bad entry raises a ValueError naming the flag and the value."""
    try:
        return [int(p) for p in value.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {value!r}") from None


def _run_arguments(args, noise: NoiseModel) -> dict:
    """The manifest arguments of a run: master seed, pulses, mu and the noise used."""
    return {"seed": args.seed, "pulses": args.pulses, "mu": args.mu, "noise": noise.to_json()}


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
        # canonical_set certified its map when it built the set; any other set is matched here
        mapping = pentagram_match_map() if s._pentagram else _match_pentagram(s.rays, s.basis_groups)
        checks.append(("ray regeneration", True, f"{len(mapping)}/40 rays matched"))
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
    checks = verification_checks(load_ksset_file(args.rays)) if args.rays else verification_checks()

    passed = all(ok for _, ok, _ in checks)
    if (args.format or "json") == "json":
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
    octads = enumerate_octads(build_graph(canonical_set()))
    rows = [
        {"octad": k, **{f"ray{j + 1}": o[j] for j in range(8)}}
        for k, o in enumerate(octads, start=1)
    ]
    _print(args, "json", {"count": len(octads), "octads": [list(o) for o in octads]}, rows)
    return 0


# ---------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    report = full_report_json(epsilon=args.epsilon)
    if args.extrapolated_quantum:
        report["sigma_quantum_extrapolated"] = extrapolated_quantum_sigma_bound(args.epsilon)
    _print(args, "json", report, [{"key": k, "value": v} for k, v in sorted(report.items())])
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
    _print(args, "csv", {
        "state": label,
        "profile": rows,
        "sigma": rational_to_str(sigma_of_profile(prof.probs)),
        "S": rational_to_str(S_of_profile(prof.probs)),
    }, rows)
    return 0


# ---------------------------------------------------------------- simulate

def _default_checkpoints(n: int) -> list[int]:
    marks = {max(1, int(n * 10 ** (-2 + 2 * t / 9))) for t in range(10)}
    marks.add(n)
    return sorted(marks)


def cmd_simulate(args) -> int:
    from .simulate import PulseRun, convergence_trace

    noise = load_noise_config(args.noise)
    pool = mermin_subset() if args.pool == "mermin16" else KS40_POOL
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu, projector_pool=pool)
    label, entries = _resolve_state_arg(args)
    checkpoints = (
        _int_list("--checkpoints", args.checkpoints) if args.checkpoints
        else _default_checkpoints(args.pulses)
    )
    trace = convergence_trace(entries, noise, run, checkpoints)

    out = Path(args.out)
    _write_bundle(
        out,
        "simulate",
        {"state": label, "pool": args.pool, "checkpoints": checkpoints,
         **_run_arguments(args, noise)},
        {
            "record.json": trace.record.to_json(),
            "trace.csv": [dataclasses.asdict(p) for p in trace.points],
        },
    )
    print(f"wrote {out / 'record.json'} and {out / 'trace.csv'}")
    return 0


# ---------------------------------------------------------------- exclusivity

def _eps_json(noise: NoiseModel, initial: tuple[int, ...], run: PulseRun) -> dict:
    """Run the exclusivity campaign and return the content of its eps.json."""
    from .simulate import run_exclusivity_campaign

    epsilon, pairs = run_exclusivity_campaign(noise=noise, initial_rays=initial, run=run)
    return {
        "epsilon": epsilon,
        "n_pairs": len(pairs),
        "initial_rays": list(initial),
        "pairs": [dict(vars(p)) for p in pairs],    # the fields, without asdict's deep copies
    }


def cmd_exclusivity(args) -> int:
    from .simulate import DEFAULT_INITIAL_RAYS, PulseRun

    noise = load_noise_config(args.noise)
    initial = (
        tuple(_int_list("--initial", args.initial)) if args.initial else DEFAULT_INITIAL_RAYS
    )
    eps = _eps_json(noise, initial, PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu))

    out = Path(args.out)
    _write_bundle(
        out,
        "exclusivity",
        {**_run_arguments(args, noise), "initial_rays": list(initial)},
        {"eps.json": eps},
    )
    print(f"epsilon = {eps['epsilon']:.5f} over {eps['n_pairs']} pairs; wrote {out / 'eps.json'}")
    return 0


# ---------------------------------------------------------------- calibrate

CALIBRATION_GRID = {
    "phase_jitter": (0.0, 0.22, 0.25, 0.28),
    "amplitude_jitter": (0.0, 0.06),
    "background": (0.0, 0.001, 0.002),
    "efficiency": (0.5,),
}


def cmd_calibrate(args) -> int:
    from .analysis import judge
    from .simulate import (
        NoiseModel, PulseRun, derive_seed, run_exclusivity_campaign, run_ks_experiment,
    )

    target = args.target
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu)
    ghz_run = PulseRun(seed=derive_seed(args.seed, "cal", "ghz"), n_pulses=args.pulses, mu=args.mu)
    trace = []
    # in the grid's key order: phase jitter varies slowest, efficiency fastest
    for values in itertools.product(*CALIBRATION_GRID.values()):
        noise = NoiseModel(**dict(zip(CALIBRATION_GRID, values)))
        epsilon, _ = run_exclusivity_campaign(noise=noise, run=run)
        F = judge(run_ks_experiment("ghz", noise, ghz_run), epsilon, per_basis=True).similarity.F
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
    from .analysis import CountRecord, fig3_rows, fig4_rows, judge

    record = CountRecord.from_json(read_json(args.record, "record"))
    if args.epsilon is not None:
        epsilon = args.epsilon
    elif args.epsilon_file:
        eps = read_fields(read_json(args.epsilon_file, "eps file"), "eps file", {"epsilon": float})
        epsilon = eps["epsilon"]
    else:
        epsilon = 0.0

    j = judge(record, epsilon, per_basis=not args.global_F)
    report = {
        "estimates": j.estimates.to_json(),
        "similarity": j.similarity.to_json(),
        "verdict": j.verdict,
        "epsilon": epsilon,
    }

    out = Path(args.out)
    _write_bundle(
        out,
        "analyze",
        {"record": str(args.record), "epsilon": epsilon, "global_F": bool(args.global_F)},
        {"report.json": report, "fig3.csv": fig3_rows(j.estimates, j.ideal),
         "fig4.csv": fig4_rows(j.verdict)},
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
    """Run one reproduce leg: the campaign's eps.json content, or a record's JSON."""
    from .simulate import DEFAULT_INITIAL_RAYS, PulseRun, derive_seed, run_ks_experiment

    (kind, state), seed, noise, pulses, mu = task
    if state is None:
        run = PulseRun(seed=derive_seed(seed, kind), n_pulses=pulses, mu=mu)
        return _eps_json(noise, DEFAULT_INITIAL_RAYS, run)
    pool = mermin_subset() if kind == "s" else KS40_POOL
    run = PulseRun(seed=derive_seed(seed, kind, state), n_pulses=pulses, mu=mu, projector_pool=pool)
    return run_ks_experiment(state, noise, run).to_json()


def _summary_row(kind: str, state: str, judged) -> dict:
    """One summary row: a leg's judged sum, with F for the sigma legs only."""
    sigma = kind == "sigma"
    quantity = "sigma" if sigma else "S"
    v = judged.verdict[quantity]
    return {
        "state": state,
        "quantity": quantity,
        "estimate": v["value"],
        "error": v["error"],
        "corrected_bound": v["corrected_bound"],
        "quantum_value": v["quantum_value"],
        "violates": v["value"] > v["corrected_bound"],
        "F": judged.similarity.F if sigma else "",
        "F_target": F_TARGETS[state] if sigma else "",
    }


def cmd_reproduce(args) -> int:
    from concurrent.futures import ProcessPoolExecutor

    from .analysis import CountRecord, EstimationError, judge

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    noise = load_noise_config(args.noise)
    seed, pulses, mu = args.seed, args.pulses, args.mu

    tasks = [(leg, seed, noise, pulses, mu) for leg in REPRODUCE_LEGS]
    try:
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as ex:
                results = dict(zip(REPRODUCE_LEGS, ex.map(_leg, tasks)))
        else:
            results = dict(zip(REPRODUCE_LEGS, map(_leg, tasks)))
        eps = results.pop(("excl", None))
        # judged from the records as written, so the summary is what analyze reads from them
        judged = {
            leg: judge(CountRecord.from_json(record_json), eps["epsilon"], per_basis=True)
            for leg, record_json in results.items()
        }
    except EstimationError as e:
        raise ValueError(f"--pulses {pulses} is too short for a flux calibration: {e}") from None

    epsilon = eps["epsilon"]
    summary_rows = [_summary_row(kind, state, judged[kind, state]) for kind, state in results]
    out = Path(args.out)
    _write_bundle(
        out,
        "reproduce",
        {**_run_arguments(args, noise), "workers_invariant": True},
        {
            "eps.json": eps,
            **{f"records/{kind}_{state}.json": record for (kind, state), record in results.items()},
            "summary.json": {
                "epsilon": epsilon,
                "sigma_corrected_bound": corrected_sigma_bound(epsilon),
                "S_corrected_bound": corrected_S_bound(epsilon),
                "rows": summary_rows,
            },
            "summary.csv": summary_rows,
        },
    )
    for row in summary_rows:
        print(
            f"{row['state']:>5} {row['quantity']:>5}: {row['estimate']:.3f} +- {row['error']:.3f} "
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

    # the run flags of simulate, exclusivity and reproduce
    pulse_run = argparse.ArgumentParser(add_help=False)
    pulse_run.add_argument("--pulses", type=int, default=2_000_000)
    pulse_run.add_argument("--mu", type=float, default=DEFAULT_MU)
    pulse_run.add_argument("--noise", help="noise config (default: the packaged calibrated one)")

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

    sp = sub.add_parser("simulate", parents=[common, pulse_run],
                        help="one pulse-level run with a convergence trace")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--state", type=str.lower, choices=sorted(NAMED_STATES))
    grp.add_argument("--ray")
    sp.add_argument("--pool", choices=("ks40", "mermin16"), default="ks40")
    sp.add_argument("--checkpoints", help="comma-separated pulse counts for the trace")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("exclusivity", parents=[common, pulse_run],
                        help="orthogonal-pair campaign estimating epsilon")
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

    sp = sub.add_parser("reproduce", parents=[common, pulse_run],
                        help="full bundle: 5 sigma runs, 2 S runs, exclusivity")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
