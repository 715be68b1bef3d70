"""Command-line entry point: verification, exact reports, simulation, and reproduction bundles.

The exact commands (verify, octads, bounds, predict) run on integers and
fractions alone.  The simulator, the analysis and the thread pool are
imported inside the commands that use them, looked up at call time.
`reproduce --workers N` runs up to N legs at once on threads of this process;
each leg draws from its own streams, so the bytes do not depend on N.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .bounds import (
    corrected_S_bound,
    corrected_sigma_bound,
    extrapolated_quantum_sigma_bound,
    full_report_json,
)
from .ksset import (
    KS40_POOL,
    N_RAYS,
    basis_of,
    build_graph,
    canonical_set,
    enumerate_octads,
    load_ksset_file,
    mermin_subset,
    read_fields,
    read_json,
    verification_checks,
)
from .rays import number, rational_to_str
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


def _write_bundle(out: Path, command: str, arguments: dict, files: dict) -> None:
    """Write `files` under `out` (an absolute name lands as given), a list of rows as CSV
    and anything else as JSON, then the manifest, which lists them relative to `out`."""
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            if isinstance(content, list):
                _write_rows(f, content)
            else:
                f.write(_dump_json(content))
    (out / "manifest.json").write_text(_dump_json({
        "command": command,
        "arguments": arguments,
        "outputs": sorted(os.path.relpath(out / name, out) for name in files),
        "version": __version__,
    }))


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
    if args.ray is not None:
        values = _int_list("--ray", args.ray)
        try:
            entries = resolve_state(values)
        except ValueError as e:
            raise ValueError(f"--ray {args.ray!r}: {e}") from None
        return ",".join(str(e) for e in entries), entries
    return args.state, resolve_state(args.state)


def _int_list(flag: str, value: str) -> list[int]:
    """Integers split on commas or spaces; a bad entry, or none at all, raises a ValueError
    naming flag and value."""
    try:
        values = [int(p) for p in value.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} takes comma-separated integers, got {value!r}")
    return values


def _run_arguments(args, noise: NoiseModel) -> dict:
    """The manifest arguments of a run: master seed, pulses, mu and the noise used."""
    return {"seed": args.seed, "pulses": args.pulses, "mu": args.mu, "noise": noise.to_json()}


# ---------------------------------------------------------------- verify

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
    rows = [
        {
            "index": i,
            "basis_group": basis_of(i),
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
        _int_list("--checkpoints", args.checkpoints) if args.checkpoints is not None
        else _default_checkpoints(args.pulses)
    )
    if max(checkpoints) > args.pulses:    # a capped mark would name a count the run never reached
        raise ValueError(f"--checkpoints mark {max(checkpoints)} is beyond --pulses {args.pulses}")
    rows, record = convergence_trace(entries, noise, run, checkpoints)

    out = Path(args.out)
    _write_bundle(
        out,
        "simulate",
        {"state": label, "pool": args.pool, "checkpoints": checkpoints,
         **_run_arguments(args, noise)},
        {"record.json": record.to_json(), "trace.csv": rows},
    )
    print(f"wrote {out / 'record.json'} and {out / 'trace.csv'}")
    return 0


# ---------------------------------------------------------------- exclusivity

def cmd_exclusivity(args) -> int:
    from .simulate import DEFAULT_INITIAL_RAYS, PulseRun, run_exclusivity_campaign

    noise = load_noise_config(args.noise)
    initial = (
        _int_list("--initial", args.initial) if args.initial is not None else DEFAULT_INITIAL_RAYS
    )
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu)
    eps = run_exclusivity_campaign(run, noise, initial)

    out = Path(args.out)
    _write_bundle(
        out,
        "exclusivity",
        {**_run_arguments(args, noise), "initial_rays": eps["initial_rays"]},
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
    if not 0.0 <= target <= 1.0:    # also refuses nan
        raise ValueError(f"--target must be a number in [0, 1], got {target}")
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu)
    ghz_run = PulseRun(seed=derive_seed(args.seed, "cal", "ghz"), n_pulses=args.pulses, mu=args.mu)
    trace = []
    # in the grid's key order: phase jitter varies slowest, efficiency fastest
    for values in itertools.product(*CALIBRATION_GRID.values()):
        noise = NoiseModel(**dict(zip(CALIBRATION_GRID, values)))
        epsilon = run_exclusivity_campaign(run, noise)["epsilon"]
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

    _write_bundle(
        Path(args.out),
        "calibrate",
        {"target": target, "pulses": args.pulses, "mu": args.mu, "seed": args.seed,
         "grid": {k: list(v) for k, v in CALIBRATION_GRID.items()}},
        {Path(args.config_out).absolute(): {
            "noise": best["noise"],
            "calibration": {
                "epsilon_simulated": best["epsilon"],
                "epsilon_target": target,
                "F_GHZ_simulated": best["F_GHZ"],
                "pulses": args.pulses,
                "seed": args.seed,
            },
            "search": trace,
        }},
    )
    print(
        f"calibrated: epsilon={best['epsilon']:.5f} F_GHZ={best['F_GHZ']:.3f} "
        f"-> {Path(args.config_out)}"
    )
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    from .analysis import CountRecord, fig3_rows, fig4_rows, judge

    record = CountRecord.from_json(read_json(args.record, "record"))
    if args.epsilon is not None:
        epsilon = args.epsilon
    elif args.epsilon_file:
        eps = read_fields(read_json(args.epsilon_file, "eps file"), "eps file", {"epsilon": number})
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
    from concurrent.futures import ThreadPoolExecutor

    from .analysis import judge
    from .simulate import PulseRun, derive_seed, run_exclusivity_campaign, run_ks_experiment

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    noise = load_noise_config(args.noise)

    def leg(kind: str, state: str | None):
        """Run one leg: the campaign's eps.json document, or a record."""
        if state is None:
            run = PulseRun(seed=derive_seed(args.seed, kind), n_pulses=args.pulses, mu=args.mu)
            return run_exclusivity_campaign(run, noise)
        run = PulseRun(seed=derive_seed(args.seed, kind, state), n_pulses=args.pulses, mu=args.mu,
                       projector_pool=mermin_subset() if kind == "s" else KS40_POOL)
        return run_ks_experiment(state, noise, run)

    if args.workers > 1:
        # NumPy's draws and ufuncs release the GIL, so legs overlap on threads.  One worker
        # stays on this thread: a one-thread pool made a 2M-pulse reproduce 2-4 ms slower.
        with ThreadPoolExecutor(max_workers=min(args.workers, len(REPRODUCE_LEGS))) as ex:
            eps, *records = ex.map(leg, *zip(*REPRODUCE_LEGS))
    else:
        eps, *records = map(leg, *zip(*REPRODUCE_LEGS))
    epsilon = eps["epsilon"]
    legs = REPRODUCE_LEGS[1:]
    summary_rows = [
        _summary_row(kind, state, judge(record, epsilon, per_basis=True))
        for (kind, state), record in zip(legs, records)
    ]
    out = Path(args.out)
    _write_bundle(
        out,
        "reproduce",
        {**_run_arguments(args, noise), "workers_invariant": True},
        {
            "eps.json": eps,
            **{f"records/{kind}_{state}.json": record.to_json()
               for (kind, state), record in zip(legs, records)},
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

def _global_flags(p: argparse.ArgumentParser, after_command: bool) -> None:
    """--seed, --out and --format. After the command they have no defaults, so that one
    given there overrides the same flag given before it and one left out changes nothing."""

    def default(value):
        return argparse.SUPPRESS if after_command else value

    p.add_argument("--seed", type=int, default=default(0), help="master seed (default 0)")
    p.add_argument("--out", default=default("."), help="output directory (default current)")
    p.add_argument("--format", choices=("json", "csv"), default=default(None))


def _run_flags(p: argparse.ArgumentParser) -> None:
    """The run flags of simulate, exclusivity and reproduce."""
    p.add_argument("--pulses", type=int, default=2_000_000)
    p.add_argument("--mu", type=float, default=DEFAULT_MU)
    p.add_argument("--noise", help="noise config (default: the packaged calibrated one)")


def _state_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--state", type=str.lower, choices=sorted(NAMED_STATES))
    grp.add_argument("--ray", help="8 comma-separated integer components")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rays", help="optional ksset.json file to check instead of the built-in data")


def _bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--extrapolated-quantum", action="store_true", dest="extrapolated_quantum",
                   help="also report the affine quantum extrapolation 5(1-eps)+40eps")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _run_flags(p)
    _state_flags(p)
    p.add_argument("--pool", choices=("ks40", "mermin16"), default="ks40")
    p.add_argument("--checkpoints", help="comma-separated pulse counts for the trace")


def _exclusivity_flags(p: argparse.ArgumentParser) -> None:
    _run_flags(p)
    p.add_argument("--initial", help="comma-separated initial ray indices (default 8 rays)")


def _calibrate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", type=float, default=EPSILON_TARGET)
    p.add_argument("--pulses", type=int, default=400_000)
    p.add_argument("--mu", type=float, default=DEFAULT_MU)
    p.add_argument("--config-out", default="noise.json", dest="config_out")


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("record", help="record.json from `simulate`")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--epsilon-file", dest="epsilon_file", help="eps.json from `exclusivity`")
    grp.add_argument("--epsilon", type=float, help="literal epsilon instead of a file")
    p.add_argument("--global-F", action="store_true", dest="global_F",
                   help="single global similarity coefficient instead of the per-basis mean")


def _reproduce_flags(p: argparse.ArgumentParser) -> None:
    _run_flags(p)
    p.add_argument("--workers", type=int, default=1)


# name -> (help line, adds the command's own flags, handler)
COMMANDS: dict[str, tuple[str, Callable | None, Callable]] = {
    "verify": ("structural self-checks of the ray set", _verify_flags, cmd_verify),
    "octads": ("enumerate all complete orthogonal octads", None, cmd_octads),
    "bounds": ("exact classical bounds and corrected limits", _bounds_flags, cmd_bounds),
    "predict": ("exact 40-entry probability profile of a state", _state_flags, cmd_predict),
    "simulate": ("one pulse-level run with a convergence trace", _simulate_flags, cmd_simulate),
    "exclusivity": ("orthogonal-pair campaign estimating epsilon", _exclusivity_flags,
                    cmd_exclusivity),
    "calibrate": ("grid-search a noise config hitting the epsilon target", _calibrate_flags,
                  cmd_calibrate),
    "analyze": ("estimate probabilities, similarity, and verdicts", _analyze_flags, cmd_analyze),
    "reproduce": ("full bundle: 5 sigma runs, 2 S runs, exclusivity", _reproduce_flags,
                  cmd_reproduce),
}


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse a command line in two stages, building only two parsers.

    The first reads the global flags and the command name and keeps the rest;
    the second is the command's own parser, and it parses the rest into the
    same namespace.
    """
    top = argparse.ArgumentParser(
        prog="kp40",
        description="40-ray Kochen-Specker toolkit: exact bounds, quantum values,\n"
        "and a pulse-level photon-counting simulator.",
        epilog="commands:\n"
        + "".join(f"  {name:<22}{line}\n" for name, (line, *_) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _global_flags(top, after_command=False)
    top.add_argument("command", choices=COMMANDS, help="the command to run, from the list below")
    rest = top.add_argument("args", nargs=argparse.REMAINDER,
                            help="its own flags and arguments, listed by `kp40 COMMAND --help`")
    rest.required = False    # a missing command is reported alone
    ns = top.parse_args(argv)

    _, own_flags, handler = COMMANDS[ns.command]
    p = argparse.ArgumentParser(prog=f"kp40 {ns.command}")
    _global_flags(p, after_command=True)
    if own_flags:
        own_flags(p)
    p.set_defaults(func=handler)
    return p.parse_args(ns.args, namespace=ns)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        from .analysis import EstimationError

        if isinstance(e, EstimationError) and "pulses" in args:
            e = f"--pulses {args.pulses} is too short for a flux calibration at --mu {args.mu}: {e}"
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
