"""Command-line entry point: verification, exact reports, simulation, and reproduction bundles.

Each command imports what only it uses, when it runs: `verify`, `octads` and `bounds` load
no `fractions`, and `csv` only for `--format csv`; only the commands that simulate or judge
load the simulator and the analysis.  `simulate` holds `reproduce`, `calibrate`, which builds
the noise config, and `load_noise_config`; commands check flags and write what they return.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
# canonical_set has no caller here: the benchmark's set-up probe reads it through cli
from .ksset import (KS40_POOL, N_RAYS, basis_of, canonical_octads, canonical_set, load_ksset_file,
                    mermin_subset, read_json, verification_checks)
from .rays import clipped_repr, rational_to_str

if TYPE_CHECKING:
    from .simulate import NoiseModel

DEFAULT_MU = 0.14    # simulate.DEFAULT_MU, restated so that building the parser imports no NumPy
EPSILON_TARGET = 0.0140


def _dump_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\n"`, byte for byte.  Before Python 3.13
    json.dumps indents in pure Python, a token at a time; here each dict or list that holds no
    container is encoded in C in one call, with its indent in the item separator."""
    return _dump(obj, 0) + "\n"


@functools.lru_cache(maxsize=None)
def _encoder(depth: int):
    """The C encoder of a container at `depth` that holds no container, kept for the process:
    built without markers, it keeps no state between calls, so calls and threads share it."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ",
                          ",\n" + "  " * (depth + 1), True, False, True)


def _dump(o, depth: int) -> str:
    inner = "\n" + "  " * (depth + 1)
    values = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
    if not any(map(isinstance, values, repeat((dict, list, tuple)))):
        s = "".join(_encoder(depth)(o, 0))
    elif isinstance(o, dict):    # a key that is not a str takes json's text, or its refusal
        s = "{%s}" % ("," + inner).join(
            f"{encode_basestring_ascii(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]}: "
            f"{_dump(v, depth + 1)}" for k, v in sorted(o.items()))
    else:
        s = "[%s]" % ("," + inner).join(_dump(v, depth + 1) for v in o)
    return f"{s[0]}{inner}{s[1:-1]}{inner[:-2]}{s[-1]}" if values else s


def _write_rows(f, rows: Sequence[dict]) -> None:
    """CSV with a header taken from the first row's keys, then each row's values in that order,
    taken by one C getter per row, where DictWriter would rebuild a list from the dict."""
    import csv

    w = csv.writer(f, lineterminator="\n")
    w.writerow(header := tuple(rows[0]))
    values = map(itemgetter(*header), rows)
    w.writerows(values if len(header) > 1 else zip(values))    # one key gets no tuple from itemgetter


def _print(args, default: str, obj, rows: Sequence[dict]) -> None:
    """Report on stdout: `rows` as CSV, or `obj` as JSON, by --format (else `default`)."""
    if (args.format or default) == "csv":
        _write_rows(sys.stdout, rows)
    else:
        print(_dump_json(obj), end="")


def _write_bundle(args, arguments: dict, files: dict) -> list[str]:
    """Write `files` under `args.out` (an absolute name lands as given), a list of rows as CSV
    and anything else as JSON, then the manifest of `args.command`, which lists them relative
    to `args.out` (a relative name, which holds no "." or "..", as it is given); return their
    paths, spelt as `pathlib` joins them.  Two paths that name one file, by a symlink or a hard
    link, are refused before anything is written.  A directory that cannot be created, or a
    failed write, removes the manifest, which would otherwise describe the previous run.

    A file that exists is written in place and cut at its new end, not truncated to zero
    first: it keeps its inode, so a symlink or a hard link is written through as before,
    and ext4 neither frees its blocks nor forces the new ones out at close."""
    out = os.fspath(Path(args.out))    # one Path, for its spelling of the directory

    def at(name) -> str:    # `Path(out) / name` as a str: pathlib drops a leading "."
        return os.path.join(out, name) if out != "." else os.fspath(name)

    paths = {at(name): content for name, content in files.items()}
    manifest = at("manifest.json")
    seen, missing = {}, []    # file key -> the first path with it; paths with no file yet
    for path in [*paths, manifest]:
        try:
            st = os.stat(path)
            key = st.st_dev, st.st_ino
        except OSError:    # a dangling link is keyed by the name it points to
            key = os.path.realpath(path)
            missing.append(path)
        if key in seen:
            raise ValueError(
                f"output {seen[key]} would be overwritten by the bundle's manifest.json; "
                "name another file" if path is manifest else
                f"outputs {seen[key]} and {path} are one file; name another file")
        seen[key] = path
    listing = {
        "command": args.command,
        "arguments": arguments,
        "outputs": sorted(os.path.relpath(name, out) if os.path.isabs(name) else name
                          for name in files),
        "version": __version__,
    }
    try:
        for directory in dict.fromkeys([out, *(os.path.dirname(path) or "." for path in missing)]):
            if not os.path.isdir(directory):    # out first, and pathlib's messages, as they were
                Path(directory).mkdir(parents=True, exist_ok=True)
        for path, content in [*paths.items(), (manifest, listing)]:
            if isinstance(content, list):
                _write_rows(text := io.StringIO(), content)
                data = text.getvalue().encode()
            else:
                data = _dump_json(content).encode()
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                os.ftruncate(fd, len(data))
            finally:
                os.close(fd)
    except OSError as e:
        try:
            os.unlink(manifest)
        except (FileNotFoundError, NotADirectoryError):    # no manifest there
            pass
        e.filename = e.filename or path    # os.write and ftruncate name no file
        raise
    return list(paths)


def __getattr__(name: str):
    """`simulate.load_noise_config`, which the benchmark reads here until direction 4's change."""
    if name != "load_noise_config":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .simulate import load_noise_config
    return load_noise_config


def _resolve_state_arg(args) -> tuple[str, tuple[int, ...]]:
    from .states import resolve_state

    if args.ray is not None:
        values = _int_list("--ray", args.ray)
        try:
            entries = resolve_state(values)
        except ValueError as e:
            raise ValueError(f"--ray {clipped_repr(args.ray)}: {e}") from None
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
        raise ValueError(f"{flag} takes comma-separated integers, got {clipped_repr(value)}")
    return values


def _run_arguments(args, noise: NoiseModel) -> dict:
    """The manifest arguments of a run: master seed, pulses, mu and the noise used."""
    return {"seed": args.seed, "pulses": args.pulses, "mu": args.mu, "noise": noise.to_json()}


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    checks = verification_checks(load_ksset_file(args.rays)) if args.rays else verification_checks()
    rows = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    failed = [n for n, ok, _ in checks if not ok]
    _print(args, "json", {"checks": rows, "passed": not failed}, rows)
    if failed:
        print(f"verification failed at: {failed[0]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- octads

def cmd_octads(args) -> int:
    octads = canonical_octads()
    rows = [
        {"octad": k, **{f"ray{j + 1}": o[j] for j in range(8)}}
        for k, o in enumerate(octads, start=1)
    ]
    _print(args, "json", {"count": len(octads), "octads": [list(o) for o in octads]}, rows)
    return 0


# ---------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    from .bounds import extrapolated_quantum_sigma_bound, full_report_json

    report = full_report_json(epsilon=args.epsilon)
    if args.extrapolated_quantum:
        report["sigma_quantum_extrapolated"] = extrapolated_quantum_sigma_bound(args.epsilon)
    _print(args, "json", report, [{"key": k, "value": v} for k, v in sorted(report.items())])
    return 0


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    from .states import S_of_profile, profile, sigma_of_profile

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
    from .simulate import PulseRun, convergence_trace, load_noise_config

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

    json_at, csv_at = _write_bundle(args, {"state": label, "pool": args.pool, "checkpoints": checkpoints,
                                           **_run_arguments(args, noise)},
                                    {"record.json": record.to_json(), "trace.csv": rows})
    print(f"wrote {json_at} and {csv_at}")
    return 0


# ---------------------------------------------------------------- exclusivity

def cmd_exclusivity(args) -> int:
    from .simulate import DEFAULT_INITIAL_RAYS, PulseRun, load_noise_config, run_exclusivity_campaign

    noise = load_noise_config(args.noise)
    initial = (
        _int_list("--initial", args.initial) if args.initial is not None else DEFAULT_INITIAL_RAYS
    )
    run = PulseRun(seed=args.seed, n_pulses=args.pulses, mu=args.mu)
    eps = run_exclusivity_campaign(run, noise, initial)

    eps_at, = _write_bundle(args, {**_run_arguments(args, noise), "initial_rays": eps["initial_rays"]},
                            {"eps.json": eps})
    print(f"epsilon = {eps['epsilon']:.5f} over {eps['n_pairs']} pairs; wrote {eps_at}")
    return 0


# ---------------------------------------------------------------- calibrate

def cmd_calibrate(args) -> int:
    from .simulate import CALIBRATION_GRID, calibrate

    target = args.target
    if not 0.0 <= target <= 1.0:    # also refuses nan
        raise ValueError(f"--target must be a number in [0, 1], got {target}")
    config, accepted = calibrate(args.seed, args.pulses, args.mu, target)
    cal = config["calibration"]
    eps, F = f"epsilon={cal['epsilon_simulated']:.5f}", f"F_GHZ={cal['F_GHZ_simulated']:.3f}"
    if not accepted:
        print("error: no grid point meets the target window; nearest achieved "
              f"{eps}, {F} at {config['noise']}", file=sys.stderr)
        return 1

    _write_bundle(args, {"target": target, "pulses": args.pulses, "mu": args.mu, "seed": args.seed,
                         "grid": {k: list(v) for k, v in CALIBRATION_GRID.items()}},
                  {Path(args.config_out).absolute(): config})
    print(f"calibrated: {eps} {F} -> {Path(args.config_out)}")
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    from .analysis import CountRecord, exclusivity_epsilon, fig3_rows, fig4_rows, judge

    record = CountRecord.from_json(read_json(args.record, "record"))
    if args.epsilon is not None:
        epsilon = args.epsilon
    elif args.epsilon_file:
        epsilon = exclusivity_epsilon(read_json(args.epsilon_file, "eps file"))
    else:
        epsilon = 0.0

    j = judge(record, epsilon, per_basis=not args.global_F)
    report = {
        "estimates": j.estimates.to_json(),
        "similarity": j.similarity.to_json(),
        "verdict": j.verdict,
        "epsilon": epsilon,
    }

    written = _write_bundle(args, {"record": str(args.record), "epsilon": epsilon,
                                   "global_F": bool(args.global_F)},
                            {"report.json": report, "fig3.csv": fig3_rows(j.estimates, j.ideal),
                             "fig4.csv": fig4_rows(j.verdict)})
    print("wrote " + ", ".join(written))
    return 0


# ---------------------------------------------------------------- reproduce

def cmd_reproduce(args) -> int:
    from .simulate import load_noise_config, reproduce

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    noise = load_noise_config(args.noise)
    files = reproduce(args.seed, args.pulses, args.mu, noise, args.workers)
    _write_bundle(args, {**_run_arguments(args, noise), "workers_invariant": True}, files)
    for row in files["summary.csv"]:
        print(
            f"{row['state']:>5} {row['quantity']:>5}: {row['estimate']:.3f} +- {row['error']:.3f} "
            f"(corrected bound {row['corrected_bound']:.3f}, "
            f"{'violates' if row['violates'] else 'no violation'})"
        )
    print(f"epsilon = {files['eps.json']['epsilon']:.5f}; bundle in {Path(args.out)}")
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
    from .states import NAMED_STATES

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
    p.add_argument("--checkpoints", help="comma-separated pulse counts for the trace, each "
                   "rounded up to a 32768-pulse chunk and capped at --pulses; manifest.json "
                   "keeps them as given")


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


@functools.lru_cache(maxsize=None)
def _top_parser() -> argparse.ArgumentParser:
    """The first stage: the global flags and the command name, with the rest kept."""
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
    return top


@functools.lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The second stage: the command's own parser, with its handler as `func`."""
    _, own_flags, handler = COMMANDS[command]
    p = argparse.ArgumentParser(prog=f"kp40 {command}")
    _global_flags(p, after_command=True)
    if own_flags:
        own_flags(p)
    p.set_defaults(func=handler)
    return p


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse a command line in two stages.

    The first reads the global flags and the command name and keeps the rest;
    the second is the command's own parser, and it parses the rest into the
    same namespace.  Each parser is built on its first use in a process and
    then reused, since parsing changes no parser: `main` can be called many
    times in one process, and a fresh `kp40` process builds just these two.
    """
    ns = _top_parser().parse_args(argv)
    return _command_parser(ns.command).parse_args(ns.args, namespace=ns)


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
