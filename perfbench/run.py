"""kp40 benchmark: run one workload for a fixed time, check its outputs, print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; kp40 is imported from ``src/``. The
load is one closed-loop client in this process: each operation starts when the
previous one has finished. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from a separate traced run.
Human-readable lines come first; the last line of stdout is the JSON result.
Results (with the environment) and traced spans are written under
``.perfbench/``. See README.md next to this file for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
if not (SRC / "kp40" / "__init__.py").is_file():
    sys.exit(f"error: no kp40 sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from kp40 import cli, simulate  # noqa: E402  (needs the path set above)
from tracing import Tracer, layer_metrics, layer_self_ms  # noqa: E402
from workloads import WORKLOADS, Exact, Flow, GateFailure, Reproduce, gate  # noqa: E402

SETUP_PROBES = 11
CHUNK_PAIRS = 40
MAX_ERRORS_KEPT = 20
# Nominal times of the yardsticks, close to their times on a 2-core x86 VM.
KERNEL_S = 0.003
INTERPRETER_S = 0.13

# One fresh interpreter: import the CLI and build the ray set cold.
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import kp40.cli
t1 = time.perf_counter()
kp40.cli.canonical_set()
print(json.dumps({"import_ms": 1e3 * (t1 - t0)}))
"""


def compute_seconds(clock=time.perf_counter) -> float:
    """Time of a fixed compute kernel: Python arithmetic and small NumPy calls."""
    v = np.arange(8.0)
    t0 = clock()
    acc = 0.0
    for i in range(18000):
        acc += i * i % 7
    for _ in range(900):
        acc += float(np.vdot(v, v))
    return clock() - t0


def files_seconds(scratch: Path) -> float:
    """Time of a fixed kernel that also formats, writes and reads back small JSON files."""
    table = {str(i): i / 7 for i in range(40)}
    v = np.arange(8.0)
    path = scratch / "reference.json"
    t0 = time.perf_counter()
    for _ in range(15):
        text = json.dumps(table, indent=2, sort_keys=True)
        json.loads(text)
    for _ in range(2):
        path.write_text(text)
        path.read_text()
    path.unlink()
    acc = 0.0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(300):
        acc += float(np.vdot(v, v))
    np.sort(np.random.default_rng(0).random(4096))
    return time.perf_counter() - t0


def interpreter(code: str) -> tuple[float, str]:
    """Run ``python -c code`` with kp40 importable; (wall seconds, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    gate(proc.returncode == 0, f"interpreter exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout


class Yardstick:
    """Fixed work timed after every operation, to express operations in units of it.

    When other work shares the machine, its speed drifts by tens of percent
    within seconds. An operation's time divided by the mean time of the
    yardstick just before and after it, times the yardstick's nominal time,
    is what the operation would take on a machine where the yardstick takes
    its nominal time; that cancels most of the drift.
    """

    def __init__(self, work, nominal_s: float):
        self.work = work
        self.nominal_s = nominal_s
        self.last = work()

    def normalize(self, seconds: float, before: float) -> float:
        return seconds * self.nominal_s / ((before + self.last) / 2)

    def step(self) -> float:
        """Time the work again; returns the previous time."""
        before, self.last = self.last, self.work()
        return before


class Tally:
    """Attempts, failures and per-label timing samples of the run's operations.

    A sample is an operation's time normalized by a yardstick that does the
    same kind of work: the workload's kernel, or for set-up probes a fresh
    interpreter that imports NumPy, which drifts with process start-up and
    library loading as set-up does. Raw times are kept too.
    """

    def __init__(self, kernel: Yardstick):
        self.kernel = kernel
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        # The known defect, by message. An operation that hits it is attempted
        # but not failed: it did what the program does today.
        self.known_failures: Counter = Counter()
        self.errors: list[str] = []                 # wrong outputs and crashes

    def attempt(self, label: str, op, yardstick: Yardstick | None = None):
        """Run one operation; (raw, normalized) seconds, or None if it failed."""
        yardstick = yardstick or self.kernel
        self.attempted += 1
        try:
            seconds = op()
        except GateFailure as e:
            if e.known:    # the expected outcome of today's program, counted apart
                self.known_failures[e.stderr] += 1
            else:
                self.failed += 1
                self._error(f"{label}: {e}")
            return None
        except Exception:    # a crash in the program must not stop the run; it is reported
            self.failed += 1
            self._error(f"{label}: {traceback.format_exc(limit=-3).strip()}")
            return None
        finally:
            before = yardstick.step()
        return seconds, yardstick.normalize(seconds, before)

    def add(self, label: str, attempts: list[tuple[float, float] | None]) -> None:
        """One sample: the mean of the given attempts that succeeded, if any did."""
        ok = [t for t in attempts if t is not None]
        if ok:
            self.raw[label].append(sum(raw for raw, _ in ok) / len(ok))
            self.samples[label].append(sum(norm for _, norm in ok) / len(ok))

    def _error(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def median(self, label: str) -> float:
        if not self.samples[label]:
            first = self.errors[0] if self.errors else "none recorded"
            raise RuntimeError(f"no successful {label} operation to time; first error: {first}")
        return median(self.samples[label])


def setup_probe(import_ms: list[float]) -> float:
    wall, out = interpreter(SETUP_CODE)
    import_ms.append(json.loads(out)["import_ms"])
    return wall


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """The checked-out commit; None outside a git checkout or without git."""
    # the ceiling keeps git from answering for a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def chunk_probe(rng: random.Random, chunk_us: dict[str, float]):
    """Per-chunk cost of a 40-ray leg's probabilities and of its draws.

    One 8-chunk leg is computed as its expected record and simulated, back to
    back in alternating order, ``CHUNK_PAIRS`` times. Each pair is timed in
    CPU time of this process, so time spent descheduled does not count, and
    normalized by the compute yardstick timed around it. The draws are the
    median over pairs of simulated minus expected; the probabilities the
    median of expected. Fills ``chunk_us`` with both, in microseconds.
    """
    noise = cli.load_noise_config(None)
    chunks = 8
    run = simulate.PulseRun(seed=rng.randrange(1 << 31), n_pulses=chunks * simulate.CHUNK)
    clock = time.process_time

    def timed(fn):
        t0 = clock()
        record = fn("ghz", noise, run)
        return fn, (clock() - t0, record)

    def probe() -> float:
        t0 = time.perf_counter()
        yardstick = Yardstick(lambda: compute_seconds(clock), KERNEL_S)
        fns = (simulate.expected_record, simulate.run_ks_experiment)
        probs, draws = [], []
        for i in range(CHUNK_PAIRS):
            pair = dict(timed(fn) for fn in (fns if i % 2 == 0 else fns[::-1]))
            (e_s, expected), (r_s, simulated) = (pair[fn] for fn in fns)
            e, c = sum(expected.counts.values()), sum(simulated.counts.values())
            gate(abs(c - e) <= 6 * math.sqrt(e) + 1, f"simulated {c} counts against {e:.0f} expected")
            before = yardstick.step()
            probs.append(yardstick.normalize(e_s, before))
            draws.append(yardstick.normalize(r_s - e_s, before))
        chunk_us["probs"] = 1e6 * median(probs) / chunks
        chunk_us["draw"] = 1e6 * median(draws) / chunks
        return time.perf_counter() - t0

    return probe


def coverage_sweep(tracer, tally: Tally, rng: random.Random, tmp: Path):
    """Fixed work that reaches every layer, so each per-layer metric exists on every workload.

    An untraced reproduce at workers 1 and 2 gives the scaling efficiency;
    the traced part then repeats workers 1 on the same seed (whose bundle must
    not change under tracing), a proof pass, the exact-side commands and one
    flow step on each pool. The chunk probe runs last, untraced.
    """
    repro = Reproduce(rng, tmp)
    master = rng.randrange(1 << 31)
    for workers in (1, 2):
        label = f"reproduce_w{workers}_s"
        tally.add(label, [tally.attempt(label, lambda: repro.reproduce(master, workers))])

    exact, flow = Exact(rng, tmp), Flow(rng, tmp)
    traced = [("sweep.reproduce_w1", lambda: repro.reproduce(master, 1)),
              ("sweep.proof", exact.proof_pass), ("sweep.exact_cli", exact.cli_pass)]
    traced += [(f"sweep.flow.{kind}", op) for kind, op in flow.round(("ks40", "mermin16"))]
    with tracer.installed():
        for label, op in traced:
            with tracer.span(label):
                tally.attempt(label, op)
    # untraced: the wrappers' own cost would land in the small difference it takes
    chunk_us: dict[str, float] = {}
    tally.attempt("sweep.chunk_probe", chunk_probe(rng, chunk_us))
    return repro, master, chunk_us


def measure(workload_name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    rng = random.Random(seed)
    workload = WORKLOADS[workload_name](rng, tmp)
    kernel = (lambda: files_seconds(tmp)) if workload.writes_files else compute_seconds
    tally = Tally(Yardstick(kernel, KERNEL_S))
    # set-up probes run back to back after one untimed probe that warms the file cache
    spawn = Yardstick(lambda: interpreter("import numpy")[0], INTERPRETER_S)
    tally.attempt("setup warm-up", lambda: setup_probe([]), spawn)
    import_ms: list[float] = []
    for _ in range(SETUP_PROBES):
        tally.add("setup_s", [tally.attempt("setup_s", lambda: setup_probe(import_ms), spawn)])

    labels = [label for label, _ in workload.kinds]
    tracer = Tracer()
    if trace:
        sweep_repro, sweep_master, chunk_us = coverage_sweep(tracer, tally, rng, tmp)
        sweep_spans, sweep_calls = len(tracer.spans), Counter(tracer.calls)
        sweep_known = sum(tally.known_failures.values())
    else:
        for _, op in workload.round():    # warm-up: first-call imports and lazy set-up
            tally.attempt("warmup", op)

    overhead: list[float] = []    # traced over untraced time of one op_a, per pair
    pairs = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        times = defaultdict(list)
        for idx, op in workload.round():
            label = labels[idx]
            if not (trace and idx in workload.traced):
                times[label].append(tally.attempt(label, op))
                continue
            # the same operation untraced and traced, back to back in alternating order
            pair = {}
            pairs += 1
            for traced in ((False, True) if pairs % 2 else (True, False)):
                if traced:
                    with tracer.installed(), tracer.span("bench." + label):
                        pair[traced] = tally.attempt(label + "@traced", op)
                else:
                    pair[traced] = tally.attempt(label, op)
            times[label].append(pair[False])
            if idx == 0 and None not in pair.values():
                overhead.append(pair[True][1] / pair[False][1])
        for label, ts in times.items():
            tally.add(label, ts)

    units = dict(workload.kinds, setup_s="s")
    named = {label: dict(summarize(tally.samples[label], unit),
                         raw=summarize(tally.raw[label], unit))
             for label, unit in units.items()}
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "named": named,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "known_defect_frac": sum(tally.known_failures.values()) / tally.attempted,
        "known_failures": dict(tally.known_failures),
        "errors": tally.errors,
    }
    repros = [workload] if isinstance(workload, Reproduce) else []
    if trace:
        repros.append(sweep_repro)
        extra = {
            "import_ms": median(import_ms),
            "bundle_bytes": sweep_repro.bundle_bytes[sweep_master],
            "scaling_eff": tally.median("reproduce_w1_s") / (2 * tally.median("reproduce_w2_s")),
            "overhead_frac": median(overhead) - 1,
            "chunk_probs_us": chunk_us["probs"],
            "chunk_draw_us": chunk_us["draw"],
            "known_defect_hits": sweep_known,
        }
        result["metrics"] = layer_metrics(tracer, sweep_spans, sweep_calls, extra)
        result["layer_self_ms"] = layer_self_ms(tracer.spans)
        result["spans_file"] = write_spans(tracer.spans, workload_name, seed)
    else:
        result["metrics"] = {
            "setup_s": (tally.median("setup_s"), "s"),
            "op_a_ms": (1e3 * tally.median(labels[0]), "ms"),
            "op_b_ms": (1e3 * tally.median(labels[1]), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    if repros:
        result["reproduce"] = {
            "bundle_sha256": {str(k): v for r in repros for k, v in r.digests.items()},
            "ac7_clauses_passed_of_6": {str(k): v for r in repros for k, v in r.ac7.items()},
        }
    return result


def summarize(samples: list[float], unit: str) -> dict:
    """Median, and p90 when at least ten samples lie beyond it, in the given unit."""
    scale = 1e3 if unit == "ms" else 1.0
    out = {"unit": unit, "n": len(samples)}
    if samples:
        ordered = sorted(samples)
        out["median"] = scale * median(ordered)
        if len(ordered) >= 100:
            out["p90"] = scale * ordered[int(0.9 * len(ordered))]
    return out


def write_spans(spans: list[list], workload: str, seed: int) -> str:
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, start - t0, end - t0, parent, op, info]
            for name, start, end, parent, op, info in spans]
    path = OUT / "spans" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op", "info"],
                                "spans": rows}))
    return str(path.relative_to(ROOT))


def report(result: dict) -> None:
    print(f"kp40 benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"{result['seconds']} s, trace {result['trace']}")
    for label, s in result["named"].items():
        if "median" in s:
            p90 = f", p90 {s['p90']:.4g}" if "p90" in s else ""
            print(f"  {label:<28} {s['median']:.4g} {s['unit']} (median of {s['n']}{p90}; "
                  f"raw {s['raw']['median']:.4g})")
        else:
            print(f"  {label:<28} no successful operation")
    print(f"  {'failed_frac':<28} {result['failed_frac']:.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  {'known_defect_frac':<28} {result['known_defect_frac']:.4f}")
    for message, n in result["known_failures"].items():
        print(f"    {n} x known defect: {message}")
    for message in result["errors"]:
        print(f"    ERROR {message}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<28} {value:.6g} {unit}")
    for layer, ms in result.get("layer_self_ms", {}).items():
        print(f"  self time {layer:<18} {ms:.1f} ms")


def run(args) -> int:
    tmp = OUT / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke() -> int:
    """Short runs of every workload in both modes, checking the result's shape.

    Every metric BENCHMARK.json declares must be printed with a valid name, its
    declared unit and a finite value; every named operation timing must appear
    in the human-readable report; and every gate must pass.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{w['name']} trace {trace}"
            before = len(problems)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(last)}")
            if last.get("correct") is not True or last.get("attempted", 0) < 1:
                problems.append(f"{where}: correct={last.get('correct')}, "
                                f"attempted={last.get('attempted')}")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = last.get("metrics", {})
            if set(got) != set(declared):
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(declared))}")
            for name, m in got.items():
                if not NAME.fullmatch(name) or not UNIT.fullmatch(m["unit"]):
                    problems.append(f"{where}: invalid name or unit {name!r} {m['unit']!r}")
                if m["unit"] != declared.get(name):
                    problems.append(f"{where}: {name} unit {m['unit']}, declared {declared.get(name)}")
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} value {m['value']!r}")
            for label, _ in WORKLOADS[w["name"]].kinds + (("setup_s", "s"), ("failed_frac", "")):
                if not any(line.split()[:1] == [label] for line in lines[:-1]):
                    problems.append(f"{where}: report lacks {label}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="short self-check of every workload")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
