"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` wraps kp40's public functions in every ``kp40`` module
namespace that holds them, so calls the package makes internally (for example
``run_exclusivity_campaign`` calling ``run_ks_experiment``) are seen as well as
the benchmark's own calls. Nothing under ``src/`` is changed: the wrappers are
installed for the traced operations only and the originals are put back after.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index of
the enclosing span (-1 at top level), ``op`` the index of the top-level span,
which identifies the benchmark operation every nested span belongs to, and
``info`` holds the work counts taken from the call's arguments or result.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

from kp40 import analysis, bounds, cli, ksset, pentagram, rays, simulate, states

# Captured at import, before any wrapper replaces the module attribute.
_CANONICAL_SET = ksset.canonical_set


def _leg_name(state, noise, run, s=None):
    size = len(run.projector_pool)
    return {40: "simulate.leg", 16: "simulate.leg_m16"}.get(size, "simulate.leg_excl")


def _max_ones_name(g, subset=None):
    return "bounds.max_ones" if subset is None else "bounds.max_ones_mermin"


def _cold_name():
    # only a call that finds the cache empty does the pentagram regeneration
    return "ksset.canonical_set_cold" if _CANONICAL_SET.cache_info().currsize == 0 else None


def _chunk_work(result, state, noise, run, *rest, **kwargs) -> dict:
    chunks = math.ceil(run.n_pulses / simulate.CHUNK)
    pool = len(run.projector_pool)
    return {"pulses": run.n_pulses, "chunks": chunks, "mask_evals": chunks * (1 + pool)}


def _ks_nodes(result, *args, **kwargs) -> dict:
    return {"ks_nodes": result.nodes_explored}


# (function, span name or naming function, info function or None).  A naming
# function returning None lets the call through without a span; an info
# function gets the call's result and arguments and returns its work counts.
SPANNED = (
    (pentagram.pentagram_unsat, "pentagram.unsat", None),
    (ksset.pentagram_match_map, "pentagram.match_map", None),
    (ksset.canonical_set, _cold_name, None),
    (ksset.build_graph, "ksset.build_graph", None),
    (ksset.enumerate_octads, "ksset.enumerate_octads", None),
    (bounds.max_ones, _max_ones_name, None),
    (bounds.ks_colorable, "bounds.ks_colorable", _ks_nodes),
    (states.profile, "states.profile", None),
    (simulate.run_ks_experiment, _leg_name, _chunk_work),
    (simulate.expected_record, "simulate.expected_record", _chunk_work),
    (simulate.convergence_trace, "simulate.trace", _chunk_work),
    (simulate.run_exclusivity_campaign, "simulate.campaign", None),
    (analysis.estimate_probabilities, "analysis.estimate", None),
    (analysis.bhattacharyya, "analysis.bhattacharyya", None),
    (cli.main, "cli.main", None),
)
COUNTED = (
    (rays.dot, "rays.dot"),
    (rays.overlap_prob, "rays.overlap_prob"),
)
_RECORD_LOAD = "simulate.record_load"    # CountRecord.from_json, a classmethod


class Tracer:
    """Spans and call counts, kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        op = self.spans[parent][4] if parent >= 0 else idx
        record = [name, time.perf_counter(), 0.0, parent, op, None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = name(*args, **kwargs) if callable(name) else name
            if n is None:
                return fn(*args, **kwargs)
            with self.span(n) as record:
                result = fn(*args, **kwargs)
            if info is not None:
                record[5] = info(result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kp40" or mod_name.startswith("kp40.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    @contextmanager
    def installed(self):
        """Route kp40's public functions through the recording wrappers."""
        for fn, name, info in SPANNED:
            self._replace(fn, self._spanned(fn, name, info))
        for fn, name in COUNTED:
            self._replace(fn, self._counted(fn, name))
        load = vars(simulate.CountRecord)["from_json"]
        self._saved.append((simulate.CountRecord, "from_json", load))
        simulate.CountRecord.from_json = classmethod(self._spanned(load.__func__, _RECORD_LOAD, None))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_self_ms(spans: list[list]) -> dict[str, float]:
    """Total self time per layer (the span name's module prefix), in ms."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name.split(".")[0]] += 1e3 * own
    return dict(sorted(out.items()))


def layer_metrics(tracer: Tracer, sweep_spans: int, sweep_calls: Counter, extra: dict) -> dict:
    """The per-layer metrics as ``{name: (value, unit)}``.

    Times are medians over every span of that name in the traced run. Counts
    cover only the coverage sweep, the run's first ``sweep_spans`` spans, which
    does the same work on every run of a seed, so they repeat exactly.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, *_ in tracer.spans:
        durations[name].append(end - start)

    def ms(name: str) -> float:
        if not durations[name]:
            raise RuntimeError(f"traced run recorded no {name} span")
        return 1e3 * median(durations[name])

    sweep = tracer.spans[:sweep_spans]

    def count(name: str) -> int:
        return sum(1 for s in sweep if s[0] == name)

    def work(key: str) -> int:
        return sum(s[5][key] for s in sweep if s[5] and key in s[5])

    legs = [s for s in tracer.spans if s[0].startswith("simulate.leg")]
    cli_self = [own for s, own in zip(tracer.spans, self_times(tracer.spans)) if s[0] == "cli.main"]
    return {
        "pentagram.match_map_ms": (ms("pentagram.match_map"), "ms"),
        "pentagram.unsat_ms": (ms("pentagram.unsat"), "ms"),
        "ksset.canonical_set_cold_ms": (ms("ksset.canonical_set_cold"), "ms"),
        "ksset.build_graph_ms": (ms("ksset.build_graph"), "ms"),
        "ksset.build_graph_calls": (count("ksset.build_graph"), "count"),
        "ksset.enumerate_octads_ms": (ms("ksset.enumerate_octads"), "ms"),
        "rays.dot_calls": (sweep_calls["rays.dot"], "count"),
        "rays.overlap_prob_calls": (sweep_calls["rays.overlap_prob"], "count"),
        "bounds.max_ones_ms": (ms("bounds.max_ones"), "ms"),
        "bounds.max_ones_mermin_ms": (ms("bounds.max_ones_mermin"), "ms"),
        "bounds.ks_colorable_ms": (ms("bounds.ks_colorable"), "ms"),
        "bounds.ks_nodes": (work("ks_nodes") // max(1, count("bounds.ks_colorable")), "count"),
        "states.profile_ms": (ms("states.profile"), "ms"),
        "states.profile_calls": (count("states.profile"), "count"),
        "simulate.leg_ms": (ms("simulate.leg"), "ms"),
        "simulate.leg_m16_ms": (ms("simulate.leg_m16"), "ms"),
        "simulate.campaign_ms": (ms("simulate.campaign"), "ms"),
        "simulate.chunk_probs_us": (extra["chunk_probs_us"], "us"),
        "simulate.chunk_draw_us": (extra["chunk_draw_us"], "us"),
        "simulate.ns_per_pulse": (
            1e9 * sum(s[2] - s[1] for s in legs) / sum(s[5]["pulses"] for s in legs), "ns"),
        "simulate.chunks": (work("chunks"), "count"),
        "simulate.mask_evals": (work("mask_evals"), "count"),
        "simulate.trace_ms": (ms("simulate.trace"), "ms"),
        "simulate.record_load_ms": (ms(_RECORD_LOAD), "ms"),
        "analysis.estimate_ms": (ms("analysis.estimate"), "ms"),
        "analysis.estimate_calls": (count("analysis.estimate"), "count"),
        "analysis.bhattacharyya_ms": (ms("analysis.bhattacharyya"), "ms"),
        "analysis.known_defect_hits": (extra["known_defect_hits"], "count"),
        "cli.import_ms": (extra["import_ms"], "ms"),
        "cli.self_ms": (1e3 * median(cli_self), "ms"),
        "cli.bundle_bytes": (extra["bundle_bytes"], "bytes"),
        "cli.scaling_eff": (extra["scaling_eff"], "ratio"),
        "trace.overhead_frac": (extra["overhead_frac"], "ratio"),
    }
