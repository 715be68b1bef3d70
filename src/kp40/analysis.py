"""Count records, simulated or measured, and the estimators and figures of merit that judge them."""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .bounds import S_NCHV_BOUND, SIGMA_NCHV_BOUND, corrected_S_bound, corrected_sigma_bound
from .ksset import (KS40_POOL, N_RAYS, basis_of, canonical_graph, mermin_subset, ray_indices,
                    read_fields)
from .rays import Ray, clipped_repr, integer, listed, nonnegative, number, positive
from .states import ProbabilityProfile, S_of_profile, profile, sigma_of_profile


def _add(values) -> float:
    """The sum of `values` added left to right, as sum() added floats before Python 3.12
    compensated it, so that the written numbers do not depend on the Python version."""
    total = 0
    for v in values:
        total += v
    return total


class CountRecord(namedtuple("CountRecord", "state projector_pool counts pulses_per_projector "
                                            "flux_calibration flux_pulses mu seed")):
    """Detected counts per projector plus the independent per-basis flux calibration.

    counts are integers for simulated or measured runs and exact expected values (floats) in
    expected_record's infinite-statistics limit.  Every rule relating the fields is checked here.
    """

    __slots__ = ()

    def __new__(cls, state: tuple[int, ...], projector_pool: tuple[int, ...],
                counts: dict[int, float],
                pulses_per_projector: dict[int, float],    # ints for simulated runs, exact shares in the limit
                flux_calibration: dict[int, float],        # basis group -> calibration count
                flux_pulses: dict[int, int],               # basis group -> pulses in the calibration pass
                mu: float, seed: int) -> CountRecord:
        members = set(projector_pool)
        for key, table in (("counts", counts), ("pulses_per_projector", pulses_per_projector)):
            wild = [i for i in table if not 1 <= i <= N_RAYS]
            if wild or table.keys() != members:
                problem = (f"index {clipped_repr(wild[0])} outside 1..{N_RAYS}" if wild
                           else "keys do not match projector_pool")
                raise ValueError(f"record field {key!r}: {problem}")
        groups = basis_of(N_RAYS)
        wild = [b for b in flux_calibration if not 1 <= b <= groups]
        if wild:
            raise ValueError(f"record field 'flux_calibration': basis group {clipped_repr(wild[0])} "
                             f"outside 1..{groups}")
        missing = sorted({basis_of(i) for i in projector_pool} - flux_calibration.keys())
        if missing:
            raise ValueError(f"record field 'flux_calibration': no entry for basis group {missing[0]}")
        if flux_pulses.keys() != flux_calibration.keys():
            raise ValueError("record field 'flux_pulses': keys do not match flux_calibration")
        for key, unit, table, pulses in (
                ("counts", "projector", counts, pulses_per_projector),
                ("flux_calibration", "basis group", flux_calibration, flux_pulses)):
            for i, c in table.items():
                if c > pulses[i]:
                    raise ValueError(f"record field {key!r}: {unit} {i} has {c} counts but {pulses[i]} pulses")
        return super().__new__(cls, state, projector_pool, counts, pulses_per_projector,
                               flux_calibration, flux_pulses, mu, seed)

    def to_json(self) -> dict:
        return {
            "state": list(self.state),
            "projector_pool": list(self.projector_pool),
            "counts": {str(i): c for i, c in self.counts.items()},
            "pulses_per_projector": {str(i): p for i, p in self.pulses_per_projector.items()},
            "flux_calibration": {str(b): c for b, c in self.flux_calibration.items()},
            "flux_pulses": {str(b): p for b, p in self.flux_pulses.items()},
            "mu": self.mu,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CountRecord":
        """Load a record; malformed input raises a ValueError that names the field."""

        def amount(v):
            if type(v) is int and 0 <= v <= 2**53:    # the common case, checked first
                return v
            f = number(v)
            if not 0 <= v <= 2**53:    # false for NaN too; above 2**53 floats stop counting exactly
                raise ValueError(f"{clipped_repr(v)} is not a finite nonnegative number up to 2**53")
            return integer(v) if f.is_integer() else f

        def per_key(d) -> dict:
            if not isinstance(d, dict):
                raise ValueError("expected a JSON object")
            out = {}
            for k, v in d.items():
                try:
                    i = int(k)
                except ValueError:
                    i = None
                if i is None or str(i) != k:    # to_json writes str(i); "010" could shadow "10"
                    raise ValueError(f"key {clipped_repr(k)} is not an index in decimal form")
                out[i] = amount(v)
            return out

        fields = read_fields(data, "record", {
            "state": lambda v: Ray(v).entries,
            "projector_pool": lambda v: ray_indices(v, "index"),
            "counts": per_key,
            "pulses_per_projector": per_key,
            "flux_calibration": per_key,
            "flux_pulses": lambda d: {b: integer(n) for b, n in per_key(d).items()},
            "mu": positive,
            "seed": integer,
        })
        return cls(**fields)


def exclusivity_document(initial_rays: Sequence[int], pairs: list[dict]) -> dict:
    """The eps.json document of a campaign over `initial_rays` that measured `pairs`, one
    {"initial", "partner", "probability", "error"} row each; epsilon is their mean.  A row whose
    probability or error is negative or not finite raises a ValueError naming the row and field."""
    for k, p in enumerate(pairs, start=1):
        for key in ("probability", "error"):
            if not 0 <= p[key] < math.inf:    # false for NaN too
                raise ValueError(f"row {k} field {key!r}: {clipped_repr(p[key])} is not a finite "
                                 "nonnegative number")
    total = _add(p["probability"] for p in pairs)
    if not pairs or not math.isfinite(total):
        raise ValueError(f"the probabilities of {len(pairs)} pairs have no finite mean")
    return {"epsilon": total / len(pairs), "n_pairs": len(pairs), "initial_rays": list(initial_rays),
            "pairs": pairs}


def _pair(p: tuple[int, int] | str) -> str:
    """An (initial, partner) pair as "(1, 9)", each side quoted by clipped_repr; the "no pair"
    end marker as it is."""
    return p if isinstance(p, str) else "(%s, %s)" % tuple(map(clipped_repr, p))


def exclusivity_epsilon(data) -> float:
    """The epsilon of a loaded eps.json document, which holds `epsilon` alone or is the document
    `exclusivity_document` rebuilds from its `pairs`; a ValueError names the first field that is not."""
    if not (isinstance(data, dict) and "pairs" in data):
        return read_fields(data, "eps file", {"epsilon": number})["epsilon"]
    graph = canonical_graph()
    row_fields = {"initial": integer, "partner": integer, "probability": nonnegative, "error": nonnegative}

    def rebuild(v) -> dict:    # the campaign pairs each initial ray with its partners in order
        initial = ray_indices(data["initial_rays"], "initial ray")    # read already, so it passes
        rows = [read_fields(r, f"row {k}", row_fields) for k, r in enumerate(listed(v), start=1)]
        want = [(i, j) for i in initial for j in graph.neighbors(i)] + ["no pair"]
        for k, (a, b) in enumerate(zip([(r["initial"], r["partner"]) for r in rows] + ["no pair"], want), 1):
            if a != b:    # "no pair" marks the end, so that a missing or an extra row is named too
                raise ValueError(f"row {k} holds {_pair(a)} where initial_rays' partners give {_pair(b)}")
        return exclusivity_document(initial, rows)

    fields = read_fields(data, "eps file", {"epsilon": number, "n_pairs": integer,
                                            "initial_rays": lambda v: ray_indices(v, "initial ray"),
                                            "pairs": rebuild})
    for key, value in fields["pairs"].items():
        if data[key] != value:
            raise ValueError(f"eps file field {key!r} differs from the document its rows rebuild")
    return fields["epsilon"]


class EstimationError(ValueError):
    pass


class EstimateSet(NamedTuple):
    """Flux-normalized probability estimates with standard errors, plus the two sums."""

    probabilities: dict[int, tuple[float, float]]    # index -> (estimate, error)
    sigma_est: float
    sigma_err: float
    S_est: float
    S_err: float

    def to_json(self) -> dict:
        return {
            "probabilities": {
                str(i): {"estimate": p, "error": e}
                for i, (p, e) in sorted(self.probabilities.items())
            },
            "sigma_est": self.sigma_est,
            "sigma_err": self.sigma_err,
            "S_est": self.S_est,
            "S_err": self.S_err,
        }


def estimate_probabilities(r: CountRecord) -> EstimateSet:
    """The estimates of a record's counts, by `estimate_counts`."""
    pool = r.projector_pool
    return estimate_counts(pool, map(r.counts.__getitem__, pool),
                           map(r.pulses_per_projector.__getitem__, pool),
                           r.flux_calibration, r.flux_pulses)


def estimate_counts(pool: Sequence[int], counts, pulses, flux_calibration: Mapping[int, float],
                    flux_pulses: Mapping[int, int]) -> EstimateSet:
    """P_i = (counts_i / pulses_i) * (pulses_cal / flux_basis), errors by Poisson
    propagation (sigma_count = sqrt(count)), sums with errors in quadrature.  counts and pulses
    hold one value per pool ray in pool order, and the flux tables are a CountRecord's."""
    probs: dict[int, tuple[float, float]] = {}
    for i, c, n_i in zip(pool, counts, pulses, strict=True):
        b = basis_of(i)
        flux = flux_calibration[b]
        if flux <= 0:
            raise EstimationError(f"zero calibration flux for basis {b}")
        if n_i <= 0:
            raise EstimationError(f"no pulses allocated to projector {i}")
        n_cal = flux_pulses[b]
        try:
            scale = n_cal / (n_i * flux)
            var = scale * scale * c + (c * n_cal / (n_i * flux * flux)) ** 2 * flux
        except (ZeroDivisionError, OverflowError):    # a term left the float range
            var = math.nan
        if not math.isfinite(var):
            raise EstimationError(f"projector {i}: {n_i} pulses and calibration flux {flux} give no estimate")
        probs[i] = (c * scale, math.sqrt(var))

    sigma_est = _add(map(itemgetter(0), probs.values()))
    sigma_err = math.sqrt(_add(e * e for _, e in probs.values()))
    in_s = [probs[i] for i in mermin_subset() if i in probs]    # in Mermin order
    S_est = _add(map(itemgetter(0), in_s))
    S_err = math.sqrt(_add(e ** 2 for _, e in in_s))
    return EstimateSet(
        probabilities=probs,
        sigma_est=sigma_est,
        sigma_err=sigma_err,
        S_est=S_est,
        S_err=S_err,
    )


class SimilarityReport(NamedTuple):
    F: float
    per_basis: dict[int, float]
    p_norm: dict[int, dict[int, float]]    # group -> index -> p normalized within the group
    q_norm: dict[int, dict[int, float]]
    grouping: str    # "per-basis" or "global"

    # hashed when read, as for report.json: most judgments never write them
    @property
    def p_hash(self) -> str:
        return _dist_hash(self.p_norm)

    @property
    def q_hash(self) -> str:
        return _dist_hash(self.q_norm)

    def to_json(self) -> dict:
        return {
            "F": self.F,
            "per_basis": {str(b): f for b, f in sorted(self.per_basis.items())},
            "p_hash": self.p_hash,
            "q_hash": self.q_hash,
            "grouping": self.grouping,
        }


def _dist_hash(groups: dict[int, dict[int, float]]) -> str:
    payload = json.dumps(
        {str(b): {str(i): round(v, 12) for i, v in sorted(d.items())} for b, d in sorted(groups.items())},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def bhattacharyya(p: Mapping[int, float], q: Mapping[int, float],
                  per_basis: bool = True) -> SimilarityReport:
    """Similarity F between two probability tables over the same ray indices.

    Default grouping: normalize within each basis group, F_b = sum_i sqrt(p_i q_i),
    F = mean of F_b over the groups.  The global variant normalizes over all
    indices at once and reports a single coefficient.
    """
    pd = {int(k): float(v) for k, v in p.items()}
    qd = {int(k): float(v) for k, v in q.items()}
    if set(pd) != set(qd):
        raise ValueError("probability tables cover different ray indices")
    if any(v < 0 for v in pd.values()) or any(v < 0 for v in qd.values()):
        raise ValueError("probabilities must be nonnegative")

    if per_basis:
        groups: dict[int, list[int]] = {}
        for i in pd:
            groups.setdefault(basis_of(i), []).append(i)
        grouping = "per-basis"
    else:
        groups = {0: sorted(pd)}
        grouping = "global"

    def normalize(d: dict[int, float], members: list[int], b: int) -> dict[int, float]:
        total = _add(d[i] for i in members)
        if total <= 0:
            name = f"group {b}" if per_basis else "the pooled table"
            raise ValueError(f"{name} has zero total probability")
        return {i: d[i] / total for i in members}

    per: dict[int, float] = {}
    p_norm: dict[int, dict[int, float]] = {}
    q_norm: dict[int, dict[int, float]] = {}
    for b, members in sorted(groups.items()):
        pn = normalize(pd, members, b)
        qn = normalize(qd, members, b)
        p_norm[b] = pn
        q_norm[b] = qn
        per[b] = min(1.0, _add(math.sqrt(pn[i] * qn[i]) for i in members))
    F = _add(per.values()) / len(per)
    return SimilarityReport(
        F=F,
        per_basis=per,
        p_norm=p_norm,
        q_norm=q_norm,
        grouping=grouping,
    )


def _bound_section(value: float, err: float, ideal: int, corrected: float, quantum: float,
                   name: str) -> dict:
    gap = value - corrected
    margin = math.inf if err == 0 and gap > 0 else (gap / err if err > 0 else 0.0)
    if gap > 0:
        label = f"violates corrected {name} bound {corrected:.4g} by {margin:.1f} sigma"
    else:
        label = "no violation"
    return {
        "value": value,
        "error": err,
        "ideal_bound": ideal,
        "corrected_bound": corrected,
        "quantum_value": quantum,
        "margin_sigma": margin,
        "label": label,
    }


def verdict(e: EstimateSet, epsilon: float, ideal: ProbabilityProfile) -> dict:
    """Classify the estimated sums against the ideal and corrected noncontextual bounds
    and against the quantum values of the exact profile `ideal`.  S is judged when the
    pool holds the 16 Mermin rays, sigma when it holds all 40; a pool without the
    Mermin rays has neither sum and raises a ValueError."""
    pool = set(e.probabilities)
    if not pool >= set(mermin_subset()):
        raise ValueError(f"record field 'projector_pool': {sorted(pool)} holds neither all "
                         f"{len(KS40_POOL)} rays nor the {len(mermin_subset())} Mermin rays")
    out: dict = {"epsilon": float(epsilon), "sigma": None}
    if pool >= set(KS40_POOL):
        out["sigma"] = _bound_section(e.sigma_est, e.sigma_err, SIGMA_NCHV_BOUND,
                                      corrected_sigma_bound(epsilon),
                                      float(sigma_of_profile(ideal.probs)), "NCHV")
    out["S"] = _bound_section(e.S_est, e.S_err, S_NCHV_BOUND, corrected_S_bound(epsilon),
                              float(S_of_profile(ideal.probs)), "Mermin")
    return out


class Judgment(NamedTuple):
    estimates: EstimateSet
    ideal: ProbabilityProfile    # the exact profile of the record's state
    similarity: SimilarityReport
    verdict: dict


def judge(record: CountRecord, epsilon: float, per_basis: bool) -> Judgment:
    """Estimate a record, compare it with the exact profile of its state, and judge its sums.

    F leaves out a pool group the state never reaches, and per basis one with no detections:
    neither has a shape to compare (the global F counts a dark group's zeros against it).
    With no pool group left, F is undefined and a ValueError is raised.
    """
    est = estimate_probabilities(record)
    ideal = profile(record.state)
    v = verdict(est, epsilon, ideal)
    reached = {basis_of(i) for i in record.projector_pool if ideal.probs[i]}
    if not reached:
        raise ValueError(f"record state {list(record.state)} has zero overlap with every pool ray; "
                         "F is undefined")
    if per_basis:
        reached &= {basis_of(i) for i in record.projector_pool if record.counts[i]}
        if not reached:
            raise ValueError("record has no detections in any pool group its state reaches; "
                             "the per-basis F is undefined")
    compared = [i for i in record.projector_pool if basis_of(i) in reached]
    sim = bhattacharyya({i: est.probabilities[i][0] for i in compared},
                        {i: ideal.probs[i] for i in compared}, per_basis=per_basis)
    return Judgment(estimates=est, ideal=ideal, similarity=sim, verdict=v)


def fig3_rows(e: EstimateSet, ideal: ProbabilityProfile) -> list[dict]:
    """Plot-ready per-ray table: estimate, error, and the exact value from the profile `ideal`."""
    rows = []
    for i in sorted(e.probabilities):
        p, err = e.probabilities[i]
        exact: Fraction = ideal.probs[i]
        rows.append({
            "index": i,
            "basis_group": basis_of(i),
            "estimate": p,
            "error": err,
            "ideal_num": exact.numerator,
            "ideal_den": exact.denominator,
        })
    return rows


def fig4_rows(v: dict) -> list[dict]:
    """Plot-ready summary table: one row per inequality sum the verdict `v` judged."""
    keys = ("value", "error", "ideal_bound", "corrected_bound", "quantum_value")
    return [{"quantity": q, **{k: v[q][k] for k in keys}} for q in ("sigma", "S") if v[q] is not None]
