"""Count records, simulated or measured, and the estimators and figures of merit that judge them."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .bounds import S_NCHV_BOUND, SIGMA_NCHV_BOUND, corrected_S_bound, corrected_sigma_bound
from .ksset import KS40_POOL, N_RAYS, canonical_set, mermin_subset, read_fields
from .rays import integer
from .states import ProbabilityProfile, S_of_profile, profile, resolve_state, sigma_of_profile


@dataclass(frozen=True)
class CountRecord:
    """Detected counts per projector plus the independent per-basis flux calibration.

    counts are integers for simulated or measured runs; the simulator's
    infinite-statistics limit (expected_record) stores exact expected values as floats.
    """

    state: tuple[int, ...]
    projector_pool: tuple[int, ...]
    counts: dict[int, float]
    pulses_per_projector: dict[int, float]    # ints for simulated runs, exact shares in the limit
    flux_calibration: dict[int, float]        # basis group -> calibration count
    flux_pulses: dict[int, int]               # basis group -> pulses in the calibration pass
    mu: float
    seed: int

    def __post_init__(self):
        for key, unit, counts, pulses in (
                ("counts", "projector", self.counts, self.pulses_per_projector),
                ("flux_calibration", "basis group", self.flux_calibration, self.flux_pulses)):
            for i, c in counts.items():
                if c > pulses[i]:
                    raise ValueError(f"record field {key!r}: {unit} {i} has {c} counts but {pulses[i]} pulses")

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

        def index(i) -> int:
            i = integer(i)
            if not 1 <= i <= N_RAYS:
                raise ValueError(f"index {i} outside 1..{N_RAYS}")
            return i

        def amount(v):
            f = float(v)
            if not f >= 0:
                raise ValueError(f"{v!r} is not a nonnegative number")
            return int(v) if f.is_integer() else f

        def per_key(d) -> dict:
            return {int(k): amount(v) for k, v in d.items()}

        fields = read_fields(data, "record", {
            "state": lambda v: resolve_state(v if isinstance(v, str) else tuple(map(integer, v))),
            "projector_pool": lambda v: tuple(index(i) for i in v),
            "counts": per_key,
            "pulses_per_projector": per_key,
            "flux_calibration": lambda d: {b: float(c) for b, c in per_key(d).items()},
            "flux_pulses": lambda d: {b: integer(n) for b, n in per_key(d).items()},
            "mu": float,
            "seed": integer,
        })
        pool, counts = fields["projector_pool"], fields["counts"]
        pulses, flux = fields["pulses_per_projector"], fields["flux_calibration"]
        flux_pulses = fields["flux_pulses"]
        members = set(pool)
        if len(members) != len(pool):
            raise ValueError("record field 'projector_pool': repeated index")
        for key, table in (("counts", counts), ("pulses_per_projector", pulses)):
            if table.keys() != members:
                wild = [i for i in table if not 1 <= i <= N_RAYS]
                problem = f"index {wild[0]} outside 1..{N_RAYS}" if wild else "keys do not match projector_pool"
                raise ValueError(f"record field {key!r}: {problem}")
        s = canonical_set()
        missing = sorted({s.basis_of(i) for i in pool} - set(flux))
        if missing:
            raise ValueError(f"record field 'flux_calibration': no entry for basis group {missing[0]}")
        if set(flux_pulses) != set(flux):
            raise ValueError("record field 'flux_pulses': keys do not match flux_calibration")
        return cls(**fields)


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class EstimateSet:
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
    """P_i = (counts_i / pulses_i) * (pulses_cal / flux_basis), errors by Poisson
    propagation (sigma_count = sqrt(count)), sums with errors in quadrature."""
    s = canonical_set()
    probs: dict[int, tuple[float, float]] = {}
    for i in r.projector_pool:
        b = s.basis_of(i)
        flux = r.flux_calibration[b]
        if flux <= 0:
            raise EstimationError(f"zero calibration flux for basis {b}")
        n_i = r.pulses_per_projector[i]
        if n_i <= 0:
            raise EstimationError(f"no pulses allocated to projector {i}")
        n_cal = r.flux_pulses[b]
        c = r.counts[i]
        scale = n_cal / (n_i * flux)
        p = c * scale
        var = scale * scale * c + (c * n_cal / (n_i * flux * flux)) ** 2 * flux
        probs[i] = (p, math.sqrt(var))

    sigma_est = sum(p for p, _ in probs.values())
    sigma_err = math.sqrt(sum(e * e for _, e in probs.values()))
    in_s = [i for i in mermin_subset() if i in probs]
    S_est = sum(probs[i][0] for i in in_s)
    S_err = math.sqrt(sum(probs[i][1] ** 2 for i in in_s))
    return EstimateSet(
        probabilities=probs,
        sigma_est=sigma_est,
        sigma_err=sigma_err,
        S_est=S_est,
        S_err=S_err,
    )


@dataclass(frozen=True)
class SimilarityReport:
    F: float
    per_basis: dict[int, float]
    p_hash: str
    q_hash: str
    grouping: str    # "per-basis" or "global"

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

    s = canonical_set()
    if per_basis:
        groups: dict[int, list[int]] = {}
        for i in pd:
            groups.setdefault(s.basis_of(i), []).append(i)
        grouping = "per-basis"
    else:
        groups = {0: sorted(pd)}
        grouping = "global"

    def normalize(d: dict[int, float], members: list[int], b: int) -> dict[int, float]:
        total = sum(d[i] for i in members)
        if total <= 0:
            raise ValueError(f"group {b} has zero total probability")
        return {i: d[i] / total for i in members}

    per: dict[int, float] = {}
    p_norm: dict[int, dict[int, float]] = {}
    q_norm: dict[int, dict[int, float]] = {}
    for b, members in sorted(groups.items()):
        pn = normalize(pd, members, b)
        qn = normalize(qd, members, b)
        p_norm[b] = pn
        q_norm[b] = qn
        per[b] = min(1.0, sum(math.sqrt(pn[i] * qn[i]) for i in members))
    F = sum(per.values()) / len(per)
    return SimilarityReport(
        F=F,
        per_basis=per,
        p_hash=_dist_hash(p_norm),
        q_hash=_dist_hash(q_norm),
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

    F leaves out a pool group the state never reaches: it has no shape to compare.  A state
    that reaches no pool group leaves no F, and raises a ValueError.
    """
    est = estimate_probabilities(record)
    ideal = profile(record.state)
    v = verdict(est, epsilon, ideal)
    s = canonical_set()
    reached = {s.basis_of(i) for i in record.projector_pool if ideal.probs[i]}
    if not reached:
        raise ValueError(f"record state {list(record.state)} has zero overlap with every pool ray; "
                         "F is undefined")
    compared = [i for i in record.projector_pool if s.basis_of(i) in reached]
    sim = bhattacharyya({i: est.probabilities[i][0] for i in compared},
                        {i: ideal.probs[i] for i in compared}, per_basis=per_basis)
    return Judgment(estimates=est, ideal=ideal, similarity=sim, verdict=v)


def fig3_rows(e: EstimateSet, ideal: ProbabilityProfile) -> list[dict]:
    """Plot-ready per-ray table: estimate, error, and the exact value from the profile `ideal`."""
    s = canonical_set()
    rows = []
    for i in sorted(e.probabilities):
        p, err = e.probabilities[i]
        exact: Fraction = ideal.probs[i]
        rows.append({
            "index": i,
            "basis_group": s.basis_of(i),
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
