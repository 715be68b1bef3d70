"""The statistical acceptance criteria (AC-7 and AC-8) checked across many seeds, each
against a stated rate.

AC-7 and AC-8 in test_acceptance.py run on 20 fixed seeds each; these tests run the same
clauses on disjoint seed ranges, fixed here once and never re-chosen by outcome, and
report each measured rate on one line.  They take a few seconds each and are marked slow:

    PYTHONPATH=src python -m pytest -m slow tests/test_rates.py -rP
"""

import math

import pytest

from kp40.simulate import DEFAULT_MU, IDEAL_NOISE, PulseRun, convergence_trace, load_noise_config, reproduce

from test_acceptance import report

pytestmark = pytest.mark.slow

AC7_SEEDS = range(21, 221)
AC8_SEEDS = range(20, 1020)
AC8_MARKS = [131072, 262144, 524288, 1048576, 2097152]
STATES = ("ghz", "w", "beta", "eta", "prod")


def _ac7_clauses(summary: dict) -> dict[str, bool]:
    """AC-7's clauses on a reproduce summary, all but its runtime clause."""
    eps = summary["epsilon"]
    rows = {(r["state"], r["quantity"]): r for r in summary["rows"]}
    return {
        "eps": 0.0104 <= eps <= 0.0176,
        "S_ghz": 3.41 <= rows[("ghz", "S")]["estimate"] <= 4.0,
        "S_w": 3.16 <= rows[("w", "S")]["estimate"] <= 3.76,
        "sigma": all(rows[(st, "sigma")]["violates"] for st in STATES),
        "F": all(0.88 <= rows[(st, "sigma")]["F"] <= 0.995 for st in STATES),
    }


def test_ac7_clauses_hold_on_nine_in_ten_seeds():
    # the rate AC-7's own 18 of 20 states, at kp40 reproduce's defaults
    noise = load_noise_config(None)
    failed = {}
    for seed in AC7_SEEDS:
        clauses = _ac7_clauses(reproduce(seed, 2_000_000, DEFAULT_MU, noise)["summary.json"])
        if not all(clauses.values()):
            failed[seed] = [k for k, ok in clauses.items() if not ok]
    passes = len(AC7_SEEDS) - len(failed)
    report("AC-7 rate", passes >= 0.9 * len(AC7_SEEDS),
           f"{passes}/{len(AC7_SEEDS)} seeds {AC7_SEEDS.start}-{AC7_SEEDS.stop - 1} pass every "
           f"clause but runtime (need 0.9)" + (f"; {failed}" if failed else ""))


def test_ac8_clauses_hold_at_their_nominal_rate():
    # A mark beyond 3 SE has a nominal rate of 0.27% per point, so at most 2.7% per seed over
    # its ten points (sigma and S at five marks); allow 3 binomial standard errors above that.
    nominal = 10 * 0.0027
    limit = nominal + 3 * math.sqrt(nominal * (1 - nominal) / len(AC8_SEEDS))
    tripped = []
    ratios: list[float] = []
    for seed in AC8_SEEDS:
        rows, _ = convergence_trace("ghz", IDEAL_NOISE, PulseRun(seed=seed, n_pulses=2_097_152),
                                    AC8_MARKS)
        if any(p["pulses"] > 100_000 and (abs(p["sigma_est"] - 5.0) > 3 * p["sigma_err"]
                                          or abs(p["S_est"] - 4.0) > 3 * p["S_err"])
               for p in rows):
            tripped.append(seed)
        errs = [p["sigma_err"] for p in rows]
        ratios.extend(b / a for a, b in zip(errs, errs[1:]))
    mean_ratio = sum(ratios) / len(ratios)
    rate = len(tripped) / len(AC8_SEEDS)
    report("AC-8 rate", 0.65 <= mean_ratio <= 0.75 and rate <= limit,
           f"error doubling factor {mean_ratio:.3f} (window 0.65-0.75); {len(tripped)}/"
           f"{len(AC8_SEEDS)} seeds {AC8_SEEDS.start}-{AC8_SEEDS.stop - 1} with a mark beyond "
           f"3 SE, {rate:.2%} (limit {limit:.2%}): {tripped}")
