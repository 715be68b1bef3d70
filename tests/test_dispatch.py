"""The golden digests under other SIMD and BLAS dispatch settings.

The chunk kernel's bits follow NumPy's SIMD loops and the BLAS kernels it dispatches to at
run time, so each setting below runs tests/test_golden.py in a child process whose
environment alone carries it.  A setting that would disable no SIMD target this machine
dispatches is skipped.  They take a few seconds each and are marked slow:

    PYTHONPATH=src python -m pytest -m slow tests/test_dispatch.py -rP
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import report

pytestmark = pytest.mark.slow

GOLDEN = Path(__file__).with_name("test_golden.py")


def _found_targets() -> list[str]:
    """The SIMD targets NumPy dispatches to on this machine: what numpy.show_runtime()
    reports as `found`, read from the same module attributes."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [t for t in __cpu_dispatch__ if __cpu_features__[t]]


def _avx512(target: str) -> bool:
    return target == "X86_V4" or target.startswith("AVX512")


# setting -> the environment it adds, from the targets found
SETTINGS = {
    "no-avx512": lambda found: {"NPY_DISABLE_CPU_FEATURES": " ".join(filter(_avx512, found))},
    "no-avx512-no-x86-v3": lambda found: {"NPY_DISABLE_CPU_FEATURES": " ".join(
        t for t in found if _avx512(t) or t == "X86_V3")},
    "openblas-prescott": lambda found: {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": lambda found: {"OPENBLAS_CORETYPE": "Haswell"},
}


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_golden_digests_hold_under_another_dispatch(setting):
    added = SETTINGS[setting](_found_targets())
    if not all(added.values()):
        pytest.skip(f"{setting}: none of its SIMD targets is dispatched here")
    # run from the root, so that pyproject.toml's pytest settings, src/ on the path among them, hold
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(GOLDEN)],
                          cwd=GOLDEN.parents[1], env={**os.environ, **added}, capture_output=True,
                          text=True, timeout=600)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr.strip()
    report(f"golden digests under {added}", proc.returncode == 0 and
           re.fullmatch(r"\d+ passed(, \d+ deselected)? in [\d.]+s", summary) is not None, summary)
