"""Every narrative demo runs to completion against ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def _run(demo):
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env={**os.environ, "PYTHONPATH": pythonpath}, cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert _run(demo).strip()


# Demos 02 and 04 print the states their records return (effective
# temperatures, rho_minus populations); their output was captured before the
# records built those states on read.  Demos 01 and 03 print distances at
# the floating-point noise floor, which may differ between BLAS builds.
@pytest.mark.parametrize("name", ["02_heating_cooling", "04_refrigerator"])
def test_demo_output_matches_golden(name):
    golden = ROOT / "tests" / "golden" / f"{name}.txt"
    assert _run(ROOT / "demos" / f"{name}.py") == golden.read_text()
