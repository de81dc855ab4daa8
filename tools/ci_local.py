"""Run the ``tier1`` job of ``.github/workflows/tests.yml`` locally.

Each ``run:`` step runs from the repository root under ``bash -e -o pipefail``,
with its ``env:``, a ``RUNNER_TEMP`` directory, and an ``icotherm`` on PATH
that runs ``python -m icotherm.cli`` from ``src/``.  ``uses:`` and ``pip
install`` steps are skipped and ``if:`` is ignored, so every leg's steps run
on the installed numpy.  One line per step, ``ok`` or ``FAIL``, its
seconds and its name; a failed step's output follows its line.  Exits 1 if
any step failed.

    python tools/ci_local.py
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        shim = Path(tmp, "icotherm")
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m icotherm.cli "$@"\n')
        shim.chmod(0o755)
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "RUNNER_TEMP": tmp,
               "PATH": f"{tmp}{os.pathsep}{os.environ['PATH']}",
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        for step in workflow["jobs"]["tier1"]["steps"]:
            if "run" not in step or step["run"].startswith("pip install"):
                continue
            start = time.perf_counter()
            r = subprocess.run(["bash", "-e", "-o", "pipefail", "-c", step["run"]],
                               cwd=ROOT, capture_output=True, text=True,
                               env={**env, **{k: str(v) for k, v in
                                              step.get("env", {}).items()}})
            ok = r.returncode == 0
            print(f"{'ok' if ok else 'FAIL':4}  {time.perf_counter() - start:5.1f} s  "
                  f"{step['name']}", flush=True)
            if not ok:
                failed = True
                print(r.stdout + r.stderr, end="", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
