"""Show that the benchmark's seed works, for every workload.

    python3 perfbench/check_seeds.py [--seeds 1 2] [--seconds 2]

Runs ``run.py`` three times per workload: seed A twice and seed B once.  It
passes when seed A reproduces identical input and output digests, seed B
gives different inputs and outputs, all three runs pass the correctness gate,
and the seed-independent probe digest is the same in all three.  Exits 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    a, b = args.seeds
    ok = True
    for wl in WORKLOADS:
        (d1, r1), (d2, r2), (d3, r3) = (run(wl, s, args.seconds) for s in (a, a, b))
        checks = {
            "correct": r1["correct"] and r2["correct"] and r3["correct"],
            "same seed, same inputs": d1["inputs_sha256"] == d2["inputs_sha256"],
            "same seed, same outputs": d1["outputs_sha256"] == d2["outputs_sha256"],
            "other seed, other inputs": d1["inputs_sha256"] != d3["inputs_sha256"],
            "other seed, other outputs": d1["outputs_sha256"] != d3["outputs_sha256"],
            "probe digest fixed": d1["probe_sha256"] == d2["probe_sha256"] == d3["probe_sha256"],
        }
        for name, passed in checks.items():
            print(f"{wl:15s} {name:27s} {'ok' if passed else 'FAIL'}")
            ok &= passed
        print(f"{wl:15s} inputs {d1['inputs_sha256'][:16]} (seed {a}) "
              f"{d3['inputs_sha256'][:16]} (seed {b}); worst abs err "
              f"{max(d1['worst_abs_err'], d3['worst_abs_err']):.3g}")
    print("seed check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
