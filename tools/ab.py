"""In-process A/B comparison of two icotherm source trees on one workload.

    python tools/ab.py --a DIR --b DIR --workload sweep_tables \
        [--seed 1] [--requests 200] [--rounds 4]

Each DIR is a checkout (or an unpacked archive) holding ``src/icotherm``.
Both trees are loaded side by side in this one interpreter, as the packages
``icotherm_a`` and ``icotherm_b``, so they share the process, its numpy and
its host state.  The requests are the first ``--requests`` of the workload's
own stream for ``--seed`` (``perfbench/workloads.py``), after its fixed probe
as a warm-up.  Every request runs on both trees, one after the other, and
the tree that runs first alternates request by request (and from round to
round).  Only the call into icotherm is timed, as ``perfbench/run.py``
times it.

After each request the workload's ``check`` digests each side's output (for
the CLI workloads: exit code, stdout, stderr and the ``--out`` bytes), and
the two digests must be equal.  Per round it prints both sides' summed call
times, their ratio A/B (above 1 means B is faster) and first/second, the
summed time of whichever tree ran first over that of whichever ran second
(above 1 means the tree that runs second is faster).  The last line gives
the medians over the rounds.  Exits 1 if any request's bytes differ or any
check fails, else 0.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Checker  # noqa: E402


def load_tree(tree: Path, name: str) -> dict:
    """Import ``tree/src/icotherm`` as the package ``name``; the modules the
    workloads read, by their icotherm names."""
    pkg = tree.resolve() / "src" / "icotherm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {"cli": importlib.import_module(f"{name}.cli"),
            "fridge": importlib.import_module(f"{name}.fridge")}


def run_one(wl, op, chk: Checker) -> tuple[float, str]:
    """Seconds in the call into icotherm, and the digest ``check`` returns."""
    start = time.perf_counter()
    result = wl.execute(op)
    seconds = time.perf_counter() - start
    return seconds, wl.check(op, result, chk)[2]


def _ratio(x: float, y: float) -> float:
    return x / y if y else math.nan


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--a", required=True, type=Path, help="tree A")
    p.add_argument("--b", required=True, type=Path, help="tree B")
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--rounds", type=int, default=4)
    args = p.parse_args()
    if args.requests < 1 or args.rounds < 1:
        p.error("--requests and --rounds must be at least 1")
    for tree in (args.a, args.b):
        if not (tree / "src" / "icotherm" / "__init__.py").is_file():
            p.error(f"no icotherm sources under {tree}")

    cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as work:
        sides = [cls(load_tree(tree, f"icotherm_{side}"), work)
                 for side, tree in (("a", args.a), ("b", args.b))]
        chks = [Checker(), Checker()]
        ops = list(itertools.islice(sides[0].ops(args.seed), args.requests))
        bad = 0
        ratios, orders = [], []
        for rnd in range(-1, args.rounds):  # round -1: the probe, untimed
            batch = sides[0].probe() if rnd < 0 else ops
            spent = [0.0, 0.0]
            by_order = [0.0, 0.0]
            for i, op in enumerate(batch):
                what = f"{'probe' if rnd < 0 else 'request'} {i}"
                order = (0, 1) if (i + rnd) % 2 == 0 else (1, 0)
                digests = [None, None]
                for pos, s in enumerate(order):
                    try:
                        seconds, digests[s] = run_one(sides[s], op, chks[s])
                    except Exception as e:  # a raising request fails, as in run.py
                        print(f"{what}: tree {'AB'[s]} failed: "
                              f"{type(e).__name__}: {e}")
                        bad += 1
                        continue
                    spent[s] += seconds
                    by_order[pos] += seconds
                if digests[0] != digests[1] and None not in digests:
                    argv = op["argv"] if isinstance(op, dict) else op
                    print(f"{what}: outputs differ: {argv}")
                    bad += 1
            if rnd < 0:
                continue
            ratios.append(_ratio(*spent))
            orders.append(_ratio(*by_order))
            print(f"round {rnd + 1}: A {spent[0]:.4f} s, B {spent[1]:.4f} s, "
                  f"A/B x{ratios[-1]:.4f}, first/second x{orders[-1]:.4f}",
                  flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.requests} requests x "
          f"{args.rounds} rounds: median A/B x{statistics.median(ratios):.4f}, "
          f"first/second x{statistics.median(orders):.4f}; "
          f"{bad} request(s) differ or fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
