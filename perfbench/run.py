"""icotherm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_tables --seed 1 --seconds 60 --trace 0

Run from a source checkout; the package is imported from ``src/``.  One
process and one thread form a closed loop with one client: each request is
sent when the previous one has returned and been checked.  Every result is
checked against ``reference`` (which imports nothing from icotherm).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a JSON
object with provenance, digests and details, which is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from typing import NoReturn

from spans import Tracer
from workloads import WORKLOADS, Checker, DemonMc, Failure, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"

# Percentiles a tail latency may be reported at.  Each workload fixes the
# level it reports (``tail_pct``) as the highest one leaving at least ten
# samples beyond it at this benchmark's run length, but no higher than p99:
# above it, a few host interruptions decide the value (p99.9 of point_queries
# varied by 29 % between seeds).  A run with fewer samples falls back down
# this ladder.  The level is fixed so that a faster program, which completes
# more requests, is still compared at the same percentile.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SETUP_RUNS = 7
INPUT_DIGEST_OPS = 64

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit; counts marked "computed" come from the fixed probes and are
# exact.  ``.calls`` are calls per unit of work of the workload.
PER_LAYER = {
    "cli.run.self_ms": "ms",
    "cli.rows_written": "count",
    "cli.reject_ms": "ms",
    "fridge.sweep.self_ms": "ms",
    "fridge.ico_sweep.self_ms": "ms",
    "fridge.run_cycle.calls": "calls/unit",
    "fridge.run_cycle.self_us": "us",
    "fridge.ico_point.calls": "calls/unit",
    "fridge.ico_point.self_us": "us",
    "fridge.monte_carlo.self_ms": "ms",
    "fridge.mc_bytes_per_trial": "B",
    "fridge.degenerate_rejections": "count",
    "thermo.thermal_state.calls": "calls/unit",
    "thermo.thermal_state.self_us": "us",
    "thermo.post_select.calls": "calls/unit",
    "thermo.post_select.self_us": "us",
    "thermo.internal_energy.calls": "calls/unit",
    "thermo.effective_temperature.calls": "calls/unit",
    "thermo.shannon_entropy.calls": "calls/unit",
    "channels.switch_closed_form.calls": "calls/unit",
    "channels.switch_closed_form.self_us": "us",
    "circuit.verify_against_kraus.self_us": "us",
    "circuit.build_switch_circuit.self_us": "us",
    "circuit.apply_gate.calls": "calls/unit",
    "circuit.apply_gate.self_us": "us",
    "circuit.embed_unitary.self_us": "us",
    "circuit.gates_per_point": "count",
    "circuit.matmul_flops_per_point": "flop",
    "linalg.DensityMatrix.dim2.calls": "calls/unit",
    "linalg.DensityMatrix.dim4.calls": "calls/unit",
    "linalg.DensityMatrix.dim16.calls": "calls/unit",
    "linalg.DensityMatrix.self_us": "us",
    "linalg.dm_per_row": "count",
    "linalg.partial_trace.calls": "calls/unit",
    "linalg.partial_trace.self_us": "us",
    "trace.overhead_pct": "%",
}
COMPUTED = ("fridge.mc_bytes_per_trial", "circuit.gates_per_point",
            "circuit.matmul_flops_per_point", "linalg.DensityMatrix.dim2.calls",
            "linalg.DensityMatrix.dim4.calls", "linalg.DensityMatrix.dim16.calls",
            "linalg.dm_per_row")


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import icotherm from this checkout's src/, and only from there."""
    if not (SRC / "icotherm" / "__init__.py").is_file():
        fail(f"no icotherm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import icotherm
    import icotherm.cli
    import icotherm.fridge
    if Path(icotherm.__file__).resolve().parent != SRC / "icotherm":
        fail(f"imported icotherm from {icotherm.__file__}, not {SRC}")
    return {"icotherm": icotherm, "cli": icotherm.cli, "fridge": icotherm.fridge}


class Stats:
    """What one pass over a request list did."""

    def __init__(self):
        self.lat = array("d")
        self.units = 0
        self.rows = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.busy = 0.0
        self.untraced: Stats | None = None

    @property
    def n(self) -> int:
        return len(self.lat)

    def fail(self, i: int, e: Exception) -> None:
        self.failed += 1
        self.errors.append(f"request {i}: {type(e).__name__}: {e}")


def _send(wl, i, op, chk, st: Stats) -> None:
    """Send one request, time the call into icotherm, then check the result."""
    start = time.perf_counter()
    try:
        result = wl.execute(op)
    except Exception as e:  # a request that raises is a failed request
        st.lat.append(time.perf_counter() - start)
        st.fail(i, e)
        return
    st.lat.append(time.perf_counter() - start)
    try:
        units, rows, out_sha = wl.check(op, result, chk)
    except (Failure, ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as e:
        st.fail(i, e)
        return
    st.units += units
    st.rows += rows
    if wl.record_outputs or i < wl.digest_ops:
        st.digests.append(out_sha)


def run_pass(wl, ops, chk, seconds=math.inf, min_ops=0, tracer=None,
             keep=None) -> Stats:
    """Send requests one at a time until ``seconds`` have passed.

    At least ``min_ops`` requests are sent.  Only the call into icotherm is
    timed; checking happens between calls.  With a tracer, every request is
    sent twice in a row, traced and untraced, in alternating order, so both
    call times see the same state of the host; the untraced twin's figures go
    to ``untraced`` of the returned record.
    """
    st = Stats()
    twin = Stats()
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        if i >= min_ops and time.perf_counter() >= deadline:
            break
        if keep is not None:
            keep.append(op)
        if tracer is None:
            _send(wl, i, op, chk, st)
            continue
        tracer.op = i
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                with tracer.installed():
                    _send(wl, i, op, chk, st)
            else:
                _send(wl, i, op, chk, twin)
    st.busy = math.fsum(st.lat)
    twin.busy = math.fsum(twin.lat)
    if tracer is not None:
        st.untraced = twin
    return st


def percentile(sorted_vals, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    k = (len(sorted_vals) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def tail(sorted_vals, level: float) -> tuple[float, float, int]:
    """(percentile level, value, samples beyond it) at the workload's level."""
    for q in sorted((q for q in LADDER if q <= level), reverse=True):
        value = percentile(sorted_vals, q)
        beyond = sum(1 for v in sorted_vals if v > value)
        if beyond >= 10 or q == LADDER[0]:
            return q, value, beyond
    raise AssertionError("unreachable")


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing icotherm.cli and building the parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import icotherm.cli as c; c.build_parser(); print(c.__file__)"
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if r.returncode != 0 or Path(r.stdout.strip()).resolve().parent != SRC / "icotherm":
            fail(f"set-up subprocess failed: {r.stderr.strip() or r.stdout.strip()}")
        if i:  # the first run only warms the file cache and bytecode
            times.append(elapsed)
    return times


def provenance(args) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
            commit = r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for p in sorted((SRC / "icotherm").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "clients": 1, "loop": "closed",
    }


def end_to_end(wl, st: Stats) -> tuple[dict, dict]:
    lat_ms = sorted(x * 1e3 for x in st.lat)
    level, tail_ms, beyond = tail(lat_ms, wl.tail_pct)
    setup = measure_setup()
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput": st.units / st.busy,
        "latency_p50_ms": percentile(lat_ms, 50.0),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "throughput": f"{wl.alias}: {st.units} {wl.unit} in {st.busy:.3f} s of calls",
        "latency_p50_ms": f"n={st.n}",
        "latency_tail_ms": f"p{level:g}, {beyond} of {st.n} samples beyond",
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, notes


def _probe(wl_cls, mods, work, chk, tracer=None) -> tuple[Stats, object]:
    work = f"{work}/probe-{wl_cls.name}"
    os.makedirs(work, exist_ok=True)
    wl = wl_cls(mods, work)
    ops = wl.probe()
    return run_pass(wl, ops, chk, min_ops=len(ops), tracer=tracer), wl


def _denominator(wl, st: Stats) -> int:
    return st.n if wl.calls_per == "request" else st.units


def mc_bytes_per_trial(mods, work, chk) -> float:
    """Peak traced bytes per trial, from two probe sizes (fixed costs cancel)."""
    wl = DemonMc(mods, work)
    peaks = []
    ops = wl.probe()
    for op in ops:
        tracemalloc.start()
        try:
            st = run_pass(wl, [op], chk, min_ops=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if st.failed:
            raise RuntimeError(st.errors[0])
    return round((peaks[1] - peaks[0]) / (ops[1]["trials"] - ops[0]["trials"]), 2)


def per_layer(wl, mods, args, chk, ops_iter) -> tuple[dict, dict, list[Stats]]:
    """Traced and untraced twin requests, then the traced probes."""
    ops: list = []
    tracer = Tracer()
    traced = run_pass(wl, ops_iter, chk, args.seconds, wl.digest_ops, tracer, keep=ops)
    untraced = traced.untraced
    s = tracer.summary()
    denom = max(_denominator(wl, traced), 1)

    def calls(name):
        return s[name]["calls"] / denom if name in s else 0.0

    def self_time(name, scale):
        a = s.get(name)
        return a["self_s"] / a["calls"] * scale if a and a["calls"] else 0.0

    m = {"trace.overhead_pct": 100.0 * (traced.busy / untraced.busy - 1.0)}
    for name in PER_LAYER:
        if name in m or name in COMPUTED:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls(base)
        elif kind in ("self_us", "self_ms"):
            m[name] = self_time(base, 1e6 if kind == "self_us" else 1e3)
    m["cli.rows_written"] = traced.rows
    rejects = [tracer.duration(i) for i, name in enumerate(tracer.names)
               if name == "cli.run" and tracer.parent[i] < 0
               and isinstance(ops[tracer.request[i]], dict)
               and ops[tracer.request[i]].get("reject")]
    m["cli.reject_ms"] = 1e3 * statistics.fmean(rejects) if rejects else 0.0
    m["fridge.degenerate_rejections"] = (
        s["fridge.run_cycle"]["errors"].get("DegenerateCycleError", 0)
        if "fridge.run_cycle" in s else 0)

    # Computed counts: exact, from the fixed probes, independent of seed and time.
    probes = {}
    for cls in WORKLOADS.values():
        t = Tracer()
        st, probe_wl = _probe(cls, mods, wl.work, chk, t)
        probes[cls.name] = (t.summary(), st, probe_wl)
    own, own_st, own_wl = probes[wl.name]
    dm = own.get("linalg.DensityMatrix", {"by_tag": {}})
    for dim in (2, 4, 16):
        m[f"linalg.DensityMatrix.dim{dim}.calls"] = (
            dm["by_tag"].get(dim, 0) / _denominator(own_wl, own_st))
    sweep, sweep_st, _ = probes["sweep_tables"]
    m["linalg.dm_per_row"] = sweep["linalg.DensityMatrix"]["calls"] / sweep_st.rows
    circ, circ_st, _ = probes["circuit_verify"]
    m["circuit.gates_per_point"] = circ["circuit.apply_gate"]["calls"] / circ_st.units
    m["circuit.matmul_flops_per_point"] = circ["circuit.apply_gate"]["tag_sum"] / circ_st.units
    m["fridge.mc_bytes_per_trial"] = mc_bytes_per_trial(mods, wl.work, chk)

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(f"{OUT_DIR}/spans-{wl.name}.csv")
    notes = {
        "trace.overhead_pct": (f"{traced.n} requests: {traced.busy:.3f} s traced, "
                               f"{untraced.busy:.3f} s untraced"),
        "spans": f"{len(tracer)} spans in {OUT_DIR}/spans-{wl.name}.csv",
        "calls_per": wl.calls_per,
    }
    for name in COMPUTED:
        notes[name] = "computed"
    passes = [traced, untraced]
    for _, st, _ in probes.values():
        passes += [st, st.untraced]
    return {k: m[k] for k in PER_LAYER}, notes, passes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    mods = load_package()
    os.chdir(ROOT)
    work = f"{WORK_DIR}/{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    chk = Checker()
    wl = WORKLOADS[args.workload](mods, work)
    inputs_sha = digest(*itertools.islice(wl.ops(args.seed), INPUT_DIGEST_OPS))
    try:
        # The workload's own probe warms caches and lazy imports before timing.
        probe_st, _ = _probe(type(wl), mods, work, chk)
        if args.trace:
            metrics, notes, passes = per_layer(wl, mods, args, chk, wl.ops(args.seed))
            stream = passes[0]
        else:
            stream = run_pass(wl, wl.ops(args.seed), chk, args.seconds, wl.digest_ops)
            metrics, notes = end_to_end(wl, stream)
            passes = [stream]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes.append(probe_st)
    attempted = sum(st.n for st in passes)
    failed = sum(st.failed for st in passes)
    errors = [e for st in passes for e in st.errors]

    units = END_TO_END if not args.trace else PER_LAYER
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} requests)")
    print(f"worst_abs_err = {chk.worst:.3g}")
    for e in errors[:5]:
        print(f"error: {e}")
    detail = {
        "provenance": provenance(args),
        "failed_frac": failed / attempted,
        "worst_abs_err": chk.worst,
        "inputs_sha256": inputs_sha,
        "outputs_sha256": digest(*stream.digests[:wl.digest_ops]),
        "outputs_digest_requests": min(wl.digest_ops, len(stream.digests)),
        "probe_sha256": digest(*probe_st.digests),
        "notes": notes,
        "errors": errors[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(f"{OUT_DIR}/{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({**detail, "metrics": metrics,
                   "request_sha256": stream.digests if wl.record_outputs else None},
                  f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
