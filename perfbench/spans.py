"""Spans around calls into icotherm's public functions, recorded from outside.

``Tracer.installed()`` replaces each name in ``TRACED`` in every icotherm
module namespace that imported it, and ``DensityMatrix.__init__`` on the
class, with a wrapper that records one span per call: name, start, end,
parent span, request index, a tag (matrix dimension or flops) and the
exception it raised, if any.  Spans stay in memory until ``write`` is called.
The package's code is not changed; the originals are put back when the
context exits.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

TRACED = {
    "cli": ("run",),
    "fridge": ("sweep", "ico_sweep", "run_cycle", "ico_point", "monte_carlo"),
    "thermo": ("thermal_state", "post_select", "internal_energy",
               "effective_temperature", "shannon_entropy"),
    "channels": ("switch_closed_form",),
    "circuit": ("build_switch_circuit", "verify_against_kraus", "apply_gate",
                "embed_unitary"),
    "linalg": ("partial_trace",),
}


def _gate_flops(args, kwargs):
    """Real flops of the dense matmuls in one apply_gate, from array sizes.

    A unitary gate computes U rho U^dagger (2 products); the crusher computes
    P0 rho P0 + P1 rho P1 (4 products).  A complex n x n product is 8 n^3 flops.
    """
    reg, gate = args[0], args[1]
    n = reg.state.mat.shape[0]
    return (4 if gate.kind == "crush" else 2) * 8 * n ** 3


def _dm_dim(args, kwargs):
    return len(args[1])


TAGS = {"circuit.apply_gate": _gate_flops, "linalg.DensityMatrix": _dm_dim}


class Tracer:
    """Spans kept column-wise in flat arrays.

    Flat arrays of numbers are not tracked by the garbage collector, so a
    growing trace does not make the program's own collections slower.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.tag = array("q")  # -1 where the span has no tag
        self.errors: dict[int, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] | None = None

    def __len__(self):
        return len(self.names)

    def _wrap(self, name, fn):
        names, start, end = self.names, self.start, self.end
        parent, request, tags, errors = self.parent, self.request, self.tag, self.errors
        stack, clock = self._stack, time.perf_counter
        tag = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            request.append(tracer.op)
            tags.append(tag(args, kwargs) if tag else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                errors[i] = type(e).__name__
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every name to trace."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "icotherm" or n.startswith("icotherm.")]
        plan = []
        for home, names in TRACED.items():
            for name in names:
                orig = getattr(sys.modules[f"icotherm.{home}"], name)
                traced = self._wrap(f"{home}.{name}", orig)
                plan += [(m, name, orig, traced) for m in modules
                         if vars(m).get(name) is orig]
        dm = sys.modules["icotherm.linalg"].DensityMatrix
        plan.append((dm, "__init__", dm.__init__,
                     self._wrap("linalg.DensityMatrix", dm.__init__)))
        return plan

    @contextmanager
    def installed(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, name, _, traced in self._patches:
            setattr(owner, name, traced)
        try:
            yield self
        finally:
            for owner, name, orig, _ in self._patches:
                setattr(owner, name, orig)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, summed self time (s), summed tag, by-tag counts.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly on one thread, so children never overlap.
        """
        child = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.duration(i)
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "tag_sum": 0,
                     "by_tag": defaultdict(int), "errors": defaultdict(int)})
        for i, name in enumerate(self.names):
            a = out[name]
            a["calls"] += 1
            a["self_s"] += self.duration(i) - child[i]
            if self.tag[i] >= 0:
                a["tag_sum"] += self.tag[i]
                a["by_tag"][self.tag[i]] += 1
            if i in self.errors:
                a["errors"][self.errors[i]] += 1
        return out

    def write(self, path: str) -> None:
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "start_us", "end_us", "parent", "request", "tag", "error"])
            for i, name in enumerate(self.names):
                w.writerow([name, f"{(self.start[i] - t0) * 1e6:.3f}",
                            f"{(self.end[i] - t0) * 1e6:.3f}", self.parent[i],
                            self.request[i], "" if self.tag[i] < 0 else self.tag[i],
                            self.errors.get(i, "")])
