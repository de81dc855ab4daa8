"""The four benchmark workloads: seeded request streams, execution and checks.

Each workload turns a seed into an endless stream of requests (plain numbers
and argv lists; the program receives only these), executes one request
against ``icotherm`` and checks the result against ``reference``.  Every
stream is built from fixed blocks whose request sizes are drawn inside fixed
strata, so two seeds differ in every parameter while a run's size mix, and
so its medians, stays the same from seed to seed.

Each workload also has a fixed probe: a few requests that do not depend on the
seed.  Their outputs are digested, so a byte change between two commits shows
without comparing streams, and the traced run derives its computed counts from
them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import reference as ref


class Failure(Exception):
    """A request whose result disagrees with the reference."""


class Checker:
    """Compares outputs with expected values and keeps the worst abs error."""

    def __init__(self):
        self.worst = 0.0

    def close(self, what, got, want, prob=1.0):
        got, want = float(got), float(want)
        if math.isinf(got) or math.isinf(want):
            if got != want:
                raise Failure(f"{what}: got {got!r}, want {want!r}")
            return
        err = abs(got - want)
        self.worst = max(self.worst, err)
        bound = (ref.REL_TOL * max(1.0, abs(want))
                 + ref.COND_TOL / max(prob, ref.PROB_FLOOR))
        if not err <= bound:
            raise Failure(f"{what}: got {got!r}, want {want!r} (|err| {err:.3g} > {bound:.3g})")

    def equal(self, what, got, want):
        if got != want:
            raise Failure(f"{what}: got {got!r}, want {want!r}")


def _phi(rng: random.Random) -> float:
    """Control angle in [0, pi]; both ends and pi/2 are drawn on purpose."""
    r = rng.random()
    if r < 0.05:
        return 0.0
    if r < 0.10:
        return math.pi
    if r < 0.15:
        return math.pi / 2
    return rng.uniform(0.0, math.pi)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _num(x: float) -> str:
    return repr(float(x))


def digest(*parts) -> str:
    """SHA-256 over the parts (bytes, or anything as its str), NUL-separated."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _parse_table(data: bytes, fmt: str, header: list[str],
                 extra: tuple[str, ...] = ()) -> tuple[list[list[float]], list]:
    """Rows of an icotherm CSV/JSON table as floats, plus the raw JSON objects."""
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(data.decode())))
        if not lines or lines[0] != header:
            raise Failure(f"csv header {lines[:1]} != {header}")
        return [[float(x) for x in row] for row in lines[1:]], []
    objs = json.loads(data)
    for obj in objs:
        if list(obj) != header + list(extra):
            raise Failure(f"json keys {list(obj)} != {header + list(extra)}")
    return [[float(obj[k]) for k in header] for obj in objs], objs


class CliWorkload:
    """Requests that are ``icotherm.cli.run`` argv lists writing to ``--out``."""

    calls_per = "request"
    # Keep the SHA-256 of every request's output, not only the first ones.
    record_outputs = True

    def __init__(self, mods, work: str):
        self.cli = mods["cli"]
        self.work = work

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.cli.run(op["argv"])
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, result, chk: Checker) -> tuple[int, int, str]:
        """(units of work, table rows written, SHA-256 of the whole output)."""
        rc, stdout, stderr = result
        path = op["out"]
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            os.remove(path)
        out_sha = digest(rc, stdout, stderr, data)
        if self.expected_exit(op) == 2:
            chk.equal("exit code", rc, 2)
            if "icotherm: error:" not in stderr:
                raise Failure(f"rejection without an error message: {stderr!r}")
            if data:
                raise Failure("rejected request wrote output")
            return 0, 0, out_sha
        chk.equal("exit code", rc, 0)
        if stdout:
            raise Failure("--out request also wrote to stdout")
        return (*self.check_table(op, data, chk), out_sha)

    def expected_exit(self, op) -> int:
        return 0

    def argv(self, cmd: str, op: dict, flags: dict) -> list[str]:
        argv = [cmd]
        for flag, value in flags.items():
            if value is True:
                argv.append(flag)
            elif value is not None and value is not False:
                argv += [flag, value if isinstance(value, str) else _num(value)]
        argv += ["--format", op["fmt"], "--out", op["out"]]
        return argv


class SweepTables(CliWorkload):
    """probs / heat / fridge tables over dense temperature grids."""

    name = "sweep_tables"
    unit = "rows"
    alias = "rows_per_s"
    calls_per = "row"
    tail_pct = 75.0
    digest_ops = 13
    HEADERS = {
        "probs": ["t", "phi", "p_plus", "p_minus"],
        "heat": ["t", "dq_plus", "dq_minus"],
        "fridge": ["t_cold", "p_minus", "w", "q_c", "eta"],
    }
    # Grid sizes come from these strata, one request per stratum and
    # subcommand in every block.
    STEP_STRATA = ((1000, 1250), (1250, 1500), (1500, 1750), (1750, 2000))
    REJECTIONS = ("bad_out", "t_max_inf", "degenerate")

    def _op(self, rng, i, cmd, steps):
        t_min = rng.uniform(0.1, 0.5)
        op = {"id": i, "cmd": cmd, "steps": steps, "t_min": t_min,
              "t_max": t_min + rng.uniform(1.0, 10.0), "phi": _phi(rng),
              "delta": rng.uniform(0.5, 2.0), "fmt": rng.choice(("csv", "json")),
              "reject": None}
        if cmd == "fridge":
            op["t_reset"] = rng.uniform(0.5, 2.0)
            op["base"] = rng.choice(("e", "2"))
        else:
            op["basis"] = rng.choice(("pm", "computational"))
        op["out"] = f"{self.work}/op{i}.{op['fmt']}"
        return op

    def _finish(self, op):
        flags = {"--t-min": op["t_min"], "--t-max": op["t_max"],
                 "--steps": str(op["steps"]), "--delta": op["delta"],
                 "--phi": op["phi"]}
        if op["cmd"] == "fridge":
            flags["--t-reset"] = op["t_reset"]
            flags["--entropy-base"] = op["base"]
        else:
            flags["--basis"] = op["basis"]
        op["argv"] = self.argv(op["cmd"], op, flags)
        return op

    def _reject(self, rng, i, kind):
        if kind == "degenerate":
            # Default phi = pi/2 makes P- vanish at t = 0.01 (ROADMAP item 5).
            op = self._op(rng, i, "fridge", rng.randrange(1000, 2000))
            op.update(t_min=0.01, phi=None)
        else:
            op = self._op(rng, i, rng.choice(tuple(self.HEADERS)),
                          rng.randrange(1000, 2000))
            if kind == "bad_out":
                op["out"] = f"{self.work}/missing/op{i}.{op['fmt']}"
            else:
                op["t_max"] = math.inf
        op["reject"] = kind
        return op

    def ops(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        rejections = []
        while True:
            if not rejections:
                rejections = rng.sample(self.REJECTIONS, len(self.REJECTIONS))
            block = []
            for cmd in self.HEADERS:
                for lo, hi in self.STEP_STRATA:
                    block.append(self._op(rng, i, cmd, rng.randrange(lo, hi)))
                    i += 1
            rng.shuffle(block)
            block.insert(rng.randrange(len(block) + 1),
                         self._reject(rng, i, rejections.pop()))
            i += 1
            for op in block:
                yield self._finish(op)

    def probe(self):
        ops = []
        for i, (cmd, extra) in enumerate((("probs", {"basis": "pm", "fmt": "csv"}),
                                          ("heat", {"basis": "computational", "fmt": "json"}),
                                          ("fridge", {"t_reset": 1.0, "base": "2", "fmt": "csv"}))):
            op = {"id": f"probe{i}", "cmd": cmd, "steps": 101, "t_min": 0.2,
                  "t_max": 3.0, "phi": math.pi / 2, "delta": 1.0, "reject": None,
                  **extra}
            op["out"] = f"{self.work}/probe{i}.{op['fmt']}"
            ops.append(self._finish(op))
        return ops

    def _phi_of(self, op):
        return math.pi / 2 if op["phi"] is None else op["phi"]

    def _rows(self, op):
        temps = ref.grid(op["t_min"], op["t_max"], op["steps"])
        if op["cmd"] != "fridge":
            return temps, [ref.ico_point(t, self._phi_of(op), op["basis"], op["delta"])
                           for t in temps]
        base = math.e if op["base"] == "e" else 2.0
        return temps, [ref.cycle(t, t, op["t_reset"], self._phi_of(op), op["delta"], base)
                       for t in temps]

    def expected_exit(self, op):
        if not (math.isfinite(op["t_min"]) and math.isfinite(op["t_max"])):
            return 2
        if not os.path.isdir(os.path.dirname(op["out"])):
            return 2
        # P- grows with t, so the grid's first point is its least likely one.
        if op["cmd"] == "fridge" and ref.outcome(
                op["t_min"], self._phi_of(op), "minus")[1] is None:
            return 2
        return 0

    def check_table(self, op, data, chk):
        rows, _ = _parse_table(data, op["fmt"], self.HEADERS[op["cmd"]])
        temps, want = self._rows(op)
        chk.equal("row count", len(rows), op["steps"])
        for row, t, w in zip(rows, temps, want):
            chk.close("t", row[0], t)
            if op["cmd"] == "probs":
                chk.close("phi", row[1], self._phi_of(op))
                chk.close("p_plus", row[2], w["p_plus"])
                chk.close("p_minus", row[3], w["p_minus"])
            elif op["cmd"] == "heat":
                chk.close("dq_plus", row[1], w["dq_plus"])
                chk.close("dq_minus", row[2], w["dq_minus"])
            else:
                chk.close("p_minus", row[1], w["p_minus"])
                chk.close("w", row[2], w["w"])
                chk.close("q_c", row[3], w["q_c"], w["p_minus"])
                chk.close("eta", row[4], w["eta"], w["p_minus"])
        return len(rows), len(rows)


class CircuitVerify(CliWorkload):
    """circuit-verify on small grids, with and without Toffoli expansion."""

    name = "circuit_verify"
    unit = "points"
    alias = "points_verified_per_s"
    calls_per = "point"
    tail_pct = 99.0
    digest_ops = 12
    HEADER = ["t", "phi", "distance"]

    def _op(self, rng, i, steps, sweep_phi, decompose):
        t_min = _log_uniform(rng, 0.1, 1.0)
        op = {"id": i, "steps": steps, "t_min": t_min,
              "t_max": t_min + rng.uniform(0.5, 5.0),
              "phi": None if sweep_phi else _phi(rng), "decompose": decompose,
              "delta": rng.uniform(0.5, 2.0), "fmt": rng.choice(("csv", "json"))}
        op["out"] = f"{self.work}/op{i}.{op['fmt']}"
        return self._finish(op)

    def _finish(self, op):
        op["argv"] = self.argv("circuit-verify", op, {
            "--t-min": op["t_min"], "--t-max": op["t_max"],
            "--steps": str(op["steps"]), "--delta": op["delta"],
            "--phi": op["phi"], "--decompose-cswap": op["decompose"]})
        return op

    # Single-phi grids take their steps from these strata and phi sweeps
    # (steps x steps points) from SWEEP_STEPS, so points per request spread
    # evenly over 1..12 instead of clustering on a few sizes.
    STEP_STRATA = ((1, 4), (4, 7), (7, 10), (10, 13))
    SWEEP_STEPS = (2, 3)

    def ops(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        while True:
            block = []
            for decompose in (False, True):
                for lo, hi in self.STEP_STRATA:
                    block.append(self._op(rng, i, rng.randrange(lo, hi), False, decompose))
                    i += 1
                for steps in self.SWEEP_STEPS:
                    block.append(self._op(rng, i, steps, True, decompose))
                    i += 1
            rng.shuffle(block)
            yield from block

    def probe(self):
        return [self._finish({"id": f"probe{i}", "steps": 2, "t_min": 0.5,
                              "t_max": 2.0, "phi": None, "decompose": d,
                              "delta": 1.0, "fmt": "csv",
                              "out": f"{self.work}/probe{i}.csv"})
                for i, d in enumerate((False, True))]

    def check_table(self, op, data, chk):
        rows, _ = _parse_table(data, op["fmt"], self.HEADER)
        temps = ref.grid(op["t_min"], op["t_max"], op["steps"])
        phis = (ref.grid(0.0, math.pi, op["steps"]) if op["phi"] is None
                else [op["phi"]])
        chk.equal("row count", len(rows), len(temps) * len(phis))
        want = [(t, ph) for t in temps for ph in phis]
        for row, (t, ph) in zip(rows, want):
            chk.close("t", row[0], t)
            chk.close("phi", row[1], ph)
            distance = row[2]
            chk.worst = max(chk.worst, distance)
            if not 0.0 <= distance <= ref.VALIDATION_TOL:
                raise Failure(f"circuit distance {distance!r} at t={t}, phi={ph}")
        return len(rows), len(rows)


class DemonMc(CliWorkload):
    """Seeded Monte-Carlo demon runs of 1e6 to 1e7 trials."""

    name = "demon_mc"
    unit = "trials"
    alias = "trials_per_s"
    tail_pct = 95.0
    digest_ops = 12
    HEADER = ["trials", "seed", "successes", "p_minus_emp", "p_minus_exact",
              "w_total", "q_c_total"]
    # One request per log-spaced stratum of [1e6, 1e7) trials, twice a block.
    STRATA = 6

    def _op(self, rng, i, trials):
        t_cold = _log_uniform(rng, 0.2, 3.0)
        op = {"id": i, "trials": trials, "seed": rng.randrange(2 ** 32),
              "t_cold": t_cold,
              "t_hot": None if rng.random() < 0.5 else t_cold * rng.uniform(0.5, 2.0),
              "t_reset": rng.uniform(0.5, 2.0), "delta": rng.uniform(0.5, 2.0),
              "base": rng.choice(("e", "2")), "fmt": rng.choice(("csv", "json"))}
        op["out"] = f"{self.work}/op{i}.{op['fmt']}"
        return self._finish(op)

    def _finish(self, op):
        op["argv"] = self.argv("mc", op, {
            "--trials": str(op["trials"]), "--seed": str(op["seed"]),
            "--t-min": op["t_cold"], "--t-max": op["t_hot"],
            "--t-reset": op["t_reset"], "--delta": op["delta"],
            "--entropy-base": op["base"]})
        return op

    def ops(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        while True:
            block = []
            for _ in range(2):
                for j in range(self.STRATA):
                    trials = int(10 ** (6 + (j + rng.random()) / self.STRATA))
                    block.append(self._op(rng, i, trials))
                    i += 1
            rng.shuffle(block)
            yield from block

    def probe(self):
        return [self._finish({"id": f"probe{i}", "trials": n, "seed": 7,
                              "t_cold": 1.0, "t_hot": None, "t_reset": 1.0,
                              "delta": 1.0, "base": "e", "fmt": "json",
                              "out": f"{self.work}/probe{i}.json"})
                for i, n in enumerate((1_000_000, 10_000_000))]

    def check_table(self, op, data, chk):
        rows, objs = _parse_table(data, op["fmt"], self.HEADER, extra=("rng",))
        chk.equal("row count", len(rows), 1)
        for obj in objs:
            chk.equal("rng", obj["rng"], "numpy-pcg64")
        trials, seed, successes, p_emp, p_exact, w_total, q_c_total = rows[0]
        t_hot = op["t_cold"] if op["t_hot"] is None else op["t_hot"]
        base = math.e if op["base"] == "e" else 2.0
        want = ref.cycle(t_hot, op["t_cold"], op["t_reset"], math.pi / 2,
                         op["delta"], base)
        chk.equal("trials", trials, op["trials"])
        chk.equal("seed", seed, op["seed"])
        p = want["p_minus"]
        if not (successes == int(successes) and ref.binomial_ok(int(successes), op["trials"], p)):
            raise Failure(f"{successes} successes of {op['trials']} at P- = {p}")
        chk.close("p_minus_exact", p_exact, p)
        chk.close("p_minus_emp", p_emp, successes / op["trials"])
        chk.close("w_total", w_total, op["trials"] * want["w"])
        chk.close("q_c_total", q_c_total, successes * want["q_c"],
                  p / max(successes, 1.0))
        return op["trials"], 1


class PointQueries:
    """Single-point library calls to ``ico_point`` and ``run_cycle``."""

    name = "point_queries"
    unit = "queries"
    alias = "queries_per_s"
    calls_per = "query"
    tail_pct = 99.0
    digest_ops = 1000
    record_outputs = False

    def __init__(self, mods, work: str):
        self.fridge = mods["fridge"]
        self.work = work

    @staticmethod
    def _temp(rng, lo):
        return math.inf if rng.random() < 0.05 else _log_uniform(rng, lo, 50.0)

    def ops(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            delta, phi = rng.uniform(0.5, 2.0), _phi(rng)
            # A third are ico_point calls, so the median latency falls inside
            # the run_cycle cluster rather than in the gap between the two.
            if rng.random() < 1 / 3:
                yield ("ico", delta, self._temp(rng, 0.02), phi,
                       rng.choice(("pm", "computational")))
            else:
                t_cold = self._temp(rng, 0.05)
                t_hot = t_cold if rng.random() < 0.3 else self._temp(rng, 0.05)
                yield ("cycle", delta, t_hot, t_cold, rng.uniform(0.5, 2.0), phi,
                       rng.choice((math.e, 2.0)))

    def probe(self):
        ops = [("ico", 1.0, t, 1.0, basis)
               for t in ref.grid(0.05, 5.0, 25) for basis in ("pm", "computational")]
        ops += [("cycle", 1.0, 1.5 * t, t, 1.0, math.pi / 2, math.e)
                for t in ref.grid(0.1, 5.0, 50)]
        return ops

    def execute(self, op):
        fridge = self.fridge
        if op[0] == "ico":
            _, delta, t, phi, basis = op
            return fridge.ico_point(fridge.TwoLevelHamiltonian(delta), t * delta,
                                    phi, basis)
        _, delta, t_hot, t_cold, t_reset, phi, base = op
        try:
            return fridge.run_cycle(fridge.CycleParams(
                delta=delta, t_hot=t_hot, t_cold=t_cold, t_reset=t_reset,
                phi=phi, entropy_base=base))
        except fridge.DegenerateCycleError as e:
            return e

    def check(self, op, r, chk: Checker) -> tuple[int, int, str]:
        fields = (self._check_ico if op[0] == "ico" else self._check_cycle)(op, r, chk)
        return 1, 0, fields

    def _check_ico(self, op, r, chk):
        _, delta, t, phi, basis = op
        want = ref.ico_point(t, phi, basis, delta)
        chk.close("t", r.t, t)
        chk.equal("phi", r.phi, phi)
        chk.equal("basis", r.basis, basis)
        fields = [r.t, r.phi]
        for slot, name in zip(("plus", "minus"), ref.outcome_names(basis)):
            ps = getattr(r, slot)
            chk.equal("outcome", ps.outcome, name)
            prob, cond = want[f"p_{slot}"], want[f"cond_{slot}"]
            chk.close(f"P({name})", ps.probability, prob)
            if ps.state is None or cond is None:
                if (ps.state is None) != (cond is None) and not ref.near_floor(prob):
                    raise Failure(f"state for {name} at P = {prob!r}: {ps.state!r}")
                pops = (None, None)
            else:
                pops = (float(ps.state.mat[0, 0].real), float(ps.state.mat[1, 1].real))
                chk.close(f"p_g|{name}", pops[0], cond[0], prob)
                chk.close(f"p_e|{name}", pops[1], cond[1], prob)
            dq = getattr(r, f"dq_{slot}")
            chk.close(f"dq_{slot}", dq, want[f"dq_{slot}"])
            fields += [ps.probability, *pops, dq]
        return repr(fields)

    def _check_cycle(self, op, r, chk):
        _, delta, t_hot, t_cold, t_reset, phi, base = op
        want = ref.cycle(t_hot, t_cold, t_reset, phi, delta, base)
        if want is None:
            if not isinstance(r, self.fridge.DegenerateCycleError):
                raise Failure(f"degenerate cycle at t_cold={t_cold} returned {r!r}")
            return repr(("degenerate", t_cold))
        if isinstance(r, Exception):
            raise Failure(f"cycle at t_cold={t_cold} raised {r!r}")
        p = want["p_minus"]
        chk.close("t_cold", r.t_cold, t_cold)
        chk.close("p_minus", r.p_minus, p)
        chk.close("rho_minus p_g", r.rho_minus.mat[0, 0].real, want["cond"][0], p)
        chk.close("rho_minus p_e", r.rho_minus.mat[1, 1].real, want["cond"][1], p)
        chk.close("w", r.w, want["w"])
        chk.close("q_c", r.q_c, want["q_c"], p)
        chk.close("q_ico_minus", r.q_ico_minus, want["q_ico_minus"])
        chk.close("eta", r.eta, want["eta"], p)
        beta = math.inf if r.t_eff_minus == 0.0 else 1.0 / r.t_eff_minus
        chk.close("1/t_eff_minus", beta, want["beta_eff"], p)
        chk.close("e_minus", r.e_minus, want["e_minus"], p)
        chk.close("e_hot", r.e_hot, want["e_hot"])
        return repr((r.t_cold, r.p_minus, r.w, r.q_c, r.q_ico_minus, r.eta,
                     r.t_eff_minus, r.e_minus, r.e_hot))


WORKLOADS = {w.name: w for w in (SweepTables, PointQueries, CircuitVerify, DemonMc)}
