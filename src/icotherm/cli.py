"""Command-line front end emitting CSV/JSON sweep tables.

Subcommands
-----------
probs           outcome probabilities vs temperature  (t,phi,p_plus,p_minus)
heat            conditional heats vs temperature      (t,dq_plus,dq_minus)
fridge          refrigerator sweep at t_hot = t_cold  (t_cold,p_minus,w,q_c,eta)
circuit-verify  circuit vs closed-form distances      (t,phi,distance)
mc              seeded demon simulation               (trials,seed,successes,
                p_minus_emp,p_minus_exact,w_total,q_c_total)

Temperatures are in delta/k_B units; energies scale with --delta.  Output is
byte-identical for identical arguments; numbers carry 12 significant digits.
Exit codes: 0 success, 2 argument error, 3 numerical validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .linalg import ValidationError
from .thermo import TwoLevelHamiltonian
from .circuit import verify_against_kraus
from .fridge import CycleParams, _check_grid, _check_range, monte_carlo

__all__ = ["build_parser", "run", "main"]

_ENTROPY_BASES = {"e": math.e, "2": 2.0}


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _json_value(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(format(float(x), ".12g"))


def _emit(header: list[str], rows: Iterable[Sequence], args,
          extra_json_fields: dict | None = None) -> None:
    """Write the table to ``--out`` or stdout in one write.

    The text is built before the file is opened, so a failure leaves no file.
    """
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows([_fmt(c) for c in row] for row in rows)
        text = buf.getvalue()
    else:
        objs = []
        for row in rows:
            obj = {k: _json_value(c) for k, c in zip(header, row)}
            if extra_json_fields:
                obj.update(extra_json_fields)
            objs.append(obj)
        text = json.dumps(objs, indent=2) + "\n"
    newline = "" if args.format == "csv" else None
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", newline=newline)) as f:
        f.write(text)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=1.0,
                   help="energy gap; scales all energy columns (default 1.0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="output file, '-' for stdout (default)")


def _add_grid_flags(p: argparse.ArgumentParser, t_min: float, t_max: float,
                    steps: int) -> None:
    p.add_argument("--t-min", type=float, default=t_min,
                   help=f"grid start in delta/k_B units (default {t_min})")
    p.add_argument("--t-max", type=float, default=t_max,
                   help=f"grid end (default {t_max})")
    p.add_argument("--steps", type=int, default=steps,
                   help=f"grid size; 1 requires t-min == t-max (default {steps})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icotherm",
        description="Switched thermalizing channels: probabilities, heats, "
                    "circuit checks, and the demon-driven refrigerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="outcome probabilities vs temperature")
    _add_output_flags(p)
    _add_grid_flags(p, 0.2, 3.0, 57)
    p.add_argument("--phi", type=float, default=math.pi / 2,
                   help="ancilla angle in radians (default pi/2)")
    p.add_argument("--basis", choices=("pm", "computational"), default="pm",
                   help="ancilla measurement basis (default pm)")

    p = sub.add_parser("heat", help="conditional heats vs temperature")
    _add_output_flags(p)
    _add_grid_flags(p, 0.2, 3.0, 57)
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.add_argument("--basis", choices=("pm", "computational"), default="pm")

    p = sub.add_parser("fridge", help="refrigerator sweep at t_hot = t_cold")
    _add_output_flags(p)
    _add_grid_flags(p, 0.2, 3.0, 57)
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.add_argument("--t-reset", type=float, default=1.0,
                   help="resetting reservoir temperature in delta/k_B (default 1.0)")
    p.add_argument("--entropy-base", choices=tuple(_ENTROPY_BASES), default="e",
                   help="erasure entropy log base (default e)")

    p = sub.add_parser("circuit-verify",
                       help="circuit marginal vs closed form, max entry distance")
    _add_output_flags(p)
    _add_grid_flags(p, 0.2, 3.0, 5)
    p.add_argument("--phi", type=float, default=None,
                   help="single ancilla angle; default sweeps [0, pi] with --steps points")
    p.add_argument("--decompose-cswap", action="store_true",
                   help="expand each controlled-SWAP into three Toffoli gates")

    p = sub.add_parser("mc", help="seeded Monte-Carlo demon run")
    _add_output_flags(p)
    p.add_argument("--t-min", type=float, default=1.0,
                   help="cold/hot temperature of the run (default 1.0)")
    p.add_argument("--t-max", type=float, default=None,
                   help="hot temperature if different from --t-min")
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.add_argument("--t-reset", type=float, default=1.0)
    p.add_argument("--entropy-base", choices=tuple(_ENTROPY_BASES), default="e")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _grid(args, min_steps: int) -> np.ndarray:
    _check_grid(args.t_min, args.t_max, args.steps, min_steps)
    return np.linspace(args.t_min, args.t_max, args.steps)


def _switched(args) -> tuple[list[float], kernel.Switched]:
    """Reported temperatures and both outcomes over the requested grid."""
    h = TwoLevelHamiltonian(args.delta)
    temps = kernel.absolute(_grid(args, min_steps=1), h.delta)
    sw = kernel.switched(h.delta, args.phi, temps, args.basis)
    return (temps / h.delta).tolist(), sw


def _cmd_probs(args) -> None:
    t, (plus, minus) = _switched(args)
    rows = zip(t, [args.phi] * len(t), plus.prob.tolist(), minus.prob.tolist())
    _emit(["t", "phi", "p_plus", "p_minus"], rows, args)


def _cmd_heat(args) -> None:
    t, (plus, minus) = _switched(args)
    rows = zip(t, plus.dq.tolist(), minus.dq.tolist())
    _emit(["t", "dq_plus", "dq_minus"], rows, args)


def _cmd_fridge(args) -> None:
    p = CycleParams(delta=args.delta, t_reset=args.t_reset, phi=args.phi,
                    entropy_base=_ENTROPY_BASES[args.entropy_base])
    t = _grid(args, min_steps=2)
    c = kernel.cycles(p.delta, p.phi, t, t, p.t_reset, p.entropy_base)
    rows = zip(t.tolist(), c.minus.prob.tolist(), c.w.tolist(), c.q_c.tolist(),
               c.eta.tolist())
    _emit(["t_cold", "p_minus", "w", "q_c", "eta"], rows, args)


def _cmd_circuit_verify(args) -> None:
    h = TwoLevelHamiltonian(args.delta)
    # Only the range is checked: one step samples t_min, and repeated
    # temperatures are allowed.
    _check_range(args.t_min, args.t_max, args.steps, min_steps=1)
    temps = np.linspace(args.t_min, args.t_max, args.steps)
    phis = ([args.phi] if args.phi is not None
            else list(np.linspace(0.0, math.pi, args.steps)))
    rows = []
    for t in temps:
        for ph in phis:
            d = verify_against_kraus(h, float(t) * args.delta, float(ph),
                                     decompose_cswap=args.decompose_cswap)
            rows.append([float(t), float(ph), d])
    _emit(["t", "phi", "distance"], rows, args)


def _cmd_mc(args) -> None:
    t_cold = args.t_min
    t_hot = args.t_max if args.t_max is not None else t_cold
    params = CycleParams(delta=args.delta, t_hot=t_hot, t_cold=t_cold,
                         t_reset=args.t_reset, phi=args.phi,
                         entropy_base=_ENTROPY_BASES[args.entropy_base])
    s = monte_carlo(params, args.trials, args.seed)
    rows = [[s.trials, s.seed, s.successes, s.p_minus_emp, s.p_minus_exact,
             s.w_total, s.q_c_total]]
    _emit(["trials", "seed", "successes", "p_minus_emp", "p_minus_exact",
           "w_total", "q_c_total"], rows, args,
          extra_json_fields={"rng": s.rng})


_COMMANDS = {
    "probs": _cmd_probs,
    "heat": _cmd_heat,
    "fridge": _cmd_fridge,
    "circuit-verify": _cmd_circuit_verify,
    "mc": _cmd_mc,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"icotherm: numerical validation failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"icotherm: error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
