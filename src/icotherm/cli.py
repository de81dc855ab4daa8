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
The commands compute only the columns they print (``probs`` and ``heat``
take theirs from ``kernel._probs`` and ``kernel._heats``) and pass them to
one table writer, ``icotherm._text._table_text``.  It spells a float column
that holds one bit pattern in every row once, joined into the text around
it: ``probs``' phi, and the computational basis' P and zero heats.  It
spells a table with an int column (``mc``'s), or of fewer than 256 cells
left, with one ``%`` pass over a row template.  A larger float table has
the digits of whole columns spelled in numpy, exactly as ``%.12g`` spells
them, and Python's ``%`` spells the few cells the numpy pass cannot prove.
Exit codes: 0 success, 2 argument error, 3 numerical validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import kernel
from ._text import _table_text
from .linalg import ValidationError
from .thermo import TwoLevelHamiltonian, _check_phi
from .circuit import verify_grid
from .fridge import CycleParams, grid, monte_carlo

__all__ = ["build_parser", "run", "main"]

_ENTROPY_BASES = {"e": math.e, "2": 2.0}


def _emit(header: list[str], columns: Sequence[Sequence], args,
          extra_json_fields: dict | None = None) -> None:
    """Write the table of ``columns`` to ``--out`` or stdout.

    Every piece of the text is built before the file is opened, so a failure
    leaves no file; the pieces are written as they are, not joined first.
    """
    pieces = _table_text(header, columns, args.format, extra_json_fields)
    newline = "" if args.format == "csv" else None
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", newline=newline)) as f:
        f.writelines(pieces)


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


def _add_cycle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, default=math.pi / 2,
                   help="ancilla angle in radians (default pi/2)")
    p.add_argument("--t-reset", type=float, default=1.0,
                   help="resetting reservoir temperature in delta/k_B (default 1.0)")
    p.add_argument("--entropy-base", choices=tuple(_ENTROPY_BASES), default="e",
                   help="erasure entropy log base (default e)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icotherm",
        description="Switched thermalizing channels: probabilities, heats, "
                    "circuit checks, and the demon-driven refrigerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("probs", "outcome probabilities vs temperature"),
                       ("heat", "conditional heats vs temperature")):
        p = sub.add_parser(name, help=text)
        _add_output_flags(p)
        _add_grid_flags(p, 0.2, 3.0, 57)
        p.add_argument("--phi", type=float, default=math.pi / 2,
                       help="ancilla angle in radians (default pi/2)")
        p.add_argument("--basis", choices=tuple(kernel.BASES), default="pm",
                       help="ancilla measurement basis (default pm)")

    p = sub.add_parser("fridge", help="refrigerator sweep at t_hot = t_cold")
    _add_output_flags(p)
    _add_grid_flags(p, 0.2, 3.0, 57)
    _add_cycle_flags(p)

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
    _add_cycle_flags(p)
    p.add_argument("--trials", type=int, default=10000, help="cycles (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="PCG64 RNG seed (default 0)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves no state in it."""
    return build_parser()


def _check_out(path: str) -> None:
    """Fail before any compute when ``--out`` cannot be opened as a file.

    Raises the error ``open(path, "w")`` would raise after the compute: its
    directory cannot be reached (``[Errno 2]``, or ``[Errno 20]`` for a file
    in the path), the path is a directory or ends in a separator
    (``[Errno 21]``), the OS refuses the name: too long, or a symlink loop,
    or it is a dangling symlink whose target's directory cannot be reached.
    A symlink into a directory that exists is written through, as ``open``
    writes it. The file itself is still opened only once the table exists.
    """
    name = path.rstrip(os.sep + (os.altsep or ""))
    # Stat the directory with a trailing separator, so a file there fails;
    # an empty path stats "" and fails as open("") does.
    parent = os.path.dirname(name) or ("." if path else "")
    try:
        os.stat(os.path.join(parent, ""))
        if name != path or os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:
            os.stat(path)
        except FileNotFoundError:
            # A new file, or a dangling symlink, whose target open creates.
            if os.path.islink(path):
                os.stat(os.path.join(os.path.dirname(os.path.realpath(path)), ""))
    except OSError as e:
        raise type(e)(e.errno, e.strerror, path) from None


def _grid_and_phi(args) -> tuple[np.ndarray, np.ndarray, float]:
    """The requested grid's t, its absolute temperatures and phi, checked."""
    h = TwoLevelHamiltonian(args.delta)
    t, temps = grid(args.t_min, args.t_max, args.steps, h.delta)
    return t, temps, _check_phi(args.phi)


def _cmd_probs(args) -> None:
    t, temps, phi = _grid_and_phi(args)
    _emit(["t", "phi", "p_plus", "p_minus"],
          [t, np.full(len(t), phi), *kernel._probs(args.delta, phi, temps, args.basis)],
          args)


def _cmd_heat(args) -> None:
    t, temps, phi = _grid_and_phi(args)
    _emit(["t", "dq_plus", "dq_minus"],
          [t, *kernel._heats(args.delta, phi, temps, args.basis)], args)


def _cmd_fridge(args) -> None:
    # The grid holds the temperatures, and its rules name its points: the
    # mixed state's t = inf passes every temperature rule of CycleParams.
    p = CycleParams(delta=args.delta, t_hot=math.inf, t_cold=math.inf,
                    t_reset=args.t_reset, phi=args.phi,
                    entropy_base=_ENTROPY_BASES[args.entropy_base])
    t, _ = grid(args.t_min, args.t_max, args.steps, p.delta, min_steps=2)
    c = kernel.cycles(p.delta, p.phi, t, t, p.t_reset, p.entropy_base)
    _emit(["t_cold", "p_minus", "w", "q_c", "eta"],
          [t, c.minus.prob, c.w, c.q_c, c.eta], args)


def _cmd_circuit_verify(args) -> None:
    h = TwoLevelHamiltonian(args.delta)
    t, temps = grid(args.t_min, args.t_max, args.steps, h.delta, distinct=False)
    phis = ([_check_phi(args.phi)] if args.phi is not None
            else np.linspace(0.0, math.pi, args.steps).tolist())
    d = verify_grid(h, temps.tolist(), phis,
                    decompose_cswap=args.decompose_cswap)
    _emit(["t", "phi", "distance"],
          [np.repeat(t, len(phis)), phis * len(t), d], args)


def _cmd_mc(args) -> None:
    t_cold = args.t_min
    t_hot = args.t_max if args.t_max is not None else t_cold
    params = CycleParams(delta=args.delta, t_hot=t_hot, t_cold=t_cold,
                         t_reset=args.t_reset, phi=args.phi,
                         entropy_base=_ENTROPY_BASES[args.entropy_base])
    s = monte_carlo(params, args.trials, args.seed)
    row = [s.trials, s.seed, s.successes, s.p_minus_emp, s.p_minus_exact,
           s.w_total, s.q_c_total]
    _emit(["trials", "seed", "successes", "p_minus_emp", "p_minus_exact",
           "w_total", "q_c_total"], [[v] for v in row], args,
          extra_json_fields={"rng": s.rng})


_COMMANDS = {
    "probs": _cmd_probs,
    "heat": _cmd_heat,
    "fridge": _cmd_fridge,
    "circuit-verify": _cmd_circuit_verify,
    "mc": _cmd_mc,
}


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.out != "-":
            _check_out(args.out)
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
