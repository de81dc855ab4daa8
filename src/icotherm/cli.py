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
import errno
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .linalg import ValidationError
from .thermo import TwoLevelHamiltonian
from .channels import AncillaState
from .circuit import verify_grid
from .fridge import CycleParams, grid, monte_carlo

__all__ = ["build_parser", "run", "main"]

_ENTROPY_BASES = {"e": math.e, "2": 2.0}


# How json.dumps spells the floats that have no JSON number.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _table_text(header: list[str], rows: Iterable[Sequence], fmt: str,
                extra_json_fields: dict | None = None) -> str:
    """The whole table as CSV or ``indent=2`` JSON text, formatted in one pass.

    Each column holds one type, read off its first row: ints are written
    whole (``%d``), floats with 12 significant digits (``%.12g``).  In JSON a
    float is the shortest repr of its 12-digit value, non-finite ones as
    ``NaN``/``Infinity``, and every object ends with ``extra_json_fields``.
    ``%d`` and ``%.12g`` text holds no comma, quote or newline, so no cell
    needs CSV quoting.  Both formats fill one template, a row's or an
    object's, repeated once per row, with one ``%`` pass over the cells.

    A JSON float keeps its ``%.12g`` text, which already is that repr,
    except where one numpy pass over the float columns finds a cell x that
    is not finite, has ``|x| < 1e-300`` (0, -0.0 and the subnormals, whose
    12 digits do not round-trip) or has ``|x - rint(x)| <= 2e-11*|x|``.
    A column with such a cell becomes a column of text: it is formatted once
    with ``%.12g``, only the selected cells are respelled (each distinct
    text is parsed once), and the template writes it with ``%s``.  For
    every other cell:

    * the text is a decimal of at most 12 significant digits, and one of at
      most 15 round-trips through a normal double, so the shortest repr of
      the parsed value has exactly those digits;
    * the value is not whole, so repr adds no ``.0``: rounding to 12 digits
      moves x by at most ``0.5e-11*|x|``, so a whole 12-digit value is
      selected with 4x slack;
    * both formats switch to e-notation below 1e-4 and spell the exponent
      alike.  Above 1e12 ``%g`` uses e-notation and repr does not (until
      1e16), but every ``|x| >= 5e10`` is within 0.5 of a whole number and
      is selected.
    """
    k = len(header)
    cells = tuple(itertools.chain.from_iterable(rows))
    n = len(cells) // k
    fmts = ["%d" if isinstance(c, (int, np.integer)) else "%.12g"
            for c in cells[:k]]
    if fmt == "csv":
        return ",".join(header) + "\n" + ((",".join(fmts) + "\n") * n) % cells
    if not n:
        return "[]\n"
    cols = [j for j, f in enumerate(fmts) if f == "%.12g"]
    if cols:
        x = np.array([cells[j::k] for j in cols], dtype=float)
        with np.errstate(invalid="ignore"):
            a = np.abs(x)
            respell = (~np.isfinite(x) | (a < 1e-300)
                       | (np.abs(x - np.rint(x)) <= 2e-11 * a))
        del x, a
        marked = respell.any(axis=1)
        if marked.any():
            text_cols = np.array(cols)[marked].tolist()
            text = ("%.12g\n" * (n * len(text_cols)) % tuple(
                itertools.chain.from_iterable(cells[j::k] for j in text_cols))).split()
            # Each distinct text is respelled once: a constant column costs
            # one repr, not one per row.
            picked = np.flatnonzero(respell[marked]).tolist()
            spelled = {}
            for s in {text[i] for i in picked}:
                v = repr(float(s))
                spelled[s] = _JSON_NONFINITE.get(v, v)
            for i in picked:
                text[i] = spelled[text[i]]
            cells = list(cells)
            for c, j in enumerate(text_cols):
                cells[j::k] = text[c * n:(c + 1) * n]
                fmts[j] = "%s"
            cells = tuple(cells)
    fields = [f"    {json.dumps(key).replace('%', '%%')}: {f}"
              for key, f in zip(header, fmts)]
    fields += [f"    {json.dumps(key)}: {json.dumps(v)}".replace("%", "%%")
               for key, v in (extra_json_fields or {}).items()]
    obj = "  {\n" + ",\n".join(fields) + "\n  }"
    return "[\n" + ",\n".join([obj] * n) % cells + "\n]\n"


def _emit(header: list[str], rows: Iterable[Sequence], args,
          extra_json_fields: dict | None = None) -> None:
    """Write the table to ``--out`` or stdout in one write.

    The text is built before the file is opened, so a failure leaves no file.
    """
    text = _table_text(header, rows, args.format, extra_json_fields)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves no state in it."""
    return build_parser()


def _check_out(path: str) -> None:
    """Fail before any compute when ``--out`` cannot be opened as a file.

    Raises the error ``open(path, "w")`` would raise after the compute: its
    directory cannot be reached (``[Errno 2]``, or ``[Errno 20]`` for a file
    in the path), or the path is a directory or ends in a separator
    (``[Errno 21]``).  The file itself is still opened only once the table
    exists.
    """
    name = path.rstrip(os.sep + (os.altsep or ""))
    # Stat the directory with a trailing separator, so a file there fails;
    # an empty path stats "" and fails as open("") does.
    parent = os.path.dirname(name) or ("." if path else "")
    try:
        os.stat(os.path.join(parent, ""))
    except OSError as e:
        raise type(e)(e.errno, e.strerror, path) from None
    if name != path or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _switched(args) -> tuple[list[float], kernel.Switched]:
    """Reported temperatures and both outcomes over the requested grid."""
    h = TwoLevelHamiltonian(args.delta)
    _, temps = grid(args.t_min, args.t_max, args.steps, h.delta)
    phi = AncillaState(args.phi).phi
    sw = kernel.switched(h.delta, phi, temps, args.basis)
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
    t, _ = grid(args.t_min, args.t_max, args.steps, p.delta, min_steps=2)
    c = kernel.cycles(p.delta, p.phi, t, t, p.t_reset, p.entropy_base)
    rows = zip(t.tolist(), c.minus.prob.tolist(), c.w.tolist(), c.q_c.tolist(),
               c.eta.tolist())
    _emit(["t_cold", "p_minus", "w", "q_c", "eta"], rows, args)


def _cmd_circuit_verify(args) -> None:
    h = TwoLevelHamiltonian(args.delta)
    t, temps = grid(args.t_min, args.t_max, args.steps, h.delta, distinct=False)
    phis = ([AncillaState(args.phi).phi] if args.phi is not None
            else np.linspace(0.0, math.pi, args.steps).tolist())
    d = verify_grid(h, temps.tolist(), phis,
                    decompose_cswap=args.decompose_cswap)
    rows = zip(np.repeat(t, len(phis)).tolist(), phis * len(t), d)
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
