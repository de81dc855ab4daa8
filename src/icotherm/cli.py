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
The commands pass the kernel's columns to one table writer
(``icotherm._text``), which spells the digits of whole columns in numpy,
exactly as ``%.12g`` spells them, and leaves to Python's ``%`` the few cells
it cannot prove and every cell of a small table.
Exit codes: 0 success, 2 argument error, 3 numerical validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import kernel
from ._text import _chunk_text
from .linalg import ValidationError
from .thermo import TwoLevelHamiltonian
from .channels import AncillaState
from .circuit import verify_grid
from .fridge import CycleParams, grid, monte_carlo

__all__ = ["build_parser", "run", "main"]

_ENTROPY_BASES = {"e": math.e, "2": 2.0}


# Rows per chunk of the table writer.  A digit pass has a fixed cost of
# about 120 us (some 60 numpy calls) and then costs about 55 ns per cell up
# to some 30 000 cells, where its temporaries leave the cache; 4096 rows of
# 3-5 columns stay below that.  A chunk's arrays take a few MB, so the
# memory of a large --steps table follows its text.
_CHUNK_ROWS = 4096
# Tables with fewer float cells than this skip the digit pass: every cell is
# then spelled by Python's %, into the same buffer.  Measured in-process
# (min of repeats) on the default probs, heat, computational-basis heat and
# fridge columns cut to 20-200 rows: the digit pass wins from 180-320 cells.
_DIGIT_MIN_CELLS = 256

def _table_text(header: list[str], columns: Sequence[Sequence], fmt: str,
                extra_json_fields: dict | None = None) -> str:
    """The whole table as CSV or ``indent=2`` JSON text.

    ``columns`` holds one sequence per header key, all of one length: float
    columns (float64 arrays) are written with 12 significant digits
    (``%.12g``), int columns (a column whose first cell is an int) whole
    (``%d``).  In JSON a float is the shortest repr of its 12-digit value,
    non-finite ones as ``NaN``/``Infinity``, and every object ends with
    ``extra_json_fields``.  ``%d`` and ``%.12g`` text holds no comma, quote
    or newline, so no cell needs CSV quoting.

    Every table takes one path, ``icotherm._text``.  Rows are written
    ``_CHUNK_ROWS`` at a time into a ``(rows, words)`` buffer of
    little-endian uint64 words that holds the constant pieces (CSV's ``,``
    and newline; JSON's object template with its keys and
    ``extra_json_fields``) and the cells, all padded with NUL bytes, which
    ``bytes.translate`` then drops; each chunk is decoded once.  Chunks keep
    the arrays of the pass small next to the text, whatever the grid size.

    *Digit pass.*  ``_text._digit_words`` spells each float cell in numpy.
    With a = |x| and E = floor(log10 a), it computes m = a * 10**(11 - E)
    with at most two multiplications or divisions by the exact powers
    10**0..10**22, so m is rounded at most twice and, while m < 1e12,
    |m - m_exact| <= 2 * 2**-53 * 1e12 < 2.3e-4.  When m falls outside
    [1e11, 1e12), E moves by one and m is computed again.  A cell is proven
    when m lies more than 1e-3 from a half-integer, |m - rint(m)| < 0.499:
    m_exact is then on the same side of every half-integer, so N = rint(m)
    is m_exact rounded to 12 digits, the mantissa ``%.12g`` prints (10**12
    carries to 10**11 and E + 1).  N is split into three 4-digit groups,
    each looked up as 4 ASCII bytes; trailing zeros are cut, and the digits
    are laid out as ``%g`` does: e-notation (``e+dd``, three digits from
    |E| = 100) iff E < -4 or E >= 12, else positional, with a ``0.000``
    lead when E < 0.  The sign comes from ``signbit`` and zeros are ``0``
    or ``-0``.  Cells that are not finite or have |11 - E| > 44 are not
    proven; neither is about 0.2 % of uniform values.

    *Fallback.*  Every other cell is spelled by Python's ``%``: float cells
    the digit pass did not prove, int cells (``%d``), and in JSON the cells
    the respelling below selects.  In JSON each such float text is then
    spelled as the repr of the float it parses to, which, for a cell the
    respelling does not select, is its text already.  A table with fewer
    than ``_DIGIT_MIN_CELLS`` float cells skips the digit pass, whose fixed
    cost it would not repay, and spells each of its cells this way, each
    text written by slice into a copy of the row words; a larger one spells
    each distinct bit pattern once and writes the texts with one fancy
    index.

    *JSON respelling.*  A JSON float keeps its ``%.12g`` text, which already
    is that repr, except where a cell x is not finite, has ``|x| < 1e-300``
    (0, -0.0 and the subnormals, whose 12 digits do not round-trip) or has
    ``|x - rint(x)| <= 2e-11*|x|``; those are respelled as the repr of the
    float their text parses to.  For every other cell:

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
    ints = [isinstance(c, np.ndarray) and c.dtype.kind in "iub"
            or (not isinstance(c, np.ndarray) and len(c) > 0
                and isinstance(c[0], (int, np.integer)))
            for c in columns]
    cols = [c if is_int else np.asarray(c, dtype=float)
            for c, is_int in zip(columns, ints)]
    n = len(cols[0])
    if fmt == "csv":
        pieces = [",".join(header) + "\n"]
        consts = [""] + [","] * (len(header) - 1) + ["\n"]
    else:
        if not n:
            return "[]\n"
        # Every object starts with the ",\n" that joins it to the one before;
        # the first one's is cut.
        pieces = ["[\n"]
        keys = [json.dumps(key) for key in header]
        consts = ([f",\n  {{\n    {keys[0]}: "]
                  + [f",\n    {key}: " for key in keys[1:]]
                  + ["".join(f",\n    {json.dumps(key)}: {json.dumps(v)}"
                             for key, v in (extra_json_fields or {}).items())
                     + "\n  }"])
    consts = tuple(c.encode("ascii") for c in consts)
    digit_pass = n * ints.count(False) >= _DIGIT_MIN_CELLS
    for start in range(0, n, _CHUNK_ROWS):
        pieces.append(_chunk_text(
            consts, [c[start:start + _CHUNK_ROWS] for c in cols], ints,
            fmt == "json", digit_pass, cut=2 if fmt == "json" and not start else 0))
    if fmt == "json":
        pieces.append("\n]\n")
    return "".join(pieces)


def _emit(header: list[str], columns: Sequence[Sequence], args,
          extra_json_fields: dict | None = None) -> None:
    """Write the table of ``columns`` to ``--out`` or stdout in one write.

    The text is built before the file is opened, so a failure leaves no file.
    """
    text = _table_text(header, columns, args.format, extra_json_fields)
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


def _switched(args) -> tuple[np.ndarray, kernel.Switched]:
    """Reported temperatures and both outcomes over the requested grid."""
    h = TwoLevelHamiltonian(args.delta)
    _, temps = grid(args.t_min, args.t_max, args.steps, h.delta)
    phi = AncillaState(args.phi).phi
    sw = kernel.switched(h.delta, phi, temps, args.basis)
    return temps / h.delta, sw


def _cmd_probs(args) -> None:
    t, (plus, minus) = _switched(args)
    _emit(["t", "phi", "p_plus", "p_minus"],
          [t, np.full(len(t), args.phi), plus.prob, minus.prob], args)


def _cmd_heat(args) -> None:
    t, (plus, minus) = _switched(args)
    _emit(["t", "dq_plus", "dq_minus"], [t, plus.dq, minus.dq], args)


def _cmd_fridge(args) -> None:
    p = CycleParams(delta=args.delta, t_reset=args.t_reset, phi=args.phi,
                    entropy_base=_ENTROPY_BASES[args.entropy_base])
    t, _ = grid(args.t_min, args.t_max, args.steps, p.delta, min_steps=2)
    c = kernel.cycles(p.delta, p.phi, t, t, p.t_reset, p.entropy_base)
    _emit(["t_cold", "p_minus", "w", "q_c", "eta"],
          [t, c.minus.prob, c.w, c.q_c, c.eta], args)


def _cmd_circuit_verify(args) -> None:
    h = TwoLevelHamiltonian(args.delta)
    t, temps = grid(args.t_min, args.t_max, args.steps, h.delta, distinct=False)
    phis = ([AncillaState(args.phi).phi] if args.phi is not None
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
