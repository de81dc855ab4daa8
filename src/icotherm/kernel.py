"""Closed-form switch physics over whole temperature grids: the runtime path.

Every number the package reports is a closed-form function of the thermal
populations (p_g, p_e) and the ancilla angle phi.  The switch output's
ancilla blocks are c² rho_t, (sin(phi)/2) rho_t³ twice and s² rho_t (see
``channels.switch_closed_form``), so with s = sin(phi), x = p_g p_e and
gap = p_g - p_e the |+>/|-> outcomes are, with no step that cancels:

* P-+ = (1 -+ s) / 2 +- (3/2) s x, with 1 - s = cos²(phi) / (1 + s);
* dQ-+ = P-+ delta (p_e|-+ - p_e) = +-(delta s / 2) x gap, with
  gap = -expm1(-delta/T) / (2 + expm1(-delta/T));
* p_e|-+ = p_e +- (s/2) x gap / P-+ and p_g|-+ = p_g -+ (s/2) x gap / P-+.

|0>/|1> leave P = cos²(phi/2) or sin²(phi/2), the thermal state and dQ = 0.
:func:`switched` evaluates these over a grid in one numpy pass, :func:`cycles`
the refrigerator cycle (P-, W, Q_C, eta); ``fridge`` and the CLI report them.
The ``probs`` and ``heat`` tables take only the columns they print, from
``_probs`` and ``_heats``: P-+ needs x alone, dQ-+ no conditional
population, and the computational basis no thermal population at all.
:func:`switched` builds on the same helpers, so each formula is written once.

Each value is within a few units in the last place of the exact closed form
of the double arguments, times 1 + delta/T (the condition number of exp), so
each printed 12-digit cell is within one unit in its 12th digit;
``tests/test_kernel.py`` holds both to the 50-digit ``tests/oracles.py``.  The
verification path computes the same numbers independently:
``switch_closed_form`` -> ``post_select`` subtracts nearly equal numbers and
agrees within about eps / gap, the 16-Kraus switch within ``linalg.TOL``.
The gate circuit's check (``circuit.verify_grid``) uses nothing of this
module: its thermal populations come from ``thermo._thermal_excited`` and
its ancilla weights from ``thermo._ancilla_weights``, as the kernel's and
``switch_closed_form``'s do, ``circuit._reference`` writes the four ancilla
blocks from them (``switch_closed_form``'s, bit for bit), and the circuit
runs every gate.

The kernel does not check its arguments; only :func:`absolute` and the
degenerate verdict of :func:`cycles` raise ``ValueError``.  The
transcendental functions run per element as the ``math`` functions:
``exp`` (in ``thermo._thermal_excited``), ``expm1`` (the gap, and
:func:`cycles`' hot-cold difference), and ``log`` and ``log1p`` (the erasure
entropy of :func:`cycles`).  numpy's differ from the C library's in the last
bit for several percent of inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .thermo import PROB_FLOOR, _ancilla_weights, _each, _thermal_excited

__all__ = ["BASES", "Branch", "Switched", "Cycles", "DegenerateCycleError",
           "absolute", "switched", "cycles"]

# Ancilla measurement bases: the outcome names reported in the plus/minus slots.
BASES = {"pm": ("plus", "minus"), "computational": ("zero", "one")}
# The smallest normal double: a T below it is subnormal.
_TINY = float(np.finfo(float).tiny)


class DegenerateCycleError(ValueError):
    """The demon's success probability vanished; the cycle is undefined."""


class Branch(NamedTuple):
    """One ancilla outcome over the grid.

    ``p_g``/``p_e`` are the conditional populations, NaN where ``degenerate``
    (probability at or below ``PROB_FLOOR``); ``dq`` is 0 there.
    """

    outcome: str
    prob: np.ndarray
    p_g: np.ndarray
    p_e: np.ndarray
    dq: np.ndarray
    degenerate: np.ndarray


class Switched(NamedTuple):
    """Both outcomes of the basis, first one in ``plus`` (|+> or |0>)."""

    plus: Branch
    minus: Branch


class Cycles(NamedTuple):
    """Refrigerator cycles over a grid.  Energies carry delta."""

    minus: Branch
    w: np.ndarray
    q_c: np.ndarray
    eta: np.ndarray
    e_minus: np.ndarray
    e_hot: np.ndarray


def absolute(t, delta: float) -> np.ndarray:
    """Absolute temperatures T = t * delta of temperatures in delta/k_B units.

    An infinite t gives T = inf, the maximally mixed state.  A finite t whose
    product with delta leaves the float range, or a positive t whose product
    underflows to 0, raises ``ValueError``: T = inf or 0 is not the t given.
    So does a positive t whose product is subnormal while exp(-delta/T) > 0:
    such a T keeps too few bits for delta/T, and so for p_e.  Where
    exp(-delta/T) is 0, p_e is exactly 0 at T and at the t given.  The
    verdicts are checked in this order, each naming its first grid point.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        temps = t * delta
    verdicts = [(np.isinf(temps) & np.isfinite(t), "exceeds the float range")]
    small = temps < _TINY
    if small.any():  # the rules of a small T
        subnormal = small & (temps > 0.0)
        subnormal[subnormal] = _thermal_excited(delta, temps[subnormal]) > 0.0
        verdicts += [((temps == 0.0) & (t > 0.0), "underflows to 0"),
                     (subnormal, "is subnormal")]
    for bad, verdict in verdicts:
        if bad.any():
            raise ValueError(f"temperature {float(t[bad][0])} times delta {delta} "
                             f"{verdict}")
    return temps


def _branch(outcome: str, prob: np.ndarray, p_g: np.ndarray, p_e: np.ndarray,
            dq: np.ndarray) -> Branch:
    """The outcome with its populations masked where degenerate; ``dq``
    comes masked (see :func:`_pm_heats`)."""
    degenerate = prob <= PROB_FLOOR
    return Branch(outcome, prob, np.where(degenerate, np.nan, p_g),
                  np.where(degenerate, np.nan, p_e), dq, degenerate)


def _pm_probs(phi: float, p_e: np.ndarray) -> tuple[np.ndarray, ...]:
    """x = p_g p_e, P+ and P- at thermal excited populations ``p_e``."""
    s = math.sin(phi)
    x = (1.0 - p_e) * p_e
    return (x, (1.0 + s) / 2.0 - (1.5 * s) * x,
            math.cos(phi) ** 2 / (1.0 + s) / 2.0 + (1.5 * s) * x)


def _pm_heats(delta: float, phi: float, temps: np.ndarray, x: np.ndarray,
              plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, ...]:
    """gap = p_g - p_e, dQ+ and dQ- at absolute temperatures ``temps``, from
    :func:`_pm_probs`' x, P+ and P-; a heat is 0 where its P is at or below
    ``PROB_FLOOR``."""
    with np.errstate(over="ignore"):
        em1 = _each(math.expm1, -delta / temps)
    gap = -em1 / (2.0 + em1)
    dq = (delta * math.sin(phi) / 2.0) * x * gap
    # 0.0 - dq is +0.0 where dq is.
    return (gap, np.where(plus <= PROB_FLOOR, 0.0, 0.0 - dq),
            np.where(minus <= PROB_FLOOR, 0.0, dq))


def _pm(delta: float, phi: float, temps: np.ndarray,
        p_e: np.ndarray) -> tuple[Branch, Branch]:
    """|+> and |-> at absolute temperatures ``temps`` of thermal p_e ``p_e``."""
    x, plus, minus = _pm_probs(phi, p_e)
    gap, dq_plus, dq_minus = _pm_heats(delta, phi, temps, x, plus, minus)
    p_g = 1.0 - p_e
    s = math.sin(phi)
    shift = (s / 2.0) * x * gap
    # _branch masks the quotients where P = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        up, down = shift / plus, shift / minus
    return (_branch("plus", plus, p_g + up, p_e - up, dq_plus),
            _branch("minus", minus, p_g - down, p_e + down, dq_minus))


def _probs(delta: float, phi: float, temps: np.ndarray,
           basis: str) -> tuple[np.ndarray, np.ndarray]:
    """P of both outcomes at each absolute temperature: ``probs``' columns,
    as :func:`switched` gives them.  In the computational basis P does not
    depend on T, and no thermal population is computed."""
    if basis == "pm":
        return _pm_probs(phi, _thermal_excited(delta, temps))[1:]
    return tuple(np.full(temps.shape, p) for p in _ancilla_weights(phi)[:2])


def _heats(delta: float, phi: float, temps: np.ndarray,
           basis: str) -> tuple[np.ndarray, np.ndarray]:
    """dQ of both outcomes at each absolute temperature: ``heat``'s columns,
    as :func:`switched` gives them.  The computational basis leaves the
    thermal state, so both are 0 and no thermal population is computed."""
    if basis == "pm":
        return _pm_heats(delta, phi, temps,
                         *_pm_probs(phi, _thermal_excited(delta, temps)))[1:]
    return np.zeros(temps.shape), np.zeros(temps.shape)


def switched(delta: float, phi: float, temps, basis: str = "pm") -> Switched:
    """Post-selected switch output at each absolute temperature in ``temps``,
    the substance starting in the thermal state of the reservoirs."""
    temps = np.asarray(temps, dtype=float)
    p_e = _thermal_excited(delta, temps)
    if basis == "pm":
        return Switched(*_pm(delta, phi, temps, p_e))
    return Switched(*(_branch(outcome, prob, 1.0 - p_e, p_e, dq)
                      for outcome, prob, dq in zip(BASES[basis],
                                                   _probs(delta, phi, temps, basis),
                                                   _heats(delta, phi, temps, basis))))


def _xlogx(a: np.ndarray) -> np.ndarray:
    """a ln a per element, with 0 ln 0 = 0."""
    out = np.zeros_like(a)
    pos = a > 0.0
    out[pos] = a[pos] * _each(math.log, a[pos])
    return out


def cycles(delta: float, phi: float, t_cold, t_hot, t_reset: float,
           entropy_base: float = math.e) -> Cycles:
    """Refrigerator cycle at each cold temperature in ``t_cold``.

    Temperatures are in delta/k_B units, as in ``fridge.CycleParams``;
    ``t_hot`` is a scalar or an array shaped like ``t_cold``.  Arguments must
    be valid (``CycleParams`` checks them) except for :func:`absolute`'s rule,
    applied to t_cold and, after the degenerate check, to t_hot.  Where t_hot
    equals t_cold (``fridge`` passes the cold grid itself), the cold p_e is
    reused for the hot reservoir instead of computed again.

    Q_C = dQ- / P-, plus delta (p_e(t_cold) - p_e(t_hot)) where they differ.
    eta = Q_C P- / W is evaluated without a floating-point warning.  When W
    underflows so far that Q_C P- / W leaves the float range, or W is 0
    (t_reset * delta underflows), eta is +-inf; where Q_C P- is 0 (no heat
    moves, as at phi = 0) eta is 0 for every W.

    Raises
    ------
    DegenerateCycleError
        At the first cold temperature whose success probability is at or
        below ``PROB_FLOOR``.
    """
    t_cold = np.asarray(t_cold, dtype=float)
    temps = absolute(t_cold, delta)
    p_e = _thermal_excited(delta, temps)
    _, minus = _pm(delta, phi, temps, p_e)
    if minus.degenerate.any():
        i = int(np.argmax(minus.degenerate))
        raise DegenerateCycleError(f"success probability {float(minus.prob[i])!r} "
                                   f"at t_cold={float(t_cold[i])}")
    q_c = minus.dq / minus.prob
    t_hot = np.broadcast_to(t_hot, t_cold.shape)
    if np.array_equal(t_hot, t_cold):
        e_hot = delta * p_e
    else:
        p_e_hot = _thermal_excited(delta, absolute(t_hot, delta))
        e_hot = delta * p_e_hot
        # p_e(t_cold) - p_e(t_hot) cancels where |y| = |1/t_hot - 1/t_cold| < 1;
        # there it is p_g(t_cold) p_e(t_hot) expm1(y), y taken without cancelling.
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.where(np.isinf(t_cold) | np.isinf(t_hot), 1.0 / t_hot - 1.0 / t_cold,
                         (t_cold - t_hot) / t_cold / t_hot)
        close = np.abs(y) < 1.0
        dp_e = (1.0 - p_e) * p_e_hot * _each(math.expm1, np.where(close, y, 0.0))
        q_c = q_c + delta * np.where(close, dp_e, p_e - p_e_hot)
    p = minus.prob
    # (1 - p) ln(1 - p) by log1p: ln of the rounded 1 - p loses p's digits.
    entropy = -(_xlogx(p) + (1.0 - p) * _each(math.log1p, -p))
    if entropy_base != math.e:
        entropy = entropy / math.log(entropy_base)
    w = (t_reset * delta) * entropy
    q = q_c * p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eta = np.where(q == 0.0, q, q / w)
    return Cycles(minus, w, q_c, eta, delta * minus.p_e, e_hot)
