"""Closed-form switch physics over whole temperature grids: the runtime path.

Every number the package reports is a closed-form function of the thermal
populations (p_g, p_e) and the ancilla angle phi.  For the replacement Kraus
family the switch output has ancilla blocks c² rho_t, (sin(phi)/2) rho_t³,
(sin(phi)/2) rho_t³ and s² rho_t (see ``channels.switch_closed_form``), all
diagonal, so projecting the ancilla on a ket b leaves, per population k,

    m_k = sum_ij conj(b_i) b_j [block_ij]_kk,    P = m_g + m_e,

the conditional populations m_k / P and the heat dQ = P (delta m_e/P -
delta p_e).  For |+>/|-> this is P-+ = (1 -+ sin(phi) (p_g³ + p_e³)) / 2.
:func:`switched` evaluates these for a whole grid in one numpy pass and
:func:`cycles` builds the refrigerator cycle (P-, W, Q_C, eta, T_eff) on it.
``fridge`` and the CLI take every reported number from here.  The density
matrix machinery (``switch_closed_form`` and ``post_select``, the 16-Kraus
switch, the gate circuit) computes the same numbers independently and is the
verification path; the tests hold the two paths equal.

The arithmetic repeats the matrix path's floating-point operations in the
same order, so both paths agree bit for bit and the CLI's 12-digit tables do
not depend on which one made them:

* T = t * delta, x = exp(-delta / T), p_e = x / (1 + x), p_g = 1 - p_e;
* the weights conj(b_i) b_j come from ``post_select``'s own kets, so for
  |+>/|-> they are (1/sqrt 2)² = 0.4999999999999999, and the blocks are
  accumulated in the order ij = 00, 01, 10, 11;
* a conditional population is m_k * (1 / P), which is what numpy's complex
  division m / P computes for a real P;
* the erasure entropy is -(p ln p + q ln q), as ``shannon_entropy`` sums it.

``exp`` and ``log`` are applied per element with ``math.exp`` and
``math.log``, not with ``np.exp`` and ``np.log``: numpy's vectorized versions
differ from the C library's in the last bit for a share of inputs (several
percent for ``exp``), which is enough to flip a 12th significant digit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .thermo import _OUTCOME_KETS, PROB_FLOOR

__all__ = ["BASES", "Branch", "Switched", "Cycles", "DegenerateCycleError",
           "absolute", "switched", "cycles"]

# Ancilla measurement bases: the outcome names reported in the plus/minus slots.
BASES = {"pm": ("plus", "minus"), "computational": ("zero", "one")}


class DegenerateCycleError(ValueError):
    """The demon's success probability vanished; the cycle is undefined."""


class Branch(NamedTuple):
    """One ancilla outcome over the grid.

    ``p_g``/``p_e`` are the conditional populations, NaN where ``degenerate``
    (probability at or below ``PROB_FLOOR``, no conditional state); ``dq`` is
    0 there.
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
    """Refrigerator cycles over a grid.  Energies carry delta; ``t_eff`` is
    the conditional state's effective temperature in delta/k_B units."""

    minus: Branch
    w: np.ndarray
    q_c: np.ndarray
    eta: np.ndarray
    e_minus: np.ndarray
    e_hot: np.ndarray
    t_eff: np.ndarray


def _each(f, a: np.ndarray) -> np.ndarray:
    """``f`` applied per element, for the math functions numpy must not replace."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def absolute(t, delta: float) -> np.ndarray:
    """Absolute temperatures T = t * delta of temperatures in delta/k_B units.

    A product past the float range is inf, as it is for Python floats.
    """
    with np.errstate(over="ignore"):
        return np.asarray(t, dtype=float) * delta


def _thermal_excited(delta: float, temps) -> np.ndarray:
    """Excited population p_e = x / (1 + x), x = exp(-delta / T), per T.

    ``temps`` are absolute temperatures (k_B = 1); ``math.inf`` gives 1/2.
    """
    # delta / T overflows to inf for T -> 0+, and exp(-inf) = 0 is the limit.
    with np.errstate(over="ignore"):
        x = _each(math.exp, -delta / np.asarray(temps, dtype=float))
    return x / (1.0 + x)


# Post-selection weights conj(b_i) b_j in the order ij = 00, 01, 10, 11,
# formed from post_select's kets: for |+>/|-> they are +-(1/sqrt 2)².
_WEIGHTS = {name: tuple(float((b[i].conjugate() * b[j]).real)
                        for i in range(2) for j in range(2))
            for name, b in _OUTCOME_KETS.items()}


def _blocks(delta: float, phi: float, temps) -> tuple[np.ndarray, list]:
    """Thermal p_e and, per population (g, e), the diagonals of the switch
    output's ancilla blocks 00, 01, 10, 11."""
    temps = np.asarray(temps, dtype=float)
    bad = ~(temps > 0.0)
    if bad.any():
        raise ValueError(f"temperature must be positive, got {temps[bad][0]}")
    if not (0.0 <= phi <= math.pi):
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    p_e = _thermal_excited(delta, temps)
    c2 = math.cos(phi / 2) ** 2
    s2 = math.sin(phi / 2) ** 2
    half_sin = math.sin(phi) / 2.0
    blocks = []
    for p in (1.0 - p_e, p_e):
        cross = half_sin * (p * p * p)
        blocks.append((c2 * p, cross, cross, s2 * p))
    return p_e, blocks


def _branch(delta: float, p_e: np.ndarray, blocks: list,
            outcome: str) -> Branch:
    w00, w01, w10, w11 = _WEIGHTS[outcome]
    m_g, m_e = (((w00 * d00 + w01 * d01) + w10 * d10) + w11 * d11
                for d00, d01, d10, d11 in blocks)
    prob = np.minimum(np.maximum(m_g + m_e, 0.0), 1.0)
    degenerate = prob <= PROB_FLOOR
    # Where P = 0 the quotient is inf or NaN; those entries are masked.
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / prob
        cond_g = np.where(degenerate, np.nan, m_g * inv)
        cond_e = np.where(degenerate, np.nan, m_e * inv)
    dq = np.where(degenerate, 0.0, prob * (delta * cond_e - delta * p_e))
    return Branch(outcome, prob, cond_g, cond_e, dq, degenerate)


def switched(delta: float, phi: float, temps,
             basis: str = "pm") -> Switched:
    """Post-selected switch output at each absolute temperature in ``temps``.

    The substance starts in the thermal state of the reservoirs' temperature.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be 'pm' or 'computational', got {basis!r}")
    p_e, blocks = _blocks(delta, phi, temps)
    return Switched(*(_branch(delta, p_e, blocks, outcome)
                      for outcome in BASES[basis]))


def _xlogx(a: np.ndarray) -> np.ndarray:
    """a ln a per element, with 0 ln 0 = 0."""
    return np.fromiter((x * math.log(x) if x > 0.0 else 0.0 for x in a.tolist()),
                       float, a.size)


def _effective_temperature(delta: float, p_g: np.ndarray,
                           p_e: np.ndarray) -> np.ndarray:
    """delta / ln(p_g / p_e) with ``thermo.effective_temperature``'s sentinels."""
    p_g = np.maximum(p_g, 0.0)
    p_e = np.maximum(p_e, 0.0)
    t = np.full(p_g.shape, math.inf)  # p_g == p_e: maximally mixed
    regular = (p_g > 0.0) & (p_e > 0.0) & (p_g != p_e)
    with np.errstate(over="ignore"):  # p_g / p_e = inf gives T_eff = 0
        t[regular] = delta / _each(math.log, p_g[regular] / p_e[regular])
    t[p_g == 0.0] = -0.0
    t[p_e == 0.0] = 0.0
    return t


def cycles(delta: float, phi: float, t_cold, t_hot, t_reset: float,
           entropy_base: float = math.e) -> Cycles:
    """Refrigerator cycle at each cold temperature in ``t_cold``.

    Temperatures are in delta/k_B units, as in ``fridge.CycleParams``;
    ``t_hot`` is a scalar or an array shaped like ``t_cold``.  Arguments are
    assumed valid (``CycleParams`` checks them).

    Raises
    ------
    DegenerateCycleError
        At the first cold temperature whose success probability is at or
        below ``PROB_FLOOR``.
    """
    t_cold = np.asarray(t_cold, dtype=float)
    p_e, blocks = _blocks(delta, phi, absolute(t_cold, delta))
    minus = _branch(delta, p_e, blocks, "minus")
    if minus.degenerate.any():
        i = int(np.argmax(minus.degenerate))
        raise DegenerateCycleError(
            f"success probability {float(minus.prob[i])!r} "
            f"at t_cold={float(t_cold[i])}"
        )
    e_minus = delta * minus.p_e
    t_hot = np.broadcast_to(t_hot, t_cold.shape)
    e_hot = delta * _thermal_excited(delta, absolute(t_hot, delta))
    q_c = e_minus - e_hot
    p = minus.prob
    entropy = -(_xlogx(p) + _xlogx(1.0 - p))
    if entropy_base != math.e:
        entropy = entropy / math.log(entropy_base)
    w = (t_reset * delta) * entropy
    eta = q_c * p / w
    t_eff = _effective_temperature(delta, minus.p_g, minus.p_e) / delta
    return Cycles(minus, w, q_c, eta, e_minus, e_hot, t_eff)
