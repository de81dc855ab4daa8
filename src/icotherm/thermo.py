"""Thermodynamic quantities for a two-level working substance.

Units: k_B = 1 throughout.  The Hamiltonian is H = delta |e><e| with basis
index 0 = ground |g>, index 1 = excited |e>; the thermal state at temperature
T is the normalized Boltzmann state diag(p_g, p_e) with
p_e = exp(-delta/T) / (1 + exp(-delta/T)).

Also provides ancilla post-selection on a joint (ancilla ⊗ system) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, DensityMatrix, Tolerances, ValidationError

__all__ = [
    "TwoLevelHamiltonian",
    "PostSelection",
    "OUTCOMES",
    "thermal_state",
    "internal_energy",
    "effective_temperature",
    "post_select",
    "shannon_entropy",
]

# Probabilities below this floor are treated as zero; the conditional state is
# then undefined (eigen-noise floor, see PostSelection).
PROB_FLOOR = 1e-12

# Post-selection kets on the ancilla qubit.
_SQ2 = 1.0 / math.sqrt(2.0)
_OUTCOME_KETS = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([_SQ2, _SQ2], dtype=complex),
    "minus": np.array([_SQ2, -_SQ2], dtype=complex),
}
OUTCOMES = tuple(_OUTCOME_KETS)


@dataclass(frozen=True)
class TwoLevelHamiltonian:
    """H = delta |e><e|, i.e. diag(0, delta); delta is the excitation energy."""

    delta: float = 1.0

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"energy gap must be positive, got {self.delta}")

    def matrix(self) -> np.ndarray:
        return np.diag([0.0, self.delta]).astype(complex)


@dataclass(frozen=True)
class PostSelection:
    """Outcome of projecting the ancilla of a joint state onto one basis ket.

    ``state`` is the renormalized conditional system state; it is ``None``
    when the outcome probability is at or below the 1e-12 noise floor, in
    which case the conditional state is undefined.
    """

    outcome: str
    probability: float
    state: DensityMatrix | None


def thermal_state(h: TwoLevelHamiltonian, temperature: float,
                  tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Normalized Boltzmann state diag(p_g, p_e) at the given temperature.

    ``temperature`` must be positive; ``math.inf`` is accepted and yields the
    maximally mixed state diag(1/2, 1/2).
    """
    if not temperature > 0.0 or math.isnan(temperature):
        raise ValueError(f"temperature must be positive, got {temperature}")
    # exp(-delta/T) never overflows for T > 0; it underflows to 0 near T -> 0+.
    x = math.exp(-h.delta / temperature)
    p_e = x / (1.0 + x)
    return DensityMatrix(np.diag([1.0 - p_e, p_e]), dims=(2,), tol=tol)


def internal_energy(rho: DensityMatrix, h: TwoLevelHamiltonian) -> float:
    """Tr(rho H) = delta * p_e for a two-level state."""
    if rho.dim != 2:
        raise ValueError(f"expected a 2x2 state, got dim {rho.dim}")
    return h.delta * float(rho.mat[1, 1].real)


def effective_temperature(rho: DensityMatrix, h: TwoLevelHamiltonian,
                          diag_tol: float = 1e-8) -> float:
    """Temperature whose Boltzmann populations match a diagonal qubit state.

    T_eff = delta / ln(p_g / p_e).  Sentinels: +inf for p_g == p_e (maximally
    mixed), 0.0 for p_e == 0 (ground state).  Population-inverted states
    (p_e > p_g) give a negative temperature; this is intentional, so that
    parameter sweeps never abort on strongly heated conditional states.

    Raises
    ------
    ValidationError
        If the state has off-diagonal magnitude above ``diag_tol``.
    """
    if rho.dim != 2:
        raise ValueError(f"expected a 2x2 state, got dim {rho.dim}")
    off = abs(rho.mat[0, 1])
    if off > diag_tol:
        raise ValidationError(
            f"state is not diagonal: |off-diagonal| = {off:.3e} > {diag_tol:g}"
        )
    # Clamp sub-noise negatives so the log never sees a negative population.
    p_g = max(float(rho.mat[0, 0].real), 0.0)
    p_e = max(float(rho.mat[1, 1].real), 0.0)
    if p_e == 0.0:
        return 0.0
    if p_g == p_e:
        return math.inf
    if p_g == 0.0:
        return -0.0
    return h.delta / math.log(p_g / p_e)


def post_select(joint: DensityMatrix, outcome: str,
                tol: Tolerances = DEFAULT_TOL) -> PostSelection:
    """Project the ancilla (first factor) of a 4x4 joint state onto one ket.

    The conditional system state is <b| joint |b> / P with
    P = Tr <b| joint |b>; over any complete outcome basis the probabilities
    sum to 1.  Probabilities within 1e-12 of the [0, 1] boundary are clamped.
    """
    if outcome not in _OUTCOME_KETS:
        raise ValueError(f"unknown outcome {outcome!r}, expected one of {OUTCOMES}")
    if joint.dim != 4 or joint.dims != (2, 2):
        raise ValueError(
            f"expected a 4x4 ancilla (x) system state, got dims {joint.dims}"
        )
    b = _OUTCOME_KETS[outcome]
    m = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            m += b[i].conjugate() * b[j] * joint.mat[2 * i:2 * i + 2,
                                                     2 * j:2 * j + 2]
    prob = float(np.trace(m).real)
    if prob < -PROB_FLOOR or prob > 1.0 + PROB_FLOOR:
        raise ValidationError(f"outcome probability {prob!r} outside [0, 1]")
    prob = min(max(prob, 0.0), 1.0)
    state = None
    if prob > PROB_FLOOR:
        state = DensityMatrix(m / prob, dims=(2,), tol=tol)
    return PostSelection(outcome=outcome, probability=prob, state=state)


def shannon_entropy(p: Sequence[float], base: float = math.e) -> float:
    """Shannon entropy -sum p ln p with 0 ln 0 = 0 (natural log by default).

    ``p`` must be a probability distribution: entries >= 0 (a -1e-12 noise
    window is clamped) summing to 1 within 1e-10.
    """
    vals = [float(x) for x in p]
    if any(x < -PROB_FLOOR for x in vals):
        raise ValueError(f"negative probability in {vals}")
    vals = [max(x, 0.0) for x in vals]
    if abs(sum(vals) - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {sum(vals)!r}, expected 1")
    s = -sum(x * math.log(x) for x in vals if x > 0.0)
    if base != math.e:
        s /= math.log(base)
    return s
