"""Thermodynamic quantities for a two-level working substance.

Units: k_B = 1 throughout.  The Hamiltonian is H = delta |e><e| with basis
index 0 = ground |g>, index 1 = excited |e>; the thermal state at temperature
T is the normalized Boltzmann state diag(p_g, p_e) with p_e = exp(-delta/T) /
(1 + exp(-delta/T)), computed only by :func:`_thermal_excited`, over whole
temperature grids: :func:`thermal_state`, ``kernel`` and ``circuit`` call it.
The switch output's ancilla weights cos²(phi/2), sin²(phi/2) and sin(phi)/2
are written once too, in :func:`_ancilla_weights`, and the rule that a qubit
state is diagonal within ``linalg.TOL`` once, in :func:`_diagonal`.

Also provides ancilla post-selection on a joint (ancilla ⊗ system) state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import TOL, DensityMatrix, ValidationError

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


def _check_positive(name: str, temperature: float) -> None:
    if not temperature > 0.0:
        raise ValueError(f"{name} must be positive, got {temperature}")


def _check_phi(phi: float) -> float:
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    return phi


def _check_qubit(rho: DensityMatrix) -> None:
    if rho.dim != 2:
        raise ValueError(f"expected a 2x2 state, got dim {rho.dim}")


def _diagonal(rho: DensityMatrix) -> tuple[float, float]:
    """Populations (p_g, p_e) of a 2x2 state whose |off-diagonal| is within TOL."""
    _check_qubit(rho)
    off = abs(rho.mat[0, 1])
    if off > TOL:
        raise ValidationError(f"state not diagonal: |off-diagonal| = {off:.3e}")
    return float(rho.mat[0, 0].real), float(rho.mat[1, 1].real)


def _check_entropy_base(base: float) -> None:
    if not base > 1.0:
        raise ValueError(f"entropy_base must exceed 1, got {base}")
    if math.isinf(base):
        raise ValueError(f"entropy_base must be finite, got {base}")


@dataclass(frozen=True)
class TwoLevelHamiltonian:
    """H = delta |e><e|, i.e. diag(0, delta); delta is the excitation energy."""

    delta: float = 1.0

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class PostSelection:
    """Outcome of projecting the ancilla of a joint state onto one basis ket.

    ``matrix`` holds the renormalized conditional system state as numbers,
    rows of a 2x2 nested tuple; it is ``None`` when the outcome probability
    is at or below the 1e-12 noise floor, in which case the conditional
    state is undefined.  ``state`` is that matrix as a validated
    :class:`DensityMatrix` (or ``None``), built on the first read and cached.
    """

    outcome: str
    probability: float
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]] | None

    @functools.cached_property
    def state(self) -> DensityMatrix | None:
        return None if self.matrix is None else DensityMatrix(self.matrix, dims=(2,))


def thermal_state(h: TwoLevelHamiltonian, temperature: float) -> DensityMatrix:
    """Normalized Boltzmann state diag(p_g, p_e) at the given temperature.

    ``temperature`` must be positive; ``math.inf`` is accepted and yields the
    maximally mixed state diag(1/2, 1/2).
    """
    _check_positive("temperature", temperature)
    p_e = _thermal_excited(h.delta, temperature)
    return DensityMatrix(np.diag([1.0 - p_e, p_e]), dims=(2,))


def _each(f, a: np.ndarray) -> np.ndarray:
    """``f`` applied per element, for the math functions numpy must not replace."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _thermal_excited(delta: float, temps) -> np.ndarray:
    """Excited population p_e = x / (1 + x), x = exp(-delta / T), per T.

    ``temps`` are absolute temperatures (k_B = 1); ``math.inf`` gives 1/2.
    """
    # delta / T overflows to inf for T -> 0+, and exp(-inf) = 0 is the limit.
    with np.errstate(over="ignore"):
        x = _each(math.exp, -delta / np.asarray(temps, dtype=float))
    return x / (1.0 + x)


def _ancilla_weights(phi: float) -> tuple[float, float, float]:
    """cos²(phi/2), sin²(phi/2) and sin(phi)/2: the weights of the switch
    output's ancilla blocks |0><0|, |1><1| and each off-diagonal one, for the
    control state cos(phi/2)|0> + sin(phi/2)|1>."""
    return math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2, math.sin(phi) / 2.0


def internal_energy(rho: DensityMatrix, h: TwoLevelHamiltonian) -> float:
    """Tr(rho H) = delta * p_e for a two-level state."""
    _check_qubit(rho)
    return h.delta * float(rho.mat[1, 1].real)


def effective_temperature(rho: DensityMatrix, h: TwoLevelHamiltonian) -> float:
    """Temperature whose Boltzmann populations match a diagonal qubit state.

    T_eff = delta / ln(p_g / p_e).  Sentinels: +inf for p_g == p_e (maximally
    mixed), 0.0 for p_e == 0 (ground state).  Population-inverted states
    (p_e > p_g) give a negative temperature; this is intentional, so that
    parameter sweeps never abort on strongly heated conditional states.

    T_eff is exact for the stored populations.  Below T/delta of about
    1/708 a thermal p_e is subnormal and carries fewer than 53 bits, so
    T_eff is off by p_e's own rounding: within (ulp(p_e)/p_e) /
    (ln p_g - ln p_e) + 8 eps relative, 3.4e-4 at T/delta = 1/744.

    Raises
    ------
    ValidationError
        If the state has off-diagonal magnitude above ``linalg.TOL`` (1e-10).
    """
    return _effective_temperature(h.delta, *_diagonal(rho))


def _effective_temperature(delta: float, p_g: float, p_e: float) -> float:
    """delta / ln(p_g / p_e) with :func:`effective_temperature`'s sentinels;
    ln p_g - ln p_e where p_g / p_e overflows (p_e below about 5.6e-309)."""
    # Clamp sub-noise negatives so the log never sees a negative population.
    p_g = max(p_g, 0.0)
    p_e = max(p_e, 0.0)
    if p_e == 0.0:
        return 0.0
    if p_g == p_e:
        return math.inf
    if p_g == 0.0:
        return -0.0
    ratio = p_g / p_e
    log = math.log(ratio) if ratio < math.inf else math.log(p_g) - math.log(p_e)
    return delta / log


def post_select(joint: DensityMatrix, outcome: str) -> PostSelection:
    """Project the ancilla (first factor) of a 4x4 joint state onto one ket.

    The conditional system state is <b| joint |b> / P with
    P = Tr <b| joint |b>; over any complete outcome basis the probabilities
    sum to 1.  Probabilities within 1e-12 of the [0, 1] boundary are clamped.
    The conditional state is validated before the record is returned.
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
    matrix = tuple(map(tuple, (m / prob).tolist())) if prob > PROB_FLOOR else None
    ps = PostSelection(outcome=outcome, probability=prob, matrix=matrix)
    ps.state  # built and validated now, before the record is returned
    return ps


def shannon_entropy(p: Sequence[float], base: float = math.e) -> float:
    """Shannon entropy -sum p ln p with 0 ln 0 = 0 (natural log by default).

    ``p`` must be a probability distribution: entries >= 0 (a -1e-12 noise
    window is clamped) summing to 1 within 1e-10, and ``base`` finite > 1.
    """
    vals = [float(x) for x in p]
    if any(x < -PROB_FLOOR for x in vals):
        raise ValueError(f"negative probability in {vals}")
    vals = [max(x, 0.0) for x in vals]
    if abs(sum(vals) - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {sum(vals)!r}, expected 1")
    _check_entropy_base(base)
    s = -sum(x * math.log(x) for x in vals if x > 0.0)
    if base != math.e:
        s /= math.log(base)
    return s
