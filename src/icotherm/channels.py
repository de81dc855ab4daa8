"""Kraus channels and the quantum SWITCH of two thermalizing channels.

A channel is a list of Kraus operators {E_k} with sum_k E_k† E_k = I, acting
as rho -> sum_k E_k rho E_k†.  The thermalizing channel used here is the full
replacement map with Kraus family {sqrt(p_i) |i><j|} (4 operators for a
qubit), which sends every input to the thermal state diag(p_g, p_e).

NOTE on the Kraus family: the coherently switched composite depends on the
*operator family*, not just on the channel action.  All closed forms in this
package (the block form of ``switch_closed_form`` and the post-selection
probabilities built on it) hold for the replacement family above; a different
Kraus representation of the same thermalizing action would generally produce
a different switch output.

The quantum SWITCH of channels 1 and 2 is the composite on ancilla ⊗ system
with Kraus operators

    S_ij = |0><0|_a ⊗ E_i^(2) E_j^(1)  +  |1><1|_a ⊗ E_j^(1) E_i^(2),

i.e. ancilla |0> routes the system through channel 1 then channel 2, and
ancilla |1> through channel 2 then channel 1, coherently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL,
    DensityMatrix,
    ValidationError,
    dagger,
    kron,
    symmetrize,
)
from .thermo import TwoLevelHamiltonian, _ancilla_weights, _check_phi, thermal_state

__all__ = [
    "QuantumChannel",
    "CptpReport",
    "AncillaState",
    "validate_cptp",
    "apply_channel",
    "make_thermalizing_channel",
    "compose",
    "make_quantum_switch",
    "switch_closed_form",
]


@dataclass(frozen=True)
class QuantumChannel:
    """Channel in operator-sum form: ordered Kraus operators sharing one dimension.

    Construction checks shapes only; completeness is checked by
    :func:`validate_cptp` (so that deliberately broken channels can still be
    built and reported on) and is enforced by :func:`apply_channel`.
    """

    kraus: tuple[np.ndarray, ...]
    dim: int

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValueError("channel needs at least one Kraus operator")
        ops = []
        for e in self.kraus:
            a = np.asarray(e, dtype=complex)
            if a.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {a.shape} != ({self.dim}, {self.dim})"
                )
            if not np.all(np.isfinite(a.view(float))):
                raise ValueError("Kraus operator contains non-finite entries")
            a = a.copy()
            a.flags.writeable = False
            ops.append(a)
        object.__setattr__(self, "kraus", tuple(ops))


@dataclass(frozen=True)
class CptpReport:
    """Completeness report: max deviation of sum E†E from the identity."""

    deviation: float
    passed: bool


@dataclass(frozen=True)
class AncillaState:
    """Control-qubit state cos(phi/2)|0> + sin(phi/2)|1>, phi in [0, pi].

    phi = 0 is the classical (definite-order) setting; phi = pi/2 is the
    maximally superposed control.
    """

    phi: float

    def __post_init__(self):
        _check_phi(self.phi)

    def ket(self) -> np.ndarray:
        return np.array([math.cos(self.phi / 2), math.sin(self.phi / 2)],
                        dtype=complex)

    def density(self) -> DensityMatrix:
        k = self.ket()
        return DensityMatrix(np.outer(k, k.conjugate()), dims=(2,))


def validate_cptp(ch: QuantumChannel) -> CptpReport:
    """Check the completeness relation sum_k E_k† E_k = I."""
    acc = np.zeros((ch.dim, ch.dim), dtype=complex)
    for e in ch.kraus:
        acc += dagger(e) @ e
    deviation = float(np.max(np.abs(acc - np.eye(ch.dim))))
    return CptpReport(deviation=deviation, passed=deviation <= TOL)


def apply_channel(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply rho -> sum_k E_k rho E_k†; trace-preserving by completeness."""
    if ch.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {rho.dim}")
    report = validate_cptp(ch)
    if not report.passed:
        raise ValidationError(
            f"channel is not trace preserving: deviation {report.deviation:.3e}"
        )
    out = np.zeros_like(rho.mat)
    for e in ch.kraus:
        out = out + e @ rho.mat @ dagger(e)
    return DensityMatrix(symmetrize(out), dims=rho.dims)


def make_thermalizing_channel(h: TwoLevelHamiltonian,
                              temperature: float) -> QuantumChannel:
    """Full-replacement thermalizing channel at the given temperature.

    Kraus family {sqrt(p_i) |i><j| : i, j in {g, e}} with p the Boltzmann
    populations; it maps every input state to diag(p_g, p_e).  ``math.inf``
    is accepted and gives the replacement by the maximally mixed state.
    """
    rho_t = thermal_state(h, temperature)
    p = (float(rho_t.mat[0, 0].real), float(rho_t.mat[1, 1].real))
    ops = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = math.sqrt(max(p[i], 0.0))
            ops.append(e)
    return QuantumChannel(kraus=tuple(ops), dim=2)


def _check_same_dim(a: QuantumChannel, b: QuantumChannel) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def compose(first: QuantumChannel, second: QuantumChannel) -> QuantumChannel:
    """Definite-order concatenation: apply ``first``, then ``second``.

    Kraus set is all pairwise products second_i @ first_j.
    """
    _check_same_dim(first, second)
    ops = tuple(s @ f for s in second.kraus for f in first.kraus)
    return QuantumChannel(kraus=ops, dim=first.dim)


def make_quantum_switch(ch1: QuantumChannel, ch2: QuantumChannel) -> QuantumChannel:
    """Coherent superposition of the two orderings of ch1 and ch2.

    Returns a channel on dimension 2*d (ancilla ⊗ system) whose Kraus
    operators pair each ordering with the matching ancilla projector; the
    Kraus products are formed eagerly (|ch1| * |ch2| operators).
    """
    _check_same_dim(ch1, ch2)
    for name, ch in (("ch1", ch1), ("ch2", ch2)):
        report = validate_cptp(ch)
        if not report.passed:
            raise ValidationError(
                f"{name} is not CPTP: deviation {report.deviation:.3e}"
            )
    d = ch1.dim
    p0 = np.zeros((2, 2), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((2, 2), dtype=complex)
    p1[1, 1] = 1.0
    ops = []
    for e2 in ch2.kraus:
        for e1 in ch1.kraus:
            ops.append(kron(p0, e2 @ e1) + kron(p1, e1 @ e2))
    return QuantumChannel(kraus=tuple(ops), dim=2 * d)


def switch_closed_form(a: AncillaState, rho: DensityMatrix,
                       rho_t: DensityMatrix) -> DensityMatrix:
    """Block closed form of the switched thermalizing channels' output.

    For the replacement Kraus family, the switch of two equal thermalizing
    channels applied to (ancilla ⊗ rho) has ancilla-diagonal blocks
    cos²(phi/2) rho_t and sin²(phi/2) rho_t and ancilla-off-diagonal blocks
    (sin(phi)/2) rho_t rho rho_t.  Agrees with the brute-force Kraus
    application for every phi.
    """
    if rho.dim != 2 or rho_t.dim != 2:
        raise ValueError("closed form is defined for 2x2 states")
    c2, s2, half_sin = _ancilla_weights(a.phi)
    cross = rho_t.mat @ rho.mat @ rho_t.mat
    out = np.zeros((4, 4), dtype=complex)
    out[0:2, 0:2] = c2 * rho_t.mat
    out[2:4, 2:4] = s2 * rho_t.mat
    out[0:2, 2:4] = half_sin * cross
    out[2:4, 0:2] = half_sin * cross
    return DensityMatrix(symmetrize(out), dims=(2, 2))
