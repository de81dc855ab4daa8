"""Gate-level density-matrix simulation of the 4-qubit switch realization.

Register layout: qubit 0 = ancilla, qubit 1 = working substance, qubits 2 and
3 = reservoir qubits (each prepared in the thermal state).  Qubit 0 is the
leftmost tensor factor / most significant bit of a basis index.

The switch is realized by routing the substance through the two reservoir
qubits with four controlled-SWAP gates: on ancilla |0> the substance swaps
with reservoir 1 first and reservoir 2 second, on ancilla |1> in the opposite
order.  Each controlled-SWAP can be expanded into three Toffoli gates (plus X
conjugation of the control for control value 0); the expansion is exact.

Thermal preparation uses a y-rotation by theta = arccos(p_g - p_e) followed by
a coherence crusher (ideal dephasing of the target qubit, modeling a gradient
field pulse).

Gates act as basis permutations (X, SWAP, CSWAP, Toffoli) and axis updates
(RY mixes the two index halves of its target, the crusher zeroes their
coherences); all states of one run are validated in one batched pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    Tolerances,
    ValidationError,
    dagger,
    partial_trace,
    symmetrize,
    validate_states,
)
from .channels import AncillaState, switch_closed_form
from .thermo import TwoLevelHamiltonian, thermal_state

__all__ = [
    "Gate",
    "QubitRegister",
    "ry",
    "x_gate",
    "swap",
    "cswap",
    "toffoli",
    "crush",
    "gate_unitary",
    "embed_unitary",
    "fresh_register",
    "apply_gate",
    "cswap_to_toffoli",
    "thermal_prep_angle",
    "build_switch_circuit",
    "verify_against_kraus",
]

@dataclass(frozen=True)
class Gate:
    """One circuit element.  ``kind`` is one of ry/x/swap/cswap/toffoli/crush.

    ``targets`` are register qubit indices; for cswap the first target is the
    control and ``control_value`` selects which control state activates the
    swap.  crush is the only non-unitary kind (it dephases its target).
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    control_value: int = 1

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")
        if self.control_value not in (0, 1):
            raise ValueError(f"control_value must be 0 or 1, got {self.control_value}")


def ry(target: int, angle: float) -> Gate:
    """Rotation exp(-i sigma_y angle / 2) on one qubit."""
    return Gate(kind="ry", targets=(target,), angle=float(angle))


def x_gate(target: int) -> Gate:
    return Gate(kind="x", targets=(target,))


def swap(a: int, b: int) -> Gate:
    return Gate(kind="swap", targets=(a, b))


def cswap(control: int, a: int, b: int, control_value: int = 1) -> Gate:
    """Swap qubits a and b when the control qubit equals ``control_value``."""
    return Gate(kind="cswap", targets=(control, a, b), control_value=control_value)


def toffoli(c1: int, c2: int, target: int) -> Gate:
    """Flip ``target`` when both controls are |1>."""
    return Gate(kind="toffoli", targets=(c1, c2, target))


def crush(target: int) -> Gate:
    """Coherence crusher: zero all coherences of the target qubit."""
    return Gate(kind="crush", targets=(target,))


def gate_unitary(g: Gate, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Local unitary of a gate on its own targets (crush has none)."""
    if g.kind == "ry":
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        u = np.array([[c, -s], [s, c]], dtype=complex)
    elif g.kind == "x":
        u = np.array([[0, 1], [1, 0]], dtype=complex)
    elif g.kind == "swap":
        u = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    elif g.kind == "cswap":
        u = np.eye(8, dtype=complex)
        # local order (control, a, b); swap the a/b bits on the active branch
        base = 0 if g.control_value == 0 else 4
        u[[base + 1, base + 2]] = u[[base + 2, base + 1]]
    elif g.kind == "toffoli":
        u = np.eye(8, dtype=complex)
        u[[6, 7]] = u[[7, 6]]
    elif g.kind == "crush":
        raise ValueError("crush is not unitary")
    else:
        raise ValueError(f"unknown gate kind {g.kind!r}")
    defect = float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))))
    if defect > tol.validation:
        raise ValidationError(f"gate matrix not unitary: defect {defect:.3e}")
    return u


def embed_unitary(u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Lift a k-qubit operator onto the given register qubits of an n-qubit space.

    Qubit 0 is the most significant bit; ``targets[m]`` carries local bit m.
    """
    k = len(targets)
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"operator shape {u.shape} does not match {k} targets")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    # kron puts the targets on the high bits; move each axis to its qubit.
    order = [*targets, *(q for q in range(n) if q not in targets)]
    axes = np.argsort(order)
    full = np.kron(u, np.eye(1 << (n - k))).reshape((2,) * (2 * n))
    return full.transpose([*axes, *(axes + n)]).reshape(1 << n, 1 << n)


@dataclass(frozen=True)
class QubitRegister:
    """Immutable snapshot of an n-qubit register state."""

    state: DensityMatrix

    def __post_init__(self):
        if self.state.dims != (2,) * self.n:
            raise ValueError(f"state dims {self.state.dims} are not all qubits")

    @property
    def n(self) -> int:
        return len(self.state.dims)


def fresh_register(n: int = 4) -> QubitRegister:
    """All-|0> register."""
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[0, 0] = 1.0
    return QubitRegister(state=DensityMatrix(m, dims=(2,) * n))


@functools.cache
def _permutation(g: Gate, n: int, tol: Tolerances) -> np.ndarray:
    """Index array p with U rho U† = rho[p][:, p] for a basis-permuting gate."""
    u = embed_unitary(gate_unitary(g, tol), g.targets, n)
    p = np.abs(u).argmax(axis=1)
    if not np.array_equal(u, np.eye(len(u))[p]):
        raise ValueError(f"{g.kind} gate does not permute basis states")
    return p


def _step(rho: np.ndarray, g: Gate, n: int, tol: Tolerances) -> np.ndarray:
    """One gate on a raw 2^n x 2^n density matrix; returns a new array."""
    if g.kind == "crush":
        out = rho.copy()
        v = out.reshape(1 << g.targets[0], 2, 1 << (n - 1), 2, -1)
        v[:, 0, :, 1] = v[:, 1, :, 0] = 0.0
        return out
    if g.kind == "ry":
        # U rho U†: U mixes the row halves of the target bit, then conj(U)
        # the column halves; axis 1 of each (lead, 2, rest) view is that bit.
        t = g.targets[0]
        u = gate_unitary(g, tol)
        rows = (u @ rho.reshape(1 << t, 2, -1)).reshape(rho.shape)
        return symmetrize((u.conj() @ rows.reshape(len(rho) << t, 2, -1))
                          .reshape(rho.shape))
    p = _permutation(g, n, tol)
    return rho.take(p, 0).take(p, 1)


def apply_gate(reg: QubitRegister, g: Gate,
               tol: Tolerances = DEFAULT_TOL) -> QubitRegister:
    """Apply one gate and return a new validated register."""
    n = reg.n
    if any(t < 0 or t >= n for t in g.targets):
        raise ValueError(f"gate targets {g.targets} out of range for {n} qubits")
    state = DensityMatrix(_step(reg.state.mat, g, n, tol), dims=reg.state.dims,
                          tol=tol)
    return QubitRegister(state=state)


def cswap_to_toffoli(g: Gate) -> list[Gate]:
    """Exact expansion of a controlled-SWAP into three Toffoli gates.

    For control value 0 the control is conjugated with X gates.
    """
    if g.kind != "cswap":
        raise ValueError(f"expected a cswap gate, got {g.kind!r}")
    c, a, b = g.targets
    core = [toffoli(c, a, b), toffoli(c, b, a), toffoli(c, a, b)]
    if g.control_value == 0:
        return [x_gate(c), *core, x_gate(c)]
    return core


def thermal_prep_angle(rho_t: DensityMatrix,
                       tol: Tolerances = DEFAULT_TOL) -> float:
    """Rotation angle theta = arccos(p_g - p_e) preparing given populations.

    Applying ry(theta) to |0> and then a coherence crusher leaves the qubit in
    diag(p_g, p_e).  Requires a diagonal 2x2 input state.
    """
    if rho_t.dim != 2:
        raise ValueError(f"expected a 2x2 state, got dim {rho_t.dim}")
    off = abs(rho_t.mat[0, 1])
    if off > tol.validation:
        raise ValidationError(f"state not diagonal: |off-diagonal| = {off:.3e}")
    gap = float(rho_t.mat[0, 0].real - rho_t.mat[1, 1].real)
    return math.acos(min(max(gap, -1.0), 1.0))


@functools.cache
def _routing_gates(decompose_cswap: bool) -> tuple[Gate, ...]:
    # substance = 1, reservoir1 = 2, reservoir2 = 3, control = ancilla 0.
    # Ancilla |0>: swap with r1 then r2; ancilla |1>: swap with r2 then r1.
    seq = (
        cswap(0, 1, 2, control_value=0),
        cswap(0, 1, 3, control_value=1),
        cswap(0, 1, 3, control_value=0),
        cswap(0, 1, 2, control_value=1),
    )
    if not decompose_cswap:
        return seq
    return tuple(part for g in seq for part in cswap_to_toffoli(g))


def _run_circuit(rho_t: DensityMatrix, a: AncillaState, decompose_cswap: bool,
                 tol: Tolerances) -> QubitRegister:
    """The 4-qubit realization with every qubit prepared from ``rho_t``."""
    theta = thermal_prep_angle(rho_t, tol)
    reg = fresh_register(4)
    rho = reg.state.mat
    gates = [g for q in (1, 2, 3) for g in (ry(q, theta), crush(q))]
    gates += [ry(0, a.phi), *_routing_gates(decompose_cswap)]
    states = np.empty((len(gates) - 1, *rho.shape), dtype=complex)
    for i, g in enumerate(gates[:-1]):
        states[i] = rho = _step(rho, g, reg.n, tol)
    validate_states(states, tol)
    rho = _step(rho, gates[-1], reg.n, tol)
    return QubitRegister(DensityMatrix(rho, reg.state.dims, tol))


def build_switch_circuit(h: TwoLevelHamiltonian, temperature: float,
                         phi: float, decompose_cswap: bool = False,
                         tol: Tolerances = DEFAULT_TOL) -> QubitRegister:
    """Run the full 4-qubit realization and return the final register.

    Pipeline: thermal preparation of substance and both reservoirs (ry(theta)
    + crusher each), ancilla rotation ry(phi), then the controlled-SWAP
    routing sequence (optionally expanded into Toffoli gates).  Every
    intermediate state is checked like a :class:`DensityMatrix`, in one
    batched pass after the last gate.
    """
    a = AncillaState(phi)
    return _run_circuit(thermal_state(h, temperature, tol), a,
                        decompose_cswap, tol)


def verify_against_kraus(h: TwoLevelHamiltonian, temperature: float,
                         phi: float, decompose_cswap: bool = False,
                         tol: Tolerances = DEFAULT_TOL) -> float:
    """Max entry distance between the circuit marginal and the block closed form.

    Traces the reservoir qubits out of the circuit output and compares the
    ancilla + substance state against :func:`switch_closed_form` computed for
    the same temperature and control angle.  Only the input thermal state is
    shared: the two paths share no switch logic.
    """
    a = AncillaState(phi)
    rho_t = thermal_state(h, temperature, tol)
    reg = _run_circuit(rho_t, a, decompose_cswap, tol)
    marginal = partial_trace(reg.state, keep={0, 1})
    expected = switch_closed_form(a, rho_t, rho_t, tol)
    return float(np.max(np.abs(marginal.mat - expected.mat)))
