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

Gates act as basis permutations (X, CSWAP, Toffoli) and axis updates
(RY mixes the two index halves of its target, the crusher zeroes their
coherences) on the last two axes of a state or of a stack of states, so
each gate runs once for a whole block of points.  :func:`_blocks` is the
one run path: :func:`verify_grid` runs it over a grid and
:func:`build_switch_circuit` at one point, and it takes only the thermal
populations from :mod:`icotherm.thermo`.  The intermediate states of a run
are validated in batched passes.  :func:`_reference` writes the closed-form
reference from those populations and each point's ancilla weights, which
it also takes from :mod:`icotherm.thermo`; both are validated as stacks,
and the kernel runs none of the gates.

The circuit runs in real arithmetic.  Every unitary kind (RY, X, CSWAP,
Toffoli) is a real orthogonal matrix, the crusher only zeroes entries, and
the start state |0000><0000| and both angles (theta and phi) are real, so
every state of a run is a real symmetric matrix: its states, gates and
checks are float64, and U rho U^T is U rho U†.
:func:`build_switch_circuit` still returns its final state as a complex
:class:`DensityMatrix`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    TOL,
    DensityMatrix,
    ValidationError,
    _trace_out,
    symmetrize,
    validate_states,
)
from .thermo import (TwoLevelHamiltonian, _ancilla_weights, _check_phi,
                     _check_positive, _diagonal, _thermal_excited)

__all__ = [
    "Gate",
    "QubitRegister",
    "ry",
    "x_gate",
    "cswap",
    "toffoli",
    "crush",
    "gate_unitary",
    "embed_unitary",
    "apply_gate",
    "cswap_to_toffoli",
    "thermal_prep_angle",
    "build_switch_circuit",
    "verify_against_kraus",
    "verify_grid",
]

# Grid points whose gates run as one stack, and states per validate_states
# call; a chunk holds whole points, max(1, _CHUNK // states per point) of
# them.  A block's arrays have a fixed size, so memory does not grow with the
# grid.  verify_grid on a 30 x 10 grid, in-process, best of 9 (lower of two
# rounds), in us per point; Python 3.11, numpy 2.4, shared 2-core VM:
#
#   _BLOCK/_CHUNK   6/16  10/16  6/64  8/64  10/32  10/64  10/128  12/64  16/64
#   plain            109     99    88    81     85     76      91     69     66
#   Toffoli          147    135   131   124    132    119     158    113    116
#
# The cost levels off at about 10 points and 64 states, and 128-state chunks
# are slower.  tests/test_circuit.py needs point 10 of a 3 x 4 grid in a later
# block, so _BLOCK <= 10.  Peak RSS after 1 500 circuit_verify requests in one
# process was 35.3-35.4 MB at 10/64 and 35.4-35.6 MB at 6/16.
_BLOCK = 10
_CHUNK = 64


@dataclass(frozen=True)
class Gate:
    """One circuit element.  ``kind`` is one of ry/x/cswap/toffoli/crush.

    ``targets`` are register qubit indices; for cswap the first target is the
    control and ``control_value`` selects which control state activates the
    swap.  crush is the only non-unitary kind (it dephases its target).  An
    ry angle is one float, or a tuple of floats that rotates each state of a
    stack by its own angle.
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | tuple[float, ...] | None = None
    control_value: int = 1

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")
        if self.control_value not in (0, 1):
            raise ValueError(f"control_value must be 0 or 1, got {self.control_value}")


def ry(target: int, angle: float | tuple[float, ...]) -> Gate:
    """Rotation exp(-i sigma_y angle / 2) on one qubit.

    A tuple holds one angle per state of a stack.
    """
    angle = (tuple([float(a) for a in angle]) if isinstance(angle, tuple)
             else float(angle))
    return Gate(kind="ry", targets=(target,), angle=angle)


def x_gate(target: int) -> Gate:
    return Gate(kind="x", targets=(target,))


def cswap(control: int, a: int, b: int, control_value: int = 1) -> Gate:
    """Swap qubits a and b when the control qubit equals ``control_value``."""
    return Gate(kind="cswap", targets=(control, a, b), control_value=control_value)


def toffoli(c1: int, c2: int, target: int) -> Gate:
    """Flip ``target`` when both controls are |1>."""
    return Gate(kind="toffoli", targets=(c1, c2, target))


def crush(target: int) -> Gate:
    """Coherence crusher: zero all coherences of the target qubit."""
    return Gate(kind="crush", targets=(target,))


def _ry_matrix(angle: float) -> list[list[float]]:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return [[c, -s], [s, c]]


def _audited(u: np.ndarray) -> np.ndarray:
    defect = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u
                                 - np.eye(u.shape[-1]))))
    if defect > TOL:
        raise ValidationError(f"gate matrix not unitary: defect {defect:.3e}")
    return u


@functools.lru_cache(maxsize=8)
def _ry_unitary(angle: float | tuple[float, ...]) -> np.ndarray:
    """Audited, read-only RY matrix, or stack of them for an angle tuple.

    The three thermal preparation gates of a :func:`verify_grid` block share
    one angle tuple, so a block builds and audits two stacks, not four.
    """
    u = _audited(np.array([_ry_matrix(a) for a in angle]
                          if isinstance(angle, tuple) else _ry_matrix(angle)))
    u.flags.writeable = False
    return u


def gate_unitary(g: Gate) -> np.ndarray:
    """Local unitary of a gate on its own targets (crush has none).

    An ry gate with a tuple of angles gives a stack of 2x2 unitaries, built
    and audited once per distinct angle tuple and returned read-only.  Every
    kind is real orthogonal, so the matrix is float64; conjugating it
    changes nothing, and it applies to complex states as well.
    """
    if g.kind == "ry":
        return _ry_unitary(g.angle)
    if g.kind == "x":
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
    elif g.kind == "cswap":
        u = np.eye(8)
        # local order (control, a, b); swap the a/b bits on the active branch
        base = 0 if g.control_value == 0 else 4
        u[[base + 1, base + 2]] = u[[base + 2, base + 1]]
    elif g.kind == "toffoli":
        u = np.eye(8)
        u[[6, 7]] = u[[7, 6]]
    elif g.kind == "crush":
        raise ValueError("crush is not unitary")
    else:
        raise ValueError(f"unknown gate kind {g.kind!r}")
    return _audited(u)


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


@functools.cache
def _permutation(g: Gate, n: int) -> np.ndarray:
    """Index array p with U rho U† = rho[p][:, p] for a basis-permuting gate."""
    u = embed_unitary(gate_unitary(g), g.targets, n)
    p = np.abs(u).argmax(axis=1)
    if not np.array_equal(u, np.eye(len(u))[p]):
        raise ValueError(f"{g.kind} gate does not permute basis states")
    return p


def _step(rho: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """One gate on a raw 2^n x 2^n density matrix or on a ``(points, 2^n,
    2^n)`` stack of them (an ry angle tuple holds one angle per point);
    returns a new array."""
    lead, dim = rho.shape[:-2], rho.shape[-1]
    t = g.targets[0]
    if g.kind == "crush":
        out = rho.copy()
        v = out.reshape(*lead, 1 << t, 2, 1 << (n - 1), 2, -1)
        v[..., 0, :, 1, :] = v[..., 1, :, 0, :] = 0.0
        return out
    if g.kind == "ry":
        # U rho U†: the real U mixes the row halves of the target bit, then
        # the column halves; the length-2 axis of each (..., lead, 2, rest)
        # view is that bit.
        u = gate_unitary(g)[..., None, :, :]
        rows = (u @ rho.reshape(*lead, 1 << t, 2, -1)).reshape(rho.shape)
        return symmetrize((u @ rows.reshape(*lead, dim << t, 2, -1))
                          .reshape(rho.shape))
    p = _permutation(g, n)
    return rho.take(p, -2).take(p, -1)


def apply_gate(reg: QubitRegister, g: Gate) -> QubitRegister:
    """Apply one gate and return a new validated register."""
    n = reg.n
    if any(t < 0 or t >= n for t in g.targets):
        raise ValueError(f"gate targets {g.targets} out of range for {n} qubits")
    state = DensityMatrix(_step(reg.state.mat, g, n), dims=reg.state.dims)
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


def thermal_prep_angle(rho_t: DensityMatrix) -> float:
    """Rotation angle theta = arccos(p_g - p_e) preparing given populations.

    Applying ry(theta) to |0> and then a coherence crusher leaves the qubit in
    diag(p_g, p_e).  Requires a 2x2 input state that is diagonal within
    ``linalg.TOL``.
    """
    return _prep_angle(*_diagonal(rho_t))


def _prep_angle(p_g: float, p_e: float) -> float:
    """arccos(p_g - p_e), the gap clamped to [-1, 1]."""
    return math.acos(min(max(p_g - p_e, -1.0), 1.0))


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


def _run_gates(theta: tuple[float, ...], phi: tuple[float, ...],
               decompose_cswap: bool) -> np.ndarray:
    """Raw output of the 4-qubit realization, not yet validated.

    ``theta`` and ``phi`` hold one thermal preparation angle and one ancilla
    angle per point, and the points run as one ``(points, 16, 16)`` stack.
    The run starts from a float64 stack, and the states keep the dtype the
    steps give them: a step that returns a complex array makes the stack
    complex, so no imaginary part is dropped.  Every intermediate state is
    validated before the last gate, in chunks of whole points: each chunk
    stacks the states of ``max(1, _CHUNK // states per point)`` points from
    the steps' own arrays, point by point, so no state is copied into more
    than its own chunk, and the state-by-state re-check of a failing chunk
    names the first bad state of the first bad point.
    """
    rho = np.zeros((len(phi), 16, 16))
    rho[:, 0, 0] = 1.0
    gates = [g for q in (1, 2, 3) for g in (ry(q, theta), crush(q))]
    gates += [ry(0, phi), *_routing_gates(decompose_cswap)]
    steps = []
    for g in gates[:-1]:
        rho = _step(rho, g, 4)
        steps.append(rho)
    k = max(1, _CHUNK // len(steps))
    for p in range(0, len(steps[0]), k):
        validate_states(np.stack([s[p:p + k] for s in steps], axis=-3)
                        .reshape(-1, 16, 16))
    return _step(rho, gates[-1], 4)


def _blocks(h: TwoLevelHamiltonian, temps: Sequence[float],
            phis: Sequence[float], decompose_cswap: bool
            ) -> Iterator[tuple[tuple[float, ...], np.ndarray, np.ndarray]]:
    """Run the circuit at every (temperature, phi) pair, ``_BLOCK`` points at
    a time; yield each block's phis, thermal p_e and validated final states.

    Points run with temperatures outer and phis inner.  Every phi is checked
    first, then every temperature in order, with the rules and messages of
    :func:`thermo._check_phi` and :func:`thermal_state`.  The thermal states
    diag(p_g, p_e) come from one :func:`thermo._thermal_excited` call and are
    validated as one stack; each temperature's preparation angle is
    :func:`_prep_angle` of that stack's populations, as in
    :func:`thermal_prep_angle`, and the p_e yielded with each point's phi is
    that stack's too.  A block's final states are validated as one stack
    before it is yielded, and the next block runs only when the consumer asks
    for it, so memory does not grow with the grid.
    """
    phis = [_check_phi(ph) for ph in phis]
    temps = list(temps)
    for temp in temps:
        _check_positive("temperature", temp)
    if not temps:
        return
    p_e = _thermal_excited(h.delta, temps)
    rho_ts = np.zeros((len(temps), 2, 2))
    rho_ts[:, 0, 0] = 1.0 - p_e
    rho_ts[:, 1, 1] = p_e
    rho_ts = validate_states(rho_ts)
    thetas = [_prep_angle(g, e)
              for g, e in zip(rho_ts[:, 0, 0].tolist(), rho_ts[:, 1, 1].tolist())]
    m = len(phis)
    points = len(temps) * m
    for start in range(0, points, _BLOCK):
        block = [divmod(k, m) for k in range(start, min(start + _BLOCK, points))]
        phi = tuple([phis[j] for _, j in block])
        rho = _run_gates(tuple([thetas[i] for i, _ in block]), phi,
                         decompose_cswap)
        yield phi, rho_ts[[i for i, _ in block], 1, 1], validate_states(rho)


def build_switch_circuit(h: TwoLevelHamiltonian, temperature: float,
                         phi: float, decompose_cswap: bool = False) -> QubitRegister:
    """Run the full 4-qubit realization and return the final register.

    Pipeline: thermal preparation of substance and both reservoirs (ry(theta)
    + crusher each), ancilla rotation ry(phi), then the controlled-SWAP
    routing sequence (optionally expanded into Toffoli gates).  This is
    :func:`verify_grid`'s run (:func:`_blocks`) at one point, with its
    checks and messages.
    """
    (_, _, rho), = _blocks(h, [temperature], [phi], decompose_cswap)
    return QubitRegister(DensityMatrix(rho[0], (2,) * 4))


def verify_against_kraus(h: TwoLevelHamiltonian, temperature: float,
                         phi: float, decompose_cswap: bool = False) -> float:
    """Max entry distance between the circuit marginal and the block closed form.

    Traces the reservoir qubits out of the circuit output and compares the
    ancilla + substance state against the closed form for the same
    temperature and control angle.  The reference (:func:`_reference`)
    equals :func:`switch_closed_form`'s entries bit for bit; only the thermal
    populations and the ancilla weights come from :mod:`icotherm.thermo`,
    and the circuit runs every gate itself.  One point of :func:`verify_grid`.
    """
    return verify_grid(h, [temperature], [phi], decompose_cswap)[0]


def _reference(phis: Sequence[float], p_e: np.ndarray) -> np.ndarray:
    """Closed-form ancilla + substance state at each (phis[k], p_e[k]) point.

    ``p_e`` holds the thermal excited populations; :func:`verify_grid` passes
    its validated thermal stack's.  For p = p_g, p_e the four ancilla blocks
    hold c² p, (sin(phi)/2) p³ twice and s² p on their diagonals, with c²,
    s² and sin(phi)/2 from :func:`thermo._ancilla_weights`, the function
    :func:`switch_closed_form` takes them from; they are written by slice
    into one ``(points, 4, 4)`` float64 stack, which is validated as one
    stack.  Its entries equal the real part of
    ``switch_closed_form(AncillaState(phi), rho_t, rho_t).mat`` bit for bit,
    and that matrix has no imaginary part.
    """
    c2, s2, half_sin = np.array([_ancilla_weights(phi) for phi in phis]).T
    ref = np.zeros((len(phis), 4, 4))
    for k, p in enumerate((1.0 - p_e, p_e)):
        cross = half_sin * (p * p * p)
        ref[:, k, k] = c2 * p
        ref[:, k, k + 2] = ref[:, k + 2, k] = cross
        ref[:, k + 2, k + 2] = s2 * p
    return validate_states(ref)


def verify_grid(h: TwoLevelHamiltonian, temps: Sequence[float],
                phis: Sequence[float], decompose_cswap: bool = False) -> list[float]:
    """:func:`verify_against_kraus` at every (temperature, phi) pair.

    Returns the distances with temperatures outer and phis inner, with the
    checks and messages of :func:`_blocks`, which runs the circuit.  Each
    block is reduced to its distances before the next one runs; its ancilla
    + substance marginals (the reservoirs traced out as
    :func:`partial_trace` traces them, by ``linalg._trace_out``) and its
    closed-form reference (:func:`_reference`) are validated as stacks.
    """
    out: list[float] = []
    for phi, p_e, rho in _blocks(h, temps, phis, decompose_cswap):
        marginals = validate_states(_trace_out(rho, (2,) * 4, (0, 1)))
        out += np.abs(marginals - _reference(phi, p_e)).max(axis=(1, 2)).tolist()
    return out
