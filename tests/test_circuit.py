import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icotherm import circuit
from icotherm.channels import AncillaState, switch_closed_form
from icotherm.circuit import (
    apply_gate,
    build_switch_circuit,
    crush,
    cswap,
    cswap_to_toffoli,
    embed_unitary,
    gate_unitary,
    ry,
    thermal_prep_angle,
    toffoli,
    verify_against_kraus,
    verify_grid,
    x_gate,
    Gate,
    QubitRegister,
)
from icotherm.linalg import (
    DensityMatrix,
    ValidationError,
    dagger,
    kron,
    partial_trace,
    random_density_matrix,
)
from icotherm.thermo import TwoLevelHamiltonian, post_select, thermal_state

import oracles

H = TwoLevelHamiltonian(1.0)

# arccos(p_g - p_e) at delta=1, T=1, from oracles.boltzmann
THETA_T1 = 1.0904152476611673


def ground_register(n):
    """The all-|0> register of n qubits."""
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[0, 0] = 1.0
    return QubitRegister(state=DensityMatrix(m, dims=(2,) * n))


class TestGateUnitaries:
    @pytest.mark.parametrize("g", [
        ry(0, 0.7), x_gate(0), cswap(0, 1, 2),
        cswap(0, 1, 2, control_value=0), toffoli(0, 1, 2),
    ])
    def test_unitary_audit(self, g):
        u = gate_unitary(g)
        assert np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) <= 1e-10

    def test_crush_has_no_unitary(self):
        with pytest.raises(ValueError):
            gate_unitary(crush(0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gate_unitary(Gate(kind="hadamard", targets=(0,)))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            cswap(0, 1, 1)


def test_ry_stacks_built_once_per_block():
    # A block runs four RY gates: the three thermal preparations share one
    # angle tuple, and the ancilla rotation has its own.
    circuit._ry_unitary.cache_clear()
    verify_grid(H, [0.5, 1.0, 2.0], [0.3, 1.2])  # 6 points, one block
    info = circuit._ry_unitary.cache_info()
    assert (info.hits + info.misses, info.misses) == (4, 2)


class TestApplyGate:
    def test_ry_pi_flips_ground(self):
        reg = ground_register(1)
        out = apply_gate(reg, ry(0, math.pi))
        np.testing.assert_allclose(out.state.mat, np.diag([0.0, 1.0]),
                                   atol=1e-10)

    def test_crush_dephases_equal_superposition(self):
        reg = ground_register(1)
        reg = apply_gate(reg, ry(0, math.pi / 2))  # (|0>+|1>)/sqrt(2)
        out = apply_gate(reg, crush(0))
        np.testing.assert_allclose(out.state.mat, np.eye(2) / 2, atol=1e-12)

    def test_crush_idempotent(self):
        rng = np.random.default_rng(1)
        state = random_density_matrix(4, rng, dims=(2, 2))
        reg = QubitRegister(state=state)
        once = apply_gate(reg, crush(1))
        twice = apply_gate(once, crush(1))
        np.testing.assert_allclose(once.state.mat, twice.state.mat, atol=1e-12)

    def test_crush_only_touches_target(self):
        rng = np.random.default_rng(2)
        state = random_density_matrix(4, rng, dims=(2, 2))
        reg = QubitRegister(state=state)
        out = apply_gate(reg, crush(0))
        np.testing.assert_allclose(partial_trace(out.state, {1}).mat,
                                   partial_trace(state, {1}).mat, atol=1e-12)

    def test_bad_targets(self):
        reg = ground_register(2)
        with pytest.raises(ValueError):
            apply_gate(reg, x_gate(5))


class TestEmbedding:
    def test_single_qubit_positions(self):
        x = gate_unitary(x_gate(0))
        np.testing.assert_allclose(embed_unitary(x, (0,), 2),
                                   kron(x, np.eye(2)), atol=1e-15)
        np.testing.assert_allclose(embed_unitary(x, (1,), 2),
                                   kron(np.eye(2), x), atol=1e-15)

    def test_adjacent_two_qubit(self):
        s = kron(gate_unitary(x_gate(0)), gate_unitary(ry(0, 0.3)))
        np.testing.assert_allclose(embed_unitary(s, (0, 1), 2), s, atol=1e-15)

    def test_target_order_matters_for_asymmetric_gates(self):
        # toffoli with swapped control/target placement
        t = gate_unitary(toffoli(0, 1, 2))
        u_fwd = embed_unitary(t, (0, 1, 2), 3)
        u_rev = embed_unitary(t, (2, 1, 0), 3)
        # |110> flips qubit 2 in forward layout; |011> flips qubit 0 reversed
        v = np.zeros(8)
        v[0b110] = 1.0
        got = u_fwd @ v
        assert got[0b111] == pytest.approx(1.0)
        v = np.zeros(8)
        v[0b011] = 1.0
        got = u_rev @ v
        assert got[0b111] == pytest.approx(1.0)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            embed_unitary(np.eye(4, dtype=complex), (0,), 2)
        with pytest.raises(ValueError):
            embed_unitary(np.eye(2, dtype=complex), (3,), 2)


class TestCswapDecomposition:
    @pytest.mark.parametrize("control_value", [0, 1])
    def test_three_toffoli_expansion_matches(self, control_value):
        g = cswap(0, 1, 2, control_value=control_value)
        direct = embed_unitary(gate_unitary(g), g.targets, 3)
        expanded = np.eye(8, dtype=complex)
        for part in cswap_to_toffoli(g):
            expanded = embed_unitary(gate_unitary(part), part.targets,
                                     3) @ expanded
        assert np.max(np.abs(direct - expanded)) <= 1e-10

    def test_gate_counts(self):
        assert len(cswap_to_toffoli(cswap(0, 1, 2))) == 3
        assert len(cswap_to_toffoli(cswap(0, 1, 2, control_value=0))) == 5

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            cswap_to_toffoli(toffoli(0, 1, 2))


class TestThermalPrep:
    def test_pure_ground(self):
        assert thermal_prep_angle(DensityMatrix(np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        assert thermal_prep_angle(DensityMatrix(np.eye(2) / 2)) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_unit_temperature_angle(self):
        theta = thermal_prep_angle(thermal_state(H, 1.0))
        assert theta == pytest.approx(THETA_T1, abs=1e-12)

    def test_rotation_plus_crush_prepares_populations(self):
        for t in (0.3, 1.0, 2.4):
            rho_t = thermal_state(H, t)
            theta = thermal_prep_angle(rho_t)
            reg = ground_register(1)
            reg = apply_gate(reg, ry(0, theta))
            reg = apply_gate(reg, crush(0))
            np.testing.assert_allclose(reg.state.mat, rho_t.mat, atol=1e-10)

    def test_rejects_coherent_input(self):
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        with pytest.raises(ValidationError):
            thermal_prep_angle(plus)


class TestSwitchCircuit:
    def test_classical_control_keeps_definite_order(self):
        reg = build_switch_circuit(H, 1.0, 0.0)
        marginal = partial_trace(reg.state, keep={0, 1})
        expected = kron(np.diag([1.0, 0.0]), thermal_state(H, 1.0).mat)
        np.testing.assert_allclose(marginal.mat, expected, atol=1e-10)

    def test_matches_closed_form_at_balanced_control(self):
        assert verify_against_kraus(H, 1.0, math.pi / 2) < 1e-10

    def test_matches_closed_form_low_temperature_classical(self):
        assert verify_against_kraus(H, 0.5, 0.0) < 1e-10

    @pytest.mark.parametrize("decompose", [False, True])
    def test_grid_equivalence(self, decompose):
        for t in np.linspace(0.2, 3.0, 5):
            for phi in np.linspace(0.0, math.pi, 5):
                d = verify_against_kraus(H, float(t), float(phi),
                                         decompose_cswap=decompose)
                assert d < 1e-10

    def test_decomposition_equivalent_end_to_end(self):
        plain = build_switch_circuit(H, 0.8, 1.1)
        expanded = build_switch_circuit(H, 0.8, 1.1, decompose_cswap=True)
        assert np.max(np.abs(plain.state.mat - expanded.state.mat)) < 1e-10

    def test_marginal_post_selection_matches_kraus_path(self):
        # the central equivalence: P and the conditional states agree between
        # the gate-level realization and the operator-sum pipeline
        for t in (0.4, 1.0, 2.2):
            for phi in (0.3, math.pi / 2):
                reg = build_switch_circuit(H, t, phi)
                marginal = partial_trace(reg.state, keep={0, 1})
                want = oracles.ico_brute_force(1.0, t, phi)
                for outcome, p_key, s_key in (
                        ("minus", "p_minus", "rho_minus"),
                        ("plus", "p_plus", "rho_plus")):
                    ps = post_select(marginal, outcome)
                    assert ps.probability == pytest.approx(want[p_key],
                                                           abs=1e-10)
                    np.testing.assert_allclose(ps.state.mat, want[s_key],
                                               atol=1e-10)

    def test_register_size(self):
        reg = build_switch_circuit(H, 1.0, 0.5)
        assert reg.n == 4

    @pytest.mark.parametrize("dims", [(4,), (2, 3)])
    def test_register_rejects_non_qubit_factors(self, dims):
        state = DensityMatrix(np.eye(math.prod(dims)) / math.prod(dims), dims=dims)
        with pytest.raises(ValueError, match="not all qubits"):
            QubitRegister(state=state)

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            build_switch_circuit(H, 1.0, -0.2)

    @pytest.mark.parametrize("decompose", [False, True])
    def test_verify_builds_one_thermal_state(self, monkeypatch, decompose):
        # Every thermal population of a grid comes from one kernel call.
        calls = []
        thermal_excited = circuit._thermal_excited

        def counting(*args):
            calls.append(args)
            return thermal_excited(*args)

        monkeypatch.setattr(circuit, "_thermal_excited", counting)
        d = verify_against_kraus(H, 0.9, 1.1, decompose_cswap=decompose)
        assert len(calls) == 1 and d < 1e-10
        with pytest.raises(ValueError, match="phi must lie"):
            verify_against_kraus(H, 1.0, 4.0)
        assert len(calls) == 1
        # Two blocks of points, still one call.
        d = verify_grid(H, [0.5, 0.9, 2.0], [0.0, 0.7, 1.2, math.pi],
                        decompose_cswap=decompose)
        assert len(calls) == 2 and len(d) == 12


def _dense_reference(rho, g, n):
    """U rho U† with the embedded unitary, or P0 rho P0 + P1 rho P1 for crush."""
    if g.kind == "crush":
        projectors = [embed_unitary(np.diag(d).astype(complex), g.targets, n)
                      for d in ([1.0, 0.0], [0.0, 1.0])]
        return sum(p @ rho @ p for p in projectors)
    u = embed_unitary(gate_unitary(g), g.targets, n)
    return u @ rho @ dagger(u)


_ARITY = {"ry": 1, "x": 1, "crush": 1, "cswap": 3, "toffoli": 3}


@st.composite
def _gate_on_register(draw):
    kind = draw(st.sampled_from(sorted(_ARITY)))
    n = draw(st.integers(_ARITY[kind], 4))
    targets = tuple(draw(st.permutations(range(n)))[:_ARITY[kind]])
    g = Gate(kind=kind, targets=targets,
             angle=draw(st.floats(0.0, 2 * math.pi)) if kind == "ry" else None,
             control_value=draw(st.integers(0, 1)) if kind == "cswap" else 1)
    return g, n, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gate_on_register())
def test_apply_gate_matches_dense_reference(case):
    g, n, seed = case
    state = random_density_matrix(1 << n, np.random.default_rng(seed))
    reg = QubitRegister(state=state)
    out = apply_gate(reg, g)
    assert np.max(np.abs(out.state.mat - _dense_reference(state.mat, g, n))) <= 1e-14


def _corrupt(kind, rho):
    bad = rho.astype(complex) if kind == "imaginary" else rho.copy()
    if kind == "hermiticity":
        bad[0, 1] += 1e-6
    elif kind == "imaginary":  # a real run must not drop it
        bad[0, 1] += 1e-6j
    elif kind == "trace":
        bad *= 1.001
    else:  # move weight off the smallest population: a negative eigenvalue
        lo, hi = np.argmin(bad.diagonal().real), np.argmax(bad.diagonal().real)
        bad[lo, lo] -= 1e-3
        bad[hi, hi] += 1e-3
    return bad


_KINDS = ["hermiticity", "imaginary", "trace", "eigenvalue"]


@pytest.mark.bit_exact
@pytest.mark.parametrize("decompose", [False, True])
@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("where", ["first", "middle", "second_to_last", "last"])
def test_every_intermediate_state_is_validated(monkeypatch, decompose, kind, where):
    gates = 7 + (16 if decompose else 4)
    at = {"first": 0, "middle": gates // 2, "second_to_last": gates - 2,
          "last": gates - 1}[where]
    step, calls, seen = circuit._step, [], []

    def corrupting(rho, g, n):
        out = step(rho, g, n)
        if len(calls) == at:
            bad = _corrupt(kind, out[0])
            out = out.astype(bad.dtype)
            out[0] = bad
            seen.append(bad)
        calls.append(g)
        return out

    monkeypatch.setattr(circuit, "_step", corrupting)
    with warnings.catch_warnings(), pytest.raises(ValidationError) as got:
        warnings.simplefilter("error")
        build_switch_circuit(H, 0.9, 1.2, decompose_cswap=decompose)
    # all intermediate states are built before the one batched check
    assert len(calls) == (gates if where == "last" else gates - 1)
    with pytest.raises(ValidationError) as want:
        DensityMatrix(seen[0])
    assert str(got.value) == str(want.value)


_TEMPS = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-3, math.inf]))
_PHIS = st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi]))


# One temperature per point of a block, from 1e-3 up to inf.
_BLOCK_TEMPS = [*np.geomspace(1e-3, 1e3, circuit._BLOCK - 1).tolist(), math.inf]


@pytest.mark.bit_exact
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_TEMPS, min_size=1, max_size=5),
       st.lists(_PHIS, min_size=1, max_size=4), st.booleans())
@example([1.0], [math.pi / 2], False)  # one point
@example(_BLOCK_TEMPS, [1.2], True)  # exactly one block
@example(_BLOCK_TEMPS, [0.0, math.pi], False)  # exactly two blocks
def test_grid_equals_one_point_calls(temps, phis, decompose):
    # Per point: the one-state circuit, partial_trace and the closed form.
    want = []
    for t in temps:
        rho_t = thermal_state(H, t)
        for phi in phis:
            reg = build_switch_circuit(H, t, phi, decompose_cswap=decompose)
            marginal = partial_trace(reg.state, keep={0, 1})
            expected = switch_closed_form(AncillaState(phi), rho_t, rho_t)
            want.append(float(np.max(np.abs(marginal.mat - expected.mat))))
    assert verify_grid(H, temps, phis, decompose_cswap=decompose) == want


@pytest.mark.bit_exact
@pytest.mark.parametrize("decompose", [False, True])
@pytest.mark.parametrize("delta", [1.0, 7.5])
def test_one_point_run_is_its_state_in_a_grid_stack(delta, decompose):
    # build_switch_circuit's state is the complex copy of its point's state
    # in one stack over all the points, bit for bit.
    h = TwoLevelHamiltonian(delta)
    temps = [1e-3, 0.2, 0.9, 3.0, 1e3, math.inf]
    phis = [0.0, 0.7, math.pi / 2, 2.3, math.pi]
    points = [(t, phi) for t in temps for phi in phis]
    thetas = {t: thermal_prep_angle(thermal_state(h, t)) for t in temps}
    stack = circuit._run_gates(tuple([thetas[t] for t, _ in points]),
                               tuple([phi for _, phi in points]), decompose)
    for (t, phi), want in zip(points, stack):
        got = build_switch_circuit(h, t, phi, decompose_cswap=decompose).state.mat
        assert got.dtype == np.complex128
        assert np.array_equal(got, want.astype(complex))


@pytest.mark.parametrize("temp, phi", [
    *((t, 0.5) for t in (0.0, -1.0, math.nan)),
    *((1.0, phi) for phi in (-0.1, math.nan)),
    (math.nan, -0.1),
])
def test_one_point_run_raises_as_the_grid(temp, phi):
    with pytest.raises(ValueError) as want:
        verify_grid(H, [temp], [phi])
    with pytest.raises(type(want.value)) as got:
        build_switch_circuit(H, temp, phi)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("decompose", [False, True])
@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_grid_names_the_corrupted_state(monkeypatch, decompose, kind, where):
    # Point 10 of a 3 x 4 grid is corrupted in a later block.  Point 11, in
    # the same block, gets a larger trace defect at the same gate, or at
    # the block's first gate when point 10's is in the middle: the error must
    # still name point 10, the first bad point.
    block, p = divmod(10, circuit._BLOCK)
    assert block > 0 and p + 1 < circuit._BLOCK
    gates = 7 + (16 if decompose else 4)
    first = block * gates
    at = first + {"first": 0, "middle": gates // 2, "last": gates - 1}[where]
    other = first if where == "middle" else at
    step, calls, seen = circuit._step, [], []

    def corrupting(rho, g, n):
        out = step(rho, g, n)
        if len(calls) == other:
            out[p + 1] *= 1.01
        if len(calls) == at:
            bad = _corrupt(kind, out[p])
            out = out.astype(bad.dtype)
            out[p] = bad
            seen.append(bad)
        calls.append(g)
        return out

    monkeypatch.setattr(circuit, "_step", corrupting)
    with warnings.catch_warnings(), pytest.raises(ValidationError) as got:
        warnings.simplefilter("error")
        verify_grid(H, [0.5, 0.9, 2.0], [0.0, 0.7, 1.2, math.pi],
                    decompose_cswap=decompose)
    assert len(calls) == first + gates - (where != "last")
    with pytest.raises(ValidationError) as want:
        DensityMatrix(seen[0])
    assert str(got.value) == str(want.value)


def test_valid_grid_is_certified_without_eigvalsh(monkeypatch):
    # Every state of a valid grid passes the Cholesky certificate, so the
    # eigvalsh fallback of linalg._check_states never runs.
    def refused(a):
        raise AssertionError("eigvalsh ran on a valid circuit state")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    d = verify_grid(H, [0.5, 0.9, 2.0], [0.0, 0.7, 1.2, math.pi],
                    decompose_cswap=True)
    assert len(d) == 12 and max(d) < 1e-10


def test_grid_checks_every_phi_before_any_thermal_state(monkeypatch):
    monkeypatch.setattr(circuit, "_thermal_excited", None)
    with pytest.raises(ValueError, match="phi must lie"):
        verify_grid(H, [1.0, 2.0], [0.5, 4.0])
    # phi first even when a temperature is bad too
    with pytest.raises(ValueError, match="phi must lie"):
        verify_grid(H, [1.0, math.nan], [4.0])


def test_grid_checks_temperatures_in_order():
    with pytest.raises(ValueError) as got:
        verify_grid(H, [1.0, 0.0, -1.0], [0.5])
    assert str(got.value) == "temperature must be positive, got 0.0"
    # the rule holds with no phi to run
    with pytest.raises(ValueError, match="temperature must be positive, got nan"):
        verify_grid(H, [math.nan], [])


def test_empty_grid():
    assert verify_grid(H, [], [0.5]) == []
    assert verify_grid(H, [1.0], []) == []
    assert verify_grid(H, [], []) == []


def test_thermal_check_names_the_bad_state(monkeypatch):
    # A population above 1 fails the thermal stack's check with the message
    # DensityMatrix gives that state, before any gate runs.
    monkeypatch.setattr(circuit, "_thermal_excited",
                        lambda delta, temps: np.full(len(temps), 1.5))
    monkeypatch.setattr(circuit, "_step", None)
    with pytest.raises(ValidationError) as got:
        verify_grid(H, [0.9, 2.0], [0.7])
    with pytest.raises(ValidationError) as want:
        DensityMatrix(np.diag([1.0 - 1.5, 1.5]))
    assert str(got.value) == str(want.value)


def test_reference_check_names_the_bad_state(monkeypatch):
    # A negative population given to the reference (p_g = 1 - (p_e + 1) < 0,
    # trace still 1) fails the reference's check with the message
    # DensityMatrix gives that state.
    reference = circuit._reference
    monkeypatch.setattr(circuit, "_reference",
                        lambda phis, p_e: reference(phis, p_e + 1.0))
    with pytest.raises(ValidationError) as got:
        verify_grid(H, [0.9], [0.7])
    p_e = circuit._thermal_excited(H.delta, [0.9])[0] + 1.0
    c2 = math.cos(0.7 / 2) ** 2
    s2 = math.sin(0.7 / 2) ** 2
    half_sin = math.sin(0.7) / 2.0
    bad = np.zeros((4, 4))
    for k, p in enumerate((1.0 - p_e, p_e)):
        bad[k, k] = c2 * p
        bad[k, k + 2] = bad[k + 2, k] = half_sin * (p * p * p)
        bad[k + 2, k + 2] = s2 * p
    assert bad[0, 0] < 0.0
    with pytest.raises(ValidationError) as want:
        DensityMatrix(bad)
    assert str(got.value) == str(want.value)


# Temperatures from p_e ~ 0 to p_e = 1/2, and phi at both ends and between.
_REAL_TEMPS = [*(10.0 ** k for k in range(-3, 4)), math.inf]
_REAL_PHIS = [0.0, 0.7, math.pi / 2, math.pi]


@pytest.mark.bit_exact
@pytest.mark.parametrize("decompose", [False, True])
def test_real_run_equals_complex_run(monkeypatch, decompose):
    # Every gate is real, so the float64 run is the complex128 run's real
    # part, bit for bit, and that run's imaginary parts are all zero.
    thetas = [thermal_prep_angle(thermal_state(H, t)) for t in _REAL_TEMPS]
    points = [(th, ph) for th in thetas for ph in _REAL_PHIS]
    step = circuit._step
    # One point at a time, and all of them as one stack.
    runs = [*(((th,), (ph,)) for th, ph in points), tuple(zip(*points))]
    for theta, phi in runs:
        gates = []

        def recording(rho, g, n):
            gates.append(g)
            return step(rho, g, n)

        monkeypatch.setattr(circuit, "_step", recording)
        real = circuit._run_gates(theta, phi, decompose)
        assert real.dtype == np.float64
        rho = np.zeros(real.shape, dtype=complex)
        rho[..., 0, 0] = 1.0
        for g in gates:
            rho = step(rho, g, 4)
        assert rho.dtype == np.complex128
        assert np.array_equal(real, rho.real) and not rho.imag.any()


@pytest.mark.parametrize("decompose", [False, True])
def test_grid_equals_complex_grid(monkeypatch, decompose):
    want = verify_grid(H, _REAL_TEMPS, _REAL_PHIS, decompose_cswap=decompose)
    step = circuit._step
    monkeypatch.setattr(circuit, "_step",
                        lambda rho, g, n: step(rho.astype(complex), g, n))
    assert verify_grid(H, _REAL_TEMPS, _REAL_PHIS, decompose_cswap=decompose) == want


# Seeded phis in [0, pi], and the first two of
# np.random.default_rng(23).uniform(0, pi, 100_000) where numpy's vectorized
# np.cos(phi / 2) ** 2 differs from math.cos(phi / 2) ** 2 (x86-64, numpy 2.4):
# a reference that took c² from numpy would fail there.
_REFERENCE_PHIS = [*_REAL_PHIS, *np.random.default_rng(5).uniform(0.0, math.pi, 12).tolist(),
                   3.048620531260143, 1.288837122808728]


@pytest.mark.bit_exact
@pytest.mark.parametrize("delta", [1e-3, 1.0, 7.5])
def test_reference_equals_switch_closed_form(delta):
    # The circuit's reference is switch_closed_form's matrix bit for bit, from
    # p_e = 0 (exp(-delta / T) underflows) up to p_e = 1/2 (T = inf).
    h = TwoLevelHamiltonian(delta)
    points = [(t, phi) for t in _REAL_TEMPS for phi in _REFERENCE_PHIS]
    temps, phis = zip(*points)
    ref = circuit._reference(phis, circuit._thermal_excited(delta, temps))
    assert ref.dtype == np.float64 and ref.shape == (len(points), 4, 4)
    for got, (t, phi) in zip(ref, points):
        rho_t = thermal_state(h, t)
        want = switch_closed_form(AncillaState(phi), rho_t, rho_t).mat
        assert np.array_equal(got, want.real) and not want.imag.any()
