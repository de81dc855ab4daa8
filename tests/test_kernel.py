"""The grid kernel against the density-matrix verification path.

The kernel repeats the matrix path's floating-point operations in the same
order, so against ``switch_closed_form`` -> ``post_select`` ->
``internal_energy`` / ``work_of_erasure`` it must agree exactly (``==``).
Against the brute-force 16-Kraus switch, which sums the operators in another
order, it must agree within ``Tolerances.validation``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icotherm import fridge, kernel
from icotherm.channels import (
    AncillaState,
    apply_channel,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
)
from icotherm.fridge import CycleParams, DegenerateCycleError, sweep, work_of_erasure
from icotherm.linalg import DEFAULT_TOL, DensityMatrix, kron
from icotherm.thermo import (
    TwoLevelHamiltonian,
    effective_temperature,
    internal_energy,
    post_select,
    thermal_state,
)

PHIS = (0.0, math.pi / 2, math.pi, 1.234567)
DELTAS = (1.0, 1.7)
# delta/k_B units; 0.02 is degenerate for |-> at phi = pi/2, inf is mixed.
# The random points matter: a last-bit change in exp, log or the order of a
# product shows on a few percent of inputs only.
T_GRID = (0.02, 0.05, 0.3, 0.75, 1.0, 2.7, 50.0, 1e6, math.inf,
          *np.geomspace(0.06, 100.0, 200) * np.random.default_rng(7).uniform(0.9, 1.1, 200))


def _reference_outcome(h, temperature, phi, outcome):
    """(P, conditional (p_g, p_e) or None, dQ) from the matrix path."""
    rho_t = thermal_state(h, temperature)
    ps = post_select(switch_closed_form(AncillaState(phi), rho_t, rho_t), outcome)
    if ps.state is None:
        return ps.probability, None, 0.0
    pops = (ps.state.mat[0, 0].real, ps.state.mat[1, 1].real)
    dq = ps.probability * (internal_energy(ps.state, h) - internal_energy(rho_t, h))
    return ps.probability, pops, dq


@pytest.mark.parametrize("basis", sorted(kernel.BASES))
@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("delta", DELTAS)
def test_switched_equals_matrix_path(basis, phi, delta):
    h = TwoLevelHamiltonian(delta)
    temps = np.array(T_GRID) * delta
    sw = kernel.switched(delta, phi, temps, basis)
    for branch, outcome in zip(sw, kernel.BASES[basis]):
        assert branch.outcome == outcome
        for i, temp in enumerate(temps.tolist()):
            prob, pops, dq = _reference_outcome(h, temp, phi, outcome)
            assert branch.prob[i] == prob
            assert branch.degenerate[i] == (pops is None)
            assert branch.dq[i] == dq
            if pops is not None:
                assert (branch.p_g[i], branch.p_e[i]) == pops


@pytest.mark.parametrize("phi, delta, t_hot, base", [
    (PHIS[0], 1.0, None, math.e), (PHIS[1], 1.7, None, 2.0),
    (PHIS[2], 1.0, 0.4, 2.0), (PHIS[3], 1.7, math.inf, math.e),
    (PHIS[1], 1.0, 0.4, math.e)])
def test_cycles_equal_matrix_path(phi, delta, t_hot, base):
    h = TwoLevelHamiltonian(delta)
    t_cold = np.array(T_GRID[1:])
    hot = t_cold if t_hot is None else t_hot
    t_reset = 0.8
    c = kernel.cycles(delta, phi, t_cold, hot, t_reset, base)
    for i, t in enumerate(t_cold.tolist()):
        th = t if t_hot is None else t_hot
        rho_t = thermal_state(h, t * delta)
        ps = post_select(switch_closed_form(AncillaState(phi), rho_t, rho_t), "minus")
        e_minus = internal_energy(ps.state, h)
        e_hot = internal_energy(thermal_state(h, th * delta), h)
        w = work_of_erasure(ps.probability, t_reset * delta, base=base)
        assert c.minus.prob[i] == ps.probability
        assert c.e_minus[i] == e_minus
        assert c.e_hot[i] == e_hot
        assert c.q_c[i] == e_minus - e_hot
        assert c.w[i] == w
        assert c.eta[i] == (e_minus - e_hot) * ps.probability / w
        assert c.minus.dq[i] == ps.probability * (e_minus - internal_energy(rho_t, h))
        assert c.t_eff[i] == effective_temperature(ps.state, h) / delta


def test_effective_temperature_sentinels():
    # At phi = 0 the |-> state is thermal: the ground state at t = 1e-3
    # (T_eff = 0) and the maximally mixed state at t = inf (T_eff = inf).
    h = TwoLevelHamiltonian(1.0)
    temps = [1e-3, math.inf]
    c = kernel.cycles(1.0, 0.0, temps, 1.0, 1.0)
    assert c.t_eff.tolist() == [0.0, math.inf]
    for i, t in enumerate(temps):
        rho_t = thermal_state(h, t)
        ps = post_select(switch_closed_form(AncillaState(0.0), rho_t, rho_t), "minus")
        assert c.t_eff[i] == effective_temperature(ps.state, h)


def test_degenerate_first_point_raises_matrix_path_message():
    delta, phi, t_cold = 1.3, math.pi / 2, 0.01
    h = TwoLevelHamiltonian(delta)
    rho_t = thermal_state(h, t_cold * delta)
    ps = post_select(switch_closed_form(AncillaState(phi), rho_t, rho_t), "minus")
    assert ps.state is None
    want = f"success probability {ps.probability!r} at t_cold={t_cold}"
    with pytest.raises(DegenerateCycleError) as err:
        kernel.cycles(delta, phi, [t_cold, 0.5, 1.0], 1.0, 1.0)
    assert str(err.value) == want
    with pytest.raises(DegenerateCycleError) as err:
        sweep(CycleParams(delta=delta, phi=phi), t_cold, 1.0, 5)
    assert str(err.value) == want
    assert fridge.DegenerateCycleError is kernel.DegenerateCycleError


def test_invalid_arguments():
    with pytest.raises(ValueError, match="basis"):
        kernel.switched(1.0, 0.5, [1.0], "bell")
    with pytest.raises(ValueError, match="temperature must be positive, got nan"):
        kernel.switched(1.0, 0.5, [1.0, math.nan])
    with pytest.raises(ValueError, match="phi"):
        kernel.switched(1.0, 4.0, [1.0])


def test_no_warning_at_zero_probability():
    # phi = 0 in the computational basis puts all weight on |0>: P(|1>) = 0.
    sw = kernel.switched(1.0, 0.0, [0.5, 1.0], "computational")
    assert np.all(sw.minus.prob == 0.0) and np.all(sw.minus.degenerate)
    assert np.all(np.isnan(sw.minus.p_g)) and np.all(sw.minus.dq == 0.0)


def _kraus_outcomes(delta, temperature, phi, basis):
    """(P, dQ) per outcome from the 16-Kraus switch applied to ancilla (x) rho_t."""
    h = TwoLevelHamiltonian(delta)
    ch = make_thermalizing_channel(h, temperature)
    rho_t = thermal_state(h, temperature)
    joint = apply_channel(
        make_quantum_switch(ch, ch),
        DensityMatrix(kron(AncillaState(phi).density().mat, rho_t.mat), dims=(2, 2)))
    out = []
    for outcome in kernel.BASES[basis]:
        ps = post_select(joint, outcome)
        dq = 0.0 if ps.state is None else ps.probability * (
            internal_energy(ps.state, h) - internal_energy(rho_t, h))
        out.append((ps.probability, dq))
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    temperature=st.floats(min_value=0.0, max_value=math.inf, exclude_min=True),
    phi=st.floats(min_value=0.0, max_value=math.pi),
    delta=st.floats(min_value=0.1, max_value=10.0),
    basis=st.sampled_from(sorted(kernel.BASES)),
)
@example(temperature=math.inf, phi=math.pi / 2, delta=1.0, basis="pm")
@example(temperature=5e-324, phi=math.pi / 2, delta=1.0, basis="pm")
@example(temperature=1e-3, phi=1.0, delta=2.0, basis="pm")
def test_kernel_matches_kraus_switch(temperature, phi, delta, basis):
    tol = DEFAULT_TOL.validation
    sw = kernel.switched(delta, phi, [temperature], basis)
    for branch, (prob, dq) in zip(sw, _kraus_outcomes(delta, temperature, phi, basis)):
        assert abs(branch.prob[0] - prob) <= tol
        assert abs(branch.dq[0] - dq) <= tol
