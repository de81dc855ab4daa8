"""The grid kernel against the density-matrix verification path.

The kernel repeats the matrix path's floating-point operations in the same
order, so against ``switch_closed_form`` -> ``post_select`` ->
``internal_energy`` / ``work_of_erasure`` it must agree exactly (``==``).
Against the brute-force 16-Kraus switch, which sums the operators in another
order, it must agree within ``linalg.TOL``.
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
from icotherm.linalg import TOL, DensityMatrix, kron
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
        r = fridge.run_cycle(CycleParams(delta=delta, t_hot=th, t_cold=t,
                                         t_reset=t_reset, phi=phi, entropy_base=base))
        assert r.t_eff_minus == effective_temperature(ps.state, h) / delta


@pytest.mark.parametrize("basis", sorted(kernel.BASES))
@pytest.mark.parametrize("phi", PHIS)
def test_record_states_equal_eager_states(basis, phi):
    """A record's state, built on read, is the one records used to build."""
    h = TwoLevelHamiltonian(1.7)
    sw = kernel.switched(h.delta, phi, np.array(T_GRID) * h.delta, basis)
    for i, t in enumerate(T_GRID):
        pt = fridge.ico_point(h, t * h.delta, phi, basis)
        for ps, br in zip((pt.plus, pt.minus), sw):
            if br.degenerate[i]:
                assert ps.state is None
                continue
            eager = DensityMatrix(np.diag([br.p_g[i], br.p_e[i]]), dims=(2,))
            assert ps.state.dims == eager.dims
            assert np.array_equal(ps.state.mat, eager.mat)
            assert ps.state is ps.state


@pytest.mark.parametrize("phi", PHIS)
def test_rho_minus_equals_eager_state(phi):
    t_cold = np.array(T_GRID[1:])
    c = kernel.cycles(1.7, phi, t_cold, t_cold, 1.0)
    for i, t in enumerate(t_cold.tolist()):
        r = fridge.run_cycle(CycleParams(delta=1.7, t_hot=t, t_cold=t, phi=phi))
        eager = DensityMatrix(np.diag([c.minus.p_g[i], c.minus.p_e[i]]), dims=(2,))
        assert r.rho_minus.dims == eager.dims
        assert np.array_equal(r.rho_minus.mat, eager.mat)
        assert r.rho_minus is r.rho_minus


def test_effective_temperature_sentinels():
    # At phi = 0 the |-> state is thermal: the ground state at t = 1e-3
    # (T_eff = 0) and the maximally mixed state at t = inf (T_eff = inf).
    h = TwoLevelHamiltonian(1.0)
    temps = [1e-3, math.inf]
    t_eff = [fridge.run_cycle(CycleParams(t_hot=1.0, t_cold=t, phi=0.0)).t_eff_minus
             for t in temps]
    assert t_eff == [0.0, math.inf]
    for i, t in enumerate(temps):
        rho_t = thermal_state(h, t)
        ps = post_select(switch_closed_form(AncillaState(0.0), rho_t, rho_t), "minus")
        assert t_eff[i] == effective_temperature(ps.state, h)


@pytest.mark.parametrize("t", [1 / 710, 1 / 720], ids=["1/710", "1/720"])
def test_effective_temperature_where_the_population_ratio_overflows(t):
    # p_e < 5.6e-309, so p_g / p_e overflows while ln p_g - ln p_e does not.
    h = TwoLevelHamiltonian(1.0)
    assert effective_temperature(thermal_state(h, t), h) == pytest.approx(t, rel=1e-12)
    r = fridge.run_cycle(CycleParams(t_hot=1.0, t_cold=t, phi=0.0))
    assert r.t_eff_minus == pytest.approx(t, rel=1e-12)


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
    # The kernel does not check its arguments; ico_point, its entry, does.
    h = TwoLevelHamiltonian(1.0)
    with pytest.raises(ValueError, match="basis"):
        fridge.ico_point(h, 1.0, 0.5, "bell")
    with pytest.raises(ValueError, match="temperature must be positive, got nan"):
        fridge.ico_point(h, math.nan, 0.5)
    with pytest.raises(ValueError, match="phi"):
        fridge.ico_point(h, 1.0, 4.0)


def test_absolute_rejects_finite_overflow():
    np.testing.assert_array_equal(kernel.absolute([math.inf, 1.0], 1e308),
                                  [math.inf, 1e308])
    with pytest.raises(ValueError, match="temperature 2.0 times delta 1e"):
        kernel.absolute([1.0, 2.0], 1e308)


def test_absolute_rejects_finite_underflow():
    np.testing.assert_array_equal(kernel.absolute([math.inf, 1e-5], 1e-310),
                                  [math.inf, 1e-315])
    with pytest.raises(ValueError, match=r"temperature 1e-05 times delta "
                                         r"1e-320 underflows to 0"):
        kernel.absolute([1.0, 1e-5], 1e-320)


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
    tol = TOL
    sw = kernel.switched(delta, phi, [temperature], basis)
    for branch, (prob, dq) in zip(sw, _kraus_outcomes(delta, temperature, phi, basis)):
        assert abs(branch.prob[0] - prob) <= tol
        assert abs(branch.dq[0] - dq) <= tol


# Probabilities the refrigerator feeds to the erasure entropy, and their
# complements: P- over the test grid at every phi, then a uniform grid.
_P_GRIDS = [kernel.cycles(1.0, phi, np.array(T_GRID[1:]), 1.0, 1.0).minus.prob
            for phi in PHIS] + [np.linspace(0.0, 1.0, 1001)]


@pytest.mark.parametrize("p", [
    np.array([0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0 - 2.0 ** -53, 1.0]),
    *_P_GRIDS, *(1.0 - p for p in _P_GRIDS)])
def test_xlogx_equals_scalar_loop(p):
    want = [x * math.log(x) if x > 0.0 else 0.0 for x in p.tolist()]
    got = kernel._xlogx(p)
    assert got.shape == p.shape
    assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def _count_thermal_excited(monkeypatch):
    calls = []
    real = kernel._thermal_excited

    def counting(delta, temps):
        calls.append(len(np.asarray(temps)))
        return real(delta, temps)

    monkeypatch.setattr(kernel, "_thermal_excited", counting)
    return calls


@pytest.mark.parametrize("delta, phi", [(1.0, math.pi / 2), (1.7, 1.234567)])
@pytest.mark.parametrize("hot", ["same", "copy", "scalar"])
def test_cycles_reuses_cold_populations_for_equal_hot(monkeypatch, delta, phi, hot):
    t = np.full(7, 0.7) if hot == "scalar" else np.array(T_GRID[1:])
    t_hot = {"same": t, "copy": t.copy(), "scalar": 0.7}[hot]
    calls = _count_thermal_excited(monkeypatch)
    c = kernel.cycles(delta, phi, t, t_hot, 0.8, 2.0)
    assert calls == [len(t)]
    # The same temperatures with one more, distinct hot point run the
    # two-call path; every field agrees on the shared points.
    calls.clear()
    two = kernel.cycles(delta, phi, np.append(t, 0.5), np.append(t, 0.9), 0.8, 2.0)
    assert calls == [len(t) + 1, len(t) + 1]
    for got, want in zip((*c.minus, *c[1:]), (*two.minus, *two[1:])):
        if isinstance(got, str):
            assert got == want
        else:
            assert np.array_equal(got, want[:-1], equal_nan=got.dtype == float)


def test_cycles_computes_a_different_hot_grid(monkeypatch):
    t = np.array(T_GRID[1:])
    calls = _count_thermal_excited(monkeypatch)
    for t_hot in (0.4, t * 1.5, np.where(t == 1.0, 1.5, t)):
        calls.clear()
        kernel.cycles(1.0, math.pi / 2, t, t_hot, 1.0)
        assert calls == [len(t), len(t)]


def test_cycles_checks_t_hot_after_the_degenerate_verdict():
    # The order mc's messages rely on: a degenerate t_cold is named before
    # an overflowing t_hot * delta, and a sound t_cold lets t_hot's fire.
    with pytest.raises(DegenerateCycleError, match="at t_cold=0.01$"):
        kernel.cycles(1e308, math.pi / 2, [0.01], 2.0, 1.0)
    with pytest.raises(ValueError, match="temperature 2.0 times delta 1e"):
        kernel.cycles(1e308, math.pi / 2, [1.0], 2.0, 1e-308)
