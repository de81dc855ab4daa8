import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icotherm.channels import (
    AncillaState,
    QuantumChannel,
    apply_channel,
    compose,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
    validate_cptp,
)
from icotherm.linalg import (TOL, DensityMatrix, ValidationError, kron,
                             random_density_matrix)
from icotherm.thermo import TwoLevelHamiltonian, thermal_state

import oracles

H = TwoLevelHamiltonian(1.0)

# Boltzmann populations at delta=1, T=1, computed by oracles.boltzmann
P_G = 0.7310585786300049
P_E = 0.2689414213699951
TR_RHO_T_CUBED = 0.41016420027555445


def _identity(dim):
    return QuantumChannel((np.eye(dim),), dim)


def test_frozen_populations_match_oracle():
    np.testing.assert_allclose(oracles.boltzmann(1.0, 1.0), [P_G, P_E],
                               atol=1e-15)


class TestValidateCptp:
    def test_identity_passes(self):
        rep = validate_cptp(_identity(2))
        assert rep.deviation == 0.0 and rep.passed

    def test_scaled_identity_fails(self):
        ch = QuantumChannel(kraus=(0.5 * np.eye(2, dtype=complex),), dim=2)
        rep = validate_cptp(ch)
        assert rep.deviation == pytest.approx(0.75, abs=1e-15)
        assert not rep.passed

    def test_thermalizing_kraus_complete(self):
        rep = validate_cptp(make_thermalizing_channel(H, 1.0))
        assert rep.passed and rep.deviation <= 1e-10


class TestApplyChannel:
    def test_identity_preserves_state(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(2, rng)
        out = apply_channel(_identity(2), rho)
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_thermalizing_excited_input(self):
        ch = make_thermalizing_channel(H, 1.0)
        excited = DensityMatrix(np.diag([0.0, 1.0]))
        out = apply_channel(ch, excited)
        np.testing.assert_allclose(np.diag(out.mat).real, [P_G, P_E], atol=1e-10)

    def test_thermalizing_forgets_input(self):
        # full replacement: the output is the thermal state for any input
        rng = np.random.default_rng(1)
        ch = make_thermalizing_channel(H, 0.7)
        target = thermal_state(H, 0.7).mat
        for _ in range(10):
            out = apply_channel(ch, random_density_matrix(2, rng))
            np.testing.assert_allclose(out.mat, target, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(_identity(2),
                          DensityMatrix(np.eye(4) / 4, dims=(2, 2)))

    def test_broken_channel_rejected(self):
        ch = QuantumChannel(kraus=(0.5 * np.eye(2, dtype=complex),), dim=2)
        with pytest.raises(ValidationError):
            apply_channel(ch, DensityMatrix(np.eye(2) / 2))


class TestThermalizingChannel:
    def test_infinite_temperature_gives_maximally_mixed(self):
        ch = make_thermalizing_channel(H, math.inf)
        out = apply_channel(ch, DensityMatrix(np.diag([1.0, 0.0])))
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_near_zero_temperature_gives_ground(self):
        ch = make_thermalizing_channel(H, 1e-6)
        out = apply_channel(ch, DensityMatrix(np.eye(2) / 2))
        np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-9)

    def test_four_kraus_operators(self):
        assert len(make_thermalizing_channel(H, 1.0).kraus) == 4

    def test_invalid_temperature(self):
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                make_thermalizing_channel(H, t)


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(2)
        ch = make_thermalizing_channel(H, 1.3)
        both = compose(_identity(2), ch)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(apply_channel(both, rho).mat,
                                   apply_channel(ch, rho).mat, atol=1e-12)

    def test_thermalizing_twice_equals_once(self):
        rng = np.random.default_rng(3)
        ch = make_thermalizing_channel(H, 1.0)
        twice = compose(ch, ch)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(apply_channel(twice, rho).mat,
                                   thermal_state(H, 1.0).mat, atol=1e-10)

    def test_kraus_count_multiplies(self):
        ch = make_thermalizing_channel(H, 1.0)
        assert len(compose(ch, ch).kraus) == 16

    def test_classical_order_invariance(self):
        # equal channels commute in their overall action: both orders thermalize
        rng = np.random.default_rng(4)
        ch1 = make_thermalizing_channel(H, 0.9)
        ch2 = make_thermalizing_channel(H, 0.9)
        rho = random_density_matrix(2, rng)
        a = apply_channel(compose(ch1, ch2), rho)
        b = apply_channel(compose(ch2, ch1), rho)
        np.testing.assert_allclose(a.mat, b.mat, atol=1e-10)
        np.testing.assert_allclose(a.mat, thermal_state(H, 0.9).mat, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(_identity(2), _identity(4))


class TestQuantumSwitch:
    def test_definite_order_branches(self):
        # unequal temperatures make the two orders distinguishable: the last
        # replacement channel wins
        rng = np.random.default_rng(5)
        ch1 = make_thermalizing_channel(H, 0.5)
        ch2 = make_thermalizing_channel(H, 2.0)
        sw = make_quantum_switch(ch1, ch2)
        rho = random_density_matrix(2, rng)
        for anc_idx, order in ((0, compose(ch1, ch2)), (1, compose(ch2, ch1))):
            anc = np.zeros((2, 2), complex)
            anc[anc_idx, anc_idx] = 1.0
            joint = DensityMatrix(kron(anc, rho.mat), dims=(2, 2))
            out = apply_channel(sw, joint)
            expected_sys = apply_channel(order, rho).mat
            np.testing.assert_allclose(out.mat, kron(anc, expected_sys),
                                       atol=1e-10)
        np.testing.assert_allclose(
            apply_channel(compose(ch1, ch2), rho).mat,
            thermal_state(H, 2.0).mat, atol=1e-10)
        np.testing.assert_allclose(
            apply_channel(compose(ch2, ch1), rho).mat,
            thermal_state(H, 0.5).mat, atol=1e-10)

    def test_switch_of_identities_is_identity(self):
        rng = np.random.default_rng(6)
        sw = make_quantum_switch(_identity(2), _identity(2))
        joint = random_density_matrix(4, rng, dims=(2, 2))
        np.testing.assert_allclose(apply_channel(sw, joint).mat, joint.mat,
                                   atol=1e-12)

    def test_kraus_count_and_dim(self):
        ch = make_thermalizing_channel(H, 1.0)
        sw = make_quantum_switch(ch, ch)
        assert len(sw.kraus) == 16 and sw.dim == 4
        assert validate_cptp(sw).passed

    def test_matches_bruteforce_oracle(self):
        ch = make_thermalizing_channel(H, 1.0)
        sw = make_quantum_switch(ch, ch)
        rho_t = thermal_state(H, 1.0)
        anc = AncillaState(math.pi / 2)
        joint = DensityMatrix(kron(anc.density().mat, rho_t.mat), dims=(2, 2))
        got = apply_channel(sw, joint).mat
        want = oracles.ico_brute_force(1.0, 1.0, math.pi / 2)["joint"]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_non_cptp_input(self):
        broken = QuantumChannel(kraus=(0.5 * np.eye(2, dtype=complex),), dim=2)
        with pytest.raises(ValidationError):
            make_quantum_switch(broken, _identity(2))


class TestSwitchClosedForm:
    def test_phi_zero_is_block_diagonal(self):
        rho_t = thermal_state(H, 1.0)
        out = switch_closed_form(AncillaState(0.0), rho_t, rho_t)
        expected = np.zeros((4, 4), complex)
        expected[0:2, 0:2] = rho_t.mat
        np.testing.assert_allclose(out.mat, expected, atol=1e-12)

    def test_equal_superposition_cross_block(self):
        # with rho = rho_t the off-diagonal block is rho_t^3 / 2
        rho_t = thermal_state(H, 1.0)
        out = switch_closed_form(AncillaState(math.pi / 2), rho_t, rho_t)
        cube = np.linalg.matrix_power(rho_t.mat, 3)
        np.testing.assert_allclose(out.mat[0:2, 2:4], cube / 2, atol=1e-12)
        assert 2 * np.trace(out.mat[0:2, 2:4]).real == pytest.approx(
            TR_RHO_T_CUBED, abs=1e-12)

    def test_agrees_with_kraus_application_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            phi = rng.uniform(0.0, math.pi)
            t = rng.uniform(0.2, 3.0)
            rho = random_density_matrix(2, rng)
            ch = make_thermalizing_channel(H, t)
            sw = make_quantum_switch(ch, ch)
            anc = AncillaState(phi)
            joint = DensityMatrix(kron(anc.density().mat, rho.mat), dims=(2, 2))
            brute = apply_channel(sw, joint)
            closed = switch_closed_form(anc, rho, thermal_state(H, t))
            np.testing.assert_allclose(closed.mat, brute.mat, atol=1e-10)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        phi=st.floats(min_value=0.0, max_value=math.pi),
        t=st.floats(min_value=0.0, max_value=math.inf, exclude_min=True),
    )
    @example(seed=0, phi=0.0, t=1e-3)
    @example(seed=1, phi=math.pi, t=math.inf)
    @example(seed=2, phi=math.pi / 2, t=1e-3)
    @example(seed=3, phi=math.pi / 2, t=math.inf)
    def test_matches_kraus_switch_on_random_states(self, seed, phi, t):
        rho = random_density_matrix(2, np.random.default_rng(seed))
        ch = make_thermalizing_channel(H, t)
        anc = AncillaState(phi)
        joint = DensityMatrix(kron(anc.density().mat, rho.mat), dims=(2, 2))
        brute = apply_channel(make_quantum_switch(ch, ch), joint)
        closed = switch_closed_form(anc, rho, thermal_state(H, t))
        assert np.abs(closed.mat - brute.mat).max() <= TOL

    def test_rejects_wrong_dimension(self):
        rng = np.random.default_rng(9)
        big = random_density_matrix(4, rng, dims=(2, 2))
        with pytest.raises(ValueError):
            switch_closed_form(AncillaState(0.5), big, thermal_state(H, 1.0))


class TestAncillaState:
    def test_ket_normalized(self):
        for phi in (0.0, 0.3, math.pi / 2, math.pi):
            k = AncillaState(phi).ket()
            assert np.vdot(k, k).real == pytest.approx(1.0, abs=1e-15)

    def test_rejects_out_of_range(self):
        for phi in (-0.1, math.pi + 0.1):
            with pytest.raises(ValueError):
                AncillaState(phi)


class TestChannelProperties:
    @pytest.mark.parametrize("factory", [
        lambda: make_thermalizing_channel(H, 0.5),
        lambda: make_thermalizing_channel(H, 2.0),
        lambda: make_quantum_switch(make_thermalizing_channel(H, 1.0),
                                    make_thermalizing_channel(H, 1.0)),
    ])
    def test_trace_and_positivity_on_random_states(self, factory):
        ch = factory()
        assert validate_cptp(ch).passed
        rng = np.random.default_rng(10)
        dims = (2,) if ch.dim == 2 else (2, 2)
        for _ in range(100):
            rho = random_density_matrix(ch.dim, rng, dims=dims)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.mat)[0] >= -1e-10


@pytest.mark.parametrize("combine", [compose, make_quantum_switch])
def test_dimension_mismatch_message(combine):
    with pytest.raises(ValueError) as err:
        combine(_identity(2), _identity(4))
    assert str(err.value) == "dimension mismatch: 2 vs 4"
