import math

import numpy as np
import pytest

from icotherm.channels import (
    AncillaState,
    apply_channel,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
)
from icotherm.fridge import ico_point
from icotherm.linalg import DensityMatrix, ValidationError, kron, random_density_matrix
from icotherm.thermo import (
    TwoLevelHamiltonian,
    effective_temperature,
    internal_energy,
    post_select,
    shannon_entropy,
    thermal_state,
)

import oracles

H = TwoLevelHamiltonian(1.0)

# Frozen from oracles.ico_brute_force(1.0, 1.0, pi/2): the full replacement
# Kraus -> 16 switch operators -> block post-selection pipeline.
P_G = 0.7310585786300049
P_E = 0.2689414213699951
P_PLUS = 0.7050821001377771
P_MINUS = 0.2949178998622227
RHO_MINUS_DIAG = (0.5770195262100016, 0.42298047378999826)
RHO_PLUS_DIAG = (0.7954891943378738, 0.20451080566212626)
DQ_MINUS = 0.04542887383647417
T_EFF_MINUS = 3.2200924481896736
T_EFF_PLUS = 0.7361946294614921
# T = 100 asymptote values, same oracle
P_PLUS_T100 = 0.6250093748437522
P_MINUS_T100 = 0.3749906251562477
# entropy of (P_MINUS, P_PLUS), oracles.entropy_nats
S_PM = 0.6064965541905656


def test_frozen_values_reproduced_by_oracle():
    v = oracles.ico_brute_force(1.0, 1.0, math.pi / 2)
    assert v["p_plus"] == pytest.approx(P_PLUS, abs=1e-15)
    assert v["p_minus"] == pytest.approx(P_MINUS, abs=1e-15)
    np.testing.assert_allclose(np.diag(v["rho_minus"]).real, RHO_MINUS_DIAG,
                               atol=1e-15)
    np.testing.assert_allclose(np.diag(v["rho_plus"]).real, RHO_PLUS_DIAG,
                               atol=1e-15)
    assert v["dq_minus"] == pytest.approx(DQ_MINUS, abs=1e-15)
    assert oracles.entropy_nats([P_MINUS, P_PLUS]) == pytest.approx(S_PM,
                                                                    abs=1e-15)


def _switch_output(t, phi, delta=1.0):
    h = TwoLevelHamiltonian(delta)
    rho_t = thermal_state(h, t)
    return switch_closed_form(AncillaState(phi), rho_t, rho_t)


class TestThermalState:
    def test_infinite_temperature(self):
        np.testing.assert_allclose(thermal_state(H, math.inf).mat,
                                   np.eye(2) / 2, atol=1e-15)

    def test_boltzmann_weights(self):
        np.testing.assert_allclose(np.diag(thermal_state(H, 1.0).mat).real,
                                   [P_G, P_E], atol=1e-12)

    def test_ground_state_limit(self):
        np.testing.assert_allclose(thermal_state(H, 1e-6).mat,
                                   np.diag([1.0, 0.0]), atol=1e-9)

    def test_matches_oracle_across_grid(self):
        for t in np.linspace(0.2, 3.0, 15):
            np.testing.assert_allclose(thermal_state(H, float(t)).mat,
                                       oracles.thermal_rho(1.0, float(t)),
                                       atol=1e-12)

    def test_invalid_temperature(self):
        for t in (0.0, -2.0, math.nan):
            with pytest.raises(ValueError):
                thermal_state(H, t)


class TestInternalEnergy:
    def test_ground(self):
        assert internal_energy(DensityMatrix(np.diag([1.0, 0.0])), H) == 0.0

    def test_excited(self):
        h = TwoLevelHamiltonian(2.5)
        assert internal_energy(DensityMatrix(np.diag([0.0, 1.0])), h) == 2.5

    def test_thermal(self):
        assert internal_energy(thermal_state(H, 1.0), H) == pytest.approx(
            P_E, abs=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            internal_energy(random_density_matrix(4, rng), H)


class TestEffectiveTemperature:
    def test_round_trip(self):
        for t in (0.1, 0.3, 1.0, 2.0, 5.0, 10.0):
            rho = thermal_state(H, t)
            assert effective_temperature(rho, H) == pytest.approx(t, abs=1e-9)

    def test_maximally_mixed_sentinel(self):
        assert effective_temperature(DensityMatrix(np.eye(2) / 2), H) == math.inf

    def test_ground_state_sentinel(self):
        assert effective_temperature(DensityMatrix(np.diag([1.0, 0.0])), H) == 0.0

    def test_population_inversion_is_negative(self):
        assert effective_temperature(DensityMatrix(np.diag([0.4, 0.6])), H) < 0.0

    def test_conditional_states_at_unit_temperature(self):
        assert effective_temperature(
            DensityMatrix(np.diag(RHO_MINUS_DIAG)), H
        ) == pytest.approx(T_EFF_MINUS, abs=1e-12)
        assert effective_temperature(
            DensityMatrix(np.diag(RHO_PLUS_DIAG)), H
        ) == pytest.approx(T_EFF_PLUS, abs=1e-12)

    def test_rejects_coherent_state(self):
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        with pytest.raises(ValidationError):
            effective_temperature(plus, H)

    def test_delta_scaling(self):
        h = TwoLevelHamiltonian(3.0)
        rho = thermal_state(h, 4.5)
        assert effective_temperature(rho, h) == pytest.approx(4.5, abs=1e-9)


class TestPostSelect:
    def test_minus_outcome_frozen_values(self):
        ps = post_select(_switch_output(1.0, math.pi / 2), "minus")
        assert ps.probability == pytest.approx(P_MINUS, abs=1e-12)
        np.testing.assert_allclose(np.diag(ps.state.mat).real, RHO_MINUS_DIAG,
                                   atol=1e-12)

    def test_plus_outcome_frozen_values(self):
        ps = post_select(_switch_output(1.0, math.pi / 2), "plus")
        assert ps.probability == pytest.approx(P_PLUS, abs=1e-12)
        np.testing.assert_allclose(np.diag(ps.state.mat).real, RHO_PLUS_DIAG,
                                   atol=1e-12)

    def test_classical_control_gives_half_half(self):
        joint = _switch_output(1.0, 0.0)
        target = thermal_state(H, 1.0).mat
        for outcome in ("plus", "minus"):
            ps = post_select(joint, outcome)
            assert ps.probability == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(ps.state.mat, target, atol=1e-10)

    def test_completeness_both_bases(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            joint = random_density_matrix(4, rng, dims=(2, 2))
            for pair in (("plus", "minus"), ("zero", "one")):
                total = sum(post_select(joint, o).probability for o in pair)
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_block_algebra_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = oracles.random_rho(4, rng)
            joint = DensityMatrix(m, dims=(2, 2))
            for outcome in ("zero", "one", "plus", "minus"):
                prob, state = oracles.block_post_select(m, outcome)
                ps = post_select(joint, outcome)
                assert ps.probability == pytest.approx(prob, abs=1e-12)
                if state is not None:
                    np.testing.assert_allclose(ps.state.mat, state, atol=1e-10)

    def test_computational_basis_weights(self):
        phi = 0.8
        joint = _switch_output(1.0, phi)
        assert post_select(joint, "zero").probability == pytest.approx(
            math.cos(phi / 2) ** 2, abs=1e-12)
        assert post_select(joint, "one").probability == pytest.approx(
            math.sin(phi / 2) ** 2, abs=1e-12)

    def test_zero_probability_outcome_has_no_state(self):
        joint = DensityMatrix(kron(np.diag([1.0, 0.0]), np.eye(2) / 2),
                              dims=(2, 2))
        ps = post_select(joint, "one")
        assert ps.probability == 0.0 and ps.state is None

    def test_errors(self):
        joint = _switch_output(1.0, 1.0)
        with pytest.raises(ValueError):
            post_select(joint, "sideways")
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            post_select(random_density_matrix(2, rng), "plus")


class TestGeneralPhiProbabilityLaw:
    def test_probability_closed_form(self):
        # P_pm = (1 pm sin(phi) Tr(rho_t rho rho_t)) / 2 against the brute
        # force switch application, for random angle/temperature/state triples
        rng = np.random.default_rng(4)
        for _ in range(20):
            phi = rng.uniform(0.0, math.pi)
            t = rng.uniform(0.2, 3.0)
            rho = random_density_matrix(2, rng)
            ch = make_thermalizing_channel(H, t)
            sw = make_quantum_switch(ch, ch)
            anc = AncillaState(phi)
            joint = apply_channel(
                sw, DensityMatrix(kron(anc.density().mat, rho.mat),
                                  dims=(2, 2)))
            rt = thermal_state(H, t).mat
            overlap = np.trace(rt @ rho.mat @ rt).real
            for outcome, sign in (("plus", 1.0), ("minus", -1.0)):
                want = 0.5 * (1.0 + sign * math.sin(phi) * overlap)
                got = post_select(joint, outcome).probability
                assert got == pytest.approx(want, abs=1e-10)


class TestIcoHeat:
    """Conditional heats P * [Tr(rho_cond H) - Tr(rho_t H)] from ico_point."""

    def test_classical_case_no_heat(self):
        pt = ico_point(H, 1.0, 0.0)
        oracle = oracles.ico_brute_force(1.0, 1.0, 0.0)
        for dq, key in ((pt.dq_plus, "dq_plus"), (pt.dq_minus, "dq_minus")):
            assert abs(dq) <= 1e-10
            assert abs(oracle[key]) <= 1e-10

    def test_minus_outcome_heats(self):
        dq = ico_point(H, 1.0, math.pi / 2).dq_minus
        assert dq == pytest.approx(DQ_MINUS, abs=1e-12)
        assert dq == pytest.approx(
            oracles.ico_brute_force(1.0, 1.0, math.pi / 2)["dq_minus"], abs=1e-12)

    def test_heats_balance_across_grid(self):
        for t in np.linspace(0.2, 3.0, 57):
            pt = ico_point(H, float(t), math.pi / 2)
            oracle = oracles.ico_brute_force(1.0, float(t), math.pi / 2)
            assert abs(pt.dq_plus + pt.dq_minus) <= 1e-10
            assert pt.dq_plus == pytest.approx(oracle["dq_plus"], abs=1e-12)
            assert pt.dq_minus == pytest.approx(oracle["dq_minus"], abs=1e-12)

    def test_undefined_state_has_no_heat(self):
        # P- ~ 1.5 exp(-50) is below the 1e-12 floor: no conditional state.
        pt = ico_point(H, 0.02, math.pi / 2)
        assert pt.minus.state is None and pt.dq_minus == 0.0
        assert pt.plus.state is not None


class TestHeatingCoolingDirection:
    def test_conditional_temperatures_straddle_reservoir(self):
        for t in np.linspace(0.2, 3.0, 57):
            joint = _switch_output(float(t), math.pi / 2)
            t_minus = effective_temperature(post_select(joint, "minus").state, H)
            t_plus = effective_temperature(post_select(joint, "plus").state, H)
            assert t_plus < t < t_minus

    def test_high_temperature_asymptote(self):
        joint = _switch_output(100.0, math.pi / 2)
        assert post_select(joint, "plus").probability == pytest.approx(
            P_PLUS_T100, abs=1e-12)
        assert post_select(joint, "minus").probability == pytest.approx(
            P_MINUS_T100, abs=1e-12)

    def test_low_temperature_limit(self):
        joint = _switch_output(0.05, math.pi / 2)
        assert post_select(joint, "plus").probability > 0.999


class TestShannonEntropy:
    def test_pure_distribution(self):
        assert shannon_entropy((1.0, 0.0)) == 0.0

    def test_uniform(self):
        assert shannon_entropy((0.5, 0.5)) == pytest.approx(math.log(2),
                                                            abs=1e-15)

    def test_conditional_outcome_distribution(self):
        assert shannon_entropy((P_MINUS, P_PLUS)) == pytest.approx(S_PM,
                                                                   abs=1e-14)

    def test_base_two(self):
        assert shannon_entropy((0.5, 0.5), base=2.0) == pytest.approx(1.0,
                                                                      abs=1e-15)

    def test_invalid_distributions(self):
        with pytest.raises(ValueError):
            shannon_entropy((0.7, 0.7))
        with pytest.raises(ValueError):
            shannon_entropy((-0.1, 1.1))


class TestTwoLevelHamiltonian:
    def test_matrix_form(self):
        np.testing.assert_array_equal(TwoLevelHamiltonian(2.0).matrix(),
                                      np.diag([0.0, 2.0]))

    def test_rejects_bad_gap(self):
        for delta in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                TwoLevelHamiltonian(delta)
