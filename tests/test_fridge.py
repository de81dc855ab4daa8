import math
from dataclasses import replace

import numpy as np
import pytest

from icotherm.fridge import (
    CycleParams,
    DegenerateCycleError,
    ico_point,
    ico_sweep,
    monte_carlo,
    run_cycle,
    sweep,
    work_of_erasure,
)
from icotherm.thermo import TwoLevelHamiltonian

import oracles

H = TwoLevelHamiltonian(1.0)

# Frozen from the brute-force pipeline in oracles.py at T_H = T_C = T_R = 1,
# delta = 1, phi = pi/2 (natural-log entropy).
P_MINUS = 0.2949178998622227
W_UNIT = 0.6064965541905656
Q_C_UNIT = 0.15403905242000315
ETA_UNIT = 0.07490376247413945
DQ_MINUS_UNIT = 0.04542887383647417
T_EFF_MINUS_UNIT = 3.2200924481896736

GRID = np.linspace(0.2, 3.0, 57)  # 0.05 spacing


class TestWorkOfErasure:
    def test_balanced_memory(self):
        assert work_of_erasure(0.5, 1.0) == pytest.approx(math.log(2),
                                                          abs=1e-15)

    def test_deterministic_memory_is_free(self):
        assert work_of_erasure(0.0, 3.7) == 0.0
        assert work_of_erasure(1.0, 3.7) == 0.0

    def test_cycle_outcome_distribution(self):
        assert work_of_erasure(P_MINUS, 1.0) == pytest.approx(W_UNIT,
                                                              abs=1e-14)

    def test_scales_with_reset_temperature(self):
        assert work_of_erasure(0.3, 2.0) == pytest.approx(
            2.0 * work_of_erasure(0.3, 1.0), abs=1e-12)

    def test_base_two_rescales(self):
        assert work_of_erasure(0.3, 1.0, base=2.0) == pytest.approx(
            work_of_erasure(0.3, 1.0) / math.log(2), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            work_of_erasure(1.2, 1.0)
        with pytest.raises(ValueError):
            work_of_erasure(0.4, 0.0)


class TestRunCycle:
    def test_unit_temperature_report(self):
        rep = run_cycle(CycleParams())
        assert rep.p_minus == pytest.approx(P_MINUS, abs=1e-12)
        assert rep.w == pytest.approx(W_UNIT, abs=1e-12)
        assert rep.q_c == pytest.approx(Q_C_UNIT, abs=1e-12)
        assert rep.eta == pytest.approx(ETA_UNIT, abs=1e-12)
        assert rep.q_ico_minus == pytest.approx(DQ_MINUS_UNIT, abs=1e-12)
        assert rep.t_eff_minus == pytest.approx(T_EFF_MINUS_UNIT, abs=1e-12)

    def test_efficiency_identity(self):
        rep = run_cycle(CycleParams(t_hot=1.0, t_cold=1.0))
        assert rep.eta * rep.w == pytest.approx(rep.p_minus * rep.q_c,
                                                abs=1e-12)

    def test_conditional_heat_bookkeeping(self):
        # at t_hot == t_cold the weighted stroke-(i) heat equals p_minus * q_c
        for t in (0.3, 1.0, 2.5):
            rep = run_cycle(CycleParams(t_hot=t, t_cold=t))
            assert rep.q_ico_minus == pytest.approx(rep.p_minus * rep.q_c,
                                                    abs=1e-10)

    def test_energy_bookkeeping_fields(self):
        rep = run_cycle(CycleParams())
        assert rep.q_c == pytest.approx(rep.e_minus - rep.e_hot, abs=1e-15)

    def test_delta_scales_energies_not_probabilities(self):
        base = run_cycle(CycleParams(delta=1.0))
        scaled = run_cycle(CycleParams(delta=2.0))
        assert scaled.p_minus == pytest.approx(base.p_minus, abs=1e-12)
        assert scaled.w == pytest.approx(2.0 * base.w, abs=1e-12)
        assert scaled.q_c == pytest.approx(2.0 * base.q_c, abs=1e-12)
        assert scaled.eta == pytest.approx(base.eta, abs=1e-12)

    def test_entropy_base_two(self):
        nat = run_cycle(CycleParams())
        two = run_cycle(CycleParams(entropy_base=2.0))
        assert two.w == pytest.approx(nat.w / math.log(2), abs=1e-12)
        assert two.eta == pytest.approx(nat.eta * math.log(2), abs=1e-12)

    def test_degenerate_at_deep_cold(self):
        with pytest.raises(DegenerateCycleError):
            run_cycle(CycleParams(t_hot=0.02, t_cold=0.02))

    def test_efficiency_vanishes_toward_cold_limit(self):
        cold = run_cycle(CycleParams(t_hot=0.2, t_cold=0.2))
        warm = run_cycle(CycleParams(t_hot=0.5, t_cold=0.5))
        assert cold.eta < warm.eta
        assert cold.p_minus < 0.02

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CycleParams(delta=0.0)
        with pytest.raises(ValueError):
            CycleParams(t_cold=-1.0)
        with pytest.raises(ValueError):
            CycleParams(phi=4.0)
        with pytest.raises(ValueError):
            CycleParams(entropy_base=1.0)


class TestSweep:
    def test_matches_run_cycle_pointwise(self):
        reports = sweep(CycleParams(), 0.5, 1.5, 5)
        for rep in reports:
            single = run_cycle(CycleParams(t_hot=rep.t_cold,
                                           t_cold=rep.t_cold))
            assert rep.p_minus == pytest.approx(single.p_minus, abs=1e-12)
            assert rep.eta == pytest.approx(single.eta, abs=1e-12)

    def test_work_monotone_increasing(self):
        w = [r.w for r in sweep(CycleParams(), 0.2, 3.0, 57)]
        assert all(b > a for a, b in zip(w, w[1:]))

    def test_extracted_heat_monotone_decreasing(self):
        q = [r.q_c for r in sweep(CycleParams(), 0.2, 3.0, 57)]
        assert all(b < a for a, b in zip(q, q[1:]))

    def test_efficiency_bounded(self):
        assert all(0.0 <= r.eta < 0.15
                   for r in sweep(CycleParams(), 0.2, 3.0, 57))

    def test_efficiency_identity_every_point(self):
        for r in sweep(CycleParams(), 0.2, 3.0, 57):
            assert r.eta * r.w == pytest.approx(r.p_minus * r.q_c, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(CycleParams(), 1.0, 0.5, 5)
        with pytest.raises(ValueError):
            sweep(CycleParams(), 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            sweep(CycleParams(), 0.5, 1.0, 1)

    def test_non_finite_bounds_named(self):
        with pytest.raises(ValueError, match="t_max must be finite, got inf"):
            sweep(CycleParams(), 0.5, math.inf, 5)
        with pytest.raises(ValueError, match="t_min must be finite, got nan"):
            ico_sweep(H, 0.5, math.nan, 1.0, 5)


class TestIcoSweep:
    def test_heat_peak_location_and_oracle_match(self):
        points = ico_sweep(H, math.pi / 2, 0.2, 3.0, 57)
        dq = np.array([p.dq_minus for p in points])
        i = int(np.argmax(dq))
        assert 0.70 <= GRID[i] <= 0.90
        brute = oracles.ico_brute_force(1.0, float(GRID[i]),
                                        math.pi / 2)["dq_minus"]
        assert dq[i] == pytest.approx(brute, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        for p in ico_sweep(H, 0.9, 0.2, 3.0, 15):
            assert p.plus.probability + p.minus.probability == pytest.approx(
                1.0, abs=1e-10)

    def test_single_point_grid(self):
        points = ico_sweep(H, 0.0, 1.0, 1.0, 1)
        assert len(points) == 1
        assert points[0].plus.probability == pytest.approx(0.5, abs=1e-12)

    def test_single_point_needs_equal_bounds(self):
        with pytest.raises(ValueError):
            ico_sweep(H, 0.5, 1.0, 2.0, 1)

    def test_computational_basis(self):
        pt = ico_point(H, 1.0, 0.8, basis="computational")
        assert pt.plus.outcome == "zero" and pt.minus.outcome == "one"
        assert pt.plus.probability == pytest.approx(math.cos(0.4) ** 2,
                                                    abs=1e-12)
        assert abs(pt.dq_plus) <= 1e-10 and abs(pt.dq_minus) <= 1e-10

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            ico_point(H, 1.0, 0.5, basis="bell")


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo(CycleParams(), 5000, seed=42)
        b = monte_carlo(CycleParams(), 5000, seed=42)
        assert a == b

    def test_single_trial(self):
        s = monte_carlo(CycleParams(), 1, seed=7)
        assert s.successes in (0, 1)
        assert s.w_total == pytest.approx(W_UNIT, abs=1e-12)

    def test_bookkeeping(self):
        s = monte_carlo(CycleParams(), 1000, seed=3)
        assert s.w_total == pytest.approx(1000 * W_UNIT, abs=1e-9)
        assert s.q_c_total == pytest.approx(s.successes * Q_C_UNIT, abs=1e-9)
        assert s.mean_heat_per_trial == pytest.approx(s.q_c_total / 1000,
                                                      abs=1e-15)
        assert s.p_minus_exact == pytest.approx(P_MINUS, abs=1e-12)
        assert s.rng == "numpy-pcg64"

    def test_within_three_sigma_fixed_seeds(self):
        sigma = math.sqrt(P_MINUS * (1 - P_MINUS) / 1e5)
        for seed in range(10):
            s = monte_carlo(CycleParams(), 100000, seed=seed)
            assert abs(s.p_minus_emp - P_MINUS) <= 3 * sigma

    def test_unbiased_over_many_seeds(self):
        emp = [monte_carlo(CycleParams(), 10000, seed=seed).p_minus_emp
               for seed in range(50)]
        assert abs(float(np.mean(emp)) - P_MINUS) <= 1e-3

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(CycleParams(), 0, seed=1)


class TestCycleParams:
    def test_replace_keeps_validation(self):
        p = CycleParams()
        with pytest.raises(ValueError):
            replace(p, t_hot=-2.0)

    def test_hamiltonian_gap(self):
        assert CycleParams(delta=1.7).hamiltonian().delta == 1.7
