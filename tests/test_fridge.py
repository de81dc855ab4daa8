import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icotherm import fridge, kernel
from icotherm.fridge import (
    MC_CHUNK,
    CycleParams,
    DegenerateCycleError,
    ico_point,
    ico_sweep,
    monte_carlo,
    run_cycle,
    sweep,
)
from icotherm.thermo import TwoLevelHamiltonian, shannon_entropy

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

# Supremum of eta t_R over every phi and T_C <= T_H (natural-log entropy),
# derived in the fridge module docstring; base 2 multiplies it by ln 2.
ETA_T_R_SUP = 0.091907
# Cold grids up to 1e9, the default grid, the peak region and the mixed state.
ETA_GRIDS = (np.geomspace(0.05, 1e9, 300), GRID, np.linspace(0.4, 0.7, 301),
             np.array([0.5, math.inf]))


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

    def test_rejects_reset_energy_overflow(self):
        # W = t_reset * delta * S: an infinite product is no finite input's cost.
        msg = r"^t_reset 1e\+300 times delta 1e\+10 exceeds the float range$"
        with pytest.raises(ValueError, match=msg):
            CycleParams(delta=1e10, t_reset=1e300)
        rep = run_cycle(CycleParams(delta=1e8, t_reset=1e300))
        assert math.isfinite(rep.w) and rep.w > 0.0


class TestEfficiencyBound:
    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("ratio", [1.0, 1.01, 1.1, 1.5, 2.0])
    @pytest.mark.parametrize("phi", [0.0, 0.7, 1.234567, math.pi / 2, 3.0, math.pi])
    def test_below_the_supremum_and_the_carnot_bound(self, phi, ratio, base):
        bound = ETA_T_R_SUP * (math.log(2.0) if base == 2.0 else 1.0) * (1 + 1e-12)
        for t in ETA_GRIDS:
            for t_reset in (0.25, 1.0, 4.0):
                eta = kernel.cycles(1.0, phi, t, t * ratio, t_reset, base).eta
                assert np.all(eta * t_reset <= bound)
                if ratio > 1.0 and t_reset == 1.0:  # COP_C = T_C / (T_H - T_C)
                    assert np.all(eta < 1.0 / (ratio - 1.0))

    def test_supremum_is_reached(self):
        c = kernel.cycles(1.0, math.pi / 2, ETA_GRIDS[2], ETA_GRIDS[2], 1.0)
        assert c.eta.max() > 0.091906


# The ledger's smallest value on a scan of ratios 1-20, 25 phi values and
# t_R in {0.1, 1, 10} over cold grids from 0.05 to 1e9: +4.8e-8, 0.755 h(P-).
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.05, 1e9), min_size=1, max_size=20),
       st.floats(1.0, 20.0), st.floats(0.0, math.pi),
       st.sampled_from([0.1, 1.0, 10.0]), st.sampled_from([math.e, 2.0]))
@example([0.05], 5.0, math.pi / 2, 0.1, math.e)
def test_entropy_ledger_per_attempt(t_cold, ratio, phi, t_reset, base):
    # W / T_R - P- q_c (1/T_C - 1/T_H) >= 0 with W in nats, as derived in the
    # fridge module docstring.
    t_cold = np.array(t_cold)
    t_hot = t_cold * ratio
    c = kernel.cycles(1.0, phi, t_cold, t_hot, t_reset, base)
    ledger = (c.w * math.log(base) / t_reset
              - c.minus.prob * c.q_c * (1.0 / t_cold - 1.0 / t_hot))
    assert np.all(ledger >= 0.0), ledger.min()


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

    def test_temperature_overflow_rejected(self):
        # 2 * 1e308 overflows; inf would be the infinite-T limit.
        with pytest.raises(ValueError, match="exceeds the float range"):
            sweep(CycleParams(delta=1e308), 2.0, 3.0, 2)
        with pytest.raises(ValueError, match="exceeds the float range"):
            ico_sweep(TwoLevelHamiltonian(1e308), 0.5, 2.0, 3.0, 2)


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

    def test_t_is_the_grid(self):
        # Each record's t is the grid point, as sweep's t_cold is.  Taking it
        # back from T = t * delta as T / delta leaves 210 of these 1 234
        # values one ulp off.
        h = TwoLevelHamiltonian(1.386730152501956)
        bounds = (0.2781548776219206, 7.772015168688964, 1234)
        want = np.linspace(*bounds).tolist()
        assert [p.t for p in ico_sweep(h, 1.0, *bounds)] == want
        assert [r.t_cold for r in sweep(CycleParams(delta=h.delta, phi=1.0),
                                         *bounds)] == want

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

    @pytest.mark.parametrize("trials", [1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7])
    def test_chunked_draws_match_one_shot_stream(self, trials):
        p = CycleParams(t_cold=0.8, t_hot=0.8)
        rng = np.random.Generator(np.random.PCG64(13))
        one_shot = int(np.count_nonzero(rng.random(trials) < run_cycle(p).p_minus))
        assert monte_carlo(p, trials, seed=13).successes == one_shot

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(CycleParams(), 0, seed=1)

    def test_negative_seed_rejected_before_any_compute(self, monkeypatch):
        def no_cycle(p):
            raise AssertionError("computed before checking the seed")
        monkeypatch.setattr(fridge, "run_cycle", no_cycle)
        with pytest.raises(ValueError) as err:
            monte_carlo(CycleParams(), 10, seed=-1)
        assert str(err.value) == "seed must be a non-negative integer, got -1"

    def test_rejects_work_total_overflow_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking trials * w")
        monkeypatch.setattr(np.random, "Generator", no_draws)
        msg = (r"^trials 1000 times w 6\.06497e\+305 "
               r"exceeds the float range$")
        with pytest.raises(ValueError, match=msg):
            monte_carlo(CycleParams(t_reset=1e306), 1000, seed=0)

    def test_rejects_heat_total_overflow(self):
        p = CycleParams(delta=1e306, t_reset=1e-3)
        msg = (r"^successes 29445 times q_c 1\.54039e\+305 "
               r"exceeds the float range$")
        with pytest.raises(ValueError, match=msg):
            monte_carlo(p, 100000, seed=0)

    def test_finite_totals_near_the_float_range(self):
        # Each product stays below the float maximum, so nothing is rejected.
        s = monte_carlo(CycleParams(t_reset=1e305), 1000, seed=0)
        assert s.w_total == 1000 * run_cycle(CycleParams(t_reset=1e305)).w
        assert math.isfinite(s.w_total) and s.w_total > 1e307
        p = CycleParams(delta=1e303, t_reset=1e-3)
        s = monte_carlo(p, 100000, seed=0)
        assert s.q_c_total == s.successes * run_cycle(p).q_c
        assert math.isfinite(s.q_c_total) and s.q_c_total > 1e306


class TestCycleParams:
    def test_replace_keeps_validation(self):
        p = CycleParams()
        with pytest.raises(ValueError):
            replace(p, t_hot=-2.0)

    @pytest.mark.parametrize("t_reset", [math.inf, math.nan, 0.0])
    def test_reset_temperature_positive_and_finite(self, t_reset):
        msg = "t_reset must be positive and finite"
        with pytest.raises(ValueError, match=msg):
            CycleParams(t_reset=t_reset)

    @pytest.mark.parametrize("entry", [
        lambda base: CycleParams(entropy_base=base),
        lambda base: shannon_entropy((0.3, 0.7), base=base),
    ], ids=["CycleParams", "shannon_entropy"])
    @pytest.mark.parametrize("base", [1.0, 0.5, -1.0, math.nan, math.inf])
    def test_entropy_base_finite_and_above_one(self, entry, base):
        rule = "be finite" if base == math.inf else "exceed 1"
        with pytest.raises(ValueError) as err:
            entry(base)
        assert str(err.value) == f"entropy_base must {rule}, got {base}"

    def test_infinite_reservoirs_allowed(self):
        # inf is the maximally mixed state: P- = (1 - 1/4) / 2 at phi = pi/2.
        r = run_cycle(CycleParams(t_hot=math.inf, t_cold=math.inf))
        assert r.p_minus == pytest.approx(0.375, abs=1e-15)
