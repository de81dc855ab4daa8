"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed assert marks the criterion FAILED in pytest's own output.
"""

import itertools
import math

import numpy as np
import pytest

from icotherm import circuit, kernel
from icotherm.channels import (
    AncillaState,
    apply_channel,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
    validate_cptp,
)
from icotherm.circuit import crush, ry, thermal_prep_angle, verify_against_kraus
from icotherm.fridge import CycleParams, ico_sweep, monte_carlo, sweep
from icotherm.linalg import (
    TOL,
    DensityMatrix,
    kron,
    partial_trace,
    random_density_matrix,
)
from icotherm.thermo import (
    TwoLevelHamiltonian,
    effective_temperature,
    internal_energy,
    post_select,
    thermal_state,
)

import oracles

H = TwoLevelHamiltonian(1.0)
GRID = np.linspace(0.2, 3.0, 57)  # 0.05 spacing
P_MINUS_UNIT = 0.2949178998622227  # brute-force oracle value at T=1, phi=pi/2


def _passed(name: str, detail: str) -> None:
    print(f"acceptance {name}: PASS ({detail})")


def test_01_switch_output_block_form():
    # 16-operator brute force vs the block closed form, entrywise <= 1e-10,
    # with the substance starting in the thermal state and ancilla |+>
    worst = 0.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    for t in np.linspace(0.2, 3.0, 10):
        ch = make_thermalizing_channel(H, float(t))
        sw = make_quantum_switch(ch, ch)
        rho_t = thermal_state(H, float(t)).mat
        joint = DensityMatrix(kron(plus, rho_t), dims=(2, 2))
        brute = apply_channel(sw, joint).mat
        closed = np.zeros((4, 4), complex)
        closed[0:2, 0:2] = rho_t / 2
        closed[2:4, 2:4] = rho_t / 2
        cross = np.linalg.matrix_power(rho_t, 3) / 2
        closed[0:2, 2:4] = cross
        closed[2:4, 0:2] = cross
        worst = max(worst, float(np.max(np.abs(brute - closed))))
    assert worst <= 1e-10
    _passed("01 switch-block-form",
            f"max entry distance {worst:.2e} over 10 temperatures")


def test_02_probability_asymptotes():
    joint = switch_closed_form(AncillaState(math.pi / 2),
                               thermal_state(H, 100.0),
                               thermal_state(H, 100.0))
    p_plus = post_select(joint, "plus").probability
    p_minus = post_select(joint, "minus").probability
    assert 0.6249 <= p_plus <= 0.6251
    assert 0.3749 <= p_minus <= 0.3751
    _passed("02 probability-asymptotes",
            f"P+({100})={p_plus:.6f}, P-({100})={p_minus:.6f}")


def test_03_classical_null():
    worst_p, worst_q = 0.0, 0.0
    for t in GRID:
        pts = ico_sweep(H, 0.0, float(t), float(t), 1)
        pt = pts[0]
        worst_p = max(worst_p, abs(pt.plus.probability - 0.5),
                      abs(pt.minus.probability - 0.5))
        worst_q = max(worst_q, abs(pt.dq_plus), abs(pt.dq_minus))
    assert worst_p <= 1e-12
    assert worst_q <= 1e-10
    _passed("03 classical-null",
            f"max |P-1/2| = {worst_p:.2e}, max |dQ| = {worst_q:.2e}")


def test_04_heat_conservation():
    worst = 0.0
    for pt in ico_sweep(H, math.pi / 2, 0.2, 3.0, 57):
        worst = max(worst, abs(pt.dq_plus + pt.dq_minus))
    assert worst <= 1e-10
    _passed("04 heat-conservation",
            f"max |dQ+ + dQ-| = {worst:.2e} over 57 points")


def test_05_peak_heat_location():
    points = ico_sweep(H, math.pi / 2, 0.2, 3.0, 57)
    dq = np.array([p.dq_minus for p in points])
    i = int(np.argmax(dq))
    t_peak = float(GRID[i])
    assert 0.70 <= t_peak <= 0.90
    brute = oracles.ico_brute_force(1.0, t_peak, math.pi / 2)["dq_minus"]
    assert dq[i] == pytest.approx(brute, abs=1e-9)
    _passed("05 peak-heat-location",
            f"argmax dQ- at T={t_peak:.2f}, peak {dq[i]:.6f} matches oracle")


def test_06_refrigerator_curve_shapes():
    reports = sweep(CycleParams(), 0.2, 3.0, 57)
    w = [r.w for r in reports]
    q = [r.q_c for r in reports]
    assert all(b > a for a, b in zip(w, w[1:]))
    assert all(b < a for a, b in zip(q, q[1:]))
    _passed("06 refrigerator-curve-shapes",
            f"W increasing ({w[0]:.4f}->{w[-1]:.4f}), "
            f"Q_C decreasing ({q[0]:.4f}->{q[-1]:.4f})")


def test_07_efficiency_peak():
    reports = sweep(CycleParams(), 0.2, 3.0, 57)
    etas = np.array([r.eta for r in reports])
    i = int(np.argmax(etas))
    t_peak = reports[i].t_cold
    assert 0 < i < len(reports) - 1  # interior maximum
    assert 0.06 <= etas[i] <= 0.10
    assert 0.45 <= t_peak <= 0.75
    worst = max(abs(r.eta * r.w - r.p_minus * r.q_c) for r in reports)
    assert worst <= 1e-12
    _passed("07 efficiency-peak",
            f"eta_max = {etas[i]:.4f} at T_C={t_peak:.2f}, "
            f"identity defect {worst:.2e}")


@pytest.mark.parametrize("decompose", [False, True])
def test_08_circuit_channel_equivalence(decompose):
    worst = 0.0
    for t in np.linspace(0.2, 3.0, 5):
        for phi in np.linspace(0.0, math.pi, 5):
            d = verify_against_kraus(H, float(t), float(phi),
                                     decompose_cswap=decompose)
            worst = max(worst, d)
    assert worst < 1e-10
    label = "toffoli-decomposed" if decompose else "direct-cswap"
    _passed(f"08 circuit-equivalence ({label})",
            f"max distance {worst:.2e} over 5x5 grid")


def test_09_monte_carlo_soundness():
    sigma = math.sqrt(P_MINUS_UNIT * (1 - P_MINUS_UNIT) / 1e5)
    emp = []
    for seed in range(10):
        s = monte_carlo(CycleParams(), 100000, seed=seed)
        assert abs(s.p_minus_emp - s.p_minus_exact) <= 3 * sigma
        emp.append(s.p_minus_emp)
    mean_dev = abs(float(np.mean(emp)) - P_MINUS_UNIT)
    assert mean_dev <= 1e-3
    _passed("09 monte-carlo-soundness",
            f"10 seeds within 3 sigma, mean deviation {mean_dev:.2e}")


def test_10_property_suites():
    rng = np.random.default_rng(2024)

    # CPTP validation plus trace/positivity preservation on random states
    channels = [make_thermalizing_channel(H, t) for t in (0.3, 1.0, 2.5)]
    channels.append(make_quantum_switch(channels[1], channels[1]))
    for ch in channels:
        assert validate_cptp(ch).passed
        dims = (2,) if ch.dim == 2 else (2, 2)
        for _ in range(100):
            out = apply_channel(ch, random_density_matrix(ch.dim, rng,
                                                          dims=dims))
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.mat)[0] >= -1e-10

    # post-selection completeness over angles and temperatures
    for phi in np.linspace(0.0, math.pi, 7):
        for t in (0.3, 1.0, 2.5):
            joint = switch_closed_form(AncillaState(float(phi)),
                                       thermal_state(H, t),
                                       thermal_state(H, t))
            total = (post_select(joint, "plus").probability
                     + post_select(joint, "minus").probability)
            assert total == pytest.approx(1.0, abs=1e-10)

    # effective-temperature round trip
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert effective_temperature(thermal_state(H, t), H) == pytest.approx(
            t, abs=1e-9)

    # heating/cooling ordering across the sweep grid
    for t in GRID:
        joint = switch_closed_form(AncillaState(math.pi / 2),
                                   thermal_state(H, float(t)),
                                   thermal_state(H, float(t)))
        t_minus = effective_temperature(post_select(joint, "minus").state, H)
        t_plus = effective_temperature(post_select(joint, "plus").state, H)
        assert t_plus < float(t) < t_minus

    _passed("10 property-suites",
            "CPTP, trace/positivity on 100 random states per channel, "
            "completeness, round trip, heating/cooling ordering")


def _dephased_kraus(h, temp, phi, v):
    """Switch output for a control with coherence v, by the 16 Kraus operators."""
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    rho_c = np.array([[c * c, v * c * s], [v * c * s, s * s]])
    ch = make_thermalizing_channel(h, temp)
    return apply_channel(make_quantum_switch(ch, ch),
                         DensityMatrix(kron(rho_c, thermal_state(h, temp).mat),
                                       dims=(2, 2)))


def _dephased_gates(h, temp, phi, v):
    """Ancilla + substance marginal of v (pure run) + (1 - v) (the same run
    with the ancilla crushed after its rotation), every gate by ``_step``."""
    theta = thermal_prep_angle(thermal_state(h, temp))
    runs = []
    for crushed in ([], [crush(0)]):
        gates = [g for q in (1, 2, 3) for g in (ry(q, theta), crush(q))]
        gates += [ry(0, phi), *crushed, *circuit._routing_gates(False)]
        rho = np.zeros((16, 16))
        rho[0, 0] = 1.0
        for g in gates:
            rho = circuit._step(rho, g, 4)
        runs.append(rho)
    mixed = DensityMatrix(v * runs[0] + (1.0 - v) * runs[1], dims=(2,) * 4)
    return partial_trace(mixed, keep=(0, 1))


def _pm_outcomes(joint, h, temp, t_hot):
    """(P, p_g, p_e, dQ) per pm outcome of a switch output at ``temp``, and
    q_c = E(rho_-) - E(rho_hot) for the hot reservoir at ``t_hot``."""
    e_cold = internal_energy(thermal_state(h, temp), h)
    out = []
    for outcome in kernel.BASES["pm"]:
        ps = post_select(joint, outcome)
        e = internal_energy(ps.state, h)
        out.append((ps.probability, ps.state.mat[0, 0].real,
                    ps.state.mat[1, 1].real, ps.probability * (e - e_cold)))
    # BASES["pm"] ends with "minus", so e is E(rho_-).
    return out, e - internal_energy(thermal_state(h, t_hot), h)


def test_11_heat_exchange_needs_coherence():
    # A control dephased to coherence v acts as one of angle asin(v sin phi):
    # in the pm basis P-+, the conditional populations and dQ-+ depend on
    # sin(phi) alone.  The Kraus and gate paths hold the kernel at that angle
    # within linalg.TOL, and at v = 0 no heat moves.
    worst = 0.0
    points = 0
    for delta in (1.0, 2.5):
        h = TwoLevelHamiltonian(delta)
        for t, phi, v, ratio in itertools.product(
                (0.2, 1.0, 3.0), (0.4, math.pi / 2, 2.3, math.pi),
                (0.0, 0.3, 0.9, 1.0), (1.0, 2.0)):
            phi_v = math.asin(v * math.sin(phi))
            sw = kernel.switched(delta, phi_v, [t * delta])
            c = kernel.cycles(delta, phi_v, [t], ratio * t, 1.0)
            want = [(b.prob[0], b.p_g[0], b.p_e[0], b.dq[0]) for b in sw]
            if v == 0.0:
                assert sw.plus.dq[0] == sw.minus.dq[0] == 0.0
                assert ratio != 1.0 or c.q_c[0] == 0.0
            for joint in (_dephased_kraus(h, t * delta, phi, v),
                          _dephased_gates(h, t * delta, phi, v)):
                got, q_c = _pm_outcomes(joint, h, t * delta, ratio * t * delta)
                worst = max(worst, abs(q_c - c.q_c[0]),
                            *(abs(a - b) for g, w in zip(got, want)
                              for a, b in zip(g, w)))
            points += 1
    assert worst <= TOL
    _passed("11 coherence-heat-exchange",
            f"Kraus and gate paths within {worst:.2e} of the kernel at "
            f"asin(v sin phi) over {points} points, no heat at v = 0")
