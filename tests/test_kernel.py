"""The grid kernel against the exact closed form and the verification path.

The accuracy contract: every kernel value is within ``KERNEL_ULPS`` units in
the last place of the 50-digit closed form of ``oracles.switch_exact`` /
``oracles.cycle_exact``, times 1 + delta/T: the condition number of the
thermal populations under the rounding of t * delta and delta / T.  So every
12-digit table cell is within one unit in its 12th digit.  The matrix
path ``switch_closed_form`` -> ``post_select`` -> ``internal_energy`` /
``shannon_entropy`` subtracts nearly equal numbers; it is held within
``MATRIX_ULPS`` of the size of what it subtracts (about eps / gap relative
for the heats), and the kernel within the sum of both bounds of it.  The
brute-force 16-Kraus switch, which sums its operators in another order,
agrees with the kernel within ``linalg.TOL``.
"""

import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icotherm.cli as cli
from icotherm import fridge, kernel
from icotherm.channels import (
    AncillaState,
    apply_channel,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
)
from icotherm.fridge import CycleParams, DegenerateCycleError, sweep
from icotherm.linalg import TOL, DensityMatrix, kron
from icotherm.thermo import (
    TwoLevelHamiltonian,
    effective_temperature,
    internal_energy,
    post_select,
    shannon_entropy,
    thermal_state,
)

import oracles

EPS = Decimal(2) ** -52
KERNEL_ULPS = 8
MATRIX_ULPS = 4
# Above the oracle's own rounding of values that are exactly 0 (heats at
# phi = 0 or in the computational basis), far below any value compared here.
NOISE = Decimal("1e-46")

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


def _cond(*temps):
    """1 + delta/T summed over the temperatures a value depends on."""
    return 1 + sum(1 / Decimal(t) for t in temps)


def _err(got, want):
    return abs(Decimal(float(got)) - want)


def _three_way(cond, got, matrix, exact, matrix_scale, scale=None):
    """Kernel ``got`` and matrix path ``matrix`` within their bounds of
    ``exact``, and of each other within the sum of the bounds.  The kernel's
    bound is relative to ``scale`` (``|exact|`` by default), the matrix
    path's to ``matrix_scale``, the size of the terms it subtracts."""
    k = KERNEL_ULPS * EPS * cond * (abs(exact) if scale is None else scale) + NOISE
    m = MATRIX_ULPS * EPS * cond * matrix_scale + NOISE
    assert _err(got, exact) <= k
    assert _err(matrix, exact) <= m
    assert _err(got, Decimal(float(matrix))) <= k + m


@pytest.mark.parametrize("basis", sorted(kernel.BASES))
@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("delta", DELTAS)
def test_switched_equals_matrix_path(basis, phi, delta):
    """Kernel, matrix path and exact closed form agree within their bounds."""
    h = TwoLevelHamiltonian(delta)
    temps = np.array(T_GRID) * delta
    sw = kernel.switched(delta, phi, temps, basis)
    for i, t in enumerate(T_GRID):
        p_g, p_e = oracles.thermal_populations(t)
        exact = oracles.switch_exact(t, delta, phi, basis)
        for branch, outcome, (prob, g, e, dq) in zip(sw, kernel.BASES[basis], exact):
            assert branch.outcome == outcome
            m_prob, pops, m_dq = _reference_outcome(h, temps[i], phi, outcome)
            assert branch.degenerate[i] == (pops is None)
            _three_way(_cond(t), branch.prob[i], m_prob, prob, 1)
            if pops is None:
                assert np.isnan(branch.p_g[i]) and np.isnan(branch.p_e[i])
                assert branch.dq[i] == 0.0 == m_dq
                continue
            _three_way(_cond(t), branch.p_g[i], pops[0], g, (p_g + g) / prob)
            _three_way(_cond(t), branch.p_e[i], pops[1], e, (p_e + e) / prob)
            _three_way(_cond(t), branch.dq[i], m_dq, dq, Decimal(delta) * (p_e + e))


@pytest.mark.parametrize("phi, delta, t_hot, base", [
    (PHIS[0], 1.0, None, math.e), (PHIS[1], 1.7, None, 2.0),
    (PHIS[2], 1.0, 0.4, 2.0), (PHIS[3], 1.7, math.inf, math.e),
    (PHIS[1], 1.0, 0.4, math.e)])
def test_cycles_equal_matrix_path(phi, delta, t_hot, base):
    """The cycle's numbers, kernel and matrix path, within their bounds of the
    exact closed form; q_c's bound where t_hot != t_cold is relative to the
    two terms it sums, dQ-/P- and delta (p_e(t_cold) - p_e(t_hot))."""
    h = TwoLevelHamiltonian(delta)
    t_cold = np.array(T_GRID[1:])
    hot = t_cold if t_hot is None else t_hot
    t_reset = 0.8
    ln_base = 1 if base == math.e else Decimal(base).ln()
    d, energy = Decimal(delta), Decimal(t_reset * delta)
    c = kernel.cycles(delta, phi, t_cold, hot, t_reset, base)
    for i, t in enumerate(t_cold.tolist()):
        th = t if t_hot is None else t_hot
        cond = _cond(t, th)
        prob, w, q_c, eta, dq = oracles.cycle_exact(t, th, delta, phi, t_reset, base)
        _, g, e, _ = oracles.switch_exact(t, delta, phi)[1]
        p_e, p_e_hot = (oracles.thermal_populations(u)[1] for u in (t, th))
        terms = abs(dq / prob) + abs(d * (p_e - p_e_hot))

        rho_t = thermal_state(h, t * delta)
        ps = post_select(switch_closed_form(AncillaState(phi), rho_t, rho_t), "minus")
        e_minus = internal_energy(ps.state, h)
        e_hot = internal_energy(thermal_state(h, th * delta), h)
        p = ps.probability
        m_w = (t_reset * delta) * shannon_entropy((p, 1.0 - p), base=base)
        m_q_c = e_minus - e_hot
        # What the matrix path subtracts: e_minus's and e_hot's sizes for
        # q_c, P's entropy slope (and its rounding of 1 - P) for W.
        q_c_scale = d * ((p_e + e) / prob + p_e_hot)
        w_scale = energy * (abs(((1 - prob) / prob).ln()) + 1) / ln_base
        _three_way(cond, c.minus.prob[i], ps.probability, prob, 1)
        _three_way(cond, c.minus.dq[i], ps.probability * (
            e_minus - internal_energy(rho_t, h)), dq, d * (p_e + e))
        _three_way(cond, c.e_minus[i], e_minus, d * e, d * (p_e + e) / prob)
        assert c.e_hot[i] == e_hot
        _three_way(cond, c.q_c[i], m_q_c, q_c, q_c_scale, terms)
        _three_way(cond, c.w[i], m_w, w, w_scale)
        _three_way(cond, c.eta[i], m_q_c * ps.probability / m_w, eta,
                   (prob * q_c_scale + abs(q_c) * (1 + prob * w_scale / w)) / w,
                   prob * terms / w)
        r = fridge.run_cycle(CycleParams(delta=delta, t_hot=th, t_cold=t,
                                         t_reset=t_reset, phi=phi, entropy_base=base))
        if g == e:
            assert r.t_eff_minus == math.inf
        else:
            t_eff = 1 / (g / e).ln()
            assert _err(r.t_eff_minus, t_eff) <= (
                KERNEL_ULPS * EPS * cond * (abs(t_eff) + t_eff * t_eff))


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


@pytest.mark.parametrize("t", [1 / 700, 1 / 744, 1 / 745],
                         ids=["1/700", "1/744", "1/745"])
def test_conditional_state_at_phi_0_is_the_thermal_state(t):
    # At phi = 0 the |-> state is the thermal state, bit for bit, also where
    # p_e is subnormal (t = 1/745 gave the ground-state sentinel 0.0).
    h = TwoLevelHamiltonian(1.0)
    r = fridge.run_cycle(CycleParams(t_cold=t, t_hot=1.0, phi=0.0))
    assert r.t_eff_minus == effective_temperature(thermal_state(h, t), h)
    assert r.t_eff_minus > 0.0


# CLI grids (t_min, t_max, steps) up to t = 1e9 and angles, for the printed
# digits; (1e4, 1e6, 3) printed dq_plus -6.25000000365e-08 against dq_minus
# 6.25000000087e-08 when the heats were differences of energies.
CLI_GRIDS = [(0.05, 3.0, 30), (0.2, 40.0, 25), (1e3, 1e6, 7), (1e4, 1e6, 3),
             (1e6, 1e9, 4)]
CLI_PHIS = (0.0, 0.7, 1.234567, math.pi / 2, 3.0, math.pi)


def _table(capsys, argv):
    assert cli.run(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _one_unit(text, exact):
    """A printed cell within one unit in the 12th significant digit of
    ``exact`` (an exact 0 allows only the oracle's rounding)."""
    unit = Decimal(10) ** (exact.adjusted() - 11) if abs(exact) > NOISE else NOISE
    return abs(Decimal(text) - exact) <= unit


@pytest.mark.parametrize("phi", CLI_PHIS)
@pytest.mark.parametrize("grid", CLI_GRIDS, ids=lambda g: "-".join(map(str, g)))
def test_printed_columns_within_one_unit_of_the_oracle(capsys, grid, phi):
    t_min, t_max, steps = grid
    flags = ["--t-min", repr(t_min), "--t-max", repr(t_max), "--steps", str(steps),
             "--phi", repr(phi)]
    ts = np.linspace(t_min, t_max, steps).tolist()
    for basis in sorted(kernel.BASES):
        exact = [{"p_plus": plus[0], "p_minus": minus[0],
                  "dq_plus": plus[3], "dq_minus": minus[3]}
                 for plus, minus in (oracles.switch_exact(t, 1.0, phi, basis)
                                     for t in ts)]
        for cmd in ("probs", "heat"):
            _check_cells(capsys, [cmd, *flags, "--basis", basis], ts, phi, exact)
    for base in ("e", "2"):
        exact = [dict(zip(("p_minus", "w", "q_c", "eta"), oracles.cycle_exact(
                     t, t, 1.0, phi, 1.0, 2.0 if base == "2" else math.e)))
                 for t in ts]
        _check_cells(capsys, ["fridge", *flags, "--entropy-base", base], ts, phi, exact)


def _check_cells(capsys, argv, ts, phi, exact):
    header, rows = _table(capsys, argv)
    assert len(rows) == len(ts)
    for i, row in enumerate(rows):
        for name, text in zip(header, row):
            want = (Decimal(ts[i]) if name in ("t", "t_cold") else
                    Decimal(phi) if name == "phi" else exact[i][name])
            assert _one_unit(text, want), (argv, name, ts[i], text, want)


@pytest.mark.parametrize("grid", CLI_GRIDS, ids=lambda g: "-".join(map(str, g)))
def test_heats_are_exact_negatives_and_zero_in_the_computational_basis(capsys, grid):
    t_min, t_max, steps = grid
    flags = ["--t-min", repr(t_min), "--t-max", repr(t_max), "--steps", str(steps)]
    for phi in CLI_PHIS:
        _, rows = _table(capsys, ["heat", *flags, "--phi", repr(phi)])
        for _, plus, minus in rows:
            assert plus == minus == "0" if minus == "0" else plus == "-" + minus
        _, rows = _table(capsys, ["heat", *flags, "--phi", repr(phi),
                                  "--basis", "computational"])
        assert {cell for _, *heats in rows for cell in heats} == {"0"}
        assert cli.run(["heat", *flags, "--phi", repr(phi), "--basis", "computational",
                        "--format", "json"]) == 0
        objs = json.loads(capsys.readouterr().out)
        assert all(repr(o[k]) == "0.0" for o in objs for k in ("dq_plus", "dq_minus"))


def test_degenerate_first_point_raises_matrix_path_message():
    delta, phi, t_cold = 1.3, math.pi / 2, 0.01
    h = TwoLevelHamiltonian(delta)
    rho_t = thermal_state(h, t_cold * delta)
    ps = post_select(switch_closed_form(AncillaState(phi), rho_t, rho_t), "minus")
    assert ps.state is None
    # The message names the kernel's P-, within its bound of the exact one
    # (9.37e-34: sin of the double nearest pi/2 is 1 - 1.9e-33); the matrix
    # path's is within its absolute bound.
    prob = kernel.switched(delta, phi, [t_cold * delta]).minus.prob[0]
    exact = oracles.switch_exact(t_cold, delta, phi)[1][0]
    _three_way(_cond(t_cold), prob, ps.probability, exact, 1)
    want = f"success probability {float(prob)!r} at t_cold={t_cold}"
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
