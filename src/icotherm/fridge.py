"""Four-stroke refrigerator driven by the switched thermal process.

One cycle: (i) the switch of two thermalizing channels at the cold
temperature acts on the substance (initially thermal at the cold
temperature); a demon keeps the cycle only when the ancilla is measured in
|->.  (ii) isochoric contact with the hot reservoir rejects the gained heat;
(iii) isochoric contact with the cold reservoir re-prepares the substance;
(iv) the demon's one-bit memory is erased against a resetting reservoir at
Landauer cost W = T_R * S(P-, P+).

Strokes (ii)/(iii) are ideal full thermalizations (swap with a fresh
reservoir qubit), so the only work cost is the erasure and the heat delivered
to the hot reservoir per successful cycle is

    q_c = Tr(rho_- H) - Tr(rho_hot H),

which by energy conservation over strokes (i)-(iii) equals the net heat
extracted from the cold side.  The efficiency charges the erasure work every
attempt but credits heat only on success:  eta = q_c / (W / P-).

The efficiency in closed form.  With s = sin(phi), x = p_g p_e and
gap = p_g - p_e = sqrt(1 - 4x) at the cold temperature (see ``kernel``),
P- = (1 - s)/2 + (3/2) s x and the |-> outcome moves P- q_c =
(delta s / 2) x gap + P- delta (p_e(T_C) - p_e(T_H)), while the erasure
costs W = t_R delta h(P-), h the binary entropy in the chosen base.  So

    eta t_R = s x gap / (2 h(P-)) + P- (p_e(T_C) - p_e(T_H)) / h(P-),

and the second term is negative for T_H > T_C, since p_e rises with T: a
hotter reservoir only lowers eta.  The first term depends on s and on
x in [0, 1/4] alone and grows with s (P- <= 1/2 falls towards 0, and h with
it).  At s = 1 its supremum is 0.0919065 (natural log; times ln 2 = 0.0637048
in base 2), at t_C = 0.5228 (p_e = 0.1287, P- = 0.1682).  So
eta <= 0.0919065 / t_R for every T_C <= T_H and every phi, while a classical
refrigerator's bound T_C / (T_H - T_C) grows without limit as T_H -> T_C.
A control qubit dephased to coherence v carries v c s off its diagonal, so the
switch's interference blocks, and with them every formula above, carry
v sin(phi) in place of s: the cooling comes from the coherence of the two
orders, and at v = 0 no heat moves.

The entropy ledger per attempt.  Stroke (i) moves dq- + dq+ = 0 on average,
and an attempt the demon rejects re-prepares the substance at the cold
temperature, so only a kept cycle moves heat net: the cold side gives P- q_c
per attempt and the hot reservoir takes it (strokes (i)-(iii)).  The erasure
gives W to the resetting reservoir every attempt.  In nats (k_B = 1), the
three reservoirs' entropy changes per attempt sum to

    W / T_R - P- q_c (1/T_C - 1/T_H) >= 0,

the second law with the demon's memory reset each attempt.  W / T_R is
delta h(P-), the memory's entropy in nats, whatever ``entropy_base`` the
report uses: in base b the reported W is t_R delta h(P-) / ln b, so the ledger
takes W ln b.  In the units above both terms carry the factor delta, so the
ledger's sign depends on t_C, t_H and phi alone.  As t_C -> 0 at s = 1,
P- ~ (3/2) p_e and P- q_c ~ p_e / 2, so the ledger tends to h(P-) times at
least 1 - (1 - t_C/t_H)/3 >= 2/3.

Units: temperatures in :class:`CycleParams` are dimensionless multiples of
delta/k_B (so populations depend only on them); energies (w, q_c) carry the
factor delta.  Reported effective temperatures use the same dimensionless
units.

Every number here comes from :mod:`icotherm.kernel`, the closed form
evaluated over a whole temperature grid at once; the functions below check
the arguments and wrap its arrays in records.  The records compute the
conditional state's effective temperature, which no table reports, from the
kernel's populations with ``thermo``'s rule.  A record builds the validated
:class:`DensityMatrix` of a conditional state (``PostSelection.state``,
``CycleReport.rho_minus``) only when that attribute is first read, and
caches it.  ``switch_closed_form`` with ``post_select``, the 16-Kraus switch
and the gate circuit are the independent verification path and are not
called here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .kernel import DegenerateCycleError
from .linalg import DensityMatrix
from .thermo import (PostSelection, TwoLevelHamiltonian, _check_phi,
                     _check_entropy_base, _check_positive, _effective_temperature)

__all__ = [
    "CycleParams",
    "CycleReport",
    "IcoPoint",
    "MonteCarloStats",
    "DegenerateCycleError",
    "RNG_ALGORITHM",
    "ico_point",
    "ico_sweep",
    "run_cycle",
    "sweep",
    "monte_carlo",
]

# Generator used by monte_carlo; recorded in the stats so runs are
# reproducible across implementations of the same algorithm.
RNG_ALGORITHM = "numpy-pcg64"
# Uniform draws per block in monte_carlo: memory stays bounded for any trial
# count, and PCG64 yields the same stream in blocks as in one call.
MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class CycleParams:
    """Refrigerator cycle parameters.

    Temperatures (t_hot, t_cold, t_reset) are in units of delta/k_B; phi is
    the ancilla angle in radians; entropy_base selects the logarithm base of
    the erasure entropy (natural log by default, base 2 rescales w and eta by
    1/ln 2).  t_hot and t_cold may be inf (the maximally mixed state), but a
    finite one times delta must neither leave the float range nor underflow
    to 0 (``kernel.absolute``'s rules); t_reset and t_reset * delta must be
    finite: infinite erasure is no cycle.
    """

    delta: float = 1.0
    t_hot: float = 1.0
    t_cold: float = 1.0
    t_reset: float = 1.0
    phi: float = math.pi / 2
    entropy_base: float = math.e

    def __post_init__(self):
        TwoLevelHamiltonian(self.delta)
        for name in ("t_cold", "t_hot"):
            _check_positive(name, getattr(self, name))
        _check_t_reset(self.t_reset, self.delta)
        _check_phi(self.phi)
        _check_entropy_base(self.entropy_base)
        kernel.absolute([self.t_cold, self.t_hot], self.delta)


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle record.  Energies in units of delta; t_* in delta/k_B units.

    p_g_minus and p_e_minus are the populations of the conditional state
    after the |-> outcome; ``rho_minus`` is that state as a validated
    :class:`DensityMatrix`, built on the first read and cached.  q_ico_minus
    is the post-selection-weighted heat of stroke (i) relative to the cold
    thermal state; it equals p_minus * q_c whenever t_hot == t_cold.
    """

    t_cold: float
    p_minus: float
    p_g_minus: float
    p_e_minus: float
    w: float
    q_c: float
    q_ico_minus: float
    eta: float
    t_eff_minus: float
    e_minus: float
    e_hot: float

    @functools.cached_property
    def rho_minus(self) -> DensityMatrix:
        return DensityMatrix(np.diag([self.p_g_minus, self.p_e_minus]), dims=(2,))


@dataclass(frozen=True)
class IcoPoint:
    """Outcome probabilities, conditional states, and heats at one temperature.

    For basis "pm" the two outcomes are |+> / |->; for "computational" they
    are |0> / |1> and are reported in the plus/minus slots in that order.
    """

    t: float
    phi: float
    basis: str
    plus: PostSelection
    minus: PostSelection
    dq_plus: float
    dq_minus: float


@dataclass(frozen=True)
class MonteCarloStats:
    """Seeded demon simulation summary; deterministic given (trials, seed)."""

    trials: int
    seed: int
    successes: int
    p_minus_emp: float
    p_minus_exact: float
    w_total: float
    q_c_total: float
    mean_heat_per_trial: float
    rng: str = RNG_ALGORITHM


def _check_t_reset(t_reset: float, delta: float) -> None:
    if not (t_reset > 0.0 and math.isfinite(t_reset)):
        raise ValueError(f"t_reset must be positive and finite, got {t_reset}")
    _finite_product("t_reset", t_reset, "delta", delta)


def _finite_product(name_a: str, a: float, name_b: str, b: float) -> float:
    """``a * b`` of two finite numbers; ``ValueError`` if it overflows."""
    product = a * b
    if math.isinf(product):
        raise ValueError(f"{name_a} {a:g} times {name_b} {b:g} "
                         f"exceeds the float range")
    return product


def _selections(br: kernel.Branch) -> list[PostSelection]:
    return [PostSelection(br.outcome, prob,
                          None if degenerate else ((g, 0.0), (0.0, e)))
            for prob, g, e, degenerate in zip(br.prob.tolist(), br.p_g.tolist(),
                                              br.p_e.tolist(),
                                              br.degenerate.tolist())]


def _ico_points(h: TwoLevelHamiltonian, phi: float, t: list[float], temps,
                basis: str) -> list[IcoPoint]:
    """Records at absolute temperatures ``temps``, reported as ``t``."""
    if basis not in kernel.BASES:
        raise ValueError(f"basis must be 'pm' or 'computational', got {basis!r}")
    _check_phi(phi)
    plus, minus = kernel.switched(h.delta, phi, np.asarray(temps, dtype=float),
                                  basis)
    return [IcoPoint(t=t_k, phi=phi, basis=basis, plus=ps, minus=ms,
                     dq_plus=dq_p, dq_minus=dq_m)
            for t_k, ps, ms, dq_p, dq_m in zip(
                t, _selections(plus), _selections(minus),
                plus.dq.tolist(), minus.dq.tolist())]


def ico_point(h: TwoLevelHamiltonian, temperature: float, phi: float,
              basis: str = "pm") -> IcoPoint:
    """Switched-process outcome data at one (absolute) temperature.

    The substance starts in the thermal state of the same temperature as the
    two reservoirs, and the ancilla is projected in the requested basis.
    """
    _check_positive("temperature", float(temperature))
    return _ico_points(h, phi, [float(temperature) / h.delta], [temperature],
                       basis)[0]


def ico_sweep(h: TwoLevelHamiltonian, phi: float, t_min: float, t_max: float,
              steps: int, basis: str = "pm") -> list[IcoPoint]:
    """Uniform temperature grid of :func:`ico_point` records.

    Temperatures are in delta/k_B units.  A single-point grid (steps == 1)
    requires t_min == t_max.
    """
    t, temps = grid(t_min, t_max, steps, h.delta)
    return _ico_points(h, phi, t.tolist(), temps, basis)


def grid(t_min: float, t_max: float, steps: int, delta: float, min_steps: int = 1,
         distinct: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid t from t_min to t_max and ``kernel.absolute(t, delta)``,
    checked: the grid rules of :func:`ico_sweep`, :func:`sweep` and the CLI."""
    if steps < min_steps:
        raise ValueError(f"steps must be >= {min_steps}, got {steps}")
    for name, t in (("t_min", t_min), ("t_max", t_max)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")
    if not 0.0 < t_min <= t_max:
        raise ValueError(f"need 0 < t_min <= t_max, got [{t_min}, {t_max}]")
    if distinct and steps == 1 and t_min != t_max:
        raise ValueError("a single-point grid requires t_min == t_max")
    if distinct and steps > 1 and t_min == t_max:
        raise ValueError("t_min must be strictly below t_max for steps > 1")
    t = np.linspace(t_min, t_max, steps)
    return t, kernel.absolute(t, delta)


def _reports(c: kernel.Cycles, t_cold: list[float],
             delta: float) -> list[CycleReport]:
    cols = [a.tolist() for a in (c.minus.prob, c.minus.p_g, c.minus.p_e, c.w,
                                 c.q_c, c.minus.dq, c.eta, c.e_minus, c.e_hot)]
    return [CycleReport(t_cold=t, p_minus=p, p_g_minus=g, p_e_minus=e, w=w,
                        q_c=q_c, q_ico_minus=dq, eta=eta,
                        t_eff_minus=_effective_temperature(delta, g, e) / delta,
                        e_minus=e_minus, e_hot=e_hot)
            for t, p, g, e, w, q_c, dq, eta, e_minus, e_hot in zip(t_cold, *cols)]


def run_cycle(p: CycleParams) -> CycleReport:
    """Evaluate one refrigerator cycle in closed form."""
    c = kernel.cycles(p.delta, p.phi, [p.t_cold], p.t_hot, p.t_reset,
                      p.entropy_base)
    return _reports(c, [p.t_cold], p.delta)[0]


def sweep(p_template: CycleParams, t_min: float, t_max: float,
          steps: int) -> list[CycleReport]:
    """Cycle reports over a uniform grid with t_hot = t_cold = T.

    This is the equal-reservoir scenario; the template's other fields
    (delta, t_reset, phi, entropy base) are kept.
    """
    t, _ = grid(t_min, t_max, steps, p_template.delta, min_steps=2)
    c = kernel.cycles(p_template.delta, p_template.phi, t, t,
                      p_template.t_reset, p_template.entropy_base)
    return _reports(c, t.tolist(), p_template.delta)


def monte_carlo(p: CycleParams, trials: int, seed: int) -> MonteCarloStats:
    """Stochastic demon: sample the ancilla outcome per trial.

    Erasure work is charged on every trial; heat is credited only on
    successful (|-> measured) trials.  Draws come from one numpy PCG64
    generator seeded with ``seed``; batched parallel runs must derive
    per-batch seeds via ``np.random.SeedSequence(seed).spawn`` to stay
    reproducible regardless of batch count.  Draws are made in blocks of
    ``MC_CHUNK``, so memory does not grow with ``trials``.  A total work
    (checked before any draw) or total heat that overflows the float range
    raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    report = run_cycle(p)
    w_total = _finite_product("trials", trials, "w", report.w)
    rng = np.random.Generator(np.random.PCG64(seed))
    successes = 0
    for done in range(0, trials, MC_CHUNK):
        draws = rng.random(min(MC_CHUNK, trials - done))
        successes += int(np.count_nonzero(draws < report.p_minus))
    q_c_total = _finite_product("successes", successes, "q_c", report.q_c)
    return MonteCarloStats(
        trials=trials,
        seed=seed,
        successes=successes,
        p_minus_emp=successes / trials,
        p_minus_exact=report.p_minus,
        w_total=w_total,
        q_c_total=q_c_total,
        mean_heat_per_trial=q_c_total / trials,
    )
