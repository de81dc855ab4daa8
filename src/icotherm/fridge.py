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

Units: temperatures in :class:`CycleParams` are dimensionless multiples of
delta/k_B (so populations depend only on them); energies (w, q_c) carry the
factor delta.  Reported effective temperatures use the same dimensionless
units.

Every number here comes from :mod:`icotherm.kernel`, the closed form
evaluated over a whole temperature grid at once; the functions below only
wrap its arrays in records, building a :class:`DensityMatrix` only for the
states those records hold.  ``switch_closed_form`` with ``post_select``, the
16-Kraus switch and the gate circuit are the independent verification path
and are not called here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .kernel import DegenerateCycleError
from .linalg import DensityMatrix
from .thermo import PROB_FLOOR, PostSelection, TwoLevelHamiltonian, shannon_entropy

__all__ = [
    "CycleParams",
    "CycleReport",
    "IcoPoint",
    "MonteCarloStats",
    "DegenerateCycleError",
    "RNG_ALGORITHM",
    "work_of_erasure",
    "ico_point",
    "ico_sweep",
    "run_cycle",
    "sweep",
    "monte_carlo",
]

# Generator used by monte_carlo; recorded in the stats so runs are
# reproducible across implementations of the same algorithm.
RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class CycleParams:
    """Refrigerator cycle parameters.

    Temperatures (t_hot, t_cold, t_reset) are in units of delta/k_B; phi is
    the ancilla angle in radians; entropy_base selects the logarithm base of
    the erasure entropy (natural log by default, base 2 rescales w and eta by
    1/ln 2).
    """

    delta: float = 1.0
    t_hot: float = 1.0
    t_cold: float = 1.0
    t_reset: float = 1.0
    phi: float = math.pi / 2
    entropy_base: float = math.e

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta}")
        for name in ("t_hot", "t_cold", "t_reset"):
            t = getattr(self, name)
            if not t > 0.0 or math.isnan(t):
                raise ValueError(f"{name} must be positive, got {t}")
        if not (0.0 <= self.phi <= math.pi):
            raise ValueError(f"phi must lie in [0, pi], got {self.phi}")
        if not self.entropy_base > 1.0:
            raise ValueError(f"entropy_base must exceed 1, got {self.entropy_base}")

    def hamiltonian(self) -> TwoLevelHamiltonian:
        return TwoLevelHamiltonian(self.delta)


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle record.  Energies in units of delta; t_* in delta/k_B units.

    q_ico_minus is the post-selection-weighted heat of stroke (i) relative to
    the cold thermal state; it equals p_minus * q_c whenever t_hot == t_cold.
    """

    t_cold: float
    p_minus: float
    rho_minus: DensityMatrix
    w: float
    q_c: float
    q_ico_minus: float
    eta: float
    t_eff_minus: float
    e_minus: float
    e_hot: float


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


def work_of_erasure(p_minus: float, t_reset: float,
                    base: float = math.e) -> float:
    """Landauer cost T_R * S(p, 1-p) of resetting the demon's one-bit memory.

    ``t_reset`` is an absolute temperature (k_B = 1), so the result is an
    energy.  Zero exactly when p_minus is 0 or 1.
    """
    if not (-PROB_FLOOR <= p_minus <= 1.0 + PROB_FLOOR):
        raise ValueError(f"p_minus must lie in [0, 1], got {p_minus}")
    if not t_reset > 0.0 or math.isnan(t_reset):
        raise ValueError(f"t_reset must be positive, got {t_reset}")
    p = min(max(p_minus, 0.0), 1.0)
    return t_reset * shannon_entropy((p, 1.0 - p), base=base)


def _state(p_g: float, p_e: float) -> DensityMatrix:
    return DensityMatrix(np.diag([p_g, p_e]), dims=(2,))


def _selections(br: kernel.Branch) -> list[PostSelection]:
    return [PostSelection(br.outcome, prob, None if degenerate else _state(g, e))
            for prob, g, e, degenerate in zip(br.prob.tolist(), br.p_g.tolist(),
                                              br.p_e.tolist(),
                                              br.degenerate.tolist())]


def _ico_points(h: TwoLevelHamiltonian, phi: float, temps,
                basis: str) -> list[IcoPoint]:
    temps = np.asarray(temps, dtype=float)
    plus, minus = kernel.switched(h.delta, phi, temps, basis)
    return [IcoPoint(t=temp / h.delta, phi=phi, basis=basis, plus=ps, minus=ms,
                     dq_plus=dq_p, dq_minus=dq_m)
            for temp, ps, ms, dq_p, dq_m in zip(
                temps.tolist(), _selections(plus), _selections(minus),
                plus.dq.tolist(), minus.dq.tolist())]


def ico_point(h: TwoLevelHamiltonian, temperature: float, phi: float,
              basis: str = "pm") -> IcoPoint:
    """Switched-process outcome data at one (absolute) temperature.

    The substance starts in the thermal state of the same temperature as the
    two reservoirs, and the ancilla is projected in the requested basis.
    """
    return _ico_points(h, phi, [temperature], basis)[0]


def ico_sweep(h: TwoLevelHamiltonian, phi: float, t_min: float, t_max: float,
              steps: int, basis: str = "pm") -> list[IcoPoint]:
    """Uniform temperature grid of :func:`ico_point` records.

    Temperatures are in delta/k_B units.  A single-point grid (steps == 1)
    requires t_min == t_max.
    """
    _check_grid(t_min, t_max, steps, min_steps=1)
    t = np.linspace(t_min, t_max, steps)
    return _ico_points(h, phi, kernel.absolute(t, h.delta), basis)


def _check_range(t_min: float, t_max: float, steps: int, min_steps: int):
    """At least ``min_steps`` points between finite bounds 0 < t_min <= t_max."""
    if steps < min_steps:
        raise ValueError(f"steps must be >= {min_steps}, got {steps}")
    for name, t in (("t_min", t_min), ("t_max", t_max)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")
    if not 0.0 < t_min <= t_max:
        raise ValueError(f"need 0 < t_min <= t_max, got [{t_min}, {t_max}]")


def _check_grid(t_min: float, t_max: float, steps: int, min_steps: int):
    """:func:`_check_range` for a uniform grid whose points are all distinct."""
    _check_range(t_min, t_max, steps, min_steps)
    if steps == 1 and t_min != t_max:
        raise ValueError("a single-point grid requires t_min == t_max")
    if steps > 1 and t_min == t_max:
        raise ValueError("t_min must be strictly below t_max for steps > 1")


def _reports(c: kernel.Cycles, t_cold: list[float]) -> list[CycleReport]:
    cols = [a.tolist() for a in (c.minus.prob, c.minus.p_g, c.minus.p_e, c.w,
                                 c.q_c, c.minus.dq, c.eta, c.t_eff,
                                 c.e_minus, c.e_hot)]
    return [CycleReport(t_cold=t, p_minus=p, rho_minus=_state(g, e), w=w,
                        q_c=q_c, q_ico_minus=dq, eta=eta, t_eff_minus=t_eff,
                        e_minus=e_minus, e_hot=e_hot)
            for t, p, g, e, w, q_c, dq, eta, t_eff, e_minus, e_hot
            in zip(t_cold, *cols)]


def run_cycle(p: CycleParams) -> CycleReport:
    """Evaluate one refrigerator cycle in closed form."""
    c = kernel.cycles(p.delta, p.phi, [p.t_cold], p.t_hot, p.t_reset,
                      p.entropy_base)
    return _reports(c, [p.t_cold])[0]


def sweep(p_template: CycleParams, t_min: float, t_max: float,
          steps: int) -> list[CycleReport]:
    """Cycle reports over a uniform grid with t_hot = t_cold = T.

    This is the equal-reservoir scenario; the template's other fields
    (delta, t_reset, phi, entropy base) are kept.
    """
    _check_grid(t_min, t_max, steps, min_steps=2)
    t = np.linspace(t_min, t_max, steps)
    c = kernel.cycles(p_template.delta, p_template.phi, t, t,
                      p_template.t_reset, p_template.entropy_base)
    return _reports(c, t.tolist())


def monte_carlo(p: CycleParams, trials: int, seed: int) -> MonteCarloStats:
    """Stochastic demon: sample the ancilla outcome per trial.

    Erasure work is charged on every trial; heat is credited only on
    successful (|-> measured) trials.  Draws come from one numpy PCG64
    generator seeded with ``seed``; batched parallel runs must derive
    per-batch seeds via ``np.random.SeedSequence(seed).spawn`` to stay
    reproducible regardless of batch count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    report = run_cycle(p)
    rng = np.random.Generator(np.random.PCG64(seed))
    successes = int(np.count_nonzero(rng.random(trials) < report.p_minus))
    w_total = trials * report.w
    q_c_total = successes * report.q_c
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
