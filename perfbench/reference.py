"""Scalar closed-form reference for the benchmark's correctness gate.

Imports nothing from ``icotherm``: every expected value is rebuilt here from
the thermal populations (p_g, p_e) and the control angle phi.  With
s = sin(phi) and the |+>/|-> measurement basis,

    P+- = 1/2 (1 +- s (p_g^3 + p_e^3)),
    p_i|+- = p_i (1 +- s p_i^2) / (2 P+-),
    dQ+- = P+- * delta * (p_e|+- - p_e),

and the refrigerator cycle charges W = T_R S(P-, P+) / ln(base) and credits
Q_C = delta (p_e|- - p_e(T_hot)), so eta = Q_C P- / W.  Temperatures are in
delta/k_B units throughout.
"""

from __future__ import annotations

import math

# Mirrors icotherm.thermo.PROB_FLOOR: outcomes at or below it have no state.
PROB_FLOOR = 1e-12
# Mirrors icotherm.linalg.Tolerances().validation, the circuit-check bound.
VALIDATION_TOL = 1e-10
# Allowed error of an output value: REL_TOL relative to max(1, |expected|),
# plus COND_TOL / P for values conditioned on an outcome of probability P
# (dividing by a small P amplifies the rounding of the 4x4 matrix path).
REL_TOL = 1e-9
COND_TOL = 64 * 2.220446049250313e-16
# Demon successes must lie within BINOMIAL_Z standard deviations (plus one
# count) of trials * P-; a correct sampler fails this about once in 5e8 runs.
BINOMIAL_Z = 6.0


def populations(t: float) -> tuple[float, float]:
    """(p_g, p_e) of the thermal state at t = T k_B / delta; t may be inf."""
    x = math.exp(-1.0 / t)
    p_e = x / (1.0 + x)
    return 1.0 - p_e, p_e


def outcome(t: float, phi: float, name: str):
    """(P, (p_g|, p_e|) or None) for one ancilla outcome at temperature t."""
    p_g, p_e = populations(t)
    if name in ("plus", "minus"):
        sign = 1.0 if name == "plus" else -1.0
        s = math.sin(phi)
        prob = min(max(0.5 * (1.0 + sign * s * (p_g ** 3 + p_e ** 3)), 0.0), 1.0)
        if prob <= PROB_FLOOR:
            return prob, None
        return prob, (p_g * (1.0 + sign * s * p_g ** 2) / (2.0 * prob),
                      p_e * (1.0 + sign * s * p_e ** 2) / (2.0 * prob))
    half = phi / 2.0
    prob = math.cos(half) ** 2 if name == "zero" else math.sin(half) ** 2
    return prob, ((p_g, p_e) if prob > PROB_FLOOR else None)


def near_floor(prob: float) -> bool:
    """True where rounding may put an outcome on either side of PROB_FLOOR."""
    return abs(prob - PROB_FLOOR) <= COND_TOL


def heat(t: float, phi: float, name: str, delta: float) -> float:
    """Post-selection-weighted conditional heat P * delta * (p_e| - p_e)."""
    prob, cond = outcome(t, phi, name)
    if cond is None:
        return 0.0
    return prob * delta * (cond[1] - populations(t)[1])


def outcome_names(basis: str) -> tuple[str, str]:
    return ("plus", "minus") if basis == "pm" else ("zero", "one")


def ico_point(t: float, phi: float, basis: str, delta: float) -> dict:
    """Expected fields of one switched-process point."""
    first, second = outcome_names(basis)
    out = {"t": t, "phi": phi}
    for slot, name in (("plus", first), ("minus", second)):
        prob, cond = outcome(t, phi, name)
        out[f"p_{slot}"] = prob
        out[f"cond_{slot}"] = cond
        out[f"dq_{slot}"] = heat(t, phi, name, delta)
    return out


def entropy(p: float) -> float:
    """Binary Shannon entropy in nats, 0 ln 0 = 0."""
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0)


def cycle(t_hot: float, t_cold: float, t_reset: float, phi: float,
          delta: float, base: float) -> dict | None:
    """Expected refrigerator cycle, or None where it is degenerate (P- <= floor)."""
    p_minus, cond = outcome(t_cold, phi, "minus")
    if cond is None:
        return None
    e_minus = delta * cond[1]
    e_hot = delta * populations(t_hot)[1]
    q_c = e_minus - e_hot
    w = t_reset * delta * entropy(p_minus) / math.log(base)
    return {
        "p_minus": p_minus,
        "cond": cond,
        "w": w,
        "q_c": q_c,
        "eta": q_c * p_minus / w,
        "beta_eff": math.log(cond[0] / cond[1]) if cond[1] > 0.0 else math.inf,
        "e_minus": e_minus,
        "e_hot": e_hot,
        "q_ico_minus": heat(t_cold, phi, "minus", delta),
    }


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Uniform grid with both ends included (steps == 1 gives [lo])."""
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [hi]


def binomial_ok(successes: int, trials: int, p: float) -> bool:
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(successes - trials * p) <= BINOMIAL_Z * sd + 1.0
