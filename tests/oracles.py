"""Independent reference implementations used as test oracles.

Everything here is built from first principles with explicit index loops and
only numpy, on purpose: these functions must not share code with the package
they check.  The table writer's reference uses the standard ``csv`` and
``json`` modules, and the exact closed form (:func:`switch_exact`,
:func:`cycle_exact`) the standard ``decimal`` module at 50 digits.
"""

import csv
import io
import json
import math
from decimal import Decimal, localcontext

import numpy as np


def boltzmann(delta, t):
    """(p_g, p_e) from direct Boltzmann weights exp(-E/T)/Z."""
    w = np.array([1.0, np.exp(-delta / t)])
    return w / w.sum()


def thermal_rho(delta, t):
    return np.diag(boltzmann(delta, t)).astype(complex)


def replacement_kraus(delta, t):
    """The 4 operators sqrt(p_i)|i><j|, written out one entry at a time."""
    p = boltzmann(delta, t)
    ops = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), complex)
            e[i, j] = np.sqrt(p[i])
            ops.append(e)
    return ops


def switch_kraus(k1, k2):
    """All 16 switch operators, ancilla projectors written out explicitly."""
    p0 = np.zeros((2, 2), complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((2, 2), complex)
    p1[1, 1] = 1.0
    out = []
    for e2 in k2:
        for e1 in k1:
            out.append(np.kron(p0, e2 @ e1) + np.kron(p1, e1 @ e2))
    return out


def apply_kraus(ops, rho):
    out = np.zeros_like(rho, dtype=complex)
    for e in ops:
        out += e @ rho @ e.conj().T
    return out


def kron_entry(a, b, i, j):
    """Tensor-product entry by index arithmetic: row i = i_a*dim(b)+i_b."""
    db = b.shape[0]
    return a[i // db, j // db] * b[i % db, j % db]


def kron_by_indices(a, b):
    d = a.shape[0] * b.shape[0]
    out = np.zeros((d, d), complex)
    for i in range(d):
        for j in range(d):
            out[i, j] = kron_entry(a, b, i, j)
    return out


def ptrace_second(rho4):
    """Keep factor 0 of a two-qubit state by explicit 2-index summation."""
    out = np.zeros((2, 2), complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho4[2 * i + k, 2 * j + k]
    return out


def ptrace_first(rho4):
    """Keep factor 1 by explicit summation."""
    out = np.zeros((2, 2), complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho4[2 * k + i, 2 * k + j]
    return out


OUTCOME_KETS = {
    "zero": np.array([1.0, 0.0]),
    "one": np.array([0.0, 1.0]),
    "plus": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "minus": np.array([1.0, -1.0]) / np.sqrt(2.0),
}


def block_post_select(joint4, outcome):
    """2x2 block algebra: (prob, conditional state or None)."""
    b = OUTCOME_KETS[outcome]
    m = np.zeros((2, 2), complex)
    for i in range(2):
        for j in range(2):
            m += np.conj(b[i]) * b[j] * joint4[2 * i:2 * i + 2, 2 * j:2 * j + 2]
    prob = float(np.real(np.trace(m)))
    return prob, (m / prob if prob > 1e-12 else None)


def entropy_nats(ps):
    s = 0.0
    for p in ps:
        if p > 0.0:
            s -= p * np.log(p)
    return float(s)


def ancilla_density(phi):
    k = np.array([np.cos(phi / 2), np.sin(phi / 2)], complex)
    return np.outer(k, k.conj())


def ico_brute_force(delta, t, phi, rho=None):
    """Full pipeline: replacement Kraus -> 16 switch operators -> post-selection.

    ``rho`` defaults to the thermal state at ``t``.  Returns the joint output,
    both +/- post-selections, and the conditional heats.
    """
    k = replacement_kraus(delta, t)
    rho_t = thermal_rho(delta, t)
    if rho is None:
        rho = rho_t
    joint = apply_kraus(switch_kraus(k, k), np.kron(ancilla_density(phi), rho))
    p_minus, rho_m = block_post_select(joint, "minus")
    p_plus, rho_p = block_post_select(joint, "plus")
    e_t = delta * np.real(rho_t[1, 1])

    def heat(prob, state):
        if state is None:
            return 0.0
        return prob * (delta * np.real(state[1, 1]) - e_t)

    return {
        "joint": joint,
        "rho_t": rho_t,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "rho_plus": rho_p,
        "rho_minus": rho_m,
        "dq_plus": heat(p_plus, rho_p),
        "dq_minus": heat(p_minus, rho_m),
    }


def random_rho(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def emit_text(header, rows, fmt, extra=None):
    """A CLI table as ``csv.writer`` and ``json.dumps(indent=2)`` write it.

    Cell by cell: ints whole, floats with 12 significant digits (JSON holds
    the float those digits parse to); ``extra`` is added to every JSON object.
    """
    def is_int(x):
        return isinstance(x, (int, np.integer))

    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([str(int(x)) if is_int(x) else format(float(x), ".12g")
                        for x in row])
        return buf.getvalue()
    objs = []
    for row in rows:
        obj = {}
        for key, x in zip(header, row):
            obj[key] = int(x) if is_int(x) else float(format(float(x), ".12g"))
        obj.update(extra or {})
        objs.append(obj)
    return json.dumps(objs, indent=2) + "\n"


# Working precision of the exact closed form.  Its worst cancellation is
# P- = (1 - sin phi (p_g³ + p_e³)) / 2 near phi = pi/2 and T -> 0, where
# sin of the double nearest pi/2 is 1 - 1.9e-33: 33 digits are lost there and
# at least 17 remain.
DIGITS = 50


def _dec(x):
    """The exact value of a double (inf stays inf)."""
    return Decimal(float(x))


def _sin(x):
    """sin x by its Taylor series, x a Decimal of modest size."""
    term, total, k = x, x, 1
    tiny = Decimal(10) ** -(DIGITS + 5)
    while abs(term) > tiny:
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def thermal_populations(t):
    """(p_g, p_e) at temperature t (in delta/k_B units): weights 1, e^(-1/t)."""
    w = (-1 / _dec(t)).exp()
    return 1 / (1 + w), w / (1 + w)


def switch_exact(t, delta, phi, basis="pm"):
    """Both outcomes of the switch of two thermalizing channels, exactly.

    ``t`` is the temperature in delta/k_B units (the substance and both
    reservoirs), ``phi`` the ancilla angle and ``basis`` "pm" (|+>, |->) or
    "computational" (|0>, |1>); all are taken as the exact values of the
    doubles given.  The switch output has ancilla blocks c² rho, (sin phi / 2)
    rho³, (sin phi / 2) rho³ and s² rho with c, s = cos, sin(phi / 2);
    projecting the ancilla on b leaves m_k = sum_ij b_i b_j block_ij[k].
    Returns, per outcome, the Decimals (P, p_g | outcome, p_e | outcome, dQ)
    with dQ = delta (m_e - P p_e); the conditional populations are None
    where P = 0.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        p_g, p_e = thermal_populations(t)
        half = _dec(phi) / 2
        s2 = _sin(half) ** 2
        cross = _sin(_dec(phi)) / 2
        kets = {"pm": ((1, 1), (1, -1)), "computational": ((1, 0), (0, 1))}[basis]
        out = []
        for b in kets:
            norm = Decimal(b[0] ** 2 + b[1] ** 2)
            m = [(b[0] * b[0] * (1 - s2) * p + b[0] * b[1] * cross * p ** 3
                  + b[1] * b[0] * cross * p ** 3 + b[1] * b[1] * s2 * p) / norm
                 for p in (p_g, p_e)]
            prob = m[0] + m[1]
            cond = (m[0] / prob, m[1] / prob) if prob else (None, None)
            out.append((prob, *cond, _dec(delta) * (m[1] - prob * p_e)))
        return out


def _h(p, base):
    """Binary entropy of p in ``base`` (math.e: natural log)."""
    nats = -(p * p.ln() + (1 - p) * (1 - p).ln()) if 0 < p < 1 else Decimal(0)
    return nats if base == math.e else nats / _dec(base).ln()


def cycle_exact(t_cold, t_hot, delta, phi, t_reset, base=math.e):
    """The demon refrigerator's cycle, exactly, as Decimals
    (P-, W, Q_C, eta, dQ-).

    P- and dQ- are the |-> outcome of :func:`switch_exact` at t_cold; the
    conditional state rejects Q_C = delta (p_e | - - p_e(t_hot)) to the hot
    reservoir; erasing the demon's bit costs W = t_reset delta h(P-) every
    attempt, and eta = P- Q_C / W.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        prob, _, p_e_minus, dq = switch_exact(t_cold, delta, phi)[1]
        q_c = _dec(delta) * (p_e_minus - thermal_populations(t_hot)[1])
        w = _dec(t_reset) * _dec(delta) * _h(prob, base)
        return prob, w, q_c, prob * q_c / w, dq
