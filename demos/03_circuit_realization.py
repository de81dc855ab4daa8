#!/usr/bin/env python3
"""Gate-level realization of the switch on a 4-qubit register.

Qubit roles: ancilla, working substance, two reservoir qubits.  Thermal
states are prepared by a y-rotation plus a coherence crusher; four
controlled-SWAP gates route the substance through the reservoirs in an
ancilla-controlled order.  The circuit marginal is compared entrywise with
the operator-sum closed form, with and without expanding each
controlled-SWAP into three Toffoli gates.
"""

import math

import numpy as np

from icotherm import (
    AncillaState,
    TwoLevelHamiltonian,
    build_switch_circuit,
    cswap,
    cswap_to_toffoli,
    partial_trace,
    switch_closed_form,
    thermal_prep_angle,
    thermal_state,
    verify_grid,
)

h = TwoLevelHamiltonian(delta=1.0)

print("Thermal preparation angles theta = arccos(p_g - p_e):")
for t in (0.5, 1.0, 2.0):
    theta = thermal_prep_angle(thermal_state(h, t))
    print(f"  T = {t:3.1f}: theta = {theta:.6f} rad")

print("\nControlled-SWAP -> Toffoli expansion (control value 0 and 1):")
for cv in (1, 0):
    parts = cswap_to_toffoli(cswap(0, 1, 2, control_value=cv))
    names = ", ".join(f"{g.kind}{g.targets}" for g in parts)
    print(f"  control={cv}: {names}")

print("\nFinal register at T = 1, phi = pi/2 "
      "(ancilla+substance marginal, real part):")
reg = build_switch_circuit(h, 1.0, math.pi / 2)
marginal = partial_trace(reg.state, keep={0, 1})
print(np.round(marginal.mat.real, 6))

rho_t = thermal_state(h, 1.0)
closed = switch_closed_form(AncillaState(math.pi / 2), rho_t, rho_t)
print(f"\nMax entry distance circuit vs closed form: "
      f"{np.max(np.abs(marginal.mat - closed.mat)):.2e}")

print("\nCircuit vs closed form, max entry distance over a (T, phi) grid:")
print(f"{'T':>5} {'phi':>8} {'direct':>12} {'3-toffoli':>12}")
temps = np.linspace(0.2, 3.0, 5).tolist()
phis = np.linspace(0.0, math.pi, 5).tolist()
direct = verify_grid(h, temps, phis)
toffoli = verify_grid(h, temps, phis, decompose_cswap=True)
points = [(t, phi) for t in temps for phi in phis]
for (t, phi), d0, d1 in zip(points, direct, toffoli):
    print(f"{t:5.2f} {phi:8.4f} {d0:12.2e} {d1:12.2e}")
print("\nEvery distance sits at floating-point noise: the gate pipeline and")
print("the operator-sum description are the same physical process.")
