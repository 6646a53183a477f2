#!/usr/bin/env python3
"""Spiral curves in the three 2d model spaces.

Integrates the prescribed-curvature ODE, checks the conserved first
integral, and shows that constant curvature closes the curve (a circle)
while non-constant solutions precess without closing.
"""

import numpy as np

from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    closure_test,
    equilibrium_kappa,
    export_csv,
    integrate_grid,
)

# --- plane model: kappa == 1 gives the unit circle ------------------------
plane = SpiralParams(n=4, epsilon=0, R=0.0)
traj = integrate_grid(plane, [[1.0, 0.0]], IntegratorControls(s_max=7.0))[0]
res = closure_test(traj)
print(f"plane, kappa = 1: {res.status}, period {res.period:.9f} (2 pi = {2*np.pi:.9f})")

# --- half-plane model: the equilibrium curvature closes a hyperbolic circle
half = SpiralParams(n=4, epsilon=-1, R=0.75)
kstar = equilibrium_kappa(half)
print(f"\nhalf-plane equilibrium kappa* = {kstar:.6f} (constant solution)")
period = 2 * np.pi / np.sqrt(kstar**2 - 1)
traj = integrate_grid(half, [[kstar, 0.0]], IntegratorControls(s_max=1.3 * period))[0]
res = closure_test(traj)
print(f"equilibrium spiral: {res.status}, defect {res.defect:.3e}, period {res.period:.6f}")

# --- a non-equilibrium spiral oscillates and does not close ----------------
traj = integrate_grid(half, [[1.3, 0.05]], IntegratorControls(s_max=60.0))[0]
print(
    f"perturbed spiral: kappa oscillates in [{traj.kappa.min():.4f}, {traj.kappa.max():.4f}], "
    f"first-integral drift {traj.first_integral_drift():.2e}"
)
res = closure_test(traj)
print(f"closure over s <= 60: {res.status} (min defect {res.defect:.3e})")

# --- sphere model, and a CSV export ----------------------------------------
sphere = SpiralParams(n=4, epsilon=1, R=-1.0)
traj = integrate_grid(sphere, [[1.05, 0.0]], IntegratorControls(s_max=3.0))[0]
gam = traj.curve[:, 0:3]
print(f"\nsphere model: |gamma| stays at 1 within {np.abs(np.linalg.norm(gam, axis=1)-1).max():.2e}")
print(export_csv(traj).splitlines()[0])
print("(full trajectory CSV available via export_csv or the `mobiusflat spiral` command)")
