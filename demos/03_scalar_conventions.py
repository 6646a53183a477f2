#!/usr/bin/env python3
"""Scalar-curvature normalization audit on the warped metric family.

The metric kappa(s)^2 (ds^2 + I_{-eps}) has constant scalar curvature
exactly when kappa solves the spiral ODE; the constant is an affine function
of the prescribed R whose slope depends on the normalization (2(n-1) for the
full trace).  A curvature that does not solve the ODE (the non-solution
control of scalar_constancy, kappa = 1.15 + 0.3 sin s, marched as the row of
kappa'' = 1.15 - kappa) does not keep the scalar curvature constant, which
the audit shows numerically.
Every scalar is the curvature of the metric's exact 2-jet, built from the
step polynomials of the trajectory: no step is taken.
"""

import numpy as np

from mobiusflat.checks import warped_base_point
from mobiusflat.curvature import Convention, convert_scalar, curvature_batch
from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    integrate_grid,
    sine_curvature_trajectory,
)
from mobiusflat.zoo import warped_metric_jet

n = 4


def spiral(params, k0, ks0, s_max=4.0):
    return integrate_grid(params, [[k0, ks0]], IntegratorControls(s_max=s_max))[0]


def scalar_profile(traj):
    svals = np.linspace(traj.s[0] + 0.3, traj.s[-1] - 0.3, 12)
    pts = np.array([warped_base_point(n, traj.params.epsilon, s) for s in svals])
    return curvature_batch(*warped_metric_jet(traj, pts, 2).levels).scalar


print("spiral equation, eps = -1 (sphere cross-section):")
for big_r in (0.3, 0.75, 1.2):
    params = SpiralParams(n, -1, big_r)
    vals = scalar_profile(spiral(params, 1.05 * np.sqrt((n - 2) / (2 * big_r)), 0.0))
    print(
        f"  R = {big_r:5.2f}: computed scalar {vals.mean():12.8f} "
        f"(spread {vals.max()-vals.min():.2e}); ratio to R = {vals.mean()/big_r:.6f}"
    )
print(f"  -> full-trace slope 2(n-1) = {2*(n-1)}; half and normalized scale accordingly")

print("\nnon-solution control, kappa = 1.15 + 0.3 sin s (eps = -1):")
control = sine_curvature_trajectory(n, -1, 1.15, 0.3, IntegratorControls(s_max=4.0))
vals = scalar_profile(control)
print(f"  scalar range [{vals.min():.4f}, {vals.max():.4f}]: not constant")

print("\nper-normalization values at one point (R = 0.75):")
traj = spiral(SpiralParams(n, -1, 0.75), 1.25, 0.05)
p = warped_base_point(n, -1, 2.0)
full = curvature_batch(*warped_metric_jet(traj, p[None, :], 2).levels).scalar[0]
for conv in Convention:
    print(f"  {conv.value:10s}: {convert_scalar(full, Convention.FULL_TRACE, conv, n):.8f}")
