#!/usr/bin/env python3
"""Scalar-curvature normalization audit on the warped metric family.

The metric kappa(s)^2 (ds^2 + I_{-eps}) has constant scalar curvature
exactly when kappa solves the standard-variant spiral ODE; the constant is
an affine function of the prescribed R whose slope depends on the
normalization (2(n-1) for the full trace).  The alternate coefficient
convention does not preserve the scalar curvature, which the audit shows
numerically.
"""

import numpy as np

from mobiusflat.checks import suite_steps, warped_metric_field, warped_base_point
from mobiusflat.config import RunConfig
from mobiusflat.curvature import Convention, metric_field_curvature, metric_field_curvature_batch
from mobiusflat.spiral import (
    ALTERNATE,
    IntegratorControls,
    SpiralParams,
    SpiralState,
    integrate_spiral,
    reconstruct_curve,
)

n = 4
step = suite_steps(RunConfig())["scalar"]  # the suite's warped-metric scalar step


def scalar_profile(params, k0, ks0, s_max=4.0):
    traj = reconstruct_curve(
        integrate_spiral(params, SpiralState(k0, ks0), IntegratorControls(s_max=s_max))
    )
    svals = np.linspace(traj.s[0] + 0.3, traj.s[-1] - 0.3, 12)
    pts = np.array([warped_base_point(n, params.epsilon, s) for s in svals])
    return metric_field_curvature_batch(warped_metric_field(traj, n), pts, step).scalar


print("standard variant, eps = -1 (sphere cross-section):")
for big_r in (0.3, 0.75, 1.2):
    params = SpiralParams(n, -1, big_r)
    vals = scalar_profile(params, 1.05 * np.sqrt((n - 2) / (2 * big_r)), 0.0)
    print(
        f"  R = {big_r:5.2f}: computed scalar {vals.mean():12.8f} "
        f"(spread {vals.max()-vals.min():.2e}); ratio to R = {vals.mean()/big_r:.6f}"
    )
print(f"  -> full-trace slope 2(n-1) = {2*(n-1)}; half and normalized scale accordingly")

print("\nalternate coefficient convention (same R = 0.75, eps = -1):")
vals = scalar_profile(SpiralParams(n, -1, -0.75, variant=ALTERNATE), 1.25, 0.05)
print(f"  scalar range [{vals.min():.4f}, {vals.max():.4f}]: not constant")

print("\nper-normalization values at one point (standard, R = 0.75):")
params = SpiralParams(n, -1, 0.75)
traj = reconstruct_curve(
    integrate_spiral(params, SpiralState(1.25, 0.05), IntegratorControls(s_max=4.0))
)
field = warped_metric_field(traj, n)
p = warped_base_point(n, -1, 2.0)
for conv in Convention:
    b = metric_field_curvature(field, p, step, conv)
    print(f"  {conv.value:10s}: {b.scalar:.8f}")
