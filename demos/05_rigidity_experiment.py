#!/usr/bin/env python3
"""Closure rigidity of half-plane spirals, at desk scale.

Among curves in the hyperbolic half-plane whose curvature solves the spiral
equation with a fixed R, only the constant (equilibrium) solution closes: it
is a hyperbolic circle.  Perturbed initial states oscillate in curvature and
precess without ever returning to their initial position-and-frame state.
Each perturbed curve is integrated for one curvature period T only: after T
the curve repeats, moved by a hyperbolic isometry (its holonomy), and the
closure test follows it over the horizon through powers of that isometry.
This script runs a reduced grid; the full 5x5 / horizon-200 experiment runs
via `mobiusflat rigidity` or the acceptance suite.
"""

from mobiusflat.checks import rigidity_scan
from mobiusflat.config import RunConfig

cfg = RunConfig(horizon=60.0, grid_size=3, grid_spread=0.2).validate()
result = rigidity_scan(cfg)

eq = result["equilibrium"]
print(f"equilibrium kappa* = {result['equilibrium_kappa']:.6f}")
print(
    f"equilibrium curve: {eq['status']} with defect {eq['defect']:.2e}, "
    f"period {eq['period']:.6f} (expected {eq['expected_period']:.6f})"
)
print(f"\nperturbed grid ({cfg.grid_size}x{cfg.grid_size}, horizon {cfg.horizon}):")
for row in result["grid"]:
    print(
        f"  kappa0 = {row['kappa0']:.4f}, kappa_s0 = {row['kappa_s0']:+.4f}: "
        f"{row['status']} (min defect {row['min_defect']:.3e}; kappa period "
        f"{row['kappa_period']:.6f}, holonomy trace {row['holonomy_trace']:.6f})"
    )
print(f"\nclosures among perturbed states: {result['grid_closures']}")
print("flat-model control (non-constant curvature, certified from its exact kappa(s)):")
for row in result["flat_control"]:
    print(
        f"  kappa_s0 = {row['kappa_s0']:+.4f}: {row['status']} (E = {row['E']:.3e}, "
        f"kappa monotone {row['kappa_monotone']}, in band {row['kappa_in_band']}, "
        f"defect bound {row['defect_bound']:.3e})"
    )
print(f"certified open: {result['flat_control_certified_open']}")
print(f"overall: {result['status']}")
