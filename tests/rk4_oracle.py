"""The fused fixed-step RK4 step of the spiral system that the Taylor marcher replaced.

Kept as the test oracle: spiral_step builds, once per parameter set, one
unrolled RK4 step of the kappa equation on Python floats, finished by one of
spiral.py's RK4 frame steps, and rows marches it with spiral._march, the
fixed-step marcher that prescribed_curvature_trajectory still uses.  The
step follows the arithmetic of the vectorized right-hand sides term for
term (see tests/numpy_stepper.py, the oracle of the RK4 step itself).
"""

import numpy as np

from mobiusflat import spiral
from mobiusflat.spiral import IntegratorControls, SpiralParams, default_curve_start


def no_curve(kn, ksn, q1, q2, q3, q4, h, y):
    return kn, ksn


def spiral_step(params: SpiralParams, frame):
    """RK4 step (s, y, h) -> y of the spiral equation; frame advances the curve."""
    c2, c1, big_r = spiral._coefficients(params)

    def step(s, y, h):
        k, ks = y[0], y[1]
        hh = 0.5 * h
        a1 = (c2 * (ks * ks) / (2.0 * (1e-300 if abs(k) < 1e-300 else k))
              + c1 * k / 2.0 - big_r * k**3)
        k2, ks2 = k + hh * ks, ks + hh * a1
        a2 = (c2 * (ks2 * ks2) / (2.0 * (1e-300 if abs(k2) < 1e-300 else k2))
              + c1 * k2 / 2.0 - big_r * k2**3)
        k3, ks3 = k + hh * ks2, ks + hh * a2
        a3 = (c2 * (ks3 * ks3) / (2.0 * (1e-300 if abs(k3) < 1e-300 else k3))
              + c1 * k3 / 2.0 - big_r * k3**3)
        k4, ks4 = k + h * ks3, ks + h * a3
        a4 = (c2 * (ks4 * ks4) / (2.0 * (1e-300 if abs(k4) < 1e-300 else k4))
              + c1 * k4 / 2.0 - big_r * k4**3)
        h6 = h / 6.0
        kn = k + h6 * (((ks + 2.0 * ks2) + 2.0 * ks3) + ks4)
        ksn = ks + h6 * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
        return frame(kn, ksn, k, k2, k3, k4, h, y)

    return step


def row(params: SpiralParams, k0, ks0, controls: IntegratorControls, joint: bool):
    """(s, states, termination) of one RK4 row from the default curve start."""
    frame = spiral._FRAME_STEP[params.model] if joint else no_curve
    start = list(default_curve_start(params.model)) if joint else []
    y0 = np.array([k0, ks0] + start, dtype=float)
    return spiral._march(spiral_step(params, frame), y0, controls.s_max, controls)
