"""The fixed-step RK4 marcher of the spiral system that the Taylor marcher replaced.

Kept as the one RK4 oracle of spiral.py, which marches every row, spiral and
prescribed-curvature alike, with taylor.march.  A state is a tuple
(kappa, kappa_s, *curve) of Python floats.  spiral_step builds, once per
parameter set, one unrolled RK4 step of the kappa equation, and
prescribed_step one step of a prescribed kappa(s); either is finished by one
of the frame steps below, and march runs a step function over the fixed
grid of spacing IntegratorControls.step, bisecting a band crossing within a
step.  Every step is classical RK4 written out term by term: stage states
y + (0.5 h) k, the update y + (h / 6) (((k1 + 2 k2) + 2 k3) + k4) and the
component order of np.cross.

A frame step frame(kn, ksn, q1, q2, q3, q4, h, y) returns the stepped state:
kn and ksn are the new kappa and kappa_s, q1..q4 the kappa of the four stages
and y the state before the step.
"""

from array import array
from math import ceil, cos, nan, sin, sqrt

import numpy as np

from mobiusflat import spiral, taylor
from mobiusflat.spiral import (
    HALF_PLANE,
    PLANE,
    SPHERE,
    IntegratorControls,
    SpiralParams,
    default_curve_start,
)


def plane_frame(kn, ksn, q1, q2, q3, q4, h, y):
    """(x, y, theta)' = (cos theta, sin theta, kappa); q1..q4 are the stage kappas."""
    _, _, x, v, th = y
    hh = 0.5 * h
    t2, t3, t4 = th + hh * q1, th + hh * q2, th + h * q3
    c1, c2, c3, c4 = cos(th), cos(t2), cos(t3), cos(t4)
    s1, s2, s3, s4 = sin(th), sin(t2), sin(t3), sin(t4)
    h6 = h / 6.0
    return (
        kn,
        ksn,
        x + h6 * (((c1 + 2.0 * c2) + 2.0 * c3) + c4),
        v + h6 * (((s1 + 2.0 * s2) + 2.0 * s3) + s4),
        th + h6 * (((q1 + 2.0 * q2) + 2.0 * q3) + q4),
    )


def half_plane_frame(kn, ksn, q1, q2, q3, q4, h, y):
    """(x, y, phi)' = (y cos phi, y sin phi, kappa - cos phi)."""
    _, _, x, v, p = y
    hh = 0.5 * h
    c, s = cos(p), sin(p)
    dx1, dv1, dp1 = v * c, v * s, q1 - c
    va, pa = v + hh * dv1, p + hh * dp1
    c, s = cos(pa), sin(pa)
    dx2, dv2, dp2 = va * c, va * s, q2 - c
    va, pa = v + hh * dv2, p + hh * dp2
    c, s = cos(pa), sin(pa)
    dx3, dv3, dp3 = va * c, va * s, q3 - c
    va, pa = v + h * dv3, p + h * dp3
    c, s = cos(pa), sin(pa)
    dx4, dv4, dp4 = va * c, va * s, q4 - c
    h6 = h / 6.0
    return (
        kn,
        ksn,
        x + h6 * (((dx1 + 2.0 * dx2) + 2.0 * dx3) + dx4),
        v + h6 * (((dv1 + 2.0 * dv2) + 2.0 * dv3) + dv4),
        p + h6 * (((dp1 + 2.0 * dp2) + 2.0 * dp3) + dp4),
    )


def sphere_frame(kn, ksn, q1, q2, q3, q4, h, y):
    """(gamma, T)' = (T, kappa gamma x T - gamma), then re-orthonormalized."""
    _, _, g1, g2, g3, t1, t2, t3 = y
    hh = 0.5 * h
    # stage 1 at (g, t)
    a1 = q1 * (g2 * t3 - g3 * t2) - g1
    a2 = q1 * (g3 * t1 - g1 * t3) - g2
    a3 = q1 * (g1 * t2 - g2 * t1) - g3
    # stage 2 at (g + hh t, t + hh a)
    u1, u2, u3 = g1 + hh * t1, g2 + hh * t2, g3 + hh * t3
    v1, v2, v3 = t1 + hh * a1, t2 + hh * a2, t3 + hh * a3
    b1 = q2 * (u2 * v3 - u3 * v2) - u1
    b2 = q2 * (u3 * v1 - u1 * v3) - u2
    b3 = q2 * (u1 * v2 - u2 * v1) - u3
    # stage 3 at (g + hh v, t + hh b)
    u1, u2, u3 = g1 + hh * v1, g2 + hh * v2, g3 + hh * v3
    w1, w2, w3 = t1 + hh * b1, t2 + hh * b2, t3 + hh * b3
    c1 = q3 * (u2 * w3 - u3 * w2) - u1
    c2 = q3 * (u3 * w1 - u1 * w3) - u2
    c3 = q3 * (u1 * w2 - u2 * w1) - u3
    # stage 4 at (g + h w, t + h c)
    u1, u2, u3 = g1 + h * w1, g2 + h * w2, g3 + h * w3
    z1, z2, z3 = t1 + h * c1, t2 + h * c2, t3 + h * c3
    d1 = q4 * (u2 * z3 - u3 * z2) - u1
    d2 = q4 * (u3 * z1 - u1 * z3) - u2
    d3 = q4 * (u1 * z2 - u2 * z1) - u3
    h6 = h / 6.0
    g1 += h6 * (((t1 + 2.0 * v1) + 2.0 * w1) + z1)
    g2 += h6 * (((t2 + 2.0 * v2) + 2.0 * w2) + z2)
    g3 += h6 * (((t3 + 2.0 * v3) + 2.0 * w3) + z3)
    t1 += h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
    t2 += h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
    t3 += h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
    # unit gamma, then T projected off gamma and normalized; the dot product
    # is summed in the order numpy's einsum uses for three terms
    norm = sqrt((g1 * g1 + g2 * g2) + g3 * g3)
    g1, g2, g3 = g1 / norm, g2 / norm, g3 / norm
    dot = (t1 * g1 + t3 * g3) + t2 * g2
    t1, t2, t3 = t1 - dot * g1, t2 - dot * g2, t3 - dot * g3
    norm = sqrt((t1 * t1 + t2 * t2) + t3 * t3)
    return kn, ksn, g1, g2, g3, t1 / norm, t2 / norm, t3 / norm


FRAME_STEP = {PLANE: plane_frame, SPHERE: sphere_frame, HALF_PLANE: half_plane_frame}


def finite_step(step, s: float, y: tuple, h: float) -> tuple:
    """step(s, y, h), with an all-NaN state where the float arithmetic overflows.

    Python floats raise (x**3 overflowing, cos of an infinity) where numpy
    arrays give inf or nan; either way the state has left the band.
    """
    try:
        return step(s, y, h)
    except (ArithmeticError, ValueError):
        return (nan,) * len(y)


def bisect(step, s_now: float, y: tuple, step_h: float, floor: float, ceiling: float):
    """Refine a band crossing within one step to 1e-10 in s and tag it."""
    lo, hi = 0.0, step_h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if floor < finite_step(step, s_now, y, mid)[0] < ceiling:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    y_end = finite_step(step, s_now, y, hi)
    return s_now + hi, y_end, taylor.band_exit(y_end, floor, ceiling)


def march(step, y0, s_max: float, controls: IntegratorControls):
    """Fixed-step RK4 of one row y0 from s = 0 to s_max with step(s, y, h).

    Element 0 of the row is kappa.  A step that leaves the open band
    (kappa_floor, kappa_ceiling) or turns non-finite is refined by bisection
    on the step size (to 1e-10 in s); the state at the crossing is the last
    sample.  States are stored every store_stride steps and at the end.
    Returns (s, states (K, d), termination).
    """
    floor, ceiling = controls.kappa_floor, controls.kappa_ceiling
    h, stride = controls.step, controls.store_stride
    s_max = float(s_max)
    n_steps = ceil(s_max / h - 1e-12)
    y = tuple(float(v) for v in y0)
    stored_s, stored = array("d", [0.0]), array("d", y)
    s_now, termination = 0.0, "horizon"
    for i in range(n_steps):
        step_h = min(h, s_max - s_now)
        try:  # finite_step, inline in the hot loop
            y_new = step(s_now, y, step_h)
            inside = floor < y_new[0] < ceiling
        except (ArithmeticError, ValueError):
            inside = False
        if not inside:
            s_end, y_end, termination = bisect(step, s_now, y, step_h, floor, ceiling)
            stored_s.append(s_end)
            stored.extend(y_end)
            break
        y = y_new
        s_now += step_h
        if (i + 1) % stride == 0 or i == n_steps - 1:
            stored_s.append(s_now)
            stored.extend(y)
    return np.frombuffer(stored_s), np.frombuffer(stored).reshape(-1, len(y)), termination


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
    frame = FRAME_STEP[params.model] if joint else no_curve
    start = list(default_curve_start(params.model)) if joint else []
    y0 = np.array([k0, ks0] + start, dtype=float)
    return march(spiral_step(params, frame), y0, controls.s_max, controls)


def prescribed_step(model: str, kappa_taylor):
    """RK4 step (s, y, h) -> y of the frame under a prescribed kappa(s).

    kappa_taylor(s, order) gives the Taylor coefficients of kappa about each
    s.  The stage kappas are kappa at s, s + h/2 and s + h; kappa advances by
    the RK4 quadrature of kappa_s, and kappa_s, which no equation moves, is
    kept.
    """
    frame = FRAME_STEP[model]

    def step(s, y, h):
        (q1, p1), (q2, p2), (q4, p4) = kappa_taylor(np.array([s, s + 0.5 * h, s + h]), 1).tolist()
        kn = y[0] + (h / 6.0) * (((p1 + 2.0 * p2) + 2.0 * p2) + p4)
        return frame(kn, y[1], q1, q2, q2, q4, h, y)

    return step


def prescribed_row(model: str, kappa_taylor, y0, controls: IntegratorControls):
    """(s, states, termination) of one prescribed-curvature row from y0 = (kappa, kappa_s, *c)."""
    return march(prescribed_step(model, kappa_taylor), y0, controls.s_max, controls)
