"""The numpy batch RK4 stepper that the fused float kernel of spiral.py replaced.

Kept as the test oracle: it steps a (B, d) batch of rows with one vectorized
right-hand side, bisects any row's crossing of the kappa floor, the ceiling
or a non-finite value (to 1e-10 in s), stores the crossing, tags it (a
non-finite end state as "non_finite") and freezes the row.  Every arithmetic
operation is elementwise, so the kernel should match it up to numpy's own
rounding of kappa**3 against libm pow.
"""

import numpy as np

from mobiusflat.spiral import SPHERE, IntegratorControls, SpiralParams, kappa_accel


def frame_rhs(model, kappa, y, out):
    """Unit-speed frame equations: fill out[:, 2:] from the curve y[:, 2:]."""
    if model == "plane":
        theta = y[:, 4]
        out[:, 2] = np.cos(theta)
        out[:, 3] = np.sin(theta)
        out[:, 4] = kappa
    elif model == "half-plane":
        yy, phi = y[:, 3], y[:, 4]
        out[:, 2] = yy * np.cos(phi)
        out[:, 3] = yy * np.sin(phi)
        out[:, 4] = kappa - np.cos(phi)
    else:
        gam, tan = y[:, 2:5], y[:, 5:8]
        out[:, 2:5] = tan
        out[:, 5:8] = kappa[:, None] * np.cross(gam, tan) - gam


def joint_rhs(params: SpiralParams, y):
    out = np.empty_like(y)
    kappa, kappa_s = y[:, 0], y[:, 1]
    out[:, 0] = kappa_s
    out[:, 1] = kappa_accel(params, kappa, kappa_s)
    if y.shape[1] > 2:
        frame_rhs(params.model, kappa, y, out)
    return out


def renormalize_sphere(y):
    gam = y[:, 2:5]
    gam /= np.linalg.norm(gam, axis=1)[:, None]
    tan = y[:, 5:8]
    tan -= np.einsum("ki,ki->k", tan, gam)[:, None] * gam
    tan /= np.linalg.norm(tan, axis=1)[:, None]


def rk4_step(rhs, s, y, h, sphere):
    k1 = rhs(s, y)
    k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(s + h, y + h * k3)
    out = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if sphere:
        renormalize_sphere(out)
    return out


def march(rhs, y0, s_max, controls: IntegratorControls, sphere):
    """Fixed-step RK4 of the rows of y0 (B, d); one (s, states, termination) per row."""
    floor, ceiling = controls.kappa_floor, controls.kappa_ceiling
    h, stride = controls.step, controls.store_stride
    n_steps = int(np.ceil(s_max / h - 1e-12))
    mid_gap = np.sqrt(floor * ceiling)

    def inside(kappa):
        return (kappa > floor) & (kappa < ceiling)

    def bisect(s_now, y_row, step_h):
        lo, hi = 0.0, step_h
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if inside(rk4_step(rhs, s_now, y_row, mid, sphere)[0, 0]):
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-10:
                break
        y_end = rk4_step(rhs, s_now, y_row, hi, sphere)[0]
        if not np.all(np.isfinite(y_end)):
            return s_now + hi, y_end, "non_finite"
        return s_now + hi, y_end, "kappa_floor" if y_end[0] < mid_gap else "kappa_ceiling"

    y = np.array(y0, dtype=float)
    alive = np.ones(y.shape[0], dtype=bool)
    events = {}  # row -> (samples kept, s at the crossing, state, termination)
    stored, stored_s = [y.copy()], [0.0]
    s_now = 0.0
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            step_h = min(h, s_max - s_now)
            y_new = rk4_step(rhs, s_now, y, step_h, sphere)
            crossed = alive & ~inside(y_new[:, 0])
            if crossed.any():
                for row in np.flatnonzero(crossed).tolist():
                    events[row] = (len(stored),) + bisect(s_now, y[row : row + 1], step_h)
                alive &= ~crossed
                if not alive.any():
                    break
            if events:
                y_new[~alive] = y[~alive]
            y = y_new
            s_now += step_h
            if (i + 1) % stride == 0 or i == n_steps - 1:
                stored.append(y.copy())
                stored_s.append(s_now)

    arr = np.asarray(stored)  # (K, B, d)
    s_arr = np.asarray(stored_s)
    out = []
    for row in range(arr.shape[1]):
        if row not in events:
            out.append((s_arr, arr[:, row], "horizon"))
            continue
        kept, s_end, y_end, termination = events[row]
        out.append(
            (
                np.append(s_arr[:kept], s_end),
                np.concatenate([arr[:kept, row], y_end[None, :]]),
                termination,
            )
        )
    return out


def spiral_rows(params: SpiralParams, y0, controls: IntegratorControls):
    """Spiral rows (kappa, kappa_s[, curve]) through the batch stepper."""
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    sphere = y0.shape[1] > 2 and params.model == SPHERE
    return march(lambda s, y: joint_rhs(params, y), y0, controls.s_max, controls, sphere)


def prescribed_row(model, kappa_taylor, y0, controls: IntegratorControls):
    """One prescribed-curvature row through the batch stepper.

    kappa_taylor(s, order) gives the Taylor coefficients of kappa about s;
    columns 0 and 1 are kappa and kappa_s.
    """

    def rhs(s, y):
        kappa, kappa_s = kappa_taylor(np.asarray([s]), 1).T
        out = np.zeros_like(y)
        out[:, 0] = kappa_s
        frame_rhs(model, kappa, y, out)
        return out

    y0 = np.asarray(y0, dtype=float)[None, :]
    return march(rhs, y0, controls.s_max, controls, model == SPHERE)[0]
