"""The generators' maps as they were written before each surface became its jet.

Kept as the test oracles of the exact jets: each map is the direct formula
of f, evaluated component by component from the trajectory's curve and the
spherical chart, and shares no formula with ``zoo``'s factor tables or with
the lift's jet.  ``fd_oracle.fd_handle`` differences these maps, so the FD
route leans on no jet of the code under test.

Each generator here returns a bare map (K, m) -> (K, N) of the chart points;
``lift`` and ``scale`` post-compose another map as ``zoo.lift_to_sphere`` and
``zoo.scale_immersion`` post-compose a handle.
"""

import numpy as np

from mobiusflat.errors import ChartDomainError


def sphere_chart(angles):
    """Spherical-coordinate immersion S^d -> R^(d+1), angles (K, d).

    First d-1 angles are polar, the last is azimuthal.
    """
    angles = np.atleast_2d(angles)
    k, d = angles.shape
    out = np.empty((k, d + 1))
    sin_prod = np.ones(k)
    for i in range(d):
        out[:, i] = sin_prod * np.cos(angles[:, i])
        sin_prod = sin_prod * np.sin(angles[:, i])
    out[:, d] = sin_prod
    return out


def sphere_chart_metric(angles):
    """Round metric of S^d in the chart of sphere_chart, angles (K, d), as (K, d, d).

    diag(1, sin^2 a_0, sin^2 a_0 sin^2 a_1, ...): entry i is the product of
    sin^2 of the angles before i.
    """
    angles = np.atleast_2d(angles)
    k, d = angles.shape
    diag = np.ones((k, d))
    for i in range(1, d):
        diag[:, i] = diag[:, i - 1] * np.sin(angles[:, i - 1]) ** 2
    return diag[:, :, None] * np.eye(d)


def cylinder(traj):
    """(s, y) -> (curve(s), y) with the curve in R^2."""

    def f(pts):
        pts = np.atleast_2d(pts)
        c = traj.curve_at(pts[:, 0])
        return np.concatenate([c[:, 0:2], pts[:, 1:]], axis=1)

    return f


def cone(traj):
    """(s, t, y) -> (t curve(s), y) with the curve in the unit S^2."""

    def f(pts):
        pts = np.atleast_2d(pts)
        gam = traj.curve_at(pts[:, 0])[:, 0:3]
        return np.concatenate([pts[:, 1:2] * gam, pts[:, 2:]], axis=1)

    return f


def rotational(traj):
    """(s, angles) -> (x(s), y(s) sphere(angles)) with the curve in y > 0."""

    def f(pts):
        pts = np.atleast_2d(pts)
        c = traj.curve_at(pts[:, 0])
        if np.any(c[:, 1] <= 0):
            raise ChartDomainError("rotational profile curve left y > 0")
        return np.concatenate([c[:, 0:1], c[:, 1:2] * sphere_chart(pts[:, 1:])], axis=1)

    return f


def torus(r):
    """(u, angles) -> (a cos u, a sin u, r sphere(angles)), a = sqrt(1 - r^2)."""
    a = float(np.sqrt(1.0 - r * r))

    def f(pts):
        pts = np.atleast_2d(pts)
        u = pts[:, 0]
        return np.concatenate(
            [a * np.cos(u)[:, None], a * np.sin(u)[:, None], r * sphere_chart(pts[:, 1:])],
            axis=1,
        )

    return f


def inverse_stereographic(u):
    """R^N -> S^N in R^(N+1): u -> ((1-|u|^2)/(1+|u|^2), 2u/(1+|u|^2))."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    den = 1.0 + np.sum(u * u, axis=1)
    first = (2.0 - den) / den
    return np.concatenate([first[:, None], 2.0 * u / den[:, None]], axis=1)


def stereo_lift_differential(u, v):
    """Directional derivative of the inverse stereographic lift at u (N,) along v (N,)."""
    den = 1.0 + float(u @ u)
    num = np.concatenate([[1.0 - u @ u], 2.0 * u])
    dnum = np.concatenate([[-2.0 * (u @ v)], 2.0 * v])
    dden = 2.0 * (u @ v)
    return dnum / den - num * dden / den**2


def lift(f):
    """The map f post-composed with the inverse stereographic lift."""
    return lambda pts: inverse_stereographic(f(pts))


def scale(f, factor):
    """The homothety of f with the chart rescaled to match: p -> factor f(p / factor)."""
    return lambda pts: factor * f(np.atleast_2d(pts) / factor)
