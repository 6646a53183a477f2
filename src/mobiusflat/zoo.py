"""Concrete hypersurface families and the conformal model maps.

Four generators, all built over a spiral trajectory or a radius parameter:

* cylinder   (s, y)      -> (curve(s), y)            in R^(n+1), curve in R^2
* cone       (s, t, y)   -> (t curve(s), y)          in R^(n+1), curve in S^2
* rotational (s, angles) -> (x(s), y(s) sphere(angles)) in R^(n+1),
                            curve in the hyperbolic half-plane
* torus      (u, angles) -> (a cos u, a sin u, r sphere(angles)) in S^(n+1),
                            a = sqrt(1 - r^2)

Each handle carries closed-form first/second fundamental forms and density
fields (``analytic_fields``) next to the generic finite-difference pipeline,
so identity checks can be run on either route.

The model maps between the ambient space forms are also here: the inverse
stereographic lift R^(n+1) -> S^(n+1), its inverse, and the hyperboloid to
hemisphere map H^(n+1) -> S^(n+1)_+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, DegenerateGeometryError, InputError
from .immersion import EUCLIDEAN, UNIT_SPHERE, ImmersionHandle
from .moebius import SurfaceFields
from .spiral import HALF_PLANE, PLANE, SPHERE, SpiralTrajectory

POLE_MARGIN = 0.2


# ---------------------------------------------------------------------------
# spherical charts


def sphere_chart(angles: np.ndarray) -> np.ndarray:
    """Spherical-coordinate immersion S^d -> R^(d+1), angles (K, d).

    First d-1 angles are polar (kept away from 0 and pi by the callers),
    the last is azimuthal.
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


def sphere_chart_metric(angles: np.ndarray) -> np.ndarray:
    """Round metric of S^d in spherical coordinates: diag(1, sin^2, ...)."""
    angles = np.atleast_2d(angles)
    k, d = angles.shape
    diag = np.ones((k, d))
    sin_prod = np.ones(k)
    for i in range(1, d):
        sin_prod = sin_prod * np.sin(angles[:, i - 1]) ** 2
        diag[:, i] = sin_prod
    out = np.zeros((k, d, d))
    idx = np.arange(d)
    out[:, idx, idx] = diag
    return out


def _angle_domain(d: int) -> list[tuple[float, float]]:
    dom = [(POLE_MARGIN, np.pi - POLE_MARGIN) for _ in range(d - 1)]
    dom.append((POLE_MARGIN, 2.0 * np.pi - POLE_MARGIN))
    return dom


def _angle_base(d: int) -> np.ndarray:
    return np.full(d, 0.5 * np.pi)


def _traj_margin(traj: SpiralTrajectory, margin: float) -> tuple[float, float]:
    lo, hi = float(traj.s[0]) + margin, float(traj.s[-1]) - margin
    if lo >= hi:
        raise InputError("trajectory too short for the requested chart margin")
    return lo, hi


# ---------------------------------------------------------------------------
# cylinder over a plane curve


def cylinder_immersion(traj: SpiralTrajectory, n: int, margin: float = 0.15) -> ImmersionHandle:
    """(s, y_1..y_{n-1}) -> (curve(s), y) with the curve in R^2, unit speed."""
    if traj.model != PLANE:
        raise InputError("cylinder generator needs a plane-model trajectory")
    if traj.curve is None:
        raise InputError("run reconstruct_curve on the trajectory first")
    lo, hi = _traj_margin(traj, margin)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        c = traj.curve_at(pts[:, 0])
        return np.concatenate([c[:, 0:2], pts[:, 1:]], axis=1)

    s_base = 0.5 * (lo + hi)
    theta0 = float(traj.curve_at(np.array([s_base]))[0, 2])
    seed = np.zeros(n + 1)
    seed[0], seed[1] = -np.sin(theta0), np.cos(theta0)
    base = np.zeros(n)
    base[0] = s_base
    domain = [(lo, hi)] + [(-5.0, 5.0)] * (n - 1)

    def metric(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(n), (pts.shape[0], n, n)).copy()

    def shape(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros((pts.shape[0], n, n))
        out[:, 0, 0] = traj.kappa_at(pts[:, 0])
        return out

    fields = SurfaceFields(
        dim=n,
        metric=metric,
        shape=shape,
        rho=lambda pts: traj.kappa_at(np.atleast_2d(pts)[:, 0]),
        mean=lambda pts: traj.kappa_at(np.atleast_2d(pts)[:, 0]) / n,
        ambient_curvature=0.0,
    )
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 1,
        evaluator=evaluator,
        ambient_kind=EUCLIDEAN,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="cylinder",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# cone over a spherical curve


def cone_immersion(
    traj: SpiralTrajectory,
    n: int,
    t_range: tuple[float, float] = (0.4, 2.5),
    margin: float = 0.15,
) -> ImmersionHandle:
    """(s, t, y_1..y_{n-2}) -> (t curve(s), y) with the curve in the unit S^2."""
    if traj.model != SPHERE:
        raise InputError("cone generator needs a sphere-model trajectory")
    if traj.curve is None:
        raise InputError("run reconstruct_curve on the trajectory first")
    if t_range[0] <= 0:
        raise ChartDomainError("cone parameter t must stay positive")
    lo, hi = _traj_margin(traj, margin)

    def evaluator(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        gam = traj.curve_at(pts[:, 0])[:, 0:3]
        return np.concatenate([pts[:, 1:2] * gam, pts[:, 2:]], axis=1)

    s_base = 0.5 * (lo + hi)
    st = traj.curve_at(np.array([s_base]))[0]
    nu = np.cross(st[0:3], st[3:6])
    seed = np.zeros(n + 1)
    seed[0:3] = nu
    base = np.zeros(n)
    base[0], base[1] = s_base, 1.0
    domain = [(lo, hi), t_range] + [(-5.0, 5.0)] * (n - 2)

    def metric(pts):
        pts = np.atleast_2d(pts)
        out = np.broadcast_to(np.eye(n), (pts.shape[0], n, n)).copy()
        out[:, 0, 0] = pts[:, 1] ** 2
        return out

    def shape(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros((pts.shape[0], n, n))
        out[:, 0, 0] = pts[:, 1] * traj.kappa_at(pts[:, 0])
        return out

    fields = SurfaceFields(
        dim=n,
        metric=metric,
        shape=shape,
        rho=lambda pts: traj.kappa_at(np.atleast_2d(pts)[:, 0]) / np.atleast_2d(pts)[:, 1],
        mean=lambda pts: traj.kappa_at(np.atleast_2d(pts)[:, 0])
        / (n * np.atleast_2d(pts)[:, 1]),
        ambient_curvature=0.0,
    )
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 1,
        evaluator=evaluator,
        ambient_kind=EUCLIDEAN,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="cone",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# rotational hypersurface over a half-plane curve


def rotational_immersion(
    traj: SpiralTrajectory, n: int, margin: float = 0.15
) -> ImmersionHandle:
    """(s, angles) -> (x(s), y(s) sphere(angles)); the curve lives in y > 0."""
    if traj.model != HALF_PLANE:
        raise InputError("rotational generator needs a half-plane trajectory")
    if traj.curve is None:
        raise InputError("run reconstruct_curve on the trajectory first")
    lo, hi = _traj_margin(traj, margin)
    d = n - 1  # sphere factor dimension

    def evaluator(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        c = traj.curve_at(pts[:, 0])
        if np.any(c[:, 1] <= 0):
            raise ChartDomainError("rotational profile curve left y > 0")
        sph = sphere_chart(pts[:, 1:])
        return np.concatenate([c[:, 0:1], c[:, 1:2] * sph], axis=1)

    s_base = 0.5 * (lo + hi)
    c0 = traj.curve_at(np.array([s_base]))[0]
    phi0 = c0[2]
    sph0 = sphere_chart(_angle_base(d)[None, :])[0]
    seed = np.concatenate([[-np.sin(phi0)], np.cos(phi0) * sph0])
    base = np.concatenate([[s_base], _angle_base(d)])
    domain = [(lo, hi)] + _angle_domain(d)

    def curve_data(pts):
        pts = np.atleast_2d(pts)
        c = traj.curve_at(pts[:, 0])
        kap = traj.kappa_at(pts[:, 0])
        y = c[:, 1]
        xp = y * np.cos(c[:, 2])
        return kap, y, xp

    def metric(pts):
        pts = np.atleast_2d(pts)
        _, y, _ = curve_data(pts)
        out = np.zeros((pts.shape[0], n, n))
        out[:, 0, 0] = 1.0
        out[:, 1:, 1:] = sphere_chart_metric(pts[:, 1:])
        return y[:, None, None] ** 2 * out

    def shape(pts):
        pts = np.atleast_2d(pts)
        kap, y, xp = curve_data(pts)
        out = np.zeros((pts.shape[0], n, n))
        out[:, 0, 0] = y * kap - xp
        out[:, 1:, 1:] = -xp[:, None, None] * sphere_chart_metric(pts[:, 1:])
        return out

    def rho(pts):
        kap, y, _ = curve_data(pts)
        return kap / y

    def mean(pts):
        kap, y, xp = curve_data(pts)
        return (kap * y - n * xp) / (n * y**2)

    fields = SurfaceFields(
        dim=n,
        metric=metric,
        shape=shape,
        rho=rho,
        mean=mean,
        ambient_curvature=0.0,
    )
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 1,
        evaluator=evaluator,
        ambient_kind=EUCLIDEAN,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="rotational",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# the flat torus family in the sphere


def torus_immersion(r: float, n: int) -> ImmersionHandle:
    """S^1(sqrt(1-r^2)) x S^(n-1)(r) inside the unit sphere of R^(n+2)."""
    if not 0.0 < r < 1.0:
        raise InputError(f"torus radius must lie in (0, 1), got {r}")
    a = float(np.sqrt(1.0 - r * r))
    d = n - 1

    def evaluator(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        u = pts[:, 0]
        sph = sphere_chart(pts[:, 1:])
        return np.concatenate(
            [a * np.cos(u)[:, None], a * np.sin(u)[:, None], r * sph], axis=1
        )

    base = np.concatenate([[0.0], _angle_base(d)])
    sph0 = sphere_chart(_angle_base(d)[None, :])[0]
    seed = np.concatenate([[-r, 0.0], a * sph0])
    domain = [(-np.pi, np.pi)] + _angle_domain(d)

    def metric(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros((pts.shape[0], n, n))
        out[:, 0, 0] = a * a
        out[:, 1:, 1:] = r * r * sphere_chart_metric(pts[:, 1:])
        return out

    def shape(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros((pts.shape[0], n, n))
        out[:, 0, 0] = a * r
        out[:, 1:, 1:] = -a * r * sphere_chart_metric(pts[:, 1:])
        return out

    rho0 = 1.0 / (a * r)
    mean0 = (r / a - (n - 1) * a / r) / n
    fields = SurfaceFields(
        dim=n,
        metric=metric,
        shape=shape,
        rho=lambda pts: np.full(np.atleast_2d(pts).shape[0], rho0),
        mean=lambda pts: np.full(np.atleast_2d(pts).shape[0], mean0),
        ambient_curvature=1.0,
    )
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 2,
        evaluator=evaluator,
        ambient_kind=UNIT_SPHERE,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="torus",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# conformal model maps


def inverse_stereographic(u: np.ndarray) -> np.ndarray:
    """R^N -> S^N in R^(N+1): u -> ((1-|u|^2)/(1+|u|^2), 2u/(1+|u|^2))."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    den = 1.0 + np.sum(u * u, axis=1)
    first = (2.0 - den) / den
    return np.concatenate([first[:, None], 2.0 * u / den[:, None]], axis=1)


def stereographic(w: np.ndarray) -> np.ndarray:
    """Inverse of the lift; undefined at the antipode (first coordinate -1)."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if np.any(w[:, 0] <= -1.0 + 1e-14):
        raise ChartDomainError("stereographic chart undefined at the antipode")
    return w[:, 1:] / (1.0 + w[:, 0])[:, None]


def hyperboloid_to_hemisphere(y: np.ndarray) -> np.ndarray:
    """H^N (hyperboloid, y0 > 0) -> open upper hemisphere of S^N."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    quad = -(y[:, 0] ** 2) + np.sum(y[:, 1:] ** 2, axis=1)
    if np.any(np.abs(quad + 1.0) > 1e-10) or np.any(y[:, 0] <= 0):
        raise ChartDomainError("input does not lie on the unit hyperboloid with y0 > 0")
    return np.concatenate([1.0 / y[:, 0:1], y[:, 1:] / y[:, 0:1]], axis=1)


def _stereo_lift_differential(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Directional derivative of the inverse stereographic lift at u along v."""
    den = 1.0 + float(u @ u)
    num = np.concatenate([[1.0 - u @ u], 2.0 * u])
    dnum = np.concatenate([[-2.0 * (u @ v)], 2.0 * v])
    dden = 2.0 * (u @ v)
    return dnum / den - num * dden / den**2


def lift_to_sphere(imm: ImmersionHandle) -> ImmersionHandle:
    """Post-compose a Euclidean-ambient immersion with the stereographic lift."""
    if imm.ambient_kind != EUCLIDEAN:
        raise InputError("only Euclidean-ambient immersions can be lifted")

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return inverse_stereographic(imm(pts))

    seed = None
    if imm.orientation_seed is not None and imm.base_point is not None:
        f0 = imm(imm.base_point[None, :])[0]
        lifted = _stereo_lift_differential(f0, imm.orientation_seed)
        nrm = np.linalg.norm(lifted)
        if nrm <= 1e-14:
            raise DegenerateGeometryError("orientation seed collapses under the lift")
        seed = lifted / nrm

    return ImmersionHandle(
        chart_dimension=imm.chart_dimension,
        ambient_dimension=imm.ambient_dimension + 1,
        evaluator=evaluator,
        ambient_kind=UNIT_SPHERE,
        orientation_seed=seed,
        base_point=imm.base_point,
        domain=imm.domain,
        name=f"{imm.name}+lift" if imm.name else "lift",
        analytic_fields=None,
    )


def scale_immersion(imm: ImmersionHandle, factor: float) -> ImmersionHandle:
    """Ambient homothety x -> factor * x with the chart rescaled to match.

    The chart point factor * p on the scaled surface corresponds to p on the
    original, so invariant quantities can be compared point by point.
    """
    if factor <= 0:
        raise InputError("homothety factor must be positive")

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return factor * imm(np.atleast_2d(pts) / factor)

    domain = None
    if imm.domain is not None:
        domain = tuple(
            (factor * lo if lo > -np.inf else lo, factor * hi if hi < np.inf else hi)
            for lo, hi in imm.domain
        )
    return ImmersionHandle(
        chart_dimension=imm.chart_dimension,
        ambient_dimension=imm.ambient_dimension,
        evaluator=evaluator,
        ambient_kind=imm.ambient_kind,
        orientation_seed=imm.orientation_seed,
        base_point=None if imm.base_point is None else factor * imm.base_point,
        domain=domain,
        name=f"{imm.name}*{factor:g}" if imm.name else f"scale*{factor:g}",
        analytic_fields=None,
    )


# ---------------------------------------------------------------------------
# declarative construction


@dataclass(frozen=True)
class HypersurfaceSpec:
    """What to build: family, dimension, generator data, optional lift."""

    kind: str  # cylinder | cone | rotational | torus
    n: int
    trajectory: SpiralTrajectory | None = None
    torus_r: float | None = None
    lift: bool = False

    def __post_init__(self):
        if self.kind not in ("cylinder", "cone", "rotational", "torus"):
            raise InputError(f"unknown hypersurface kind {self.kind!r}")
        if self.kind == "torus":
            if self.torus_r is None or not 0.0 < self.torus_r < 1.0:
                raise InputError("torus needs a radius in (0, 1)")
        elif self.trajectory is None:
            raise InputError(f"{self.kind} needs a spiral trajectory")


# spiral families by name, with the model curvature eps of their profile curve
EPSILON_BY_FAMILY = {"cylinder": 0, "cone": 1, "rotational": -1}


def build_family(family: str, traj: SpiralTrajectory, n: int) -> ImmersionHandle:
    """The hypersurface of a spiral family (cylinder, cone or rotational) over traj."""
    # the one name -> generator table; read at call time, so a generator
    # patched on this module is the one called
    generators = {
        "cylinder": cylinder_immersion,
        "cone": cone_immersion,
        "rotational": rotational_immersion,
    }
    return generators[family](traj, n)


def build_hypersurface(spec: HypersurfaceSpec) -> ImmersionHandle:
    if spec.kind == "torus":
        imm = torus_immersion(spec.torus_r, spec.n)
    else:
        imm = build_family(spec.kind, spec.trajectory, spec.n)
    if spec.lift:
        imm = lift_to_sphere(imm)
    return imm
