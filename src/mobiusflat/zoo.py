"""Concrete hypersurface families, their stereographic lift and homotheties.

Four generators, all built over a spiral trajectory or a radius parameter:

* cylinder   (s, y)      -> (curve(s), y)            in R^(n+1), curve in R^2
* cone       (s, t, y)   -> (t curve(s), y)          in R^(n+1), curve in S^2
* rotational (s, angles) -> (x(s), y(s) sphere(angles)) in R^(n+1),
                            curve in the hyperbolic half-plane
* torus      (u, angles) -> (a cos u, a sin u, r sphere(angles)) in S^(n+1),
                            a = sqrt(1 - r^2)

Each surface is written once, as the exact jet of its immersion at any
order (``jet``): f itself is level 0, and the generic pipeline takes every
derivative of f from the same jet.  Each handle also carries closed-form
fields (``analytic_fields``), so identity checks can be run on either
route.  The closed forms are exact jets of their own: I, II, rho and
H as products of one-variable factors (see "closed forms" below), which
never read the immersion's jet, so the closed-form route stays independent
of the pipeline's.  The curve factors of both read their s-derivatives
from the trajectory's step polynomials.  The lift and the homothety below
carry the jet of their base handle through their map, at the order asked:
the lift in the truncated Taylor arithmetic of ``jets``, the homothety by
its scaling of each level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable

import numpy as np

from .errors import ChartDomainError, DegenerateGeometryError, InputError
from .immersion import EUCLIDEAN, UNIT_SPHERE, ImmersionHandle
from .jets import Jet, compose, contract, power_derivatives
from .moebius import SurfaceFields, moebius_jets
from .spiral import HALF_PLANE, PLANE, SPHERE, SpiralTrajectory

POLE_MARGIN = 0.2
# the arc length a spiral generator's chart keeps from each end of its trajectory
CHART_MARGIN = 0.15
# the cone's radial parameter t, away from the apex t = 0
CONE_T_RANGE = (0.4, 2.5)


# ---------------------------------------------------------------------------
# exact jets at any order
#
# Every generator is a product of one-variable factors in each component:
# f_i(p) = prod_a g_ai(p_a).  A partial with multi-index alpha is then the
# product of the factors' derivatives, prod_a g_ai^(alpha_a)(p_a), so a jet
# of order k is one gather of the factor derivatives over the table of
# multi-indices |alpha| <= k.  It comes out level by level, level j the full
# (K, m, ..., m, N) tensor of the j-th partials.


@lru_cache(maxsize=None)
def _multi_indices(m: int, order: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(alphas (U, m), per level j the row of alphas of each of the m^j index tuples)."""
    rows: dict[tuple[int, ...], int] = {}
    levels = []
    for j in range(order + 1):
        alphas = (tuple(t.count(a) for a in range(m)) for t in product(range(m), repeat=j))
        levels.append(np.array([rows.setdefault(alpha, len(rows)) for alpha in alphas]))
    return np.array(list(rows), dtype=int).reshape(-1, m), tuple(levels)


def _product_jet(factors) -> tuple[np.ndarray, ...]:
    """The levels 0..k of f_i = prod_a g_ai(p_a): level j is (K, m, ..., m, N).

    factors[a] = (g_a, g_a', ..., g_a^(k)) for chart coordinate a, each (K, N).
    """
    m, order, (k, width) = len(factors), len(factors[0]) - 1, factors[0][0].shape
    alphas, levels = _multi_indices(m, order)
    # (U, K, N), multiplied factor by factor in coordinate order
    partials = reduce(np.multiply, (np.stack(f)[alphas[:, a]] for a, f in enumerate(factors)))
    return tuple(
        np.moveaxis(partials[rows], 0, 1).reshape((k,) + (m,) * j + (width,))
        for j, rows in enumerate(levels)
    )


def _factor(columns, k: int, order: int) -> tuple[np.ndarray, ...]:
    """A factor (K, N) per derivative from its N columns: a number is a constant
    column, any other column lists its derivatives 0..order, each a number or
    an array of K entries (such as the levels of a one-variable ``Jet``)."""
    out = np.zeros((order + 1, k, len(columns)))
    for i, c in enumerate(columns):
        for j, x in enumerate([c] if np.isscalar(c) else c):
            out[j, :, i] = np.asarray(x).reshape(-1)
    return tuple(out)


def _coordinate_factor(x: np.ndarray, width: int, cols, order: int) -> tuple[np.ndarray, ...]:
    """The chart coordinate x itself in the components cols, and 1 in the others."""
    on = np.zeros(width, dtype=bool)
    on[cols] = True
    d = np.broadcast_to(on.astype(float), (x.size, width))
    zero = np.zeros_like(d)
    return (np.where(on, x[:, None], 1.0), d, *([zero] * (order - 1)))[: order + 1]


def _padded(factor, before: int = 0, after: int = 0) -> tuple[np.ndarray, ...]:
    """factor (its derivatives, each (K, q)) with `before` leading and `after`
    trailing components in which its coordinate does not enter."""
    k = factor[0].shape[0]
    return tuple(
        np.concatenate([np.full((k, before), fill), x, np.full((k, after), fill)], axis=1)
        for x, fill in zip(factor, [1.0] + [0.0] * (len(factor) - 1))
    )


def _trig(angle: np.ndarray, order: int):
    """The derivatives of cos and sin at angle to the order, by their cycle of four."""
    c, s = np.cos(angle), np.sin(angle)
    cycles = ((c, -s, -c, s), (s, c, -s, -c))
    return tuple([cycle[j % 4] for j in range(order + 1)] for cycle in cycles)


# ---------------------------------------------------------------------------
# closed forms
#
# In all four families I and h are diagonal, and each diagonal entry, rho and
# H is a product of one-variable factors.  A family's closed form is two
# tables of factors: the metric table (columns: the diagonal of I) and the
# shape table (the diagonal of h, rho, H).  A Moebius request of order k is
# their k-jet, and ``first_form`` the metric table alone, at any order.  The
# warped metric kappa^2 (ds^2 + I_{-eps}) is a metric table of the same kind
# (``warped_metric_jet``).


@dataclass(frozen=True)
class ClosedFormFields(SurfaceFields):
    """Closed-form fields; first_form(pts, order=0) gives the ``Jet`` of I to the
    order, read from the metric table alone (its value is I, (K, m, m))."""

    first_form: Callable[..., Jet] | None = None


def _diagonal(levels) -> tuple[np.ndarray, ...]:
    """Each level (..., n) as the level (..., n, n) of the diagonal matrices it holds."""
    return tuple(d[..., None] * np.eye(d.shape[-1]) for d in levels)


def _metric_jet(table, pts, order: int) -> Jet:
    """The jet of the diagonal metric of the table(pts, order) at the points."""
    return Jet(_diagonal(_product_jet(table(np.atleast_2d(np.asarray(pts, dtype=float)), order))))


def _closed_form_fields(n: int, metric_table, shape_table, curvature: float) -> ClosedFormFields:
    """The fields of the tables metric_table(pts, order) and shape_table(pts, order)."""

    def first_form(pts, order: int = 0):
        return _metric_jet(metric_table, pts, order)

    def forms(pts, order: int):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        shape = _product_jet(shape_table(pts, order))
        rho, mean = ([np.ascontiguousarray(x[..., c]) for x in shape] for c in (n, n + 1))
        first = _diagonal(_product_jet(metric_table(pts, order)))
        return first, _diagonal(x[..., :n] for x in shape), rho, mean

    def jets(pts, order: int = 2):
        return moebius_jets(*(Jet(q) for q in forms(pts, order)), curvature)

    return ClosedFormFields(ambient_curvature=curvature, jets=jets, first_form=first_form)


def _s_jet(ders) -> Jet:
    """The jet in one variable with the derivatives ders[j], each (K,)."""
    return Jet(np.reshape(d, (-1,) + (1,) * j) for j, d in enumerate(ders))


def _kappa_factor(traj: SpiralTrajectory, s: np.ndarray, n: int, order: int):
    """The s-factor of the cylinder's and the cone's shape table: (kappa, 0, ..., 0,
    kappa, kappa / n)."""
    kap = list(traj.read(s, slice(0, 1), order)[..., 0])
    return _factor([kap] + [0.0] * (n - 1) + [kap, [x / n for x in kap]], s.size, order)


def warped_metric_jet(traj: SpiralTrajectory, pts: np.ndarray, order: int) -> Jet:
    """The jet of kappa(s)^2 (ds^2 + I_{-eps}) at the points (K, n), s the first coordinate.

    kappa and its s-derivatives come from the step polynomials.  The
    cross-section charts: the flat identity (eps = 0), half-space
    coordinates with metric Id / t^2, t the second coordinate (eps = +1),
    and the unit sphere's spherical angles (eps = -1).
    """

    def table(pts, order):
        k, n = pts.shape
        kappa = _s_jet(traj.read(pts[:, 0], slice(0, 1), order)[..., 0])
        s = _factor([contract(",->", kappa, kappa).levels] * n, k, order)
        if traj.params.epsilon == -1:
            return [s] + [_padded(f, before=1) for f in _sphere_metric_factors(pts[:, 1:], order)]
        ones = _factor([1.0] * n, k, order)
        if traj.params.epsilon == 1:
            inv_t2 = power_derivatives(pts[:, 1], -2.0, order)
            return [s, _factor([1.0] + [inv_t2] * (n - 1), k, order)] + [ones] * (n - 2)
        return [s] + [ones] * (n - 1)

    return _metric_jet(table, pts, order)


def _sphere_metric_factors(angles: np.ndarray, order: int) -> list[tuple[np.ndarray, ...]]:
    """Per angle, its factor in the diagonal of the round metric of S^d in
    spherical coordinates, diag(1, sin^2 a_0, sin^2 a_0 sin^2 a_1, ...), (K, d).

    Entry i is prod_{j < i} sin^2(a_j): angle j is sin^2 in the entries after
    j and 1 in the others.
    """
    idx = np.arange(angles.shape[1])
    out = []
    for j in idx:
        a = angles[:, j : j + 1]
        cos_2a = _trig(2.0 * a, order)[0]  # sin^2 a = (1 - cos 2a) / 2
        sin2 = [np.sin(a) ** 2] + [-(2.0 ** (i - 1)) * cos_2a[i] for i in range(1, order + 1)]
        out.append(tuple(np.where(idx > j, x, float(i == 0)) for i, x in enumerate(sin2)))
    return out


# ---------------------------------------------------------------------------
# spherical charts


def _sphere_factors(angles: np.ndarray, order: int) -> list[tuple[np.ndarray, ...]]:
    """Per angle, its factor in each component of the spherical-coordinate chart
    S^d -> R^(d+1), with `order` derivatives; angles (K, d).

    The first d-1 angles are polar (kept away from 0 and pi by the callers),
    the last is azimuthal.  Component i is prod_{j<i} sin(a_j) cos(a_i) (the
    last one has no cosine), so angle j is 1 in the components before j, cos
    in component j and sin after it.  Each returned array is (K, d+1).
    """
    d = angles.shape[1]
    idx = np.arange(d + 1)
    out = []
    for j in range(d):
        cos_ders, sin_ders = _trig(angles[:, j : j + 1], order)
        out.append(
            tuple(
                np.where(idx < j, float(i == 0), np.where(idx == j, c, s))
                for i, (c, s) in enumerate(zip(cos_ders, sin_ders))
            )
        )
    return out


def _angle_domain(d: int) -> list[tuple[float, float]]:
    dom = [(POLE_MARGIN, np.pi - POLE_MARGIN) for _ in range(d - 1)]
    dom.append((POLE_MARGIN, 2.0 * np.pi - POLE_MARGIN))
    return dom


def _angle_base(d: int) -> np.ndarray:
    return np.full(d, 0.5 * np.pi)


def _traj_margin(traj: SpiralTrajectory) -> tuple[float, float]:
    """The chart's arc-length range: the trajectory's, less CHART_MARGIN at each end."""
    lo, hi = float(traj.s[0]) + CHART_MARGIN, float(traj.s[-1]) - CHART_MARGIN
    if lo >= hi:
        raise InputError("trajectory too short for the chart margin")
    return lo, hi


# ---------------------------------------------------------------------------
# cylinder over a plane curve


def cylinder_immersion(traj: SpiralTrajectory, n: int) -> ImmersionHandle:
    """(s, y_1..y_{n-1}) -> (curve(s), y) with the curve in R^2, unit speed."""
    if traj.model != PLANE:
        raise InputError("cylinder generator needs a plane-model trajectory")
    if not traj.joint:
        raise InputError("run reconstruct_curve on the trajectory first")
    lo, hi = _traj_margin(traj)

    def jet(pts: np.ndarray, order: int):
        curve = _padded([c[:, 0:2] for c in traj.curve_jet(pts[:, 0], order)], after=n - 1)
        return _product_jet(
            [curve] + [_coordinate_factor(pts[:, j], n + 1, j + 1, order) for j in range(1, n)]
        )

    s_base = 0.5 * (lo + hi)
    theta0 = float(traj.curve_at(np.array([s_base]))[0, 2])
    seed = np.zeros(n + 1)
    seed[0], seed[1] = -np.sin(theta0), np.cos(theta0)
    base = np.zeros(n)
    base[0] = s_base
    domain = [(lo, hi)] + [(-5.0, 5.0)] * (n - 1)

    def metric_table(pts, order):
        return [_factor([1.0] * n, pts.shape[0], order)] * n

    def shape_table(pts, order):
        rest = [_factor([1.0] * (n + 2), pts.shape[0], order)] * (n - 1)
        return [_kappa_factor(traj, pts[:, 0], n, order)] + rest

    fields = _closed_form_fields(n, metric_table, shape_table, 0.0)
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 1,
        jet=jet,
        ambient_kind=EUCLIDEAN,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="cylinder",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# cone over a spherical curve


def cone_immersion(traj: SpiralTrajectory, n: int) -> ImmersionHandle:
    """(s, t, y_1..y_{n-2}) -> (t curve(s), y) with the curve in the unit S^2, t in CONE_T_RANGE."""
    if traj.model != SPHERE:
        raise InputError("cone generator needs a sphere-model trajectory")
    if not traj.joint:
        raise InputError("run reconstruct_curve on the trajectory first")
    lo, hi = _traj_margin(traj)

    def jet(pts: np.ndarray, order: int):
        gam = _padded([c[:, 0:3] for c in traj.curve_jet(pts[:, 0], order)], after=n - 2)
        t = _coordinate_factor(pts[:, 1], n + 1, slice(0, 3), order)
        return _product_jet(
            [gam, t] + [_coordinate_factor(pts[:, j], n + 1, j + 1, order) for j in range(2, n)]
        )

    s_base = 0.5 * (lo + hi)
    st = traj.curve_at(np.array([s_base]))[0]
    nu = np.cross(st[0:3], st[3:6])
    seed = np.zeros(n + 1)
    seed[0:3] = nu
    base = np.zeros(n)
    base[0], base[1] = s_base, 1.0
    domain = [(lo, hi), CONE_T_RANGE] + [(-5.0, 5.0)] * (n - 2)

    # I = diag(t^2, 1, ...), h = diag(t kappa, 0, ...), rho = kappa / t, H = rho / n
    def metric_table(pts, order):
        k, t = pts.shape[0], power_derivatives(pts[:, 1], 2.0, order)
        ones = _factor([1.0] * n, k, order)
        return [ones, _factor([t] + [1.0] * (n - 1), k, order)] + [ones] * (n - 2)

    def shape_table(pts, order):
        k, (t, inv_t) = pts.shape[0], (power_derivatives(pts[:, 1], p, order) for p in (1, -1))
        t = _factor([t] + [1.0] * (n - 1) + [inv_t, inv_t], k, order)
        ones = _factor([1.0] * (n + 2), k, order)
        return [_kappa_factor(traj, pts[:, 0], n, order), t] + [ones] * (n - 2)

    fields = _closed_form_fields(n, metric_table, shape_table, 0.0)
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 1,
        jet=jet,
        ambient_kind=EUCLIDEAN,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="cone",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# rotational hypersurface over a half-plane curve


def _upper(curve: np.ndarray) -> np.ndarray:
    if np.any(curve[:, 1] <= 0):
        raise ChartDomainError("rotational profile curve left y > 0")
    return curve


def rotational_immersion(traj: SpiralTrajectory, n: int) -> ImmersionHandle:
    """(s, angles) -> (x(s), y(s) sphere(angles)); the curve lives in y > 0."""
    if traj.model != HALF_PLANE:
        raise InputError("rotational generator needs a half-plane trajectory")
    if not traj.joint:
        raise InputError("run reconstruct_curve on the trajectory first")
    lo, hi = _traj_margin(traj)
    d = n - 1  # sphere factor dimension

    def jet(pts: np.ndarray, order: int):
        # x(s) in the first component, y(s) times the sphere factors in the others
        curve = traj.curve_jet(pts[:, 0], order)
        _upper(curve[0])
        profile = tuple(
            np.concatenate([x[:, 0:1], np.repeat(x[:, 1:2], n, axis=1)], axis=1) for x in curve
        )
        return _product_jet(
            [profile] + [_padded(f, before=1) for f in _sphere_factors(pts[:, 1:], order)]
        )

    s_base = 0.5 * (lo + hi)
    c0 = traj.curve_at(np.array([s_base]))[0]
    phi0 = c0[2]
    sph0 = _product_jet(_sphere_factors(_angle_base(d)[None, :], 0))[0][0]
    seed = np.concatenate([[-np.sin(phi0)], np.cos(phi0) * sph0])
    base = np.concatenate([[s_base], _angle_base(d)])
    domain = [(lo, hi)] + _angle_domain(d)

    # with S = diag(1, sphere metric): I = y^2 S, h = diag(y kappa - x', -x' S_11, ...),
    # rho = kappa / y and H = kappa / (n y) - x' / y^2
    def metric_table(pts, order):
        y = _s_jet(c[:, 1] for c in traj.curve_jet(pts[:, 0], order))
        s = _factor([contract(",->", y, y).levels] * n, pts.shape[0], order)
        return [s] + [_padded(f, before=1) for f in _sphere_metric_factors(pts[:, 1:], order)]

    def shape_table(pts, order):
        # one read of the profile: the levels of (kappa, kappa_s, x, y, phi) to order + 1
        profile = traj.read(pts[:, 0], slice(None), order + 1)
        y, kap = (_s_jet(profile[:-1, :, c]) for c in (3, 0))
        xp = _s_jet(profile[1:, :, 2])
        inv_y = compose(y, power_derivatives(y.value, -1.0, order))
        rho = contract(",->", kap, inv_y)
        mean = rho * (1.0 / n) - contract(",->", xp, contract(",->", inv_y, inv_y))
        columns = [contract(",->", y, kap) - xp] + [-xp] * (n - 1) + [rho, mean]
        s = _factor([x.levels for x in columns], pts.shape[0], order)
        sphere = _sphere_metric_factors(pts[:, 1:], order)
        return [s] + [_padded(f, before=1, after=2) for f in sphere]

    fields = _closed_form_fields(n, metric_table, shape_table, 0.0)
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 1,
        jet=jet,
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

    def jet(pts: np.ndarray, order: int):
        # (a cos u, a sin u) in the first two components, r times the sphere factors after
        cos_ders, sin_ders = _trig(pts[:, 0:1], order)
        radius, zero = np.full((pts.shape[0], n), r), np.zeros((pts.shape[0], n))
        u = tuple(
            np.concatenate([a * c, a * s, radius if i == 0 else zero], axis=1)
            for i, (c, s) in enumerate(zip(cos_ders, sin_ders))
        )
        return _product_jet(
            [u] + [_padded(f, before=2) for f in _sphere_factors(pts[:, 1:], order)]
        )

    base = np.concatenate([[0.0], _angle_base(d)])
    sph0 = _product_jet(_sphere_factors(_angle_base(d)[None, :], 0))[0][0]
    seed = np.concatenate([[-r, 0.0], a * sph0])
    domain = [(-np.pi, np.pi)] + _angle_domain(d)

    rho0 = 1.0 / (a * r)
    mean0 = (r / a - (n - 1) * a / r) / n

    # with S = diag(1, sphere metric): I = diag(a^2, r^2 S_11, ...) and
    # h = diag(a r, -a r S_11, ...); rho and H are constant
    def metric_table(pts, order):
        u = _factor([a * a] + [r * r] * (n - 1), pts.shape[0], order)
        return [u] + [_padded(f, before=1) for f in _sphere_metric_factors(pts[:, 1:], order)]

    def shape_table(pts, order):
        u = _factor([a * r] + [-a * r] * (n - 1) + [rho0, mean0], pts.shape[0], order)
        sphere = _sphere_metric_factors(pts[:, 1:], order)
        return [u] + [_padded(f, before=1, after=2) for f in sphere]

    fields = _closed_form_fields(n, metric_table, shape_table, 1.0)
    return ImmersionHandle(
        chart_dimension=n,
        ambient_dimension=n + 2,
        jet=jet,
        ambient_kind=UNIT_SPHERE,
        orientation_seed=seed,
        base_point=base,
        domain=tuple(domain),
        name="torus",
        analytic_fields=fields,
    )


# ---------------------------------------------------------------------------
# the stereographic lift and the homothety


def _lift_jet(levels) -> tuple[np.ndarray, ...]:
    """The jet of the inverse stereographic lift of f from the jet of f, in the jet
    arithmetic: the one formula of the lift.

    The lift is (2 sig - 1, 2 sig u) with sig = 1 / (1 + |u|^2).
    """
    u = Jet(levels)
    one_plus = contract("n,n->", u, u) + 1.0
    sig = compose(one_plus, power_derivatives(one_plus.value, -1.0, u.order))
    first, rest = 2.0 * sig - 1.0, 2.0 * contract(",n->n", sig, u)
    return tuple(
        np.concatenate([f[..., None], r], axis=-1) for f, r in zip(first.levels, rest.levels)
    )


def lift_to_sphere(imm: ImmersionHandle) -> ImmersionHandle:
    """Post-compose a Euclidean-ambient immersion with the stereographic lift."""
    if imm.ambient_kind != EUCLIDEAN:
        raise InputError("only Euclidean-ambient immersions can be lifted")

    def jet(pts: np.ndarray, order: int):
        return _lift_jet(imm.evaluate_jet(pts, order))

    seed = None
    if imm.orientation_seed is not None and imm.base_point is not None:
        # the lift's differential at f0 along the seed: level 1 of the lift of
        # the line t -> f0 + t seed
        f0 = imm(imm.base_point[None, :])
        lifted = _lift_jet([f0, imm.orientation_seed[None, None, :]])[1][0, 0]
        nrm = np.linalg.norm(lifted)
        if nrm <= 1e-14:
            raise DegenerateGeometryError("orientation seed collapses under the lift")
        seed = lifted / nrm

    return ImmersionHandle(
        chart_dimension=imm.chart_dimension,
        ambient_dimension=imm.ambient_dimension + 1,
        jet=jet,
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
    original, so invariant quantities can be compared point by point.  A
    homothety moves the unit sphere off itself, so only Euclidean-ambient
    immersions are taken.
    """
    if factor <= 0:
        raise InputError("homothety factor must be positive")
    if imm.ambient_kind != EUCLIDEAN:
        raise InputError("only Euclidean-ambient immersions can be scaled")

    def jet(pts: np.ndarray, order: int):
        # level j of f_l(x) = l f(x / l) is l^(1 - j) times that of f at x / l
        values, *ders = imm.evaluate_jet(np.atleast_2d(pts) / factor, order)
        higher = (d / factor ** (j + 1) for j, d in enumerate(ders[1:]))
        return (factor * values, *ders[:1], *higher)

    domain = None
    if imm.domain is not None:
        domain = tuple(
            (factor * lo if lo > -np.inf else lo, factor * hi if hi < np.inf else hi)
            for lo, hi in imm.domain
        )
    return ImmersionHandle(
        chart_dimension=imm.chart_dimension,
        ambient_dimension=imm.ambient_dimension,
        jet=jet,
        ambient_kind=imm.ambient_kind,
        orientation_seed=imm.orientation_seed,
        base_point=None if imm.base_point is None else factor * imm.base_point,
        domain=domain,
        name=f"{imm.name}*{factor:g}" if imm.name else f"scale*{factor:g}",
        analytic_fields=None,
    )


# ---------------------------------------------------------------------------
# families by name


# the one table of family names: the spiral families, with the model
# curvature eps of their profile curve, then the torus
EPSILON_BY_FAMILY = {"cylinder": 0, "cone": 1, "rotational": -1}
FAMILIES = (*EPSILON_BY_FAMILY, "torus")


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

