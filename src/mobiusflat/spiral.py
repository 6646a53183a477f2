"""Spiral curves with prescribed-curvature dynamics in the three 2d model spaces.

The geodesic curvature kappa(s) of the generating curve evolves by a second
order ODE of the family

    kappa_ss = c2 * kappa_s**2 / (2 kappa) + c1 * kappa / 2 - R * kappa**3,

with c2 = 4 - n and c1 = -eps (n - 2).  These are the coefficients for which
the warped metric kappa(s)^2 (ds^2 + I_{-eps}) has constant scalar
curvature, equal to 2 (n - 1) R in the full-trace normalization (see
``checks.check_warped_metric_scalar`` for the empirical audit).

Curves are reconstructed alongside kappa in the model space N^2(eps):
the Euclidean plane (eps = 0), the unit 2-sphere (eps = +1), or the
Poincare half-plane (eps = -1), by co-integrating the unit-speed frame
equations.

Every row (single trajectories, grids and the prescribed-curvature
controls) is marched by its Taylor series: each step computes the
coefficients of kappa and of the frame to the fixed order TAYLOR_ORDER, and
takes a step of about a seventh of the series' estimated radius of
convergence (Jorba and Zou).  The marcher roots a crossing of the kappa
floor, the kappa ceiling or a non-finite value on the step polynomial and
ends the row there.  A grid of at least taylor.LOCKSTEP_ROWS rows is marched
as one block in lockstep, a smaller one row by row on Python floats; the
block runs the same recurrences in the same summation order, so a row is
the same alone or in a grid, bit for bit.  Prescribed-curvature
controls go through the same marcher and row builder: their kappa(s) is
given by its Taylor coefficients about each arc length, and only the
frame's series is computed by the recurrences.

A trajectory keeps its step polynomials, and they are its one continuous
representation: the samples are the polynomials evaluated on the grid of
spacing IntegratorControls.step (every store_stride-th point of it), built
on first read (a half-plane curve's at construction, for its y > 0 check),
and the queries (kappa_at, kappa_s_at, curve_at, curve_velocity_at,
curve_jet) and the closure refinement read values and s-derivatives from the
polynomials at any s.  Every such read is one gathered pass over its points,
whatever their steps (taylor.evaluate).  The integrator's own steps come from
the Taylor coefficients, not from IntegratorControls.step: step spaces the
samples, and it sizes the first-return watch of a period-map row, which
counts a return only within 4 step |f| of the start in (kappa, kappa_s), f
the flow there (taylor.FirstReturn).

Every curve starts at default_curve_start of its model: curvature fixes a
curve up to an isometry of the model space, so another start would move the
curve by an isometry and change no invariant.

Closure of a half-plane curve is decided from one kappa period.  The kappa
subsystem conserves first_integral, so a bounded (kappa, kappa_s) orbit is
periodic with some period T, and curvature fixes a curve up to isometry: the
curve on [T, 2T] is the curve on [0, T] moved by one isometry M of the
half-plane, its holonomy (the argument Langer and Singer use for closed
elastic curves, J. Differential Geom. 20, 1984).  integrate_grid with
period_map marches a row only until (kappa, kappa_s) first returns to its
start, and closure_tests reads the defect over the horizon from the images
M^k of that period, refining the closures of many rows in one batched search
(closure_test is that search on one row).  A rest point returns at every s,
and its period is its first Taylor step.  Plane and sphere rows are always
marched to the horizon.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from math import ceil, cos, factorial, inf, sin, sqrt

import numpy as np

from . import taylor
from .errors import ChartDomainError, InputError

PLANE = "plane"
SPHERE = "sphere"
HALF_PLANE = "half-plane"

_MODEL_BY_EPS = {0: PLANE, 1: SPHERE, -1: HALF_PLANE}
_CURVE_COLUMNS = {
    PLANE: ("x", "y", "theta"),
    SPHERE: ("g1", "g2", "g3", "t1", "t2", "t3"),
    HALF_PLANE: ("x", "y", "phi"),
}


@dataclass(frozen=True)
class SpiralParams:
    """Dimension n >= 3, model curvature eps in {-1, 0, +1}, constant R."""

    n: int
    epsilon: int
    R: float

    def __post_init__(self):
        if self.n < 3:
            raise InputError(f"hypersurface dimension must be >= 3, got {self.n}")
        if self.epsilon not in (-1, 0, 1):
            raise InputError(f"epsilon must be -1, 0 or +1, got {self.epsilon}")

    @property
    def model(self) -> str:
        return _MODEL_BY_EPS[self.epsilon]


@dataclass(frozen=True)
class SpiralState:
    """Initial (kappa, kappa_s) of a trajectory, which starts at s = 0."""

    kappa: float
    kappa_s: float


@dataclass(frozen=True)
class IntegratorControls:
    s_max: float = 10.0
    step: float = 1e-3
    kappa_floor: float = 1e-6
    kappa_ceiling: float = 1e6
    store_stride: int = 1

    def __post_init__(self):
        if not (0 < self.step < inf and 0 < self.s_max < inf):
            raise InputError("step and s_max must be positive and finite")
        if not (0 < self.kappa_floor < self.kappa_ceiling):
            raise InputError("need 0 < kappa_floor < kappa_ceiling")
        if self.store_stride < 1:
            raise InputError("store_stride must be >= 1")


def _coefficients(params: SpiralParams) -> tuple[float, float, float]:
    """(c2, c1, R) of kappa_ss = c2 kappa_s^2 / (2 kappa) + c1 kappa / 2 - R kappa^3."""
    n, eps = params.n, params.epsilon
    return float(4 - n), float(-eps * (n - 2)), float(params.R)


def kappa_accel(params: SpiralParams, kappa, kappa_s):
    """kappa_ss of the spiral equation (vectorized)."""
    kappa = np.asarray(kappa, dtype=float)
    kappa_s = np.asarray(kappa_s, dtype=float)
    c2, c1, big_r = _coefficients(params)
    safe = np.where(np.abs(kappa) < 1e-300, 1e-300, kappa)
    return c2 * kappa_s**2 / (2.0 * safe) + c1 * kappa / 2.0 - big_r * kappa**3


def equilibrium_kappa(params: SpiralParams) -> float | None:
    """Constant-kappa solution of the spiral equation, if one exists."""
    n, eps, big_r = params.n, params.epsilon, params.R
    if eps == 0 or big_r == 0.0:
        return None
    val = -eps * (n - 2) / (2.0 * big_r)
    return float(np.sqrt(val)) if val > 0 else None


def first_integral(params: SpiralParams, kappa, kappa_s):
    """Conserved quantity of the spiral equation (vectorized).

    Obtained by the linear reduction of kappa_s**2 as a function of kappa
    with integrating factor kappa**(-c2):

        E = kappa_s^2 k^(n-4) + eps k^(n-2) + (2R/n) k^n
    """
    k = np.asarray(kappa, dtype=float)
    ks = np.asarray(kappa_s, dtype=float)
    n, eps, big_r = params.n, params.epsilon, params.R
    return ks**2 * k ** (n - 4) + eps * k ** (n - 2) + (2.0 * big_r / n) * k**n


# ---------------------------------------------------------------------------
# joint (kappa, curve) dynamics


def default_curve_start(model: str) -> np.ndarray:
    if model == PLANE:
        return np.array([0.0, 0.0, 0.0])
    if model == HALF_PLANE:
        return np.array([0.0, 1.0, 0.0])
    return np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Taylor marching of the spiral system (see taylor.py)

_FRAME_SERIES = {
    PLANE: taylor.plane_series,
    SPHERE: taylor.sphere_series,
    HALF_PLANE: taylor.half_plane_series,
}


def _spiral_series(params: SpiralParams, joint: bool):
    """(s, y) -> (series of each component of y, step) for the spiral system.

    y is (kappa, kappa_s), followed by the curve when joint; the system is
    autonomous, so s is not read.
    """
    kappa = taylor.kappa_series(*_coefficients(params))
    frame = _FRAME_SERIES[params.model] if joint else None

    def series(s, y):
        k, u = kappa(y[0], y[1])
        cols = [k[: taylor.TAYLOR_ORDER + 1], u]
        if frame is not None:
            cols += frame(k, *y[2:])
        return cols, taylor.step_size(cols)

    return series


def _sample_grid(controls: IntegratorControls) -> np.ndarray:
    """The stored sample points of a row marched to controls.s_max, read-only.

    Every store_stride-th point of the grid of spacing controls.step, and the
    end; the points are summed step by step, as a fixed-step march of
    spacing step sums them.  Rows that reach the horizon share the array as
    their s.
    """
    h, stride = controls.step, controls.store_stride
    s_max = float(controls.s_max)
    n_steps = ceil(s_max / h - 1e-12)
    sums = np.full(n_steps + 1, h)
    sums[0] = 0.0
    np.cumsum(sums, out=sums)  # s_k = s_(k-1) + h, in order
    prev = float(sums[n_steps - 1])
    end = prev + min(h, s_max - prev)  # the last step is cut at s_max
    grid = np.append(sums[:n_steps:stride], end)
    grid.flags.writeable = False
    return grid


def _taylor_march(
    params: SpiralParams, series, y0, grid: np.ndarray, controls: IntegratorControls, rets=None
) -> list[SpiralTrajectory]:
    """The trajectories of the rows y0 = (kappa, kappa_s, *curve), Taylor-marched over grid.

    rets holds each row's FirstReturn or None (taylor.march).
    """
    ends = taylor.march(
        series, y0, float(grid[-1]), controls.kappa_floor, controls.kappa_ceiling, rets
    )
    return [_trajectory(params, row, grid, controls, *end) for row, end in zip(y0, ends)]


def _trajectory(
    params: SpiralParams, y0, grid, controls, steps, s_stop, y_stop, termination
) -> SpiralTrajectory:
    """The trajectory of the row y0 from its march (taylor.march).

    Its s is the points of grid before the row's end, followed by the end.
    Its samples are built here only for a half-plane curve, whose y > 0 is
    checked on them, and otherwise on first read.  A row that ends at its
    first return (at a rest point, the end of its first step) carries the
    PeriodMap of that period, from its start and end states, with
    termination "horizon".
    """
    if termination == "horizon":
        s = grid
    else:
        s = np.append(grid[: np.searchsorted(grid, s_stop)], s_stop)
    pmap = None
    if termination == "return":
        pmap = PeriodMap.from_frames(float(s[-1]), y0[2:], y_stop[2:])
        termination = "horizon"
    traj = SpiralTrajectory(
        params=params,
        controls=controls,
        s=s,
        termination=termination,
        steps=steps,
        start=np.array(y0, dtype=float),
        end=np.array(y_stop, dtype=float),
        period_map=pmap,
    )
    if params.model == HALF_PLANE and traj.joint:  # reads, so builds, the samples
        _check_half_plane(traj.curve)
    return traj


def _check_start(states, controls: IntegratorControls) -> None:
    """Input checks shared by every integration entry point; states is (B, 2)."""
    kappa0, kappa_s0 = states[:, 0], states[:, 1]
    if not np.all((kappa0 > controls.kappa_floor) & (kappa0 < controls.kappa_ceiling)):
        raise InputError("initial kappa must lie strictly between floor and ceiling")
    if not np.all(np.isfinite(kappa_s0)):
        raise InputError("initial kappa_s must be finite")


def _check_half_plane(curve: np.ndarray) -> None:
    if np.any(curve[:, 1] <= 0):
        raise ChartDomainError("curve left the half-plane y > 0: integration fault")


def _half_plane_frame_matrix(x: float, y: float, phi: float) -> np.ndarray:
    """The isometry taking i with tangent angle 0 to (x + i y, phi), in SL(2, R).

    z -> y z + x moves i to x + i y and keeps angles; the rotation about i
    by phi is [[cos phi/2, sin phi/2], [-sin phi/2, cos phi/2]].
    """
    r, c, s = sqrt(y), cos(0.5 * phi), sin(0.5 * phi)
    return np.array([[r, x / r], [0.0, 1.0 / r]]) @ np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class PeriodMap:
    """One kappa period T of a half-plane row and the isometry it moves the curve by.

    Curvature fixes a curve up to isometry, so once (kappa, kappa_s) is back
    at its start after s = T the curve repeats, moved by the holonomy
    M = F_T F_0^-1 (det 1), where F_s is the frame matrix of the curve state
    at s.  The curve state at s = k T + u is the state at u moved by M**k.
    """

    period: float
    holonomy: np.ndarray  # (2, 2), det 1

    @classmethod
    def from_frames(cls, period: float, start, end) -> "PeriodMap":
        m = _half_plane_frame_matrix(*end) @ np.linalg.inv(_half_plane_frame_matrix(*start))
        return cls(period, m / sqrt(np.linalg.det(m)))

    @property
    def trace(self) -> float:
        return float(self.holonomy[0, 0] + self.holonomy[1, 1])

    def powers(self, ks) -> np.ndarray:
        """(len(ks), 2, 2): M**k for each k in ks."""
        powers = [np.linalg.matrix_power(self.holonomy, int(k)) for k in ks]
        return np.array(powers).reshape(-1, 2, 2)


def _moebius(curve: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Half-plane states (..., 3) = (x, y, phi) moved by m = [[a, b], [c, d]] in SL(2, R).

    z -> (a z + b) / (c z + d) and phi -> phi - 2 arg(c z + d); m (..., 2, 2)
    broadcasts against the states, so one call moves each state by its own m.
    """
    x_new, y_new, p, q = _moebius_position(curve, m)
    return np.stack([x_new, y_new, curve[..., 2] - 2.0 * np.arctan2(q, p)], axis=-1)


def _moebius_position(curve: np.ndarray, m: np.ndarray):
    """(x, y, p, q) of _moebius: the moved position, and c z + d = p + i q, whose arg turns phi."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    x, y = curve[..., 0], curve[..., 1]
    p, q = c * x + d, c * y
    r = p * p + q * q
    return ((a * x + b) * p + a * y * q) / r, (a * d - b * c) * y / r, p, q


@dataclass(frozen=True)
class SpiralTrajectory:
    """Arc-length samples of (kappa, kappa_s) plus, optionally, the curve, and their steps.

    steps holds the Taylor step polynomials the row was marched with, and
    the queries (kappa_at, kappa_s_at, curve_at, curve_velocity_at,
    curve_jet) read values and s-derivatives from them at any s in range.
    The samples kappa, kappa_s and curve are those polynomials at s, the
    grid of spacing controls.step, with the end state last; they are built
    on first read (a half-plane curve's at construction, see _trajectory)
    and kept.  controls.step spaces the samples and sizes the first-return
    watch (see the module docstring); the march picks its own steps.
    """

    params: SpiralParams
    controls: IntegratorControls
    s: np.ndarray
    termination: str
    steps: taylor.Piecewise  # the components (kappa, kappa_s, *curve)
    start: np.ndarray  # the state (kappa, kappa_s, *curve) the row was marched from
    end: np.ndarray  # the state at s[-1]
    # set when the row stopped at its first kappa return (a rest point's at
    # its first step's end): the samples cover one period, and the horizon
    # controls.s_max is covered by periodicity
    period_map: PeriodMap | None = None

    @property
    def model(self) -> str:
        return self.params.model

    @property
    def s_end(self) -> float:
        return float(self.s[-1])

    @cached_property
    def _samples(self) -> np.ndarray:
        """(len(s), len(start)): the step polynomials at s[:-1], and the end state."""
        ys = self.steps.at(self.s[:-1], out=np.empty((1, self.s.size, self.end.size)))[0]
        ys[-1] = self.end
        return ys

    @property
    def kappa(self) -> np.ndarray:
        return self._samples[:, 0]

    @property
    def kappa_s(self) -> np.ndarray:
        return self._samples[:, 1]

    @property
    def joint(self) -> bool:
        """Whether the row was marched with its curve; reads no sample."""
        return self.start.size > 2

    @property
    def curve(self) -> np.ndarray | None:
        """(len(s), curve_dim) in model coordinates, or None for a kappa-only row."""
        return self._samples[:, 2:] if self.joint else None

    @property
    def first_integral_constant(self) -> float:
        """first_integral of the start state."""
        return float(first_integral(self.params, self.start[0], self.start[1]))

    def first_integral_drift(self) -> float:
        e = first_integral(self.params, self.kappa, self.kappa_s)
        return float(np.max(np.abs(e - self.first_integral_constant)))

    # -- evaluation between samples, on the step polynomials -----------------

    def read(self, sq, columns: slice, order: int = 0) -> np.ndarray:
        """(order + 1, *sq.shape, width): the columns and their s-derivatives at sq."""
        sq = np.asarray(sq, dtype=float)
        if np.any(sq < self.s[0] - 1e-12) or np.any(sq > self.s[-1] + 1e-12):
            raise ChartDomainError(
                f"arc length query outside trajectory range [{self.s[0]:.6g}, {self.s[-1]:.6g}]"
            )
        out = self.steps.at(sq, order, columns)
        return out.reshape(out.shape[:1] + sq.shape + out.shape[2:])

    def _curve(self, sq, order: int) -> np.ndarray:
        if not self.joint:
            raise InputError("trajectory has no reconstructed curve; run reconstruct_curve")
        return self.read(sq, slice(2, None), order)

    def kappa_at(self, sq) -> np.ndarray:
        return self.read(sq, slice(0, 1))[0, ..., 0]

    def kappa_s_at(self, sq) -> np.ndarray:
        return self.read(sq, slice(1, 2))[0, ..., 0]

    def curve_at(self, sq) -> np.ndarray:
        """Model coordinates of the reconstructed curve at arbitrary s."""
        return self._curve(sq, 0)[0]

    def curve_velocity_at(self, sq) -> np.ndarray:
        """d curve / ds at arbitrary s, (K, curve_dim)."""
        return self._curve(np.atleast_1d(sq), 1)[1]

    def curve_jet(self, sq, order: int = 2) -> tuple[np.ndarray, ...]:
        """(c, c', ..., c^(order)) of the curve at arbitrary s, each (K, curve_dim).

        One evaluation of the step polynomials and of their first `order`
        derivatives, so every derivative is as accurate as c, whatever the
        sample spacing controls.step.
        """
        return tuple(self._curve(np.atleast_1d(sq), order))


def _return_watch(params: SpiralParams, row, controls: IntegratorControls):
    """The first-return watch of a row: a taylor.RestPoint at a rest point (f(y0) ~ 0).

    At a rest point (kappa, kappa_s) is back at its start at every s, so the
    row's first step is a period.
    """
    k0, ks0 = float(row[0]), float(row[1])
    flow = (ks0, float(kappa_accel(params, k0, ks0)))
    if sqrt(flow[0] ** 2 + flow[1] ** 2) <= 1e-9 * sqrt(k0 * k0 + ks0 * ks0):
        return taylor.RestPoint()
    return taylor.FirstReturn((k0, ks0), flow, controls.step)


def _integrate_rows(
    params: SpiralParams,
    initial_states,
    controls: IntegratorControls,
    joint: bool,
    period_map: bool = False,
) -> list[SpiralTrajectory]:
    """Integrate (kappa, kappa_s) rows, with the curve from default_curve_start when joint."""
    states = np.asarray(initial_states, dtype=float)
    if states.ndim > 2 or (states.size and states.shape[-1] != 2):
        raise InputError(f"initial states must be (kappa, kappa_s) rows, got shape {states.shape}")
    y0 = states.reshape(-1, 2)  # [] is no rows, as (0, 2) is
    _check_start(y0, controls)
    if joint:
        start = np.tile(default_curve_start(params.model), (y0.shape[0], 1))
        y0 = np.concatenate([y0, start], axis=1)
    watch = period_map and joint and params.model == HALF_PLANE
    rets = [_return_watch(params, row, controls) if watch else None for row in y0]
    return _taylor_march(
        params, _spiral_series(params, joint), y0, _sample_grid(controls), controls, rets
    )


def integrate_spiral(
    params: SpiralParams, initial: SpiralState, controls: IntegratorControls
) -> SpiralTrajectory:
    """Integrate the kappa subsystem with the Taylor marcher from s = 0.

    Floor and ceiling crossings terminate cleanly with the event time
    refined by bisection on the step polynomial (to 1e-10 in s).
    """
    return _integrate_rows(params, [[initial.kappa, initial.kappa_s]], controls, False)[0]


def reconstruct_curve(traj: SpiralTrajectory) -> SpiralTrajectory:
    """Fill the model-space curve by co-integrating the frame equations.

    Re-runs the joint system from the trajectory's start state, with the
    curve at default_curve_start.  The kappa subsystem does not read the
    curve, but the joint steps also follow the curve's series, so the kappa
    samples agree with the stored ones to round-off rather than bit for bit;
    when both are needed, integrate_grid on one row gets them from a single
    integration.
    """
    return _integrate_rows(traj.params, [traj.start[:2]], traj.controls, True)[0]


def integrate_grid(
    params: SpiralParams,
    initial_states: np.ndarray,
    controls: IntegratorControls,
    period_map: bool = False,
) -> list[SpiralTrajectory]:
    """Joint (kappa, curve) integration of many initial states.

    All trajectories share the controls.  The rows are
    marched by one step function built for the parameters, in lockstep when
    there are at least taylor.LOCKSTEP_ROWS of them and one after another
    otherwise; either way each row is the same as that state run on its own,
    bit for bit, and a one-row grid is the way to get kappa and the curve
    from one integration.
    A row that crosses the floor or ceiling is handled as in
    integrate_spiral: the crossing is bisected, stored and tagged in the
    row's termination ("non_finite" when the state blew up).

    With period_map, a half-plane row stops where its (kappa, kappa_s)
    first returns to the start (bisected to round-off) and carries the
    PeriodMap of that period, with termination "horizon": its samples cover
    one period and closure_tests covers the horizon s_max from them.  A rest
    point of (kappa, kappa_s) returns at every s: its curve is an orbit of a
    one-parameter group of isometries, so it stops at the end of its first
    Taylor step and carries the PeriodMap of that step.  Rows without a
    return (a row that leaves the band or does not come back before s_max,
    and every plane or sphere row) are marched to s_max exactly as without
    period_map.
    """
    return _integrate_rows(params, initial_states, controls, True, period_map)


def sine_curvature(mean: float, amplitude: float):
    """kappa(s) = mean + amplitude sin s, as the kappa_taylor of prescribed_curvature_trajectory.

    Column j at s is amplitude sin^(j)(s) / j!, plus mean in column 0.
    """

    def kappa_taylor(s, order: int) -> np.ndarray:
        sin_s, cos_s = np.sin(s), np.cos(s)
        ders = (sin_s, cos_s, -sin_s, -cos_s)  # sin^(j) cycles with period 4
        out = np.column_stack([amplitude * ders[j % 4] / factorial(j) for j in range(order + 1)])
        out[:, 0] += mean
        return out

    return kappa_taylor


def _prescribed_series(model: str, kappa_taylor):
    """(s, y) -> (series of each component of y, step) under a prescribed kappa(s).

    y is (kappa, kappa_s, *curve); the kappa columns are the prescribed
    curvature's own coefficients about s, and only the curve is read from y.
    """
    frame = _FRAME_SERIES[model]
    order = taylor.TAYLOR_ORDER

    def series(s, y):
        k = kappa_taylor(np.array([s]), order + 1)[0].tolist()
        cols = [k[: order + 1], [(j + 1) * k[j + 1] for j in range(order + 1)]]
        cols += frame(k, *y[2:])
        return cols, taylor.step_size(cols)

    return series


def prescribed_curvature_trajectory(
    n: int, epsilon: int, kappa_taylor, controls: IntegratorControls
) -> SpiralTrajectory:
    """Curve with an arbitrary prescribed geodesic curvature kappa(s).

    Used for negative controls: the curvature need not solve the spiral
    equation.  kappa_taylor(s, order) gives the Taylor coefficients of kappa
    about each arc length in s, shape (len(s), order + 1) (sine_curvature
    is one).  The frame equations are marched by taylor.march with kappa's
    series read from it, and the row is built, watched for the floor and
    ceiling and queried as a spiral row is: the step polynomials of kappa
    and kappa_s are those of the prescribed curvature.
    """
    params = SpiralParams(n, epsilon, 0.0)
    model = params.model
    kappa_start = kappa_taylor(np.zeros(1), 1)  # (1, 2): kappa and kappa_s at s = 0
    _check_start(kappa_start, controls)

    y0 = np.concatenate([kappa_start[0], default_curve_start(model)])
    return _taylor_march(
        params, _prescribed_series(model, kappa_taylor), [y0], _sample_grid(controls), controls
    )[0]


# ---------------------------------------------------------------------------
# closure detection

# closure verdicts: a least defect below TOL_CLOSED is closed, one above
# TOL_OPEN (on a row marched to its horizon) is open
TOL_CLOSED = 1e-6
TOL_OPEN = 1e-3


@dataclass(frozen=True)
class ClosureResult:
    status: str  # "closed" | "open" | "inconclusive"
    period: float | None
    defect: float


def _pos_angle_split(model: str, coords: np.ndarray):
    if model in (PLANE, HALF_PLANE):
        return coords[..., 0:2], coords[..., 2]
    return coords, None


def curve_defect(model: str, coords: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Positional + tangent mismatch between curve states (..., d) and a reference.

    The reference broadcasts against the states.  plane: Euclidean
    distance; half-plane: hyperbolic distance acosh(1 + (dx^2 + dy^2) /
    (2 y y0)); sphere: chordal distances of position and tangent.  Angles
    compare modulo 2 pi.
    """
    coords = np.atleast_2d(coords)
    if model == SPHERE:
        return np.linalg.norm(coords[..., 0:3] - ref[..., 0:3], axis=-1) + np.linalg.norm(
            coords[..., 3:6] - ref[..., 3:6], axis=-1
        )
    pos, ang = _pos_angle_split(model, coords)
    rpos, rang = _pos_angle_split(model, ref)
    if model == PLANE:
        d = np.linalg.norm(pos - rpos, axis=-1)
    else:
        d = _hyperbolic_distance(pos[..., 0], pos[..., 1], rpos[..., 0], rpos[..., 1])
    return d + _angle_distance(ang, rang)


def _hyperbolic_distance(x, y, x0, y0):
    """acosh(1 + (dx^2 + dy^2) / (2 y y0)) between the half-plane points (x, y) and (x0, y0)."""
    dx, dy = x - x0, y - y0
    return np.arccosh(1.0 + (dx * dx + dy * dy) / (2.0 * y * y0))


def _angle_distance(ang, ref):
    """|ang - ref| modulo 2 pi, in [0, pi]."""
    return np.abs(np.mod(ang - ref + np.pi, 2.0 * np.pi) - np.pi)


def _start(traj: SpiralTrajectory) -> np.ndarray:
    """The row's state (kappa, kappa_s, *curve) at s = 0."""
    return np.array([traj.kappa[0], traj.kappa_s[0], *traj.curve[0]])


def _defects(model: str, y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The defect of states y against reference states ref, which broadcast against them.

    Position and tangent distance (curve_defect) + |kappa - kappa0| + |kappa_s - kappa_s0|.
    """
    return (
        curve_defect(model, y[..., 2:], ref[..., 2:])
        + np.abs(y[..., 0] - ref[..., 0])
        + np.abs(y[..., 1] - ref[..., 1])
    )


def _holonomy_table(traj: SpiralTrajectory) -> np.ndarray:
    """(kmax + 1, 2, 2): M**k of the row for k = 0, ..., kmax, its one table of powers.

    kmax = floor(s_max / T) is the last turn a candidate or refinement probe
    reaches; a row without a period map has the identity alone.
    """
    pmap = traj.period_map
    if pmap is None:
        return np.eye(2)[None]
    return pmap.powers(range(int(traj.controls.s_max / pmap.period) + 1))


def closure_test(traj: SpiralTrajectory) -> ClosureResult:
    """closure_tests of the one row traj."""
    return closure_tests([traj])[0]


def _coarse_closure(traj: SpiralTrajectory, table):
    """(a, b, defect, s): the row's least candidate (closure_tests) and its bracket.

    The candidates are scored in place on the (turn k, sample) grid: the
    stored samples, or for a row with a period map its samples u < T moved
    by M**k = table[k], at s = k T + u.  The grid's row-major order is s
    order, so the candidates up to the horizon are a prefix of it.  A row
    with a period map takes the angle term only where it can give the least
    defect (_least_half_plane_defect).
    """
    if not traj.joint:
        raise InputError("closure test needs a reconstructed curve")
    states = np.column_stack([traj.kappa, traj.kappa_s, traj.curve])
    pmap = traj.period_map
    if pmap is None:
        s = traj.s
    else:
        states = states[:-1]  # the sample at T is the image of u = 0
        turns = np.arange(int(traj.controls.s_max // pmap.period) + 1)
        s = (turns[:, None] * pmap.period + traj.s[:-1]).ravel()
    last = int(np.searchsorted(s, traj.controls.s_max, side="right")) - 1
    first = int(np.searchsorted(s[: last + 1], min(1.0, 0.25 * float(s[last]))))
    ref = _start(traj)
    # _defects' sum, with the kappa part taken once per sample for every turn
    kappa_part = np.abs(states[:, 0] - ref[0]), np.abs(states[:, 1] - ref[1])

    def least(k: int, value: float):  # candidate k with its bracket within the window
        return float(s[max(k - 1, first)]), float(s[min(k + 1, last)]), value, float(s[k])

    if pmap is None:
        curve = states[None, :, 2:]
    else:
        moves = table[: turns.size, None]  # M**0 = Id keeps the bits
        pruned = _least_half_plane_defect(states, moves, ref, kappa_part, first, last)
        if pruned is not None:
            return least(*pruned)
        curve = _moebius(states[:, 2:], moves)
    defects = curve_defect(traj.model, curve, ref[2:])
    defects += kappa_part[0]
    defects += kappa_part[1]
    defects = defects.ravel()
    k = first + int(np.argmin(defects[first : last + 1]))
    return least(k, float(defects[k]))


def _least_half_plane_defect(states, moves, ref, kappa_part, first: int, last: int):
    """(k, defect) of the least candidate in the window [first, last] of the (turn, sample) grid.

    moves holds M**k of each turn, and kappa_part the samples'
    |kappa - kappa0| and |kappa_s - kappa_s0|.  The lower bound
    (distance + |kappa - kappa0|) + |kappa_s - kappa_s0|, summed as
    _defects sums, is at most the defect bit for bit: the angle term it
    leaves out is >= 0 and rounding is monotone.  So a candidate whose
    bound exceeds beta, the defect of the candidate with the least bound,
    is not the least, and the angle and the defect are taken only for the
    others; the first least of these, in index order, is the first least of
    all, with its bits.  None when a bound is nan or an angle is not
    finite (a defect may then be nan): the caller scores every candidate, as
    argmin picks the first nan.
    """
    x, y, p, q = _moebius_position(states[:, 2:], moves)  # each (turns, samples)
    samples = states.shape[0]
    distance = _hyperbolic_distance(x, y, ref[2], ref[3])
    lower = distance + kappa_part[0]
    lower += kappa_part[1]
    lower, distance, p, q = (v.ravel() for v in (lower, distance, p, q))

    def defect(idx):
        u = idx % samples
        turned = _angle_distance(states[u, 4] - 2.0 * np.arctan2(q[idx], p[idx]), ref[4])
        out = distance[idx] + turned
        out += kappa_part[0][u]
        out += kappa_part[1][u]
        return out

    j = first + int(np.argmin(lower[first : last + 1]))
    if np.isnan(lower[j]) or not np.isfinite(states[:, 4]).all() or not np.isfinite(ref[4]):
        return None
    beta = defect(np.array([j]))[0]
    idx = first + np.flatnonzero(lower[first : last + 1] <= beta)
    values = defect(idx)
    i = int(np.argmin(values))
    return int(idx[i]), float(values[i])


def _closure_verdict(traj, best: float, best_s: float):
    if best < TOL_CLOSED:
        return ClosureResult("closed", best_s, best)
    if best > TOL_OPEN and traj.termination == "horizon":  # a row that ended early is never open
        return ClosureResult("open", None, best)
    return ClosureResult("inconclusive", None, best)


def closure_tests(trajs: list[SpiralTrajectory]) -> list[ClosureResult]:
    """Scan each row (rows of one model) for a return to its initial curve state, then refine.

    defect(s) = position distance + tangent angle distance
                + |kappa(s) - kappa(0)| + |kappa_s(s) - kappa_s(0)|,
    minimized over the window of candidate samples at s >= min(1, s_last / 4),
    s_last the last candidate's arc length (the horizon or the row's end),
    then refined between the neighbouring candidates on the row's own step
    polynomials, by 33-point scans that keep the neighbours of the least
    value until the bracket is below 1e-11.  A bracket never reaches below
    the window's first candidate, so no probe reads the start, where the
    defect is 0 by definition.  The candidates are the stored
    samples or, for a row with a period map, their images under the holonomy
    M**k at s = k T + u up to the horizon, and the refinement reads the
    polynomials the same way (a bracket may cross k T); the defect can only
    vanish near some k T, and there it is small exactly when M**k is close
    to the identity.
    A row that ended before the horizon is never reported open.

    The candidates are scanned row by row; on a row with a period map the
    angle term is taken only for the candidates whose distance and kappa
    parts leave it a chance to be least, which finds the same least
    candidate, bracket and defect, bit for bit (_coarse_closure).  Each
    refinement scan takes the 33 probes of every row still refining at once
    and reads them on their rows' step polynomials in one gathered pass
    (taylor.evaluate, as Piecewise.at reads a row).  When a row of the call
    has a period map, every probe is then moved by M**k of its turn k, from
    its row's one table of powers: M**0 = Id, on the first turn and on rows
    without a map, leaves a state as it is, bit for bit, so a call without
    maps moves none.
    """
    if len({traj.model for traj in trajs}) > 1:
        raise InputError("closure_tests takes rows of one model")
    if not trajs:
        return []
    tables = [_holonomy_table(traj) for traj in trajs]
    a, b, best, best_s = (np.array(v) for v in zip(*map(_coarse_closure, trajs, tables)))
    _refine_rows(trajs, tables, a, b, best, best_s)
    return [
        _closure_verdict(traj, value, s)
        for traj, value, s in zip(trajs, best.tolist(), best_s.tolist())
    ]


def _refine_rows(trajs, tables, a, b, best, best_s) -> None:
    """The bracket scans of every row at once, updating best and best_s in place."""
    model = trajs[0].model
    ref = np.array([_start(t) for t in trajs])
    period = np.array([t.period_map.period if t.period_map else 1.0 for t in trajs])
    watched = np.array([t.period_map is not None for t in trajs])
    counts = [len(t.steps.starts) for t in trajs]
    starts = np.full((len(trajs), max(counts)), inf)  # each row's step starts, padded
    holonomy = np.tile(np.eye(2), (len(trajs), max(map(len, tables)), 1, 1))  # padded by Id
    for i, (t, table) in enumerate(zip(trajs, tables)):
        starts[i, : counts[i]] = t.steps.starts
        holonomy[i, : len(table)] = table
    # the rows' steps one after another, in the layout Piecewise keeps them in
    coefs = np.concatenate([t.steps.coefs for t in trajs])
    first = np.cumsum([0] + counts[:-1])  # each row's first step in coefs
    for _ in range(16):  # each scan shrinks every bracket 16-fold
        live = np.flatnonzero(~(b - a < 1e-11))
        if not live.size:
            break
        probes = np.linspace(a[live], b[live], 33, axis=1)
        turns = np.where(watched[live, None], np.floor(probes / period[live, None]), 0.0)
        u = probes - turns * period[live, None]
        # the step of each probe, as Piecewise.at finds it, read as it reads it
        step = np.maximum((u[..., None] >= starts[live, None, :]).sum(-1) - 1, 0)
        dt = u - starts[live[:, None], step]
        y = taylor.evaluate(coefs, (first[live, None] + step).ravel(), dt.ravel())[0]
        y = y.reshape(u.shape + y.shape[-1:])
        if model == HALF_PLANE and watched.any():  # each probe moved by M**k of its turn
            y[..., 2:] = _moebius(y[..., 2:], holonomy[live[:, None], turns.astype(int)])
        vals = _defects(model, y, ref[live, None])
        j = np.argmin(vals, axis=1)
        probe = np.arange(live.size)
        least = vals[probe, j]
        better = least < best[live]
        best[live[better]] = least[better]
        best_s[live[better]] = probes[probe, j][better]
        a[live] = probes[probe, np.maximum(j - 1, 0)]
        b[live] = probes[probe, np.minimum(j + 1, probes.shape[1] - 1)]


def _flat_rate(params: SpiralParams, kappa0: float, kappa_s0: float, controls):
    """(m, rate): kappa(s)^m = kappa0^m + rate s on the flat row.

    On a flat row (epsilon = 0, R = 0) E = kappa_s^2 kappa^(n-4) is conserved,
    so with m = (n - 2) / 2 and sigma the sign of kappa_s0 kappa^m is linear
    in s, at the rate m sigma sqrt(E); rate is 0 unless E > 0.
    """
    if params.epsilon != 0 or params.R != 0.0:
        raise InputError("the flat-row bounds need a flat row (epsilon = 0, R = 0)")
    _check_start(np.array([[kappa0, kappa_s0]], dtype=float), controls)
    m = 0.5 * (params.n - 2)
    energy = float(first_integral(params, kappa0, kappa_s0))
    rate = m * sqrt(energy) * (1.0 if kappa_s0 > 0 else -1.0) if energy > 0.0 else 0.0
    return m, rate


def _in_band_at(m: float, rate: float, kappa0: float, s: float, controls) -> bool:
    """Whether the flat row's kappa at s lies inside (kappa_floor, kappa_ceiling)."""
    return bool(controls.kappa_floor**m < kappa0**m + rate * s < controls.kappa_ceiling**m)


def flat_kappa_in_band(
    params: SpiralParams, kappa0: float, kappa_s0: float, controls: IntegratorControls
) -> bool:
    """Whether the flat row's exact kappa stays inside (kappa_floor, kappa_ceiling) to s_max.

    kappa is monotone, so it does exactly when kappa(s_max) is inside.  The
    sample grid ends at or before s_max, so the band test of
    flat_closure_bound at the grid's last point then passes too.
    """
    m, rate = _flat_rate(params, kappa0, kappa_s0, controls)
    return _in_band_at(m, rate, kappa0, float(controls.s_max), controls)


def flat_closure_bound(
    params: SpiralParams, kappa0: float, kappa_s0: float, controls: IntegratorControls
) -> float:
    """Lower bound on the closure defect of the flat row (kappa0, kappa_s0), from its exact kappa(s).

    On a flat row (epsilon = 0, R = 0) E = kappa_s^2 kappa^(n-4) is conserved,
    so with m = (n - 2) / 2 and sigma the sign of kappa_s0

        kappa(s)^m = kappa0^m + m sigma sqrt(E) s,
        kappa_s(s) = kappa_s0 (kappa0 / kappa(s))^((n - 4) / 2),

    and the tangent turns by Theta(s) = (kappa(s)^(m+1) - kappa0^(m+1)) /
    ((m + 1) sigma sqrt(E)).  For E > 0 kappa is strictly monotone, so
    |kappa - kappa0|, |kappa_s - kappa_s0| and, while Theta <= pi, the angle
    distance Theta all grow with s: their sum at s1, the first candidate of
    the window of closure_tests over controls.s_max, is at most the defect
    that closure_tests finds for the marched row.  The bound is 0.0 when
    E <= 0 or kappa leaves (kappa_floor, kappa_ceiling) before s_max, where
    the marched row is never open.
    """
    m, rate = _flat_rate(params, kappa0, kappa_s0, controls)
    if not rate:
        return 0.0
    grid = _sample_grid(controls)
    horizon = float(grid[-1])  # the last candidate of a row marched to s_max
    if not _in_band_at(m, rate, kappa0, horizon, controls):
        return 0.0  # kappa is monotone, so it leaves the band iff it is out at the horizon
    s1 = float(grid[np.searchsorted(grid, min(1.0, 0.25 * horizon))])

    def turning(kappa):
        return (kappa ** (m + 1) - kappa0 ** (m + 1)) * m / ((m + 1) * rate)

    k1 = (kappa0**m + rate * s1) ** (1.0 / m)
    bound = abs(k1 - kappa0) + abs(kappa_s0 * (kappa0 / k1) ** (0.5 * (params.n - 4)) - kappa_s0)
    if turning((kappa0**m + rate * horizon) ** (1.0 / m)) <= np.pi:
        bound += turning(k1)
    return bound


# ---------------------------------------------------------------------------
# export


def export_csv(traj: SpiralTrajectory, path=None) -> str:
    """CSV with columns s, kappa, kappa_s, model coordinates, E."""
    p = traj.params
    buf = io.StringIO()
    buf.write(
        f"# n={p.n} epsilon={p.epsilon} R={p.R!r} "
        f"model={p.model} step={traj.controls.step!r} termination={traj.termination}\n"
    )
    cols = ["s", "kappa", "kappa_s"]
    data = [traj.s, traj.kappa, traj.kappa_s]
    if traj.joint:
        cols += list(_CURVE_COLUMNS[traj.model])
        data += [traj.curve[:, i] for i in range(traj.curve.shape[1])]
    cols.append("E")
    data.append(first_integral(p, traj.kappa, traj.kappa_s))
    buf.write(",".join(cols) + "\n")
    mat = np.column_stack(data)
    for row in mat:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
