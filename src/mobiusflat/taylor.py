"""Taylor-series marching of the spiral system and the prescribed-curvature curves.

The curvature equation kappa'' = c2 kappa'^2 / (2 kappa) + c1 kappa / 2 -
R kappa^3 and the frame equations of the curve (see ``spiral``) are tiny,
smooth and rational or trigonometric, which is the case for high-order
Taylor methods (Jorba and Zou, Experimental Mathematics 14, 2005; Griewank
and Walther, Evaluating Derivatives, ch. 13).  At each step the coefficients
of the state are computed to the fixed order TAYLOR_ORDER by the standard
recurrences, and the step is a share of the series' estimated radius of
convergence.  Each step's polynomial is the dense output: the band events
and the first return are rooted on it, and a march returns its polynomials
(Piecewise), on which the samples, the trajectory's queries and the closure
refinement are evaluated.

A set of at least LOCKSTEP_ROWS rows is marched as one block, in lockstep:
each step computes the series of every live row at once, and the band watch,
the first-return test and the advance act on all of them, while each row
keeps its own step size and arc length.  Smaller sets are marched one row at
a time.  A series is a coefficient store, a[j] the coefficient of t**j: a
list of Python floats for a row marched alone, an (order, B) float64 array
for a block of B rows.  The recurrences and the step size are written once
over both; only the Cauchy product, cos and sin, and the step's radius depend
on the store (_Floats, _Block).  Both Cauchy products add their terms left to
right (for B >= 2 a block's sum down axis 0 does), the radius is a least of
roots, exact in any order, and every other operation is elementwise, so each
row of a block is bit for bit the row marched alone.
A state is a tuple (kappa, kappa_s, *curve) of floats or of (B,) arrays, and
its series one store per component.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from math import cos, exp, inf, isfinite, nan, sin, sqrt
from operator import add, mul

import numpy as np

TAYLOR_ORDER = 20
# Jorba and Zou's step: the estimated radius of convergence over e^2, so
# that the neglected terms sit near e^(-2 (TAYLOR_ORDER + 1)) ~ 1e-18
# relative to the state
_RADIUS_SHARE = exp(-2.0)
# the band and the first return are watched at these fractions of each step
_WATCH = np.arange(1, 17) / 16.0
# the first return's Newton steps, at most; a step below sqrt(eps) t ends them
_NEWTON_STEPS = 8
_SQRT_EPS = sys.float_info.epsilon**0.5
# dense output evaluates this many points at once, whatever their steps: it
# bounds the gathered (_CHUNK, TAYLOR_ORDER + 1, width) coefficients
_CHUNK = 128
_DEGREES = np.arange(TAYLOR_ORDER + 1.0)  # d/dt t^j = _DEGREES[j] t^(j - 1)
# the fewest rows marched as one block; below it each row is marched alone,
# which is faster (see CHANGES.md for the timing)
LOCKSTEP_ROWS = 7
# the orders the step size reads, and the exponents of their roots
_TOP = (TAYLOR_ORDER - 1, TAYLOR_ORDER)
_ROOTS = tuple(1.0 / j for j in _TOP)


if sys.version_info < (3, 12):

    def _cauchy(a, b, j: int) -> float:
        """sum_i a[i] b[j - i] over i = 0 .. j, the product's coefficient of degree j.

        Added left to right: Python's sum does so for floats before 3.12.
        """
        return sum(map(mul, a, b[j::-1]))

else:

    def _cauchy(a, b, j: int) -> float:
        # from 3.12 on Python's sum compensates float rounding (Neumaier),
        # which a block's sum does not
        return reduce(add, map(mul, a, b[j::-1]), 0.0)


class _Floats:
    """The kernels of a row marched alone: a series is a list of Python floats."""

    cos, sin, sqrt = staticmethod(cos), staticmethod(sin), staticmethod(sqrt)
    cauchy = staticmethod(_cauchy)

    @staticmethod
    def zeros(n: int, like) -> list[float]:
        return [0.0] * n

    @staticmethod
    def radius(cols) -> float:
        """The least (scale / |c[j]|)^(1/j) of step_size, one bound at a time.

        A zero or nan c[j] sets no bound: min keeps radius against a nan.
        """
        radius = inf
        for c in cols:
            scale = max(1.0, abs(c[0]))  # 1 for a nan c[0]
            for j, root in zip(_TOP, _ROOTS):
                radius = min(radius, (scale / abs(c[j])) ** root) if c[j] else radius
        return radius


class _Block:
    """The kernels of B >= 2 rows in lockstep: a series is an (order, B) array."""

    sqrt = staticmethod(np.sqrt)

    @staticmethod
    def zeros(n: int, like) -> np.ndarray:
        return np.zeros((n, like.size))

    @staticmethod
    def cauchy(a, b, j: int):
        return (a[: j + 1] * b[j::-1]).sum(0)

    @staticmethod
    def radius(cols):
        """Each row's radius of step_size: every bound in one pass, then one fmin.

        The roots are Python's pow (numpy's ** can differ from it in the last
        bit).  A zero c[j] gives an infinite root and fmin skips a nan one,
        and min is exact in any order, so each row is its _Floats radius.
        """
        scale = np.fmax(1.0, np.abs([c[0] for c in cols]))  # 1 for a nan c[0]
        with np.errstate(divide="ignore"):
            ratios = scale / np.abs([[c[j] for c in cols] for j in _TOP])
        roots = [v ** e for e, rows in zip(_ROOTS, ratios.tolist()) for row in rows for v in row]
        return np.fmin.reduce(np.reshape(roots, (-1, scale.shape[1])), axis=0, initial=inf)

    # math's cos and sin row by row: numpy's may round differently, and
    # math's raise on an infinite angle, as a lone row's series does
    @staticmethod
    def cos(x):
        return np.array([cos(v) for v in x.tolist()])

    @staticmethod
    def sin(x):
        return np.array([sin(v) for v in x.tolist()])


def _kernels(x):
    return _Block if isinstance(x, np.ndarray) else _Floats


def kappa_series(c2: float, c1: float, big_r: float):
    """(kappa, kappa_s) -> series of kappa to order TAYLOR_ORDER + 1 and of kappa_s.

    kappa'' = c2 kappa'^2 / (2 kappa) + c1 kappa / 2 - R kappa^3 term by
    term: the square and the cube are Cauchy products, the quotient by
    kappa the series division, and kappa[j + 2] = kappa''[j] / ((j+1)(j+2)).
    """
    half2, half1 = 0.5 * c2, 0.5 * c1

    def series(k0, ks0):
        ops = _kernels(k0)
        cauchy = ops.cauchy
        k, u = ops.zeros(TAYLOR_ORDER + 2, k0), ops.zeros(TAYLOR_ORDER + 1, k0)
        quot, square = ops.zeros(TAYLOR_ORDER, k0), ops.zeros(TAYLOR_ORDER, k0)
        k[0], k[1], u[0] = k0, ks0, ks0  # u[j] = (j + 1) k[j + 1], the series of kappa_s
        for j in range(TAYLOR_ORDER):
            acc = half1 * k[j]
            if c2:  # quot = kappa_s^2 / kappa
                quot[j] = (cauchy(u, u, j) - (cauchy(k[1:], quot, j - 1) if j else 0.0)) / k0
                acc += half2 * quot[j]
            if big_r:
                square[j] = cauchy(k, k, j)
                acc -= big_r * cauchy(square, k, j)
            k[j + 2] = acc / ((j + 1) * (j + 2))
            u[j + 1] = (j + 2) * k[j + 2]
        return k, u

    return series


def _cos_sin(angle0, rate):
    """Series of cos and sin of an angle whose derivative has the series rate.

    (cos a)' = -sin a a' and (sin a)' = cos a a', so j c[j] is the Cauchy
    product of rate with -s at degree j - 1, and j s[j] that with c.
    """
    ops = _kernels(angle0)
    cauchy = ops.cauchy
    c, s = ops.zeros(TAYLOR_ORDER, angle0), ops.zeros(TAYLOR_ORDER, angle0)
    c[0], s[0] = ops.cos(angle0), ops.sin(angle0)
    for j in range(1, TAYLOR_ORDER):
        c[j] = -cauchy(rate, s, j - 1) / j
        s[j] = cauchy(rate, c, j - 1) / j
    return c, s


def _integral(start, rate):
    """Series of the function with value start and derivative series rate."""
    out = _kernels(start).zeros(len(rate) + 1, start)
    out[0] = start
    for j in range(len(rate)):
        out[j + 1] = rate[j] / (j + 1)
    return out


def plane_series(k, x, y, theta):
    """(x, y, theta)' = (cos theta, sin theta, kappa), given kappa's series k."""
    c, s = _cos_sin(theta, k)
    return [_integral(x, c), _integral(y, s), _integral(theta, k[:TAYLOR_ORDER])]


def half_plane_series(k, x, y, phi):
    """(x, y, phi)' = (y cos phi, y sin phi, kappa - cos phi), given kappa's series k."""
    ops = _kernels(phi)
    cauchy = ops.cauchy
    c, s, rate = (ops.zeros(TAYLOR_ORDER, phi) for _ in range(3))  # rate: the series of phi'
    xs, ys, ps = (ops.zeros(TAYLOR_ORDER + 1, phi) for _ in range(3))
    c[0], s[0] = ops.cos(phi), ops.sin(phi)
    xs[0], ys[0], ps[0] = x, y, phi
    for j in range(TAYLOR_ORDER):
        if j:
            c[j] = -cauchy(rate, s, j - 1) / j
            s[j] = cauchy(rate, c, j - 1) / j
        rate[j] = k[j] - c[j]
        ps[j + 1] = rate[j] / (j + 1)
        xs[j + 1] = cauchy(ys, c, j) / (j + 1)
        ys[j + 1] = cauchy(ys, s, j) / (j + 1)
    return [xs, ys, ps]


def sphere_series(k, g1, g2, g3, t1, t2, t3):
    """(gamma, T)' = (T, kappa gamma x T - gamma) from the state made orthonormal."""
    ops = _kernels(g1)
    cauchy = ops.cauchy
    norm = ops.sqrt((g1 * g1 + g2 * g2) + g3 * g3)
    g1, g2, g3 = g1 / norm, g2 / norm, g3 / norm
    dot = (t1 * g1 + t3 * g3) + t2 * g2
    t1, t2, t3 = t1 - dot * g1, t2 - dot * g2, t3 - dot * g3
    norm = ops.sqrt((t1 * t1 + t2 * t2) + t3 * t3)
    ga, gb, gc, ta, tb, tc = (ops.zeros(TAYLOR_ORDER + 1, g1) for _ in range(6))
    xa, xb, xc = (ops.zeros(TAYLOR_ORDER, g1) for _ in range(3))  # the series of gamma x T
    ga[0], gb[0], gc[0] = g1, g2, g3
    ta[0], tb[0], tc[0] = t1 / norm, t2 / norm, t3 / norm
    for j in range(TAYLOR_ORDER):
        xa[j] = cauchy(gb, tc, j) - cauchy(gc, tb, j)
        xb[j] = cauchy(gc, ta, j) - cauchy(ga, tc, j)
        xc[j] = cauchy(ga, tb, j) - cauchy(gb, ta, j)
        for g, t, x in ((ga, ta, xa), (gb, tb, xb), (gc, tc, xc)):
            g[j + 1] = t[j] / (j + 1)
            t[j + 1] = (cauchy(k, x, j) - g[j]) / (j + 1)
    return [ga, gb, gc, ta, tb, tc]


def step_size(cols):
    """The Taylor step at a state whose components have the series cols.

    Jorba and Zou's estimate of the radius of convergence, the least
    (max(1, |c[0]|) / |c[j]|)^(1/j) over the components c and the two
    highest orders j, times e^-2.  The frame is in it because its own
    singularities (the half-plane angle solves a Riccati equation) can lie
    closer than those of kappa.  A block gets one step per row, from all
    its roots taken in one pass (_Block.radius), each row's bit for bit the
    step of the row alone.
    """
    return _RADIUS_SHARE * _kernels(cols[0]).radius(cols)


def horner(col, t):
    """The polynomial with coefficients col[0], col[1], ... at t, by Horner's rule.

    col[j] may be an array, as t may: a block's coefficients stacked
    (order + 1, d, B) give its d components at its B rows' t in one pass,
    by the same operations as state() on each.
    """
    acc = 0.0
    for c in reversed(col):
        acc = acc * t + c
    return acc


def state(cols, t) -> tuple:
    return tuple(horner(col, t) for col in cols)


def powers(t: np.ndarray) -> np.ndarray:
    """t**j for j = 0 .. TAYLOR_ORDER on a new last axis, by running products as np.vander."""
    out = np.empty(t.shape + (TAYLOR_ORDER + 1,))
    out[..., 0] = 1.0
    out[..., 1:] = t[..., None]
    np.multiply.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def band_exit(y_end, floor: float, ceiling: float) -> str:
    """The termination tag of a state that has left the band (floor, ceiling)."""
    if not all(isfinite(v) for v in y_end):
        return "non_finite"
    return "kappa_floor" if y_end[0] < sqrt(floor * ceiling) else "kappa_ceiling"


class FirstReturn:
    """First return of (kappa, kappa_s) to its start y0.

    Watched through the section g(y) = (y - y0) . f(y0) normal to the flow
    f at y0: g starts at 0 and grows, and the orbit is back at y0 when g
    next crosses from - to +.  A crossing counts only within four steps of
    size h of y0, so an orbit that meets the section line elsewhere does not
    stop the march.  The section's parameters may be (B, 1) columns, one row
    of a block each, for g alone.
    """

    def __init__(self, y0: tuple, flow: tuple, h: float):
        self.k0, self.ks0 = y0
        self.f0, self.f1 = flow
        self.reach2 = (4.0 * h) ** 2 * (self.f0 * self.f0 + self.f1 * self.f1)
        self.g_prev = 0.0

    def g(self, kappa, kappa_s):
        return (kappa - self.k0) * self.f0 + (kappa_s - self.ks0) * self.f1

    def find(self, cols, ts: np.ndarray, watched: np.ndarray) -> float | None:
        """The return within a step with series cols, watched at ts, if there is one.

        The crossings of g from - to + between watch points (the first after
        the previous step's end) go to near().
        """
        g = self.g(watched[:, 0], watched[:, 1])
        before = np.concatenate(([self.g_prev], g[:-1]))
        self.g_prev = float(g[-1])
        return self.near(cols, ts, np.flatnonzero((before < 0.0) & (g >= 0.0)).tolist())

    def below(self, cols, t):
        """Whether g < 0 on the step polynomials cols at t, the test of the bisection.

        t may be an array: each point is tested by the same operations as alone.
        """
        return self.g(horner(cols[0], t), horner(cols[1], t)) < 0.0

    def near(self, cols, ts: np.ndarray, crossings: list[int]) -> float | None:
        """The first crossing near y0, bisected on the polynomial to round-off.

        crossings are watch indices i: g crosses between ts[i - 1] (0 for
        i = 0) and ts[i].  The bisection keeps g(lo) < 0 <= g(hi) and ends
        where lo and hi are neighbouring floats.  Its halvings are first
        taken together (_replay): the Newton root of the crossing predicts
        each one, and one vectorized test of every midpoint confirms them up
        to the first it does not; the bisection goes on from there alone.
        Every halving is decided by the test at its own midpoint, so hi is
        the float of the plain bisection, bit for bit.
        """
        for i in crossings:
            lo, hi = (ts[i - 1] if i else 0.0), ts[i]
            root = self._newton_root(cols, lo, hi)
            if root is not None:
                lo, hi = self._replay(cols, lo, hi, root)
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if self.below(cols, mid):
                    lo = mid
                else:
                    hi = mid
            dk, dks = horner(cols[0], hi) - self.k0, horner(cols[1], hi) - self.ks0
            if dk * dk + dks * dks < self.reach2:
                return hi
        return None

    def _newton_root(self, cols, lo: float, hi: float) -> float | None:
        """Newton's root of g in (lo, hi), from its middle; None if a step leaves the bracket.

        Each step reads kappa, kappa_s and their derivatives in one Horner
        pass.  The steps stop at one below sqrt(eps) t: the error after it
        is about its square, round-off.
        """
        t = 0.5 * (lo + hi)
        for _ in range(_NEWTON_STEPS):
            k = dk = ks = dks = 0.0
            for a, b in zip(reversed(cols[0]), reversed(cols[1])):
                dk, k = dk * t + k, k * t + a
                dks, ks = dks * t + ks, ks * t + b
            slope = dk * self.f0 + dks * self.f1
            step = self.g(k, ks) / slope if slope else nan
            t -= step
            if not lo < t < hi:  # a nan t too
                return None
            if abs(step) <= _SQRT_EPS * t:
                break
        return t

    def _replay(self, cols, lo: float, hi: float, root: float) -> tuple[float, float]:
        """The bisection's bracket after the halvings that root predicts and the test confirms.

        The halvings from (lo, hi) are predicted by the side of root each
        midpoint lies on, and every midpoint is tested at once.  The result
        is the bracket after the first unconfirmed halving, taken the tested
        way, or after all of them: the plain bisection's after as many.
        """
        los, mids, his = [], [], []
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            los.append(lo)
            mids.append(mid)
            his.append(hi)
            if mid < root:
                lo = mid
            else:
                hi = mid
        points = np.array(mids)
        # kappa and kappa_s in one pass: their coefficients stacked (order + 1, 2, 1)
        kappa, kappa_s = horner(np.array(cols[:2]).T[:, :, None], points)
        below = self.g(kappa, kappa_s) < 0.0
        wrong = np.flatnonzero(below != (points < root))
        if not wrong.size:
            return lo, hi
        i = int(wrong[0])
        return (mids[i], his[i]) if below[i] else (los[i], mids[i])


class RestPoint:
    """The watch of a row at a rest point of (kappa, kappa_s): it returns at every s.

    There the frame equations have constant coefficients, so the curve is an
    orbit of a one-parameter group of isometries and every arc length is a
    period.  The row ends at the end of its first step, unless it leaves the
    band within it.  Its section parameters are nan, so a block's section g
    never crosses for it; a block marks its crossing at the step's last
    watch point instead.
    """

    k0 = ks0 = f0 = f1 = g_prev = nan

    def find(self, cols, ts: np.ndarray, watched: np.ndarray) -> float | None:
        """The end of the step, if the row stayed in the band over all of it."""
        return float(ts[-1]) if ts.size == _WATCH.size else None

    def near(self, cols, ts: np.ndarray, crossings: list[int]) -> float:
        """The end of the step, where a block marks the crossing."""
        return float(ts[-1])


@dataclass
class Piecewise:
    """The step polynomials of a march, its dense output.

    Step i covers [starts[i], starts[i + 1]) and coefs[i] holds the
    coefficients of every component about starts[i], (TAYLOR_ORDER + 1, d):
    coefs is one (steps, TAYLOR_ORDER + 1, d) array, the transposed view of
    a C-ordered (steps, d, TAYLOR_ORDER + 1) one, so that a component's
    coefficients lie together, the layout evaluate sums in.  The polynomials
    are the integrator's own solution, so a state or an s-derivative read
    from them between the samples is as accurate as the samples themselves.
    """

    starts: list
    coefs: np.ndarray

    @classmethod
    def of(cls, starts: list, coefs: list, width: int) -> "Piecewise":
        """The march's step starts and (width, TAYLOR_ORDER + 1) coefficients, stacked once."""
        stacked = np.array(coefs).reshape(-1, width, TAYLOR_ORDER + 1)
        return cls(starts, stacked.transpose(0, 2, 1))

    def at(self, t, order: int = 0, columns=slice(None), out=None) -> np.ndarray:
        """The states at the points t (in any order) and their first `order` s-derivatives.

        Fills and returns out[:, :len(t)], out of shape (order + 1, >= len(t),
        width) (allocated when None): out[j, i] is the j-th derivative at t[i]
        of the components selected by columns, the j-th derivative of the
        step polynomial.  A point is read on the step that covers it, a
        point before the first step on the first: every point's step is
        found in one pass, and evaluate reads them all in one gathered pass.
        """
        t = np.asarray(t, dtype=float).reshape(-1)
        starts = np.array(self.starts)
        step = np.searchsorted(starts, t, side="right") - 1
        np.maximum(step, 0, out=step)
        return evaluate(self.coefs[:, :, columns], step, t - starts[step], order, out)


def evaluate(coefs: np.ndarray, step: np.ndarray, dt: np.ndarray, order: int = 0, out=None):
    """out[j, i]: the j-th derivative at dt[i] of the polynomial coefs[step[i]], j <= order.

    coefs is (steps, TAYLOR_ORDER + 1, width), a polynomial's coefficients
    of t**0 .. t**TAYLOR_ORDER down axis 1, laid out as Piecewise keeps them
    (the einsum's summation order follows the layout of its operands); out
    (order + 1, >= len(dt), width) is allocated when None, and filled and
    returned.  The points are taken _CHUNK at a time, whatever their steps:
    each chunk's C-contiguous powers of dt meet its gathered coefficients in
    one einsum, so a value depends neither on the other points nor on
    order, bit for bit.
    """
    if out is None:
        out = np.empty((order + 1, dt.size, coefs.shape[2]))
    for a in range(0, dt.size, _CHUNK):
        b = min(a + _CHUNK, dt.size)
        pows, gathered = powers(dt[a:b]), coefs[step[a:b]]
        out[0, a:b] = np.einsum("kj,kjw->kw", pows, gathered)
        if order:  # d^j/dt^j t^i = i d^(j-1)/dt^(j-1) t^(i-1), row j - 1
            ders = np.zeros((order, b - a, TAYLOR_ORDER + 1))
            prev = pows
            for j in range(order):
                ders[j, :, j + 1 :] = prev[:, j:-1] * _DEGREES[j + 1 :]
                prev = ders[j]
            out[1:, a:b] = np.einsum("okj,kjw->okw", ders, gathered)
    return out


def _band_end(cols, ts: np.ndarray, exit_at: int, floor: float, ceiling: float):
    """(t, state, termination) of a row that leaves the band in a step, or stalls.

    The crossing after watch point exit_at - 1 is bisected on kappa's
    polynomial to 1e-10 in t; a stalled row (exit_at = len(ts)) ends at t = 0
    with a nan state.
    """
    lo = ts[exit_at - 1] if 0 < exit_at < ts.size else 0.0
    hi = ts[exit_at] if exit_at < ts.size else 0.0
    while hi - lo >= 1e-10:
        mid = 0.5 * (lo + hi)
        if floor < horner(cols[0], mid) < ceiling:
            lo = mid
        else:
            hi = mid
    y_stop = state(cols, hi) if hi > 0.0 else (nan,) * len(cols)
    return hi, y_stop, band_exit(y_stop, floor, ceiling)


def march(series, y0, s_end: float, floor: float, ceiling: float, rets=None) -> list:
    """Taylor steps of the rows y0 (B, d) from s = 0 towards s_end.

    series(s, y) gives the series of every component of y about the arc
    length s and the step there, for one row (floats) or a block ((B,)
    arrays); rets holds each row's FirstReturn, RestPoint or None.
    Returns one (Piecewise, s_stop, y_stop, termination) per row.  kappa
    (element 0) is watched at _WATCH within each step: a step that leaves
    the open band (floor, ceiling) or turns non-finite ends the row at the
    crossing, bisected on the polynomial to 1e-10 in s and tagged by
    band_exit; with a FirstReturn, the row ends at the first return of
    (kappa, kappa_s) to its start, and with a RestPoint at the end of its
    first step, tagged "return".  Otherwise the row ends
    at s_end, tagged "horizon".  At least LOCKSTEP_ROWS rows are marched in
    lockstep, fewer one at a time; a row ends the same either way, bit for bit.
    """
    rets = list(rets) if rets is not None else [None] * len(y0)
    if len(y0) < LOCKSTEP_ROWS:
        ends = [_march_row(series, row, s_end, floor, ceiling, ret) for row, ret in zip(y0, rets)]
    else:
        ends = _march_block(series, y0, s_end, floor, ceiling, rets)
    width = len(y0[0]) if len(y0) else 0
    return [(Piecewise.of(*steps, width), *end) for steps, *end in ends]


def _march_row(series, y, s_end, floor, ceiling, ret, s=0.0, steps=None):
    """march of one row on Python floats, from the arc length s after the steps.

    steps is the row's (starts, coefficients) so far, two lists it appends to.
    """
    y = tuple(float(v) for v in y)
    steps = steps if steps is not None else ([], [])
    while True:
        try:
            cols, h = series(s, y)
        except (ArithmeticError, ValueError):  # cos of an infinite angle
            return steps, s, (nan,) * len(y), "non_finite"
        last = h >= s_end - s
        if last:
            h = s_end - s
        steps[0].append(s)
        steps[1].append(np.array(cols))
        ts = h * _WATCH
        # kappa's own contiguous array: einsum on a strided view buffers, at a
        # measurable cost in peak memory
        with np.errstate(all="ignore"):  # a blown-up series gives nan
            watched = np.einsum("ij,kj->ik", powers(ts), np.array(cols[:2]))
        outside = ~((watched[:, 0] > floor) & (watched[:, 0] < ceiling))
        exit_at = int(np.argmax(outside)) if outside.any() else ts.size
        t = None
        if ret is not None and exit_at:
            t = ret.find(cols, ts[:exit_at], watched[:exit_at])
        if t is not None:
            return steps, s + t, state(cols, t), "return"
        if exit_at < ts.size or not (last or s + h > s):  # left the band, or stalled
            t, y_stop, termination = _band_end(cols, ts, exit_at, floor, ceiling)
            return steps, s + t, y_stop, termination
        y = state(cols, h)
        if last:
            return steps, s_end, y, "horizon"
        s += h


def _march_block(series, y0, s_end, floor, ceiling, rets):
    """march of B >= 2 rows in lockstep; the last live row goes on alone, on floats."""
    y = np.array(y0, dtype=float).T.copy()  # (d, live rows)
    s = np.zeros(y.shape[1])
    live = list(range(y.shape[1]))  # the rows of the block, in order
    steps = [([], []) for _ in live]
    out = [None] * len(live)
    sections = np.array(
        [(r.k0, r.ks0, r.f0, r.f1) if r else (nan,) * 4 for r in rets]
    ).T  # a row without a watch has a nan section: g never crosses
    rest = np.array([isinstance(r, RestPoint) for r in rets])
    index = np.arange(_WATCH.size)
    with np.errstate(all="ignore"):  # a blown-up series gives nan, as on floats
        while len(live) >= 2:
            try:
                cols, h = series(s, tuple(y))
            except (ArithmeticError, ValueError):
                # the rows whose own series raises end there, as they would alone
                bad = []
                for i in range(len(live)):
                    try:
                        series(float(s[i]), tuple(y[:, i].tolist()))
                    except (ArithmeticError, ValueError):
                        bad.append(i)
                if not bad:
                    raise
                for i in bad:
                    out[live[i]] = (steps[live[i]], float(s[i]), (nan,) * y.shape[0], "non_finite")
                keep = np.ones(len(live), bool)
                keep[bad] = False
                y, s, live = y[:, keep], s[keep], [row for row, k in zip(live, keep) if k]
                continue
            last = h >= s_end - s
            h = np.where(last, s_end - s, h)
            stacked = np.array(cols)  # (d, order + 1, live rows)
            # one C-contiguous (d, order + 1) block per row, as a row alone
            # stores its coefficients
            coefs = np.ascontiguousarray(stacked.transpose(2, 0, 1))
            for i, row in enumerate(live):
                steps[row][0].append(float(s[i]))
                steps[row][1].append(coefs[i])
            ts = h[:, None] * _WATCH
            watched = np.einsum("bij,bkj->bik", powers(ts), coefs[:, :2])
            kappa = watched[..., 0]
            outside = ~((kappa > floor) & (kappa < ceiling))
            exit_at = np.where(outside.any(1), np.argmax(outside, 1), _WATCH.size)
            sec = sections[:, live, None]
            g = FirstReturn((sec[0], sec[1]), (sec[2], sec[3]), 0.0).g(kappa, watched[..., 1])
            g_prev = np.array([rets[row].g_prev if rets[row] else nan for row in live])
            before = np.concatenate([g_prev[:, None], g[:, :-1]], axis=1)
            crossing = (before < 0.0) & (g >= 0.0) & (index < exit_at[:, None])
            crossing[:, -1] |= rest[live] & (exit_at == _WATCH.size)  # as RestPoint.find
            for i, row in enumerate(live):
                if rets[row]:
                    rets[row].g_prev = float(g[i, -1])
            stalled = ~(last | (s + h > s))
            y_next = horner(stacked.transpose(1, 0, 2), h)  # state(cols, h), in one pass
            keep = np.ones(len(live), bool)
            for i in np.flatnonzero(crossing.any(1) | (exit_at < _WATCH.size) | stalled | last):
                row, t = live[i], None
                row_cols = [c[:, i].tolist() for c in cols]
                if crossing[i].any():
                    t = rets[row].near(row_cols, ts[i], np.flatnonzero(crossing[i]).tolist())
                if t is not None:
                    out[row] = (steps[row], float(s[i]) + t, state(row_cols, t), "return")
                elif exit_at[i] < _WATCH.size or stalled[i]:
                    t, y_stop, termination = _band_end(row_cols, ts[i], exit_at[i], floor, ceiling)
                    out[row] = (steps[row], float(s[i]) + t, y_stop, termination)
                elif last[i]:
                    out[row] = (steps[row], s_end, tuple(y_next[:, i].tolist()), "horizon")
                else:
                    continue
                keep[i] = False
            y, s, live = y_next[:, keep], (s + h)[keep], [row for row, k in zip(live, keep) if k]
    for i, row in enumerate(live):
        out[row] = _march_row(
            series, y[:, i], s_end, floor, ceiling, rets[row], float(s[i]), steps[row]
        )
    return out
