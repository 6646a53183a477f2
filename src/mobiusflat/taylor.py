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

A series is a list of Python floats, a[j] the coefficient of t**j; a state
is a tuple (kappa, kappa_s, *curve) and its series one list per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, inf, isfinite, nan, sin, sqrt
from operator import mul

import numpy as np

TAYLOR_ORDER = 20
# Jorba and Zou's step: the estimated radius of convergence over e^2, so
# that the neglected terms sit near e^(-2 (TAYLOR_ORDER + 1)) ~ 1e-18
# relative to the state
_RADIUS_SHARE = exp(-2.0)
# the band and the first return are watched at these fractions of each step
_WATCH = np.arange(1, 17) / 16.0
# dense output evaluates at most this many points of a step at once
_CHUNK = 128
_DEGREES = np.arange(TAYLOR_ORDER + 1.0)  # d/dt t^j = _DEGREES[j] t^(j - 1)


def kappa_series(c2: float, c1: float, big_r: float):
    """(kappa, kappa_s) -> series of kappa to order TAYLOR_ORDER + 1 and of kappa_s.

    kappa'' = c2 kappa'^2 / (2 kappa) + c1 kappa / 2 - R kappa^3 term by
    term: the square and the cube are Cauchy products, the quotient by
    kappa the series division, and kappa[j + 2] = kappa''[j] / ((j+1)(j+2)).
    """
    half2, half1 = 0.5 * c2, 0.5 * c1

    def series(k0: float, ks0: float):
        k, u = [k0, ks0], [ks0]  # u[j] = (j + 1) k[j + 1], the series of kappa_s
        quot, square = [], []  # kappa_s^2 / kappa and kappa^2
        for j in range(TAYLOR_ORDER):
            acc = half1 * k[j]
            if c2:
                uj = u[: j + 1]
                q = sum(map(mul, uj, reversed(uj))) - sum(map(mul, k[1 : j + 1], reversed(quot)))
                quot.append(q / k0)
                acc += half2 * quot[j]
            if big_r:
                kj = k[: j + 1]
                square.append(sum(map(mul, kj, reversed(kj))))
                acc -= big_r * sum(map(mul, square, reversed(kj)))
            k.append(acc / ((j + 1) * (j + 2)))
            u.append((j + 2) * k[j + 2])
        return k, u

    return series


def _cos_sin(angle0: float, rate: list[float]):
    """Series of cos and sin of an angle whose derivative has the series rate.

    (cos a)' = -sin a a' and (sin a)' = cos a a', so j c[j] is the Cauchy
    product of rate with -s at degree j - 1, and j s[j] that with c.
    """
    c, s = [cos(angle0)], [sin(angle0)]
    for j in range(1, TAYLOR_ORDER):
        r = rate[:j]
        cj = -sum(map(mul, r, reversed(s))) / j
        s.append(sum(map(mul, r, reversed(c))) / j)
        c.append(cj)
    return c, s


def _integral(start: float, rate) -> list[float]:
    """Series of the function with value start and derivative series rate."""
    return [start] + [r / (j + 1) for j, r in enumerate(rate)]


def plane_series(k, x, y, theta):
    """(x, y, theta)' = (cos theta, sin theta, kappa), given kappa's series k."""
    c, s = _cos_sin(theta, k)
    return [_integral(x, c), _integral(y, s), _integral(theta, k[:TAYLOR_ORDER])]


def half_plane_series(k, x, y, phi):
    """(x, y, phi)' = (y cos phi, y sin phi, kappa - cos phi), given kappa's series k."""
    c, s = [cos(phi)], [sin(phi)]
    rate = []  # the series of phi'
    xs, ys, ps = [x], [y], [phi]
    for j in range(TAYLOR_ORDER):
        if j:
            cj = -sum(map(mul, rate, reversed(s))) / j
            s.append(sum(map(mul, rate, reversed(c))) / j)
            c.append(cj)
        rate.append(k[j] - c[j])
        ps.append(rate[j] / (j + 1))
        xj = sum(map(mul, ys, reversed(c))) / (j + 1)
        ys.append(sum(map(mul, ys, reversed(s))) / (j + 1))
        xs.append(xj)
    return [xs, ys, ps]


def sphere_series(k, g1, g2, g3, t1, t2, t3):
    """(gamma, T)' = (T, kappa gamma x T - gamma) from the state made orthonormal."""
    norm = sqrt((g1 * g1 + g2 * g2) + g3 * g3)
    g1, g2, g3 = g1 / norm, g2 / norm, g3 / norm
    dot = (t1 * g1 + t3 * g3) + t2 * g2
    t1, t2, t3 = t1 - dot * g1, t2 - dot * g2, t3 - dot * g3
    norm = sqrt((t1 * t1 + t2 * t2) + t3 * t3)
    ga, gb, gc = [g1], [g2], [g3]
    ta, tb, tc = [t1 / norm], [t2 / norm], [t3 / norm]
    xa, xb, xc = [], [], []  # the series of gamma x T
    for j in range(TAYLOR_ORDER):
        xa.append(sum(map(mul, gb, reversed(tc))) - sum(map(mul, gc, reversed(tb))))
        xb.append(sum(map(mul, gc, reversed(ta))) - sum(map(mul, ga, reversed(tc))))
        xc.append(sum(map(mul, ga, reversed(tb))) - sum(map(mul, gb, reversed(ta))))
        kj = k[: j + 1]
        for g, t, x in ((ga, ta, xa), (gb, tb, xb), (gc, tc, xc)):
            g.append(t[j] / (j + 1))
            t.append((sum(map(mul, kj, reversed(x))) - g[j]) / (j + 1))
    return [ga, gb, gc, ta, tb, tc]


def step_size(cols) -> float:
    """The Taylor step at a state whose components have the series cols.

    Jorba and Zou's estimate of the radius of convergence, the least
    (max(1, |c[0]|) / |c[j]|)^(1/j) over the components c and the two
    highest orders j, times e^-2.  The frame is in it because its own
    singularities (the half-plane angle solves a Riccati equation) can lie
    closer than those of kappa.
    """
    radius = inf
    for c in cols:
        scale = max(1.0, abs(c[0]))
        for j in (TAYLOR_ORDER - 1, TAYLOR_ORDER):
            if c[j]:
                radius = min(radius, (scale / abs(c[j])) ** (1.0 / j))
    return _RADIUS_SHARE * radius


def horner(col: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(col):
        acc = acc * t + c
    return acc


def state(cols, t: float) -> tuple:
    return tuple(horner(col, t) for col in cols)


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
    stop the march.
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

        Each crossing of g from - to + between watch points (the first
        after the previous step's end) is bisected on the polynomial to
        round-off; the first one near y0 is the return.
        """
        g = self.g(watched[:, 0], watched[:, 1])
        before = np.concatenate(([self.g_prev], g[:-1]))
        self.g_prev = float(g[-1])
        for i in np.flatnonzero((before < 0.0) & (g >= 0.0)).tolist():
            lo, hi = (ts[i - 1] if i else 0.0), ts[i]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if self.g(horner(cols[0], mid), horner(cols[1], mid)) < 0.0:
                    lo = mid
                else:
                    hi = mid
            dk, dks = horner(cols[0], hi) - self.k0, horner(cols[1], hi) - self.ks0
            if dk * dk + dks * dks < self.reach2:
                return hi
        return None


@dataclass
class Piecewise:
    """The step polynomials of a march, its dense output.

    Step i covers [starts[i], starts[i + 1]) and coefs[i] holds the
    coefficients of every component about starts[i], (TAYLOR_ORDER + 1, d).
    The polynomials are the integrator's own solution, so a state or an
    s-derivative read from them between the stored samples is as accurate
    as the samples themselves.
    """

    starts: list
    coefs: list

    def at(self, t, order: int = 0, columns=slice(None), out=None) -> np.ndarray:
        """The states at the points t (in any order) and their first `order` s-derivatives.

        Fills and returns out[:, :len(t)], out of shape (order + 1, >= len(t),
        width) (allocated when None): out[j, i] is the j-th derivative at t[i]
        of the components selected by columns, the j-th derivative of the
        step polynomial.  A point is read on the step that covers it, a
        point before the first step on the first.  A value does not depend
        on order, bit for bit, nor a derivative on which others are asked
        for.  A step's points are taken _CHUNK at a time, which bounds the
        matrices of their powers.
        """
        t = np.asarray(t, dtype=float).reshape(-1)
        if out is None:
            out = np.empty((order + 1, t.size, self.coefs[0][:, columns].shape[1]))
        step = np.searchsorted(self.starts, t, side="right") - 1
        np.maximum(step, 0, out=step)
        # the points of step i are t[perm[bounds[i]:bounds[i + 1]]]
        perm = np.argsort(step, kind="stable")
        bounds = np.searchsorted(step[perm], np.arange(len(self.starts) + 1))
        for i in np.flatnonzero(np.diff(bounds)).tolist():
            coefs = self.coefs[i][:, columns]
            for a in range(bounds[i], bounds[i + 1], _CHUNK):
                rows = perm[a : min(a + _CHUNK, bounds[i + 1])]
                powers = np.vander(t[rows] - self.starts[i], TAYLOR_ORDER + 1, increasing=True)
                out[0, rows] = np.einsum("ij,jk->ik", powers, coefs)
                if order:  # d^j/dt^j t^i = i d^(j-1)/dt^(j-1) t^(i-1), row j - 1
                    ders = np.zeros((order, rows.size, TAYLOR_ORDER + 1))
                    prev = powers
                    for j in range(order):
                        ders[j, :, j + 1 :] = prev[:, j:-1] * _DEGREES[j + 1 :]
                        prev = ders[j]
                    out[1:, rows] = np.einsum("oij,jk->oik", ders, coefs)
        return out


def march(series, y0, s_end: float, floor: float, ceiling: float, ret: FirstReturn | None = None):
    """Taylor steps of one row y0 from s = 0 towards s_end.

    series(s, y) gives the series of every component of y about the arc
    length s and the step there.
    Returns (Piecewise, s_stop, y_stop, termination).  kappa (element 0) is
    watched at _WATCH within each step: a step that leaves the open band
    (floor, ceiling) or turns non-finite ends the row at the crossing,
    bisected on the polynomial to 1e-10 in s and tagged by band_exit; with
    ret, the row ends at the first return of (kappa, kappa_s) to its start,
    tagged "return".  Otherwise the row ends at s_end, tagged "horizon".
    """
    y = tuple(float(v) for v in y0)
    s = 0.0
    steps = Piecewise([], [])
    while True:
        try:
            cols, h = series(s, y)
        except (ArithmeticError, ValueError):  # cos of an infinite angle
            return steps, s, (nan,) * len(y), "non_finite"
        last = h >= s_end - s
        if last:
            h = s_end - s
        steps.starts.append(s)
        steps.coefs.append(np.array(cols).T)
        ts = h * _WATCH
        powers = np.vander(ts, TAYLOR_ORDER + 1, increasing=True)
        # kappa's own contiguous array: einsum on a strided view buffers, at a
        # measurable cost in peak memory
        with np.errstate(all="ignore"):  # a blown-up series gives nan
            watched = np.einsum("ij,kj->ik", powers, np.array(cols[:2]))
        outside = ~((watched[:, 0] > floor) & (watched[:, 0] < ceiling))
        exit_at = int(np.argmax(outside)) if outside.any() else ts.size
        t = None
        if ret is not None and exit_at:
            t = ret.find(cols, ts[:exit_at], watched[:exit_at])
        if t is not None:
            return steps, s + t, state(cols, t), "return"
        if exit_at < ts.size or not (last or s + h > s):  # left the band, or stalled
            lo = ts[exit_at - 1] if 0 < exit_at < ts.size else 0.0
            hi = ts[exit_at] if exit_at < ts.size else 0.0
            while hi - lo >= 1e-10:
                mid = 0.5 * (lo + hi)
                if floor < horner(cols[0], mid) < ceiling:
                    lo = mid
                else:
                    hi = mid
            y_stop = state(cols, hi) if hi > 0.0 else (nan,) * len(y)
            return steps, s + hi, y_stop, band_exit(y_stop, floor, ceiling)
        y = state(cols, h)
        if last:
            return steps, s_end, y, "horizon"
        s += h
