"""Central finite differences on vectorized fields over an m-dimensional chart.

A *field* is a callable taking an (K, m) array of chart points and returning
an (K, ...) array of values; scalar fields return shape (K,), immersions
(K, N), metric fields (K, m, m).  All stencil evaluations for one request
are packed into a single field call, which keeps the per-point Python
overhead negligible.  A request for values, first and second partials
together (``jet_batch``) is one call on the second-difference stencil: its
axial points already hold every first-difference offset and the centre, so
the first partials and values are read from it rather than re-evaluated.
``diff1_batch`` is the cheaper 4m-point stencil for first partials alone.

Step sizes follow the classical second-derivative optimum
eps**(1/(order+2)) and are scaled per coordinate by max(1, |p_k|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)

# offsets and unit-step weights for central differences
_D1 = {
    2: (np.array([-1, 1]), np.array([-0.5, 0.5])),
    4: (np.array([-2, -1, 1, 2]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0),
}
_D2 = {
    2: (np.array([-1, 0, 1]), np.array([1.0, -2.0, 1.0])),
    4: (np.array([-2, -1, 0, 1, 2]), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
}


@dataclass(frozen=True)
class FDScheme:
    """Central-difference scheme: per-coordinate base step and order in {2, 4}.

    step <= 0 selects the default eps**(1/(order+2)).  With scaled=True the
    per-coordinate step is multiplied by max(1, |p_k|), which keeps relative
    accuracy under chart homotheties; pass scaled=False for fields that vary
    on a fixed scale regardless of where the chart point sits (metric fields
    evaluated far along a trajectory, for example).
    """

    step: float = 0.0
    order: int = 4
    scaled: bool = True

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"FD order must be 2 or 4, got {self.order}")

    def base_step(self) -> float:
        if self.step > 0:
            return float(self.step)
        return _EPS ** (1.0 / (self.order + 2))

    def steps_at(self, p: np.ndarray) -> np.ndarray:
        """Per-coordinate steps at p (last axis indexes coordinates)."""
        p = np.asarray(p, dtype=float)
        if not self.scaled:
            return np.full_like(p, self.base_step())
        return self.base_step() * np.maximum(1.0, np.abs(p))


def _eval(field, pts: np.ndarray) -> np.ndarray:
    out = np.asarray(field(pts))
    if out.shape[0] != pts.shape[0]:
        raise ValueError("field is not vectorized over the leading axis")
    return out


def _first_partials(vals: np.ndarray, h: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Weighted sum over the axial offsets of vals (K, m, n_off, ...), over h (K, m)."""
    k, m, n_off = vals.shape[:3]
    w = wts.reshape((1, 1, n_off) + (1,) * (vals.ndim - 3))
    deriv = (vals * w).sum(axis=2)
    hh = h.reshape((k, m) + (1,) * (deriv.ndim - 2))
    return deriv / hh


def diff1_batch(field, points: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """All first partials of the field at each point.

    points: (K, m).  Returns (K, m, ...) with [k, a] = d(field)/dx_a at
    points[k].
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, m = points.shape
    offs, wts = _D1[scheme.order]
    n_off = offs.size
    h = scheme.steps_at(points)  # (K, m)

    pts = np.repeat(points[:, None, None, :], m, axis=1)
    pts = np.repeat(pts, n_off, axis=2)  # (K, m, n_off, m)
    for a in range(m):
        pts[:, a, :, a] += offs[None, :] * h[:, None, a]
    vals = _eval(field, pts.reshape(k * m * n_off, m))
    return _first_partials(vals.reshape((k, m, n_off) + vals.shape[1:]), h, wts)


def jet_batch(
    field, points: np.ndarray, scheme: FDScheme
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first and second partials of the field from one field call.

    points: (K, m).  Returns (values (K, ...), d1 (K, m, ...), d2 (K, m, m,
    ...)), d2 symmetric in the two derivative axes.  Pure second derivatives
    use the 1-d second-difference stencil along each axis; mixed ones use
    the tensor product of two first-difference stencils.  The first-
    difference offsets and 0 are a subset of the second-difference offsets,
    so d1 (summed as in ``diff1_batch``, and equal to it) and the values
    come from the axial points of the same stencil.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, m = points.shape
    offs1, wts1 = _D1[scheme.order]
    offs2, wts2 = _D2[scheme.order]
    n1, n2 = offs1.size, offs2.size
    h = scheme.steps_at(points)

    axial = np.repeat(points[:, None, None, :], m, axis=1)
    axial = np.repeat(axial, n2, axis=2)  # (K, m, n2, m)
    for a in range(m):
        axial[:, a, :, a] += offs2[None, :] * h[:, None, a]
    pts_list = [axial.reshape(k, m * n2, m)]
    blocks = [(a, a, wts2) for a in range(m)]  # (a, b, weights per stencil point)
    oa = np.repeat(offs1, n1)
    ob = np.tile(offs1, n1)
    for a in range(m):
        for b in range(a + 1, m):
            p = np.repeat(points[:, None, :], n1 * n1, axis=1)
            p[:, :, a] += oa[None, :] * h[:, None, a]
            p[:, :, b] += ob[None, :] * h[:, None, b]
            pts_list.append(p)
            blocks.append((a, b, np.outer(wts1, wts1).ravel()))

    allpts = np.concatenate(pts_list, axis=1)  # (K, total, m)
    vals = _eval(field, allpts.reshape(k * allpts.shape[1], m))
    vals = vals.reshape((k, allpts.shape[1]) + vals.shape[1:])

    d2 = np.zeros((k, m, m) + vals.shape[2:])
    pos = 0
    for a, b, w in blocks:
        chunk = vals[:, pos : pos + w.size]
        pos += w.size
        ww = w.reshape((1, w.size) + (1,) * (chunk.ndim - 2))
        d = (chunk * ww).sum(axis=1)
        denom = (h[:, a] * h[:, b]).reshape((k,) + (1,) * (d.ndim - 1))
        d = d / denom
        d2[:, a, b] = d
        d2[:, b, a] = d

    axial_vals = vals[:, : m * n2].reshape((k, m, n2) + vals.shape[2:])
    d1 = _first_partials(axial_vals[:, :, np.searchsorted(offs2, offs1)], h, wts1)
    values = axial_vals[:, 0, int(np.searchsorted(offs2, 0))].copy()
    return values, d1, d2


def diff2_batch(field, points: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """All second partials of the field at each point: (K, m, m, ...).

    The second-difference stencil of ``jet_batch``.
    """
    return jet_batch(field, points, scheme)[2]


def diff1(field, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """First partials at a single point: (m, ...)."""
    return diff1_batch(field, np.asarray(p, dtype=float)[None, :], scheme)[0]


def diff2(field, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Second partials at a single point: (m, m, ...)."""
    return diff2_batch(field, np.asarray(p, dtype=float)[None, :], scheme)[0]


def jet(field, p: np.ndarray, scheme: FDScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value (...), first (m, ...) and second partials (m, m, ...) at a single point."""
    values, d1, d2 = jet_batch(field, np.asarray(p, dtype=float)[None, :], scheme)
    return values[0], d1[0], d2[0]

