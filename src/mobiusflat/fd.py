"""Order-4 central finite differences on vectorized fields over an m-dimensional chart.

A *field* is a callable taking an (K, m) array of chart points and returning
an (K, ...) array of values; scalar fields return shape (K,), immersions
(K, N), metric fields (K, m, m).  All stencil evaluations for one request
are packed into a single field call, which keeps the per-point Python
overhead negligible.  A request for values, first and second partials
together (``jet_batch``) is one call on the second-difference stencil: its
axial points already hold every first-difference offset and the centre, so
the first partials and values are read from it rather than re-evaluated.
``diff1_batch`` is the cheaper 4m-point stencil for first partials alone.

Every request takes one step, the same in every coordinate and at every
point.  There is no default step: each caller states its own.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# offsets and unit-step weights of the order-4 central differences
_D1_OFFS = np.array([-2, -1, 1, 2])
_D1_WTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_D2_OFFS = np.array([-2, -1, 0, 1, 2])
_D2_WTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# where the first-difference offsets and the centre sit among _D2_OFFS
_D1_IN_D2 = np.searchsorted(_D2_OFFS, _D1_OFFS)
_CENTRE = int(np.searchsorted(_D2_OFFS, 0))


def _checked(step: float) -> float:
    if not step > 0:
        raise InputError(f"finite-difference step must be positive, got {step!r}")
    return step


def _eval(field, pts: np.ndarray) -> np.ndarray:
    out = np.asarray(field(pts))
    if out.shape[0] != pts.shape[0]:
        raise ValueError("field is not vectorized over the leading axis")
    return out


def _first_partials(vals: np.ndarray, step: float) -> np.ndarray:
    """Weighted sum over the axial offsets of vals (K, m, 4, ...), over the step."""
    w = _D1_WTS.reshape((1, 1, _D1_OFFS.size) + (1,) * (vals.ndim - 3))
    return (vals * w).sum(axis=2) / step


def diff1_batch(field, points: np.ndarray, step: float) -> np.ndarray:
    """All first partials of the field at each point.

    points: (K, m).  Returns (K, m, ...) with [k, a] = d(field)/dx_a at
    points[k].
    """
    step = _checked(step)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, m = points.shape
    n_off = _D1_OFFS.size

    pts = np.repeat(points[:, None, None, :], m, axis=1)
    pts = np.repeat(pts, n_off, axis=2)  # (K, m, n_off, m)
    for a in range(m):
        pts[:, a, :, a] += _D1_OFFS * step
    vals = _eval(field, pts.reshape(k * m * n_off, m))
    return _first_partials(vals.reshape((k, m, n_off) + vals.shape[1:]), step)


def jet_batch(field, points: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first and second partials of the field from one field call.

    points: (K, m).  Returns (values (K, ...), d1 (K, m, ...), d2 (K, m, m,
    ...)), d2 symmetric in the two derivative axes.  Pure second derivatives
    use the 1-d second-difference stencil along each axis; mixed ones use
    the tensor product of two first-difference stencils.  The first-
    difference offsets and 0 are a subset of the second-difference offsets,
    so d1 (summed as in ``diff1_batch``, and equal to it) and the values
    come from the axial points of the same stencil.
    """
    step = _checked(step)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, m = points.shape
    n1, n2 = _D1_OFFS.size, _D2_OFFS.size

    axial = np.repeat(points[:, None, None, :], m, axis=1)
    axial = np.repeat(axial, n2, axis=2)  # (K, m, n2, m)
    for a in range(m):
        axial[:, a, :, a] += _D2_OFFS * step
    pts_list = [axial.reshape(k, m * n2, m)]
    blocks = [(a, a, _D2_WTS) for a in range(m)]  # (a, b, weights per stencil point)
    oa = np.repeat(_D1_OFFS, n1)
    ob = np.tile(_D1_OFFS, n1)
    for a in range(m):
        for b in range(a + 1, m):
            p = np.repeat(points[:, None, :], n1 * n1, axis=1)
            p[:, :, a] += oa * step
            p[:, :, b] += ob * step
            pts_list.append(p)
            blocks.append((a, b, np.outer(_D1_WTS, _D1_WTS).ravel()))

    allpts = np.concatenate(pts_list, axis=1)  # (K, total, m)
    vals = _eval(field, allpts.reshape(k * allpts.shape[1], m))
    vals = vals.reshape((k, allpts.shape[1]) + vals.shape[1:])

    d2 = np.zeros((k, m, m) + vals.shape[2:])
    pos = 0
    for a, b, w in blocks:
        chunk = vals[:, pos : pos + w.size]
        pos += w.size
        ww = w.reshape((1, w.size) + (1,) * (chunk.ndim - 2))
        d = (chunk * ww).sum(axis=1) / (step * step)
        d2[:, a, b] = d
        d2[:, b, a] = d

    axial_vals = vals[:, : m * n2].reshape((k, m, n2) + vals.shape[2:])
    d1 = _first_partials(axial_vals[:, :, _D1_IN_D2], step)
    values = axial_vals[:, 0, _CENTRE].copy()
    return values, d1, d2


def diff2_batch(field, points: np.ndarray, step: float) -> np.ndarray:
    """All second partials of the field at each point: (K, m, m, ...).

    The second-difference stencil of ``jet_batch``.
    """
    return jet_batch(field, points, step)[2]


def diff1(field, p: np.ndarray, step: float) -> np.ndarray:
    """First partials at a single point: (m, ...)."""
    return diff1_batch(field, np.asarray(p, dtype=float)[None, :], step)[0]


def jet(field, p: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value (...), first (m, ...) and second partials (m, m, ...) at a single point."""
    values, d1, d2 = jet_batch(field, np.asarray(p, dtype=float)[None, :], step)
    return values[0], d1[0], d2[0]
