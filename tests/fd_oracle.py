"""Finite-difference oracles for the exact routes.

``diff2_batch`` is the separate second-difference stencil that
``fd.jet_batch`` replaced: one field call on the pure and mixed second-
difference stencils of each point, summed block by block.  ``jet_batch``
builds the same points in the same order, so its second partials must equal
these bit for bit.

``fd_handle`` gives a handle whose jet is the FD 2-jet of a bare map, such
as a generator's map in ``zoo_oracle``, in place of an exact jet, and
``recomputed_curvature`` differences a stored spiral curve on its sample
grid.
"""

from dataclasses import replace

import numpy as np

from mobiusflat.errors import InputError
from mobiusflat.fd import _D1_OFFS, _D1_WTS, _D2_OFFS, _D2_WTS, _eval, jet_batch
from mobiusflat.immersion import ImmersionHandle
from mobiusflat.spiral import PLANE, SPHERE


def diff2_batch(field, points: np.ndarray, step: float) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, m = points.shape
    offs1, wts1 = _D1_OFFS, _D1_WTS
    offs2, wts2 = _D2_OFFS, _D2_WTS
    h = np.full_like(points, step)

    blocks = []  # (a, b, weights per stencil point, point offsets)
    pts_list = []
    for a in range(m):
        p = np.repeat(points[:, None, :], offs2.size, axis=1)
        p[:, :, a] += offs2[None, :] * h[:, None, a]
        pts_list.append(p)
        blocks.append((a, a, wts2))
    for a in range(m):
        for b in range(a + 1, m):
            p = np.repeat(points[:, None, :], offs1.size ** 2, axis=1)
            oa = np.repeat(offs1, offs1.size)
            ob = np.tile(offs1, offs1.size)
            p[:, :, a] += oa[None, :] * h[:, None, a]
            p[:, :, b] += ob[None, :] * h[:, None, b]
            pts_list.append(p)
            blocks.append((a, b, np.outer(wts1, wts1).ravel()))

    sizes = [p.shape[1] for p in pts_list]
    allpts = np.concatenate(pts_list, axis=1)  # (K, total, m)
    vals = _eval(field, allpts.reshape(k * allpts.shape[1], m))
    vals = vals.reshape((k, allpts.shape[1]) + vals.shape[1:])

    out = None
    pos = 0
    for (a, b, w), size in zip(blocks, sizes):
        chunk = vals[:, pos : pos + size]
        pos += size
        ww = w.reshape((1, size) + (1,) * (chunk.ndim - 2))
        d = (chunk * ww).sum(axis=1)
        denom = (h[:, a] * h[:, b]).reshape((k,) + (1,) * (d.ndim - 1))
        d = d / denom
        if out is None:
            out = np.zeros((k, m, m) + d.shape[1:])
        out[:, a, b] = d
        out[:, b, a] = d
    return out


def frame_components(tensor: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """All slots of a rank-3 or rank-4 tensor contracted with the frame at once (m^8 for rank 4)."""
    if tensor.ndim == 4:
        return np.einsum("abcd,ai,bj,ck,dl->ijkl", tensor, frame, frame, frame, frame)
    return np.einsum("abc,ai,bj,ck->ijk", tensor, frame, frame, frame)


def fd_handle(f, step, like=None, **fields):
    """A handle whose jet is one FD jet of the bare map f with the given step (one
    call of f per request): like with its jet replaced, or a handle of the fields.

    Its first partials equal ``fd.diff1_batch`` of f bit for bit, and its
    values are f's.  The stencil points are checked against the handle's
    domain, but f is differenced, never the handle, whose values are read
    from this jet.  The FD jet has order 2; a request of a higher order is
    refused.
    """

    def checked(pts):
        imm.check_domain(pts)
        return f(pts)

    def jet(pts, order=2):
        if order > 2:
            raise InputError(f"a finite-difference jet has order 2, not {order}")
        return jet_batch(checked, pts, step)[: order + 1]

    imm = ImmersionHandle(jet=jet, **fields) if like is None else replace(like, jet=jet, **fields)
    return imm


def recomputed_curvature(traj):
    """Geodesic curvature recomputed from the stored curve by differencing.

    plane:      kappa = x' y'' - x'' y'            (unit speed)
    sphere:     kappa = det[gamma, gamma', gamma'']
    half-plane: kappa = (x' y'' - x'' y') / y^2 + x' / y

    Uses order-4 central differences on the sample grid (4 nodes clipped at
    each end; an event-shortened final interval is dropped).  Returns
    (s values, recomputed kappa) on the surviving interior nodes.
    """
    if traj.curve is None:
        raise InputError("needs a reconstructed curve")
    s, curve = traj.s, traj.curve
    diffs = np.diff(s)
    h = float(diffs[0])
    bad = np.nonzero(np.abs(diffs - h) > 1e-9)[0]
    if bad.size:  # event-terminated runs end with one shortened interval
        stop = int(bad[0]) + 1
        s, curve = s[:stop], curve[:stop]
    if s.size < 9:
        raise InputError("trajectory too short for the differencing stencil")

    def d(arr):
        return (arr[:-4] - 8 * arr[1:-3] + 8 * arr[3:-1] - arr[4:]) / (12 * h)

    s_mid = s[4:-4]
    if traj.model == SPHERE:
        # each application of d() trims 2 samples from both ends
        gam = curve[:, 0:3]
        g2 = d(d(gam))
        g1 = d(gam)[2:-2]
        gmid = gam[4:-4]
        return s_mid, np.einsum("ij,ij->i", np.cross(gmid, g1), g2)
    x, y = curve[:, 0], curve[:, 1]
    x1, y1 = d(x), d(y)
    x2, y2 = d(d(x)), d(d(y))
    x1, y1 = x1[2:-2], y1[2:-2]
    if traj.model == PLANE:
        return s_mid, x1 * y2 - x2 * y1
    ymid = y[4:-4]
    return s_mid, (x1 * y2 - x2 * y1) / ymid**2 + x1 / ymid
