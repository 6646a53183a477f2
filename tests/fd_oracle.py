"""The separate second-difference stencil that ``fd.jet_batch`` replaced.

Kept as the test oracle: one field call on the pure and mixed second-
difference stencils of each point, summed block by block.  ``jet_batch``
builds the same points in the same order, so its second partials must equal
these bit for bit.
"""

import numpy as np

from mobiusflat.fd import _D1_OFFS, _D1_WTS, _D2_OFFS, _D2_WTS, _eval


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
