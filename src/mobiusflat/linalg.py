"""Small-matrix linear algebra: cyclic Jacobi eigensolver and metric frames.

Everything here targets symmetric matrices of size <= 8, where robustness
and determinism matter more than speed.  The Jacobi sweep order is fixed
(row-major over the strict upper triangle), so results are reproducible
bit-for-bit across runs.  ``jacobi_eigh``, ``require_symmetric`` and
``gram_schmidt_frames`` also take a stack (K, m, m) of matrices, and the
checks name the first failing one; a matrix gets the same bits alone and in
any stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, InputError

# jacobi_eigh's relative convergence tolerance and its cap on sweeps
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60
# gram_schmidt_frames: a squared g-norm at or below this is a degenerate metric
FRAME_FLOOR = 1e-14


def require_symmetric(a: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    """(a + a^T) / 2, once max|a - a^T| <= tol * max(1, max|a|) holds for each matrix."""
    a = np.asarray(a, dtype=float)
    at = np.swapaxes(a, -1, -2)
    if a.size:
        scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
        bad = np.flatnonzero(np.max(np.abs(a - at), axis=(-2, -1)) > tol * scale)
        if bad.size:
            where = f" at point {int(bad[0])}" if a.ndim > 2 else ""
            raise InputError(f"{what} is not symmetric within tolerance {tol}{where}")
    return 0.5 * (a + at)


def jacobi_eigh(a: np.ndarray):
    """Eigen-decomposition of a symmetric matrix (m, m), or of a stack (K, m, m),
    by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues ascending and v[..., :, i] the eigenvector
    for w[..., i], matching the numpy.linalg.eigh layout.  A matrix is
    converged, and no longer rotated, once every off-diagonal entry is below
    JACOBI_TOL * max(1, max|a|) at the start of a sweep; the solve stops after
    JACOBI_MAX_SWEEPS sweeps in any case.  Each rotation updates rows and
    columns p and q elementwise (Golub-Van Loan sec. 8.5), so a matrix gets
    the same bits in any stack.
    """
    a = require_symmetric(a, what="eigensolver input")
    one = a.ndim == 2
    a = a[None] if one else a
    k, m = a.shape[:2]
    v = np.tile(np.eye(m), (k, 1, 1))
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(1, 2)))
    done = np.zeros(k, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        done |= np.max(np.abs(a - a * np.eye(m)), axis=(1, 2)) <= JACOBI_TOL * scale
        if done.all():
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                # a NaN entry is rotated, so that it spreads instead of passing as zero
                i = np.flatnonzero(~done & ~(np.abs(a[:, p, q]) <= 1e-300))
                if not i.size:
                    continue
                sub, rot = a[i], v[i]
                apq = sub[:, p, q]
                theta = (sub[:, q, q] - sub[:, p, p]) / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.hypot(1.0, theta))
                t[theta == 0.0] = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                for x in (sub.mT, sub, rot):  # rows of a, then columns of a and v
                    _rotate(x, p, q, c[:, None], s[:, None])
                a[i], v[i] = sub, rot
    w = a.diagonal(axis1=1, axis2=2)
    order = np.argsort(w, axis=1, kind="stable")
    w, v = np.take_along_axis(w, order, axis=1), np.take_along_axis(v, order[:, None], axis=2)
    return (w[0], v[0]) if one else (w, v)


def _rotate(x: np.ndarray, p: int, q: int, c: np.ndarray, s: np.ndarray) -> None:
    """Columns p and q of each matrix of the stack x (K, m, m) times the rotation
    [[c, s], [-s, c]], in place."""
    xp, xq = x[:, :, p].copy(), x[:, :, q].copy()
    x[:, :, p] = c * xp - s * xq
    x[:, :, q] = s * xp + c * xq


def gram_schmidt_frames(g: np.ndarray) -> np.ndarray:
    """g-orthonormal frames of a stack of metrics (K, m, m), in fixed index order.

    Returns E (K, m, m) with E[k]^T g[k] E[k] = I.  Deterministic: classical
    Gram-Schmidt applied to e_0, e_1, ... in order, for every metric at once.
    The stack is made C-ordered first, so a metric's frame is the same bits
    in any stack and in any memory layout.
    """
    g = np.ascontiguousarray(require_symmetric(g, what="metric"))
    k, m = g.shape[:2]
    frames = np.zeros_like(g)
    for i in range(m):
        v = np.zeros((k, m))
        v[:, i] = 1.0
        for j in range(i):
            u = frames[:, :, j]
            v -= (u[:, None, :] @ g @ v[:, :, None])[:, 0] * u
        nrm2 = (v[:, None, :] @ g @ v[:, :, None])[:, 0]
        bad = np.flatnonzero(nrm2 <= FRAME_FLOOR)
        if bad.size:
            raise DegenerateGeometryError(
                "metric is not positive definite: degenerate along the coordinate basis"
                f" at point {int(bad[0])}"
            )
        frames[:, :, i] = v / np.sqrt(nrm2)
    return frames


def gram_schmidt_frame(g: np.ndarray) -> np.ndarray:
    """The frame of ``gram_schmidt_frames`` for one metric (m, m): columns E[:, i], E^T g E = I."""
    return gram_schmidt_frames(np.asarray(g, dtype=float)[None])[0]
