"""Small-matrix linear algebra: cyclic Jacobi eigensolver and metric frames.

Everything here targets symmetric matrices of size <= 8, where robustness
and determinism matter more than speed.  The Jacobi sweep order is fixed
(row-major over the strict upper triangle), so results are reproducible
bit-for-bit across runs.  ``require_symmetric`` and ``gram_schmidt_frames``
also take a stack (K, m, m) of matrices and name the first failing one.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, InputError


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


def jacobi_eigh(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues ascending and v[:, i] the eigenvector
    for w[i], matching the numpy.linalg.eigh layout.  Convergence is
    declared when every off-diagonal entry is below tol * scale.
    """
    a = require_symmetric(a, what="eigensolver input")
    m = a.shape[0]
    v = np.eye(m)
    if m == 1:
        return a.diagonal().copy(), v
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = np.max(np.abs(a - np.diag(a.diagonal())))
        if off <= tol * scale:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # classic two-sided rotation, Golub-Van Loan sec. 8.4
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(m)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def sym_inv_sqrt(a: np.ndarray, floor: float = 1e-14) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    w, v = jacobi_eigh(a)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(w) <= floor * scale:
        raise DegenerateGeometryError(
            f"matrix is not positive definite (min eigenvalue {np.min(w):.3e})"
        )
    return (v / np.sqrt(w)) @ v.T


def generalized_eigvals_descending(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric pencil b x = lam a x, a positive definite.

    Solved on the symmetrized form a^{-1/2} b a^{-1/2}; descending order.
    """
    b = require_symmetric(b, what="pencil numerator")
    a = require_symmetric(a, what="pencil denominator")
    r = sym_inv_sqrt(a)
    w, _ = jacobi_eigh(r @ b @ r)
    return w[::-1].copy()


def gram_schmidt_frames(g: np.ndarray, floor: float = 1e-14) -> np.ndarray:
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
        bad = np.flatnonzero(nrm2 <= floor)
        if bad.size:
            raise DegenerateGeometryError(
                f"metric is degenerate along the coordinate basis at point {int(bad[0])}"
            )
        frames[:, :, i] = v / np.sqrt(nrm2)
    return frames


def gram_schmidt_frame(g: np.ndarray, floor: float = 1e-14) -> np.ndarray:
    """The frame of ``gram_schmidt_frames`` for one metric (m, m): columns E[:, i], E^T g E = I."""
    return gram_schmidt_frames(np.asarray(g, dtype=float)[None], floor)[0]
