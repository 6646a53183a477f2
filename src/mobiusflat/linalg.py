"""Small-matrix linear algebra: cyclic Jacobi eigensolver and metric frames.

Everything here targets symmetric matrices of size <= 8, where robustness
and determinism matter more than speed.  The Jacobi sweep order is fixed
(row-major over the strict upper triangle), so results are reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateGeometryError, InputError


def symmetry_defect(a: np.ndarray) -> float:
    """Largest absolute entry of a - a^T."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def require_symmetric(a: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if symmetry_defect(a) > tol * scale:
        raise InputError(f"{what} is not symmetric within tolerance {tol}")
    return 0.5 * (a + a.T)


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


def gram_schmidt_frame(g: np.ndarray, floor: float = 1e-14) -> np.ndarray:
    """g-orthonormal frame from the coordinate basis, in fixed index order.

    Returns E with columns E[:, i] such that E^T g E = I.  Deterministic:
    classical Gram-Schmidt applied to e_0, e_1, ... in order.
    """
    g = require_symmetric(g, what="metric")
    m = g.shape[0]
    e = np.eye(m)
    cols = []
    for i in range(m):
        v = e[:, i].copy()
        for u in cols:
            v -= (u @ g @ v) * u
        nrm2 = v @ g @ v
        if nrm2 <= floor:
            raise DegenerateGeometryError("metric is degenerate along the coordinate basis")
        cols.append(v / np.sqrt(nrm2))
    return np.stack(cols, axis=1)
