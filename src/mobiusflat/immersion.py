"""Immersed hypersurfaces given by an explicit chart evaluator.

The handle wraps a vectorized evaluator f: (K, m) -> (K, N) together with
chart bounds and an orientation seed.  Everything downstream (fundamental
forms, normals, shape data) is pure finite-difference numerics on f.  A
request that needs the second fundamental form takes positions, jacobians
and second derivatives from one jet of f (one evaluator call).

Normals are produced by the generalized cross product of the tangent
vectors (plus the position vector for immersions into the unit sphere),
which varies continuously with the chart point; the orientation seed only
fixes the one global sign, by its inner product with the raw normal at the
handle's base point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ChartDomainError, DegenerateGeometryError, InputError
from .fd import FDScheme, diff1_batch, jet_batch
from .linalg import (
    generalized_eigvals_descending,
    jacobi_eigh,
    require_symmetric,
)

EUCLIDEAN = "euclidean"
UNIT_SPHERE = "unit-sphere"

_SPHERE_TOL = 1e-12


@dataclass(frozen=True)
class MetricSample:
    """Metric components g_ij in the chart basis at one point."""

    point: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        g = require_symmetric(np.asarray(self.g, dtype=float), tol=1e-12, what="metric sample")
        w, _ = jacobi_eigh(g)
        if w[0] <= 0.0:
            raise DegenerateGeometryError(
                f"metric sample is not positive definite (min eigenvalue {w[0]:.3e})"
            )
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class ImmersionHandle:
    """Evaluatable parametric map from an m-chart into R^N."""

    chart_dimension: int
    ambient_dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    ambient_kind: str = EUCLIDEAN
    orientation_seed: np.ndarray | None = None
    base_point: np.ndarray | None = None
    domain: tuple[tuple[float, float], ...] | None = None
    name: str = ""
    analytic_fields: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.ambient_kind not in (EUCLIDEAN, UNIT_SPHERE):
            raise InputError(f"unknown ambient kind {self.ambient_kind!r}")
        if self.base_point is not None:
            object.__setattr__(self, "base_point", np.asarray(self.base_point, dtype=float))
        if self.orientation_seed is not None:
            object.__setattr__(
                self, "orientation_seed", np.asarray(self.orientation_seed, dtype=float)
            )

    def check_domain(self, pts: np.ndarray) -> None:
        if self.domain is None:
            return
        pts = np.atleast_2d(pts)
        for a, (lo, hi) in enumerate(self.domain):
            bad_lo = pts[:, a] < lo
            bad_hi = pts[:, a] > hi
            if np.any(bad_lo) or np.any(bad_hi):
                off = pts[bad_lo | bad_hi][0]
                raise ChartDomainError(
                    f"coordinate {a} of point {off.tolist()} leaves the chart "
                    f"range [{lo:.6g}, {hi:.6g}]"
                )

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.chart_dimension:
            raise InputError(
                f"expected chart dimension {self.chart_dimension}, got {pts.shape[1]}"
            )
        self.check_domain(pts)
        out = np.asarray(self.evaluator(pts), dtype=float)
        if out.shape != (pts.shape[0], self.ambient_dimension):
            raise InputError("evaluator returned a wrongly shaped array")
        if self.ambient_kind == UNIT_SPHERE:
            r = np.linalg.norm(out, axis=1)
            worst = float(np.max(np.abs(r - 1.0))) if r.size else 0.0
            if worst > _SPHERE_TOL:
                raise DegenerateGeometryError(
                    f"sphere-ambient image leaves the unit sphere by {worst:.3e}"
                )
        return out


# ---------------------------------------------------------------------------
# derivatives of the immersion


def jacobian_batch(imm: ImmersionHandle, pts: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """d f / d x_a as columns: returns (K, N, m)."""
    d = diff1_batch(imm, pts, scheme)  # (K, m, N)
    return np.swapaxes(d, 1, 2)


def jacobian(imm: ImmersionHandle, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    return jacobian_batch(imm, np.asarray(p, dtype=float)[None, :], scheme)[0]


def _gram(jac: np.ndarray) -> np.ndarray:
    gram = np.einsum("kna,knb->kab", jac, jac)
    _require_full_rank(gram)
    return gram


def first_fundamental_form_batch(
    imm: ImmersionHandle, pts: np.ndarray, scheme: FDScheme
) -> np.ndarray:
    return _gram(jacobian_batch(imm, pts, scheme))


def first_fundamental_form(imm: ImmersionHandle, p: np.ndarray, scheme: FDScheme) -> MetricSample:
    g = first_fundamental_form_batch(imm, np.asarray(p, dtype=float)[None, :], scheme)[0]
    return MetricSample(point=np.asarray(p, dtype=float), g=g)


def _require_full_rank(gram: np.ndarray, floor: float = 1e-18) -> None:
    scale = np.maximum(1.0, np.abs(gram).max(axis=(-2, -1))) ** gram.shape[-1]
    det = np.linalg.det(gram)
    if np.any(det <= floor * scale):
        raise DegenerateGeometryError("jacobian is rank deficient at a requested point")


def _cross_complement(mat: np.ndarray) -> np.ndarray:
    """Generalized cross product of the N-1 columns of mat: (..., N, N-1) -> (..., N).

    Component i is (-1)^i times the minor obtained by deleting row i, so the
    result is orthogonal to every column and varies continuously with them.
    """
    n = mat.shape[-2]
    if mat.shape[-1] != n - 1:
        raise InputError("cross complement needs exactly N-1 vectors in R^N")
    comps = []
    for i in range(n):
        minor = np.delete(mat, i, axis=-2)
        comps.append(((-1.0) ** i) * np.linalg.det(minor))
    return np.stack(comps, axis=-1)


def _raw_normal(imm: ImmersionHandle, pos: np.ndarray | None, jac: np.ndarray) -> np.ndarray:
    """Unit normal before the orientation sign, from positions (K, N) and jacobians (K, N, m).

    pos is only read for sphere-ambient immersions.
    """
    m, n = imm.chart_dimension, imm.ambient_dimension
    if imm.ambient_kind == UNIT_SPHERE:
        if m != n - 2:
            raise InputError("sphere-ambient hypersurface needs chart dimension N-2")
        mat = np.concatenate([jac, pos[:, :, None]], axis=2)
    else:
        if m != n - 1:
            raise InputError("euclidean hypersurface needs chart dimension N-1")
        mat = jac
    raw = _cross_complement(mat)
    nrm = np.linalg.norm(raw, axis=1)
    col_scale = np.prod(np.maximum(1.0, np.linalg.norm(mat, axis=1)), axis=1)
    if np.any(nrm <= 1e-12 * col_scale):
        raise DegenerateGeometryError("degenerate tangent space: normal direction undefined")
    return raw / nrm[:, None]


def _raw_normal_batch(imm: ImmersionHandle, pts: np.ndarray, scheme: FDScheme) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    jac = jacobian_batch(imm, pts, scheme)  # (K, N, m)
    pos = imm(pts) if imm.ambient_kind == UNIT_SPHERE else None
    return _raw_normal(imm, pos, jac)


def orientation_sign(imm: ImmersionHandle, scheme: FDScheme) -> float:
    """+1 or -1: the sign that points the normal at the base point along the seed."""
    if imm.orientation_seed is None or imm.base_point is None:
        return 1.0
    raw0 = _raw_normal_batch(imm, imm.base_point[None, :], scheme)[0]
    dot = float(raw0 @ imm.orientation_seed)
    if dot == 0.0:
        raise DegenerateGeometryError("orientation seed is orthogonal to the normal at base point")
    return 1.0 if dot > 0.0 else -1.0


def unit_normal_batch(imm: ImmersionHandle, pts: np.ndarray, scheme: FDScheme) -> np.ndarray:
    return orientation_sign(imm, scheme) * _raw_normal_batch(imm, pts, scheme)


def unit_normal(imm: ImmersionHandle, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    return unit_normal_batch(imm, np.asarray(p, dtype=float)[None, :], scheme)[0]


def fundamental_forms_batch(
    imm: ImmersionHandle, pts: np.ndarray, scheme: FDScheme, sign: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(I, II) at each point from one jet of the immersion: (K, m, m) each.

    h_ab = <d^2 f / dx_a dx_b, normal>, with the normal built from the
    jet's jacobian (and its centre values for sphere-ambient immersions).
    sign is the handle's orientation sign, resolved here when not given.
    """
    pos, d1, hess = jet_batch(imm, pts, scheme)  # hess: (K, m, m, N)
    jac = np.swapaxes(d1, 1, 2)
    gram = _gram(jac)
    if sign is None:
        sign = orientation_sign(imm, scheme)
    nrm = sign * _raw_normal(imm, pos, jac)  # (K, N)
    return gram, np.einsum("kabn,kn->kab", hess, nrm)


def second_fundamental_form_batch(
    imm: ImmersionHandle, pts: np.ndarray, scheme: FDScheme
) -> np.ndarray:
    """h_ab = <d^2 f / dx_a dx_b, normal>: returns (K, m, m).

    For sphere-ambient immersions this is the shape tensor within the unit
    sphere: the ambient-sphere correction to the second derivative is along
    the position vector, which the normal is orthogonal to.
    """
    return fundamental_forms_batch(imm, pts, scheme)[1]


def second_fundamental_form(imm: ImmersionHandle, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    return second_fundamental_form_batch(imm, np.asarray(p, dtype=float)[None, :], scheme)[0]


def principal_curvatures(first: MetricSample | np.ndarray, second: np.ndarray) -> np.ndarray:
    """Eigenvalues of the shape operator, descending.

    Solves II v = lam I v on the Jacobi-symmetrized pencil
    I^{-1/2} II I^{-1/2}.
    """
    g = first.g if isinstance(first, MetricSample) else np.asarray(first, dtype=float)
    return generalized_eigvals_descending(np.asarray(second, dtype=float), g)

