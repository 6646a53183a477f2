"""Moebius (conformal sphere geometry) invariants of an umbilic-free hypersurface.

From the first fundamental form I, shape tensor h and mean curvature H of an
immersion, the conformal density

    rho^2 = n/(n-1) (|h|^2 - n H^2) > 0        (umbilic-free hypothesis)

defines the Moebius metric g = rho^2 I, which is invariant under the
conformal group of the ambient sphere.  All tensor components below are
reported in the deterministic g-orthonormal frame, where the classical
trace identities hold:

    tr B = 0,       |B|^2 = (n-1)/n,
    tr A = 1/(2n) + R/(2(n-1))   with R the Moebius scalar curvature
                                  (normalization audited, not assumed).

B is the trace-free rescaled shape tensor, A (Blaschke tensor) combines the
Hessian of log rho with the shape operator, and the 1-form C measures the
failure of (H, rho) to be parallel.  The A and C formulas acquire an
ambient-curvature constant (0 for immersions into Euclidean space, +1 for
immersions into the unit sphere); the constant enters A's isotropic term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curvature import (
    Convention,
    christoffel_symbols,
    conformal_scalar,
    convert_scalar,
    covariant_derivative,
    metric_field_curvature,
)
from .errors import UmbilicPointError
from .fd import FDScheme, diff1, jet
from .immersion import (
    UNIT_SPHERE,
    ImmersionHandle,
    MetricSample,
    first_fundamental_form_batch,
    fundamental_forms_batch,
    orientation_sign,
    principal_curvatures,
)
from .linalg import gram_schmidt_frame, jacobi_eigh, require_symmetric

UMBILIC_THRESHOLD = 1e-18


# ---------------------------------------------------------------------------
# pointwise kernels


def moebius_density(first: MetricSample | np.ndarray, second: np.ndarray) -> tuple[float, float]:
    """(rho, H) from one sample of the fundamental forms.

    H is the trace of the shape operator over n; rho is the positive root
    of the density formula.  Raises UmbilicPointError when rho^2 falls at
    or below 1e-18.
    """
    g = first.g if isinstance(first, MetricSample) else np.asarray(first, dtype=float)
    h = require_symmetric(np.asarray(second, dtype=float), what="shape tensor")
    n = g.shape[0]
    shape_op = np.linalg.solve(g, h)
    mean = float(np.trace(shape_op)) / n
    norm2 = float(np.trace(shape_op @ shape_op))
    rho2 = n / (n - 1) * (norm2 - n * mean**2)
    if rho2 <= UMBILIC_THRESHOLD:
        raise UmbilicPointError(f"rho^2 = {rho2:.3e}: umbilic point, invariants undefined")
    return float(np.sqrt(rho2)), mean


def moebius_metric(first: MetricSample, rho: float) -> MetricSample:
    """g = rho^2 I, componentwise in the chart basis."""
    return MetricSample(point=first.point, g=rho**2 * first.g)


def moebius_B(
    first: MetricSample | np.ndarray, second: np.ndarray, rho: float, mean: float
) -> np.ndarray:
    """Trace-free tensor B in the g-orthonormal frame.

    As a tensor B = rho (II - H I); dividing its I-orthonormal components
    by rho^2 re-expresses them in the g-frame, where tr B = 0 and
    |B|^2 = (n-1)/n hold identically.
    """
    g = first.g if isinstance(first, MetricSample) else np.asarray(first, dtype=float)
    h = np.asarray(second, dtype=float)
    frame = gram_schmidt_frame(g)
    h_frame = frame.T @ h @ frame
    return (h_frame - mean * np.eye(g.shape[0])) / rho


# ---------------------------------------------------------------------------
# field bundle


@dataclass(frozen=True)
class SurfaceFields:
    """Vectorized per-point data of one hypersurface.

    metric(pts) -> (K, m, m) first fundamental form, shape(pts) -> (K, m, m)
    second fundamental form, rho(pts) -> (K,), mean(pts) -> (K,).
    ambient_curvature is 0 for Euclidean ambient, 1 for the unit sphere.
    g_moebius(pts) -> (K, m, m), when given, is the Moebius metric rho^2 I
    computed in one pass; otherwise it is composed from rho and metric.
    """

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    shape: Callable[[np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    ambient_curvature: float = 0.0
    source: str = "fd"
    g_moebius: Callable[[np.ndarray], np.ndarray] | None = None

    def log_rho(self, pts: np.ndarray) -> np.ndarray:
        return np.log(self.rho(np.atleast_2d(pts)))

    def moebius_metric_field(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.g_moebius is not None:
            return self.g_moebius

        def field(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(pts)
            return self.rho(pts)[:, None, None] ** 2 * self.metric(pts)

        return field


def _density(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, H) per point from batches of the fundamental forms."""
    n = g.shape[-1]
    shape_op = np.linalg.solve(g, h)
    mean = np.einsum("kii->k", shape_op) / n
    norm2 = np.einsum("kij,kji->k", shape_op, shape_op)
    rho2 = n / (n - 1) * (norm2 - n * mean**2)
    if np.any(rho2 <= UMBILIC_THRESHOLD):
        worst = float(np.min(rho2))
        raise UmbilicPointError(f"rho^2 = {worst:.3e}: umbilic point in requested batch")
    return np.sqrt(rho2), mean


def fields_from_immersion(imm: ImmersionHandle, scheme: FDScheme) -> SurfaceFields:
    """Finite-difference backed fields for any immersion handle.

    The metric alone takes the first-difference stencil; every other
    request takes I and II from one jet of the immersion, that is one
    evaluator call.  The orientation sign is resolved once, here.
    """
    sign = orientation_sign(imm, scheme)

    def metric(pts):
        return first_fundamental_form_batch(imm, np.atleast_2d(pts), scheme)

    def forms(pts):
        return fundamental_forms_batch(imm, np.atleast_2d(pts), scheme, sign)

    def g_moebius(pts):
        g, h = forms(pts)
        return _density(g, h)[0][:, None, None] ** 2 * g

    return SurfaceFields(
        dim=imm.chart_dimension,
        metric=metric,
        shape=lambda pts: forms(pts)[1],
        rho=lambda pts: _density(*forms(pts))[0],
        mean=lambda pts: _density(*forms(pts))[1],
        ambient_curvature=1.0 if imm.ambient_kind == UNIT_SPHERE else 0.0,
        source="fd",
        g_moebius=g_moebius,
    )


def get_fields(imm: ImmersionHandle, scheme: FDScheme, analytic: bool = True) -> SurfaceFields:
    """The handle's closed-form fields when present and requested, else FD."""
    if analytic and imm.analytic_fields is not None:
        return imm.analytic_fields
    return fields_from_immersion(imm, scheme)


# ---------------------------------------------------------------------------
# derivative-level invariants


def moebius_form(fields: SurfaceFields, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Moebius 1-form components C_i in the g-orthonormal frame.

    C_i = -rho^{-1} [ e_i(H) + sum_j (h_ij - H delta_ij) e_j(log rho) ]
    in an I-orthonormal frame e, then rescaled by 1/rho into the g-frame.
    The sum against e_j(log rho) completes the gradient coupling so that
    the expression is a well-formed 1-form; the divergence identity
    sum_j B_ij,j = -(n-1) C_i is exposed separately as a numerical check.
    """
    p = np.asarray(p, dtype=float)
    g = _metric_at(fields, p)
    h = _shape_at(fields, p)
    rho = float(fields.rho(p[None, :])[0])
    mean = float(fields.mean(p[None, :])[0])
    frame = gram_schmidt_frame(g)
    h_frame = frame.T @ h @ frame
    d_mean = diff1(fields.mean, p, scheme)
    d_logrho = diff1(fields.log_rho, p, scheme)
    e_mean = frame.T @ d_mean
    e_logrho = frame.T @ d_logrho
    n = g.shape[0]
    c_theta = -(e_mean + (h_frame - mean * np.eye(n)) @ e_logrho) / rho
    return c_theta / rho


def blaschke_A(fields: SurfaceFields, p: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Blaschke tensor components in the g-orthonormal frame.

    A_ij = e_i(log rho) e_j(log rho) - Hess_ij(log rho) + H h_ij
           + 1/2 (c - H^2 - |grad log rho|^2) delta_ij,

    in an I-orthonormal frame (Hessian of the induced metric's connection),
    divided by rho^2.  c is the ambient curvature constant of the fields.
    """
    p = np.asarray(p, dtype=float)
    g = _metric_at(fields, p)
    h = _shape_at(fields, p)
    rho = float(fields.rho(p[None, :])[0])
    mean = float(fields.mean(p[None, :])[0])
    n = g.shape[0]
    frame = gram_schmidt_frame(g)
    h_frame = frame.T @ h @ frame

    _, d_logrho, dd_logrho = jet(fields.log_rho, p, scheme)
    dg = diff1(fields.metric, p, scheme)
    ginv = np.linalg.inv(g)
    bracket = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, bracket)
    hess = dd_logrho - np.einsum("kij,k->ij", gamma, d_logrho)

    e_logrho = frame.T @ d_logrho
    hess_frame = frame.T @ hess @ frame
    grad2 = float(d_logrho @ ginv @ d_logrho)
    iso = 0.5 * (fields.ambient_curvature - mean**2 - grad2)
    a_theta = (
        np.outer(e_logrho, e_logrho) - hess_frame + mean * h_frame + iso * np.eye(n)
    )
    return a_theta / rho**2


def moebius_form_divergence_residual(
    fields: SurfaceFields, p: np.ndarray, scheme: FDScheme
) -> float:
    """Residual of the divergence identity sum_j B_ij,j = -(n-1) C_i.

    Both sides live in the g-orthonormal frame; the covariant divergence of
    the coordinate tensor B = rho (II - H I) is taken with the Moebius
    metric's connection.  This is the independent cross-check for the
    completed gradient coupling in the C formula.
    """
    p = np.asarray(p, dtype=float)
    g_field = fields.moebius_metric_field()

    def b_field(pts):
        pts = np.atleast_2d(pts)
        gmat = fields.metric(pts)
        h = fields.shape(pts)
        rho = fields.rho(pts)
        mean = fields.mean(pts)
        return rho[:, None, None] * (h - mean[:, None, None] * gmat)

    g, gamma = christoffel_symbols(g_field, p, scheme)
    b0 = b_field(p[None, :])[0]
    nabla = covariant_derivative(b0, diff1(b_field, p, scheme), gamma)
    ginv = np.linalg.inv(g)
    div = np.einsum("bc,abc->a", ginv, nabla)
    frame = gram_schmidt_frame(g)
    div_frame = frame.T @ div  # frame components of the 1-form g^{bc} B_ab;c
    c_frame = moebius_form(fields, p, scheme)
    n = g.shape[0]
    return float(np.max(np.abs(div_frame + (n - 1) * c_frame)))


class MoebiusScalarResult(NamedTuple):
    direct: float
    conformal_route: float

    def spread(self) -> float:
        return abs(self.direct - self.conformal_route)


def moebius_scalar(
    fields: SurfaceFields,
    p: np.ndarray,
    scheme: FDScheme,
    convention: Convention = Convention.FULL_TRACE,
    curvature_scheme: FDScheme | None = None,
) -> MoebiusScalarResult:
    """Scalar curvature of the Moebius metric by two independent routes.

    direct: curvature of the metric field rho^2 I; conformal_route: the
    conformal-change formula applied to the induced metric with
    u = log rho.  Their agreement is the two-route consistency check.
    """
    p = np.asarray(p, dtype=float)
    if curvature_scheme is None:
        curvature_scheme = FDScheme(step=0.02, order=4, scaled=False)
    direct = metric_field_curvature(
        fields.moebius_metric_field(), p, curvature_scheme, convention
    ).scalar
    base = metric_field_curvature(fields.metric, p, curvature_scheme, Convention.FULL_TRACE)
    via = conformal_scalar(base, fields.log_rho, p, curvature_scheme)
    via = convert_scalar(via, Convention.FULL_TRACE, convention, fields.dim)
    return MoebiusScalarResult(direct=float(direct), conformal_route=float(via))


# ---------------------------------------------------------------------------
# assembled per-sample record


@dataclass(frozen=True)
class MoebiusData:
    """Per-sample record of the Moebius invariants (g-orthonormal frame)."""

    point: np.ndarray
    rho: float
    H: float
    g_moebius: MetricSample
    B: np.ndarray
    A: np.ndarray
    C: np.ndarray
    principal_curvatures: np.ndarray
    B_eigenvalues: np.ndarray
    A_eigenvalues: np.ndarray

    def trace_B(self) -> float:
        return float(np.trace(self.B))

    def norm2_B(self) -> float:
        return float(np.sum(self.B * self.B))

    def commutator_norm(self) -> float:
        c = self.B @ self.A - self.A @ self.B
        return float(np.max(np.abs(c)))


def _metric_at(fields: SurfaceFields, p: np.ndarray) -> np.ndarray:
    return require_symmetric(
        np.asarray(fields.metric(p[None, :]))[0], tol=1e-8, what="first fundamental form"
    )


def _shape_at(fields: SurfaceFields, p: np.ndarray) -> np.ndarray:
    return require_symmetric(
        np.asarray(fields.shape(p[None, :]))[0], tol=1e-6, what="second fundamental form"
    )


def moebius_data(fields: SurfaceFields, p: np.ndarray, scheme: FDScheme) -> MoebiusData:
    p = np.asarray(p, dtype=float)
    g = _metric_at(fields, p)
    h = _shape_at(fields, p)
    sample = MetricSample(point=p, g=g)
    rho, mean = moebius_density(sample, h)
    b = moebius_B(sample, h, rho, mean)
    a = blaschke_A(fields, p, scheme)
    c = moebius_form(fields, p, scheme)
    wb, _ = jacobi_eigh(b)
    wa, _ = jacobi_eigh(a)
    return MoebiusData(
        point=p,
        rho=rho,
        H=mean,
        g_moebius=moebius_metric(sample, rho),
        B=b,
        A=a,
        C=c,
        principal_curvatures=principal_curvatures(sample, h),
        B_eigenvalues=wb[::-1].copy(),
        A_eigenvalues=wa[::-1].copy(),
    )
