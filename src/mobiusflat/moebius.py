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

A field set is one request, ``sample``, for (I, h, rho, H) at a point set.
Every invariant at p is one such request, on the order-4 jet stencil about p
(the step its caller gives), of one field that packs I, h, rho^2 I,
rho (h - H I), rho, log rho and H side by side; the pointwise record is the
stencil's centre.  On fields from an immersion each request is one jet of
the immersion per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curvature import (
    christoffel_symbols,
    conformal_scalar_from_jet,
    covariant_derivative,
    curvature_from_jet,
)
from .errors import UmbilicPointError
from .fd import jet
from .immersion import (
    UNIT_SPHERE,
    ImmersionHandle,
    fundamental_forms_batch,
    orientation_sign,
    principal_curvatures,
)
from .linalg import gram_schmidt_frame, jacobi_eigh, require_symmetric

UMBILIC_THRESHOLD = 1e-18


# ---------------------------------------------------------------------------
# pointwise kernels


def _density(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, H) per point from batches of the fundamental forms."""
    n = g.shape[-1]
    shape_op = np.linalg.solve(g, h)
    mean = np.einsum("kii->k", shape_op) / n
    norm2 = np.einsum("kij,kji->k", shape_op, shape_op)
    rho2 = n / (n - 1) * (norm2 - n * mean**2)
    if np.any(rho2 <= UMBILIC_THRESHOLD):
        worst = float(np.min(rho2))
        raise UmbilicPointError(f"rho^2 = {worst:.3e}: umbilic point, invariants undefined")
    return np.sqrt(rho2), mean


def moebius_density(first: np.ndarray, second: np.ndarray) -> tuple[float, float]:
    """(rho, H) from the fundamental forms (m, m) at one point.

    H is the trace of the shape operator over n; rho is the positive root
    of the density formula.  Raises UmbilicPointError when rho^2 falls at
    or below 1e-18.
    """
    g = np.asarray(first, dtype=float)
    h = require_symmetric(np.asarray(second, dtype=float), what="shape tensor")
    rho, mean = _density(g[None], h[None])
    return float(rho[0]), float(mean[0])


class _Pointwise(NamedTuple):
    """I, h, rho and H at one point, with the I-orthonormal frame and h in it."""

    g: np.ndarray
    h: np.ndarray
    rho: float
    mean: float
    frame: np.ndarray
    h_frame: np.ndarray

    @classmethod
    def build(cls, g: np.ndarray, h: np.ndarray, rho: float, mean: float) -> "_Pointwise":
        frame = gram_schmidt_frame(g)
        return cls(g, h, rho, mean, frame, frame.T @ h @ frame)

    @classmethod
    def at_centre(cls, jets: "_Jets") -> "_Pointwise":
        """The record at p from the values of one request's jets."""
        g = require_symmetric(jets.g.value, tol=1e-8, what="first fundamental form")
        h = require_symmetric(jets.h.value, tol=1e-6, what="second fundamental form")
        return cls.build(g, h, float(jets.rho.value), float(jets.mean.value))

    @property
    def B(self) -> np.ndarray:
        return (self.h_frame - self.mean * np.eye(self.g.shape[0])) / self.rho


def moebius_B(first: np.ndarray, second: np.ndarray, rho: float, mean: float) -> np.ndarray:
    """Trace-free tensor B in the g-orthonormal frame.

    As a tensor B = rho (II - H I); dividing its I-orthonormal components
    by rho^2 re-expresses them in the g-frame, where tr B = 0 and
    |B|^2 = (n-1)/n hold identically.  An I that is not positive definite
    raises DegenerateGeometryError.
    """
    g = np.asarray(first, dtype=float)
    return _Pointwise.build(g, np.asarray(second, dtype=float), rho, mean).B


# ---------------------------------------------------------------------------
# field bundle


@dataclass(frozen=True)
class SurfaceFields:
    """Vectorized per-point data of one hypersurface.

    sample(pts) -> (I, h, rho, H): the first fundamental form I and second
    fundamental form h, each (K, m, m), and rho and H, each (K,), from one
    request.  ambient_curvature is 0 for Euclidean ambient, 1 for the unit
    sphere.
    """

    dim: int
    sample: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    ambient_curvature: float


def fields_from_immersion(imm: ImmersionHandle) -> SurfaceFields:
    """Fields of any immersion handle: each request takes I and II from one
    jet of the immersion.  The orientation sign is resolved once, here."""
    sign = orientation_sign(imm)

    def sample(pts):
        g, h = fundamental_forms_batch(imm, np.atleast_2d(pts), sign)
        return (g, h) + _density(g, h)

    return SurfaceFields(
        dim=imm.chart_dimension,
        sample=sample,
        ambient_curvature=1.0 if imm.ambient_kind == UNIT_SPHERE else 0.0,
    )


# ---------------------------------------------------------------------------
# one request per point


class _Jet(NamedTuple):
    """Value, first partials (m, ...) and second partials (m, m, ...) at p."""

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


class _Jets(NamedTuple):
    """The jet at p of every quantity a Moebius invariant reads."""

    g: _Jet  # I
    h: _Jet
    moebius: _Jet  # rho^2 I
    b: _Jet  # the coordinate tensor B = rho (h - H I)
    rho: _Jet
    log_rho: _Jet
    mean: _Jet  # H


def _jets(fields: SurfaceFields, p: np.ndarray, step: float) -> _Jets:
    """The jets of ``_Jets`` at p from one stencil request: the quantities are
    packed side by side into one field, and split back per quantity."""
    m = p.size
    shapes = [(m, m)] * 4 + [()] * 3
    ends = np.cumsum([0] + [m * m] * 4 + [1] * 3)

    def field(pts: np.ndarray) -> np.ndarray:
        g, h, rho, mean = fields.sample(np.atleast_2d(pts))
        r = rho[:, None, None]
        parts = (g, h, r**2 * g, r * (h - mean[:, None, None] * g), rho, np.log(rho), mean)
        return np.concatenate([q.reshape(q.shape[0], -1) for q in parts], axis=1)

    levels = jet(field, p, step)
    quantities = (
        _Jet(*(x[..., a:b].reshape(x.shape[:-1] + shape).copy() for x in levels))
        for a, b, shape in zip(ends, ends[1:], shapes)
    )
    return _Jets(*quantities)


# ---------------------------------------------------------------------------
# derivative-level invariants


def _form(pt: _Pointwise, jets: _Jets) -> np.ndarray:
    """C in the g-frame from the pointwise record and the partials of log rho and H."""
    e_mean = pt.frame.T @ jets.mean.d1
    e_logrho = pt.frame.T @ jets.log_rho.d1
    n = pt.g.shape[0]
    c_theta = -(e_mean + (pt.h_frame - pt.mean * np.eye(n)) @ e_logrho) / pt.rho
    return c_theta / pt.rho


def _blaschke(pt: _Pointwise, jets: _Jets, ambient_curvature: float) -> np.ndarray:
    """A in the g-frame from the pointwise record, the partials of log rho and dI."""
    d_logrho, dd_logrho = jets.log_rho.d1, jets.log_rho.d2
    ginv = np.linalg.inv(pt.g)
    hess = dd_logrho - np.einsum("kij,k->ij", christoffel_symbols(ginv, jets.g.d1), d_logrho)
    e_logrho = pt.frame.T @ d_logrho
    hess_frame = pt.frame.T @ hess @ pt.frame
    grad2 = float(d_logrho @ ginv @ d_logrho)
    iso = 0.5 * (ambient_curvature - pt.mean**2 - grad2)
    n = pt.g.shape[0]
    a_theta = (
        np.outer(e_logrho, e_logrho) - hess_frame + pt.mean * pt.h_frame + iso * np.eye(n)
    )
    return a_theta / pt.rho**2


def _direct(jets: _Jets) -> float:
    """Full-trace scalar curvature of the metric rho^2 I from its jet."""
    return float(curvature_from_jet(*jets.moebius).scalar)


def moebius_form(fields: SurfaceFields, p: np.ndarray, step: float) -> np.ndarray:
    """Moebius 1-form components C_i in the g-orthonormal frame.

    C_i = -rho^{-1} [ e_i(H) + sum_j (h_ij - H delta_ij) e_j(log rho) ]
    in an I-orthonormal frame e, then rescaled by 1/rho into the g-frame.
    The sum against e_j(log rho) completes the gradient coupling so that
    the expression is a well-formed 1-form; the divergence identity
    sum_j B_ij,j = -(n-1) C_i is exposed separately as a numerical check.
    The request is that of ``blaschke_A`` and ``moebius_data``, so all three
    agree bit for bit on C's inputs.
    """
    jets = _jets(fields, np.asarray(p, dtype=float), step)
    return _form(_Pointwise.at_centre(jets), jets)


def blaschke_A(fields: SurfaceFields, p: np.ndarray, step: float) -> np.ndarray:
    """Blaschke tensor components in the g-orthonormal frame.

    A_ij = e_i(log rho) e_j(log rho) - Hess_ij(log rho) + H h_ij
           + 1/2 (c - H^2 - |grad log rho|^2) delta_ij,

    in an I-orthonormal frame (Hessian of the induced metric's connection),
    divided by rho^2.  c is the ambient curvature constant of the fields.
    """
    jets = _jets(fields, np.asarray(p, dtype=float), step)
    return _blaschke(_Pointwise.at_centre(jets), jets, fields.ambient_curvature)


def moebius_form_divergence_residual(fields: SurfaceFields, p: np.ndarray, step: float) -> float:
    """Residual of the divergence identity sum_j B_ij,j = -(n-1) C_i.

    Both sides live in the g-orthonormal frame; the covariant divergence of
    the coordinate tensor B = rho (II - H I) is taken with the Moebius
    metric's connection.  This is the independent cross-check for the
    completed gradient coupling in the C formula.
    """
    jets = _jets(fields, np.asarray(p, dtype=float), step)
    g = jets.moebius.value
    ginv = np.linalg.inv(g)
    gamma = christoffel_symbols(ginv, jets.moebius.d1)
    nabla = covariant_derivative(jets.b.value, jets.b.d1, gamma)
    div = np.einsum("bc,abc->a", ginv, nabla)
    frame = gram_schmidt_frame(g)
    div_frame = frame.T @ div  # frame components of the 1-form g^{bc} B_ab;c
    c_frame = _form(_Pointwise.at_centre(jets), jets)
    return float(np.max(np.abs(div_frame + (g.shape[0] - 1) * c_frame)))


def direct_scalar(fields: SurfaceFields, p: np.ndarray, step: float) -> float:
    """Full-trace scalar curvature of the Moebius metric rho^2 I at p: the
    direct route of ``moebius_scalar`` alone, from the same one request."""
    return _direct(_jets(fields, np.asarray(p, dtype=float), step))


class MoebiusScalarResult(NamedTuple):
    direct: float
    conformal_route: float

    def spread(self) -> float:
        return abs(self.direct - self.conformal_route)


def moebius_scalar(fields: SurfaceFields, p: np.ndarray, step: float) -> MoebiusScalarResult:
    """Full-trace scalar curvature of the Moebius metric by two independent routes.

    direct: curvature of the metric field rho^2 I (``direct_scalar``);
    conformal_route: the conformal-change formula applied to the induced
    metric with u = log rho.  Their agreement is the two-route consistency
    check.  The routes share only the evaluation of their inputs: one
    stencil request of the fields, with the given step.
    """
    jets = _jets(fields, np.asarray(p, dtype=float), step)
    via = conformal_scalar_from_jet(curvature_from_jet(*jets.g), *jets.log_rho)
    return MoebiusScalarResult(direct=_direct(jets), conformal_route=via)


# ---------------------------------------------------------------------------
# assembled per-sample record


@dataclass(frozen=True)
class MoebiusData:
    """Per-sample record of the Moebius invariants (g-orthonormal frame)."""

    point: np.ndarray
    rho: float
    H: float
    g_moebius: np.ndarray  # rho^2 I in the chart basis
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


def moebius_data(fields: SurfaceFields, p: np.ndarray, step: float) -> MoebiusData:
    """All invariants at p from one stencil request; the pointwise ones from its centre."""
    p = np.asarray(p, dtype=float)
    jets = _jets(fields, p, step)
    pt = _Pointwise.at_centre(jets)
    b = pt.B
    a = _blaschke(pt, jets, fields.ambient_curvature)
    wb, _ = jacobi_eigh(b)
    wa, _ = jacobi_eigh(a)
    return MoebiusData(
        point=p,
        rho=pt.rho,
        H=pt.mean,
        g_moebius=pt.rho**2 * pt.g,
        B=b,
        A=a,
        C=_form(pt, jets),
        principal_curvatures=principal_curvatures(pt.g, pt.h),
        B_eigenvalues=wb[::-1].copy(),
        A_eigenvalues=wa[::-1].copy(),
    )
