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

A field set answers one request, ``jets(pts, order=2)``: the exact jets,
as ``jets.Jet``s over the point set's K points, of I, h, rho^2 I,
rho (h - H I), rho, log rho and H, which every invariant reads.  Order 0
gives their values, and is the same bits as level 0 of the order-2
request.  Both routes pack the jets of (I, h, rho, H) the same way
(``moebius_jets``, in the truncated Taylor arithmetic of ``jets``):

* fields from an immersion (``fields_from_immersion``) take I and h from
  one jet of the immersion at the point set, of the request's order plus
  two, and rho and H from them (``_jets_from_forms``, the one formula of
  rho and H, which ``moebius_density`` applies at one point);
* the generators' closed forms (``zoo``) give all four as exact products of
  one-variable factors.

No request takes a step, and fields without ``jets`` are refused.  B, C, A
and the divergence residual are each one expression over the K points:
one ``gram_schmidt_frames`` of the stack of I gives the I-orthonormal
frames (the g-frames are these over rho), and the components are stacked
matrix products in them.  The spectra are stacked ``jacobi_eigh`` solves:
one of h in the I-frame gives the principal curvatures lambda and B's
eigenvalues (lambda - H) / rho, one of A gives A's.  ``direct_scalar``,
``moebius_scalars``, ``moebius_data_batch`` and
``moebius_form_divergence_residuals`` take a point set (``_data_and_scalars``
gives the records and the scalars from one request); the one-point
functions (``moebius_data``, ``moebius_scalar``, ``moebius_form``,
``blaschke_A``, ``moebius_form_divergence_residual``) are the point-set
requests at one point, and a request at K points equals K one-point
requests bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curvature import (
    christoffel_symbols,
    conformal_scalar_from_jet,
    covariant_derivative,
    curvature_batch,
)
from .errors import InputError, UmbilicPointError
from .immersion import UNIT_SPHERE, ImmersionHandle, fundamental_form_jets, orientation_sign
from .jets import Jet, compose, contract, inverse, log_derivatives, power_derivatives
from .linalg import gram_schmidt_frames, jacobi_eigh, require_symmetric

UMBILIC_THRESHOLD = 1e-18


# ---------------------------------------------------------------------------
# value-level kernels


def _umbilic_free(rho2: np.ndarray) -> np.ndarray:
    if np.any(rho2 <= UMBILIC_THRESHOLD):
        worst = float(np.min(rho2))
        raise UmbilicPointError(f"rho^2 = {worst:.3e}: umbilic point, invariants undefined")
    return rho2


def moebius_density(first: np.ndarray, second: np.ndarray) -> tuple[float, float]:
    """(rho, H) from the fundamental forms (m, m) at one point.

    H is the trace of the shape operator over n; rho is the positive root
    of the density formula: the order-0 request of the forms at one point
    (``_jets_from_forms``).  Raises UmbilicPointError when rho^2 falls at
    or below 1e-18, and DegenerateGeometryError when I is not positive
    definite, by the test of ``gram_schmidt_frames`` that ``moebius_B`` and
    ``principal_curvatures`` apply.
    """
    g = np.asarray(first, dtype=float)
    h = require_symmetric(np.asarray(second, dtype=float), what="shape tensor")
    gram_schmidt_frames(g[None])
    first = Jet([g[None]])
    request = _jets_from_forms(first, Jet([h[None]]), inverse(first))
    return float(request.rho.value[0]), float(request.mean.value[0])


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a[k] @ v[k] for a stack of matrices (K, m, m) and vectors (K, m)."""
    return (a @ v[..., None])[..., 0]


def _trace_free(h_frame: np.ndarray, rho: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """B = (h - H I) / rho in the g-frame, from h in the I-frame, (K, m, m)."""
    return (h_frame - mean[:, None, None] * np.eye(h_frame.shape[-1])) / rho[:, None, None]


def moebius_B(first: np.ndarray, second: np.ndarray, rho, mean) -> np.ndarray:
    """Trace-free tensor B in the g-orthonormal frame.

    As a tensor B = rho (II - H I); dividing its I-orthonormal components
    by rho^2 re-expresses them in the g-frame, where tr B = 0 and
    |B|^2 = (n-1)/n hold identically.  The forms are one point (m, m) with
    rho and H floats, or a stack (K, m, m) with rho and H (K,).  An I that
    is not positive definite raises DegenerateGeometryError.
    """
    g, h, rho, mean = (np.asarray(x, dtype=float) for x in (first, second, rho, mean))
    if g.ndim == 2:
        return moebius_B(g[None], h[None], rho[None], mean[None])[0]
    frame = gram_schmidt_frames(g)
    return _trace_free(frame.mT @ h @ frame, rho, mean)


# ---------------------------------------------------------------------------
# field bundle


class _Jets(NamedTuple):
    """The jets (``jets.Jet``) of every quantity a Moebius invariant reads, at a point set."""

    g: Jet  # I
    h: Jet
    moebius: Jet  # rho^2 I
    b: Jet  # the coordinate tensor B = rho (h - H I)
    rho: Jet
    log_rho: Jet
    mean: Jet  # H


@dataclass(frozen=True)
class SurfaceFields:
    """Vectorized per-point data of one hypersurface.

    ambient_curvature is 0 for Euclidean ambient, 1 for the unit sphere.
    jets(pts, order=2) is the exact ``_Jets`` request at a point set (K, m),
    each quantity to the order; order 0 gives the values, among them I and
    h (K, m, m) and rho and H (K,).  It is required: fields without it are
    refused with InputError.
    """

    dim: int
    ambient_curvature: float
    jets: Callable[..., _Jets] | None = None

    def __post_init__(self):
        if not callable(self.jets):
            raise InputError("surface fields have no jets")


def moebius_jets(first: Jet, second: Jet, rho: Jet, mean: Jet) -> _Jets:
    """The ``_Jets`` of a request from the jets of I, h, rho and H, at their order, in the
    jet arithmetic."""
    return _Jets(
        first,
        second,
        contract(",ab->ab", contract(",->", rho, rho), first),
        contract(",ab->ab", rho, second - contract(",ab->ab", mean, first)),
        rho,
        compose(rho, log_derivatives(rho.value, rho.order)),
        mean,
    )


def _jets_from_forms(first: Jet, second: Jet, first_inverse: Jet) -> _Jets:
    """The ``_Jets`` of the jets of I, h and I^-1: rho and H from them, in the jet arithmetic."""
    n = first.value.shape[-1]

    def trace(a: np.ndarray) -> np.ndarray:  # summed in index order
        return sum(a[..., i, i] for i in range(n))

    shape_op = contract("ab,bc->ac", first_inverse, second)
    mean = shape_op.linear(lambda a: trace(a) / n)
    norm2 = contract("ab,bc->ac", shape_op, shape_op).linear(trace)
    rho2 = n / (n - 1) * (norm2 - n * contract(",->", mean, mean))
    _umbilic_free(rho2.value)
    rho = compose(rho2, power_derivatives(rho2.value, 0.5, rho2.order))
    return moebius_jets(first, second, rho, mean)


def fields_from_immersion(imm: ImmersionHandle) -> SurfaceFields:
    """Fields of any immersion handle, exact to the handle's jet.

    A request of order k at a point set reads one jet of order k + 2 of the
    immersion (``_jets_from_forms`` of ``immersion.fundamental_form_jets``).
    The orientation sign is resolved once, here.
    """
    sign = orientation_sign(imm)

    def jets(pts, order: int = 2) -> _Jets:
        return _jets_from_forms(*fundamental_form_jets(imm, pts, sign, order))

    return SurfaceFields(
        dim=imm.chart_dimension,
        ambient_curvature=1.0 if imm.ambient_kind == UNIT_SPHERE else 0.0,
        jets=jets,
    )


# ---------------------------------------------------------------------------
# one request per point set


def _jets(fields: SurfaceFields, pts: np.ndarray) -> _Jets:
    """The one request at the point set pts (K, m), or at the one point pts (m,)."""
    return fields.jets(np.atleast_2d(np.asarray(pts, dtype=float)))


# ---------------------------------------------------------------------------
# derivative-level invariants, each one expression over the request's points


def _frames(request: _Jets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, the I-orthonormal frames E, E^T h E) at the request's points, each (K, m, m)."""
    g = require_symmetric(request.g.value, tol=1e-8, what="first fundamental form")
    h = require_symmetric(request.h.value, tol=1e-6, what="second fundamental form")
    frame = gram_schmidt_frames(g)
    return g, frame, frame.mT @ h @ frame


def _form(request: _Jets, frame: np.ndarray, h_frame: np.ndarray) -> np.ndarray:
    """The Moebius 1-form C in the g-frame (K, m), from the frames and the partials of
    log rho and H:

        C_i = -rho^{-1} [ e_i(H) + sum_j (h_ij - H delta_ij) e_j(log rho) ]

    in the I-orthonormal frame e, then rescaled by 1/rho into the g-frame.
    The sum against e_j(log rho) completes the gradient coupling so that the
    expression is a well-formed 1-form; the divergence identity
    sum_j B_ij,j = -(n-1) C_i checks it (``moebius_form_divergence_residuals``).
    """
    rho, mean = request.rho.value[:, None], request.mean.value[:, None, None]
    e_mean = _apply(frame.mT, request.mean.levels[1])
    e_logrho = _apply(frame.mT, request.log_rho.levels[1])
    trace_free = h_frame - mean * np.eye(frame.shape[-1])
    return -(e_mean + _apply(trace_free, e_logrho)) / rho / rho


def _blaschke(
    request: _Jets, g: np.ndarray, frame: np.ndarray, h_frame: np.ndarray, ambient_curvature: float
) -> np.ndarray:
    """The Blaschke tensor A in the g-frame (K, m, m), from the frames, the partials of
    log rho and dI:

        A_ij = e_i(log rho) e_j(log rho) - Hess_ij(log rho) + H h_ij
               + 1/2 (c - H^2 - |grad log rho|^2) delta_ij

    in the I-orthonormal frame e (Hessian of the induced metric's connection),
    divided by rho^2.  c is the ambient curvature constant of the fields.
    """
    d_logrho, dd_logrho = request.log_rho.levels[1:]
    ginv = np.linalg.inv(g)
    gamma = christoffel_symbols(ginv, request.g.levels[1])
    hess = dd_logrho - np.einsum("...kij,...k->...ij", gamma, d_logrho)
    e_logrho = _apply(frame.mT, d_logrho)
    grad2 = (d_logrho[:, None, :] @ ginv @ d_logrho[:, :, None])[:, 0]
    mean = request.mean.value[:, None, None]
    iso = 0.5 * (ambient_curvature - mean**2 - grad2[:, None])
    a_theta = (
        e_logrho[:, :, None] * e_logrho[:, None, :]
        - frame.mT @ hess @ frame
        + mean * h_frame
        + iso * np.eye(g.shape[-1])
    )
    return a_theta / request.rho.value[:, None, None] ** 2


def _direct(request: _Jets) -> np.ndarray:
    """Full-trace scalar curvature of the metric rho^2 I from its jet at a point set."""
    return curvature_batch(*request.moebius.levels).scalar


def moebius_form_divergence_residuals(fields: SurfaceFields, pts: np.ndarray) -> np.ndarray:
    """Residual of the divergence identity sum_j B_ij,j = -(n-1) C_i at each point (K,).

    Both sides live in the g-orthonormal frame, which is the I-frame over
    rho; the covariant divergence of the coordinate tensor B = rho (II - H I)
    is taken with the Moebius metric's connection.  This is the independent
    cross-check for the completed gradient coupling in the C formula.
    """
    request = _jets(fields, pts)
    _, frame, h_frame = _frames(request)
    g = request.moebius.value
    ginv = np.linalg.inv(g)
    gamma = christoffel_symbols(ginv, request.moebius.levels[1])
    nabla = covariant_derivative(request.b.value, request.b.levels[1], gamma)
    div = np.einsum("...bc,...abc->...a", ginv, nabla)
    div_frame = _apply(frame.mT, div) / request.rho.value[:, None]
    residual = div_frame + (g.shape[-1] - 1) * _form(request, frame, h_frame)
    return np.max(np.abs(residual), axis=1)


def moebius_form_divergence_residual(fields: SurfaceFields, p: np.ndarray) -> float:
    """``moebius_form_divergence_residuals`` at the one point p."""
    return float(moebius_form_divergence_residuals(fields, p)[0])


def direct_scalar(fields: SurfaceFields, pts: np.ndarray):
    """Full-trace scalar curvature of the Moebius metric rho^2 I: the direct
    route of ``moebius_scalars`` alone, from the same one request.

    pts is one point (m,), which gives a float, or a point set (K, m),
    which gives an array (K,).
    """
    pts = np.asarray(pts, dtype=float)
    scalars = _direct(_jets(fields, pts))
    return float(scalars[0]) if pts.ndim == 1 else scalars


def _spectra(request: _Jets, h_frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The principal curvatures and B's eigenvalues at the request's points, each (K, m)
    and descending, from one stacked solve of h in the I-frame: B = (E^T h E - H Id) / rho
    (``_trace_free``), so eig B = (lambda - H) / rho."""
    lam = jacobi_eigh(h_frame)[0][:, ::-1]
    return lam, (lam - request.mean.value[:, None]) / request.rho.value[:, None]


def B_eigenvalues_and_scalars(fields: SurfaceFields, pts: np.ndarray):
    """The eigenvalues of B at each point of pts (K, m), descending (K, m), and the
    direct scalar (K,), from one request: the spectrum of ``moebius_data``."""
    request = _jets(fields, pts)
    return _spectra(request, _frames(request)[2])[1], _direct(request)


class MoebiusScalarResult(NamedTuple):
    direct: float | np.ndarray
    conformal_route: float | np.ndarray

    def spread(self):
        return abs(self.direct - self.conformal_route)


def moebius_scalars(fields: SurfaceFields, pts: np.ndarray) -> MoebiusScalarResult:
    """Full-trace scalar curvature of the Moebius metric by two independent routes,
    at the point set pts (K, m), each route an array (K,).

    direct: curvature of the metric field rho^2 I (``direct_scalar``);
    conformal_route: the conformal-change formula applied to the induced
    metric with u = log rho.  Their agreement is the two-route consistency
    check.  The routes share only the evaluation of their inputs: one
    request of the fields.
    """
    return _scalars(_jets(fields, pts))


def _scalars(request: _Jets) -> MoebiusScalarResult:
    """The two scalar routes of ``moebius_scalars`` from the request."""
    via = conformal_scalar_from_jet(curvature_batch(*request.g.levels), *request.log_rho.levels)
    return MoebiusScalarResult(direct=_direct(request), conformal_route=via)


def moebius_scalar(fields: SurfaceFields, p: np.ndarray) -> MoebiusScalarResult:
    """``moebius_scalars`` at the one point p, as floats."""
    both = moebius_scalars(fields, p)
    return MoebiusScalarResult(*(float(x[0]) for x in both))


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


def moebius_data_batch(fields: SurfaceFields, pts: np.ndarray) -> list[MoebiusData]:
    """All invariants at each point of pts (K, m) from one request: B, C and A as one
    expression over the points, and the spectra as two stacked solves, of h in the
    I-frame (the principal curvatures and B's eigenvalues) and of A."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _records(_jets(fields, pts), pts, fields.ambient_curvature)


def _data_and_scalars(
    fields: SurfaceFields, pts: np.ndarray
) -> tuple[list[MoebiusData], MoebiusScalarResult]:
    """``moebius_data_batch`` and ``moebius_scalars`` at the point set pts (K, m), from
    one request: the immersion's jet is evaluated once for both."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    request = _jets(fields, pts)
    return _records(request, pts, fields.ambient_curvature), _scalars(request)


def _records(request: _Jets, pts: np.ndarray, ambient_curvature: float) -> list[MoebiusData]:
    """The records of ``moebius_data_batch`` from the request at pts (K, m)."""
    g, frame, h_frame = _frames(request)
    rho, mean = request.rho.value, request.mean.value
    b = _trace_free(h_frame, rho, mean)
    a = _blaschke(request, g, frame, h_frame, ambient_curvature)
    c = _form(request, frame, h_frame)
    g_moebius = rho[:, None, None] ** 2 * g
    lam, b_eig = _spectra(request, h_frame)
    a_eig = jacobi_eigh(a)[0][:, ::-1]
    return [
        MoebiusData(
            point=p,
            rho=float(rho[k]),
            H=float(mean[k]),
            g_moebius=g_moebius[k],
            B=b[k],
            A=a[k],
            C=c[k],
            principal_curvatures=lam[k],
            B_eigenvalues=b_eig[k],
            A_eigenvalues=a_eig[k],
        )
        for k, p in enumerate(pts)
    ]


def moebius_data(fields: SurfaceFields, p: np.ndarray) -> MoebiusData:
    """``moebius_data_batch`` at the one point p."""
    return moebius_data_batch(fields, p)[0]


def moebius_form(fields: SurfaceFields, p: np.ndarray) -> np.ndarray:
    """C in the g-orthonormal frame at the one point p: ``moebius_data``'s C."""
    return moebius_data(fields, p).C


def blaschke_A(fields: SurfaceFields, p: np.ndarray) -> np.ndarray:
    """A in the g-orthonormal frame at the one point p: ``moebius_data``'s A."""
    return moebius_data(fields, p).A
