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

A field set answers one request, ``jets(pts, order=2)``: a ``Request``
holding the exact jets, as ``jets.Jet``s over the point set's K points, of
I, h, rho^2 I, rho (h - H I), rho, log rho and H, which every invariant
reads, and the ambient curvature.  Order 0 gives their values, and is the
same bits as level 0 of the order-2 request.  Both routes pack the jets of
(I, h, rho, H) the same way (``moebius_jets``, in the truncated Taylor
arithmetic of ``jets``):

* fields from an immersion (``fields_from_immersion``) take I and h from
  one jet of the immersion at the point set, of the request's order plus
  two, and rho and H from them (``_jets_from_forms``, the one formula of
  rho and H);
* the generators' closed forms (``zoo``) give all four as exact products of
  one-variable factors.

No request takes a step, and fields without ``jets`` are refused.  Each
invariant is an attribute of the request, computed on its first read and
kept: ``frames``, ``B``, ``C``, ``A``, ``spectra``, ``direct_scalar``,
``conformal_scalar`` and ``divergence_residuals``, each one expression over
the K points, and ``records(pts)`` assembles them per point.  One
``gram_schmidt_frames`` of the stack of I gives the I-orthonormal frames
(the g-frames are these over rho), and the components are stacked matrix
products in them.  The spectra are stacked ``jacobi_eigh`` solves: one of h
in the I-frame gives the principal curvatures lambda and B's eigenvalues
(lambda - H) / rho, one of A gives A's.  The one-point functions
(``moebius_data``, ``moebius_scalar``, ``moebius_form``, ``blaschke_A``)
read a request at one point, and a request at K points equals K one-point
requests bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from .jets import Jet, compose, contract, log_derivatives, power_derivatives
from .linalg import gram_schmidt_frames, jacobi_eigh, require_symmetric

UMBILIC_THRESHOLD = 1e-18


# ---------------------------------------------------------------------------
# value-level kernels


def _umbilic_free(rho2: np.ndarray) -> np.ndarray:
    if np.any(rho2 <= UMBILIC_THRESHOLD):
        worst = float(np.min(rho2))
        raise UmbilicPointError(f"rho^2 = {worst:.3e}: umbilic point, invariants undefined")
    return rho2


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a[k] @ v[k] for a stack of matrices (K, m, m) and vectors (K, m)."""
    return (a @ v[..., None])[..., 0]


# ---------------------------------------------------------------------------
# one request per point set


@dataclass(frozen=True)
class Request:
    """The exact jets (``jets.Jet``) of every quantity a Moebius invariant reads, at a
    point set of K points, and the invariants read from them.

    Each invariant is computed on its first read and kept, so the invariants
    a caller reads share one stack of frames and one spectrum of h.  Tensor
    components are in the g-orthonormal frame.
    """

    g: Jet  # I
    h: Jet
    moebius: Jet  # rho^2 I
    b: Jet  # the coordinate tensor B = rho (h - H I)
    rho: Jet
    log_rho: Jet
    mean: Jet  # H
    ambient_curvature: float  # c: 0 for Euclidean ambient, 1 for the unit sphere

    @cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, the I-orthonormal frames E, E^T h E), each (K, m, m)."""
        g = require_symmetric(self.g.value, tol=1e-8, what="first fundamental form")
        h = require_symmetric(self.h.value, tol=1e-6, what="second fundamental form")
        frame = gram_schmidt_frames(g)
        return g, frame, frame.mT @ h @ frame

    @cached_property
    def B(self) -> np.ndarray:
        """The trace-free tensor B = (E^T h E - H Id) / rho, (K, m, m).

        As a tensor B = rho (h - H I); dividing its I-orthonormal components
        by rho^2 re-expresses them in the g-frame, where tr B = 0 and
        |B|^2 = (n-1)/n hold identically.
        """
        h_frame = self.frames[2]
        mean = self.mean.value[:, None, None]
        return (h_frame - mean * np.eye(h_frame.shape[-1])) / self.rho.value[:, None, None]

    @cached_property
    def C(self) -> np.ndarray:
        """The Moebius 1-form C (K, m), from the frames and the partials of log rho and H:

            C_i = -rho^{-1} [ e_i(H) + sum_j (h_ij - H delta_ij) e_j(log rho) ]

        in the I-orthonormal frame e, then rescaled by 1/rho into the g-frame.
        The sum against e_j(log rho) completes the gradient coupling so that the
        expression is a well-formed 1-form; the divergence identity
        sum_j B_ij,j = -(n-1) C_i checks it (``divergence_residuals``).
        """
        _, frame, h_frame = self.frames
        rho, mean = self.rho.value[:, None], self.mean.value[:, None, None]
        e_mean = _apply(frame.mT, self.mean.levels[1])
        e_logrho = _apply(frame.mT, self.log_rho.levels[1])
        trace_free = h_frame - mean * np.eye(frame.shape[-1])
        return -(e_mean + _apply(trace_free, e_logrho)) / rho / rho

    @cached_property
    def A(self) -> np.ndarray:
        """The Blaschke tensor A (K, m, m), from the frames, the partials of log rho and dI:

            A_ij = e_i(log rho) e_j(log rho) - Hess_ij(log rho) + H h_ij
                   + 1/2 (c - H^2 - |grad log rho|^2) delta_ij

        in the I-orthonormal frame e (Hessian of the induced metric's
        connection), divided by rho^2.  c is the ambient curvature.
        """
        g, frame, h_frame = self.frames
        d_logrho, dd_logrho = self.log_rho.levels[1:]
        ginv = np.linalg.inv(g)
        gamma = christoffel_symbols(ginv, self.g.levels[1])
        hess = dd_logrho - np.einsum("...kij,...k->...ij", gamma, d_logrho)
        e_logrho = _apply(frame.mT, d_logrho)
        grad2 = (d_logrho[:, None, :] @ ginv @ d_logrho[:, :, None])[:, 0]
        mean = self.mean.value[:, None, None]
        iso = 0.5 * (self.ambient_curvature - mean**2 - grad2[:, None])
        a_theta = (
            e_logrho[:, :, None] * e_logrho[:, None, :]
            - frame.mT @ hess @ frame
            + mean * h_frame
            + iso * np.eye(g.shape[-1])
        )
        return a_theta / self.rho.value[:, None, None] ** 2

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """The principal curvatures and B's eigenvalues, each (K, m) and descending, from
        one stacked solve of h in the I-frame: B = (E^T h E - H Id) / rho, so
        eig B = (lambda - H) / rho."""
        lam = jacobi_eigh(self.frames[2])[0][:, ::-1]
        return lam, (lam - self.mean.value[:, None]) / self.rho.value[:, None]

    @cached_property
    def direct_scalar(self) -> np.ndarray:
        """Full-trace scalar curvature of the Moebius metric rho^2 I, from its jet (K,)."""
        return curvature_batch(*self.moebius.levels).scalar

    @cached_property
    def conformal_scalar(self) -> np.ndarray:
        """The same scalar by the conformal-change formula applied to I with u = log rho
        (K,).  Its agreement with ``direct_scalar`` is the two-route check: the routes
        share only the request's jets."""
        return conformal_scalar_from_jet(curvature_batch(*self.g.levels), *self.log_rho.levels)

    @cached_property
    def divergence_residuals(self) -> np.ndarray:
        """Residual of the divergence identity sum_j B_ij,j = -(n-1) C_i at each point (K,).

        Both sides live in the g-orthonormal frame, which is the I-frame over
        rho; the covariant divergence of the coordinate tensor B = rho (II - H I)
        is taken with the Moebius metric's connection.  This is the independent
        cross-check for the completed gradient coupling in the C formula.
        """
        frame = self.frames[1]
        g = self.moebius.value
        ginv = np.linalg.inv(g)
        gamma = christoffel_symbols(ginv, self.moebius.levels[1])
        nabla = covariant_derivative(self.b.value, self.b.levels[1], gamma)
        div = np.einsum("...bc,...abc->...a", ginv, nabla)
        div_frame = _apply(frame.mT, div) / self.rho.value[:, None]
        residual = div_frame + (g.shape[-1] - 1) * self.C
        return np.max(np.abs(residual), axis=1)

    def records(self, pts: np.ndarray) -> list[MoebiusData]:
        """The record of each point of pts (K, m), the request's point set: B, C, A and
        the spectra, and A's from one more stacked solve."""
        rho, mean = self.rho.value, self.mean.value
        g_moebius = rho[:, None, None] ** 2 * self.frames[0]
        lam, b_eig = self.spectra
        a_eig = jacobi_eigh(self.A)[0][:, ::-1]
        return [
            MoebiusData(
                point=p,
                rho=float(rho[k]),
                H=float(mean[k]),
                g_moebius=g_moebius[k],
                B=self.B[k],
                A=self.A[k],
                C=self.C[k],
                principal_curvatures=lam[k],
                B_eigenvalues=b_eig[k],
                A_eigenvalues=a_eig[k],
            )
            for k, p in enumerate(pts)
        ]


@dataclass(frozen=True)
class SurfaceFields:
    """Vectorized per-point data of one hypersurface.

    ambient_curvature is 0 for Euclidean ambient, 1 for the unit sphere.
    jets(pts, order=2) is the exact ``Request`` at a point set (K, m), each
    quantity to the order; order 0 gives the values, among them I and h
    (K, m, m) and rho and H (K,).  It is required: fields without it are
    refused with InputError.
    """

    ambient_curvature: float
    jets: Callable[..., Request] | None = None

    def __post_init__(self):
        if not callable(self.jets):
            raise InputError("surface fields have no jets")


def moebius_jets(
    first: Jet, second: Jet, rho: Jet, mean: Jet, ambient_curvature: float
) -> Request:
    """The ``Request`` from the jets of I, h, rho and H, at their order, in the jet
    arithmetic, in an ambient of the curvature."""
    return Request(
        first,
        second,
        contract(",ab->ab", contract(",->", rho, rho), first),
        contract(",ab->ab", rho, second - contract(",ab->ab", mean, first)),
        rho,
        compose(rho, log_derivatives(rho.value, rho.order)),
        mean,
        ambient_curvature,
    )


def _jets_from_forms(
    first: Jet, second: Jet, first_inverse: Jet, ambient_curvature: float
) -> Request:
    """The ``Request`` of the jets of I, h and I^-1: rho and H from them, in the jet
    arithmetic."""
    n = first.value.shape[-1]

    def trace(a: np.ndarray) -> np.ndarray:  # summed in index order
        return sum(a[..., i, i] for i in range(n))

    shape_op = contract("ab,bc->ac", first_inverse, second)
    mean = shape_op.linear(lambda a: trace(a) / n)
    norm2 = contract("ab,bc->ac", shape_op, shape_op).linear(trace)
    rho2 = n / (n - 1) * (norm2 - n * contract(",->", mean, mean))
    _umbilic_free(rho2.value)
    rho = compose(rho2, power_derivatives(rho2.value, 0.5, rho2.order))
    return moebius_jets(first, second, rho, mean, ambient_curvature)


def fields_from_immersion(imm: ImmersionHandle) -> SurfaceFields:
    """Fields of any immersion handle, exact to the handle's jet.

    A request of order k at a point set reads one jet of order k + 2 of the
    immersion (``_jets_from_forms`` of ``immersion.fundamental_form_jets``).
    The orientation sign is resolved once, here.
    """
    sign = orientation_sign(imm)
    curvature = 1.0 if imm.ambient_kind == UNIT_SPHERE else 0.0

    def jets(pts, order: int = 2) -> Request:
        return _jets_from_forms(*fundamental_form_jets(imm, pts, sign, order), curvature)

    return SurfaceFields(ambient_curvature=curvature, jets=jets)


# ---------------------------------------------------------------------------
# the record of one point, and the requests at one point


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


class MoebiusScalarResult(NamedTuple):
    direct: float
    conformal_route: float


def moebius_data(fields: SurfaceFields, p: np.ndarray) -> MoebiusData:
    """The record at the one point p: ``Request.records`` of a one-point request."""
    pts = np.asarray(p, dtype=float)[None]
    return fields.jets(pts).records(pts)[0]


def moebius_scalar(fields: SurfaceFields, p: np.ndarray) -> MoebiusScalarResult:
    """Both scalar routes of a one-point request at p, as floats."""
    request = fields.jets(np.asarray(p, dtype=float)[None])
    return MoebiusScalarResult(float(request.direct_scalar[0]), float(request.conformal_scalar[0]))


def moebius_form(fields: SurfaceFields, p: np.ndarray) -> np.ndarray:
    """C in the g-orthonormal frame at the one point p."""
    return fields.jets(np.asarray(p, dtype=float)[None]).C[0]


def blaschke_A(fields: SurfaceFields, p: np.ndarray) -> np.ndarray:
    """A in the g-orthonormal frame at the one point p."""
    return fields.jets(np.asarray(p, dtype=float)[None]).A[0]
