"""Riemannian curvature of an explicit metric field by finite differences.

The core object is a *metric field*: a vectorized callable mapping (K, m)
chart points to (K, m, m) symmetric positive matrices.  From first and
second derivatives of the field we assemble Christoffel symbols, the
Riemann tensor

    R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
                + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb},

its fully lowered form, Ricci, and the scalar curvature.  With this sign
convention the unit round sphere has positive scalar curvature (full trace
n(n-1)).

Scalar-curvature normalizations differ across sources:

    HALF_TRACE  = sum_{i>j} R_ijij   (orthonormal frame)
    FULL_TRACE  = 2 * HALF_TRACE     (the trace of Ricci; the common one)
    NORMALIZED  = FULL_TRACE / (n (n-1))

Every scalar this layer computes is the full trace; code that reports a
value in another normalization converts it with ``convert_scalar``.

The layer works on point sets.  ``metric_field_curvature_batch`` asks the
field for the metric 2-jets at K points in one call (``fd.jet_batch``), and
``curvature_batch`` turns them into Christoffel symbols, the Riemann tensor
in the Gram-Schmidt frame, Ricci and the scalar with one vectorized pass:
einsums over a leading K axis, a batched inverse, ``linalg.gram_schmidt_frames``
and a positivity check by ``numpy.linalg.eigvalsh`` that names the first
failing point.  Per point the arithmetic is that of a one-point request, and
the tests hold a batch to the bits of the per-point algebra it replaced.
``metric_field_curvature`` and ``codazzi_defect`` are its one-point front
ends, as ``fd.jet`` is of ``jet_batch``; ``curvature_from_jet`` takes metric
jets that are already known, at one point or at K points (the exact Moebius
requests pass theirs).  A Schouten field is one curvature batch per call, so
the Codazzi defect over a point set is three metric-field calls however many
points it has.

Every function here that differences a field takes the step of its order-4
stencils as a required argument; there is no library default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .fd import diff1_batch, jet, jet_batch
from .linalg import gram_schmidt_frames, require_symmetric


class Convention(enum.Enum):
    HALF_TRACE = "half"
    FULL_TRACE = "full"
    NORMALIZED = "normalized"


def convert_scalar(value, src: Convention, dst: Convention, n: int):
    """Convert a scalar-curvature value, or an array of them, between normalizations."""
    full = {
        Convention.HALF_TRACE: 2.0 * value,
        Convention.FULL_TRACE: value,
        Convention.NORMALIZED: value * n * (n - 1),
    }[src]
    return {
        Convention.HALF_TRACE: 0.5 * full,
        Convention.FULL_TRACE: full,
        Convention.NORMALIZED: full / (n * (n - 1)),
    }[dst]


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of a metric field at one point, or at K points.

    christoffel[k, i, j] = Gamma^k_ij in chart coordinates; riemann, ricci
    and the full-trace scalar are components in the deterministic
    Gram-Schmidt orthonormal frame (columns of ``frame``), so the sums above
    apply as written.  A bundle over K points carries a leading K axis on
    every field (scalar is (K,)); ``bundle[i]`` is the bundle at point i.
    """

    metric: np.ndarray
    frame: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray

    @property
    def dim(self) -> int:
        return self.metric.shape[-1]

    def __getitem__(self, i: int) -> CurvatureBundle:
        return CurvatureBundle(
            metric=self.metric[i],
            frame=self.frame[i],
            christoffel=self.christoffel[i],
            riemann=self.riemann[i],
            ricci=self.ricci[i],
            scalar=float(self.scalar[i]),
        )


def _check_metrics(g: np.ndarray) -> np.ndarray:
    """The symmetrized metrics (K, m, m), each finite and positive definite."""
    g = require_symmetric(g, tol=1e-8, what="metric field value")
    bad = np.flatnonzero(~np.all(np.isfinite(g), axis=(1, 2)))
    if bad.size:
        raise DegenerateGeometryError(f"metric field value at point {int(bad[0])} is not finite")
    w = np.linalg.eigvalsh(g)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=1))
    bad = np.flatnonzero(w[:, 0] <= 1e-12 * scale)
    if bad.size:
        i = int(bad[0])
        raise DegenerateGeometryError(
            f"metric field is indefinite or near singular at point {i} "
            f"(min eigenvalue {w[i, 0]:.3e})"
        )
    return g


def christoffel_symbols(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) as [..., k, i, j].

    ginv is the inverse metric and dg[..., a, i, j] = d_a g_ij.  Leading axes
    of either argument broadcast, so the same formula gives both terms of the
    derivative d_a Gamma from (d_a g^{-1}, dg) and (g^{-1}, d_a dg).
    """
    bracket = np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)


def _riemann(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma, R_abcd) in chart coordinates from the metric 2-jets at K points.

    g (K, m, m), dg[k, a, i, j] = d_a g_ij, ddg[k, a, b, i, j] = d_a d_b g_ij.
    """
    ginv = np.linalg.inv(g)
    gamma = christoffel_symbols(ginv, dg)
    dginv = -np.einsum("...kp,...apq,...ql->...akl", ginv, dg, ginv)
    dgamma = christoffel_symbols(dginv, dg[:, None]) + christoffel_symbols(ginv[:, None], ddg)

    # R^a_{bcd} = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    riem_up = (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )
    return gamma, np.einsum("...ae,...ebcd->...abcd", g, riem_up)


def _on_frame(tensor: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Components of covariant tensors (K, m, ..., m) in the frames' columns (K, m, m).

    One single-index contraction per slot: m^(r+1) work for rank r instead
    of the m^(2r) of contracting all slots at once.  Each contraction takes
    the leading slot and appends the frame index last, so after r of them
    the slots are back in order.
    """
    k, m = frame.shape[:2]
    for _ in range(tensor.ndim - 1):
        rest = tensor.shape[2:]
        moved = np.moveaxis(tensor, 1, -1).reshape(k, -1, m)
        tensor = (moved @ frame).reshape((k,) + rest + (m,))
    return tensor


def curvature_batch(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> CurvatureBundle:
    """Curvature at K points from the metric 2-jets, with the layout of ``fd.jet_batch``.

    g (K, m, m), dg[k, a, i, j] = d_a g_ij and ddg[k, a, b, i, j] = d_a d_b g_ij.
    A metric that is not symmetric raises InputError and one that is not
    finite and positive definite DegenerateGeometryError, each naming the
    first such point.
    """
    g = _check_metrics(g)
    gamma, riem = _riemann(g, dg, ddg)
    frame = gram_schmidt_frames(g)
    riem_on = _on_frame(riem, frame)
    ricci_on = np.einsum("...ikjk->...ij", riem_on)
    return CurvatureBundle(
        metric=g,
        frame=frame,
        christoffel=gamma,
        riemann=riem_on,
        ricci=ricci_on,
        scalar=np.einsum("...ii->...", ricci_on),
    )


def metric_field_curvature_batch(metric_field, pts: np.ndarray, step: float) -> CurvatureBundle:
    """Curvature of a metric field at the points (K, m): one field call, one batch of algebra."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return curvature_batch(*jet_batch(metric_field, pts, step))


def metric_field_curvature(metric_field, p: np.ndarray, step: float) -> CurvatureBundle:
    """Full curvature bundle of a metric field at p: ``metric_field_curvature_batch`` at one point."""
    p = np.asarray(p, dtype=float)
    return metric_field_curvature_batch(metric_field, p[None, :], step)[0]


def curvature_from_jet(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> CurvatureBundle:
    """Curvature bundle from the metric's value, dg[..., a, i, j] = d_a g_ij and
    ddg[..., a, b, i, j] = d_a d_b g_ij: at one point, or at K points when g
    is (K, m, m)."""
    g, dg, ddg = (np.asarray(x, dtype=float) for x in (g, dg, ddg))
    if g.ndim == 3:
        return curvature_batch(g, dg, ddg)
    return curvature_batch(g[None], dg[None], ddg[None])[0]


def riemann_symmetry_residuals(bundle: CurvatureBundle) -> dict[str, float]:
    """Max-abs residuals of the pair symmetries and the first Bianchi sum.

    The tensor is assembled as the exact Riemann algebra of the differenced
    metric 2-jet, so these are all roundoff-level regardless of the step;
    truncation displaces the jet (value errors) without breaking the
    algebraic symmetries.  Antisymmetry in the last index pair is exact by
    construction and not reported.
    """
    r = bundle.riemann
    return {
        "antisym_first_pair": float(np.max(np.abs(r + np.einsum("ijkl->jikl", r)))),
        "pair_exchange": float(np.max(np.abs(r - np.einsum("ijkl->klij", r)))),
        "bianchi_first": float(
            np.max(
                np.abs(r + np.einsum("ijkl->iklj", r) + np.einsum("ijkl->iljk", r))
            )
        ),
    }


def conformal_scalar(base: CurvatureBundle, u_field, p: np.ndarray, step: float) -> float:
    """Full-trace scalar curvature of e^{2u} g0 by the conformal change rule.

    R~ = e^{-2u} (R0 - 2 (n-1) Lap u - (n-1)(n-2) |grad u|^2),

    with the Laplacian and gradient taken in g0.  This is the independent
    route used to cross-check ``metric_field_curvature`` on conformally
    rescaled metrics.  u's jet is one field call; ``conformal_scalar_from_jet``
    applies the rule.
    """
    return float(conformal_scalar_from_jet(base, *jet(u_field, np.asarray(p, dtype=float), step)))


def conformal_scalar_from_jet(base: CurvatureBundle, u0, du: np.ndarray, ddu: np.ndarray):
    """The conformal change rule from u's value, first partials (..., m) and second
    partials (..., m, m): at one point, or at K points of a K-point bundle."""
    n = base.dim
    ginv = np.linalg.inv(base.metric)
    hess = ddu - np.einsum("...kij,...k->...ij", base.christoffel, du)
    lap = np.einsum("...ij,...ij->...", ginv, hess)
    grad2 = np.einsum("...i,...i->...", np.einsum("...i,...ij->...j", du, ginv), du)
    r0 = base.scalar
    return np.exp(-2.0 * u0) * (r0 - 2.0 * (n - 1) * lap - (n - 1) * (n - 2) * grad2)


def schouten_tensor(
    bundle: CurvatureBundle, convention: Convention = Convention.FULL_TRACE
) -> np.ndarray:
    """S = Ricci - R / (2 (n-1)) Id in the orthonormal frame.

    The normalization of R in this definition is ambiguous across sources;
    the convention argument selects one, and the verification harness
    audits which choice makes S a Codazzi tensor.
    """
    n = bundle.dim
    if n < 3:
        raise InputError("Schouten tensor needs dimension >= 3")
    r = convert_scalar(bundle.scalar, Convention.FULL_TRACE, convention, n)
    return bundle.ricci - r / (2.0 * (n - 1)) * np.eye(n)


def _schouten_coordinates(b: CurvatureBundle, convention: Convention) -> np.ndarray:
    """S_ab in chart coordinates at the points of a K-point curvature bundle (K, m, m)."""
    n = b.dim
    r = convert_scalar(b.scalar, Convention.FULL_TRACE, convention, n)
    inv_frame = np.linalg.inv(b.frame)
    ric_coord = np.swapaxes(inv_frame, -1, -2) @ b.ricci @ inv_frame
    return ric_coord - (r / (2.0 * (n - 1)))[:, None, None] * b.metric


def schouten_coordinate_field(
    metric_field, step: float, convention: Convention = Convention.FULL_TRACE
):
    """Vectorized field p -> S_ab in chart coordinates (for FD derivatives).

    A call on K points is one curvature batch of the metric field.
    """

    def field(pts: np.ndarray) -> np.ndarray:
        b = metric_field_curvature_batch(metric_field, pts, step)
        return _schouten_coordinates(b, convention)

    return field


def covariant_derivative(s0: np.ndarray, ds: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """[..., a, b, c] = S_ab;c from S_ab (s0), d_c S_ab (ds[..., c, a, b]) and Gamma^k_ij."""
    return (
        np.einsum("...cab->...abc", ds)
        - np.einsum("...dca,...db->...abc", gamma, s0)
        - np.einsum("...dcb,...ad->...abc", gamma, s0)
    )


def _codazzi(s0: np.ndarray, ds: np.ndarray, batch: CurvatureBundle) -> np.ndarray:
    """The Codazzi defects at a K-point bundle's points from S_ab and d_c S_ab ([k, c, a, b])."""
    nabla_on = _on_frame(covariant_derivative(s0, ds, batch.christoffel), batch.frame)
    return np.max(np.abs(nabla_on - np.einsum("...ijk->...ikj", nabla_on)), axis=(1, 2, 3))


def codazzi_defect_batch(schouten_field, metric_field, pts: np.ndarray, step: float) -> np.ndarray:
    """max_{a,b,c} |S_ab;c - S_ac;b| in the orthonormal frame at each point (K,).

    The covariant derivative uses the Christoffel symbols of the metric
    field; the Schouten field must supply chart-coordinate components.  The
    point set is one curvature batch of the metric field, one call of the
    Schouten field and one first-difference stencil of it.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    batch = metric_field_curvature_batch(metric_field, pts, step)
    s0 = np.asarray(schouten_field(pts))
    return _codazzi(s0, diff1_batch(schouten_field, pts, step), batch)


def schouten_codazzi_defects(metric_field, pts: np.ndarray, step: float, conventions) -> np.ndarray:
    """Codazzi defects of the metric's own Schouten tensor, one row per normalization.

    Row i is codazzi_defect_batch(schouten_coordinate_field(metric_field,
    step, conventions[i]), metric_field, pts, step), value for value.  The
    normalizations differ only in the scalar term of S, so the metric's
    curvature is computed once at the points, and once on their
    first-difference stencil by one field that stacks every normalization's S.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))

    def schouten(b: CurvatureBundle) -> np.ndarray:  # (K, normalizations, m, m)
        return np.stack([_schouten_coordinates(b, conv) for conv in conventions], axis=1)

    def field(q: np.ndarray) -> np.ndarray:
        return schouten(metric_field_curvature_batch(metric_field, q, step))

    here = metric_field_curvature_batch(metric_field, pts, step)
    s0, ds = schouten(here), diff1_batch(field, pts, step)  # ds[k, c, i] = d_c S of row i
    return np.array([_codazzi(s0[:, i], ds[:, :, i], here) for i in range(len(conventions))])


def codazzi_defect(schouten_field, metric_field, p: np.ndarray, step: float) -> float:
    """``codazzi_defect_batch`` at the one point p."""
    p = np.asarray(p, dtype=float)
    return float(codazzi_defect_batch(schouten_field, metric_field, p[None, :], step)[0])
