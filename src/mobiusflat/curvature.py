"""Riemannian curvature of a metric from its Taylor jet.

One formula, on ``jets.Jet`` (``riemann_jet``): the jet of dg is the
metric's levels shifted by one, the Christoffel symbols are 1/2 g^-1 (dg
permuted), and the Riemann tensor

    R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
                + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}

is the shifted Christoffel jet with two index permutations plus the
products.  With this sign convention the unit round sphere has positive
scalar curvature (full trace n(n-1)).  Ricci R_bd = R^a_bad and the scalar
g^bd R_bd are one contraction of that jet (``ricci_jet``), in chart
coordinates.  A metric's 2-jet gives them at K points (``curvature_batch``,
with a positivity check that names the first failing point); its 3-jet
gives Ricci, the scalar and the Schouten tensor to order 1, so the Codazzi
defect of the Schouten tensor takes no stencil (``schouten_codazzi_defects``).

Scalar-curvature normalizations differ across sources:

    HALF_TRACE  = sum_{i>j} R_ijij   (in an orthonormal frame)
    FULL_TRACE  = 2 * HALF_TRACE     (the trace of Ricci; the common one)
    NORMALIZED  = FULL_TRACE / (n (n-1))

Every scalar this layer computes is the full trace g^bd R_bd, which needs
no frame; code that reports a value in another normalization converts it
with ``convert_scalar``.  Only the Codazzi defects are read in the
Gram-Schmidt orthonormal frame.

The finite-difference front ends (``metric_field_curvature(_batch)``,
``codazzi_defect(_batch)``, ``conformal_scalar``) take the jets of a metric
field from order-4 stencils (``fd``), with a required step; they are the
oracle the exact routes are tested against.  Per point the arithmetic of a
batch is that of a one-point request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .fd import diff1_batch, jet, jet_batch
from .jets import Jet, contract, inverse
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

    All in chart coordinates: the metric g_ij, christoffel[k, i, j] =
    Gamma^k_ij, ricci[b, d] = R_bd and the full-trace scalar g^bd R_bd.  A
    bundle over K points carries a leading K axis on every field (scalar is
    (K,)); ``bundle[i]`` is the bundle at point i.
    """

    metric: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray

    @property
    def dim(self) -> int:
        return self.metric.shape[-1]

    def __getitem__(self, i: int) -> CurvatureBundle:
        return CurvatureBundle(
            metric=self.metric[i],
            christoffel=self.christoffel[i],
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


def _bracket(dg: np.ndarray) -> np.ndarray:
    """d_i g_lj + d_j g_li - d_l g_ij as [..., l, i, j] from dg[..., a, i, j] = d_a g_ij."""
    return np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg


def christoffel_symbols(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) as [..., k, i, j].

    ginv is the inverse metric and dg[..., a, i, j] = d_a g_ij.
    """
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, _bracket(dg))


def riemann_jet(g: Jet) -> tuple[Jet, Jet, Jet]:
    """(g^-1, Gamma^k_ij, R^a_bcd) in chart coordinates from the metric's jet g at
    K points, of order r >= 2: g^-1 and Gamma to order r - 1, R to order r - 2.

    The jet of dg is g's levels shifted by one, so Gamma = 1/2 g^-1 (dg
    permuted) is one product, and with d Gamma the Christoffel jet's levels
    shifted by one

        R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb.

    The first level of g^-1 is the one einsum -g^-1 dg g^-1 (the higher ones
    come from ``jets.inverse``), which keeps level 0 of the result equal bit
    for bit to the point-by-point algebra of the metric's 2-jet.
    """
    x0 = np.linalg.inv(g.value)
    higher = inverse(Jet(g.levels[:-1])).levels[2:] if g.order > 2 else []
    ginv = Jet([x0, -np.einsum("...kp,...apq,...ql->...akl", x0, g.levels[1], x0)] + higher)
    gamma = 0.5 * contract("kl,lij->kij", ginv, Jet(g.levels[1:]).linear(_bracket))
    dgamma = Jet(gamma.levels[1:])  # [..., c, a, d, b] = d_c Gamma^a_db
    lower = Jet(gamma.levels[:-1])  # the products are needed to order r - 2 only
    riem_up = (
        dgamma.linear(
            lambda x: np.einsum("...cadb->...abcd", x) - np.einsum("...dacb->...abcd", x)
        )
        + contract("ace,edb->abcd", lower, lower)
        - contract("ade,ecb->abcd", lower, lower)
    )
    return ginv, gamma, riem_up


def ricci_jet(ginv: Jet, riem_up: Jet) -> tuple[Jet, Jet]:
    """(R_bd = R^a_bad, the full-trace scalar g^bd R_bd) in chart coordinates, from
    the inverse metric's and the Riemann tensor's jets of ``riemann_jet``, to
    the Riemann jet's order."""
    ricci = riem_up.linear(lambda r: np.einsum("...abad->...bd", r))
    return ricci, contract("bd,bd->", ginv, ricci)


def curvature_batch(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> CurvatureBundle:
    """Curvature at K points from the metric 2-jets, with the layout of ``fd.jet_batch``:
    level 0 of ``riemann_jet`` and ``ricci_jet``.

    g (K, m, m), dg[k, a, i, j] = d_a g_ij and ddg[k, a, b, i, j] = d_a d_b g_ij.
    A metric that is not symmetric raises InputError and one that is not
    finite and positive definite DegenerateGeometryError, each naming the
    first such point.  The transient memory grows with K (riemann_jet's
    R^a_bcd and its products, m**4 per point), and K points give the bits of
    K one-point requests, so a caller may split a large point set freely.
    """
    g = _check_metrics(g)
    ginv, gamma, riem_up = riemann_jet(Jet([g, dg, ddg]))
    ricci, scalar = ricci_jet(ginv, riem_up)
    return CurvatureBundle(
        metric=g, christoffel=gamma.value, ricci=ricci.value, scalar=scalar.value
    )


def metric_field_curvature_batch(metric_field, pts: np.ndarray, step: float) -> CurvatureBundle:
    """Curvature of a metric field at the points (K, m): one field call, one batch of algebra."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return curvature_batch(*jet_batch(metric_field, pts, step))


def metric_field_curvature(metric_field, p: np.ndarray, step: float) -> CurvatureBundle:
    """Full curvature bundle of a metric field at p: ``metric_field_curvature_batch`` at one point."""
    p = np.asarray(p, dtype=float)
    return metric_field_curvature_batch(metric_field, p[None, :], step)[0]


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
    g: Jet, ricci: Jet, scalar: Jet, convention: Convention = Convention.FULL_TRACE
) -> Jet:
    """S = Ric - R / (2 (n-1)) g in chart coordinates, from the jets of the metric,
    Ricci and the full-trace scalar (``ricci_jet``), to the lower of their orders.

    The normalization of R in this definition is ambiguous across sources;
    the convention argument selects one, and the verification harness
    audits which choice makes S a Codazzi tensor.
    """
    n = g.value.shape[-1]
    if n < 3:
        raise InputError("Schouten tensor needs dimension >= 3")
    term = scalar.linear(
        lambda r: convert_scalar(r, Convention.FULL_TRACE, convention, n) / (2.0 * (n - 1))
    )
    return ricci - contract(",ab->ab", term, g)


def covariant_derivative(s0: np.ndarray, ds: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """[..., a, b, c] = S_ab;c from S_ab (s0), d_c S_ab (ds[..., c, a, b]) and Gamma^k_ij."""
    return (
        np.einsum("...cab->...abc", ds)
        - np.einsum("...dca,...db->...abc", gamma, s0)
        - np.einsum("...dcb,...ad->...abc", gamma, s0)
    )


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


def _codazzi(s0: np.ndarray, ds: np.ndarray, gamma: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The Codazzi defects at K points from S_ab, d_c S_ab ([k, c, a, b]), the
    Christoffel symbols and the orthonormal frames."""
    nabla_on = _on_frame(covariant_derivative(s0, ds, gamma), frame)
    return np.max(np.abs(nabla_on - np.einsum("...ijk->...ikj", nabla_on)), axis=(1, 2, 3))


def codazzi_defect_batch(schouten_field, metric_field, pts: np.ndarray, step: float) -> np.ndarray:
    """max_{a,b,c} |S_ab;c - S_ac;b| in the orthonormal frame at each point (K,),
    by finite differences.

    The covariant derivative uses the Christoffel symbols of the metric
    field; the Schouten field must supply chart-coordinate components.  The
    point set is one curvature batch of the metric field, one call of the
    Schouten field and one first-difference stencil of it.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    batch = metric_field_curvature_batch(metric_field, pts, step)
    s0 = np.asarray(schouten_field(pts))
    ds = diff1_batch(schouten_field, pts, step)
    return _codazzi(s0, ds, batch.christoffel, gram_schmidt_frames(batch.metric))


def schouten_codazzi_defects(g: Jet, conventions=(Convention.FULL_TRACE,)) -> np.ndarray:
    """Codazzi defects of the metric's own Schouten tensor, one row (K,) per normalization.

    g is the metric's jet of order 3 at K points.  ``riemann_jet`` gives
    Ricci R^a_bad and the scalar to order 1, so S = Ric - R / (2 (n-1)) g is
    known to order 1 and its covariant derivative needs no differencing.
    The normalizations differ only in the scalar term of S.
    """
    g0 = _check_metrics(g.value)
    g = Jet([g0] + g.levels[1:])
    ginv, gamma, riem_up = riemann_jet(g)
    ricci, scalar = ricci_jet(ginv, riem_up)
    frame = gram_schmidt_frames(g0)
    rows = []
    for conv in conventions:
        schouten = schouten_tensor(g, ricci, scalar, conv)
        rows.append(_codazzi(schouten.value, schouten.levels[1], gamma.value, frame))
    return np.array(rows)


def codazzi_defect(schouten_field, metric_field, p: np.ndarray, step: float) -> float:
    """``codazzi_defect_batch`` at the one point p."""
    p = np.asarray(p, dtype=float)
    return float(codazzi_defect_batch(schouten_field, metric_field, p[None, :], step)[0])
