"""The per-point curvature algebra that the batched ``curvature`` layer replaced.

Kept as the test oracle.  Each point is its own request: one metric jet,
the Jacobi eigensolver for the positivity check and the Riemann algebra on
(m, m) arrays.  Ricci and the scalar are the chart contractions of the
batch, point by point (``curvature_from_jet``).  The frame route
(``frame_curvature``) is the second, independent one: a Gram-Schmidt loop
over the coordinate basis, the lowered Riemann tensor rotated into it by
``tensordot``, one slot at a time, and Ricci and the scalar traced there.
The Schouten field loops over its points, one curvature bundle each, and
``codazzi_defect`` takes one point.  Nothing here calls the batch code
under test.
"""

import numpy as np

from mobiusflat.curvature import Convention, CurvatureBundle, convert_scalar
from mobiusflat.errors import DegenerateGeometryError
from mobiusflat.fd import diff1, jet
from mobiusflat.linalg import jacobi_eigh, require_symmetric


def gram_schmidt_frame(g, floor=1e-14):
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


def check_metric(g):
    g = require_symmetric(g, tol=1e-8, what="metric field value")
    w, _ = jacobi_eigh(g)
    scale = max(1.0, float(np.max(np.abs(w))))
    if w[0] <= 1e-12 * scale:
        raise DegenerateGeometryError(
            f"metric field is indefinite or near singular (min eigenvalue {w[0]:.3e})"
        )
    return g


def christoffel_symbols(ginv, dg):
    bracket = np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)


def riemann_up(g, dg, ddg):
    """(g^-1, Gamma, R^a_bcd) in chart coordinates from the metric 2-jet at one point."""
    ginv = np.linalg.inv(g)
    gamma = christoffel_symbols(ginv, dg)
    dginv = -np.einsum("kp,apq,ql->akl", ginv, dg, ginv)
    dgamma = christoffel_symbols(dginv, dg) + christoffel_symbols(ginv, ddg)
    riem_up = (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    return ginv, gamma, riem_up


def lowered_riemann(g, dg, ddg):
    """R_abcd = g_ae R^e_bcd in chart coordinates at one point."""
    return np.einsum("ae,ebcd->abcd", g, riemann_up(g, dg, ddg)[2])


def on_frame(tensor, frame):
    for _ in range(tensor.ndim):
        tensor = np.tensordot(tensor, frame, axes=(0, 0))
    return tensor


def curvature_from_jet(g, dg, ddg):
    g = check_metric(g)
    ginv, gamma, riem_up = riemann_up(g, dg, ddg)
    # C-ordered, so that the scalar's einsum sums in the batch's order
    ricci = np.ascontiguousarray(np.einsum("abad->bd", riem_up))
    return CurvatureBundle(
        metric=g,
        christoffel=gamma,
        ricci=ricci,
        scalar=float(np.einsum("bd,bd->", ginv, ricci)),
    )


def frame_curvature(g, dg, ddg):
    """(frame, R_ijkl, Ricci_ij, full-trace scalar) in the Gram-Schmidt frame at one point."""
    g = check_metric(g)
    frame = gram_schmidt_frame(g)
    riem_on = on_frame(lowered_riemann(g, dg, ddg), frame)
    ricci_on = np.einsum("ikjk->ij", riem_on)
    return frame, riem_on, ricci_on, float(np.einsum("ii->", ricci_on))


def curvature_batch(g, dg, ddg):
    """``curvature.curvature_batch`` by a loop of ``curvature_from_jet`` over the points."""
    bundles = [curvature_from_jet(*jets) for jets in zip(g, dg, ddg)]
    fields = ("metric", "christoffel", "ricci")
    return CurvatureBundle(
        **{name: np.stack([getattr(b, name) for b in bundles]) for name in fields},
        scalar=np.array([b.scalar for b in bundles]),
    )


def metric_field_curvature(metric_field, p, step):
    p = np.asarray(p, dtype=float)
    return curvature_from_jet(*jet(metric_field, p, step))


def schouten_coordinate_field(metric_field, step, convention=Convention.FULL_TRACE):
    def field(pts):
        pts = np.atleast_2d(pts)
        out = np.empty((pts.shape[0], pts.shape[1], pts.shape[1]))
        for i, q in enumerate(pts):
            b = metric_field_curvature(metric_field, q, step)
            r = convert_scalar(b.scalar, Convention.FULL_TRACE, convention, b.dim)
            out[i] = b.ricci - r / (2.0 * (b.dim - 1)) * b.metric
        return out

    return field


def covariant_derivative(s0, ds, gamma):
    return (
        np.einsum("cab->abc", ds)
        - np.einsum("dca,db->abc", gamma, s0)
        - np.einsum("dcb,ad->abc", gamma, s0)
    )


def codazzi_defect(schouten_field, metric_field, p, step):
    p = np.asarray(p, dtype=float)
    bundle = metric_field_curvature(metric_field, p, step)
    s0 = np.asarray(schouten_field(p[None, :]))[0]
    ds = diff1(schouten_field, p, step)
    frame = gram_schmidt_frame(bundle.metric)
    nabla_on = on_frame(covariant_derivative(s0, ds, bundle.christoffel), frame)
    return float(np.max(np.abs(nabla_on - np.einsum("ijk->ikj", nabla_on))))
