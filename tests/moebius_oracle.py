"""The separate-request compositions that ``moebius_data`` and ``moebius_scalar`` replaced,
and the nested finite-difference pipeline that the exact jets replaced.

Kept as the test oracles.  Each quantity is asked of the fields on its own:
I, h, rho and H at p one order-0 request at a time, the partials of log rho,
H and I each from their own stencil, and the two scalar routes each from their
own metric-field jets.  The B, A and C formulas are written out here a
second time, as they stood before the kernels were shared, so the oracle
does not lean on the code under test.

``stencil_fields`` is the Moebius request as it stood before the exact
jets: one order-4 stencil of ``fd.jet_batch`` over the values of the
fields' order-0 request, with the seven quantities packed side by side into
one field.  On the closed forms it is the oracle of their exact jets;
``nested_fd_fields`` is the pipeline as it stood before them, the stencil
over the fields of an immersion, each stencil point one 2-jet of the
immersion.

``moebius_density`` is rho and H of the forms at one point: the one-point
front end of the package's formula of rho and H (``_jets_from_forms``), by
which the tests read a point's density.
"""

import dataclasses

import numpy as np

from mobiusflat.curvature import conformal_scalar, metric_field_curvature
from mobiusflat.fd import diff1, jet, jet_batch
from mobiusflat.jets import Jet, inverse
from mobiusflat.linalg import (
    gram_schmidt_frame,
    gram_schmidt_frames,
    jacobi_eigh,
    require_symmetric,
)
from mobiusflat.moebius import (
    MoebiusData,
    MoebiusScalarResult,
    Request,
    _jets_from_forms,
    fields_from_immersion,
)


def moebius_density(first, second):
    """(rho, H) from the fundamental forms (m, m) at one point.

    H is the trace of the shape operator over n; rho is the positive root
    of the density formula: the order-0 request of the forms at one point
    (``moebius._jets_from_forms``).  Raises UmbilicPointError when rho^2
    falls at or below 1e-18, and DegenerateGeometryError when I is not
    positive definite, by the test of ``gram_schmidt_frames`` that
    ``Request.frames`` applies.
    """
    g = np.asarray(first, dtype=float)
    h = require_symmetric(np.asarray(second, dtype=float), what="shape tensor")
    gram_schmidt_frames(g[None])
    first = Jet([g[None]])
    request = _jets_from_forms(first, Jet([h[None]]), inverse(first), 0.0)
    return float(request.rho.value[0]), float(request.mean.value[0])


def stencil_jets(fields, pts, step):
    """The ``Request`` at pts from one stencil of the step: the quantities are packed
    side by side into one field, and split back per quantity."""
    m = pts.shape[1]
    shapes = [(m, m)] * 4 + [()] * 3
    ends = np.cumsum([0] + [m * m] * 4 + [1] * 3)

    def field(q):
        g, h, rho, mean = values(fields, q)
        r = rho[:, None, None]
        parts = (g, h, r**2 * g, r * (h - mean[:, None, None] * g), rho, np.log(rho), mean)
        return np.concatenate([x.reshape(x.shape[0], -1) for x in parts], axis=1)

    levels = jet_batch(field, pts, step)
    return Request(
        *(
            Jet(x[..., a:b].reshape(x.shape[:-1] + shape).copy() for x in levels)
            for a, b, shape in zip(ends, ends[1:], shapes)
        ),
        fields.ambient_curvature,
    )


def stencil_fields(fields, step):
    """fields whose Moebius requests of order 2 are one stencil of the step over the
    values of their order-0 request, which they answer as before; other orders are
    refused."""

    def jets(pts, order=2):
        if order not in (0, 2):
            raise ValueError(f"the stencil request has order 0 or 2, not {order}")
        return fields.jets(pts, 0) if order == 0 else stencil_jets(fields, pts, step)

    return dataclasses.replace(fields, jets=jets)


def nested_fd_fields(imm, step):
    """The fields of imm differenced by the stencil of the step: the nested-FD pipeline."""
    return stencil_fields(fields_from_immersion(imm), step)


def values(fields, pts):
    """(I, h, rho, H) at pts, the values of the fields' order-0 request."""
    request = fields.jets(np.atleast_2d(pts), 0)
    return request.g.value, request.h.value, request.rho.value, request.mean.value


def _part(fields, i):
    """pts -> quantity i (0: I, 1: h, 2: rho, 3: H) of its own order-0 request."""
    return lambda pts: values(fields, pts)[i]


def _metric_at(fields, p):
    return require_symmetric(_part(fields, 0)(p)[0], tol=1e-8, what="first fundamental form")


def _shape_at(fields, p):
    return require_symmetric(_part(fields, 1)(p)[0], tol=1e-6, what="second fundamental form")


def _scalar_at(fields, i, p):
    return float(_part(fields, i)(p)[0])


def log_rho(fields):
    return lambda pts: np.log(_part(fields, 2)(pts))


def moebius_metric_field(fields):
    def field(pts):
        return _part(fields, 2)(pts)[:, None, None] ** 2 * _part(fields, 0)(pts)

    return field


def moebius_form(fields, p, step):
    g = _metric_at(fields, p)
    h = _shape_at(fields, p)
    rho = _scalar_at(fields, 2, p)
    mean = _scalar_at(fields, 3, p)
    frame = gram_schmidt_frame(g)
    h_frame = frame.T @ h @ frame
    e_mean = frame.T @ diff1(_part(fields, 3), p, step)
    e_logrho = frame.T @ diff1(log_rho(fields), p, step)
    n = g.shape[0]
    return -(e_mean + (h_frame - mean * np.eye(n)) @ e_logrho) / rho / rho


def blaschke_A(fields, p, step):
    g = _metric_at(fields, p)
    h = _shape_at(fields, p)
    rho = _scalar_at(fields, 2, p)
    mean = _scalar_at(fields, 3, p)
    n = g.shape[0]
    frame = gram_schmidt_frame(g)
    h_frame = frame.T @ h @ frame
    _, d_logrho, dd_logrho = jet(log_rho(fields), p, step)
    dg = diff1(_part(fields, 0), p, step)
    ginv = np.linalg.inv(g)
    bracket = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, bracket)
    hess = dd_logrho - np.einsum("kij,k->ij", gamma, d_logrho)
    e_logrho = frame.T @ d_logrho
    grad2 = float(d_logrho @ ginv @ d_logrho)
    iso = 0.5 * (fields.ambient_curvature - mean**2 - grad2)
    a_theta = (
        np.outer(e_logrho, e_logrho) - frame.T @ hess @ frame + mean * h_frame + iso * np.eye(n)
    )
    return a_theta / rho**2


def moebius_data(fields, p, step):
    p = np.asarray(p, dtype=float)
    g = _metric_at(fields, p)
    h = _shape_at(fields, p)
    rho, mean = moebius_density(g, h)
    frame = gram_schmidt_frame(g)
    b = (frame.T @ h @ frame - mean * np.eye(g.shape[0])) / rho
    a = blaschke_A(fields, p, step)
    wb, _ = jacobi_eigh(b)
    wa, _ = jacobi_eigh(a)
    return MoebiusData(
        point=p,
        rho=rho,
        H=mean,
        g_moebius=rho**2 * g,
        B=b,
        A=a,
        C=moebius_form(fields, p, step),
        # numpy's route to the principal curvatures, not the I-frame solve under test
        principal_curvatures=np.sort(np.linalg.eigvals(np.linalg.solve(g, h)).real)[::-1],
        B_eigenvalues=wb[::-1].copy(),
        A_eigenvalues=wa[::-1].copy(),
    )


def moebius_scalar(fields, p, step):
    p = np.asarray(p, dtype=float)
    direct = metric_field_curvature(moebius_metric_field(fields), p, step).scalar
    base = metric_field_curvature(_part(fields, 0), p, step)
    via = conformal_scalar(base, log_rho(fields), p, step)
    return MoebiusScalarResult(direct=float(direct), conformal_route=float(via))
