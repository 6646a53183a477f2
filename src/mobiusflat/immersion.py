"""Immersed hypersurfaces given by the jet of their chart map.

The handle carries one map, its jet: jet(pts, order) gives the partials of
f: (K, m) -> (K, N) of order 0..order at the points, level j of shape
(K, m, ..., m, N) (the layout of ``fd.jet_batch`` at order 2), together with
chart bounds and an orientation seed.  Every handle carries a jet; one
without is refused.  Calling the handle gives level 0 of its jet, so every
value a handle returns comes from the one formula its derivatives come from.
Everything downstream is computed from one jet evaluation per point set: I,
II and the normals from the 2-jet, and the k-jets of I, II and I^-1
(``fundamental_form_jets``, what a Moebius request of order k reads) from
the (k + 2)-jet, in the truncated Taylor arithmetic of ``jets``.  The
generators' jets are exact at any order.

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
from .jets import Jet, compose, contract, inverse, power_derivatives

EUCLIDEAN = "euclidean"
UNIT_SPHERE = "unit-sphere"

_SPHERE_TOL = 1e-12
# det I at or below this, relative to max(1, max|I|)^m, is a rank-deficient jacobian
_RANK_FLOOR = 1e-18


@dataclass(frozen=True)
class ImmersionHandle:
    """A parametric map from an m-chart into R^N, given by its jet."""

    chart_dimension: int
    ambient_dimension: int
    # jet(pts, order): the map's partials of order 0..order, level j
    # (K, m, ..., m, N), in the layout of fd.jet_batch
    jet: Callable[..., tuple[np.ndarray, ...]]
    ambient_kind: str = EUCLIDEAN
    orientation_seed: np.ndarray | None = None
    base_point: np.ndarray | None = None
    domain: tuple[tuple[float, float], ...] | None = None
    name: str = ""
    analytic_fields: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not callable(self.jet):
            raise InputError(f"immersion {self.name or '(unnamed)'} has no jet")
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
        """The values (K, N) at pts: level 0 of the jet, with every check of
        ``evaluate_jet``."""
        return self.evaluate_jet(pts, 0)[0]

    def evaluate_jet(self, pts: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        """The partials of order 0..order at pts: values (K, N), first (K, m, N),
        second (K, m, m, N) and so on.

        Checks the chart dimension, the domain, the shape of every level and,
        in the sphere, the norm of the values.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        k, m, n = pts.shape[0], self.chart_dimension, self.ambient_dimension
        if pts.shape[1] != m:
            raise InputError(f"expected chart dimension {m}, got {pts.shape[1]}")
        self.check_domain(pts)
        levels = tuple(np.asarray(x, dtype=float) for x in self.jet(pts, order))
        if [x.shape for x in levels] != [(k,) + (m,) * j + (n,) for j in range(order + 1)]:
            raise InputError("jet returned wrongly shaped levels")
        if self.ambient_kind == UNIT_SPHERE:
            r = np.linalg.norm(levels[0], axis=1)
            worst = float(np.max(np.abs(r - 1.0))) if r.size else 0.0
            if worst > _SPHERE_TOL:
                raise DegenerateGeometryError(
                    f"sphere-ambient image leaves the unit sphere by {worst:.3e}"
                )
        return levels


# ---------------------------------------------------------------------------
# derivatives of the immersion
#
# Each function takes the derivatives of f from the handle's jet: one jet
# evaluation per point set, of order 2 (order k + 2 for the k-jets of the forms).


def jacobian_batch(imm: ImmersionHandle, pts: np.ndarray) -> np.ndarray:
    """d f / d x_a as columns: returns (K, N, m)."""
    return np.swapaxes(imm.evaluate_jet(pts)[1], 1, 2)



def first_fundamental_form_batch(imm: ImmersionHandle, pts: np.ndarray) -> np.ndarray:
    jac = jacobian_batch(imm, pts)
    gram = np.einsum("kna,knb->kab", jac, jac)
    _require_full_rank(gram)
    return gram



def _require_full_rank(gram: np.ndarray) -> None:
    scale = np.maximum(1.0, np.abs(gram).max(axis=(-2, -1))) ** gram.shape[-1]
    det = np.linalg.det(gram)
    if np.any(det <= _RANK_FLOOR * scale):
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


def _raw_normal(imm: ImmersionHandle, pos: np.ndarray, jac: np.ndarray) -> np.ndarray:
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


def _raw_normal_batch(imm: ImmersionHandle, pts: np.ndarray) -> np.ndarray:
    pos, d1, _ = imm.evaluate_jet(pts)
    return _raw_normal(imm, pos, np.swapaxes(d1, 1, 2))


def orientation_sign(imm: ImmersionHandle) -> float:
    """+1 or -1: the sign that points the normal at the base point along the seed."""
    if imm.orientation_seed is None or imm.base_point is None:
        return 1.0
    raw0 = _raw_normal_batch(imm, imm.base_point[None, :])[0]
    dot = float(raw0 @ imm.orientation_seed)
    if dot == 0.0:
        raise DegenerateGeometryError("orientation seed is orthogonal to the normal at base point")
    return 1.0 if dot > 0.0 else -1.0


def unit_normal_batch(imm: ImmersionHandle, pts: np.ndarray) -> np.ndarray:
    return orientation_sign(imm) * _raw_normal_batch(imm, pts)



def fundamental_form_jets(
    imm: ImmersionHandle, pts: np.ndarray, sign: float | None = None, order: int = 2
) -> tuple[Jet, Jet, Jet]:
    """The jets of I, II and I^-1 to the order at each point, from one jet of the
    immersion of order + 2.

    I_ab = <d_a f, d_b f> and h_ab = <d_a d_b f, nu> in the jet arithmetic.
    The unit normal nu near a point is the normalized projection of its
    value nu0 there onto the normal line, nu0 - T^T I^-1 T nu0 with T the
    tangent vectors d_a f (minus f <f, nu0> for sphere-ambient immersions,
    where |f| = 1 and f is orthogonal to T), which stays parallel to nu.
    sign is the handle's orientation sign, resolved here when not given.
    """
    levels = imm.evaluate_jet(pts, order + 2)
    tangent, hess = Jet(levels[1 : order + 2]), Jet(levels[2:])  # (m, N) and (m, m, N) fields
    first = contract("an,bn->ab", tangent, tangent)
    _require_full_rank(first.value)
    if sign is None:
        sign = orientation_sign(imm)
    nu0 = Jet.constant(sign * _raw_normal(imm, levels[0], np.swapaxes(levels[1], 1, 2)), order)
    first_inverse = inverse(first)
    along = contract("ab,b->a", first_inverse, contract("an,n->a", tangent, nu0))
    projected = nu0 - contract("a,an->n", along, tangent)
    if imm.ambient_kind == UNIT_SPHERE:
        position = Jet(levels[: order + 1])
        projected = projected - contract(",n->n", contract("n,n->", position, nu0), position)
    norm2 = contract("n,n->", projected, projected)
    nu = contract(",n->n", compose(norm2, power_derivatives(norm2.value, -0.5, order)), projected)
    return first, contract("abn,n->ab", hess, nu), first_inverse


def second_fundamental_form_batch(imm: ImmersionHandle, pts: np.ndarray) -> np.ndarray:
    """h_ab = <d^2 f / dx_a dx_b, normal>: returns (K, m, m), from one 2-jet.

    The normal is that of ``unit_normal_batch``; the order-0
    ``fundamental_form_jets``, whose normal is projected in the jet
    arithmetic, gives the same h to rounding.  For sphere-ambient immersions
    this is the shape tensor within the unit sphere: the ambient-sphere
    correction to the second derivative is along the position vector, which
    the normal is orthogonal to.
    """
    pos, d1, hess = imm.evaluate_jet(pts)  # hess: (K, m, m, N)
    jac = np.swapaxes(d1, 1, 2)
    _require_full_rank(np.einsum("kna,knb->kab", jac, jac))
    return np.einsum("kabn,kn->kab", hess, orientation_sign(imm) * _raw_normal(imm, pos, jac))

