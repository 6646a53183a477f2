import numpy as np
import pytest

from mobiusflat import checks, curvature
from mobiusflat.curvature import (
    Convention,
    codazzi_defect,
    codazzi_defect_batch,
    conformal_scalar,
    convert_scalar,
    covariant_derivative,
    curvature_batch,
    metric_field_curvature,
    metric_field_curvature_batch,
    riemann_jet,
    ricci_jet,
    schouten_codazzi_defects,
    schouten_tensor,
)
from mobiusflat.errors import DegenerateGeometryError, InputError
from mobiusflat.fd import diff1, jet
from mobiusflat.jets import Jet
from mobiusflat.linalg import gram_schmidt_frame
from mobiusflat.moebius import fields_from_immersion
from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    equilibrium_kappa,
    kappa_accel,
    sine_curvature_trajectory,
)
from mobiusflat.zoo import warped_metric_jet

import curvature_oracle
import fd_oracle
import moebius_oracle
from zoo_oracle import sphere_chart_metric
from conftest import interior_points

FINE = 0.005


def flat_field(m):
    def field(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.eye(m), (pts.shape[0], m, m)).copy()

    return field


def conformal_field(m, u):
    """e^{2u} * euclidean metric on R^m."""

    def field(pts):
        pts = np.atleast_2d(pts)
        return np.exp(2.0 * u(pts))[:, None, None] * np.eye(m)

    return field


def warped_field(n, eps, kappa):
    """kappa(s)^2 (ds^2 + cross-section of curvature -eps), s = first coord."""

    def field(pts):
        pts = np.atleast_2d(pts)
        k = pts.shape[0]
        out = np.zeros((k, n, n))
        out[:, 0, 0] = 1.0
        if eps == 0:
            idx = np.arange(1, n)
            out[:, idx, idx] = 1.0
        elif eps == -1:
            out[:, 1:, 1:] = sphere_chart_metric(pts[:, 1:])
        else:  # hyperbolic cross-section, half-space coordinates (t, y...)
            idx = np.arange(1, n)
            out[:, idx, idx] = 1.0 / pts[:, 1][:, None] ** 2
        return kappa(pts[:, 0])[:, None, None] ** 2 * out

    return field


def warped_scalar_closed_form(n, eps, k, ks, kss):
    """Full-trace scalar of kappa^2 (ds^2 + I_{-eps}): the independent oracle.

    R = (n-1) kappa^-2 [ -(n-2) eps - 2 w'' - (n-2) w'^2 ],  w = log kappa.
    """
    w1 = ks / k
    w2 = kss / k - (ks / k) ** 2
    return (n - 1) / k**2 * (-(n - 2) * eps - 2.0 * w2 - (n - 2) * w1**2)


def warped_point(n, value_first, rest=None):
    p = np.full(n, 0.5 * np.pi) if rest is None else np.full(n, rest)
    p[0] = value_first
    return p


def lowered_riemann(field, p, step):
    """R_abcd in chart coordinates at p: level 0 of ``riemann_jet`` on the field's
    stencil 2-jet, lowered by the metric."""
    g, dg, ddg = (x[None] for x in jet(field, p, step))
    riem_up = riemann_jet(Jet([g, dg, ddg]))[2].value
    return np.einsum("ae,ebcd->abcd", g[0], riem_up[0])


def riemann_symmetry_residuals(r):
    """Max-abs residuals of the first-pair antisymmetry, the pair exchange and the
    first Bianchi sum of a lowered Riemann tensor; antisymmetry in the last pair
    is exact by construction and not reported."""
    return {
        "antisym_first_pair": float(np.max(np.abs(r + np.einsum("ijkl->jikl", r)))),
        "pair_exchange": float(np.max(np.abs(r - np.einsum("ijkl->klij", r)))),
        "bianchi_first": float(
            np.max(np.abs(r + np.einsum("ijkl->iklj", r) + np.einsum("ijkl->iljk", r)))
        ),
    }


def schouten(bundle, convention=Convention.FULL_TRACE):
    """``schouten_tensor`` of a one-point bundle, in chart coordinates."""
    levels = (bundle.metric, bundle.ricci, np.asarray(bundle.scalar))
    return schouten_tensor(*(Jet([x[None]]) for x in levels), convention).value[0]


class TestKnownScalars:
    def test_flat_is_flat(self):
        p = np.array([0.3, -1.0, 2.0, 0.1])
        b = metric_field_curvature(flat_field(4), p, FINE)
        assert np.max(np.abs(lowered_riemann(flat_field(4), p, FINE))) < 1e-9
        assert np.max(np.abs(b.ricci)) < 1e-9
        assert abs(b.scalar) < 1e-9

    def test_round_two_sphere(self):
        field = lambda pts: sphere_chart_metric(np.atleast_2d(pts))
        b = metric_field_curvature(field, np.array([1.1, 0.7]), FINE)
        assert b.scalar == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 4])
    def test_round_sphere_scalar_and_ricci(self, n):
        field = lambda pts: sphere_chart_metric(np.atleast_2d(pts))
        p = np.linspace(1.0, 1.8, n)
        b = metric_field_curvature(field, p, FINE)
        assert b.scalar == pytest.approx(n * (n - 1), abs=1e-7)
        assert np.allclose(b.ricci, (n - 1) * b.metric, atol=1e-7)

    def test_hyperbolic_space(self):
        def field(pts):
            pts = np.atleast_2d(pts)
            return np.eye(3) / pts[:, 0][:, None, None] ** 2

        b = metric_field_curvature(field, np.array([0.8, 0.0, 0.0]), FINE)
        assert b.scalar == pytest.approx(-6.0, abs=2e-7)

    def test_constant_kappa_product_sphere_section(self):
        # kappa^2 (ds^2 + I_{S^{n-1}}): full-trace scalar (n-1)(n-2)/kappa^2
        n, k0 = 4, 1.3
        field = warped_field(n, -1, lambda s: np.full_like(s, k0))
        p = warped_point(n, 0.2)
        b = metric_field_curvature(field, p, FINE)
        assert b.scalar == pytest.approx((n - 1) * (n - 2) / k0**2, rel=1e-7)

    def test_warped_nonconstant_matches_closed_form(self):
        n = 4
        kap = lambda s: 1.0 + 0.3 * np.sin(s)
        for eps, rest in [(0, 0.3), (-1, 0.5 * np.pi), (1, 1.2)]:
            field = warped_field(n, eps, kap)
            for s0 in (0.4, 1.1):
                p = warped_point(n, s0, rest)
                b = metric_field_curvature(field, p, FINE)
                k, ks, kss = 1 + 0.3 * np.sin(s0), 0.3 * np.cos(s0), -0.3 * np.sin(s0)
                assert b.scalar == pytest.approx(
                    warped_scalar_closed_form(n, eps, k, ks, kss), rel=1e-6
                )

    def test_degenerate_metric_rejected(self):
        def field(pts):
            pts = np.atleast_2d(pts)
            return np.broadcast_to(np.diag([1.0, -1.0]), (pts.shape[0], 2, 2)).copy()

        with pytest.raises(DegenerateGeometryError):
            metric_field_curvature(field, np.zeros(2), FINE)


class TestConventions:
    def test_half_is_sum_over_pairs(self):
        field = lambda pts: sphere_chart_metric(np.atleast_2d(pts))
        p = np.array([1.2, 0.9, 2.1])
        b = metric_field_curvature(field, p, FINE)
        half = convert_scalar(b.scalar, Convention.FULL_TRACE, Convention.HALF_TRACE, 3)
        on_frame = fd_oracle.frame_components(
            lowered_riemann(field, p, FINE), gram_schmidt_frame(b.metric)
        )
        explicit = sum(on_frame[i, j, i, j] for i in range(3) for j in range(3) if i > j)
        assert half == pytest.approx(explicit, rel=1e-12)
        assert b.scalar == pytest.approx(2 * half)
        normalized = convert_scalar(b.scalar, Convention.FULL_TRACE, Convention.NORMALIZED, 3)
        assert normalized == pytest.approx(2 * half / (3 * 2))

    def test_convert_scalar_round_trip(self):
        v = 7.3
        for src in Convention:
            for dst in Convention:
                w = convert_scalar(v, src, dst, 5)
                assert convert_scalar(w, dst, src, 5) == pytest.approx(v)


class TestSymmetriesAndConvergence:
    def test_residuals_small_on_analytic_field(self):
        field = warped_field(4, -1, lambda s: 1.0 + 0.3 * np.sin(s))
        res = riemann_symmetry_residuals(lowered_riemann(field, warped_point(4, 0.7), FINE))
        assert max(res.values()) < 1e-7

    def test_fourth_order_convergence(self):
        field = warped_field(4, -1, lambda s: 1.0 + 0.3 * np.sin(s))
        p = warped_point(4, 0.7)
        k, ks, kss = (
            1 + 0.3 * np.sin(0.7),
            0.3 * np.cos(0.7),
            -0.3 * np.sin(0.7),
        )
        exact = warped_scalar_closed_form(4, -1, k, ks, kss)
        errs = []
        for h in (0.16, 0.08, 0.04):
            b = metric_field_curvature(field, p, h)
            errs.append(abs(b.scalar - exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 3.5)

    def test_symmetry_residuals_roundoff_exact(self):
        # the curvature is assembled as the exact Riemann algebra of the
        # differenced metric 2-jet, so the pair symmetries and the first
        # Bianchi sum hold to roundoff at every step; truncation shows up
        # only as displacement of the jet (measured by the value-error
        # convergence tests below), never as symmetry violation
        def field(pts):
            pts = np.atleast_2d(pts)
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            out = np.zeros((pts.shape[0], 3, 3))
            out[:, 0, 0] = 1.0 + 0.2 * np.sin(x) * np.cos(y)
            out[:, 1, 1] = 1.0 + 0.2 * np.cos(x + z)
            out[:, 2, 2] = 1.0 + 0.2 * np.sin(y + z)
            out[:, 0, 1] = out[:, 1, 0] = 0.15 * np.sin(x + y)
            out[:, 1, 2] = out[:, 2, 1] = 0.15 * np.cos(y) * np.sin(z)
            out[:, 0, 2] = out[:, 2, 0] = 0.1 * np.sin(z - x)
            return out

        p = np.array([0.4, -0.3, 0.7])
        for h in (0.2, 0.1, 0.05):
            res = riemann_symmetry_residuals(lowered_riemann(field, p, h))
            assert max(res.values()) < 1e-12, (h, res)


class TestConformalScalar:
    def test_zero_u_is_identity(self):
        field = warped_field(3, -1, lambda s: np.ones_like(s))
        p = warped_point(3, 0.4)
        base = metric_field_curvature(field, p, FINE)
        u = lambda pts: np.zeros(np.atleast_2d(pts).shape[0])
        assert conformal_scalar(base, u, p, FINE) == pytest.approx(base.scalar, rel=1e-10)

    def test_constant_u_is_homothety(self):
        field = lambda pts: sphere_chart_metric(np.atleast_2d(pts))
        p = np.array([1.2, 0.8])
        base = metric_field_curvature(field, p, FINE)
        c = 0.37
        u = lambda pts: np.full(np.atleast_2d(pts).shape[0], c)
        assert conformal_scalar(base, u, p, FINE) == pytest.approx(
            np.exp(-2 * c) * base.scalar, rel=1e-9
        )

    def test_stereographic_factor_gives_round_sphere(self):
        # e^{2u} * flat with u = log(2/(1+|x|^2)) on R^2: scalar 2 at 5 points
        u = lambda pts: np.log(2.0 / (1.0 + np.sum(np.atleast_2d(pts) ** 2, axis=1)))
        rng = np.random.default_rng(2)
        for p in rng.uniform(-1.5, 1.5, size=(5, 2)):
            base = metric_field_curvature(flat_field(2), p, FINE)
            assert conformal_scalar(base, u, p, FINE) == pytest.approx(2.0, abs=1e-8)

    def test_two_route_agreement_on_smooth_field(self):
        # direct curvature of e^{2u} delta vs the conformal-change route
        def u(pts):
            pts = np.atleast_2d(pts)
            return 0.3 * np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + 0.1 * pts[:, 2]

        field = conformal_field(4, u)
        rng = np.random.default_rng(3)
        for p in rng.uniform(-1.0, 1.0, size=(4, 4)):
            direct = metric_field_curvature(field, p, FINE).scalar
            base = metric_field_curvature(flat_field(4), p, FINE)
            via = conformal_scalar(base, u, p, FINE)
            assert abs(direct - via) < 1e-5


class TestSchouten:
    def test_flat_is_zero(self):
        b = metric_field_curvature(flat_field(4), np.zeros(4), FINE)
        assert np.max(np.abs(schouten(b))) < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_round_sphere_value(self, n):
        # Ricci = (n-1) g and full R = n(n-1) give S = (n/2 - 1) g
        field = lambda pts: sphere_chart_metric(np.atleast_2d(pts))
        p = np.linspace(1.0, 1.7, n)
        b = metric_field_curvature(field, p, FINE)
        s = schouten(b, Convention.FULL_TRACE)
        assert np.allclose(s, (n / 2.0 - 1.0) * b.metric, atol=1e-7)

    def test_dimension_guard(self):
        b = metric_field_curvature(flat_field(2), np.zeros(2), FINE)
        with pytest.raises(InputError):
            schouten(b)


class TestCodazzi:
    def test_flat_identity_field_is_parallel(self):
        sfield = lambda pts: np.broadcast_to(
            0.7 * np.eye(4), (np.atleast_2d(pts).shape[0], 4, 4)
        ).copy()
        d = codazzi_defect(sfield, flat_field(4), np.zeros(4), FINE)
        assert d < 1e-12

    def test_conformally_flat_metric_has_codazzi_schouten(self):
        def u(pts):
            pts = np.atleast_2d(pts)
            return 0.25 * np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + 0.1 * pts[:, 3]

        field = conformal_field(4, u)
        step = 0.02
        sfield = curvature_oracle.schouten_coordinate_field(field, step, Convention.FULL_TRACE)
        d = codazzi_defect(sfield, field, np.array([0.4, -0.2, 0.7, 0.1]), step)
        assert d < 2e-6

    def test_generic_metric_fails_codazzi(self):
        def field(pts):
            pts = np.atleast_2d(pts)
            out = np.broadcast_to(np.eye(4), (pts.shape[0], 4, 4)).copy()
            out[:, 0, 0] = 1.0 + 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 1])
            return out

        step = 0.02
        sfield = curvature_oracle.schouten_coordinate_field(field, step, Convention.FULL_TRACE)
        d = codazzi_defect(sfield, field, np.array([0.4, -0.2, 0.7, 0.1]), step)
        assert d > 1e-2


SHEAR = np.array(
    [[1.0, 0.3, 0.0, 0.1], [0.0, 1.0, 0.2, 0.0], [0.1, 0.0, 1.0, 0.3], [0.0, -0.2, 0.0, 1.0]]
)


def sheared_field(pts):
    """A non-diagonal metric, so that its Gram-Schmidt frame is not symmetric."""
    pts = np.atleast_2d(pts)
    u = 0.25 * np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + 0.1 * pts[:, 3]
    out = np.exp(2.0 * u)[:, None, None] * (SHEAR.T @ SHEAR)
    out[:, 0, 0] += 0.3 * np.sin(pts[:, 1]) ** 2
    return out


class TestFrameRotationOracle:
    """One-slot-at-a-time frame contractions against the all-slots einsum."""

    @staticmethod
    def assert_close(got, oracle):
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("surface", ["torus", "rotational"])
    def test_riemann_on_moebius_metric(self, surface, request):
        imm = request.getfixturevalue(surface)
        field = moebius_oracle.moebius_metric_field(fields_from_immersion(imm))
        step = 0.02
        for p in interior_points(imm, 2, seed=11):
            riem = lowered_riemann(field, p, step)
            frame = gram_schmidt_frame(jet(field, p, step)[0])
            on_frame = curvature._on_frame(riem[None], frame[None])[0]
            self.assert_close(on_frame, fd_oracle.frame_components(riem, frame))

    def test_riemann_and_codazzi_on_sheared_metric(self):
        step = 0.02
        sfield = curvature_oracle.schouten_coordinate_field(
            sheared_field, step, Convention.FULL_TRACE
        )
        for p in (np.array([0.4, -0.2, 0.7, 0.1]), np.array([-0.9, 0.3, 0.0, 1.2])):
            bundle = metric_field_curvature(sheared_field, p, step)
            frame = gram_schmidt_frame(bundle.metric)
            assert np.max(np.abs(frame - frame.T)) > 0.1
            riem = lowered_riemann(sheared_field, p, step)
            on_frame = curvature._on_frame(riem[None], frame[None])[0]
            self.assert_close(on_frame, fd_oracle.frame_components(riem, frame))

            s0 = sfield(p[None, :])[0]
            nabla = covariant_derivative(s0, diff1(sfield, p, step), bundle.christoffel)
            oracle = fd_oracle.frame_components(nabla, frame)
            self.assert_close(curvature._on_frame(nabla[None], frame[None])[0], oracle)
            defect = np.max(np.abs(oracle - np.einsum("ijk->ikj", oracle)))
            assert abs(codazzi_defect(sfield, sheared_field, p, step) - defect) <= 1e-13 * np.max(
                np.abs(oracle)
            )


def control_field(pts):
    """The non-conformally-flat control metric of the ``schouten_codazzi`` check."""
    pts = np.atleast_2d(pts)
    out = np.broadcast_to(np.eye(4), (pts.shape[0], 4, 4)).copy()
    out[:, 0, 0] = 1.0 + 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 1])
    return out


def counted(field):
    """field, and a list that records the number of points of each of its calls."""
    calls = []

    def wrapped(pts):
        calls.append(np.atleast_2d(pts).shape[0])
        return field(pts)

    return wrapped, calls


BATCH_STEP = 0.01


class TestBatchOracle:
    """The batch algebra against the per-point oracle it replaced, bit for bit, and
    against the oracle's frame route at round-off."""

    @staticmethod
    def assert_matches_oracle(field, pts, step=BATCH_STEP):
        batch = metric_field_curvature_batch(field, pts, step)
        assert batch.scalar.shape == (pts.shape[0],)
        for i, p in enumerate(pts):
            oracle = curvature_oracle.metric_field_curvature(field, p, step)
            for name in ("scalar", "ricci", "christoffel", "metric"):
                assert np.array_equal(getattr(batch, name)[i], getattr(oracle, name)), name
            assert batch[i].scalar == oracle.scalar
            # the frame route: R rotated into the Gram-Schmidt frame, traced there
            frame, riem_on, ricci_on, scalar_on = curvature_oracle.frame_curvature(
                *jet(field, p, step)
            )
            scale = np.max(np.abs(riem_on))
            assert np.max(np.abs(frame.T @ batch.ricci[i] @ frame - ricci_on)) <= 1e-13 * scale
            assert abs(batch.scalar[i] - scalar_on) <= 1e-13 * scale

    @pytest.mark.parametrize("surface", ["cylinder", "cone", "rotational", "torus"])
    def test_suite_moebius_metrics(self, surface, request):
        imm = request.getfixturevalue(surface)
        field = moebius_oracle.moebius_metric_field(fields_from_immersion(imm))
        self.assert_matches_oracle(field, interior_points(imm, 4, seed=5, pad=0.2))

    @pytest.mark.parametrize("eps,rest", [(-1, None), (0, 0.3), (1, 1.2)])
    def test_warped_fields(self, eps, rest):
        field = warped_field(4, eps, lambda s: 1.0 + 0.3 * np.sin(s))
        pts = np.array([warped_point(4, s0, rest) for s0 in np.linspace(0.2, 2.5, 7)])
        self.assert_matches_oracle(field, pts)

    def test_codazzi_control_field(self):
        pts = np.array([[0.4, 0.4, 0.4, 0.4], [0.9, -0.3, 0.2, 0.0], [-0.5, 1.1, 0.3, 0.7]])
        self.assert_matches_oracle(control_field, pts)
        sfield = curvature_oracle.schouten_coordinate_field(control_field, BATCH_STEP)
        defects = codazzi_defect_batch(sfield, control_field, pts, BATCH_STEP)
        expected = [
            curvature_oracle.codazzi_defect(sfield, control_field, p, BATCH_STEP) for p in pts
        ]
        assert np.array_equal(defects, expected)
        assert codazzi_defect(sfield, control_field, pts[1], BATCH_STEP) == expected[1]

    def test_front_ends_are_one_point_batches(self):
        field = warped_field(4, -1, lambda s: 1.0 + 0.3 * np.sin(s))
        p = warped_point(4, 0.7)
        bundle = metric_field_curvature(field, p, BATCH_STEP)
        oracle = curvature_oracle.metric_field_curvature(field, p, BATCH_STEP)
        assert bundle.scalar == oracle.scalar
        assert np.array_equal(bundle.ricci, oracle.ricci)
        via_jet = curvature_batch(*(x[None] for x in jet(field, p, BATCH_STEP)))[0]
        assert np.array_equal(via_jet.ricci, oracle.ricci)
        assert via_jet.scalar == oracle.scalar


def flat_jets(g):
    """A stack of metrics g (K, m, m) with zero first and second derivatives."""
    k, m = g.shape[:2]
    return g, np.zeros((k, m, m, m)), np.zeros((k, m, m, m, m))


class TestBatchErrors:
    def test_degenerate_point_is_named(self):
        g = np.tile(np.eye(3), (4, 1, 1))
        g[2] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(DegenerateGeometryError, match="at point 2"):
            curvature_batch(*flat_jets(g))

    def test_asymmetric_point_is_named(self):
        g = np.tile(np.eye(3), (4, 1, 1))
        g[1, 0, 2] = 0.5
        with pytest.raises(InputError, match="at point 1"):
            curvature_batch(*flat_jets(g))

    def test_non_finite_point_is_named(self):
        g = np.tile(np.eye(3), (3, 1, 1))
        g[2, 1, 1] = np.nan
        with pytest.raises(DegenerateGeometryError, match="at point 2"):
            curvature_batch(*flat_jets(g))

    def test_degenerate_point_of_a_field_batch(self):
        def field(pts):
            pts = np.atleast_2d(pts)
            out = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
            out[:, 1, 1] = pts[:, 0]
            return out

        pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateGeometryError, match="at point 2"):
            metric_field_curvature_batch(field, pts, BATCH_STEP)


class TestRequestCounts:
    def test_codazzi_calls_do_not_grow_with_points(self):
        # one curvature batch of the metric, and the Schouten field at the
        # points and on their stencil, however many points
        counts = []
        for k in (1, 3):
            metric, metric_calls = counted(control_field)
            sfield, schouten_calls = counted(control_field)  # any symmetric field
            pts = np.tile(np.full(4, 0.4), (k, 1)) + 0.1 * np.arange(k)[:, None]
            codazzi_defect_batch(sfield, metric, pts, BATCH_STEP)
            counts.append((len(metric_calls), len(schouten_calls)))
        assert counts[0] == counts[1] == (1, 2)


def closed_form_metric(imm):
    """The closed forms' metric table as a field, for the finite-difference oracle."""
    return lambda pts: imm.analytic_fields.first_form(np.atleast_2d(pts)).value


class TestExactCodazzi:
    """Codazzi defects from the metric's exact 3-jet, against the nested stencils."""

    @pytest.mark.parametrize("surface", ["cylinder", "cone", "rotational", "control"])
    def test_agrees_with_fd_oracle_within_its_error(self, surface, request):
        if surface == "control":
            pts = np.array([[0.4, 0.4, 0.4, 0.4], [0.9, -0.3, 0.2, 0.0]])
            metric, jet3 = control_field, checks.codazzi_control_jet(pts, 3)
        else:
            imm = request.getfixturevalue(surface)
            pts = interior_points(imm, 2, seed=4, pad=0.2)
            metric, jet3 = closed_form_metric(imm), imm.analytic_fields.first_form(pts, 3)
        exact = schouten_codazzi_defects(jet3)[0]
        errors = []
        for step in (0.04, 0.02):
            sfield = curvature_oracle.schouten_coordinate_field(metric, step)
            fd = [curvature_oracle.codazzi_defect(sfield, metric, p, step) for p in pts]
            errors.append(np.max(np.abs(np.array(fd) - exact)))
        if surface in ("cylinder", "cone"):
            # flat metrics, polynomial in the chart (Id and diag(t^2, 1, ...)): the
            # order-4 stencils are exact on them, so the oracle's error is round-off
            assert np.max(exact) <= 1e-14 and max(errors) <= 1e-10
        else:
            assert errors[0] <= 1e-5 * max(1.0, np.max(exact))
            assert errors[1] * 10 <= errors[0]

    def test_conformally_flat_defects_at_round_off(self, cone, rotational):
        for imm in (cone, rotational):
            pts = interior_points(imm, 3, seed=6, pad=0.2)
            assert np.max(schouten_codazzi_defects(imm.analytic_fields.first_form(pts, 3))) < 1e-13

    def test_conventions_differ_only_in_the_scalar_term(self, rotational):
        pts = interior_points(rotational, 2, seed=8, pad=0.2)
        jet3 = rotational.analytic_fields.first_form(pts, 3)
        rows = schouten_codazzi_defects(jet3, list(Convention))
        assert rows.shape == (3, 2)
        full = list(Convention).index(Convention.FULL_TRACE)
        assert np.array_equal(rows[full], schouten_codazzi_defects(jet3)[0])
        # the rotational metric's scalar varies, so only the full trace is Codazzi
        assert np.max(rows[full]) < 1e-13 and np.min(np.delete(rows, full, axis=0)) > 1e-5

    def test_control_jet_value_is_the_control_field(self):
        pts = np.array([[0.4, 0.4, 0.4, 0.4], [0.9, -0.3, 0.2, 0.0]])
        assert np.array_equal(checks.codazzi_control_jet(pts, 0).value, control_field(pts))

    def test_order_one_jet_starts_with_the_batch(self, rotational):
        pts = interior_points(rotational, 3, seed=2, pad=0.2)
        g = rotational.analytic_fields.first_form(pts, 3)
        ginv, gamma, riem_up = riemann_jet(g)
        ricci, scalar = ricci_jet(ginv, riem_up)
        assert (gamma.order, riem_up.order, ricci.order, scalar.order) == (2, 1, 1, 1)
        batch = curvature_batch(*g.levels[:3])
        assert np.array_equal(gamma.value, batch.christoffel)
        assert np.array_equal(ricci.value, batch.ricci)
        assert np.array_equal(scalar.value, batch.scalar)


class TestExactWarpedScalar:
    """The warped metric kappa^2 (ds^2 + I_{-eps}) from its exact 2-jet."""

    @staticmethod
    def assert_is_reference(traj, n, svals, k, ks, kss):
        expected = checks.warped_scalar_reference(n, traj.params.epsilon, k, ks, kss)
        got = curvature_batch(*checks._warped_jet(traj, n, svals).levels).scalar
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("eps", [0, 1, -1])
    def test_spirals(self, n, eps):
        big_r = checks.WARPED_AUDIT_R[eps][1]
        _, k0, ks0, s_max = checks.FAMILY_PRESETS[eps]
        kstar = equilibrium_kappa(SpiralParams(n, eps, big_r))
        if kstar is not None:
            k0, ks0 = 1.05 * kstar, 0.0
        traj = checks.spiral_trajectory(n, eps, big_r, k0, ks0, s_max, curve=False)
        svals = np.linspace(traj.s[0] + 0.2, traj.s[-1] - 0.2, 7)
        k, ks = traj.kappa_at(svals), traj.kappa_s_at(svals)
        # kappa'' from the spiral equation, not from the step polynomials
        self.assert_is_reference(traj, n, svals, k, ks, kappa_accel(traj.params, k, ks))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("eps", [0, 1, -1])
    def test_sine_control(self, n, eps):
        traj = sine_curvature_trajectory(
            n, eps, 1.15, 0.3, IntegratorControls(s_max=4.5, step=1e-3)
        )
        svals = np.linspace(0.3, 4.2, 7)
        k, ks, kss = 1.15 + 0.3 * np.sin(svals), 0.3 * np.cos(svals), -0.3 * np.sin(svals)
        self.assert_is_reference(traj, n, svals, k, ks, kss)

    @pytest.mark.parametrize("eps", [0, 1, -1])
    def test_jet_value_is_the_warped_field(self, eps):
        traj = sine_curvature_trajectory(
            4, eps, 1.15, 0.3, IntegratorControls(s_max=4.5, step=1e-3)
        )
        pts = np.array([warped_point(4, s0, {0: 0.3, 1: 1.2}.get(eps)) for s0 in (0.4, 2.2)])
        expected = warped_field(4, eps, traj.kappa_at)(pts)
        assert np.max(np.abs(warped_metric_jet(traj, pts, 0).value - expected)) <= 1e-15 * np.max(
            np.abs(expected)
        )
