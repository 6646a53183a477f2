import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflat.errors import ChartDomainError, DegenerateGeometryError, InputError
from mobiusflat.fd import diff1_batch, jet_batch
from mobiusflat.immersion import (
    ImmersionHandle,
    first_fundamental_form_batch,
    fundamental_form_jets,
    jacobian_batch,
    second_fundamental_form_batch,
    unit_normal_batch,
)

import fd_oracle
import zoo_oracle
from fd_oracle import fd_handle
from zoo_oracle import sphere_chart
from conftest import FD_STEP as STEP
from conftest import N_DIM, TORUS_R, fd_surface, interior_points, moebius_B
from conftest import principal_curvatures


def handle(m, n, f, **kw):
    """A handle over the bare map f (K, m) -> (K, n), differentiated by finite differences."""
    return fd_handle(f, STEP, chart_dimension=m, ambient_dimension=n, **kw)


def graph(pts):
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([x, y, np.sin(x) * np.cos(y)], axis=1)


def graph_surface():
    return handle(
        2, 3, graph, orientation_seed=np.array([0.0, 0.0, 1.0]), base_point=np.array([0.3, 0.2])
    )


def forms_at(imm, p):
    """(I, II) at the one chart point p, from the batch functions."""
    pts = np.asarray(p, dtype=float)[None]
    return first_fundamental_form_batch(imm, pts)[0], second_fundamental_form_batch(imm, pts)[0]


class TestJacobian:
    def test_identity_map(self):
        ident = handle(2, 2, lambda pts: np.atleast_2d(pts).copy())
        j = jacobian_batch(ident, np.array([[0.4, -1.7]]))[0]
        assert np.allclose(j, np.eye(2), atol=1e-12)

    def test_stereographic_lift_at_origin(self):
        # columns orthogonal, each of norm 2: the conformal factor at 0
        lift = handle(3, 4, zoo_oracle.inverse_stereographic)
        j = jacobian_batch(lift, np.zeros((1, 3)))[0]
        assert np.allclose(j.T @ j, 4.0 * np.eye(3), atol=1e-10)

    def test_domain_error_names_coordinate(self):
        fn = lambda pts: np.atleast_2d(pts).copy()
        imm = handle(2, 2, fn, domain=((0.0, 1.0), (-10.0, 10.0)))
        with pytest.raises(ChartDomainError, match="coordinate 0"):
            jacobian_batch(imm, np.array([[0.0005, 0.0]]))


class TestFundamentalForms:
    def test_graph_first_form(self):
        imm = graph_surface()
        p = np.array([0.3, 0.2])
        g = first_fundamental_form_batch(imm, p[None])[0]
        fx = np.cos(0.3) * np.cos(0.2)
        fy = -np.sin(0.3) * np.sin(0.2)
        expected = np.array([[1 + fx * fx, fx * fy], [fx * fy, 1 + fy * fy]])
        assert np.allclose(g, expected, atol=1e-9)

    def test_rank_deficiency_detected(self):
        def collapse(pts):
            pts = np.atleast_2d(pts)
            return np.stack([pts[:, 0], pts[:, 0], 0 * pts[:, 1]], axis=1)

        imm = handle(2, 3, collapse)
        with pytest.raises(DegenerateGeometryError):
            first_fundamental_form_batch(imm, np.array([[0.1, 0.1]]))

    def test_indefinite_first_form_refused(self):
        g, h = np.diag([1.0, -0.5]), np.eye(2)
        with pytest.raises(DegenerateGeometryError):
            principal_curvatures(g, h)
        with pytest.raises(DegenerateGeometryError):
            moebius_B(g, h, 3.0, -0.5)


class TestUnitNormal:
    def test_round_sphere_normal_is_position(self):
        imm = handle(
            2,
            3,
            sphere_chart,
            orientation_seed=sphere_chart(np.array([[1.2, 0.8]]))[0],
            base_point=np.array([1.2, 0.8]),
        )
        p = np.array([[1.0, 2.0]])
        eta = unit_normal_batch(imm, p)
        assert np.allclose(eta, sphere_chart(p), atol=1e-9)

    def test_seed_flip_flips_everything(self):
        imm = graph_surface()
        flipped = handle(
            2,
            3,
            graph,
            orientation_seed=-imm.orientation_seed,
            base_point=imm.base_point,
        )
        p = np.array([[0.5, -0.4]])
        eta = unit_normal_batch(imm, p)
        assert np.allclose(unit_normal_batch(flipped, p), -eta, atol=1e-12)
        g, h = forms_at(imm, p[0])
        h_flip = forms_at(flipped, p[0])[1]
        assert np.allclose(h_flip, -h, atol=1e-10)
        lam = principal_curvatures(g, h)
        lam_flip = principal_curvatures(g, h_flip)
        assert np.allclose(np.sort(lam_flip), np.sort(-lam), atol=1e-10)

    def test_normal_orthogonality(self):
        imm = graph_surface()
        p = np.array([[0.7, 0.1]])
        eta = unit_normal_batch(imm, p)[0]
        j = jacobian_batch(imm, p)[0]
        assert abs(np.linalg.norm(eta) - 1.0) < 1e-12
        assert np.max(np.abs(j.T @ eta)) < 1e-10


class TestOneJet:
    """The second form from one jet equals the separate stencils bit for bit."""

    @pytest.mark.parametrize("surface", ["graph", "torus"])
    def test_forms_match_separate_stencils(self, surface, request):
        if surface == "graph":
            imm, f = graph_surface(), graph
            pts = np.array([[0.3, 0.2], [0.7, 0.1], [-1.1, 0.4]])
        else:
            # the FD route: the handle's exact jet is replaced by the FD jet of
            # its map
            imm, f = fd_surface("torus", request), zoo_oracle.torus(TORUS_R)
            pts = interior_points(imm, 5, seed=3)
        hess = fd_oracle.diff2_batch(f, pts, STEP)
        h_oracle = np.einsum("kabn,kn->kab", hess, unit_normal_batch(imm, pts))
        assert np.array_equal(second_fundamental_form_batch(imm, pts), h_oracle)
        g, h, _ = fundamental_form_jets(imm, pts, order=0)
        assert np.array_equal(g.value, first_fundamental_form_batch(imm, pts))
        flipped = fundamental_form_jets(imm, pts, sign=-1.0, order=0)[1]
        assert np.array_equal(flipped.value, -h.value)

    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_order_zero_request_has_the_second_form_to_rounding(self, fixture, request):
        # the request's normal is projected in the jet arithmetic, a no-op in
        # exact arithmetic; worst measured over the four families at n = 4-7, 80
        # points each: 3.5 eps
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 5, seed=3)
        h_oracle = second_fundamental_form_batch(imm, pts)
        h = fundamental_form_jets(imm, pts, order=0)[1].value
        assert np.max(np.abs(h - h_oracle)) <= 8 * np.finfo(float).eps * np.max(np.abs(h_oracle))


class TestExactJetFrontEnd:
    """A call of the handle and a jet request apply the same checks: a call is level 0
    of the jet."""

    ROUTES = {
        "call": lambda imm, pts: imm(pts),
        "jet": lambda imm, pts: imm.evaluate_jet(pts),
    }

    def test_domain_error(self, rotational):
        off = rotational.base_point.copy()
        off[0] = rotational.domain[0][1] + 0.01
        with pytest.raises(ChartDomainError, match="coordinate 0"):
            fundamental_form_jets(rotational, off[None, :], sign=1.0, order=0)
        for read in self.ROUTES.values():
            with pytest.raises(ChartDomainError, match="coordinate 0"):
                read(rotational, off[None, :])
            with pytest.raises(InputError, match="chart dimension"):
                read(rotational, off[None, 1:])

    def test_unit_sphere_tolerance(self, torus):
        def off_sphere(pts, order):
            values, *ders = torus.jet(pts, order)
            return ((1.0 + 1e-9) * values, *ders)

        imm = dataclasses.replace(torus, jet=off_sphere)
        with pytest.raises(DegenerateGeometryError, match="unit sphere"):
            fundamental_form_jets(imm, torus.base_point[None, :], sign=1.0, order=0)
        for read in self.ROUTES.values():
            with pytest.raises(DegenerateGeometryError, match="unit sphere"):
                read(imm, torus.base_point[None, :])

    def test_derivative_shapes(self, torus):
        def narrow(pts, order):
            values, *ders = torus.jet(pts, order)
            return (values[:, 1:], *ders)

        def flat(pts, order):
            values, d1, d2 = torus.jet(pts, order)
            return values, d1, d2[:, 0]

        imm = dataclasses.replace(torus, jet=narrow)
        for read in self.ROUTES.values():
            with pytest.raises(InputError, match="wrongly shaped levels"):
                read(imm, torus.base_point)
        with pytest.raises(InputError, match="wrongly shaped levels"):
            dataclasses.replace(torus, jet=flat).evaluate_jet(torus.base_point)


class TestConstruction:
    """Every handle carries a jet; the FD one is a constructor of its own."""

    def test_handle_without_jet_refused(self, torus):
        with pytest.raises(InputError, match="no jet"):
            dataclasses.replace(torus, jet=None)
        with pytest.raises(InputError, match="no jet"):
            ImmersionHandle(chart_dimension=2, ambient_dimension=3, jet=sphere_chart(np.ones(2)))

    def test_fd_handle_is_one_fd_jet_of_the_map(self, torus):
        calls = []
        base = zoo_oracle.torus(TORUS_R)

        def f(pts):
            calls.append(pts.shape[0])
            return base(pts)

        imm = fd_handle(f, STEP, like=torus)
        pts = interior_points(imm, 3, seed=2)
        stencil = 5 * N_DIM + 16 * N_DIM * (N_DIM - 1) // 2
        got = imm.evaluate_jet(pts)
        ref = jet_batch(base, pts, STEP)
        assert all(np.array_equal(x, y) for x, y in zip(got, ref))
        assert np.array_equal(got[1], diff1_batch(base, pts, STEP))
        # a call reads the values of the FD jet: one stencil of the map, which
        # is differenced, never the handle
        assert np.array_equal(imm(pts), got[0])
        assert calls == [3 * stencil] * 2


class TestPrincipalCurvatures:
    def test_unit_sphere_is_umbilic(self):
        imm = handle(
            2,
            3,
            sphere_chart,
            orientation_seed=-sphere_chart(np.array([[1.2, 0.8]]))[0],
            base_point=np.array([1.2, 0.8]),
        )
        lam = principal_curvatures(*forms_at(imm, [1.4, 2.2]))
        assert np.allclose(lam, [1.0, 1.0], atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_affine_reparametrization_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
        b = rng.uniform(-0.5, 0.5, size=2)
        imm = graph_surface()
        p = np.array([0.3, 0.2])

        def reparam(pts):
            pts = np.atleast_2d(pts)
            return graph((pts - b) @ np.linalg.inv(a).T)

        q = a @ p + b
        imm2 = handle(
            2,
            3,
            reparam,
            orientation_seed=imm.orientation_seed,
            base_point=q,
        )
        lam1 = principal_curvatures(*forms_at(imm, p))
        lam2 = principal_curvatures(*forms_at(imm2, q))
        assert np.allclose(lam1, lam2, atol=1e-10)
