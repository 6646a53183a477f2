import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflat.errors import ChartDomainError, DegenerateGeometryError, InputError
from mobiusflat.fd import diff1_batch, jet_batch
from mobiusflat.immersion import (
    ImmersionHandle,
    first_fundamental_form,
    first_fundamental_form_batch,
    fundamental_form_jets,
    jacobian,
    second_fundamental_form,
    second_fundamental_form_batch,
    unit_normal,
    unit_normal_batch,
)
from mobiusflat.zoo import inverse_stereographic, sphere_chart

import fd_oracle
from fd_oracle import with_fd_jet
from conftest import FD_STEP as STEP
from conftest import fd_handle as handle
from conftest import N_DIM, interior_points, moebius_B, principal_curvatures


def graph_surface():
    def fn(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([x, y, np.sin(x) * np.cos(y)], axis=1)

    return handle(
        2, 3, fn, orientation_seed=np.array([0.0, 0.0, 1.0]), base_point=np.array([0.3, 0.2])
    )


class TestJacobian:
    def test_identity_map(self):
        ident = handle(2, 2, lambda pts: np.atleast_2d(pts).copy())
        j = jacobian(ident, np.array([0.4, -1.7]))
        assert np.allclose(j, np.eye(2), atol=1e-12)

    def test_stereographic_lift_at_origin(self):
        # columns orthogonal, each of norm 2: the conformal factor at 0
        lift = handle(3, 4, inverse_stereographic)
        j = jacobian(lift, np.zeros(3))
        assert np.allclose(j.T @ j, 4.0 * np.eye(3), atol=1e-10)

    def test_domain_error_names_coordinate(self):
        fn = lambda pts: np.atleast_2d(pts).copy()
        imm = handle(2, 2, fn, domain=((0.0, 1.0), (-10.0, 10.0)))
        with pytest.raises(ChartDomainError, match="coordinate 0"):
            jacobian(imm, np.array([0.0005, 0.0]))


class TestFundamentalForms:
    def test_graph_first_form(self):
        imm = graph_surface()
        p = np.array([0.3, 0.2])
        g = first_fundamental_form(imm, p)
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
            first_fundamental_form(imm, np.array([0.1, 0.1]))

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
        p = np.array([1.0, 2.0])
        eta = unit_normal(imm, p)
        assert np.allclose(eta, sphere_chart(p[None, :])[0], atol=1e-9)

    def test_seed_flip_flips_everything(self):
        imm = graph_surface()
        flipped = handle(
            2,
            3,
            imm.evaluator,
            orientation_seed=-imm.orientation_seed,
            base_point=imm.base_point,
        )
        p = np.array([0.5, -0.4])
        eta = unit_normal(imm, p)
        assert np.allclose(unit_normal(flipped, p), -eta, atol=1e-12)
        h = second_fundamental_form(imm, p)
        h_flip = second_fundamental_form(flipped, p)
        assert np.allclose(h_flip, -h, atol=1e-10)
        lam = principal_curvatures(first_fundamental_form(imm, p), h)
        lam_flip = principal_curvatures(first_fundamental_form(imm, p), h_flip)
        assert np.allclose(np.sort(lam_flip), np.sort(-lam), atol=1e-10)

    def test_normal_orthogonality(self):
        imm = graph_surface()
        p = np.array([0.7, 0.1])
        eta = unit_normal(imm, p)
        j = jacobian(imm, p)
        assert abs(np.linalg.norm(eta) - 1.0) < 1e-12
        assert np.max(np.abs(j.T @ eta)) < 1e-10


class TestOneJet:
    """The second form from one jet equals the separate stencils bit for bit."""

    @pytest.mark.parametrize("surface", ["graph", "torus"])
    def test_forms_match_separate_stencils(self, surface, request):
        if surface == "graph":
            imm, pts = graph_surface(), np.array([[0.3, 0.2], [0.7, 0.1], [-1.1, 0.4]])
        else:
            # the FD route: the handle's exact jet is replaced by the FD jet
            imm = with_fd_jet(request.getfixturevalue("torus"), STEP)
            pts = interior_points(imm, 5, seed=3)
        hess = fd_oracle.diff2_batch(imm, pts, STEP)
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
    """The jet path applies every check of the evaluator path."""

    def test_domain_error(self, rotational):
        off = rotational.base_point.copy()
        off[0] = rotational.domain[0][1] + 0.01
        with pytest.raises(ChartDomainError, match="coordinate 0"):
            fundamental_form_jets(rotational, off[None, :], sign=1.0, order=0)
        with pytest.raises(InputError, match="chart dimension"):
            rotational.evaluate_jet(off[None, 1:])

    def test_unit_sphere_tolerance(self, torus):
        def off_sphere(pts, order):
            values, d1, d2 = torus.jet(pts, order)
            return (1.0 + 1e-9) * values, d1, d2

        imm = dataclasses.replace(torus, jet=off_sphere)
        with pytest.raises(DegenerateGeometryError, match="unit sphere"):
            fundamental_form_jets(imm, torus.base_point[None, :], sign=1.0, order=0)

    def test_derivative_shapes(self, torus):
        def flat(pts, order):
            values, d1, d2 = torus.jet(pts, order)
            return values, d1, d2[:, 0]

        with pytest.raises(InputError, match="wrongly shaped"):
            dataclasses.replace(torus, jet=flat).evaluate_jet(torus.base_point)



class TestConstruction:
    """Every handle carries a jet; the FD one is a constructor of its own."""

    def test_handle_without_jet_refused(self, torus):
        with pytest.raises(InputError, match="no jet"):
            dataclasses.replace(torus, jet=None)
        with pytest.raises(InputError, match="no jet"):
            ImmersionHandle(chart_dimension=2, ambient_dimension=3, evaluator=sphere_chart)

    def test_with_fd_jet_is_one_fd_jet_of_the_handle(self, torus):
        calls = []

        def evaluator(pts):
            calls.append(pts.shape[0])
            return torus.evaluator(pts)

        imm = with_fd_jet(dataclasses.replace(torus, evaluator=evaluator), STEP)
        pts = interior_points(imm, 3, seed=2)
        got = imm.evaluate_jet(pts)
        ref = jet_batch(imm, pts, STEP)
        assert all(np.array_equal(x, y) for x, y in zip(got, ref))
        assert calls == [3 * (5 * N_DIM + 16 * N_DIM * (N_DIM - 1) // 2)] * 2
        assert np.array_equal(got[1], diff1_batch(imm, pts, STEP))


class TestPrincipalCurvatures:
    def test_unit_sphere_is_umbilic(self):
        imm = handle(
            2,
            3,
            sphere_chart,
            orientation_seed=-sphere_chart(np.array([[1.2, 0.8]]))[0],
            base_point=np.array([1.2, 0.8]),
        )
        p = np.array([1.4, 2.2])
        lam = principal_curvatures(
            first_fundamental_form(imm, p), second_fundamental_form(imm, p)
        )
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
            return imm.evaluator((pts - b) @ np.linalg.inv(a).T)

        q = a @ p + b
        imm2 = handle(
            2,
            3,
            reparam,
            orientation_seed=imm.orientation_seed,
            base_point=q,
        )
        lam1 = principal_curvatures(
            first_fundamental_form(imm, p), second_fundamental_form(imm, p)
        )
        lam2 = principal_curvatures(
            first_fundamental_form(imm2, q), second_fundamental_form(imm2, q)
        )
        assert np.allclose(lam1, lam2, atol=1e-10)
