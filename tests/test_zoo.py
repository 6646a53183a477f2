import numpy as np
import pytest

from mobiusflat import zoo
from mobiusflat.checks import preset_trajectory
from mobiusflat.errors import InputError
from mobiusflat.fd import jet_batch
from mobiusflat.immersion import (
    first_fundamental_form_batch,
    fundamental_form_jets,
    second_fundamental_form_batch,
    unit_normal_batch,
)
from mobiusflat.spiral import SpiralTrajectory
from mobiusflat.zoo import (
    EPSILON_BY_FAMILY,
    build_family,
    lift_to_sphere,
    scale_immersion,
    torus_immersion,
)

import moebius_oracle
import zoo_oracle
from fd_oracle import fd_handle
from zoo_oracle import sphere_chart, sphere_chart_metric
from conftest import FD_STEP as STEP
from conftest import N_DIM, TORUS_R, interior_points, principal_curvatures, surface_map

EPS = np.finfo(float).eps


def sphere_jet(angles, order=2):
    """The jet of the spherical chart to the order: the product of the sphere factors."""
    return zoo._product_jet(zoo._sphere_factors(np.atleast_2d(angles), order))


def fd_vs_analytic(imm, f, count=8, seed=1):
    """Points, the FD forms of the map f and the closed forms of imm at the points."""
    pts = interior_points(imm, count, seed)
    fd = fd_handle(f, STEP, like=imm)  # the FD route, not the handle's exact jet
    g_fd = first_fundamental_form_batch(fd, pts)
    h_fd = second_fundamental_form_batch(fd, pts)
    g, h = moebius_oracle.values(imm.analytic_fields, pts)[:2]
    return pts, g_fd, h_fd, g, h


def check_third_and_fourth(jet4, second, pts):
    """Levels 3 and 4 of a jet against the FD jet of its level 2 (second(pts)).

    d_c (d_a d_b f) is level 3 at [a, b, c] and d_c d_d (d_a d_b f) level 4 at
    [a, b, c, d].  The FD error at step 0.01 is bounded relative to the
    level, and where it is not at rounding it falls about 16 times from step
    0.02 (the order-4 stencil's truncation).
    """

    def errors(step):
        _, d1, d2 = jet_batch(second, pts, step)  # [k, c, a, b, n] and [k, c, d, a, b, n]
        d3 = np.moveaxis(d1, 1, 3)
        d4 = np.moveaxis(np.moveaxis(d2, 1, 3), 2, 4)
        return [np.max(np.abs(jet4[3] - d3)), np.max(np.abs(jet4[4] - d4))]

    for level, coarse, fine in zip(jet4[3:], errors(0.02), errors(0.01)):
        assert fine <= 1e-5 * max(1.0, np.max(np.abs(level)))
        assert coarse <= 1e-12 or 12.0 < coarse / fine < 20.0


class TestSphereChart:
    def test_chart_on_unit_sphere(self):
        angles = np.array([[0.9, 1.1, 2.0], [1.5, 0.4, 5.0]])
        pts = sphere_jet(angles, 0)[0]
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)

    def test_chart_metric_matches_fd(self):
        angles = np.array([[0.9, 1.1, 2.0]])
        imm_handle = fd_handle(sphere_chart, STEP, chart_dimension=3, ambient_dimension=4)
        g = first_fundamental_form_batch(imm_handle, angles)
        assert np.allclose(g, sphere_chart_metric(angles), atol=1e-9)


class TestExactJet:
    """Each handle's exact jet against the FD jet (the oracle) and the closed forms."""

    # name -> (the handle from its base handle, its map from the base map)
    HANDLES = {
        "cylinder": (lambda imm: imm, lambda f: f),
        "cone": (lambda imm: imm, lambda f: f),
        "rotational": (lambda imm: imm, lambda f: f),
        "torus": (lambda imm: imm, lambda f: f),
        "cylinder+lift": (lift_to_sphere, zoo_oracle.lift),
        "cone+lift": (lift_to_sphere, zoo_oracle.lift),
        "rotational+lift": (lift_to_sphere, zoo_oracle.lift),
        "cylinder*1.5": (
            lambda imm: scale_immersion(imm, 1.5),
            lambda f: zoo_oracle.scale(f, 1.5),
        ),
        "cone*0.5": (lambda imm: scale_immersion(imm, 0.5), lambda f: zoo_oracle.scale(f, 0.5)),
        "rotational*2": (
            lambda imm: scale_immersion(imm, 2.0),
            lambda f: zoo_oracle.scale(f, 2.0),
        ),
    }

    def handle(self, name, request):
        return self.HANDLES[name][0](request.getfixturevalue(name.split("+")[0].split("*")[0]))

    @pytest.mark.parametrize("name", list(HANDLES))
    def test_jet_matches_fd_jet(self, name, request):
        imm = self.handle(name, request)
        f = self.HANDLES[name][1](surface_map(name.split("+")[0].split("*")[0], request))
        pts = interior_points(imm, 6, seed=2)
        exact = imm.evaluate_jet(pts)
        oracle = fd_handle(f, STEP, like=imm).evaluate_jet(pts)
        values = f(pts)
        assert np.max(np.abs(exact[0] - values)) <= 4e-16 * np.max(np.abs(values))
        for level, (x, ref) in enumerate(zip(exact[1:], oracle[1:]), start=1):
            # FD truncation and rounding of the order-4 stencil
            assert np.max(np.abs(x - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref))), level

    @pytest.mark.parametrize("name", list(HANDLES))
    def test_order_four_jet_matches_fd_of_the_two_jet(self, name, request):
        # levels 0-2 of the order-4 jet are the 2-jet bit for bit; levels 3 and 4
        # are the first and second partials of level 2, checked by the order-4
        # stencil on the exact 2-jet, whose error falls about 16 times when the
        # step halves
        imm = self.handle(name, request)
        pts = interior_points(imm, 4, seed=5, pad=0.2)
        jet4 = imm.evaluate_jet(pts, 4)
        assert all(map(np.array_equal, jet4[:3], imm.evaluate_jet(pts)))
        check_third_and_fourth(jet4, lambda q: imm.evaluate_jet(q)[2], pts)

    @pytest.mark.parametrize("name", list(HANDLES))
    def test_orders_zero_and_one_lead_the_two_jet(self, name, request):
        # every handle answers a jet of order 0 and 1, the leading levels of
        # its 2-jet bit for bit
        imm = self.handle(name, request)
        pts = interior_points(imm, 4, seed=23)
        jet2 = imm.evaluate_jet(pts)
        for order in (0, 1):
            jet = imm.evaluate_jet(pts, order)
            assert len(jet) == order + 1
            assert all(map(np.array_equal, jet, jet2))

    def test_sphere_chart_factors_to_order_four(self):
        angles = np.array([[0.9, 1.1, 2.0], [1.5, 0.4, 5.0]])
        jet4 = sphere_jet(angles, 4)
        assert all(map(np.array_equal, jet4[:3], sphere_jet(angles)))
        check_third_and_fourth(jet4, lambda q: sphere_jet(q)[2], angles)

    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_forms_match_closed_form(self, fixture, request):
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 8, seed=1)
        g, h = (x.value for x in fundamental_form_jets(imm, pts, order=0)[:2])
        g_closed, h_closed = moebius_oracle.values(imm.analytic_fields, pts)[:2]
        scale = np.max(np.abs(g_closed))
        assert np.max(np.abs(g - g_closed)) <= 1e-12 * scale
        assert np.max(np.abs(h - h_closed)) <= 1e-12 * scale

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_scaled_forms(self, factor, rotational):
        # f_l(l p) = l f(p): the same I, and II divided by l
        pts = interior_points(rotational, 6, seed=3)
        forms = fundamental_form_jets(scale_immersion(rotational, factor), factor * pts, order=0)
        g, h = (x.value for x in forms[:2])
        g_closed, h_closed = moebius_oracle.values(rotational.analytic_fields, pts)[:2]
        assert np.max(np.abs(g - g_closed)) <= 1e-12
        assert np.max(np.abs(factor * h - h_closed)) <= 1e-12

    @pytest.mark.parametrize("fixture", ["cylinder", "rotational"])
    def test_lift_keeps_moebius_metric(self, fixture, request):
        # the lift is conformal: rho^2 I from its jet equals the closed form
        from mobiusflat.moebius import fields_from_immersion

        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 6, seed=4)
        g, _, rho, _ = moebius_oracle.values(fields_from_immersion(lift_to_sphere(imm)), pts)
        expected = moebius_oracle.moebius_metric_field(imm.analytic_fields)(pts)
        assert np.max(np.abs(rho[:, None, None] ** 2 * g - expected)) <= 1e-12 * np.max(
            np.abs(expected)
        )

    def test_sphere_chart_jet(self):
        angles = np.array([[0.9, 1.1, 2.0], [1.5, 0.4, 5.0]])
        exact = sphere_jet(angles)
        assert np.array_equal(exact[0], sphere_chart(angles))
        oracle = jet_batch(sphere_chart, angles, STEP)
        for x, ref in zip(exact[1:], oracle[1:]):
            assert np.max(np.abs(x - ref)) <= 1e-8


class TestOneFormula:
    """Each surface is one formula, its jet: level 0 is the generator's map as it was
    written out before the jets (``zoo_oracle``), at n = 4 and 7."""

    # each generator over the spiral families, then the torus; worst measured
    # over 200 points each: 8.9e-16 (rotational, rounding in the order of its
    # products), 5.3e-16 for the lifts, and the others bit for bit
    GENERATORS = [
        *(f"{family}_immersion" for family in EPSILON_BY_FAMILY),
        "torus_immersion",
        *(f"lift_to_sphere[{family}]" for family in EPSILON_BY_FAMILY),
        *(f"scale_immersion[{family}]" for family in EPSILON_BY_FAMILY),
    ]

    @staticmethod
    def surface(family, n):
        """(handle, map) of the family at n, over the suite's preset trajectory."""
        if family == "torus":
            return torus_immersion(TORUS_R, n), zoo_oracle.torus(TORUS_R)
        traj = preset_trajectory(n, EPSILON_BY_FAMILY[family])
        return build_family(family, traj, n), getattr(zoo_oracle, family)(traj)

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_values_are_the_oracle_map(self, generator, n):
        name, _, family = generator.removesuffix("]").partition("[")
        imm, f = self.surface(family or name.removesuffix("_immersion"), n)
        if name == "lift_to_sphere":
            imm, f = lift_to_sphere(imm), zoo_oracle.lift(f)
        elif name == "scale_immersion":
            imm, f = scale_immersion(imm, 0.5), zoo_oracle.scale(f, 0.5)
        pts = interior_points(imm, 20, seed=n)
        assert np.max(np.abs(imm.evaluate_jet(pts, 0)[0] - f(pts))) <= 1e-15

    @pytest.mark.parametrize("n", [4, 7])
    def test_lift_seed_is_the_differential_formula(self, n):
        # level 1 of the lift's jet on the line f0 + t seed is the lift's
        # differential along the seed; worst measured over the three families at
        # n = 4-7: 1.5 eps
        for family in EPSILON_BY_FAMILY:
            imm = self.surface(family, n)[0]
            f0 = imm(imm.base_point[None, :])[0]
            seed = zoo_oracle.stereo_lift_differential(f0, imm.orientation_seed)
            seed /= np.linalg.norm(seed)
            assert np.max(np.abs(lift_to_sphere(imm).orientation_seed - seed)) <= 4 * EPS


class TestClosedForms:
    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_first_form_is_the_sample_metric(self, fixture, request):
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 6, seed=3)
        fields = imm.analytic_fields
        assert np.array_equal(fields.first_form(pts).value, fields.jets(pts, 0).g.value)

    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "torus"])
    def test_first_form_reads_the_metric_table_alone(self, fixture, request, monkeypatch):
        # I of these surfaces does not depend on kappa or the curve, so the
        # metric view makes no query of the trajectory
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 4, seed=3)
        expected = imm.analytic_fields.first_form(pts).value

        def refuse(*args, **kwargs):
            raise AssertionError("the metric view queried the trajectory")

        monkeypatch.setattr(SpiralTrajectory, "read", refuse)
        assert np.array_equal(imm.analytic_fields.first_form(pts).value, expected)


class TestCylinder:
    def test_first_form_is_identity(self, cylinder, cylinder_traj):
        _, g_fd, _, g_an, _ = fd_vs_analytic(cylinder, zoo_oracle.cylinder(cylinder_traj))
        assert np.allclose(g_an, np.eye(N_DIM), atol=0)
        assert np.max(np.abs(g_fd - g_an)) < 1e-7

    def test_shape_tensor_diag_kappa(self, cylinder, cylinder_traj):
        pts, _, h_fd, _, h_an = fd_vs_analytic(cylinder, zoo_oracle.cylinder(cylinder_traj))
        kap = cylinder_traj.kappa_at(pts[:, 0])
        assert np.allclose(h_an[:, 0, 0], kap)
        assert np.max(np.abs(h_fd - h_an)) < 1e-8

    def test_jacobian_structure(self, cylinder, cylinder_traj):
        p = cylinder.base_point
        j = cylinder.evaluate_jet(p[None])[1][0].T  # d f / d x_a as columns, (N, m)
        vel = cylinder_traj.curve_velocity_at(np.array([p[0]]))[0]
        assert np.allclose(j[0:2, 0], vel[0:2], atol=1e-10)
        assert np.allclose(j[2:, 0], 0.0, atol=1e-10)
        assert np.allclose(j[:, 1:], np.vstack([np.zeros((2, N_DIM - 1)), np.eye(N_DIM - 1)]), atol=1e-10)

    def test_circle_cylinder_normal_is_radial(self):
        from conftest import make_trajectory
        from mobiusflat.zoo import cylinder_immersion

        traj = make_trajectory(0, 0.0, 1.0, 0.0, 6.0)  # unit circle
        imm = cylinder_immersion(traj, N_DIM)
        pts = interior_points(imm, 5, seed=3)
        eta = unit_normal_batch(imm, pts)
        assert np.max(np.abs(eta[:, 2:])) < 1e-10
        # radial for the circle: the in-plane part has unit norm and points
        # from the curve toward the circle's center (0, 1)
        curve = traj.curve_at(pts[:, 0])[:, 0:2]
        to_center = np.array([0.0, 1.0])[None, :] - curve
        assert np.allclose(eta[:, 0:2], to_center, atol=1e-8)


class TestCone:
    def test_fundamental_forms(self, cone, cone_traj):
        pts, g_fd, h_fd, g_an, h_an = fd_vs_analytic(cone, zoo_oracle.cone(cone_traj))
        t = pts[:, 1]
        assert np.allclose(g_an[:, 0, 0], t**2)
        assert np.max(np.abs(g_fd - g_an)) < 1e-8
        kap = cone_traj.kappa_at(pts[:, 0])
        assert np.allclose(h_an[:, 0, 0], t * kap)
        assert np.max(np.abs(h_fd - h_an)) < 1e-8

    def test_rho_is_t_scaled(self, cone, cone_traj):
        pts = interior_points(cone, 6, seed=5)
        rho = moebius_oracle.values(cone.analytic_fields, pts)[2]
        assert np.allclose(rho * pts[:, 1], cone_traj.kappa_at(pts[:, 0]), atol=1e-12)


class TestRotational:
    def test_fundamental_forms(self, rotational, rotational_traj):
        f = zoo_oracle.rotational(rotational_traj)
        pts, g_fd, h_fd, g_an, h_an = fd_vs_analytic(rotational, f)
        scale = np.max(np.abs(g_an), axis=(1, 2), keepdims=True)
        assert np.max(np.abs(g_fd - g_an) / scale) < 1e-7
        assert np.max(np.abs(h_fd - h_an) / scale) < 1e-7

    def test_normal_matches_profile_formula(self, rotational, rotational_traj):
        # eta = (-y', x' theta) / y
        pts = interior_points(rotational, 5, seed=7)
        eta = unit_normal_batch(rotational, pts)
        c = rotational_traj.curve_at(pts[:, 0])
        y, phi = c[:, 1], c[:, 2]
        xp, yp = y * np.cos(phi), y * np.sin(phi)
        sph = sphere_chart(pts[:, 1:])
        expected = np.concatenate(
            [(-yp / y)[:, None], (xp / y)[:, None] * sph], axis=1
        )
        assert np.max(np.abs(eta - expected)) < 1e-7

    def test_principal_curvatures_formula(self, rotational, rotational_traj):
        pts = interior_points(rotational, 6, seed=9)
        g, h = moebius_oracle.values(rotational.analytic_fields, pts)[:2]
        c = rotational_traj.curve_at(pts[:, 0])
        kap = rotational_traj.kappa_at(pts[:, 0])
        y, phi = c[:, 1], c[:, 2]
        xp = y * np.cos(phi)
        for i in range(pts.shape[0]):
            lam = principal_curvatures(g[i], h[i])
            lam1 = (kap[i] * y[i] - xp[i]) / y[i] ** 2
            lam2 = -xp[i] / y[i] ** 2
            expected = np.sort(np.array([lam1] + [lam2] * (N_DIM - 1)))[::-1]
            assert np.allclose(lam, expected, atol=1e-10)


class TestTorus:
    def test_on_unit_sphere(self, torus):
        pts = interior_points(torus, 12, seed=11)
        vals = torus(pts)
        assert np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)) < 1e-14

    def test_two_principal_curvatures_with_multiplicity(self, torus):
        pts = interior_points(torus, 6, seed=13)
        g = first_fundamental_form_batch(torus, pts)
        h = second_fundamental_form_batch(torus, pts)
        r, a = 0.5, np.sqrt(0.75)
        for i in range(pts.shape[0]):
            lam = principal_curvatures(g[i], h[i])
            assert np.allclose(lam[0], r / a, atol=1e-8)
            assert np.allclose(lam[1:], -a / r, atol=1e-8)
            gap = abs(lam[0] - lam[-1])
            assert gap == pytest.approx(1.0 / (r * a), abs=1e-8)

    def test_fd_matches_analytic(self, torus):
        f = zoo_oracle.torus(TORUS_R)
        _, g_fd, h_fd, g_an, h_an = fd_vs_analytic(torus, f, count=6, seed=15)
        assert np.max(np.abs(g_fd - g_an)) < 1e-8
        assert np.max(np.abs(h_fd - h_an)) < 1e-8

    def test_radius_validation(self):
        with pytest.raises(InputError):
            torus_immersion(1.5, N_DIM)
        with pytest.raises(InputError):
            torus_immersion(0.0, N_DIM)


class TestCartanSchoutenMultiplicity:
    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_at_least_n_minus_1_coincide(self, fixture, request):
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 8, seed=17)
        g = first_fundamental_form_batch(imm, pts)
        h = second_fundamental_form_batch(imm, pts)
        for i in range(pts.shape[0]):
            lam = np.sort(principal_curvatures(g[i], h[i]))
            spread = min(lam[-2] - lam[0], lam[-1] - lam[1])
            assert spread < 1e-8


class TestLift:
    def test_lifted_cylinder_is_sphere_valued(self, cylinder):
        lifted = lift_to_sphere(cylinder)
        pts = interior_points(lifted, 5, seed=19)
        vals = lifted(pts)
        assert np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)) < 1e-12
        eta = unit_normal_batch(lifted, pts[:1])[0]
        j = lifted.evaluate_jet(pts[:1])[1][0].T
        assert np.max(np.abs(j.T @ eta)) < 1e-9
        assert abs(eta @ vals[0]) < 1e-10

    def test_scale_refuses_a_sphere_ambient_handle(self, torus):
        # a homothety moves the unit sphere off itself
        with pytest.raises(InputError, match="Euclidean"):
            scale_immersion(torus, 1.5)

    @pytest.mark.parametrize("base_jet", ["exact", "fd"])
    def test_lift_and_scale_carry_a_jet(self, base_jet, cylinder, cylinder_traj):
        # the lift and the homothety push any base jet through their map
        f = zoo_oracle.cylinder(cylinder_traj)
        base = cylinder if base_jet == "exact" else fd_handle(f, STEP, like=cylinder)
        for imm, g in (
            (lift_to_sphere(base), zoo_oracle.lift(f)),
            (scale_immersion(base, 2.0), zoo_oracle.scale(f, 2.0)),
        ):
            assert callable(imm.jet)
            pts = interior_points(imm, 4, seed=23)
            jet = imm.evaluate_jet(pts)
            oracle = fd_handle(g, STEP, like=imm).evaluate_jet(pts)
            for x, ref in zip(jet, oracle):
                assert np.max(np.abs(x - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


class TestDimensionFive:
    def test_smoke_cylinder_and_torus_at_n5(self):
        from conftest import make_trajectory
        from mobiusflat.moebius import fields_from_immersion
        from mobiusflat.zoo import cylinder_immersion

        n = 5
        traj = make_trajectory(0, 0.0, 1.2, 0.08, 4.0)
        # rebuild the trajectory at n = 5 (the flat R = 0 family is n-free)
        from mobiusflat.spiral import (
            IntegratorControls,
            SpiralParams,
            SpiralState,
            integrate_spiral,
            reconstruct_curve,
        )

        traj5 = reconstruct_curve(
            integrate_spiral(
                SpiralParams(n, 0, 0.0),
                SpiralState(1.2, 0.08),
                IntegratorControls(s_max=4.0, step=1e-3),
            )
        )
        for imm in (cylinder_immersion(traj5, n), torus_immersion(0.4, n)):
            pts = interior_points(imm, 3, seed=43)
            g, h, rho, mean = moebius_oracle.values(fields_from_immersion(imm), pts)
            from mobiusflat.linalg import gram_schmidt_frame

            for i in range(pts.shape[0]):
                frame = gram_schmidt_frame(g[i])
                b = (frame.T @ h[i] @ frame - mean[i] * np.eye(n)) / rho[i]
                assert abs(np.trace(b)) < 1e-8
                assert abs(np.sum(b * b) - (n - 1) / n) < 1e-8
                lam = np.sort(principal_curvatures(g[i], h[i]))
                assert min(lam[-2] - lam[0], lam[-1] - lam[1]) < 1e-8


class TestSpecBuilder:
    @pytest.mark.parametrize("family", ["cylinder", "cone", "rotational"])
    def test_spiral_family_specs(self, family, request):
        # build_family is the one name -> generator table
        direct = request.getfixturevalue(family)
        traj = request.getfixturevalue(f"{family}_traj")
        imm = build_family(family, traj, 4)
        assert imm.name == direct.name
        assert np.array_equal(imm(direct.base_point), direct(direct.base_point))
