import ast
import dataclasses
import inspect
import sys

import numpy as np
import pytest

from mobiusflat import linalg, moebius
from mobiusflat.checks import preset_trajectory, sample_points, warped_scalar_reference
from mobiusflat.curvature import Convention
from mobiusflat.curvature import convert_scalar, curvature_batch
from mobiusflat.errors import DegenerateGeometryError, InputError, UmbilicPointError
from mobiusflat.immersion import (
    ImmersionHandle,
    first_fundamental_form_batch,
    fundamental_form_jets,
)
from mobiusflat.jets import Jet
from mobiusflat.linalg import gram_schmidt_frames, jacobi_eigh
from mobiusflat.moebius import (
    SurfaceFields,
    blaschke_A,
    fields_from_immersion,
    moebius_data,
    moebius_form,
    moebius_jets,
    moebius_scalar,
)
from mobiusflat.spiral import IntegratorControls, sine_curvature_trajectory
from mobiusflat.zoo import (
    EPSILON_BY_FAMILY,
    build_family,
    cylinder_immersion,
    lift_to_sphere,
    scale_immersion,
    torus_immersion,
)

import moebius_oracle
import zoo_oracle
from fd_oracle import fd_handle
from moebius_oracle import moebius_density
from zoo_oracle import sphere_chart_metric
from conftest import FD_STEP, N_DIM, TORUS_R, interior_points, make_trajectory, moebius_B
from conftest import fd_surface, principal_curvatures

FINE = 0.005  # the outer step of the stencil oracle
SCALAR_STEP = 0.02  # the same for the two-route Moebius scalar

# the jets of a request, in its field order
JETS = ("g", "h", "moebius", "b", "rho", "log_rho", "mean")


def at_one_point(read):
    """(fields, p) -> read(the request of the fields at the one point p)."""
    return lambda fields, p: read(fields.jets(np.asarray(p, dtype=float)[None]))


# the one-point functions, and reads of a one-point request under the names of the
# functions they replaced, which the test ids keep
ONE_POINT = {
    "moebius_data": moebius_data,
    "moebius_form": moebius_form,
    "blaschke_A": blaschke_A,
    "moebius_form_divergence_residual": at_one_point(lambda r: r.divergence_residuals[0]),
    "moebius_scalar": moebius_scalar,
    "direct_scalar": at_one_point(lambda r: r.direct_scalar[0]),
}

# (request, pts) -> reads of a request at the point set pts, under the names of the
# point-set functions they replaced, which the test ids keep
POINT_SET = {
    "moebius_data_batch": lambda r, pts: r.records(pts),
    "moebius_scalars": lambda r, pts: (r.direct_scalar, r.conformal_scalar),
    "direct_scalar": lambda r, pts: r.direct_scalar,
    "moebius_form_divergence_residuals": lambda r, pts: r.divergence_residuals,
    "B_eigenvalues_and_scalars": lambda r, pts: (r.spectra[1], r.direct_scalar),
    "principal_curvatures": lambda r, pts: r.spectra[0],
}


def readers(table, names):
    """pytest parameters: the readers of the table under their names."""
    return [pytest.param(table[name], id=name) for name in names]


def sin_curve_cylinder(n=N_DIM):
    """Cylinder over kappa(s) = 1 + 0.3 sin s: not a spiral solution."""
    traj = sine_curvature_trajectory(n, 0, 1.0, 0.3, IntegratorControls(s_max=7.0, step=1e-3))
    return traj, cylinder_immersion(traj, n)


class TestDensity:
    def test_cylinder_rho_kappa(self, cylinder, cylinder_traj):
        pts = interior_points(cylinder, 6, seed=21)
        g, h = moebius_oracle.values(fields_from_immersion(cylinder), pts)[:2]
        for i, p in enumerate(pts):
            rho, mean = moebius_density(g[i], h[i])
            kap = float(cylinder_traj.kappa_at(p[0:1])[0])
            assert rho == pytest.approx(kap, rel=1e-8)
            assert mean == pytest.approx(kap / N_DIM, rel=1e-8)

    def test_cone_rho_scaled_by_t(self, cone, cone_traj):
        pts = interior_points(cone, 6, seed=23)
        g, h = moebius_oracle.values(fields_from_immersion(cone), pts)[:2]
        for i, p in enumerate(pts):
            rho, mean = moebius_density(g[i], h[i])
            kap = float(cone_traj.kappa_at(p[0:1])[0])
            assert rho == pytest.approx(kap / p[1], rel=1e-7)
            assert mean == pytest.approx(kap / (N_DIM * p[1]), rel=1e-7)

    def test_rotational_rho(self, rotational, rotational_traj):
        pts = interior_points(rotational, 6, seed=25)
        g, h = moebius_oracle.values(fields_from_immersion(rotational), pts)[:2]
        y = rotational_traj.curve_at(pts[:, 0])[:, 1]
        kap = rotational_traj.kappa_at(pts[:, 0])
        for i, p in enumerate(pts):
            rho, _ = moebius_density(g[i], h[i])
            assert rho == pytest.approx(kap[i] / y[i], rel=1e-7)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_density_is_the_solved_shape_operator_formula(self, n):
        # rho and H from the shape operator I^-1 h by a linear solve, as the
        # fields composed them before the order-0 request; on random pencils
        # the two agree to 5 eps relative (measured at n = 2-7)
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, 30, n, n))
        g, h = a @ a.mT + n * np.eye(n), b + b.mT
        shape_op = np.linalg.solve(g, h)
        mean = np.einsum("kii->k", shape_op) / n
        norm2 = np.einsum("kij,kji->k", shape_op, shape_op)
        rho = np.sqrt(n / (n - 1) * (norm2 - n * mean**2))
        for i in range(len(g)):
            assert moebius_density(g[i], h[i]) == pytest.approx((rho[i], mean[i]), rel=1e-13)

    def test_umbilic_rejected(self):
        g = np.eye(4)
        h = 0.7 * np.eye(4)
        with pytest.raises(UmbilicPointError):
            moebius_density(g, h)

    def test_density_refuses_an_indefinite_first_form(self):
        # rho^2 = 9 here, so only I's sign is at fault
        with pytest.raises(DegenerateGeometryError, match="positive definite"):
            moebius_density(np.diag([1.0, -0.5]), np.eye(2))
        with pytest.raises(DegenerateGeometryError):
            moebius_density(np.diag([1.0, 0.0]), np.eye(2))

    def test_one_positive_definiteness_test_of_I(self):
        # a badly scaled but positive definite I is taken by all three, and
        # an indefinite one refused by all three
        h = np.array([[2.0, 0.3], [0.3, -1.0]])
        wide = np.diag([1e6, 1e-9])
        rho, mean = moebius_density(wide, h)
        assert np.isfinite(rho) and rho > 0.0 and np.isfinite(mean)
        assert np.all(np.isfinite(moebius_B(wide, h, rho, mean)))
        assert np.all(np.isfinite(principal_curvatures(wide, h)))
        for refuse in (
            lambda g: moebius_density(g, h),
            lambda g: moebius_B(g, h, 1.0, 0.0),
            lambda g: principal_curvatures(g, h),
        ):
            with pytest.raises(DegenerateGeometryError, match="positive definite"):
                refuse(np.diag([1.0, -0.5]))

    def test_indefinite_first_form_refused(self):
        # I = diag(1, -0.5) and h = Id: rho^2 = 9 > 0, so only I's sign is at fault
        def jets(pts, order=2):
            if order == 2:
                return moebius_oracle.stencil_jets(fields, pts, FINE)
            assert order == 0, order
            k = np.atleast_2d(pts).shape[0]
            g = np.tile(np.diag([1.0, -0.5]), (k, 1, 1))
            values = (g, np.tile(np.eye(2), (k, 1, 1)), np.full(k, 3.0), np.full(k, -0.5))
            return moebius_jets(*(Jet([x]) for x in values), 0.0)

        fields = SurfaceFields(ambient_curvature=0.0, jets=jets)
        with pytest.raises(DegenerateGeometryError):
            moebius_data(fields, np.zeros(2))


class TestMoebiusMetric:
    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational"])
    def test_matches_warped_product_form(self, fixture, request):
        # g = kappa(s)^2 (ds^2 + cross-section), entrywise relative 1e-6
        imm = request.getfixturevalue(fixture)
        traj = request.getfixturevalue(f"{fixture}_traj")
        pts = interior_points(imm, 20, seed=27)
        g, h = moebius_oracle.values(fields_from_immersion(imm), pts)[:2]
        kap = traj.kappa_at(pts[:, 0])
        n = N_DIM
        for i, p in enumerate(pts):
            rho, _ = moebius_density(g[i], h[i])
            gm = rho**2 * g[i]
            expected = np.zeros((n, n))
            expected[0, 0] = 1.0
            if fixture == "cylinder":
                expected[1:, 1:] = np.eye(n - 1)
            elif fixture == "cone":
                expected[1:, 1:] = np.eye(n - 1) / p[1] ** 2
            else:
                expected[1:, 1:] = sphere_chart_metric(p[None, 1:])[0]
            expected *= kap[i] ** 2
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(gm - expected)) / scale < 1e-6


SURFACES = ["cylinder", "cone", "rotational", "torus", "rotational+lift"]


def surface(name, request):
    base = request.getfixturevalue(name.split("+")[0])
    return lift_to_sphere(base) if name.endswith("+lift") else base


def composed_fields(imm, pts):
    """(I, II, rho, H) composed from the public form functions: I of
    ``first_fundamental_form_batch``, II of the order-0 ``fundamental_form_jets``
    (``second_fundamental_form_batch`` to rounding, see test_immersion) and rho
    and H of ``moebius_density``, one point at a time."""
    g = first_fundamental_form_batch(imm, pts)
    h = fundamental_form_jets(imm, pts, order=0)[1].value
    rho, mean = np.array([moebius_density(a, b) for a, b in zip(g, h)]).T
    return g, h, rho, mean


class TestOneJetFields:
    @pytest.mark.parametrize("name", ["torus-fd", "rotational-fd"] + SURFACES)
    def test_fields_match_composed_forms(self, name, request):
        # a same-formula consistency check: the values of a request on pipeline
        # fields are the public form functions composed with moebius_density, bit
        # for bit (the formula itself is checked against the solved shape
        # operator in TestDensity); on the FD route the handle's exact jet is
        # replaced by the FD jet
        if name.endswith("-fd"):
            imm = fd_surface(name.removesuffix("-fd"), request)
        else:
            imm = surface(name, request)
        pts = interior_points(imm, 7, seed=5)
        fields = fields_from_immersion(imm)
        values = moebius_oracle.values(fields, pts)
        for x, composed in zip(values, composed_fields(imm, pts)):
            assert np.array_equal(x, composed)

    def test_one_evaluator_call_per_request(self, torus):
        f, calls = counting_map(zoo_oracle.torus(TORUS_R))
        fields = fields_from_immersion(fd_handle(f, FD_STEP, like=torus))
        pts = interior_points(torus, 3, seed=7)
        stencil = 5 * N_DIM + 16 * N_DIM * (N_DIM - 1) // 2
        calls.clear()  # the orientation sign, resolved once at construction
        fields.jets(pts, 0)
        assert calls == [3 * stencil]


def counting_map(f):
    """(f recording the size of each call, the list of sizes)."""
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return f(pts)

    return counted, calls


def counting_fields(imm, f):
    """Nested-FD oracle fields over imm (its exact jet replaced by the FD jet of its map
    f, outer step FINE) whose map records the size of each call."""
    counted, calls = counting_map(f)
    fields = moebius_oracle.nested_fd_fields(fd_handle(counted, FD_STEP, like=imm), FINE)
    calls.clear()  # the orientation sign, resolved once at construction
    return fields, calls


class TestOneRequestPerPointSet:
    STENCIL = 5 * N_DIM + 16 * N_DIM * (N_DIM - 1) // 2  # points of one jet

    @pytest.mark.parametrize("invariant", readers(ONE_POINT, ONE_POINT))
    def test_one_stencil_request(self, torus, invariant):
        # on the stencil oracle (here the nested-FD pipeline) each request is one
        # stencil, and the pointwise record is read from the stencil's centre
        fields, calls = counting_fields(torus, zoo_oracle.torus(TORUS_R))
        invariant(fields, torus.base_point)
        assert calls == [self.STENCIL**2]

    @pytest.mark.parametrize("analytic", [True, False], ids=["closed-form", "fd"])
    @pytest.mark.parametrize("fixture", ["torus", "rotational"])
    def test_agrees_with_separate_request_oracle(self, fixture, analytic, request):
        # the packed stencil request against separate stencils, over the closed
        # forms' order-0 request and over the pipeline's (the nested-FD pipeline)
        imm = request.getfixturevalue(fixture)
        base = imm.analytic_fields if analytic else fields_from_immersion(imm)
        fields = moebius_oracle.stencil_fields(base, FINE)
        scalar_fields = moebius_oracle.stencil_fields(base, SCALAR_STEP)

        def close(new, old):
            new, old = np.asarray(new), np.asarray(old)
            return np.max(np.abs(new - old)) <= 1e-10 * max(1.0, float(np.max(np.abs(old))))

        for p in interior_points(imm, 2, seed=43):
            d, ref = moebius_data(fields, p), moebius_oracle.moebius_data(fields, p, FINE)
            spectra = ("principal_curvatures", "B_eigenvalues", "A_eigenvalues")
            for name in ("rho", "H", "B", "A", "C", *spectra):
                assert close(getattr(d, name), getattr(ref, name)), name
            assert close(d.g_moebius, ref.g_moebius)
            assert close(moebius_form(fields, p), moebius_oracle.moebius_form(fields, p, FINE))
            assert close(blaschke_A(fields, p), moebius_oracle.blaschke_A(fields, p, FINE))
            s = moebius_scalar(scalar_fields, p)
            s_ref = moebius_oracle.moebius_scalar(fields, p, SCALAR_STEP)
            assert close(s, s_ref)
            assert close(ONE_POINT["direct_scalar"](scalar_fields, p), s_ref.direct)


def jet_counting(imm):
    """imm with a jet that records (points, order) of each call."""
    calls = []

    def jet(pts, order=2):
        calls.append((pts.shape[0], order))
        return imm.jet(pts, order)

    return dataclasses.replace(imm, jet=jet), calls


class TestOneJetPerPointSet:
    """Fields from an immersion answer a request from one order-4 jet of it."""

    @pytest.mark.parametrize("invariant", readers(ONE_POINT, ONE_POINT))
    def test_one_jet_evaluation_per_request(self, torus, invariant):
        imm, calls = jet_counting(torus)
        fields = fields_from_immersion(imm)
        calls.clear()  # the orientation sign, resolved once at construction
        invariant(fields, torus.base_point)
        assert calls == [(1, 4)]

    @pytest.mark.parametrize(
        "read",
        readers(
            POINT_SET,
            [
                "moebius_data_batch",
                "moebius_scalars",
                "direct_scalar",
                "moebius_form_divergence_residuals",
            ],
        ),
    )
    def test_one_jet_evaluation_per_point_set(self, rotational, read):
        imm, calls = jet_counting(rotational)
        fields = fields_from_immersion(imm)
        pts = interior_points(imm, 6, seed=17)
        calls.clear()
        read(fields.jets(pts), pts)
        assert calls == [(6, 4)]

    @pytest.mark.parametrize(
        "invariant", readers(ONE_POINT, ["moebius_data", "moebius_scalar", "direct_scalar"])
    )
    def test_closed_forms_are_a_route_of_their_own(self, rotational, invariant, monkeypatch):
        # a request on the closed forms reads their factor tables: no jet of the
        # immersion and no pipeline fields
        def refuse(*args, **kwargs):
            raise AssertionError("the closed forms reached the pipeline")

        monkeypatch.setattr(ImmersionHandle, "evaluate_jet", refuse)
        monkeypatch.setattr(moebius, "_jets_from_forms", refuse)
        closed = rotational.analytic_fields
        invariant(closed, rotational.base_point)


class TestOrderZeroRequest:
    """The values (I, h, rho, H) are the order-0 request, the same bits as level 0 of
    the order-2 request."""

    @pytest.mark.parametrize("name", SURFACES + [f"{s}-closed-form" for s in SURFACES[:4]])
    def test_level_zero_of_every_order(self, name, request):
        imm = surface(name.removesuffix("-closed-form"), request)
        fields = imm.analytic_fields if name.endswith("closed-form") else fields_from_immersion(imm)
        pts = interior_points(imm, 5, seed=13)
        values, full = fields.jets(pts, 0), fields.jets(pts, 2)
        assert [getattr(values, q).order for q in JETS] == [0] * 7
        assert [getattr(full, q).order for q in JETS] == [2] * 7
        for quantity in JETS:
            x, y = getattr(values, quantity), getattr(full, quantity)
            assert np.array_equal(x.value, y.value), quantity

    def test_one_jet_evaluation_of_order_two(self, rotational):
        imm, calls = jet_counting(rotational)
        fields = fields_from_immersion(imm)
        calls.clear()  # the orientation sign, resolved once at construction
        fields.jets(interior_points(imm, 6, seed=17), 0)
        assert calls == [(6, 2)]


def exact_and_nested_fd(imm, pts, step):
    """quantity -> (exact, nested-FD oracle at step) for rho, H, B, A, C and both scalars."""
    out = {}
    for fields in (fields_from_immersion(imm), moebius_oracle.nested_fd_fields(imm, step)):
        request = fields.jets(pts)
        records = request.records(pts)
        for name in ("rho", "H", "B", "A", "C"):
            out.setdefault(name, []).append(np.array([getattr(r, name) for r in records]))
        out.setdefault("direct", []).append(request.direct_scalar)
        out.setdefault("conformal_route", []).append(request.conformal_scalar)
    return out


class TestExactAgainstNestedFD:
    """The exact requests against the nested-FD pipeline they replaced."""

    @pytest.mark.parametrize("name", SURFACES)
    def test_within_the_oracle_error(self, name, request):
        imm = surface(name, request)
        pts = interior_points(imm, 3, seed=11, pad=0.2)
        for quantity, (exact, oracle) in exact_and_nested_fd(imm, pts, 0.02).items():
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(exact - oracle)) <= 1e-5 * scale, quantity

    # the cylinder over a linear kappa leaves the oracle at rounding level
    @pytest.mark.parametrize("name", [s for s in SURFACES if s != "cylinder"])
    def test_oracle_error_falls_sixteen_times(self, name, request):
        # the difference is the oracle's order-4 truncation: it falls about 16
        # times when the outer step halves, wherever it is above rounding
        imm = surface(name, request)
        pts = interior_points(imm, 3, seed=11, pad=0.2)
        coarse, fine = (exact_and_nested_fd(imm, pts, h) for h in (0.04, 0.02))
        ratios = {}
        for quantity in coarse:
            e_coarse = np.max(np.abs(np.subtract(*coarse[quantity])))
            e_fine = np.max(np.abs(np.subtract(*fine[quantity])))
            if e_coarse > 1e-9:
                ratios[quantity] = e_coarse / e_fine
        assert {"direct", "conformal_route"} <= set(ratios)
        assert all(12.0 < r < 20.0 for r in ratios.values()), ratios


class TestBatchEqualsOnePointRequests:
    @pytest.mark.parametrize(
        "name", SURFACES + ["torus-n6"] + [f"{s}-closed-form" for s in SURFACES[:4]]
    )
    def test_bit_for_bit(self, name, request):
        # each one-point function is row k of a K-point request
        imm = (
            torus_immersion(0.5, 6)
            if name == "torus-n6"
            else surface(name.removesuffix("-closed-form"), request)
        )
        fields = imm.analytic_fields if name.endswith("closed-form") else fields_from_immersion(imm)
        pts = interior_points(imm, 5, seed=13)
        batch = fields.jets(pts)
        records = batch.records(pts)
        direct = fields.jets(pts).direct_scalar
        assert np.array_equal(direct, batch.direct_scalar)
        for i, p in enumerate(pts):
            one = moebius_data(fields, p)
            for field in dataclasses.fields(one):
                assert np.array_equal(getattr(records[i], field.name), getattr(one, field.name))
            assert np.array_equal(moebius_form(fields, p), batch.C[i])
            assert np.array_equal(blaschke_A(fields, p), batch.A[i])
            s = moebius_scalar(fields, p)
            assert (s.direct, s.conformal_route) == (direct[i], batch.conformal_scalar[i])
            assert ONE_POINT["direct_scalar"](fields, p) == direct[i]

    @pytest.mark.parametrize("name", ["cylinder", "rotational", "torus"])
    @pytest.mark.parametrize("route", ["fields", "closed-form"])
    def test_divergence_residual(self, name, route, request):
        imm = surface(name, request)
        fields = imm.analytic_fields if route == "closed-form" else fields_from_immersion(imm)
        pts = interior_points(imm, 5, seed=13)
        batch = fields.jets(pts).divergence_residuals
        for i, p in enumerate(pts):
            assert ONE_POINT["moebius_form_divergence_residual"](fields, p) == batch[i]


class TestOneFrameStackPerRequest:
    """A request's invariants are one expression over its points: one stack of
    I-frames, and no frame of a single metric."""

    @pytest.mark.parametrize(
        "read",
        readers(
            POINT_SET,
            [
                "moebius_data_batch",
                "B_eigenvalues_and_scalars",
                "moebius_form_divergence_residuals",
            ],
        ),
    )
    def test_one_gram_schmidt_frames_call(self, rotational, read, monkeypatch):
        stacks = []

        def frames(g, *args):
            stacks.append(g.shape[0])
            return gram_schmidt_frames(g, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("a frame of one metric was built")

        monkeypatch.setattr(moebius, "gram_schmidt_frames", frames)
        monkeypatch.setattr(linalg, "gram_schmidt_frame", refuse)
        monkeypatch.setattr(moebius, "gram_schmidt_frame", refuse, raising=False)
        pts = interior_points(rotational, 6, seed=17)
        read(fields_from_immersion(rotational).jets(pts), pts)
        assert stacks == [6]

    @pytest.mark.parametrize(
        "name, solves",
        [("moebius_data_batch", 2), ("B_eigenvalues_and_scalars", 1), ("principal_curvatures", 1)],
    )
    def test_one_jacobi_eigh_call_per_spectrum(self, rotational, name, solves, monkeypatch):
        # h in the I-frame is one stacked solve (principal curvatures and B's
        # eigenvalues), A another
        stacks = []

        def eigh(a, *args):
            stacks.append(a.shape[0])
            return jacobi_eigh(a, *args)

        monkeypatch.setattr(moebius, "jacobi_eigh", eigh)
        pts = interior_points(rotational, 6, seed=17)
        POINT_SET[name](fields_from_immersion(rotational).jets(pts), pts)
        assert stacks == [6] * solves

    @pytest.mark.parametrize("route", ["fields", "closed-form"])
    def test_each_invariant_is_computed_once(self, rotational, route, monkeypatch):
        # every read of one request shares one stack of frames, one spectrum of h
        # and one of A, and a second read of an invariant is the first one's array
        frames, solves = [], []

        def counted_frames(g, *args):
            frames.append(g.shape[0])
            return gram_schmidt_frames(g, *args)

        def counted_eigh(a, *args):
            solves.append(a.shape[0])
            return jacobi_eigh(a, *args)

        monkeypatch.setattr(moebius, "gram_schmidt_frames", counted_frames)
        monkeypatch.setattr(moebius, "jacobi_eigh", counted_eigh)
        imm = rotational
        fields = imm.analytic_fields if route == "closed-form" else fields_from_immersion(imm)
        pts = interior_points(imm, 6, seed=17)
        request = fields.jets(pts)
        names = ("B", "C", "A", "spectra", "direct_scalar", "conformal_scalar")
        names += ("divergence_residuals",)
        first = [getattr(request, name) for name in names]
        request.records(pts)
        assert frames == [6] and solves == [6, 6]
        for name, value in zip(names, first):
            assert getattr(request, name) is value, name


class TestScalarRequestsBuildNoFrame:
    """The scalar of a request is g^bd R_bd in chart coordinates: no Gram-Schmidt
    frame, and a curvature batch at K points is K one-point batches."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("route", ["fields", "closed-form"])
    def test_no_frame_and_one_point_batches(self, n, route, monkeypatch):
        imm = build_family("rotational", preset_trajectory(n, EPSILON_BY_FAMILY["rotational"]), n)
        fields = imm.analytic_fields if route == "closed-form" else fields_from_immersion(imm)
        pts = interior_points(imm, 5, seed=n, pad=0.2)
        built = []

        def frames(g, *args):
            built.append(g.shape[0])
            return gram_schmidt_frames(g, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("mobiusflat") and hasattr(module, "gram_schmidt_frames"):
                monkeypatch.setattr(module, "gram_schmidt_frames", frames)
        fields.jets(pts).direct_scalar
        assert built == []
        request = fields.jets(pts)
        request.direct_scalar, request.conformal_scalar
        assert built == []

        levels = fields.jets(pts).moebius.levels
        batch = curvature_batch(*levels)
        for i in range(len(pts)):
            one = curvature_batch(*(x[i : i + 1] for x in levels))
            for name in ("metric", "christoffel", "ricci", "scalar"):
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)[0]), name


class TestTensorB:
    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_eigenvalues_and_traces(self, fixture, request):
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 6, seed=29)
        g, h = moebius_oracle.values(fields_from_immersion(imm), pts)[:2]
        n = N_DIM
        for i, p in enumerate(pts):
            rho, mean = moebius_density(g[i], h[i])
            b = moebius_B(g[i], h[i], rho, mean)
            assert abs(np.trace(b)) < 1e-8
            assert np.sum(b * b) == pytest.approx((n - 1) / n, abs=1e-8)
            eig = np.sort(np.linalg.eigvalsh(b))
            expected = np.sort([(n - 1) / n] + [-1 / n] * (n - 1))
            assert np.allclose(eig, expected, atol=1e-7)

    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_one_spectrum_formula(self, fixture, request):
        # B's eigenvalues are (lambda - H) / rho of the principal curvatures, the
        # same bits in the records and in the spectra of another request
        imm = request.getfixturevalue(fixture)
        fields = fields_from_immersion(imm)
        pts = interior_points(imm, 6, seed=29)
        records = fields.jets(pts).records(pts)
        b_eig = np.array([d.B_eigenvalues for d in records])
        assert np.array_equal(fields.jets(pts).spectra[1], b_eig)
        for d in records:
            assert np.array_equal(d.B_eigenvalues, (d.principal_curvatures - d.H) / d.rho)

    @pytest.mark.parametrize("fixture", ["cylinder", "torus"])
    def test_stack_equals_one_point_calls(self, fixture, request):
        imm = request.getfixturevalue(fixture)
        pts = interior_points(imm, 6, seed=29)
        g, h, rho, mean = moebius_oracle.values(fields_from_immersion(imm), pts)
        stack = moebius_B(g, h, rho, mean)
        assert stack.shape == g.shape
        for i in range(len(g)):
            assert np.array_equal(stack[i], moebius_B(g[i], h[i], rho[i], mean[i]))

    def test_homothety_leaves_eigenvalues_and_scalar(self, cylinder):
        # ambient rescaling doubles both f and the chart
        p = cylinder.base_point + 0.1
        f1 = fields_from_immersion(cylinder)
        s1 = moebius_scalar(f1, p)
        for lam in (0.5, 2.0):
            scaled = scale_immersion(cylinder, lam)
            f2 = fields_from_immersion(scaled)
            d1 = moebius_data(f1, p)
            d2 = moebius_data(f2, lam * p)
            assert np.allclose(d1.B_eigenvalues, d2.B_eigenvalues, atol=1e-7)
            s2 = moebius_scalar(f2, lam * p)
            assert abs(s1.direct - s2.direct) < 1e-6


class TestMoebiusForm:
    def test_torus_form_vanishes(self, torus):
        for fields, tol in [
            (torus.analytic_fields, 1e-12),
            (fields_from_immersion(torus), 1e-8),
        ]:
            c = moebius_form(fields, torus.base_point)
            assert np.max(np.abs(c)) < tol

    def test_circle_cylinder_form_vanishes(self):
        from conftest import make_trajectory
        from mobiusflat.zoo import cylinder_immersion

        traj = make_trajectory(0, 0.0, 1.0, 0.0, 6.0)
        imm = cylinder_immersion(traj, N_DIM)
        fields = fields_from_immersion(imm)
        c = moebius_form(fields, imm.base_point)
        assert np.max(np.abs(c)) < 1e-8

    def test_divergence_identity_cross_check(self, rotational, torus):
        # sum_j B_ij,j = -(n-1) C_i ties the C formula to the divergence of B
        _, imm = sin_curve_cylinder()
        for handle in (imm, rotational, torus):
            read = ONE_POINT["moebius_form_divergence_residual"]
            resid = read(handle.analytic_fields, handle.base_point)
            assert resid < 1e-6, handle.name

    def test_spiral_cylinder_form_first_component_only(self):
        # C = (-kappa_s / kappa^2, 0, ..., 0) in the Moebius frame
        traj, imm = sin_curve_cylinder()
        pts = interior_points(imm, 5, seed=31)
        fields = imm.analytic_fields
        for p in pts:
            c = moebius_form(fields, p)
            kap = float(traj.kappa_at(p[0:1])[0])
            ks = float(traj.kappa_s_at(p[0:1])[0])
            assert c[0] == pytest.approx(-ks / kap**2, abs=1e-9)
            assert np.max(np.abs(c[1:])) < 1e-10


class TestBlaschke:
    def test_trace_identity_cylinder_sin_curve(self):
        # tr A = 1/(2n) + R/(2(n-1)) with R the full-trace Moebius scalar;
        # here R(s) = 6 * 0.3 sin(s) / kappa(s)^3 varies along the surface
        _, imm = sin_curve_cylinder()
        pts = interior_points(imm, 5, seed=33)
        fields = imm.analytic_fields
        n = N_DIM
        for p in pts:
            a = blaschke_A(fields, p)
            s = p[0]
            kap = 1.0 + 0.3 * np.sin(s)
            r_full = 6.0 * 0.3 * np.sin(s) / kap**3
            assert np.trace(a) == pytest.approx(
                1.0 / (2 * n) + r_full / (2 * (n - 1)), abs=1e-8
            )

    def test_trace_identity_rotational(self, rotational):
        # constant-scalar spiral: R_full = 2 (n-1) * 0.75 = 4.5
        fields = rotational.analytic_fields
        pts = interior_points(rotational, 4, seed=35)
        target = 1.0 / (2 * N_DIM) + 4.5 / (2 * (N_DIM - 1))
        for p in pts:
            a = blaschke_A(fields, p)
            assert np.trace(a) == pytest.approx(target, abs=1e-7)

    def test_trace_identity_torus_sphere_ambient(self, torus):
        # r = 0.5: full-trace scalar (n-1)(n-2)(1-r^2) = 4.5
        fields = torus.analytic_fields
        a = blaschke_A(fields, torus.base_point)
        target = 1.0 / (2 * N_DIM) + 4.5 / (2 * (N_DIM - 1))
        assert np.trace(a) == pytest.approx(target, abs=1e-9)

    def test_torus_A_eigen_multiplicities(self, torus):
        fields = torus.analytic_fields
        d = moebius_data(fields, torus.base_point)
        eig = np.sort(d.A_eigenvalues)
        # one simple eigenvalue at one end, the other n-1 coincide
        cluster = min(eig[-1] - eig[1], eig[-2] - eig[0])
        gap = max(eig[-1] - eig[-2], eig[1] - eig[0])
        assert gap > 0.1
        assert cluster < 1e-9

    @pytest.mark.parametrize("fixture", ["cylinder", "cone", "rotational", "torus"])
    def test_commutator_vanishes(self, fixture, request):
        imm = request.getfixturevalue(fixture)
        fields = imm.analytic_fields
        pts = interior_points(imm, 4, seed=37)
        for p in pts:
            d = moebius_data(fields, p)
            assert d.commutator_norm() < 1e-8


class TestMoebiusScalar:
    def test_circle_cylinder_scalar_zero(self):
        from conftest import make_trajectory
        from mobiusflat.zoo import cylinder_immersion

        traj = make_trajectory(0, 0.0, 1.0, 0.0, 6.0)
        imm = cylinder_immersion(traj, N_DIM)
        fields = imm.analytic_fields
        res = moebius_scalar(fields, imm.base_point)
        for conv in Convention:
            for value in res:
                assert abs(convert_scalar(value, Convention.FULL_TRACE, conv, N_DIM)) < 1e-7

    def test_torus_full_trace_value(self, torus):
        # product structure: circle of radius 1/r and sphere of radius
        # 1/sqrt(1-r^2): full-trace scalar (n-1)(n-2)(1-r^2)
        fields = torus.analytic_fields
        res = moebius_scalar(fields, torus.base_point)
        expected = (N_DIM - 1) * (N_DIM - 2) * 0.75
        assert res.direct == pytest.approx(expected, rel=1e-6)
        assert res.conformal_route == pytest.approx(expected, rel=1e-6)

    def test_two_routes_agree_on_pipeline_fields(self, rotational):
        fields = fields_from_immersion(rotational)
        pts = interior_points(rotational, 3, seed=39)
        for p in pts:
            res = moebius_scalar(fields, p)
            assert abs(res.direct - res.conformal_route) < 1e-5

    def test_rotational_scalar_constant(self, rotational):
        # constant-scalar spiral with R parameter 0.75: full trace 4.5
        fields = rotational.analytic_fields
        pts = interior_points(rotational, 6, seed=41)
        vals = [moebius_scalar(fields, p).direct for p in pts]
        assert np.max(np.abs(np.asarray(vals) - 4.5)) < 1e-6


class TestLiftInvariance:
    def test_B_and_scalar_invariant_under_lift(self, cylinder):
        lifted = lift_to_sphere(cylinder)
        p = cylinder.base_point + 0.15
        f_plain = fields_from_immersion(cylinder)
        f_lift = fields_from_immersion(lifted)
        d_plain = moebius_data(f_plain, p)
        d_lift = moebius_data(f_lift, p)
        assert np.allclose(d_plain.B_eigenvalues, d_lift.B_eigenvalues, atol=1e-6)
        s_plain = moebius_scalar(f_plain, p)
        s_lift = moebius_scalar(f_lift, p)
        assert abs(s_plain.direct - s_lift.direct) < 1e-5


class TestNoStep:
    """The Moebius layer takes no step: its requests are exact jets on both routes."""

    def test_moebius_imports_nothing_from_fd(self):
        tree = ast.parse(inspect.getsource(moebius))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "fd" and "fd" not in {a.name for a in node.names}

    def test_no_public_function_takes_a_step(self):
        public = {
            name: fn
            for name, fn in inspect.getmembers(moebius, inspect.isfunction)
            if fn.__module__ == moebius.__name__ and not name.startswith("_")
        }
        assert {"moebius_data", "moebius_scalar", "moebius_form", "blaschke_A"} <= set(public)
        for name, fn in public.items():
            assert "step" not in inspect.signature(fn).parameters, name

    def test_fields_without_jets_are_refused(self, torus):
        with pytest.raises(InputError, match="no jets"):
            SurfaceFields(ambient_curvature=1.0)
        with pytest.raises(InputError, match="no jets"):
            dataclasses.replace(fields_from_immersion(torus), jets=None)


CLOSED_FORMS = [
    f"{family}-n{n}" for n in (4, 6) for family in ("cylinder", "cone", "rotational", "torus")
] + ["circle-cylinder"]


def closed_form_handle(name):
    """A generator's handle by name: a suite family or the torus at n, or the circle cylinder."""
    if name == "circle-cylinder":
        return cylinder_immersion(make_trajectory(0, 0.0, 1.0, 0.0, 6.0), N_DIM)
    family, n = name.rsplit("-n", 1)
    if family == "torus":
        return torus_immersion(0.5, int(n))
    return build_family(family, preset_trajectory(int(n), EPSILON_BY_FAMILY[family]), int(n))


def jets_and_stencil(imm, step):
    """(quantity, level) -> (exact jet, stencil of the closed forms' own order-0 request
    at step)."""
    fields = imm.analytic_fields
    pts = interior_points(imm, 3, seed=11, pad=0.2)
    exact, oracle = fields.jets(pts), moebius_oracle.stencil_jets(fields, pts, step)
    return {
        (q, level): (getattr(exact, q).levels[level], getattr(oracle, q).levels[level])
        for q in JETS
        for level in range(3)
    }


class TestClosedFormJetsAgainstTheirStencil:
    """The closed forms' exact jets against the order-4 stencil of their own order-0
    request."""

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_within_the_stencil_error(self, name):
        for key, (exact, oracle) in jets_and_stencil(closed_form_handle(name), 0.02).items():
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(exact - oracle)) <= 1e-4 * scale, key

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_stencil_error_falls_sixteen_times(self, name):
        # the difference is the stencil's order-4 truncation: it falls about 16
        # times when the step halves, wherever it is above rounding
        imm = closed_form_handle(name)
        coarse, fine = (jets_and_stencil(imm, h) for h in (0.04, 0.02))
        ratios = {}
        for key in coarse:
            e_coarse = np.max(np.abs(np.subtract(*coarse[key])))
            if e_coarse > 1e-9:
                ratios[key] = e_coarse / np.max(np.abs(np.subtract(*fine[key])))
        if name == "circle-cylinder":
            # constant along s, where the stencil is exact: no error above rounding
            assert ratios == {}
        else:
            assert any(level == 2 for _, level in ratios)  # the second partials
            assert all(12.0 < r < 20.0 for r in ratios.values()), ratios


class TestProfileScalarIdentity:
    """Off the spiral equation, the Moebius scalar of each spiral family is, point by
    point, the scalar of the warped metric kappa^2 (ds^2 + I_{-eps}) over its profile."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("family", list(EPSILON_BY_FAMILY))
    def test_direct_scalar_is_the_profile_formula(self, family, n):
        eps = EPSILON_BY_FAMILY[family]
        traj = sine_curvature_trajectory(
            n, eps, 1.15, 0.3, IntegratorControls(s_max=4.5, step=1e-3)
        )
        imm = build_family(family, traj, n)
        pts = sample_points(imm, 8, np.random.default_rng(0))
        # kappa, kappa_s and kappa_ss from the step polynomials
        expected = warped_scalar_reference(n, eps, *traj.read(pts[:, 0], slice(0, 1), 2)[..., 0])
        # worst measured: 2.1e-12 on the pipeline, 1.3e-15 on the closed forms
        for fields, bound in ((fields_from_immersion(imm), 1e-10), (imm.analytic_fields, 2e-14)):
            direct = fields.jets(pts).direct_scalar
            err = np.abs(direct - expected) / np.maximum(1.0, np.abs(expected))
            assert np.max(err) < bound
