import functools
import math

import bisection_oracle
import closure_oracle
import dense_oracle
import numpy as np
import pytest
import rk4_oracle
from fd_oracle import recomputed_curvature
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import fresnel

from mobiusflat import spiral, taylor
from mobiusflat.checks import FLAT_CONTROL_STARTS, rigidity_initials
from mobiusflat.config import RunConfig
from mobiusflat.errors import ChartDomainError, InputError
from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    SpiralState,
    closure_test,
    closure_tests,
    default_curve_start,
    equilibrium_kappa,
    export_csv,
    first_integral,
    integrate_grid,
    integrate_spiral,
    kappa_accel,
    prescribed_curvature_trajectory,
    reconstruct_curve,
    sine_curvature,
)
from mobiusflat.zoo import build_family

# the prescribed curvature of the negative controls, kappa = 1.15 + 0.3 sin s
SINE = sine_curvature(1.15, 0.3)


def run(params, kappa0, kappa_s0, s_max=10.0, step=1e-3, curve=False, stride=1):
    controls = IntegratorControls(s_max=s_max, step=step, store_stride=stride)
    traj = integrate_spiral(params, SpiralState(kappa0, kappa_s0), controls)
    if curve:
        traj = reconstruct_curve(traj)
    return traj


class TestRhs:
    def test_standard_equilibrium_relation(self):
        p = SpiralParams(4, -1, 0.75)
        kstar = equilibrium_kappa(p)
        assert kstar == pytest.approx(np.sqrt((4 - 2) / (2 * 0.75)))
        assert kappa_accel(p, kstar, 0.0) == pytest.approx(0.0, abs=1e-14)


class TestEquilibrium:
    def test_standard_needs_opposite_signs(self):
        assert equilibrium_kappa(SpiralParams(4, -1, 0.75)) is not None
        assert equilibrium_kappa(SpiralParams(4, -1, -0.75)) is None
        assert equilibrium_kappa(SpiralParams(4, 1, -1.0)) == pytest.approx(1.0)

    def test_stability_matches_linearization(self):
        # sign of d(kappa_ss)/d(kappa) at the equilibrium decides the scan
        p = SpiralParams(4, -1, 0.75)
        kstar = equilibrium_kappa(p)
        h = 1e-6
        num = (kappa_accel(p, kstar + h, 0.0) - kappa_accel(p, kstar - h, 0.0)) / (2 * h)
        n, eps, big_r = p.n, p.epsilon, p.R
        analytic = -eps * (n - 2) / 2.0 - 3.0 * big_r * kstar**2
        assert num == pytest.approx(analytic, rel=1e-6)
        assert num < 0  # center: bounded oscillations
        traj = run(p, kstar * 1.1, 0.0, s_max=30.0)
        assert traj.termination == "horizon"
        assert np.max(traj.kappa) < 2 * kstar


class TestFirstIntegral:
    @pytest.mark.parametrize(
        "params,k0,ks0",
        [
            (SpiralParams(4, -1, 0.75), 1.1, 0.05),
            (SpiralParams(4, -1, 0.3), 1.9, 0.05),
            (SpiralParams(4, 0, 0.0), 1.1, 0.05),
            (SpiralParams(6, -1, 0.75), 1.1, 0.05),
            (SpiralParams(5, -1, 0.75), 1.5, 0.05),
        ],
    )
    def test_drift_below_1e9_over_horizon_10(self, params, k0, ks0):
        traj = run(params, k0, ks0, s_max=10.0)
        assert traj.termination == "horizon"
        assert traj.first_integral_drift() < 1e-9

    def test_equilibrium_is_constant_trajectory(self):
        p = SpiralParams(4, -1, 0.75)
        kstar = equilibrium_kappa(p)
        traj = run(p, kstar, 0.0, s_max=5.0)
        assert np.max(np.abs(traj.kappa - kstar)) < 1e-12
        assert np.max(np.abs(traj.kappa_s)) < 1e-12

    def test_rk4_order_by_step_halving(self):
        # the RK4 oracle, on a spiral row (its kappa) and on a half-plane
        # prescribed-curvature row (its whole state); steps chosen so
        # truncation dominates rounding at the endpoint
        p = SpiralParams(4, -1, 0.75)
        y0 = np.concatenate([SINE(np.zeros(1), 1)[0], default_curve_start(p.model)])

        def spiral_end(controls):
            return rk4_oracle.row(p, 1.3, 0.0, controls, joint=False)[1][-1, :1]

        def prescribed_end(controls):
            return rk4_oracle.prescribed_row(p.model, SINE, y0, controls)[1][-1]

        for end_state in (spiral_end, prescribed_end):

            def end(step):
                return end_state(IntegratorControls(s_max=2.0, step=step))

            ref = end(0.02 / 16)
            e1 = np.max(np.abs(end(0.02) - ref))
            e2 = np.max(np.abs(end(0.01) - ref))
            assert e1 / e2 == pytest.approx(16.0, rel=0.35), end_state.__name__

    def test_time_reversal_symmetry(self):
        p = SpiralParams(4, -1, 0.6)
        fwd = run(p, 1.2, 0.1, s_max=3.0)
        back = run(p, fwd.kappa[-1], -fwd.kappa_s[-1], s_max=3.0)
        assert back.kappa[-1] == pytest.approx(1.2, abs=1e-10)
        assert back.kappa_s[-1] == pytest.approx(-0.1, abs=1e-10)


class TestTermination:
    def test_floor_event(self):
        # flat model, positive R pulls kappa through zero
        p = SpiralParams(4, 0, 0.5)
        traj = run(p, 1.0, -0.5, s_max=50.0)
        assert traj.termination == "kappa_floor"
        assert traj.kappa[-1] <= 2e-6
        assert traj.s_end < 50.0

    def test_ceiling_event(self):
        p = SpiralParams(4, 0, -0.5)
        controls = IntegratorControls(s_max=50.0, step=1e-3, kappa_ceiling=50.0)
        traj = integrate_spiral(p, SpiralState(1.0, 0.5), controls)
        assert traj.termination == "kappa_ceiling"
        assert traj.kappa[-1] >= 49.0

    def test_bad_initial_state(self):
        p = SpiralParams(4, 0, 0.0)
        with pytest.raises(InputError):
            run(p, -1.0, 0.0)
        with pytest.raises(InputError):
            run(p, 0.0, 0.0)
        # a row of another width is refused, not cut into (kappa, kappa_s) pairs
        with pytest.raises(InputError, match="rows, got shape"):
            integrate_grid(p, np.full((3, 4), 1.2), IntegratorControls(s_max=1.0))

    @pytest.mark.parametrize("rows", [[], np.zeros((0, 2))], ids=["list", "array"])
    @pytest.mark.parametrize("period_map", [False, True])
    def test_no_rows_give_no_trajectories(self, rows, period_map):
        controls = IntegratorControls(s_max=1.0)
        assert integrate_grid(SpiralParams(4, -1, 0.75), rows, controls, period_map) == []

    @pytest.mark.parametrize("name", ["step", "s_max"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_controls_refused(self, name, value):
        with pytest.raises(InputError, match="positive and finite"):
            IntegratorControls(**{name: value})


class TestCurveReconstruction:
    def test_plane_circle_closes(self):
        p = SpiralParams(4, 0, 0.0)
        traj = run(p, 1.0, 0.0, s_max=7.0, curve=True)
        res = closure_test(traj)
        assert res.status == "closed"
        assert res.period == pytest.approx(2 * np.pi, abs=1e-6)
        assert res.defect < 1e-8

    def test_half_plane_circle_closes(self):
        # constant geodesic curvature > 1 in the half-plane: a circle
        p = SpiralParams(4, -1, 0.75)
        kstar = equilibrium_kappa(p)  # 2/sqrt(3) > 1
        period = 2 * np.pi / np.sqrt(kstar**2 - 1.0)
        traj = run(p, kstar, 0.0, s_max=1.3 * period, curve=True)
        assert np.all(traj.curve[:, 1] > 0)
        res = closure_test(traj)
        assert res.status == "closed"
        assert res.period == pytest.approx(period, abs=1e-6)

    def test_sphere_constraints_maintained(self):
        p = SpiralParams(4, 1, -1.0)
        traj = run(p, 1.05, 0.0, s_max=6.0, curve=True)
        gam = traj.curve[:, 0:3]
        tan = traj.curve[:, 3:6]
        assert np.max(np.abs(np.linalg.norm(gam, axis=1) - 1)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(tan, axis=1) - 1)) < 1e-10
        assert np.max(np.abs(np.einsum("ij,ij->i", gam, tan))) < 1e-10

    @pytest.mark.parametrize(
        "params,k0,ks0,s_max",
        [
            (SpiralParams(4, 0, -0.05), 1.1, 0.1, 4.0),
            (SpiralParams(4, 1, -1.0), 1.02, 0.0, 2.5),
            (SpiralParams(4, -1, 0.75), 1.3, 0.05, 4.0),
        ],
    )
    def test_curvature_round_trip(self, params, k0, ks0, s_max):
        traj = run(params, k0, ks0, s_max=s_max, curve=True)
        s_mid, kap = recomputed_curvature(traj)
        target = traj.kappa_at(s_mid)
        assert np.max(np.abs(kap - target)) < 1e-6

    def test_non_equilibrium_does_not_close(self):
        p = SpiralParams(4, -1, 0.75)
        traj = run(p, 1.3, 0.0, s_max=60.0, curve=True, stride=5)
        res = closure_test(traj)
        assert res.status == "open"
        assert res.defect > 1e-3

    def test_row_that_left_its_band_is_never_open(self):
        # the "ceiling" row of test_rows_without_return_are_unchanged: its
        # least defect is far above TOL_OPEN, but it ended before the horizon
        controls = IntegratorControls(s_max=10.0, store_stride=10, kappa_ceiling=50.0)
        traj = integrate_grid(SpiralParams(4, -1, -0.5), [[1.0, 0.5]], controls)[0]
        assert traj.termination == "kappa_ceiling"
        res = closure_test(traj)
        assert res.status == "inconclusive"
        assert res.defect > 1e-3

    def test_defect_between_the_tolerances_is_inconclusive(self):
        # a plane near-circle: after one turn it misses its start by about
        # 4 pi kappa_s, between TOL_CLOSED and TOL_OPEN
        controls = IntegratorControls(s_max=7.0)
        traj = integrate_grid(SpiralParams(4, 0, 0.0), [[1.0, 1e-5]], controls)[0]
        assert traj.termination == "horizon"
        res = closure_test(traj)
        assert res.status == "inconclusive"
        assert 1e-6 < res.defect < 1e-3

    def test_queries_do_not_depend_on_the_sample_step(self):
        # controls.step only spaces the stored samples: the step polynomials,
        # and so every query, are the same bit for bit at any spacing
        p = SpiralParams(4, -1, 0.75)
        fine = run(p, 1.3, 0.0, s_max=2.0, step=5e-4, curve=True)
        coarse = run(p, 1.3, 0.0, s_max=2.0, step=1e-3, curve=True)
        assert fine.steps.starts == coarse.steps.starts
        assert all(map(np.array_equal, fine.steps.coefs, coarse.steps.coefs))
        sq = np.linspace(0.1, 1.9, 57) + 3.7e-4
        for name in ("kappa_at", "kappa_s_at", "curve_at", "curve_velocity_at", "curve_jet"):
            assert np.array_equal(getattr(fine, name)(sq), getattr(coarse, name)(sq))
        # against the RK4 oracle at step 2.5e-4, at its points between the
        # samples; the bound is the oracle's own error, its rounding over 8000
        # steps: the largest difference, 3.8e-13 in x, grows to 6.4e-13 at
        # step 1.25e-4, so it is not truncation
        controls = IntegratorControls(s_max=2.0, step=2.5e-4)
        s_o, ys_o, _ = rk4_oracle.row(p, 1.3, 0.0, controls, joint=True)
        off = np.arange(s_o.size) % 4 != 0
        at = s_o[off]
        states = np.column_stack([coarse.kappa_at(at), coarse.kappa_s_at(at), coarse.curve_at(at)])
        assert np.max(np.abs(states - ys_o[off])) <= 5e-13

    def test_query_outside_range_raises(self):
        p = SpiralParams(4, 0, 0.0)
        traj = run(p, 1.0, 0.0, s_max=2.0, curve=True)
        with pytest.raises(ChartDomainError):
            traj.kappa_at(np.array([2.5]))


def test_csv_export_roundtrip(tmp_path):
    p = SpiralParams(4, -1, 0.75)
    traj = run(p, 1.2, 0.0, s_max=1.0, curve=True)
    path = tmp_path / "traj.csv"
    text = export_csv(traj, path)
    assert path.read_text() == text
    header, columns = text.splitlines()[0], text.splitlines()[1]
    assert "epsilon=-1" in header and "variant" not in header
    assert columns.split(",") == ["s", "kappa", "kappa_s", "x", "y", "phi", "E"]
    body = np.array(
        [[float(v) for v in line.split(",")] for line in text.splitlines()[2:]]
    )
    assert np.allclose(body[:, 1], traj.kappa)
    e = first_integral(p, body[:, 1], body[:, 2])
    assert np.max(np.abs(e - traj.first_integral_constant)) < 1e-9


# ---------------------------------------------------------------------------
# the Taylor-marched prescribed-curvature controls against the RK4 oracle,
# and the queries of both kinds of row

ORACLE_CASES = {
    ("plane", "standard"): (SpiralParams(4, 0, -0.05), 1.1, 0.1),
    ("sphere", "standard"): (SpiralParams(4, 1, -1.0), 1.02, 0.05),
    ("half-plane", "standard"): (SpiralParams(4, -1, 0.75), 1.3, 0.05),
}


class TestKernelOracle:
    @pytest.mark.parametrize("joint", [False, True], ids=["kappa", "joint"])
    def test_non_finite_start_refused(self, joint):
        # a NaN kappa_s would end the row inside the first step, so it is refused
        controls = IntegratorControls(s_max=3.0)
        params = SpiralParams(4, -1, 0.75)
        with pytest.raises(InputError):
            if joint:
                integrate_grid(params, [[1.0, float("nan")]], controls)
            else:
                integrate_spiral(params, SpiralState(1.0, float("nan")), controls)

    @pytest.mark.parametrize(
        "epsilon,s_max,floor,atol",
        [(0, 3.0, 1e-6, 1e-12), (1, 3.0, 1e-6, 1e-12), (-1, 3.0, 1e-6, 1e-12),
         (-1, 5.0, 0.9, 5e-12)],
        ids=["0", "1", "-1", "half-plane-floor"],
    )
    def test_prescribed_curvature_matches_rk4_oracle(self, epsilon, s_max, floor, atol):
        # the Taylor-marched control against the RK4 oracle on its grid,
        # within RK4's own error at h = 1e-3 (1.9e-12 by s = 4.1 on the
        # half-plane); kappa = 1.15 + 0.3 sin s crosses the floor 0.9 near
        # s = 4.13, and the two bisected crossings agree to 1.1e-11
        controls = IntegratorControls(s_max=s_max, kappa_floor=floor)
        traj = prescribed_curvature_trajectory(4, epsilon, SINE, controls)
        y0 = np.concatenate([SINE(np.zeros(1), 1)[0], traj.start[2:]])
        s, ys, term = rk4_oracle.prescribed_row(traj.model, SINE, y0, controls)
        assert traj.termination == term == ("kappa_floor" if floor > 1e-3 else "horizon")
        assert np.array_equal(traj.s[:-1], s[:-1])
        assert np.max(np.abs(traj.curve[:-1] - ys[:-1, 2:])) <= atol
        if term == "horizon":
            assert traj.s[-1] == s[-1]
            assert np.max(np.abs(traj.curve[-1] - ys[-1, 2:])) <= atol
        else:
            assert abs(traj.s[-1] - s[-1]) <= 1e-9
            assert np.max(np.abs(traj.curve[-1] - ys[-1, 2:])) <= 1e-9


class TestPrescribedCurvature:
    def test_sine_coefficients_are_the_scaled_derivatives(self):
        # column j is kappa^(j) / j! of kappa = 1.15 + 0.3 sin s
        s = np.random.default_rng(3).uniform(-10.0, 10.0, 17)
        ders = [
            1.15 + 0.3 * np.sin(s), 0.3 * np.cos(s), -0.3 * np.sin(s), -0.3 * np.cos(s),
            0.3 * np.sin(s),
        ]
        coefs = SINE(s, 4)
        assert coefs.shape == (s.size, 5)
        for j, der in enumerate(ders):
            assert np.allclose(coefs[:, j], der / math.factorial(j), rtol=0.0, atol=1e-15)

    def test_queries_follow_the_prescribed_curvature(self):
        # the queries read the prescribed curvature's own step polynomials,
        # not the spiral equation's
        controls = IntegratorControls(s_max=4.5, step=1e-3)
        traj = prescribed_curvature_trajectory(4, -1, SINE, controls)
        sq = np.linspace(0.0, 4.498, 4001) + 3.7e-4
        assert sq[-1] < traj.s[-1] and not np.any(np.isin(sq, traj.s))
        kappa, kappa_s = SINE(sq, 1).T
        assert np.max(np.abs(traj.kappa_s_at(sq) - kappa_s)) <= 1e-10
        assert np.max(np.abs(traj.kappa_at(sq) - kappa)) <= 1e-10
        # c'' of curve_jet follows kappa_s: the angle's second derivative is
        # kappa_s + sin(phi) phi' on the half-plane
        _, vel, acc = traj.curve_jet(sq)
        phi = traj.curve_at(sq)[:, 2]
        assert np.max(np.abs(acc[:, 2] - (kappa_s + np.sin(phi) * vel[:, 2]))) <= 1e-10


def frame_velocity(model, kappa, curve):
    """d curve / ds from the unit-speed frame equations (the c' oracle)."""
    out = np.empty_like(curve)
    if model == "plane":
        theta = curve[:, 2]
        out[:, 0] = np.cos(theta)
        out[:, 1] = np.sin(theta)
        out[:, 2] = kappa
    elif model == "half-plane":
        y, phi = curve[:, 1], curve[:, 2]
        out[:, 0] = y * np.cos(phi)
        out[:, 1] = y * np.sin(phi)
        out[:, 2] = kappa - np.cos(phi)
    else:
        gam, tan = curve[:, 0:3], curve[:, 3:6]
        out[:, 0:3] = tan
        out[:, 3:6] = kappa[:, None] * np.cross(gam, tan) - gam
    return out


def frame_accel(model, kappa, kappa_s, curve, vel):
    """d^2 curve / ds^2 from the frame equations, given their value vel (the c'' oracle).

    The s-derivative of frame_velocity, by the chain rule with
    kappa' = kappa_s; curve_jet reads c'' from the step polynomials instead.
    """
    out = np.empty_like(curve)
    if model == "plane":
        out[:, 0] = -vel[:, 1] * kappa
        out[:, 1] = vel[:, 0] * kappa
        out[:, 2] = kappa_s
    elif model == "half-plane":
        # x' = y cos phi and y' = y sin phi, so y sin phi = y' and y cos phi = x'
        phi = curve[:, 2]
        out[:, 0] = vel[:, 1] * (np.cos(phi) - vel[:, 2])
        out[:, 1] = vel[:, 1] * np.sin(phi) + vel[:, 0] * vel[:, 2]
        out[:, 2] = kappa_s + np.sin(phi) * vel[:, 2]
    else:
        # gamma'' = T'; T'' = kappa_s gamma x T + kappa gamma x T' - T, as gamma' x T = 0
        gam, tan, tan_s = curve[:, 0:3], curve[:, 3:6], vel[:, 3:6]
        out[:, 0:3] = tan_s
        out[:, 3:6] = (
            kappa_s[:, None] * np.cross(gam, tan) + kappa[:, None] * np.cross(gam, tan_s) - tan
        )
    return out


@pytest.mark.parametrize("case", list(ORACLE_CASES), ids=lambda c: f"{c[0]}-{c[1]}")
def test_queries_read_the_step_polynomials(case):
    # between the samples, c' is the frame equations' right-hand side at
    # (kappa, c) and c'' its s-derivative, to round-off; at the samples the
    # queries give the samples back
    params, k0, ks0 = ORACLE_CASES[case]
    traj = integrate_grid(params, [[k0, ks0]], IntegratorControls(s_max=1.0))[0]
    sq = np.linspace(0.05, 0.95, 41) + 3.7e-4
    assert not np.any(np.isin(sq, traj.s))
    kappa, kappa_s, c = traj.kappa_at(sq), traj.kappa_s_at(sq), traj.curve_at(sq)
    rhs = frame_velocity(params.model, kappa, c)
    assert np.max(np.abs(traj.curve_velocity_at(sq) - rhs)) <= 1e-12
    acc = traj.curve_jet(sq)[2]
    assert np.max(np.abs(acc - frame_accel(params.model, kappa, kappa_s, c, rhs))) <= 1e-12
    for query, samples in (
        (traj.kappa_at, traj.kappa), (traj.kappa_s_at, traj.kappa_s), (traj.curve_at, traj.curve)
    ):
        assert np.max(np.abs(query(traj.s) - samples)) <= 1e-13


@pytest.mark.parametrize("case", list(ORACLE_CASES), ids=lambda c: f"{c[0]}-{c[1]}")
def test_curve_jet(case):
    # c and c' are curve_at and curve_velocity_at bit for bit; c'' is the
    # s-derivative of c', checked by a central difference of it
    params, k0, ks0 = ORACLE_CASES[case]
    traj = integrate_grid(params, [[k0, ks0]], IntegratorControls(s_max=1.0))[0]
    sq = np.linspace(0.05, 0.95, 41)
    c, vel, acc = traj.curve_jet(sq)
    assert np.array_equal(c, traj.curve_at(sq))
    assert np.array_equal(vel, traj.curve_velocity_at(sq))
    h = 1e-4
    diff = (traj.curve_velocity_at(sq + h) - traj.curve_velocity_at(sq - h)) / (2 * h)
    assert np.max(np.abs(acc - diff)) < 1e-6


@pytest.mark.parametrize("case", list(ORACLE_CASES), ids=lambda c: f"{c[0]}-{c[1]}")
def test_curve_jet_to_order_four(case):
    # the order-4 jet extends the order-2 one bit for bit; its third and fourth
    # derivatives are the s-derivatives of the second and third, checked by
    # central differences whose error falls about 16 times when the step halves
    params, k0, ks0 = ORACLE_CASES[case]
    traj = integrate_grid(params, [[k0, ks0]], IntegratorControls(s_max=1.0))[0]
    sq = np.linspace(0.1, 0.9, 33) + 3.7e-4
    jet4 = traj.curve_jet(sq, 4)
    assert all(map(np.array_equal, jet4[:3], traj.curve_jet(sq)))

    def errors(h):
        ahead, behind = traj.curve_jet(sq + h, 4), traj.curve_jet(sq - h, 4)
        ahead2, behind2 = traj.curve_jet(sq + 2 * h, 4), traj.curve_jet(sq - 2 * h, 4)
        return [
            np.max(
                np.abs(
                    jet4[j + 1]
                    - (8 * (ahead[j] - behind[j]) - (ahead2[j] - behind2[j])) / (12 * h)
                )
            )
            for j in (2, 3)
        ]

    coarse, fine = errors(0.02), errors(0.01)
    for e_coarse, e_fine in zip(coarse, fine):
        assert e_fine < 1e-6
        assert 12.0 < e_coarse / e_fine < 20.0


def test_piecewise_at_reads_differentiated_horner():
    # every order of Piecewise.at is the derivative of the stored step
    # polynomial, evaluated by Horner on its differentiated coefficients
    from numpy.polynomial import polynomial as P

    params, k0, ks0 = ORACLE_CASES[("half-plane", "standard")]
    traj = integrate_grid(params, [[k0, ks0]], IntegratorControls(s_max=2.0))[0]
    steps = traj.steps
    t = np.linspace(0.0, 1.99, 29) + 3.7e-4
    got = steps.at(t, 4)
    # a lower order reads the same leading rows, bit for bit
    assert np.array_equal(steps.at(t, 2), got[:3])
    assert np.array_equal(steps.at(t), got[:1])
    index = np.searchsorted(steps.starts, t, side="right") - 1
    for i, (ti, step) in enumerate(zip(t, index)):
        coefs = steps.coefs[step]
        for order in range(5):
            ref = [
                P.polyval(ti - steps.starts[step], P.polyder(coefs[:, c], order))
                for c in range(coefs.shape[1])
            ]
            assert np.max(np.abs(got[order, i] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# period-map closure against the full-horizon scan it replaced

HALF_PLANE_PARAMS = SpiralParams(4, -1, 0.75)
KSTAR = equilibrium_kappa(HALF_PLANE_PARAMS)


def angle_gap(a, b):
    return np.abs(np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi)


class TestPeriodMap:
    @pytest.mark.parametrize(
        "dk,dks", [(0.2, 0.16), (-0.1, 0.0), (0.025, -0.08)], ids=["far", "kappa-only", "near"]
    )
    def test_matches_full_horizon_scan(self, dk, dks):
        # rows of the rigidity grid at horizon 40 (spread 0.2, stride 10)
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        row = [[KSTAR * (1.0 + dk), KSTAR * dks]]
        full = integrate_grid(HALF_PLANE_PARAMS, row, controls)[0]
        periodic = integrate_grid(HALF_PLANE_PARAMS, row, controls, period_map=True)[0]
        assert full.period_map is None
        assert periodic.termination == full.termination == "horizon"
        assert 4.4 < periodic.period_map.period == periodic.s_end < 4.7
        ref, res = closure_test(full), closure_test(periodic)
        assert res.status == ref.status == "open"
        assert res.defect == pytest.approx(ref.defect, rel=1e-8)

    def test_refinement_bracket_across_a_period(self):
        # this row's least candidate defect sits at 5 T, so the refinement
        # bracket runs from the last sample before T moved by M**4 to the
        # first after 0 moved by M**5
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        row = [[KSTAR * 1.1, KSTAR * 0.04]]
        full = integrate_grid(HALF_PLANE_PARAMS, row, controls)[0]
        periodic = integrate_grid(HALF_PLANE_PARAMS, row, controls, period_map=True)[0]
        cand_s, cand = closure_oracle.candidates(periodic)
        late = np.flatnonzero(cand_s >= 1.0)  # the scan starts at min(1, 40 / 4) = 1 here
        defects = closure_oracle.full_defect(periodic, cand[late])
        k = late[np.argmin(defects)]
        assert cand_s[k - 1] < 5.0 * periodic.period_map.period < cand_s[k + 1]
        ref, res = closure_test(full), closure_test(periodic)
        assert res.status == ref.status
        assert res.defect == pytest.approx(ref.defect, rel=1e-8)

    @pytest.mark.parametrize("horizon", [40.0, 200.0])
    def test_batched_refinement_matches_closure_test(self, horizon):
        # every row of the rigidity grid, and the row whose bracket crosses 5 T
        # (test_refinement_bracket_across_a_period), refined together
        rows = np.vstack([rigidity_initials(RunConfig(), KSTAR), [[KSTAR * 1.1, KSTAR * 0.04]]])
        controls = IntegratorControls(s_max=horizon, store_stride=10)
        trajs = integrate_grid(HALF_PLANE_PARAMS, rows, controls, period_map=True)
        assert all(t.period_map is not None for t in trajs)
        oracle = [closure_oracle.closure_test(t) for t in trajs]
        assert closure_tests(trajs) == [closure_test(t) for t in trajs] == oracle

    @pytest.mark.parametrize("horizon", [40.0, 200.0])
    def test_scan_rows_without_period_maps_match_the_oracle(self, horizon):
        # the equilibrium row marched over 1.5 periods (at any horizon) without
        # a period map, the oracle of rigidity_scan's one-step map
        # (test_rest_point_map_closes_as_the_full_march), and the two
        # flat-control plane rows, which rigidity_scan bounds without a march
        # (TestFlatClosureBound): their candidates are their samples
        period = 2.0 * np.pi / np.sqrt(KSTAR**2 - 1.0)
        eq = integrate_grid(
            HALF_PLANE_PARAMS, [[KSTAR, 0.0]], IntegratorControls(s_max=1.5 * period)
        )
        flat = integrate_grid(
            SpiralParams(4, 0, 0.0),
            [[1.0, 0.05], [1.0, 0.1]],
            IntegratorControls(s_max=min(horizon, 60.0), store_stride=10),
        )
        for trajs in (eq, flat):
            assert all(t.period_map is None for t in trajs)
            assert closure_tests(trajs) == [closure_oracle.closure_test(t) for t in trajs]
        assert closure_tests(eq)[0].status == "closed"

    def test_batched_refinement_without_period_maps(self):
        # plane rows (a circle that closes at 2 pi, and two flat controls) and
        # sphere rows, each marched to the horizon
        plane = integrate_grid(
            SpiralParams(4, 0, 0.0),
            [[1.0, 0.0], [1.0, 0.05], [1.0, 0.1]],
            IntegratorControls(s_max=7.0),
        )
        sphere = integrate_grid(
            SpiralParams(4, 1, -1.0),
            [[1.0, 0.0], [1.0, 0.01], [1.02, 0.0]],
            IntegratorControls(s_max=10.0),
        )
        for trajs in (plane, sphere):
            oracle = [closure_oracle.closure_test(t) for t in trajs]
            assert closure_tests(trajs) == [closure_test(t) for t in trajs] == oracle
        assert closure_tests(plane)[0].status == "closed"
        assert closure_tests([]) == []
        with pytest.raises(InputError, match="one model"):
            closure_tests(plane + sphere)

    def test_identity_leaves_states_bit_for_bit(self):
        # the closure search moves every probe by M**k of its turn, M**0 = Id
        # before T and on rows without a period map
        rows = rigidity_initials(RunConfig(), KSTAR)
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        trajs = integrate_grid(HALF_PLANE_PARAMS, rows, controls)
        states = np.concatenate([t.curve for t in trajs])
        assert np.ptp(states[:, 0]) > 1.0 and np.ptp(states[:, 2]) > 1.0
        moved = spiral._moebius(states, np.eye(2))
        assert moved.tobytes() == states.tobytes()

    def test_rows_without_maps_are_not_moved(self, monkeypatch):
        rows = rigidity_initials(RunConfig(), KSTAR)[:3]
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        plain = integrate_grid(HALF_PLANE_PARAMS, rows, controls)
        watched = integrate_grid(HALF_PLANE_PARAMS, rows, controls, period_map=True)
        moves, original = [], spiral._moebius

        def moebius(curve, m):
            moves.append(curve.shape)
            return original(curve, m)

        monkeypatch.setattr(spiral, "_moebius", moebius)
        assert closure_tests(plain) == [closure_oracle.closure_test(t) for t in plain]
        assert moves == []
        assert closure_tests(watched) == [closure_oracle.closure_test(t) for t in watched]
        assert moves

    def test_holonomy_carries_the_frame_one_period_on(self):
        pmap = integrate_grid(
            HALF_PLANE_PARAMS, [[1.3, 0.05]], IntegratorControls(s_max=10.0), period_map=True
        )[0].period_map
        assert np.linalg.det(pmap.holonomy) == pytest.approx(1.0, abs=1e-14)
        marched = integrate_grid(
            HALF_PLANE_PARAMS, [[1.3, 0.05]], IntegratorControls(s_max=pmap.period + 2.0)
        )[0]
        u = np.array([0.3, 1.7])
        moved = spiral._moebius(marched.curve_at(u), pmap.powers([1])[0])
        later = marched.curve_at(pmap.period + u)
        assert np.max(np.abs(moved[:, :2] - later[:, :2])) < 1e-9
        assert np.max(angle_gap(moved[:, 2], later[:, 2])) < 1e-9
        assert np.max(np.abs(marched.kappa_at(pmap.period + u) - marched.kappa_at(u))) < 1e-9

    def test_rest_point_period_is_its_first_step(self):
        # at (kappa*, 0) every arc length is a period: the row stops at the end
        # of its first Taylor step, and that step's holonomy moves the curve
        # one step on at every s
        controls = IntegratorControls(s_max=12.0)
        plain = integrate_grid(HALF_PLANE_PARAMS, [[KSTAR, 0.0]], controls)[0]
        rest = integrate_grid(HALF_PLANE_PARAMS, [[KSTAR, 0.0]], controls, period_map=True)[0]
        y0 = (KSTAR, 0.0, *default_curve_start(spiral.HALF_PLANE))
        first_step = spiral._spiral_series(HALF_PLANE_PARAMS, True)(0.0, y0)[1]
        assert rest.termination == "horizon" and rest.steps.starts == [0.0]
        assert 0.5 < rest.period_map.period == rest.s_end == first_step < 1.0
        assert np.array_equal(rest.steps.coefs, plain.steps.coefs[:1])
        # the samples cover [0, first_step]: the plain row's samples before it, then its end
        inside = rest.s.size - 1
        assert plain.s[inside - 1] < first_step <= plain.s[inside]
        assert rest.s[0] == 0.0 and np.array_equal(rest.s[:-1], plain.s[:inside])
        for name in ("kappa", "kappa_s", "curve"):
            assert np.array_equal(getattr(rest, name)[:-1], getattr(plain, name)[:inside])
        u = np.array([0.0, 0.3, 2.0, 7.5, 10.0])
        moved = spiral._moebius(plain.curve_at(u), rest.period_map.holonomy)
        later = plain.curve_at(u + first_step)
        assert np.max(np.abs(moved[:, :2] - later[:, :2])) < 1e-12
        assert np.max(angle_gap(moved[:, 2], later[:, 2])) < 1e-12
        results = closure_tests([rest, plain])
        assert results == [closure_oracle.closure_test(t) for t in (rest, plain)]
        assert [r.status for r in results] == ["closed", "closed"]

    @pytest.mark.parametrize(
        "n,big_r", [(4, 0.75), (5, 0.75), (6, 1.2), (7, 2.0)], ids=["4", "5", "6", "7"]
    )
    def test_rest_point_map_closes_as_the_full_march(self, n, big_r):
        # rigidity_scan's equilibrium row: its one-step map and its march over
        # all 1.5 periods, the oracle, both close with the hyperbolic circle's period
        params = SpiralParams(n, -1, big_r)
        kstar = equilibrium_kappa(params)
        period = 2.0 * np.pi / np.sqrt(kstar**2 - 1.0)
        controls = IntegratorControls(s_max=1.5 * period)
        full, mapped = (
            integrate_grid(params, [[kstar, 0.0]], controls, period_map=watch)[0]
            for watch in (False, True)
        )
        assert len(mapped.steps.starts) == 1 and len(full.steps.starts) > 40
        assert mapped.period_map is not None and full.period_map is None
        assert closure_tests([mapped]) == [closure_oracle.closure_test(mapped)]
        for traj in (full, mapped):
            res = closure_test(traj)
            assert res.status == "closed"
            assert abs(res.period - period) <= 1e-11 and res.defect <= 1e-11

    @pytest.mark.parametrize(
        "params,row,s_max,stride",
        [
            (SpiralParams(4, 0, 0.0), [1.0, 0.05], 40.0, 10),  # flat control: kappa is linear
            (SpiralParams(4, -1, -0.5), [1.0, 0.5], 10.0, 10),  # leaves through the ceiling
        ],
        ids=["flat", "ceiling"],
    )
    def test_rows_without_return_are_unchanged(self, params, row, s_max, stride):
        controls = IntegratorControls(s_max=s_max, store_stride=stride, kappa_ceiling=50.0)
        plain = integrate_grid(params, [row], controls)[0]
        watched = integrate_grid(params, [row], controls, period_map=True)[0]
        assert watched.period_map is None
        assert watched.termination == plain.termination
        for name in ("s", "kappa", "kappa_s", "curve"):
            assert np.array_equal(getattr(watched, name), getattr(plain, name))
        if plain.termination == "horizon":
            assert closure_test(watched) == closure_test(plain)
        oracle = [closure_oracle.closure_test(t) for t in (watched, plain)]
        assert closure_tests([watched, plain]) == oracle


# ---------------------------------------------------------------------------
# the lockstep grid's per-row shortcuts against the loops they replaced


class ZeroSlope(taylor.FirstReturn):
    """A row's first-return watch whose Newton slope dk f0 + dks f1 reads 0; g is the row's."""

    def __init__(self, ret):
        self.__dict__.update(vars(ret))
        self.row, self.f0, self.f1 = ret, 0.0, 0.0

    def g(self, kappa, kappa_s):
        return self.row.g(kappa, kappa_s)


def recorded_returns(monkeypatch, params, rows, controls):
    """(return, cols, ts, crossings, t) of every FirstReturn.near call of a period-map march."""
    calls, near = [], taylor.FirstReturn.near

    def recording(ret, cols, ts, crossings):
        calls.append((ret, cols, ts, crossings, near(ret, cols, ts, crossings)))
        return calls[-1][-1]

    monkeypatch.setattr(taylor.FirstReturn, "near", recording)
    integrate_grid(params, rows, controls, period_map=True)
    monkeypatch.undo()
    return calls


def grid_returns(monkeypatch, n, horizon, spread):
    cfg = RunConfig(n=n, horizon=horizon, grid_spread=spread)
    params = SpiralParams(n, -1, cfg.R)
    rows = rigidity_initials(cfg, equilibrium_kappa(params))
    controls = IntegratorControls(s_max=horizon, step=cfg.step, store_stride=10)
    return recorded_returns(monkeypatch, params, rows, controls)


class TestFirstReturn:
    @pytest.mark.parametrize("spread", [0.1, 0.2])
    @pytest.mark.parametrize("horizon", [40.0, 200.0])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_grid_returns_are_the_bisection(self, monkeypatch, n, horizon, spread):
        # every row of the rigidity grid returns where the plain bisection puts it,
        # bit for bit, and Newton's root predicts nearly all of its halvings
        calls = grid_returns(monkeypatch, n, horizon, spread)
        assert sum(t is not None for *_, t in calls) == 25
        for ret, cols, ts, crossings, t in calls:
            assert t == bisection_oracle.near(ret, cols, ts, crossings)
            for i in crossings:
                watch = (ts[i - 1] if i else 0.0), ts[i]
                root = ret._newton_root(cols, *watch)
                assert watch[0] < root < watch[1]
                lo, hi = ret._replay(cols, *watch, root)
                assert watch[0] <= lo < hi <= watch[1]
                assert hi - lo <= 2**12 * math.ulp(hi)

    @pytest.mark.parametrize(
        "root",
        [
            lambda lo, hi: None,
            lambda lo, hi: 0.5 * (lo + hi),
            lambda lo, hi: lo + 0.3 * (hi - lo),
            lambda lo, hi: hi,
        ],
        ids=["no-root", "midpoint", "wrong", "bracket-end"],
    )
    def test_any_root_gives_the_bisection(self, monkeypatch, root):
        # the root only predicts the halvings, and the test at each midpoint
        # decides it: no root (the plain bisection), or a poor one, ends at the same float
        calls = grid_returns(monkeypatch, 5, 40.0, 0.2)
        monkeypatch.setattr(taylor.FirstReturn, "_newton_root", lambda ret, cols, lo, hi: root(lo, hi))
        for ret, cols, ts, crossings, t in calls:
            assert taylor.FirstReturn.near(ret, cols, ts, crossings) == t

    def test_zero_slope_gives_no_root(self, monkeypatch):
        calls = grid_returns(monkeypatch, 4, 40.0, 0.2)[:5]
        for ret, cols, ts, crossings, t in calls:
            zero = ZeroSlope(ret)
            assert all(zero._newton_root(cols, 0.0, ts[i]) is None for i in crossings)
            assert zero.near(cols, ts, crossings) == t

    def test_crossing_where_g_changes_sign_more_than_once(self, monkeypatch):
        # g's float values change sign three times within 3 ulps of this
        # crossing: a bisection from any other bracket may end on another
        # change, so each halving of the plain one is replayed
        params = SpiralParams(6, -1, 0.3)
        kstar, offset = equilibrium_kappa(params), -0.05247410411968617
        rows = [[kstar * (1.0 + offset), kstar * offset]]
        calls = recorded_returns(monkeypatch, params, rows, IntegratorControls(s_max=30.0))
        ret, cols, ts, crossings, t = calls[-1]
        assert t is not None and t == bisection_oracle.near(ret, cols, ts, crossings)
        points = [t]
        for _ in range(4):
            points = [math.nextafter(points[0], 0.0)] + points + [math.nextafter(points[-1], 1.0)]
        signs = ret.below(cols, np.array(points))
        assert np.count_nonzero(signs[:-1] != signs[1:]) == 3

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([4, 5, 6]),
        big_r=st.floats(0.3, 1.5),
        dk=st.floats(-0.35, 0.35),
        dks=st.floats(-0.3, 0.3),
        block=st.booleans(),
    )
    def test_drawn_returns_are_the_bisection(self, n, big_r, dk, dks, block):
        # a row alone (on floats) or in a lockstep block, anywhere on the closed
        # orbits around kappa*
        params = SpiralParams(n, -1, big_r)
        kstar = equilibrium_kappa(params)
        assume(kstar > 1.0 and abs(dk) + abs(dks) > 1e-3)  # the rest point has no crossing
        rows = [[kstar * (1.0 + dk), kstar * dks]]
        assume(first_integral(params, *rows[0]) < 0.0)
        if block:
            rows += [[kstar * (1.0 + dk * f), kstar * dks * f] for f in (0.5, 0.7, 0.9)] * 2
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = recorded_returns(monkeypatch, params, rows, IntegratorControls(s_max=30.0))
        for ret, cols, ts, crossings, t in calls:
            assert t == bisection_oracle.near(ret, cols, ts, crossings)


def block_series(seed: int, rows: int = 9):
    """Coefficients of a 5-component block, (5, TAYLOR_ORDER + 1, rows), with the edge
    cases of the step bound: zero and nan top coefficients, a nan c[0], an infinite and
    a subnormal c[j], and a row of zeros."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((5, taylor.TAYLOR_ORDER + 1, rows))
    cols *= np.exp(rng.uniform(-30.0, 5.0, (5, 1, rows)))
    cols[0, -1, 0] = cols[2, -2, 0] = 0.0
    cols[1, -1, 1] = cols[3, -2, 2] = np.nan
    cols[4, 0, 3] = np.nan
    cols[2, -1, 4], cols[3, -2, 5] = np.inf, 5e-324
    cols[:, :, 6] = 0.0
    return cols


@pytest.mark.parametrize("seed", range(5))
def test_block_step_bound_is_each_rows_bound(seed):
    # the block's one-pass bound is each row's bound on floats, bit for bit
    cols = block_series(seed)
    block = list(cols)
    rows = [[c[:, i].tolist() for c in block] for i in range(cols.shape[2])]
    radius = taylor._Block.radius(block)
    assert radius.tolist() == [taylor._Floats.radius(row) for row in rows]
    assert taylor.step_size(block).tolist() == [taylor.step_size(row) for row in rows]
    assert radius[6] == math.inf and 0.0 < radius[0] < math.inf


@pytest.mark.parametrize("seed", range(5))
def test_stacked_next_state_is_state(seed):
    # one Horner pass over the stacked (order + 1, d, B) block is state() on
    # each component and on each row, bit for bit
    cols = block_series(seed)
    h = np.random.default_rng(seed).uniform(0.0, 0.7, cols.shape[2])
    h[0], h[1] = 0.0, np.inf
    with np.errstate(all="ignore"):
        stacked = taylor.horner(cols.transpose(1, 0, 2), h)
        assert stacked.tobytes() == np.array(taylor.state(list(cols), h)).tobytes()
    for i in range(cols.shape[2]):
        row = taylor.state([c[:, i].tolist() for c in cols], float(h[i]))
        assert np.array_equal(stacked[:, i], row, equal_nan=True)


class TestPrunedClosureScan:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_grid_at_horizon_200_is_the_full_scan(self, n):
        # the angle term is taken only where it can give the least defect;
        # every row's verdict, least defect and its arc length are the full scan's
        cfg = RunConfig(n=n)
        params = SpiralParams(n, -1, cfg.R)
        rows = rigidity_initials(cfg, equilibrium_kappa(params))
        controls = IntegratorControls(s_max=cfg.horizon, step=cfg.step, store_stride=10)
        trajs = integrate_grid(params, rows, controls, period_map=True)
        assert closure_tests(trajs) == [closure_oracle.closure_test(t) for t in trajs]

    def test_row_where_nearly_every_candidate_survives(self):
        # just past one period at R = 0.5 the least bound (distance and kappa
        # parts) sits where the tangent is far off, so the prune keeps almost
        # every candidate, and the least defect is not at the least bound
        params = SpiralParams(4, -1, 0.5)
        row = [[0.9 * equilibrium_kappa(params), 0.0]]
        period = integrate_grid(
            params, row, IntegratorControls(s_max=20.0), period_map=True
        )[0].period_map.period
        controls = IntegratorControls(s_max=1.05 * period, store_stride=10)
        traj = integrate_grid(params, row, controls, period_map=True)[0]
        cand_s, cand = closure_oracle.candidates(traj)
        window = cand_s >= min(1.0, 0.25 * cand_s[-1])
        start = spiral._start(traj)
        lower = spiral._hyperbolic_distance(cand[:, 2], cand[:, 3], start[2], start[3])
        lower += np.abs(cand[:, 0] - start[0])
        lower += np.abs(cand[:, 1] - start[1])
        full = closure_oracle.full_defect(traj, cand)
        least = np.argmin(np.where(window, lower, np.inf))
        assert np.mean(lower[window] <= full[least]) > 0.9
        assert np.argmin(np.where(window, full, np.inf)) != least
        assert closure_tests([traj]) == [closure_oracle.closure_test(traj)]

    @pytest.mark.parametrize("broken", [None, "angle", "position"])
    def test_scan_is_the_unpruned_scan(self, monkeypatch, broken):
        # (a, b, defect, s) of every grid row equals the scan that takes the angle
        # everywhere, bits and all; a nan angle or position, where a defect may
        # be nan and argmin picks the first nan, scores every candidate
        cfg = RunConfig(n=5, horizon=40.0)
        params = SpiralParams(5, -1, cfg.R)
        rows = rigidity_initials(cfg, equilibrium_kappa(params))
        controls = IntegratorControls(s_max=cfg.horizon, step=cfg.step, store_stride=10)
        trajs = integrate_grid(params, rows, controls, period_map=True)
        if broken:
            samples = trajs[3]._samples.copy()
            samples[samples.shape[0] // 2, 4 if broken == "angle" else 2] = np.nan
            trajs[3].__dict__["_samples"] = samples
        pruned = [spiral._coarse_closure(t, spiral._holonomy_table(t)) for t in trajs]
        monkeypatch.setattr(spiral, "_least_half_plane_defect", lambda *args: None)
        full = [spiral._coarse_closure(t, spiral._holonomy_table(t)) for t in trajs]
        assert np.array(pruned).tobytes() == np.array(full).tobytes()
        assert np.isnan(pruned[3][2]) == bool(broken)

    def test_curve_defect_is_the_summed_square(self):
        # the half-plane distance written out as dx*dx + dy*dy is the summed
        # square it replaced, bit for bit
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(500, 3)) * [3.0, 1.0, 4.0]
        coords[:, 1] = rng.uniform(0.05, 4.0, 500)
        ref = np.array([0.3, 1.1, -0.4])
        pos, rpos = coords[:, :2], ref[:2]
        sq = np.sum((pos - rpos) ** 2, axis=-1)
        old = np.arccosh(1.0 + sq / (2.0 * pos[:, 1] * rpos[1]))
        old += np.abs(np.mod(coords[:, 2] - ref[2] + np.pi, 2.0 * np.pi) - np.pi)
        assert spiral.curve_defect(spiral.HALF_PLANE, coords, ref).tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# the Taylor marcher against the RK4 oracle it replaced

EVENT_CASES = [
    (SpiralParams(4, 0, 0.5), 1.0, -0.5, IntegratorControls(s_max=3.0), "kappa_floor"),
    (SpiralParams(4, 0, -0.5), 1.0, 0.5, IntegratorControls(s_max=3.0, kappa_ceiling=10.0),
     "kappa_ceiling"),
]
EVENT_IDS = ["floor", "ceiling"]


def assert_matches_oracle(traj, controls, atol=1e-10):
    """traj against the RK4 oracle marched with the same controls from the same start."""
    s_o, ys_o, term_o = rk4_oracle.row(
        traj.params, traj.kappa[0], traj.kappa_s[0], controls, joint=True
    )
    assert traj.termination == term_o == "horizon"
    assert np.array_equal(traj.s[:-1], s_o[:-1])  # the same sample grid
    assert traj.s[-1] == pytest.approx(s_o[-1], abs=1e-12)
    assert np.max(np.abs(np.column_stack([traj.kappa, traj.kappa_s, traj.curve]) - ys_o)) <= atol


class TestTaylorOracle:
    @pytest.mark.parametrize(
        "s_max,step,stride",
        [(40.0, 1e-3, 10), (16.3, 1e-3, 1), (0.0105, 1e-3, 3), (5e-4, 1e-3, 3), (8.2, 1e-3, 4097)],
    )
    def test_sample_grid_is_the_rk4_grid(self, s_max, step, stride):
        # the samples sit where the fixed-step march stores them, bit for bit
        controls = IntegratorControls(s_max=s_max, step=step, store_stride=stride)
        s_o = rk4_oracle.march(lambda s, y, h: y, [1.0], s_max, controls)[0]
        assert np.array_equal(spiral._sample_grid(controls), s_o)

    @pytest.mark.parametrize(
        "dk,dks",
        [(0.2, 0.16), (-0.2, -0.16), (-0.1, 0.0), (0.025, -0.08), (0.2, -0.16)],
        ids=["far", "low", "kappa-only", "near", "far-down"],
    )
    def test_half_plane_grid_rows_over_one_period(self, dk, dks):
        # rows of the rigidity grid (spread 0.2, stride 10), each up to its
        # first kappa return; the oracle is marched to the same s
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        row = [[KSTAR * (1.0 + dk), KSTAR * dks]]
        traj = integrate_grid(HALF_PLANE_PARAMS, row, controls, period_map=True)[0]
        period = traj.period_map.period
        assert period == traj.s_end < 5.0
        assert_matches_oracle(traj, IntegratorControls(s_max=period, store_stride=10))

    @pytest.mark.parametrize(
        "params,k0,ks0",
        [
            # n = 5: c2 = -1, so the quotient recurrence of kappa_series runs
            (SpiralParams(5, 0, 0.0), 1.1, 0.1),
            # the equilibrium kappa* = 1; every other sphere row reaches the
            # kappa floor or leaves this saddle before s = 10
            (SpiralParams(4, 1, -1.0), 1.0, 0.0),
            (SpiralParams(5, -1, 0.75), 1.5, 0.05),
            (SpiralParams(6, -1, 0.75), 1.7, 0.05),
        ],
        ids=["plane", "sphere-n4", "half-plane-n5", "half-plane-n6"],
    )
    def test_plane_and_sphere_rows_to_ten(self, params, k0, ks0):
        controls = IntegratorControls(s_max=10.0)
        assert_matches_oracle(integrate_grid(params, [[k0, ks0]], controls)[0], controls)

    @pytest.mark.parametrize("ks0", [0.05, 0.1])
    def test_flat_control_to_forty(self, ks0):
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        traj = integrate_grid(SpiralParams(4, 0, 0.0), [[1.0, ks0]], controls)[0]
        assert_matches_oracle(traj, controls)

    @pytest.mark.parametrize("params,k0,ks0,controls,termination", EVENT_CASES, ids=EVENT_IDS)
    @pytest.mark.parametrize("joint", [False, True], ids=["kappa", "joint"])
    def test_events_match_oracle(self, params, k0, ks0, controls, termination, joint):
        if joint:
            traj = integrate_grid(params, [[k0, ks0]], controls)[0]
        else:
            traj = integrate_spiral(params, SpiralState(k0, ks0), controls)
        s_o, ys_o, term_o = rk4_oracle.row(params, k0, ks0, controls, joint)
        assert traj.termination == term_o == termination
        assert abs(traj.s_end - s_o[-1]) < 1e-9
        assert np.array_equal(traj.s[:-1], s_o[:-1])
        if termination == "kappa_floor":
            assert traj.kappa[-1] <= 2e-6

    def test_blow_up_ends_non_finite(self):
        # kappa = 1 / (1 - s/2) solves kappa_ss = kappa^3 / 2 from (1, 1/2):
        # with the ceiling out of reach the series overflows at the pole s = 2
        controls = IntegratorControls(s_max=3.0, kappa_ceiling=1e300)
        traj = integrate_grid(SpiralParams(4, 0, -0.5), [[1.0, 0.5]], controls)[0]
        assert traj.termination == "non_finite"
        assert abs(traj.s_end - 2.0) < 1e-9
        assert np.all(np.isnan(traj.kappa[-1:]))
        before = traj.s <= 1.999  # up to kappa = 2000
        rel = traj.kappa[before] * (1.0 - traj.s[before] / 2.0) - 1.0
        assert np.max(np.abs(rel)) < 1e-9

    def test_stalled_row_ends_alone_as_in_a_block(self, monkeypatch):
        # a step of 0 cannot move s on: the row ends there with a nan state,
        # tagged non_finite, whether it is marched alone on floats or in a
        # lockstep block (where its twin keeps it from being the last live row)
        series = spiral._spiral_series

        def stalling(params, joint):
            inner = series(params, joint)

            def stalled(s, y):
                cols, h = inner(s, y)
                if np.ndim(s):  # a block: s and h hold one entry per row
                    return cols, np.where(s >= 1.0, 0.0, h)
                return cols, 0.0 if s >= 1.0 else h

            return stalled

        monkeypatch.setattr(spiral, "_spiral_series", stalling)
        params, controls = SpiralParams(4, 0, 0.0), IntegratorControls(s_max=3.0)
        row = [1.0, 0.05]
        others = [[1.0 + 0.02 * i, 0.05] for i in range(1, taylor.LOCKSTEP_ROWS - 1)]
        alone = integrate_grid(params, [row], controls)[0]
        block = integrate_grid(params, [row, *others, row], controls)
        for traj in (alone, *block):
            assert traj.termination == "non_finite"
            assert 1.0 <= traj.s_end < 3.0
            assert np.all(np.isnan(traj.end))
        for twin in (block[0], block[-1]):
            assert twin.s_end == alone.s_end
            assert twin.steps.starts == alone.steps.starts
            assert np.array_equal(twin.steps.coefs, alone.steps.coefs)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_small_amplitude_period(self, n):
        # the linearization of the standard eps = -1 equation at kappa* is
        # kappa_ss = -(n - 2) (kappa - kappa*), whatever R: T -> 2 pi / sqrt(n - 2)
        params = SpiralParams(n, -1, 0.75)
        kstar = equilibrium_kappa(params)
        controls = IntegratorControls(s_max=20.0)
        traj = integrate_grid(params, [[kstar * (1.0 + 1e-3), 0.0]], controls, period_map=True)[0]
        assert traj.period_map.period == pytest.approx(2.0 * np.pi / np.sqrt(n - 2), rel=1e-5)

    def test_closure_refinement_marches_nothing(self, monkeypatch):
        # the refinement reads the trajectory's own step polynomials; a plane
        # circle closes at 2 pi
        controls = IntegratorControls(s_max=7.0)
        traj = integrate_grid(SpiralParams(4, 0, 0.0), [[1.0, 0.0]], controls)[0]
        marches = []
        march = spiral.taylor.march

        def counted(*args, **kwargs):
            marches.append(args)
            return march(*args, **kwargs)

        monkeypatch.setattr(spiral.taylor, "march", counted)
        res = closure_test(traj)
        assert marches == []
        assert res.status == "closed"
        assert res.period == pytest.approx(2.0 * np.pi, abs=1e-9)
        assert res.defect < 1e-10


# ---------------------------------------------------------------------------
# the flat control's exact solution against the march it replaces

FLAT_PARAMS = SpiralParams(4, 0, 0.0)


def flat_solution(n, kappa_s0, s):
    """kappa and kappa_s of the flat row from kappa0 = 1, where E = kappa_s0^2.

    kappa^m = 1 + m kappa_s0 s with m = (n - 2) / 2, and kappa_s = kappa_s0 kappa^((4 - n) / 2).
    """
    m = 0.5 * (n - 2)
    kappa = (1.0 + m * kappa_s0 * s) ** (1.0 / m)
    return kappa, kappa_s0 * kappa ** (0.5 * (4 - n))


class TestFlatClosureBound:
    @pytest.mark.parametrize("horizon", [0.05, 1.0, 3.0, 40.0, 200.0])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bound_is_below_the_marched_defect(self, n, horizon):
        # rigidity_scan's flat rows, marched as it marched them before the
        # bound replaced the march: the closed form is the march, the bound is
        # at most the least defect the closure search finds, and the verdicts agree
        params = SpiralParams(n, 0, 0.0)
        controls = IntegratorControls(s_max=horizon, store_stride=10)
        trajs = integrate_grid(params, FLAT_CONTROL_STARTS, controls)
        for (k0, ks0), traj, res in zip(FLAT_CONTROL_STARTS, trajs, closure_tests(trajs)):
            assert traj.termination == "horizon"
            kappa, kappa_s = flat_solution(n, ks0, traj.s)
            assert np.max(np.abs(traj.kappa / kappa - 1.0)) < 1e-13
            assert np.max(np.abs(traj.kappa_s / kappa_s - 1.0)) < 1e-13
            bound = spiral.flat_closure_bound(params, k0, ks0, controls)
            assert 0.0 < bound <= res.defect
            assert res.status == ("open" if bound > spiral.TOL_OPEN else "inconclusive")

    def test_circle_has_no_bound(self):
        # kappa_s0 = 0: E = 0, the row is a unit circle and the march closes it
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        res = closure_test(integrate_grid(FLAT_PARAMS, [[1.0, 0.0]], controls)[0])
        assert res.status == "closed"
        turns = res.period / (2.0 * np.pi)
        assert turns == pytest.approx(round(turns), abs=1e-9)
        assert spiral.flat_closure_bound(FLAT_PARAMS, 1.0, 0.0, controls) == 0.0

    @pytest.mark.parametrize(
        "kappa_s0,ceiling,termination",
        [(-0.05, 1e6, "kappa_floor"), (0.1, 4.0, "kappa_ceiling")],
        ids=["floor", "ceiling"],
    )
    def test_row_that_leaves_the_band_has_no_bound(self, kappa_s0, ceiling, termination):
        # kappa = 1 + kappa_s0 s reaches 0 at s = 20, or the ceiling 4 at s = 30:
        # the march ends there, and a row that ends early is never open
        controls = IntegratorControls(s_max=40.0, kappa_ceiling=ceiling, store_stride=10)
        traj = integrate_grid(FLAT_PARAMS, [[1.0, kappa_s0]], controls)[0]
        assert traj.termination == termination
        assert closure_test(traj).status != "open"
        assert spiral.flat_closure_bound(FLAT_PARAMS, 1.0, kappa_s0, controls) == 0.0
        assert spiral.flat_kappa_in_band(FLAT_PARAMS, 1.0, kappa_s0, controls) is False
        # a horizon before the band's edge keeps kappa inside
        short = IntegratorControls(s_max=15.0, kappa_ceiling=ceiling, store_stride=10)
        assert spiral.flat_kappa_in_band(FLAT_PARAMS, 1.0, kappa_s0, short) is True

    @pytest.mark.parametrize("horizon", [0.05, 40.0, 200.0])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_control_rows_stay_in_the_band(self, n, horizon):
        # rigidity_scan's flat rows are inside the band up to the horizon, as their march is
        params = SpiralParams(n, 0, 0.0)
        controls = IntegratorControls(s_max=horizon, store_stride=10)
        for k0, ks0 in FLAT_CONTROL_STARTS:
            assert spiral.flat_kappa_in_band(params, k0, ks0, controls) is True
        assert spiral.flat_kappa_in_band(params, 1.0, 0.0, controls) is True  # the circle

    @pytest.mark.parametrize(
        "params", [SpiralParams(4, -1, 0.75), SpiralParams(4, 0, 0.5), SpiralParams(4, 1, 0.0)]
    )
    def test_refuses_a_row_that_is_not_flat(self, params):
        with pytest.raises(InputError, match="flat row"):
            spiral.flat_closure_bound(params, 1.0, 0.05, IntegratorControls())
        with pytest.raises(InputError, match="flat row"):
            spiral.flat_kappa_in_band(params, 1.0, 0.05, IntegratorControls())

    @pytest.mark.parametrize("kappa_s0", [0.05, 0.1])
    def test_n4_row_is_the_clothoid(self, kappa_s0):
        # at n = 4 kappa = 1 + a s (a = kappa_s0), so theta = s + a s^2 / 2 and
        # x + i y = sqrt(pi / a) e^(-i / (2 a)) [C(u) + i S(u)] from u(0) to u(s),
        # u(s) = sqrt(a / pi) (s + 1 / a), by the Fresnel integrals
        a = kappa_s0
        controls = IntegratorControls(s_max=40.0, store_stride=10)
        traj = integrate_grid(FLAT_PARAMS, [[1.0, a]], controls)[0]
        sin_u, cos_u = fresnel(np.sqrt(a / np.pi) * (traj.s + 1.0 / a))
        xy = np.sqrt(np.pi / a) * np.exp(-0.5j / a) * (cos_u - cos_u[0] + 1j * (sin_u - sin_u[0]))
        assert np.max(np.abs(traj.curve[:, 0] - xy.real)) < 1e-12
        assert np.max(np.abs(traj.curve[:, 1] - xy.imag)) < 1e-12
        assert np.max(np.abs(traj.curve[:, 2] - (traj.s + 0.5 * a * traj.s**2))) < 1e-12


# ---------------------------------------------------------------------------
# the gathered dense output against the per-step evaluator it replaced


@functools.cache
def dense_rows():
    """A half-plane row marched alone and a row of a lockstep block, both to s = 12."""
    controls = IntegratorControls(s_max=12.0, store_stride=10)
    alone = integrate_grid(HALF_PLANE_PARAMS, [[KSTAR * 1.1, KSTAR * 0.04]], controls)[0]
    rows = rigidity_initials(RunConfig(), KSTAR)[: taylor.LOCKSTEP_ROWS]
    return {"alone": alone, "block": integrate_grid(HALF_PLANE_PARAMS, rows, controls)[3]}


@pytest.mark.parametrize("size", [1, 127, 128, 129, 16326])
@pytest.mark.parametrize("row", ["alone", "block"])
def test_gathered_dense_output_is_the_per_step_one(row, size):
    # unsorted points over every step, some before the first one and some on
    # the step starts, read at orders 0-3 and on column slices, bit for bit
    steps = dense_rows()[row].steps
    assert len(steps.starts) > 8
    rng = np.random.default_rng(size)
    t = rng.uniform(-0.3, dense_rows()[row].s_end, size)
    t[: len(steps.starts)] = steps.starts[:size]
    rng.shuffle(t)
    for order in range(4):
        for columns in (slice(None), slice(0, 1), slice(1, 2), slice(2, None), slice(0, 5, 2)):
            got = steps.at(t, order, columns)
            assert np.array_equal(got, dense_oracle.at(steps, t, order, columns))
    out = np.full((2, size + 3, 5), 7.0)
    assert steps.at(t, 1, out=out) is out
    assert np.array_equal(out[:, :size], dense_oracle.at(steps, t, 1))
    assert np.all(out[:, size:] == 7.0)


class TestLazySamples:
    """A trajectory evaluates its samples on first read; a half-plane curve at construction."""

    CONTROLS = IntegratorControls(s_max=3.0)

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The number of points of every Piecewise.at call."""
        points, at = [], taylor.Piecewise.at

        def counted(steps, t, *args, **kwargs):
            points.append(np.size(t))
            return at(steps, t, *args, **kwargs)

        monkeypatch.setattr(taylor.Piecewise, "at", counted)
        return points

    ROWS = {
        "kappa": lambda c: [integrate_spiral(HALF_PLANE_PARAMS, SpiralState(1.5, 0.05), c)],
        "plane": lambda c: integrate_grid(SpiralParams(4, 0, 0.0), [[1.0, 0.05]], c),
        "sphere": lambda c: integrate_grid(SpiralParams(4, 1, -1.0), [[1.0, 0.01]], c),
        "control": lambda c: [prescribed_curvature_trajectory(4, 1, SINE, c)],
        "half-plane": lambda c: integrate_grid(HALF_PLANE_PARAMS, [[1.5, 0.05]], c),
        "period-map": lambda c: integrate_grid(  # one period is about 4.5 long
            HALF_PLANE_PARAMS,
            rigidity_initials(RunConfig(), KSTAR)[:8],
            IntegratorControls(s_max=10.0, store_stride=10),
            period_map=True,
        ),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_built_once_as_the_per_step_evaluator_built_them(self, name, evaluated):
        trajs = self.ROWS[name](self.CONTROLS)
        eager = name in ("half-plane", "period-map")
        assert evaluated == [t.s.size - 1 for t in trajs if eager]
        if name == "period-map":
            assert all(t.period_map is not None for t in trajs)
        evaluated.clear()
        for traj in trajs:
            ref = dense_oracle.samples(traj)
            for _ in range(2):  # the second read evaluates nothing
                assert np.array_equal(traj.kappa, ref[:, 0])
                assert np.array_equal(traj.kappa_s, ref[:, 1])
                if traj.joint:
                    assert np.array_equal(traj.curve, ref[:, 2:])
                else:
                    assert traj.curve is None
            e0 = first_integral(traj.params, traj.kappa[0], traj.kappa_s[0])
            assert traj.first_integral_constant == e0
        assert evaluated == ([] if eager else [t.s.size - 1 for t in trajs])

    def test_joint_tests_and_queries_build_no_samples(self, evaluated):
        kappa = integrate_spiral(SpiralParams(4, 0, 0.0), SpiralState(1.0, 0.05), self.CONTROLS)
        kappa.first_integral_constant
        with pytest.raises(InputError, match="no reconstructed curve"):
            kappa.curve_at(np.array([0.5]))
        plane = reconstruct_curve(kappa)
        build_family("cylinder", plane, 4)
        plane.curve_jet(np.array([0.5, 1.5]))
        assert evaluated and max(evaluated) <= 2


def test_refinement_reads_each_scan_in_one_gathered_pass(monkeypatch):
    # every row's 33 probes of a scan go through one taylor.evaluate call
    controls = IntegratorControls(s_max=40.0, store_stride=10)
    trajs = integrate_grid(
        HALF_PLANE_PARAMS, rigidity_initials(RunConfig(), KSTAR), controls, period_map=True
    )
    calls, evaluate = [], taylor.evaluate

    def counted(coefs, step, dt, *args, **kwargs):
        calls.append(step.size)
        return evaluate(coefs, step, dt, *args, **kwargs)

    monkeypatch.setattr(taylor, "evaluate", counted)
    results = closure_tests(trajs)
    assert 0 < len(calls) <= 16
    assert calls[0] == 33 * len(trajs)
    assert results == [closure_oracle.closure_test(t) for t in trajs]
