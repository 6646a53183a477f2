import ast
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mobiusflat import checks, cli, fd
from mobiusflat import spiral, taylor
from mobiusflat.checks import (
    CHECK_FUNCTIONS,
    FD_CONVERGENCE_STEPS,
    preset_trajectory,
    rigidity_initials,
    rigidity_scan,
    run_suite,
    sample_points,
    suite_surfaces,
)
from mobiusflat.config import RunConfig, parse_config
from mobiusflat.errors import ConfigError, InputError
from mobiusflat.report import CheckRecord, VerificationReport
from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    SpiralState,
    equilibrium_kappa,
    integrate_grid,
    integrate_spiral,
    reconstruct_curve,
)
from mobiusflat.zoo import EPSILON_BY_FAMILY, build_family

# the verdict thresholds and the sample jitter, config keys no more
REMOVED_KEYS = (
    "tol_metric_match",
    "tol_trace",
    "tol_form",
    "tol_commutator",
    "tol_multiplicity",
    "tol_codazzi",
    "tol_two_route",
    "tol_constancy",
    "tol_closed",
    "tol_open",
    "tol_sigma",
    "jitter",
)


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config("n = 5\nseed = 3   # comment\n\n# full line comment\nR = 0.5\n")
        assert cfg.n == 5 and cfg.seed == 3 and cfg.R == 0.5
        assert cfg.samples == RunConfig().samples

    def test_unknown_key(self, tmp_path, capsys):
        # conventions, tol_first_integral and tol_roundtrip were never read;
        # the spiral equation has one set of coefficients, so no spiral_variant;
        # every curvature but fd_convergence's is exact, so no curvature_step;
        # each check's tolerance, the closure thresholds and the sample jitter
        # are constants, so no config can move a verdict
        for text in (
            "frobnicate = 1\n",
            "conventions = half,full,normalized\n",
            "tol_first_integral = 1e-9\n",
            "tol_roundtrip = 1e-6\n",
            "spiral_variant = alternate\n",
            "curvature_step = 0.01\n",
        ):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(text)
        path = tmp_path / "run.cfg"
        for key in REMOVED_KEYS:
            path.write_text(f"{key} = 0.1\n")
            assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n = 4\nn = 5\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("n = banana\n")

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'tol_trace'"):
            parse_config("tol_trace = 0\n")

    def test_fd_order_two_refused(self):
        # the suite's order is a constant (order 2 fails most asserts at the
        # default tolerances), so neither fd_order nor fd_step is a key
        for text in ("fd_order = 2\n", "fd_order = 4\n", "fd_step = 0.004\n"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(text)

    def test_epsilon_and_family_validation(self):
        with pytest.raises(ConfigError):
            parse_config("epsilon = 2\n")
        with pytest.raises(ConfigError):
            parse_config("family = plane\n")
        with pytest.raises(ConfigError):
            parse_config("conventions = half,bogus\n")
        with pytest.raises(ConfigError):
            parse_config("checks = nonexistent_check\n")

    def test_grid_spread_below_one(self):
        # the lowest grid row starts at kappa0 = kappa* (1 - grid_spread)
        with pytest.raises(ConfigError, match="grid_spread must be below 1"):
            RunConfig(grid_spread=1.5, horizon=20.0).validate()
        with pytest.raises(ConfigError, match="grid_spread must be below 1"):
            parse_config("grid_spread = 1.0\n")
        assert RunConfig(grid_spread=0.9).validate().grid_spread == 0.9

    def test_n_below_four_refused(self):
        # the classification covers n >= 4; at n = 3 the multiplicity test of
        # conformal flatness does not hold
        with pytest.raises(ConfigError, match="n must be >= 4"):
            RunConfig(n=3).validate()
        with pytest.raises(ConfigError, match="n must be >= 4"):
            parse_config("n = 3\n")
        assert RunConfig(n=4).validate().n == 4

    def test_n_above_seven_refused(self):
        # the suite's spiral presets are fixed: from n = 8 on, the cone's spiral
        # ends before its samples fit in its chart
        with pytest.raises(ConfigError, match="n must be <= 7"):
            RunConfig(n=8).validate()
        with pytest.raises(ConfigError, match="n must be <= 7"):
            parse_config("n = 8\n")
        assert RunConfig(n=7).validate().n == 7

    def test_samples_refuse_a_chart_narrower_than_two_pads(self):
        # the suite cone at n = 8 spans s in [0.15, 0.48]: clipped to it at pad
        # 0.2, every sample would land at s = 0.28
        cone = build_family("cone", preset_trajectory(8, EPSILON_BY_FAMILY["cone"]), 8)
        with pytest.raises(InputError, match="narrower than twice the sample pad 0.2"):
            sample_points(cone, 3, np.random.default_rng(0), pad=0.2)
        sample_points(cone, 3, np.random.default_rng(0), pad=0.12)

    def test_hash_tracks_content(self):
        a = RunConfig().validate()
        b = RunConfig(seed=1).validate()
        assert a.hash() != b.hash()
        assert a.hash() == RunConfig().validate().hash()


class TestTracerNames:
    """Every name the benchmark's span tracer wraps exists on the package.

    ``perfbench/tracer.py`` is read, not edited: a name deleted from the
    package would otherwise break only a traced benchmark run.
    """

    @staticmethod
    def tracer():
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_functions_and_methods_resolve(self):
        tracer = self.tracer()
        for owner in tracer.MODULES:
            importlib.import_module(f"mobiusflat.{owner}")
        for _, owner, names, _ in tracer.FUNCTIONS:
            module = importlib.import_module(f"mobiusflat.{owner}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{owner}.{name}"
        for _, owner, cls_name, names, _ in tracer.METHODS:
            cls = getattr(importlib.import_module(f"mobiusflat.{owner}"), cls_name)
            for name in names:
                assert callable(vars(cls).get(name)), f"{owner}.{cls_name}.{name}"


class TestReportSchema:
    def test_anchor_required(self):
        rep = VerificationReport(version="x", seed=0, config_hash="h")
        with pytest.raises(InputError, match="anchor"):
            rep.add(CheckRecord(name="a", anchor="   "))

    def test_duplicate_names_rejected(self):
        rep = VerificationReport(version="x", seed=0, config_hash="h")
        rep.add(CheckRecord(name="a", anchor="identity"))
        with pytest.raises(InputError, match="duplicate"):
            rep.add(CheckRecord(name="a", anchor="identity"))

    def test_exit_semantics(self):
        rep = VerificationReport(version="x", seed=0, config_hash="h")
        rep.add(CheckRecord(name="a", anchor="i", kind="assert", passed=True))
        rep.add(CheckRecord(name="b", anchor="i", kind="audit", passed=True))
        assert rep.all_asserts_pass
        rep.add(CheckRecord(name="c", anchor="i", kind="assert", passed=False))
        assert not rep.all_asserts_pass

    def test_json_round_trip(self):
        rep = VerificationReport(version="x", seed=0, config_hash="h")
        rep.add(
            CheckRecord(
                name="a",
                anchor="identity",
                samples=3,
                max_residual=np.float64(1e-9),
                tolerance=1e-8,
                passed=np.bool_(True),
                details={"value": np.float64(2.0), "flag": np.bool_(False)},
            )
        )
        data = json.loads(rep.to_json())
        assert data["checks"][0]["passed"] is True
        assert data["summary"]["all_asserts_pass"] is True
        assert "| a |" in rep.to_markdown()

    def test_csv_tables(self):
        rep = VerificationReport(version="x", seed=0, config_hash="h")
        rep.add(
            CheckRecord(
                name="a",
                anchor="identity",
                samples=3,
                max_residual=1e-9,
                tolerance=1e-8,
                details={"by": {"x": np.float64(0.5), "ok": True}, "rows": [1, "best"], "v": None},
            )
        )
        rep.add(CheckRecord(name="b", anchor="identity", kind="audit"))
        assert rep.to_checks_csv() == (
            "name,kind,samples,max_residual,tolerance,passed\n"
            "a,assert,3,1e-09,1e-08,True\n"
            "b,audit,0,nan,nan,True\n"
        )
        assert rep.to_residuals_csv() == (
            "check,key,value\n"
            "a,by.x,0.5\n"
            "a,by.ok,1.0\n"
            "a,rows[0],1.0\n"
            "a,rows[1],best\n"
            "a,v,None\n"
        )


@pytest.fixture(scope="module")
def fast_cfg():
    return RunConfig(
        samples=6,
        checks="trace_identities,principal_multiplicity,commutator_closure,fd_convergence",
    ).validate()


class TestSuite:
    def test_enabled_checks_appear_exactly_once(self, fast_cfg):
        report = run_suite(fast_cfg)
        names = [r.name for r in report.records]
        assert names == fast_cfg.check_list()
        assert report.all_asserts_pass

    def test_empty_check_set_is_valid(self):
        cfg = RunConfig(checks="").validate()
        report = run_suite(cfg)
        assert report.records == []
        assert report.all_asserts_pass

    def test_deterministic_json(self, fast_cfg):
        a = run_suite(fast_cfg).to_json()
        b = run_suite(fast_cfg).to_json()
        assert a == b

    def test_every_check_runs_on_default_surfaces(self):
        cfg = RunConfig(samples=4).validate()
        surfaces = suite_surfaces(cfg)
        for i, (name, fn) in enumerate(CHECK_FUNCTIONS.items()):
            rng = np.random.default_rng(100 + i)
            rec = fn(cfg, surfaces, rng)
            assert rec.error is None, f"{name}: {rec.error}"
            assert rec.name == name
            assert rec.anchor.strip()
            # the record states what the check registered
            assert (rec.anchor, rec.kind) == (fn.anchor, fn.kind)
            assert isinstance(fn.tolerance, float) and fn.tolerance > 0
            assert rec.tolerance == fn.tolerance

    def test_crashed_check_keeps_its_registration(self, monkeypatch):
        def crash(cfg, surfaces, rng, res):
            raise TypeError("forced")

        spec = CHECK_FUNCTIONS["trace_identities"]
        monkeypatch.setitem(CHECK_FUNCTIONS, spec.name, dataclasses.replace(spec, body=crash))
        cfg = RunConfig(samples=4, checks="trace_identities,fd_convergence").validate()
        crashed, after = run_suite(cfg).records
        assert (crashed.name, crashed.anchor) == (spec.name, spec.anchor)
        assert crashed.kind == "assert" and not crashed.passed
        assert crashed.error.startswith("TypeError: forced")
        # the suite goes on to the next check
        assert after.name == "fd_convergence" and after.error is None and after.passed

    def test_residual_is_reported_as_a_float(self, monkeypatch):
        # checks.csv prints the repr of the residual, so it must be a Python float
        def measure(cfg, surfaces, rng, res):
            res.add(np.float64(2.5e-9))
            return {}

        spec = CHECK_FUNCTIONS["trace_identities"]
        monkeypatch.setitem(CHECK_FUNCTIONS, spec.name, dataclasses.replace(spec, body=measure))
        report = run_suite(RunConfig(samples=4, checks="trace_identities").validate())
        assert type(report.records[0].max_residual) is float
        assert report.to_checks_csv().splitlines()[1] == "trace_identities,assert,1,2.5e-09,1e-08,True"

    @pytest.mark.parametrize("name", ["trace_identities", "torus_scalar_audit"])
    def test_nan_residual_fails(self, name, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN residual must not be dropped as a pass
        def measure(cfg, surfaces, rng, res):
            res.add(float("nan"), 1e-12)
            return {}

        spec = CHECK_FUNCTIONS[name]
        monkeypatch.setitem(CHECK_FUNCTIONS, spec.name, dataclasses.replace(spec, body=measure))
        (record,) = run_suite(RunConfig(samples=4, checks=name).validate()).records
        assert record.error is None and np.isnan(record.max_residual)
        assert not record.passed

    def test_blaschke_audit_reports_worst_surface(self, monkeypatch):
        # shift tr A on the torus only: no normalization fits it, and the
        # audit's residual must show that surface, not the best one
        from mobiusflat import checks, moebius

        cfg = RunConfig(samples=4).validate()
        surfaces = suite_surfaces(cfg)
        torus = checks._surface(surfaces, "torus")
        closed, honest, torus_requests = torus.closed_form, moebius.Request.A.func, []

        def tagged(pts, order=2):
            torus_requests.append(closed.jets(pts, order))
            return torus_requests[-1]

        def shifted(request):
            a = honest(request)
            if any(request is r for r in torus_requests):
                return a + np.eye(a.shape[-1])
            return a

        tagged_fields = dataclasses.replace(closed, jets=tagged)
        torus.imm = dataclasses.replace(torus.imm, analytic_fields=tagged_fields)
        monkeypatch.setattr(moebius.Request, "A", property(shifted))
        record = CHECK_FUNCTIONS["blaschke_trace_audit"](cfg, surfaces, np.random.default_rng(0))
        best = {
            row["identity"].rsplit(" ", 1)[-1]: min(row["residual_by_convention"].values())
            for row in record.details["audit_rows"]
        }
        assert best["torus"] > 0.5 and best["cylinder"] < 1e-6
        assert record.max_residual == max(best.values())

    def test_scalar_constancy_spreads_over_two_points_at_one_sample(self, monkeypatch):
        # one point per surface would give a spread of exactly 0, measuring nothing
        from mobiusflat import moebius

        counts = []
        honest = moebius.Request.direct_scalar.func

        def counting(request):
            counts.append(len(request.rho.value))
            return honest(request)

        monkeypatch.setattr(moebius.Request, "direct_scalar", property(counting))
        cfg = RunConfig(samples=1).validate()
        check = CHECK_FUNCTIONS["scalar_constancy"]
        record = check(cfg, suite_surfaces(cfg), np.random.default_rng(0))
        families = record.details["spread_by_family"]
        assert len(families) == 3 and len(counts) == len(families) + 1  # and the control
        assert min(counts[: len(families)]) >= 2

    def test_crashed_audit_fails_the_run(self, monkeypatch):
        def crash(cfg, surfaces, rng, res):
            raise ValueError("forced")

        spec = CHECK_FUNCTIONS["blaschke_trace_audit"]
        monkeypatch.setitem(CHECK_FUNCTIONS, spec.name, dataclasses.replace(spec, body=crash))
        report = run_suite(RunConfig(samples=4, checks="blaschke_trace_audit").validate())
        assert report.records[0].error.startswith("ValueError: forced")
        assert not report.all_asserts_pass


RIGIDITY_CFG = RunConfig(horizon=40.0).validate()
RIGIDITY_PARAMS = SpiralParams(RIGIDITY_CFG.n, -1, RIGIDITY_CFG.R)
RIGIDITY_KSTAR = equilibrium_kappa(RIGIDITY_PARAMS)
RIGIDITY_ROWS = rigidity_initials(RIGIDITY_CFG, RIGIDITY_KSTAR)
SHORT = IntegratorControls(s_max=3.0, step=1e-3, store_stride=5)
RIGIDITY_CONTROLS = IntegratorControls(s_max=40.0, store_stride=10)
# kappa_ss = kappa^3 / 2 (n = 4, eps = 0, R = -0.5): kappa = 1 / (1 - s/2) from
# (1, 1/2) blows up at s = 2, kappa = 1 / (1 + s/2) from (1, -1/2) reaches s = 3,
# and from (1, -2) kappa_s^2 = kappa^4 / 4 + 3.75 drives kappa to the floor
MIXED_ROWS = [
    (1.0, 0.5), (1.0, -2.0), (1.0, -0.5), (1.0, 0.45), (1.0, -1.0), (1.2, -3.0), (0.8, 0.1)
]


def assert_same_row(row, single):
    """Two trajectories of one start marched alike, bit for bit."""
    assert row.termination == single.termination
    for name in ("s", "kappa", "kappa_s", "curve"):
        assert np.array_equal(getattr(row, name), getattr(single, name), equal_nan=True), name
    assert row.steps.starts == single.steps.starts
    assert all(np.array_equal(a, b) for a, b in zip(row.steps.coefs, single.steps.coefs))
    assert len(row.steps.coefs) == len(single.steps.coefs)
    assert (row.period_map is None) == (single.period_map is None)
    if row.period_map is not None:
        assert row.period_map.period == single.period_map.period
        assert np.array_equal(row.period_map.holonomy, single.period_map.holonomy)


class TestGridIntegration:
    @pytest.mark.parametrize(
        "params,states,controls,period_map,terminations",
        [
            (SpiralParams(4, 0, -0.05), [(1.0, 0.1), (1.1, -0.05)], SHORT, False, {"horizon"}),
            (SpiralParams(4, 1, -1.0), [(1.02, 0.0), (1.0, -0.01)], SHORT, False, {"horizon"}),
            (SpiralParams(4, -1, 0.75), [(1.2, 0.05), (1.3, -0.1)], SHORT, False, {"horizon"}),
            (
                SpiralParams(4, -1, 0.75),
                [(k0, ks0) for k0 in np.linspace(1.1, 1.2, 5) for ks0 in np.linspace(-0.02, 0.02, 5)],
                SHORT,
                False,
                {"horizon"},
            ),
            # the rows end at their first return, on 12 to 18 steps
            (RIGIDITY_PARAMS, RIGIDITY_ROWS, RIGIDITY_CONTROLS, True, {"horizon"}),
            (
                RIGIDITY_PARAMS,
                RIGIDITY_ROWS[: taylor.LOCKSTEP_ROWS],
                RIGIDITY_CONTROLS,
                True,
                {"horizon"},
            ),
            (
                RIGIDITY_PARAMS,
                RIGIDITY_ROWS[: taylor.LOCKSTEP_ROWS - 1],
                RIGIDITY_CONTROLS,
                True,
                {"horizon"},
            ),
            # the equilibrium, a rest point, ends after its first step in the block too
            (
                RIGIDITY_PARAMS,
                np.insert(RIGIDITY_ROWS[: taylor.LOCKSTEP_ROWS], 3, [RIGIDITY_KSTAR, 0.0], axis=0),
                RIGIDITY_CONTROLS,
                True,
                {"horizon"},
            ),
            (
                SpiralParams(4, 0, -0.5),
                MIXED_ROWS,
                IntegratorControls(s_max=3.0, kappa_ceiling=1e300, store_stride=10),
                False,
                {"non_finite", "kappa_floor", "horizon"},
            ),
            (
                SpiralParams(5, 0, -0.05),
                [(1.0 + 0.02 * i, 0.1 - 0.03 * i) for i in range(8)],
                SHORT,
                False,
                {"horizon"},
            ),
            (
                SpiralParams(4, 1, -1.0),
                [(1.0 + 0.01 * i, 0.02 * (i - 4)) for i in range(9)],
                SHORT,
                False,
                {"kappa_floor", "horizon", "kappa_ceiling"},
            ),
        ],
        ids=[
            "plane",
            "sphere",
            "half-plane",
            "half-plane-25-rows",
            "rigidity-grid-period-map",
            "crossover-block",
            "below-crossover",
            "rest-row-in-block",
            "mixed-terminations",
            "plane-block",
            "sphere-block",
        ],
    )
    def test_matches_single_trajectory(self, params, states, controls, period_map, terminations):
        # a block of at least taylor.LOCKSTEP_ROWS rows is marched in lockstep,
        # fewer one at a time; each row is the same as that state run alone
        grid = integrate_grid(params, np.array(states), controls, period_map=period_map)
        assert len(grid) == len(states)
        for row, (k0, ks0) in zip(grid, states):
            if period_map:
                single = integrate_grid(params, [[k0, ks0]], controls, period_map=True)[0]
                assert single.period_map is not None
            else:
                single = reconstruct_curve(
                    integrate_spiral(params, SpiralState(k0, ks0), controls)
                )
            assert_same_row(row, single)
        assert {row.termination for row in grid} == terminations

    def test_cauchy_products_add_left_to_right(self):
        # a row is the same alone and in a block because both stores' Cauchy
        # products add their terms left to right; a compensated sum (Python's
        # sum of floats from 3.12 on) gives 1.0 here
        a, b = [1.0, 1.0, 1.0], [-1e16, 1.0, 1e16]
        assert taylor._Floats.cauchy(a, b, 2) == 0.0
        block = taylor._Block.cauchy(np.array([a, a]).T, np.array([b, b]).T, 2)
        assert block.tolist() == [0.0, 0.0]

    def test_block_row_whose_series_raises(self):
        # an infinite angle makes math.cos raise in a row's series: that row
        # ends non-finite at once, in a block as alone, and the others go on
        series = spiral._spiral_series(SpiralParams(4, 0, -0.05), joint=True)
        rows = np.array([[1.0 + 0.01 * i, 0.05, 0, 0, 0] for i in range(taylor.LOCKSTEP_ROWS)])
        rows[2, 4] = np.inf
        block = taylor.march(series, rows, 3.0, 1e-6, 1e6)
        for row, (steps, s_stop, y_stop, termination) in zip(rows, block):
            alone = taylor.march(series, [row], 3.0, 1e-6, 1e6)[0]
            assert (s_stop, termination) == (alone[1], alone[3])
            assert np.array_equal(y_stop, alone[2], equal_nan=True)
            assert steps.starts == alone[0].starts
            assert all(np.array_equal(a, b) for a, b in zip(steps.coefs, alone[0].coefs))
        assert [end[3] for end in block] == ["horizon"] * 2 + ["non_finite"] + ["horizon"] * 4
        assert block[2][1] == 0.0 and block[2][0].starts == []

    def test_lockstep_steps_the_grid_together(self, monkeypatch):
        # the rigidity grid is one block: one series call per lockstep step (as
        # many as its longest row's steps), not one per row and step
        calls = []
        build = spiral._spiral_series

        def counted(params, joint):
            series = build(params, joint)

            def wrapped(s, y):
                calls.append(isinstance(y[0], np.ndarray))
                return series(s, y)

            return wrapped

        monkeypatch.setattr(spiral, "_spiral_series", counted)
        grid = integrate_grid(RIGIDITY_PARAMS, RIGIDITY_ROWS, RIGIDITY_CONTROLS, period_map=True)
        steps = [len(row.steps.starts) for row in grid]
        assert sum(steps) == 392 and max(steps) == 18  # the rows' own steps, as alone
        assert len(calls) == max(steps) <= 18
        # all but the last: the last live row finishes alone, on floats
        assert calls[:-1] == [True] * (len(calls) - 1)

    def test_terminated_rows_are_tagged(self):
        params = SpiralParams(4, 0, 0.5)  # pulls kappa to the floor
        controls = IntegratorControls(s_max=60.0, step=1e-3, store_stride=10)
        grid = integrate_grid(params, np.array([[1.0, -0.5], [1.0, -0.4]]), controls)
        assert all(t.termination == "kappa_floor" for t in grid)
        assert all(t.s_end < 60.0 for t in grid)
        # the crossing is bisected, as for a single trajectory
        assert all(t.kappa[-1] <= 2e-6 for t in grid)


class TestRigidity:
    def test_small_scan_passes(self):
        cfg = RunConfig(horizon=40.0, grid_size=3, grid_spread=0.2).validate()
        result = rigidity_scan(cfg)
        assert result["status"] == "pass"
        assert result["equilibrium"]["status"] == "closed"
        assert result["equilibrium"]["defect"] < 1e-6
        assert result["grid_closures"] == 0
        assert all(row["min_defect"] > 1e-3 for row in result["grid"])
        assert all(row["status"] == "open" for row in result["flat_control"])

    def test_flat_control_certificate(self):
        # n = 4, eps = 0, R = 0: E = kappa_s^2 from kappa = 1, so E = kappa_s0^2 > 0
        cfg = RunConfig(horizon=10.0, grid_size=2, grid_spread=0.2).validate()
        result = rigidity_scan(cfg)
        rows = result["flat_control"]
        assert [row["E"] for row in rows] == pytest.approx([0.05**2, 0.1**2], rel=1e-14)
        assert all(row["kappa_monotone"] and row["kappa_in_band"] for row in rows)
        assert result["flat_control_certified_open"] is True
        # the march agrees: kappa_s keeps its sign, so kappa is monotone
        params = SpiralParams(4, 0, 0.0)
        for row in rows:
            traj = integrate_spiral(
                params, SpiralState(1.0, row["kappa_s0"]), IntegratorControls(s_max=10.0)
            )
            assert np.all(np.diff(traj.kappa) > 0)

    @pytest.mark.parametrize("horizon", [0.01, 0.04])
    def test_short_horizon_has_no_spurious_closures(self, horizon):
        # the closure search must not probe below its window: the sample
        # before it is s = 0 at these horizons, where every defect is 0
        result = rigidity_scan(RunConfig(horizon=horizon).validate())
        assert result["status"] == "pass"
        assert result["grid_closures"] == 0
        assert all(row["status"] == "open" for row in result["grid"] + result["flat_control"])

    def test_flat_control_is_not_marched(self, monkeypatch):
        # the flat rows are bounded from their exact kappa(s): the scan marches
        # the equilibrium and the grid, both half-plane, and nothing else
        marched = []

        def recording(params, *args, **kwargs):
            marched.append(params)
            return integrate(params, *args, **kwargs)

        integrate = checks.integrate_grid
        monkeypatch.setattr(checks, "integrate_grid", recording)
        result = rigidity_scan(RunConfig(horizon=40.0, grid_size=2).validate())
        assert [params.model for params in marched] == [spiral.HALF_PLANE] * 2
        for row in result["flat_control"]:
            assert row["status"] == "open" and row["defect_bound"] > spiral.TOL_OPEN

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("start", [(1.0, 0.0), (1.0, -0.05)], ids=["circle", "to-the-floor"])
    def test_uncertified_flat_row_fails_the_scan(self, monkeypatch, start, slot):
        # a circle (E = 0, which the march closes) or a row whose kappa reaches
        # the floor at s = 20 has no bound, and the scan's status reads it
        starts = list(checks.FLAT_CONTROL_STARTS)
        starts[slot] = start
        monkeypatch.setattr(checks, "FLAT_CONTROL_STARTS", tuple(starts))
        result = rigidity_scan(RunConfig(horizon=40.0, grid_size=2).validate())
        row = result["flat_control"][slot]
        assert row["defect_bound"] == 0.0 and row["status"] == "inconclusive"
        assert result["status"] == "fail"
        # neither is certified open: the circle's kappa is constant, and the
        # other's kappa is monotone but leaves the band before the horizon
        assert (row["kappa_monotone"], row["kappa_in_band"]) == (
            (False, True) if start[1] == 0.0 else (True, False)
        )
        assert result["flat_control_certified_open"] is False

    def test_equilibrium_is_one_taylor_step(self, monkeypatch):
        # the equilibrium row is carried over its 1.5 periods by the map of its
        # first step; the full march is left to the tests
        marched = []

        def recording(*args, **kwargs):
            marched.append(integrate(*args, **kwargs))
            return marched[-1]

        integrate = checks.integrate_grid
        monkeypatch.setattr(checks, "integrate_grid", recording)
        result = rigidity_scan(RunConfig(horizon=40.0, grid_size=2).validate())
        eq = marched[0][0]
        assert eq.start[:2].tolist() == [RIGIDITY_KSTAR, 0.0]
        assert len(eq.steps.starts) == 1 and eq.period_map.period == eq.s_end < 1.0
        assert eq.s.size < 1000  # 16,326 samples over the 1.5 periods
        assert result["equilibrium"]["status"] == "closed"
        assert result["equilibrium"]["period"] == pytest.approx(
            result["equilibrium"]["expected_period"], abs=1e-11
        )

    @pytest.mark.parametrize(
        "n,big_r,spread,row",
        [(4, 0.75, 0.5, 20), (4, 0.75, 0.9, 0), (4, 0.75, 0.9999999, 0), (7, 2.0, 0.2, 20)],
        ids=["spread-0.5", "spread-0.9", "spread-below-floor", "n7-default-spread"],
    )
    def test_grid_off_the_closed_orbits_is_refused(self, monkeypatch, n, big_r, spread, row):
        # the closed orbits around kappa* have first integral E < 0; a grid with
        # a row at E >= 0 (which reads non-open) is refused before any march
        def no_march(*args, **kwargs):
            raise AssertionError("marched a refused grid")

        monkeypatch.setattr(checks, "integrate_grid", no_march)
        cfg = RunConfig(n=n, R=big_r, grid_spread=spread, horizon=40.0).validate()
        refusal = rf"grid row {row} \(.*E = [0-9.e+-]+ is not below 0"
        with pytest.raises(ConfigError, match=refusal):
            rigidity_scan(cfg)

    @pytest.mark.parametrize("n,big_r", [(5, 0.75), (6, 1.2)], ids=["5", "6"])
    def test_grid_on_closed_orbits_passes(self, n, big_r):
        # every row of the default grid has E < 0 here, and the scan passes
        result = rigidity_scan(RunConfig(n=n, R=big_r, horizon=40.0).validate())
        assert result["status"] == "pass" and result["grid_closures"] == 0

    def test_no_equilibrium_is_trivial(self):
        cfg = RunConfig(R=-0.75).validate()  # the half-plane equilibrium needs R > 0
        result = rigidity_scan(cfg)
        assert result["status"] == "trivial"


class TestStepTable:
    """verify requests the two steps of fd_convergence, its one finite-difference
    audit, and nothing else; invariants takes none."""

    def test_requested_steps_are_the_table(self, monkeypatch, tmp_path):
        requested = []
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "mobiusflat"]
        for name in ("jet_batch", "diff1_batch"):
            original = getattr(fd, name)

            def wrapped(field, points, step, _original=original):
                requested.append(step)
                return _original(field, points, step)

            for module in namespaces:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapped)

        cfg = RunConfig(samples=4).validate()
        run_suite(cfg)
        assert sorted(requested) == sorted(FD_CONVERGENCE_STEPS)
        requested.clear()
        others = ",".join(name for name in CHECK_FUNCTIONS if name != "fd_convergence")
        run_suite(dataclasses.replace(cfg, checks=others))
        assert requested == []
        for family in ("rotational", "torus"):
            run_cfg = dataclasses.replace(cfg, family=family)
            assert cli.cmd_invariants(run_cfg, str(tmp_path), "full") == 0
            # invariants reads the fields of an immersion: exact jets, no stencil
            assert requested == []


class TestFiniteDifferenceScope:
    """Finite differences stay behind the curvature layer's oracle functions, and
    the checks call them from fd_convergence alone."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "mobiusflat"
    FD_CURVATURE = {
        "metric_field_curvature",
        "metric_field_curvature_batch",
        "codazzi_defect",
        "codazzi_defect_batch",
        "conformal_scalar",
    }

    @staticmethod
    def imports_fd(tree) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {node.module.split(".")[-1]} if node.module else set()
            elif isinstance(node, ast.Import):
                names = set()
            else:
                continue
            names |= {a.name.split(".")[-1] for a in node.names}
            if "fd" in names:
                return True
        return False

    def test_only_curvature_imports_fd(self):
        importers = {
            path.stem
            for path in self.SRC.glob("*.py")
            if self.imports_fd(ast.parse(path.read_text()))
        }
        assert importers == {"curvature"}

    def test_checks_difference_only_in_fd_convergence(self):
        fd_names = self.FD_CURVATURE | {
            name for name, fn in vars(fd).items() if callable(fn) and fn.__module__ == fd.__name__
        }
        callers = set()
        for top in ast.parse((self.SRC / "checks.py").read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in fd_names:
                        callers.add(top.name)
        assert callers == {"check_fd_convergence"}
