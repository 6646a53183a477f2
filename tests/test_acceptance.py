"""Acceptance criteria, one test per criterion, at their stated tolerances.

Runs the full verification suite once (default configuration: n = 4, all
three generator families, torus radii 0.3 / 0.5 / 1/sqrt(2)) and asserts
each criterion from the structured records, plus bespoke experiments for
the first-integral, round-trip, rigidity and determinism criteria.  Each
test prints one summary line.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflat.checks import rigidity_scan, run_suite
from mobiusflat.config import RunConfig
from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    equilibrium_kappa,
    integrate_spiral,
    reconstruct_curve,
    SpiralState,
    TOL_OPEN,
)

from fd_oracle import recomputed_curvature


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(samples=20, seed=0).validate()


@pytest.fixture(scope="module")
def suite(cfg):
    return run_suite(cfg)


def record(suite, name):
    rec = next(r for r in suite.records if r.name == name)
    assert rec.error is None, f"{name} crashed: {rec.error}"
    return rec


def announce(num, title, detail):
    print(f"ACCEPTANCE {num:>2} {title}: PASS ({detail})")


def test_criterion_01_moebius_metric_reproduction(suite):
    rec = record(suite, "moebius_metric_match")
    assert rec.tolerance == 1e-6
    assert rec.samples >= 60  # 20 samples for each of the three families
    per_family = rec.details["relative_residual_by_family"]
    assert set(per_family) == {"cylinder", "cone", "rotational"}
    assert rec.passed
    announce(1, "Moebius metric reproduction", f"max rel residual {rec.max_residual:.2e}")


def test_criterion_02_trace_identities(suite):
    rec = record(suite, "trace_identities")
    assert rec.tolerance == 1e-8
    assert rec.samples >= 80  # every sample of every generated hypersurface
    assert rec.passed
    announce(2, "trace identities of B", f"max residual {rec.max_residual:.2e}")


def test_criterion_03_scalar_constancy_with_control(suite):
    rec = record(suite, "scalar_constancy")
    assert rec.tolerance == 1e-5
    assert rec.passed
    spreads = rec.details["spread_by_family"]
    assert all(v < 1e-5 for v in spreads.values())
    control = rec.details["negative_control_spread"]
    assert control > 10 * 1e-5
    announce(
        3,
        "constant Moebius scalar curvature",
        f"worst spread {max(spreads.values()):.2e}, control {control:.2e}",
    )


def test_criterion_04_two_route_oracle(suite):
    rec = record(suite, "two_route_scalar")
    assert rec.tolerance == 1e-5
    assert rec.passed
    announce(4, "two-route scalar oracle", f"max disagreement {rec.max_residual:.2e}")


FIRST_INTEGRAL_CASES = [
    # bounded-oscillation parameter sets; others leave the admissible band
    (SpiralParams(4, -1, 0.75), None),
    (SpiralParams(4, -1, 0.3), None),
    (SpiralParams(4, 0, 0.0), 1.1),
    (SpiralParams(5, -1, 0.75), None),
    (SpiralParams(6, -1, 0.75), None),
]


def test_criterion_05_first_integral_drift():
    controls = IntegratorControls(s_max=10.0, step=1e-3, store_stride=10)
    worst = 0.0
    for params, center in FIRST_INTEGRAL_CASES:
        center = center or equilibrium_kappa(params)
        rng = np.random.default_rng(42)
        accepted = 0
        draws = 0
        while accepted < 10 and draws < 60:
            k0 = center * rng.uniform(0.92, 1.1)
            ks0 = rng.uniform(-0.08, 0.08)
            draws += 1
            traj = integrate_spiral(params, SpiralState(k0, ks0), controls)
            if traj.termination != "horizon":
                continue
            if traj.kappa.min() < 0.25 or traj.kappa.max() > 4.0:
                continue
            accepted += 1
            worst = max(worst, traj.first_integral_drift())
        assert accepted == 10, f"could not find 10 admissible states for {params}"
    assert worst < 1e-9
    announce(5, "first integral conservation", f"worst drift {worst:.2e} over s in [0, 10]")


ROUND_TRIP_CASES = [
    (SpiralParams(4, 0, -0.05), 1.1, 0.1, 4.0),
    (SpiralParams(4, 1, -1.0), 1.02, 0.0, 2.5),
    (SpiralParams(4, -1, 0.75), 1.25, 0.05, 4.0),
]


def test_criterion_06_curve_round_trip():
    worst = 0.0
    for params, k0, ks0, s_max in ROUND_TRIP_CASES:
        traj = reconstruct_curve(
            integrate_spiral(
                params, SpiralState(k0, ks0), IntegratorControls(s_max=s_max, step=1e-3)
            )
        )
        s_mid, recomputed = recomputed_curvature(traj)
        err = float(np.max(np.abs(recomputed - traj.kappa_at(s_mid))))
        worst = max(worst, err)
    assert worst < 1e-6
    announce(6, "curve reconstruction round trip", f"worst curvature error {worst:.2e}")


def test_criterion_07_rigidity_experiment(cfg):
    result = rigidity_scan(cfg)
    assert result["status"] == "pass"
    eq = result["equilibrium"]
    assert eq["status"] == "closed" and eq["defect"] < 1e-6
    assert len(result["grid"]) == 25
    assert result["grid_closures"] == 0
    min_defect = min(row["min_defect"] for row in result["grid"])
    assert min_defect > 1e-3
    assert all(row["status"] == "open" for row in result["grid"])
    flat = result["flat_control"]
    assert all(row["status"] == "open" for row in flat)
    assert all(row["defect_bound"] > TOL_OPEN for row in flat)
    assert result["flat_control_certified_open"]
    announce(
        7,
        "rigidity experiment",
        f"equilibrium defect {eq['defect']:.2e}; 25 perturbed states all open "
        f"(min defect {min_defect:.2e} over horizon 200); flat control certified "
        f"open (least defect bound {min(row['defect_bound'] for row in flat):.2e})",
    )


def test_criterion_08_torus_audit(suite):
    form = record(suite, "moebius_form_structure")
    assert form.details["torus_max_C"] < 1e-8
    mult = record(suite, "principal_multiplicity")
    assert mult.passed  # includes the torus two-eigenvalue structure
    audit = record(suite, "torus_scalar_audit")
    table = audit.details["table"]
    assert audit.details["every_radius_has_match"]
    for r in (0.3, 0.5):
        matches = [row for row in table if row["r"] == r and row["match"]]
        assert matches, f"no convention x candidate match for r = {r}"
    # the table is emitted verbatim in the report
    assert "torus_scalar_audit" in suite.to_json()
    assert '"candidate"' in suite.to_json()
    consistent = audit.details["pairs_matching_every_radius"]
    assert consistent, "no convention x candidate pair matches at every radius"
    announce(8, "torus scalar audit", f"pairs matching every radius: {consistent}")


def test_criterion_09_conformal_flatness(suite):
    mult = record(suite, "principal_multiplicity")
    assert mult.tolerance == 1e-8
    assert mult.passed
    codazzi = record(suite, "schouten_codazzi")
    assert codazzi.passed
    control = codazzi.details["non_conformally_flat_control"]
    assert control > 10 * codazzi.tolerance
    announce(
        9,
        "conformal flatness markers",
        f"multiplicity residual {mult.max_residual:.2e}; Codazzi defect "
        f"{codazzi.max_residual:.2e} vs control {control:.2e}",
    )


def test_criterion_10_determinism(cfg, suite):
    again = run_suite(cfg)
    assert suite.to_json() == again.to_json()
    assert suite.to_markdown() == again.to_markdown()
    announce(10, "determinism", "two suite runs byte-identical")


def test_suite_has_at_least_ten_checks(suite):
    assert len(suite.records) >= 10
    assert suite.all_asserts_pass


@pytest.mark.parametrize("seed", [0, 5])
def test_pipeline_scalar_margins(seed):
    # exact inner jets leave the nested pipeline with outer truncation alone:
    # its scalar asserts sit at 5% of their tolerances or less
    names = ("two_route_scalar", "scalar_constancy", "sigma_invariance")
    report = run_suite(RunConfig(seed=seed, checks=",".join(names)).validate())
    assert [r.name for r in report.records] == list(names)
    for rec in report.records:
        assert rec.passed and rec.max_residual <= 0.05 * rec.tolerance, rec.name


def test_batch_algebra_matches_per_point_route(monkeypatch):
    # the curvature layer batched over each point set gives the report of the
    # per-point algebra it replaced, byte for byte
    import curvature_oracle

    from mobiusflat import curvature

    cfg = RunConfig(seed=0, checks="schouten_codazzi,warped_metric_scalar,two_route_scalar")
    batched = run_suite(cfg.validate()).to_json()
    monkeypatch.setattr(curvature, "curvature_batch", curvature_oracle.curvature_batch)
    per_point = run_suite(cfg.validate()).to_json()
    assert '"passed": true' in batched and batched == per_point


def test_warped_audit_requests_one_trajectory_at_a_time(monkeypatch):
    # at n = 7 the 9 trajectories x 20 points stacked into one curvature
    # request peaked at 25.3 MiB traced; one request per trajectory peaks near
    # 2.4 MiB and gives the stacked request's scalars bit for bit
    from mobiusflat import checks
    from mobiusflat.curvature import curvature_batch

    cfg = RunConfig(n=7, seed=0).validate()
    body = checks.CHECK_FUNCTIONS["warped_metric_scalar"].body
    tracemalloc.start()
    try:
        body(cfg, [], None, checks.Residuals())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    requests = []

    def recorded(*levels):
        requests.append((levels, curvature_batch(*levels)))
        return requests[-1][1]

    monkeypatch.setattr(checks, "curvature_batch", recorded)
    body(cfg, [], None, checks.Residuals())
    assert len(requests) == 9
    stacked = curvature_batch(*(np.concatenate(lv) for lv in zip(*(r[0] for r in requests))))
    for (_, bundle), old in zip(requests, np.split(stacked.scalar, len(requests))):
        assert np.array_equal(bundle.scalar, old)


def test_blaschke_audit_makes_one_request_per_surface(monkeypatch):
    # tr A and the direct scalar come from one request of each surface's
    # closed forms, with the residuals of two separate requests, one for the
    # records and one for the direct scalar
    import dataclasses

    from mobiusflat import checks

    requests, honest = [], checks.suite_surfaces

    def recorded_surfaces(cfg):
        surfaces = honest(cfg)
        for surf in surfaces:
            closed = surf.closed_form

            def recorded(pts, order=2, closed=closed):
                requests.append((closed, pts))
                return closed.jets(pts, order)

            recording = dataclasses.replace(closed, jets=recorded)
            surf.imm = dataclasses.replace(surf.imm, analytic_fields=recording)
        return surfaces

    monkeypatch.setattr(checks, "suite_surfaces", recorded_surfaces)
    cfg = RunConfig(seed=0, checks="blaschke_trace_audit").validate()
    rows = run_suite(cfg).records[0].details["audit_rows"]
    assert len(requests) == len(rows) == 4
    for (fields, pts), row in zip(requests, rows):
        resid = {name: 0.0 for name in checks.CONVENTION_BY_NAME}
        for d, full in zip(fields.jets(pts).records(pts), fields.jets(pts).direct_scalar):
            for name, r_c in checks._mean_by_convention([full], cfg.n).items():
                target = 1.0 / (2 * cfg.n) + r_c / (2 * (cfg.n - 1))
                resid[name] = max(resid[name], abs(float(np.trace(d.A)) - target))
        assert row["residual_by_convention"] == resid


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_accepted_dimension_passes(n):
    # the pipeline reads exact jets, so no step constant depends on n
    report = run_suite(RunConfig(n=n, samples=8, seed=0).validate())
    assert len(report.records) == 13
    failed = [(r.name, r.max_residual, r.error) for r in report.records if not r.passed]
    assert not failed


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(4, 7),
    samples=st.sampled_from([8, 20]),
)
def test_every_seed_passes_far_inside_the_tolerances(seed, n, samples):
    # no seed flips a verdict: every record passes, and every assert with a
    # finite tolerance stays below 1e-2 of it (worst measured: 1.2e-4 over
    # seeds 0-7 at n = 4-7 and samples 8 and 20, 9.7e-6 over these draws)
    report = run_suite(RunConfig(n=n, samples=samples, seed=seed).validate())
    failed = [(r.name, r.max_residual, r.error) for r in report.records if not r.passed]
    assert not failed
    margins = {
        r.name: r.max_residual / r.tolerance
        for r in report.records
        if r.kind == "assert" and np.isfinite(r.tolerance)
    }
    assert margins and max(margins.values()) <= 1e-2, margins
