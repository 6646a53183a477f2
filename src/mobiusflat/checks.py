"""Verification checks over the hypersurface families and their invariants.

Check design follows an audit-versus-assert split.  Identities whose
normalization constant is genuinely ambiguous across sources (anything
containing the scalar curvature R) are *audits*: they always pass and emit
the per-convention data so the report states facts instead of hiding a
rescaling.  Unambiguous identities (trace of B, principal multiplicities,
metric reproduction, closure of curves) are *asserts* and gate the exit
status.

Analytic closed-form fields of the generators back the tight-tolerance
identity checks; the finite-difference pipeline route is exercised in
parallel wherever runtime permits, and the two routes cross-validate.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import RunConfig
from .curvature import (
    Convention,
    codazzi_defect,
    convert_scalar,
    metric_field_curvature,
    schouten_coordinate_field,
)
from .errors import MobiusFlatError
from .fd import FDScheme
from .immersion import (
    ImmersionHandle,
    fundamental_forms_batch,
    principal_curvatures,
)
from .moebius import (
    SurfaceFields,
    blaschke_A,
    fields_from_immersion,
    get_fields,
    moebius_B,
    moebius_data,
    moebius_form,
    moebius_form_divergence_residual,
    moebius_scalar,
)
from .report import CheckRecord, VerificationReport
from .spiral import (
    ALTERNATE,
    STANDARD,
    IntegratorControls,
    SpiralParams,
    SpiralTrajectory,
    closure_test,
    equilibrium_kappa,
    integrate_grid,
    kappa_accel,
    prescribed_curvature_trajectory,
)
from .zoo import (
    FAMILY_BY_EPSILON,
    cone_immersion,
    cylinder_immersion,
    lift_to_sphere,
    rotational_immersion,
    sphere_chart_metric,
    torus_immersion,
)

CONVENTION_BY_NAME = {
    "half": Convention.HALF_TRACE,
    "full": Convention.FULL_TRACE,
    "normalized": Convention.NORMALIZED,
}

# spiral presets per model curvature: (R, kappa0, kappa_s0, s_max); the
# cone family is dynamically unstable, so its arc is kept short
FAMILY_PRESETS = {
    0: (-0.05, 1.0, 0.1, 4.0),
    1: (-1.0, 1.02, 0.0, 2.0),
    -1: (0.75, 1.25, 0.05, 4.0),
}

WARPED_AUDIT_R = {
    0: (-0.02, -0.08, -0.15),
    1: (-0.6, -1.0, -1.5),
    -1: (0.3, 0.75, 1.2),
}

TORUS_AUDIT_RADII = (0.3, 0.5, 1.0 / np.sqrt(2.0))

# Order 2 stays in FDScheme for the convergence tests only: at the suite's
# steps and tolerances it fails most asserts.
FD_ORDER = 4

# Immersion-level differencing for the suite.  The step sits above the
# pointwise optimum: rounding noise in the fields is what the outer curvature
# stencils amplify, and a slightly larger inner step pushes that incoherent
# floor down by an order of magnitude at negligible truncation cost.
INNER_SCHEME = FDScheme(step=0.004, order=FD_ORDER)

# Derivatives of the rho/H/metric fields for the C and A tensors.
FIELD_SCHEME = FDScheme(step=0.005, order=FD_ORDER, scaled=False)


@dataclass
class SuiteSurface:
    """One suite surface with its finite-difference fields, built once."""

    name: str
    epsilon: int | None
    imm: ImmersionHandle
    traj: SpiralTrajectory | None
    fields: SurfaceFields


def spiral_trajectory(n, epsilon, big_r, kappa0, kappa_s0, s_max, step=1e-3, variant=STANDARD):
    params = SpiralParams(n, epsilon, big_r, variant=variant)
    controls = IntegratorControls(s_max=s_max, step=step)
    return integrate_grid(params, [[kappa0, kappa_s0]], controls)[0]


def preset_trajectory(n, epsilon, step=1e-3, variant=STANDARD):
    big_r, k0, ks0, s_max = FAMILY_PRESETS[epsilon]
    return spiral_trajectory(n, epsilon, big_r, k0, ks0, s_max, step, variant)


def build_family(traj, n) -> ImmersionHandle:
    builder = {
        "cylinder": cylinder_immersion,
        "cone": cone_immersion,
        "rotational": rotational_immersion,
    }[FAMILY_BY_EPSILON[traj.params.epsilon]]
    return builder(traj, n)


def suite_surfaces(cfg: RunConfig) -> list[SuiteSurface]:
    out = []
    for eps in (0, 1, -1):
        traj = preset_trajectory(cfg.n, eps, cfg.step)
        out.append((FAMILY_BY_EPSILON[eps], eps, build_family(traj, cfg.n), traj))
    out.append(("torus", None, torus_immersion(cfg.torus_r, cfg.n), None))
    return [SuiteSurface(*s, fields_from_immersion(s[2], INNER_SCHEME)) for s in out]


def sample_points(imm: ImmersionHandle, count: int, rng, jitter: float = 0.1, pad: float = 0.12):
    """Seeded jittered samples spread along the first chart coordinate."""
    lo0, hi0 = imm.domain[0]
    pts = np.tile(imm.base_point, (count, 1))
    base = np.linspace(lo0 + pad, hi0 - pad, count)
    width0 = (hi0 - lo0 - 2 * pad) / max(count, 2)
    pts[:, 0] = np.clip(
        base + rng.uniform(-0.4, 0.4, size=count) * width0, lo0 + pad, hi0 - pad
    )
    for a in range(1, imm.chart_dimension):
        lo, hi = imm.domain[a]
        width = min(hi - lo, 1.0)
        pts[:, a] += rng.uniform(-jitter, jitter, size=count) * width
        pts[:, a] = np.clip(pts[:, a], lo + pad, hi - pad)
    return pts


def outer_scheme(cfg: RunConfig, factor: float = 1.0) -> FDScheme:
    return FDScheme(step=cfg.curvature_step * factor, order=FD_ORDER, scaled=False)


def direct_scalar(fields: SurfaceFields, p: np.ndarray, sch: FDScheme) -> float:
    """Full-trace scalar curvature of the Moebius metric rho^2 I at p."""
    return metric_field_curvature(fields.moebius_metric_field(), p, sch).scalar


def warped_scalar_reference(n, eps, kappa, kappa_s, kappa_ss):
    """Full-trace scalar of kappa^2 (ds^2 + I_{-eps}), closed form."""
    w1 = kappa_s / kappa
    w2 = kappa_ss / kappa - w1**2
    return (n - 1) / kappa**2 * (-(n - 2) * eps - 2.0 * w2 - (n - 2) * w1**2)


def warped_metric_field(traj: SpiralTrajectory, n: int):
    """Analytic field kappa(s)^2 (ds^2 + I_{-eps}) in suite coordinates.

    Cross-section charts: flat identity (eps = 0), half-space t-coordinates
    (eps = +1, metric Id / t^2), unit-sphere spherical angles (eps = -1).
    """
    eps = traj.params.epsilon

    def field(pts):
        pts = np.atleast_2d(pts)
        k = pts.shape[0]
        out = np.zeros((k, n, n))
        out[:, 0, 0] = 1.0
        if eps == 0:
            idx = np.arange(1, n)
            out[:, idx, idx] = 1.0
        elif eps == 1:
            idx = np.arange(1, n)
            out[:, idx, idx] = 1.0 / pts[:, 1][:, None] ** 2
        else:
            out[:, 1:, 1:] = sphere_chart_metric(pts[:, 1:])
        return traj.kappa_at(pts[:, 0])[:, None, None] ** 2 * out

    return field


def warped_base_point(n, eps, s0):
    p = np.full(n, 0.5 * np.pi if eps == -1 else (1.0 if eps == 1 else 0.0))
    p[0] = s0
    return p


def _guard(fn):
    """Run one check; a crash becomes a failed record, never a propagated error."""

    def wrapper(*args, **kwargs) -> CheckRecord:
        try:
            return fn(*args, **kwargs)
        except MobiusFlatError as exc:
            return CheckRecord(
                name=fn.__name__.removeprefix("check_"),
                anchor="(check crashed before reporting)",
                passed=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        except Exception as exc:  # noqa: BLE001 - any crash is a failed check
            return CheckRecord(
                name=fn.__name__.removeprefix("check_"),
                anchor="(check crashed before reporting)",
                passed=False,
                error=f"{type(exc).__name__}: {exc} | {traceback.format_exc(limit=2)}",
            )

    wrapper.__name__ = fn.__name__
    return wrapper


# ---------------------------------------------------------------------------
# individual checks


@_guard
def check_moebius_metric_match(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Computed Moebius metric equals kappa(s)^2 (ds^2 + I_{-eps}) entrywise."""
    worst = 0.0
    total = 0
    per_family = {}
    for surf in surfaces:
        if surf.traj is None:
            continue
        pts = sample_points(surf.imm, cfg.samples, rng, cfg.jitter)
        g, _, rho, _ = surf.fields.sample(pts)
        expected = warped_metric_field(surf.traj, cfg.n)(pts)
        computed = rho[:, None, None] ** 2 * g
        scale = np.max(np.abs(expected), axis=(1, 2))
        resid = np.max(np.abs(computed - expected), axis=(1, 2)) / scale
        per_family[surf.name] = float(np.max(resid))
        worst = max(worst, per_family[surf.name])
        total += pts.shape[0]
    return CheckRecord(
        name="moebius_metric_match",
        anchor="Moebius metric of cylinder/cone/rotational generators equals "
        "kappa(s)^2 (ds^2 + I_{-eps}) entrywise",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_metric_match,
        passed=worst < cfg.tol_metric_match,
        details={"relative_residual_by_family": per_family},
    )


@_guard
def check_trace_identities(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """tr B = 0 and |B|^2 = (n-1)/n at every sample."""
    n = cfg.n
    worst = 0.0
    total = 0
    for surf in surfaces:
        pts = sample_points(surf.imm, cfg.samples, rng, cfg.jitter)
        g, h, rho, mean = surf.fields.sample(pts)
        for i in range(pts.shape[0]):
            b = moebius_B(g[i], h[i], rho[i], mean[i])
            worst = max(worst, abs(float(np.trace(b))))
            worst = max(worst, abs(float(np.sum(b * b)) - (n - 1) / n))
        total += pts.shape[0]
    return CheckRecord(
        name="trace_identities",
        anchor="tr B = 0 and |B|^2 = (n-1)/n in the Moebius-metric orthonormal frame",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_trace,
        passed=worst < cfg.tol_trace,
    )


@_guard
def check_moebius_form_structure(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """C vanishes on the torus and circle cylinder; only C_1 survives otherwise."""
    details = {}
    worst = 0.0
    total = 0

    torus = next(s for s in surfaces if s.name == "torus")
    pts = sample_points(torus.imm, 4, rng, cfg.jitter, pad=0.2)
    wide = FDScheme(step=0.05, order=4, scaled=False)
    c_tor = max(float(np.max(np.abs(moebius_form(torus.fields, p, wide)))) for p in pts)
    details["torus_max_C"] = c_tor
    worst = max(worst, c_tor)
    total += pts.shape[0]

    circle = cylinder_immersion(
        spiral_trajectory(cfg.n, 0, 0.0, 1.0, 0.0, 6.0, cfg.step), cfg.n
    )
    circle_fields = get_fields(circle, INNER_SCHEME)
    c_circ = float(np.max(np.abs(moebius_form(circle_fields, circle.base_point, FIELD_SCHEME))))
    details["circle_cylinder_max_C"] = c_circ
    worst = max(worst, c_circ)
    total += 1

    cyl = next(s for s in surfaces if s.name == "cylinder")
    cyl_fields = get_fields(cyl.imm, INNER_SCHEME)
    tangential = 0.0
    c1_err = 0.0
    for p in sample_points(cyl.imm, 4, rng, cfg.jitter):
        c = moebius_form(cyl_fields, p, FIELD_SCHEME)
        kap = float(cyl.traj.kappa_at(p[0:1])[0])
        ks = float(cyl.traj.kappa_s_at(p[0:1])[0])
        tangential = max(tangential, float(np.max(np.abs(c[1:]))))
        c1_err = max(c1_err, abs(c[0] + ks / kap**2))
    details["cylinder_max_C_alpha"] = tangential
    details["cylinder_C1_vs_minus_kappa_s_over_kappa_sq"] = c1_err
    worst = max(worst, tangential)
    total += 4

    # independent cross-check: sum_j B_ij,j = -(n-1) C_i
    div_sch = FDScheme(step=0.01, order=FD_ORDER, scaled=False)
    details["divergence_identity_residual"] = {
        surf.name: float(
            moebius_form_divergence_residual(
                get_fields(surf.imm, INNER_SCHEME), surf.imm.base_point, div_sch
            )
        )
        for surf in surfaces
        if surf.name in ("cylinder", "rotational")
    }

    return CheckRecord(
        name="moebius_form_structure",
        anchor="Moebius 1-form: zero on the torus and circle cylinder; only the "
        "profile component survives on generic generators",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_form,
        passed=worst < cfg.tol_form and c1_err < 1e-6,
        details=details,
    )


@_guard
def check_commutator_closure(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """B A - A B = 0: B and A are simultaneously diagonalizable."""
    worst = 0.0
    pipeline_worst = 0.0
    total = 0
    for surf in surfaces:
        fields = get_fields(surf.imm, INNER_SCHEME)
        pts = sample_points(surf.imm, 3, rng, cfg.jitter)
        for p in pts:
            d = moebius_data(fields, p, FIELD_SCHEME)
            worst = max(worst, d.commutator_norm())
        d = moebius_data(surf.fields, pts[0], outer_scheme(cfg))
        pipeline_worst = max(pipeline_worst, d.commutator_norm())
        total += pts.shape[0]
    return CheckRecord(
        name="commutator_closure",
        anchor="closed Moebius form equivalence: commutator of B and A vanishes",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_commutator,
        passed=worst < cfg.tol_commutator,
        details={"pipeline_route_max": pipeline_worst},
    )


@_guard
def check_principal_multiplicity(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """At least n-1 principal curvatures coincide on every generated surface."""
    worst = 0.0
    total = 0
    torus_gap = None
    for surf in surfaces:
        pts = sample_points(surf.imm, cfg.samples, rng, cfg.jitter)
        g, h = fundamental_forms_batch(surf.imm, pts, INNER_SCHEME)
        for i in range(pts.shape[0]):
            lam = np.sort(principal_curvatures(g[i], h[i]))
            cluster = min(lam[-2] - lam[0], lam[-1] - lam[1])
            worst = max(worst, float(cluster))
            if surf.name == "torus":
                gap = max(lam[-1] - lam[-2], lam[1] - lam[0])
                torus_gap = gap if torus_gap is None else min(torus_gap, gap)
        total += pts.shape[0]
    r = cfg.torus_r
    expected_gap = 1.0 / (r * np.sqrt(1 - r * r))
    gap_ok = torus_gap is not None and abs(torus_gap - expected_gap) < 1e-6
    return CheckRecord(
        name="principal_multiplicity",
        anchor="conformal flatness criterion: at least n-1 equal principal "
        "curvatures; torus has exactly two with gap 1/(r sqrt(1-r^2))",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_multiplicity,
        passed=worst < cfg.tol_multiplicity and gap_ok,
        details={"torus_gap": torus_gap, "torus_gap_expected": expected_gap},
    )


@_guard
def check_schouten_codazzi(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Schouten tensor of the induced metrics is Codazzi; a generic metric is not.

    Also audits which scalar normalization in S = Ric - R/(2(n-1)) Id keeps
    the property on a metric with non-constant scalar curvature.
    """
    sch = outer_scheme(cfg)
    worst = 0.0
    per_surface = {}
    total = 0
    for surf in surfaces:
        if surf.name == "torus":
            continue
        fields = get_fields(surf.imm, INNER_SCHEME)
        sfield = schouten_coordinate_field(fields.metric, sch, Convention.FULL_TRACE)
        pts = sample_points(surf.imm, 3, rng, cfg.jitter, pad=0.2)
        vals = [codazzi_defect(sfield, fields.metric, p, sch) for p in pts]
        per_surface[surf.name] = float(np.max(vals))
        worst = max(worst, per_surface[surf.name])
        total += len(vals)

    def control_field(pts):
        pts = np.atleast_2d(pts)
        out = np.broadcast_to(np.eye(cfg.n), (pts.shape[0], cfg.n, cfg.n)).copy()
        out[:, 0, 0] = 1.0 + 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 1])
        return out

    control_sfield = schouten_coordinate_field(control_field, sch, Convention.FULL_TRACE)
    control = codazzi_defect(
        control_sfield, control_field, np.full(cfg.n, 0.4), sch
    )
    total += 1

    # convention audit on a metric whose scalar curvature varies
    rot = next(s for s in surfaces if s.name == "rotational")
    rot_fields = get_fields(rot.imm, INNER_SCHEME)
    p_aud = sample_points(rot.imm, 1, rng, cfg.jitter, pad=0.2)[0]
    audit = {}
    for name, conv in CONVENTION_BY_NAME.items():
        sfield = schouten_coordinate_field(rot_fields.metric, sch, conv)
        audit[name] = float(codazzi_defect(sfield, rot_fields.metric, p_aud, sch))
    best = min(audit, key=audit.get)

    passed = worst < cfg.tol_codazzi and control > 10 * cfg.tol_codazzi
    return CheckRecord(
        name="schouten_codazzi",
        anchor="Schouten tensor S = Ric - R/(2(n-1)) Id is a Codazzi tensor for "
        "conformally flat metrics",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_codazzi,
        passed=passed,
        details={
            "defect_by_surface": per_surface,
            "non_conformally_flat_control": float(control),
            "convention_audit_defects": audit,
            "best_convention": best,
            "audit_rows": [
                {
                    "identity": "Codazzi defect of S = Ric - R/(2(n-1)) Id on a "
                    "metric with varying scalar curvature",
                    "best_convention": best,
                    "residual_by_convention": audit,
                }
            ],
        },
    )


@_guard
def check_two_route_scalar(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Direct curvature of rho^2 I agrees with the conformal-change route."""
    sch = outer_scheme(cfg, 0.6)
    worst = 0.0
    total = 0
    count = max(3, cfg.samples // 4)
    for surf in surfaces:
        for p in sample_points(surf.imm, count, rng, cfg.jitter):
            res = moebius_scalar(surf.fields, p, INNER_SCHEME, curvature_scheme=sch)
            worst = max(worst, res.spread())
            total += 1
    return CheckRecord(
        name="two_route_scalar",
        anchor="scalar curvature of the Moebius metric: direct metric-field route "
        "vs conformal-change route",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_two_route,
        passed=worst < cfg.tol_two_route,
    )


@_guard
def check_scalar_constancy(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Moebius scalar curvature is constant along spiral-generated surfaces.

    Negative control: a rotational surface over kappa = 1 + 0.3 sin s (not a
    spiral solution) must exceed ten times the tolerance.
    """
    spreads = {}
    worst = 0.0
    total = 0
    for surf in surfaces:
        if surf.traj is None:
            continue
        vals = []
        for p in sample_points(surf.imm, cfg.samples, rng, cfg.jitter):
            vals.append(direct_scalar(surf.fields, p, outer_scheme(cfg)))
            total += 1
        spreads[surf.name] = float(np.max(vals) - np.min(vals))
        worst = max(worst, spreads[surf.name])

    control_traj = prescribed_curvature_trajectory(
        cfg.n,
        -1,
        lambda s: 1.15 + 0.3 * np.sin(np.asarray(s)),
        lambda s: 0.3 * np.cos(np.asarray(s)),
        IntegratorControls(s_max=4.5, step=cfg.step),
    )
    control_imm = rotational_immersion(control_traj, cfg.n)
    control_fields = fields_from_immersion(control_imm, INNER_SCHEME)
    control_vals = [
        direct_scalar(control_fields, p, outer_scheme(cfg))
        for p in sample_points(control_imm, max(6, cfg.samples // 3), rng, cfg.jitter)
    ]
    control_spread = float(np.max(control_vals) - np.min(control_vals))
    total += len(control_vals)

    passed = worst < cfg.tol_constancy and control_spread > 10 * cfg.tol_constancy
    return CheckRecord(
        name="scalar_constancy",
        anchor="constant Moebius scalar curvature along spiral-generated "
        "hypersurfaces; non-spiral control varies",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_constancy,
        passed=passed,
        details={"spread_by_family": spreads, "negative_control_spread": control_spread},
    )


@_guard
def check_warped_metric_scalar(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Constancy and normalization audit for kappa^2 (ds^2 + I_{-eps}).

    Asserts: along standard-variant spirals the numerically computed scalar
    curvature is constant.  Audits: the affine relation between the computed
    constant and the prescribed R under each normalization (the full-trace
    slope is 2(n-1)), and the non-constancy of the alternate coefficient
    convention.
    """
    n = cfg.n
    sch = outer_scheme(cfg, 0.6)
    worst_spread = 0.0
    total = 0
    fits = {}
    spreads = {}
    for eps in (0, 1, -1):
        computed = {name: [] for name in CONVENTION_BY_NAME}
        prescribed = []
        for big_r in WARPED_AUDIT_R[eps]:
            _, k0, ks0, s_max = FAMILY_PRESETS[eps]
            kstar = equilibrium_kappa(SpiralParams(n, eps, big_r))
            if kstar is not None:
                # start near the equilibrium so unstable families survive
                k0, ks0 = 1.05 * kstar, 0.0
            traj = spiral_trajectory(n, eps, big_r, k0, ks0, s_max, cfg.step)
            field = warped_metric_field(traj, n)
            lo, hi = float(traj.s[0]) + 0.2, float(traj.s[-1]) - 0.2
            svals = np.linspace(lo, hi, max(20, cfg.samples))
            vals = []
            for s0 in svals:
                b = metric_field_curvature(field, warped_base_point(n, eps, s0), sch)
                vals.append(b.scalar)
            vals = np.asarray(vals)
            spread = float(np.max(vals) - np.min(vals))
            spreads[f"eps={eps},R={big_r}"] = spread
            worst_spread = max(worst_spread, spread)
            total += svals.size
            prescribed.append(big_r)
            # vals holds the full-trace scalars at the first points already;
            # the conversion is exact (dimension n, the base point's size)
            for name, conv in CONVENTION_BY_NAME.items():
                scalars = [convert_scalar(v, Convention.FULL_TRACE, conv, n) for v in vals[:3]]
                computed[name].append(float(np.mean(scalars)))
        x = np.asarray(prescribed)
        for name in CONVENTION_BY_NAME:
            y = np.asarray(computed[name])
            a = np.vstack([x, np.ones_like(x)]).T
            (slope, intercept), res, *_ = np.linalg.lstsq(a, y, rcond=None)
            fits[f"eps={eps},{name}"] = {
                "slope": float(slope),
                "intercept": float(intercept),
                "residual": float(np.max(np.abs(a @ np.array([slope, intercept]) - y))),
            }

    # alternate coefficient convention: spread recorded, not asserted
    alt = spiral_trajectory(n, -1, -0.75, 1.25, 0.05, 4.5, cfg.step, variant=ALTERNATE)
    field = warped_metric_field(alt, n)
    svals = np.linspace(float(alt.s[0]) + 0.2, float(alt.s[-1]) - 0.2, 20)
    alt_vals = [
        metric_field_curvature(field, warped_base_point(n, -1, s0), sch).scalar for s0 in svals
    ]
    alt_spread = float(np.max(alt_vals) - np.min(alt_vals))
    total += svals.size

    # audit rows: under which normalization does the computed scalar equal
    # the prescribed R itself (unit slope)?  None exactly: the relation is
    # affine with slope 2(n-1) in the full trace, and the rows record how
    # far each normalization sits from slope one.
    audit_rows = []
    for eps in (0, 1, -1):
        residual_by_conv = {
            name: abs(fits[f"eps={eps},{name}"]["slope"] - 1.0)
            + abs(fits[f"eps={eps},{name}"]["intercept"])
            for name in CONVENTION_BY_NAME
        }
        audit_rows.append(
            {
                "identity": f"warped-metric scalar equals prescribed R (eps = {eps})",
                "best_convention": min(residual_by_conv, key=residual_by_conv.get),
                "residual_by_convention": residual_by_conv,
            }
        )

    return CheckRecord(
        name="warped_metric_scalar",
        anchor="kappa^2 (ds^2 + I_{-eps}) has constant scalar curvature exactly "
        "along spirals of the standard coefficient convention; affine "
        "relation computed-vs-prescribed R audited per normalization",
        samples=total,
        max_residual=worst_spread,
        tolerance=cfg.tol_constancy,
        passed=worst_spread < cfg.tol_constancy,
        details={
            "constancy_spread": spreads,
            "affine_fits": fits,
            "expected_full_trace_slope": 2.0 * (n - 1),
            "alternate_variant_spread": alt_spread,
            "audit_rows": audit_rows,
        },
    )


@_guard
def check_torus_scalar_audit(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Convention x candidate table for the torus Moebius scalar curvature.

    Candidates per radius r: (n-1)(n-2) r^2 and (n-1)(n-2)(1-r^2), each also
    in half and normalized variants.  The table reports every residual; at
    least one pair is expected to match, and the report states which.
    """
    n = cfg.n
    table = []
    any_match_all = True
    worst_best = 0.0
    total = 0
    match_sets = []
    for r in TORUS_AUDIT_RADII:
        imm = torus_immersion(r, n)
        fields = fields_from_immersion(imm, INNER_SCHEME)
        pts = sample_points(imm, 3, rng, cfg.jitter)
        vals_full = [
            moebius_scalar(fields, p, INNER_SCHEME, curvature_scheme=outer_scheme(cfg, 0.6)).direct
            for p in pts
        ]
        total += len(vals_full)
        per_conv = {
            name: float(np.mean([convert_scalar(v, Convention.FULL_TRACE, conv, n) for v in vals_full]))
            for name, conv in CONVENTION_BY_NAME.items()
        }
        base = (n - 1) * (n - 2)
        candidates = {
            "r^2": base * r**2,
            "1-r^2": base * (1 - r**2),
            "r^2/2": base * r**2 / 2,
            "(1-r^2)/2": base * (1 - r**2) / 2,
            "r^2/(n(n-1))": base * r**2 / (n * (n - 1)),
            "(1-r^2)/(n(n-1))": base * (1 - r**2) / (n * (n - 1)),
        }
        matches = []
        for conv_name, value in per_conv.items():
            for cand_name, cand in candidates.items():
                resid = abs(value - cand)
                row = {
                    "r": r,
                    "convention": conv_name,
                    "candidate": cand_name,
                    "candidate_value": cand,
                    "computed": value,
                    "residual": resid,
                    "match": bool(resid < 1e-5 * max(1.0, abs(cand))),
                }
                table.append(row)
                if row["match"]:
                    matches.append((conv_name, cand_name, resid))
        match_sets.append({(m[0], m[1]) for m in matches})
        if matches:
            worst_best = max(worst_best, min(m[2] for m in matches))
        else:
            any_match_all = False
    consistent = sorted(set.intersection(*match_sets)) if match_sets else []
    audit_rows = []
    for r in TORUS_AUDIT_RADII:
        residual_by_conv = {}
        for conv_name in CONVENTION_BY_NAME:
            vals = [
                row["residual"]
                for row in table
                if row["r"] == r
                and row["convention"] == conv_name
                and row["candidate"] in ("r^2", "1-r^2")
            ]
            residual_by_conv[conv_name] = float(min(vals))
        audit_rows.append(
            {
                "identity": f"torus scalar equals (n-1)(n-2) r^2 or (n-1)(n-2)(1-r^2), "
                f"r = {r:.6f}",
                "best_convention": min(residual_by_conv, key=residual_by_conv.get),
                "residual_by_convention": residual_by_conv,
            }
        )
    return CheckRecord(
        name="torus_scalar_audit",
        anchor="compact case: claimed value (n-1)(n-2) r^2 for the torus versus "
        "the computed Moebius scalar under each normalization and factor "
        "labeling",
        kind="audit",
        samples=total,
        max_residual=worst_best,
        tolerance=1e-5,
        passed=True,
        details={
            "table": table,
            "every_radius_has_match": any_match_all,
            "pairs_matching_every_radius": [list(p) for p in consistent],
            "audit_rows": audit_rows,
        },
    )


@_guard
def check_blaschke_trace_audit(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Which normalization satisfies tr A = 1/(2n) + R/(2(n-1))?

    The Blaschke tensor trace is computed from closed-form surface fields;
    the scalar curvature of the Moebius metric is measured independently in
    the full trace and converted per convention.  Audit: the residual of
    the identity under each normalization, per surface.
    """
    n = cfg.n
    audit_rows = []
    total = 0
    best_residual = float("inf")
    for surf in surfaces:
        fields = get_fields(surf.imm, INNER_SCHEME)
        pts = sample_points(surf.imm, 2, rng, cfg.jitter, pad=0.2)
        resid = {name: 0.0 for name in CONVENTION_BY_NAME}
        for p in pts:
            sch = FDScheme(step=0.05 if surf.name == "torus" else 0.005, order=4, scaled=False)
            tr_a = float(np.trace(blaschke_A(fields, p, sch)))
            full = direct_scalar(fields, p, outer_scheme(cfg, 0.6))
            for name, conv in CONVENTION_BY_NAME.items():
                r_c = convert_scalar(full, Convention.FULL_TRACE, conv, n)
                target = 1.0 / (2 * n) + r_c / (2 * (n - 1))
                resid[name] = max(resid[name], abs(tr_a - target))
            total += 1
        audit_rows.append(
            {
                "identity": f"tr A = 1/(2n) + R/(2(n-1)) on the {surf.name}",
                "best_convention": min(resid, key=resid.get),
                "residual_by_convention": resid,
            }
        )
        best_residual = min(best_residual, min(resid.values()))
    return CheckRecord(
        name="blaschke_trace_audit",
        anchor="Blaschke tensor trace identity tr A = 1/(2n) + R/(2(n-1)) under "
        "each scalar normalization",
        kind="audit",
        samples=total,
        max_residual=best_residual,
        tolerance=1e-6,
        passed=True,
        details={"audit_rows": audit_rows},
    )


@_guard
def check_sigma_invariance(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """B eigenvalues and Moebius scalar agree between f and its sphere lift."""
    worst = 0.0
    total = 0
    for surf in surfaces:
        if surf.name not in ("cylinder", "rotational"):
            continue
        lift_fields = fields_from_immersion(lift_to_sphere(surf.imm), INNER_SCHEME)
        for p in sample_points(surf.imm, 3, rng, cfg.jitter):
            d0 = moebius_data(surf.fields, p, FIELD_SCHEME)
            d1 = moebius_data(lift_fields, p, FIELD_SCHEME)
            worst = max(worst, float(np.max(np.abs(d0.B_eigenvalues - d1.B_eigenvalues))))
            s0, s1 = (direct_scalar(f, p, outer_scheme(cfg)) for f in (surf.fields, lift_fields))
            worst = max(worst, abs(s0 - s1))
            total += 1
    return CheckRecord(
        name="sigma_invariance",
        anchor="conformal lift to the sphere preserves the Moebius metric and "
        "second fundamental form: eigenvalues of B and the scalar agree",
        samples=total,
        max_residual=worst,
        tolerance=cfg.tol_sigma,
        passed=worst < cfg.tol_sigma,
    )


@_guard
def check_fd_convergence(cfg: RunConfig, surfaces, rng) -> CheckRecord:
    """Halving the curvature step reduces the truncation residual >= 2x."""
    n = cfg.n
    rot = next(s for s in surfaces if s.name == "rotational")
    traj = rot.traj
    field = warped_metric_field(traj, n)
    s0 = 0.5 * (traj.s[0] + traj.s[-1])
    p = warped_base_point(n, -1, float(s0))
    k = float(traj.kappa_at(np.array([s0]))[0])
    ks = float(traj.kappa_s_at(np.array([s0]))[0])
    kss = float(kappa_accel(traj.params, k, ks))
    exact = warped_scalar_reference(n, -1, k, ks, kss)
    errs = []
    for factor in (4.0, 2.0):
        b = metric_field_curvature(field, p, outer_scheme(cfg, factor))
        errs.append(abs(b.scalar - exact))
    ratio = errs[0] / max(errs[1], 1e-300)
    return CheckRecord(
        name="fd_convergence",
        anchor="step halving reduces the finite-difference residual of the "
        "scalar curvature by at least 2x (order >= 2 empirically)",
        samples=2,
        max_residual=float(errs[1]),
        tolerance=float("inf"),
        passed=ratio >= 2.0,
        details={"errors": errs, "ratio": float(ratio)},
    )


CHECK_FUNCTIONS = {
    "moebius_metric_match": check_moebius_metric_match,
    "trace_identities": check_trace_identities,
    "moebius_form_structure": check_moebius_form_structure,
    "commutator_closure": check_commutator_closure,
    "principal_multiplicity": check_principal_multiplicity,
    "schouten_codazzi": check_schouten_codazzi,
    "two_route_scalar": check_two_route_scalar,
    "scalar_constancy": check_scalar_constancy,
    "warped_metric_scalar": check_warped_metric_scalar,
    "torus_scalar_audit": check_torus_scalar_audit,
    "blaschke_trace_audit": check_blaschke_trace_audit,
    "sigma_invariance": check_sigma_invariance,
    "fd_convergence": check_fd_convergence,
}


def run_suite(cfg: RunConfig) -> VerificationReport:
    """Execute the enabled checks in fixed order and assemble the report."""
    report = VerificationReport(version=__version__, seed=cfg.seed, config_hash=cfg.hash())
    enabled = cfg.check_list()
    if not enabled:
        return report
    surfaces = suite_surfaces(cfg)
    for name in enabled:
        rng = np.random.default_rng(cfg.seed + 7919 * (1 + list(CHECK_FUNCTIONS).index(name)))
        record = CHECK_FUNCTIONS[name](cfg, surfaces, rng)
        report.add(record)
    return report


# ---------------------------------------------------------------------------
# rigidity experiment


def rigidity_scan(cfg: RunConfig) -> dict:
    """Closure experiment for half-plane spirals around the equilibrium.

    The equilibrium curvature gives a hyperbolic circle (closed).  A grid of
    perturbed initial states (relative kappa offsets up to grid_spread,
    kappa_s offsets up to 0.8 * grid_spread * kappa*) is tested for closure
    over the horizon.  Each grid row is integrated for one kappa period only;
    its period map (period T and holonomy trace, reported per row) carries
    the closure test over the rest of the horizon.  A small flat-model
    control with non-constant curvature is included.
    """
    n = cfg.n
    params = SpiralParams(n, -1, cfg.R, variant=cfg.spiral_variant)
    kstar = equilibrium_kappa(params)
    result = {
        "params": {"n": n, "epsilon": -1, "R": cfg.R, "variant": cfg.spiral_variant},
        "equilibrium_kappa": kstar,
    }
    if kstar is None or kstar <= 1.0:
        result["status"] = "trivial"
        result["reason"] = "no equilibrium with kappa > 1 for this (epsilon, R)"
        return result

    period = 2.0 * np.pi / np.sqrt(kstar**2 - 1.0)
    eq_traj = integrate_grid(
        params, [[kstar, 0.0]], IntegratorControls(s_max=1.5 * period, step=cfg.step)
    )[0]
    eq = closure_test(eq_traj, cfg.tol_closed, cfg.tol_open)
    result["equilibrium"] = {
        "expected_period": period,
        "status": eq.status,
        "period": eq.period,
        "defect": eq.defect,
    }

    offsets = np.linspace(-cfg.grid_spread, cfg.grid_spread, cfg.grid_size)
    offsets[np.abs(offsets) < 1e-9] = cfg.grid_spread / 8.0
    ks_offsets = np.linspace(
        -0.8 * cfg.grid_spread, 0.8 * cfg.grid_spread, cfg.grid_size
    )
    initials = np.array(
        [
            [kstar * (1.0 + dk), kstar * dks]
            for dk in offsets
            for dks in ks_offsets
        ]
    )
    controls = IntegratorControls(s_max=cfg.horizon, step=cfg.step, store_stride=10)
    trajectories = integrate_grid(params, initials, controls, period_map=True)
    grid_rows = []
    closures = 0
    for (k0, ks0), traj in zip(initials, trajectories):
        res = closure_test(traj, cfg.tol_closed, cfg.tol_open)
        closures += int(res.status == "closed")
        pmap = traj.period_map
        grid_rows.append(
            {
                "kappa0": float(k0),
                "kappa_s0": float(ks0),
                "status": res.status,
                "min_defect": res.defect,
                "termination": traj.termination,
                "kappa_period": pmap.period if pmap else None,
                "holonomy_trace": pmap.trace if pmap else None,
            }
        )
    result["grid"] = grid_rows
    result["grid_closures"] = closures
    result["grid_all_open"] = all(r["status"] == "open" for r in grid_rows)

    flat_params = SpiralParams(n, 0, 0.0, variant=STANDARD)
    flat_trajs = integrate_grid(
        flat_params,
        np.array([[1.0, 0.05], [1.0, 0.1]]),
        IntegratorControls(s_max=min(cfg.horizon, 60.0), step=cfg.step, store_stride=10),
    )
    flat_rows = []
    for traj in flat_trajs:
        res = closure_test(traj, cfg.tol_closed, cfg.tol_open)
        flat_rows.append(
            {"kappa_s0": float(traj.kappa_s[0]), "status": res.status, "min_defect": res.defect}
        )
    result["flat_control"] = flat_rows

    result["status"] = (
        "pass"
        if eq.status == "closed"
        and abs((eq.period or 0.0) - period) < 1e-6
        and result["grid_all_open"]
        and all(r["status"] == "open" for r in flat_rows)
        else "fail"
    )
    return result
