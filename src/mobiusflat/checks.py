"""Verification checks over the hypersurface families and their invariants.

Check design follows an audit-versus-assert split.  Identities whose
normalization constant is genuinely ambiguous across sources (anything
containing the scalar curvature R) are *audits*: they always pass and emit
the per-convention data so the report states facts instead of hiding a
rescaling.  Unambiguous identities (trace of B, principal multiplicities,
metric reproduction, closure of curves) are *asserts* and gate the exit
status.

Each check is registered once, by ``@register(name, anchor, tolerance,
kind)`` on its body.  ``tolerance`` is the check's threshold, a number
written there and nowhere else: no config key moves a verdict, and a
negative control that needs the threshold reads it from the registered
``Check``.  The body only measures: it folds its residuals into a
``Residuals`` accumulator (worst value and sample count), states any pass
condition beyond the tolerance (a negative control) with
``Residuals.require``, and returns its details.  Calling the
registered ``Check`` is the one place a ``CheckRecord`` is built: an assert
passes when its worst residual is below the tolerance and every extra
condition holds, an audit always passes, and a body that raises gives a
failed assert record under the registered name and anchor, so the suite
goes on.  ``CHECK_FUNCTIONS`` is the registry and the one list of check
names: its order, that of the bodies below, is the suite's order, and each
check's random seed comes from its position.

Closed-form fields of the generators (``SuiteSurface.closed_form``) back the
tight-tolerance identity checks; the pipeline route (``SuiteSurface.fields``)
is exercised in parallel, and the two routes cross-validate.  Every check
reads exact jets and takes no step: a Moebius request of order k (2, or 0
for the checks that read values only) is on the pipeline one (k + 2)-jet of
the immersion per point set and on the closed forms one k-jet of their
factor tables, the Schouten/Codazzi defects read the 3-jet of the
closed forms' metric table, and the warped metric kappa^2 (ds^2 + I_{-eps})
is the 2-jet of its own factor table.  The one finite-difference request
left is ``fd_convergence``, an assert that halving the step of the
differenced curvature of the warped metric (``FD_CONVERGENCE_STEPS``)
reduces its error at least twofold.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .curvature import (
    Convention,
    convert_scalar,
    curvature_batch,
    metric_field_curvature,
    schouten_codazzi_defects,
)
from .errors import ConfigError, InputError, MobiusFlatError
from .immersion import ImmersionHandle
from .jets import Jet, compose, contract
from .moebius import SurfaceFields, fields_from_immersion, moebius_data, moebius_form
from .report import CheckRecord, VerificationReport
from .spiral import (
    IntegratorControls,
    SpiralParams,
    SpiralState,
    SpiralTrajectory,
    TOL_OPEN,
    closure_test,
    closure_tests,
    equilibrium_kappa,
    first_integral,
    flat_closure_bound,
    flat_kappa_in_band,
    integrate_grid,
    integrate_spiral,
    kappa_accel,
    sine_curvature_trajectory,
)
from .zoo import (
    EPSILON_BY_FAMILY,
    ClosedFormFields,
    build_family,
    cylinder_immersion,
    lift_to_sphere,
    rotational_immersion,
    torus_immersion,
    warped_metric_jet,
)

if TYPE_CHECKING:
    from .config import RunConfig

CONVENTION_BY_NAME = {c.value: c for c in Convention}

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


# sample_points: the uniform jitter of each chart coordinate after the
# first, in units of that coordinate's width capped at 1
SAMPLE_JITTER = 0.1

# fd_convergence: a curvature step and its half
FD_CONVERGENCE_STEPS = (0.04, 0.02)


@dataclass
class SuiteSurface:
    """One suite surface with both field routes.

    ``fields`` are the pipeline fields, built once from the derivatives of
    the immersion (its exact jet); ``closed_form`` are the generator's
    closed-form fields.
    """

    name: str
    imm: ImmersionHandle
    traj: SpiralTrajectory | None
    fields: SurfaceFields

    @property
    def closed_form(self) -> ClosedFormFields:
        return self.imm.analytic_fields


def spiral_trajectory(n, epsilon, big_r, kappa0, kappa_s0, s_max, step=1e-3, curve=True):
    """A spiral from one integration; with curve=False the kappa samples alone.

    The kappa subsystem does not read the curve, so its samples agree either
    way, to round-off (the joint Taylor steps also follow the curve).
    """
    params = SpiralParams(n, epsilon, big_r)
    controls = IntegratorControls(s_max=s_max, step=step)
    if not curve:
        return integrate_spiral(params, SpiralState(kappa0, kappa_s0), controls)
    return integrate_grid(params, [[kappa0, kappa_s0]], controls)[0]


def preset_trajectory(n, epsilon, step=1e-3):
    big_r, k0, ks0, s_max = FAMILY_PRESETS[epsilon]
    return spiral_trajectory(n, epsilon, big_r, k0, ks0, s_max, step)


def suite_surfaces(cfg: RunConfig) -> list[SuiteSurface]:
    out = []
    for family, eps in EPSILON_BY_FAMILY.items():
        traj = preset_trajectory(cfg.n, eps, cfg.step)
        out.append((family, build_family(family, traj, cfg.n), traj))
    out.append(("torus", torus_immersion(cfg.torus_r, cfg.n), None))
    return [SuiteSurface(*s, fields_from_immersion(s[1])) for s in out]


def _surface(surfaces: list[SuiteSurface], name: str) -> SuiteSurface:
    return next(s for s in surfaces if s.name == name)


# the chart distance a sample keeps from each end of every coordinate, by default
SAMPLE_PAD = 0.12


def sample_points(imm: ImmersionHandle, count: int, rng, pad: float = SAMPLE_PAD):
    """Seeded jittered samples spread along the first chart coordinate, each coordinate
    kept pad inside the chart; a chart narrower than twice the pad raises InputError."""
    for a, (lo, hi) in enumerate(imm.domain):
        if lo + pad > hi - pad:
            raise InputError(
                f"coordinate {a} of the {imm.name or 'immersion'} chart, [{lo:.6g}, {hi:.6g}], "
                f"is narrower than twice the sample pad {pad}"
            )
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
        pts[:, a] += rng.uniform(-SAMPLE_JITTER, SAMPLE_JITTER, size=count) * width
        pts[:, a] = np.clip(pts[:, a], lo + pad, hi - pad)
    return pts


def warped_scalar_reference(n, eps, kappa, kappa_s, kappa_ss):
    """Full-trace scalar of kappa^2 (ds^2 + I_{-eps}), closed form."""
    w1 = kappa_s / kappa
    w2 = kappa_ss / kappa - w1**2
    return (n - 1) / kappa**2 * (-(n - 2) * eps - 2.0 * w2 - (n - 2) * w1**2)


def warped_base_point(n, eps, s0):
    p = np.full(n, 0.5 * np.pi if eps == -1 else (1.0 if eps == 1 else 0.0))
    p[0] = s0
    return p


def _warped_jet(traj: SpiralTrajectory, n: int, svals) -> Jet:
    """The exact 2-jet of the warped metric over traj at the profile parameters svals."""
    pts = np.array([warped_base_point(n, traj.params.epsilon, s0) for s0 in svals])
    return warped_metric_jet(traj, pts, 2)


def codazzi_control_jet(pts: np.ndarray, order: int) -> Jet:
    """The jet at the points (K, n) of a metric that is not conformally flat:
    the identity with 1 + 0.4 sin x_0 sin x_1 in its first entry."""
    k, n = pts.shape
    term = Jet.constant(np.full(k, 0.4), order)
    for a in (0, 1):
        x = pts[:, a]
        coordinate = Jet(([x, np.tile(np.eye(n)[a], (k, 1))] + [None] * order)[: order + 1])
        cycle = (np.sin(x), np.cos(x), -np.sin(x), -np.cos(x))
        term = contract(",->", term, compose(coordinate, [cycle[j % 4] for j in range(order + 1)]))
    corner = np.zeros((n, n))
    corner[0, 0] = 1.0
    return term.linear(lambda t: t[..., None, None] * corner) + np.eye(n)


def _spread(values) -> float:
    return float(np.max(values) - np.min(values))


def _mean_by_convention(full_values, n: int) -> dict[str, float]:
    """The mean of full-trace scalars, converted to each normalization, by name."""
    return {
        name: float(np.mean([convert_scalar(v, Convention.FULL_TRACE, conv, n) for v in full_values]))
        for name, conv in CONVENTION_BY_NAME.items()
    }


def _audit_row(identity: str, residual_by_convention: dict[str, float]) -> dict:
    """One convention-audit row: the identity and its residual per normalization."""
    return {
        "identity": identity,
        "best_convention": min(residual_by_convention, key=residual_by_convention.get),
        "residual_by_convention": residual_by_convention,
    }


# ---------------------------------------------------------------------------
# registration and the record builder


class Residuals:
    """What a check measured: its worst residual and its sample count.

    ``add`` folds residuals in the order given; ``require`` adds a pass
    condition beyond the tolerance, such as a negative control.  A NaN
    residual is the worst of all: it sticks, and the record fails.
    """

    def __init__(self):
        self.worst = 0.0
        self.samples = 0
        self.required = True

    def add(self, *values: float, samples: int = 1) -> None:
        """Fold in the residuals of ``samples`` samples; a sample may carry none."""
        for value in values:
            # a NaN is kept, where max() would drop it: max(0.0, nan) is 0.0
            if math.isnan(value) or value > self.worst:
                self.worst = value
        self.samples += samples

    def require(self, condition: bool) -> None:
        self.required = self.required and bool(condition)


@dataclass(frozen=True)
class Check:
    """One registered check; calling it on (cfg, surfaces, rng) gives its record."""

    name: str
    anchor: str
    tolerance: float
    body: Callable  # (cfg, surfaces, rng, Residuals) -> details
    kind: str = "assert"  # "assert" gates the exit code, "audit" reports data

    def __call__(self, cfg: RunConfig, surfaces, rng) -> CheckRecord:
        """Run the body and build the record; a crash becomes a failed record."""
        res = Residuals()
        try:
            details = self.body(cfg, surfaces, rng, res)
            # a NaN residual fails an audit too: nothing was measured
            passed = self.kind == "audit" or (res.worst < self.tolerance and res.required)
            measured = {
                "kind": self.kind,
                "samples": res.samples,
                "max_residual": float(res.worst),
                "tolerance": self.tolerance,
                "passed": passed and not math.isnan(res.worst),
                "details": details,
            }
        except MobiusFlatError as exc:
            measured = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # noqa: BLE001 - any crash is a failed check
            error = f"{type(exc).__name__}: {exc} | {traceback.format_exc(limit=2)}"
            measured = {"passed": False, "error": error}
        # a crash keeps the CheckRecord defaults, an assert that measured
        # nothing, so a crashed audit fails the run too
        return CheckRecord(name=self.name, anchor=self.anchor, **measured)


CHECK_FUNCTIONS: dict[str, Check] = {}


def register(name: str, anchor: str, tolerance: float, kind: str = "assert"):
    """Register the decorated body as the check ``name``; the decorated name is the Check."""

    def decorate(body) -> Check:
        CHECK_FUNCTIONS[name] = Check(name, anchor, tolerance, body, kind)
        return CHECK_FUNCTIONS[name]

    return decorate


# ---------------------------------------------------------------------------
# individual checks, registered in the suite's order


@register(
    "moebius_metric_match",
    "Moebius metric of cylinder/cone/rotational generators equals "
    "kappa(s)^2 (ds^2 + I_{-eps}) entrywise",
    1e-6,
)
def check_moebius_metric_match(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Computed Moebius metric equals kappa(s)^2 (ds^2 + I_{-eps}) entrywise."""
    per_family = {}
    for surf in surfaces:
        if surf.traj is None:
            continue
        pts = sample_points(surf.imm, cfg.samples, rng)
        computed = surf.fields.jets(pts, 0).moebius.value
        expected = warped_metric_jet(surf.traj, pts, 0).value
        scale = np.max(np.abs(expected), axis=(1, 2))
        resid = np.max(np.abs(computed - expected), axis=(1, 2)) / scale
        per_family[surf.name] = float(np.max(resid))
        res.add(per_family[surf.name], samples=pts.shape[0])
    return {"relative_residual_by_family": per_family}


@register(
    "trace_identities",
    "tr B = 0 and |B|^2 = (n-1)/n in the Moebius-metric orthonormal frame",
    1e-8,
)
def check_trace_identities(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """tr B = 0 and |B|^2 = (n-1)/n at every sample."""
    n = cfg.n
    for surf in surfaces:
        pts = sample_points(surf.imm, cfg.samples, rng)
        b = surf.fields.jets(pts, 0).B
        traces = np.abs(np.trace(b, axis1=1, axis2=2))
        norms = np.abs(np.sum(b * b, axis=(1, 2)) - (n - 1) / n)
        res.add(*traces.tolist(), *norms.tolist(), samples=pts.shape[0])
    return {}


@register(
    "moebius_form_structure",
    "Moebius 1-form: zero on the torus and circle cylinder; only the "
    "profile component survives on generic generators",
    1e-8,
)
def check_moebius_form_structure(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """C vanishes on the torus and circle cylinder; only C_1 survives otherwise."""
    details = {}

    torus = _surface(surfaces, "torus")
    pts = sample_points(torus.imm, 4, rng, pad=0.2)
    details["torus_max_C"] = float(np.max(np.abs(torus.fields.jets(pts).C)))
    res.add(details["torus_max_C"], samples=pts.shape[0])

    circle = cylinder_immersion(
        spiral_trajectory(cfg.n, 0, 0.0, 1.0, 0.0, 6.0, cfg.step), cfg.n
    )
    c_circ = moebius_form(circle.analytic_fields, circle.base_point)
    details["circle_cylinder_max_C"] = float(np.max(np.abs(c_circ)))
    res.add(details["circle_cylinder_max_C"])

    cyl = _surface(surfaces, "cylinder")
    pts = sample_points(cyl.imm, 4, rng)
    c = cyl.closed_form.jets(pts).C
    kap, ks = cyl.traj.kappa_at(pts[:, 0]), cyl.traj.kappa_s_at(pts[:, 0])
    tangential = float(np.max(np.abs(c[:, 1:])))
    c1_err = float(np.max(np.abs(c[:, 0] + ks / kap**2)))
    details["cylinder_max_C_alpha"] = tangential
    details["cylinder_C1_vs_minus_kappa_s_over_kappa_sq"] = c1_err
    res.add(tangential, samples=len(pts))
    res.require(c1_err < 1e-6)

    # independent cross-check: sum_j B_ij,j = -(n-1) C_i
    details["divergence_identity_residual"] = {
        surf.name: float(surf.closed_form.jets(surf.imm.base_point[None]).divergence_residuals[0])
        for surf in surfaces
        if surf.name in ("cylinder", "rotational")
    }
    return details


@register(
    "commutator_closure",
    "closed Moebius form equivalence: commutator of B and A vanishes",
    1e-8,
)
def check_commutator_closure(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """B A - A B = 0: B and A are simultaneously diagonalizable."""
    pipeline_max = 0.0
    for surf in surfaces:
        pts = sample_points(surf.imm, 3, rng)
        records = surf.closed_form.jets(pts).records(pts)
        res.add(*(d.commutator_norm() for d in records), samples=pts.shape[0])
        d = moebius_data(surf.fields, pts[0])
        pipeline_max = max(pipeline_max, d.commutator_norm())
    return {"pipeline_route_max": pipeline_max}


@register(
    "principal_multiplicity",
    "conformal flatness criterion: at least n-1 equal principal "
    "curvatures; torus has exactly two with gap 1/(r sqrt(1-r^2))",
    1e-8,
)
def check_principal_multiplicity(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """At least n-1 principal curvatures coincide on every generated surface."""
    torus_gap = None
    for surf in surfaces:
        pts = sample_points(surf.imm, cfg.samples, rng)
        lam = np.sort(surf.fields.jets(pts, 0).spectra[0])
        spread = np.minimum(lam[:, -2] - lam[:, 0], lam[:, -1] - lam[:, 1])
        res.add(*spread.tolist(), samples=len(pts))
        if surf.name == "torus":
            torus_gap = float(np.min(np.maximum(lam[:, -1] - lam[:, -2], lam[:, 1] - lam[:, 0])))
    r = cfg.torus_r
    expected_gap = 1.0 / (r * np.sqrt(1 - r * r))
    res.require(torus_gap is not None and abs(torus_gap - expected_gap) < 1e-6)
    return {"torus_gap": torus_gap, "torus_gap_expected": expected_gap}


@register(
    "schouten_codazzi",
    "Schouten tensor S = Ric - R/(2(n-1)) Id is a Codazzi tensor for "
    "conformally flat metrics",
    1e-4,
)
def check_schouten_codazzi(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Schouten tensor of the induced metrics is Codazzi; a generic metric is not.

    Also audits which scalar normalization in S = Ric - R/(2(n-1)) Id keeps
    the property on a metric with non-constant scalar curvature.
    """
    per_surface = {}
    for surf in surfaces:
        if surf.name == "torus":
            continue
        pts = sample_points(surf.imm, 3, rng, pad=0.2)
        vals = schouten_codazzi_defects(surf.closed_form.first_form(pts, 3))[0]
        per_surface[surf.name] = float(np.max(vals))
        res.add(per_surface[surf.name], samples=len(vals))

    control_jet = codazzi_control_jet(np.full((1, cfg.n), 0.4), 3)
    control = float(schouten_codazzi_defects(control_jet)[0, 0])
    res.add(samples=1)
    res.require(control > 10 * check_schouten_codazzi.tolerance)

    # convention audit on a metric whose scalar curvature varies
    rot = _surface(surfaces, "rotational")
    p_aud = sample_points(rot.imm, 1, rng, pad=0.2)[:1]
    conventions = list(CONVENTION_BY_NAME.values())
    defects = schouten_codazzi_defects(rot.closed_form.first_form(p_aud, 3), conventions)
    audit = {name: float(d[0]) for name, d in zip(CONVENTION_BY_NAME, defects)}
    row = _audit_row(
        "Codazzi defect of S = Ric - R/(2(n-1)) Id on a metric with varying scalar curvature",
        audit,
    )
    return {
        "defect_by_surface": per_surface,
        "non_conformally_flat_control": float(control),
        "convention_audit_defects": audit,
        "best_convention": row["best_convention"],
        "audit_rows": [row],
    }


@register(
    "two_route_scalar",
    "scalar curvature of the Moebius metric: direct metric-field route "
    "vs conformal-change route",
    1e-5,
)
def check_two_route_scalar(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Direct curvature of rho^2 I agrees with the conformal-change route."""
    for surf in surfaces:
        pts = sample_points(surf.imm, max(3, cfg.samples // 4), rng)
        request = surf.fields.jets(pts)
        res.add(*np.abs(request.direct_scalar - request.conformal_scalar), samples=len(pts))
    return {}


@register(
    "scalar_constancy",
    "constant Moebius scalar curvature along spiral-generated "
    "hypersurfaces; non-spiral control varies",
    1e-5,
)
def check_scalar_constancy(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Moebius scalar curvature is constant along spiral-generated surfaces.

    Negative control: a rotational surface over kappa = 1.15 + 0.3 sin s (not a
    spiral solution) must exceed ten times the tolerance.
    """
    spreads = {}
    for surf in surfaces:
        if surf.traj is None:
            continue
        # a spread needs two points
        pts = sample_points(surf.imm, max(2, cfg.samples), rng)
        spreads[surf.name] = _spread(surf.fields.jets(pts).direct_scalar)
        res.add(spreads[surf.name], samples=len(pts))

    control_traj = sine_curvature_trajectory(
        cfg.n, -1, 1.15, 0.3, IntegratorControls(s_max=4.5, step=cfg.step)
    )
    control_imm = rotational_immersion(control_traj, cfg.n)
    control_fields = fields_from_immersion(control_imm)
    control_pts = sample_points(control_imm, max(6, cfg.samples // 3), rng)
    control_spread = _spread(control_fields.jets(control_pts).direct_scalar)
    res.add(samples=len(control_pts))
    res.require(control_spread > 10 * check_scalar_constancy.tolerance)
    return {"spread_by_family": spreads, "negative_control_spread": control_spread}


@register(
    "warped_metric_scalar",
    "kappa^2 (ds^2 + I_{-eps}) has constant scalar curvature exactly "
    "along spirals of the standard coefficient convention; affine "
    "relation computed-vs-prescribed R audited per normalization",
    1e-5,
)
def check_warped_metric_scalar(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Constancy and normalization audit for kappa^2 (ds^2 + I_{-eps}).

    Asserts: along spirals the numerically computed scalar curvature is
    constant.  Audits: the affine relation between the computed constant and
    the prescribed R under each normalization (the full-trace slope is
    2(n-1)).  The non-solution control of scalar_constancy shows that a
    profile off the spiral equation does not keep the scalar constant.
    """
    n = cfg.n
    fits = {}
    spreads = {}
    # audit rows: under which normalization does the computed scalar equal
    # the prescribed R itself (unit slope)?  None exactly: the relation is
    # affine with slope 2(n-1) in the full trace, and the rows record how
    # far each normalization sits from slope one.
    audit_rows = []
    for eps in (0, 1, -1):
        computed = {name: [] for name in CONVENTION_BY_NAME}
        for big_r in WARPED_AUDIT_R[eps]:
            _, k0, ks0, s_max = FAMILY_PRESETS[eps]
            kstar = equilibrium_kappa(SpiralParams(n, eps, big_r))
            if kstar is not None:
                # start near the equilibrium so unstable families survive
                k0, ks0 = 1.05 * kstar, 0.0
            traj = spiral_trajectory(n, eps, big_r, k0, ks0, s_max, cfg.step, curve=False)
            lo, hi = float(traj.s[0]) + 0.2, float(traj.s[-1]) - 0.2
            # one request per trajectory: the curvature's transients grow with
            # the point count, and K points give the bits of K one-point requests
            svals = np.linspace(lo, hi, max(20, cfg.samples))
            vals = curvature_batch(*_warped_jet(traj, n, svals).levels).scalar
            spreads[f"eps={eps},R={big_r}"] = _spread(vals)
            res.add(spreads[f"eps={eps},R={big_r}"], samples=vals.size)
            # the conversion is exact (dimension n, the base point's size)
            for name, mean in _mean_by_convention(vals[:3], n).items():
                computed[name].append(mean)
        a = np.vstack([np.asarray(WARPED_AUDIT_R[eps]), np.ones(len(WARPED_AUDIT_R[eps]))]).T
        off_unit = {}
        for name in CONVENTION_BY_NAME:
            y = np.asarray(computed[name])
            (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
            fit = {
                "slope": float(slope),
                "intercept": float(intercept),
                "residual": float(np.max(np.abs(a @ np.array([slope, intercept]) - y))),
            }
            fits[f"eps={eps},{name}"] = fit
            off_unit[name] = abs(fit["slope"] - 1.0) + abs(fit["intercept"])
        audit_rows.append(
            _audit_row(f"warped-metric scalar equals prescribed R (eps = {eps})", off_unit)
        )

    return {
        "constancy_spread": spreads,
        "affine_fits": fits,
        "expected_full_trace_slope": 2.0 * (n - 1),
        "audit_rows": audit_rows,
    }


@register(
    "torus_scalar_audit",
    "compact case: claimed value (n-1)(n-2) r^2 for the torus versus "
    "the computed Moebius scalar under each normalization and factor "
    "labeling",
    1e-5,
    kind="audit",
)
def check_torus_scalar_audit(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Convention x candidate table for the torus Moebius scalar curvature.

    Candidates per radius r: (n-1)(n-2) r^2 and (n-1)(n-2)(1-r^2), each also
    in half and normalized variants.  The table reports every residual; at
    least one pair is expected to match, and the report states which.  The
    audit's residual is the worst over radii of the best match.
    """
    n = cfg.n
    base = (n - 1) * (n - 2)
    table = []
    match_sets = []
    audit_rows = []
    for r in TORUS_AUDIT_RADII:
        imm = torus_immersion(r, n)
        fields = fields_from_immersion(imm)
        pts = sample_points(imm, 3, rng)
        per_conv = _mean_by_convention(fields.jets(pts).direct_scalar, n)
        candidates = {
            "r^2": base * r**2,
            "1-r^2": base * (1 - r**2),
            "r^2/2": base * r**2 / 2,
            "(1-r^2)/2": base * (1 - r**2) / 2,
            "r^2/(n(n-1))": base * r**2 / (n * (n - 1)),
            "(1-r^2)/(n(n-1))": base * (1 - r**2) / (n * (n - 1)),
        }
        rows = []
        for conv_name, value in per_conv.items():
            for cand_name, cand in candidates.items():
                resid = abs(value - cand)
                rows.append(
                    {
                        "r": r,
                        "convention": conv_name,
                        "candidate": cand_name,
                        "candidate_value": cand,
                        "computed": value,
                        "residual": resid,
                        "match": bool(resid < 1e-5 * max(1.0, abs(cand))),
                    }
                )
        table.extend(rows)
        matches = [row for row in rows if row["match"]]
        match_sets.append({(m["convention"], m["candidate"]) for m in matches})
        best = [min(m["residual"] for m in matches)] if matches else []
        res.add(*best, samples=len(pts))
        closed_forms = (candidates["r^2"], candidates["1-r^2"])
        audit_rows.append(
            _audit_row(
                f"torus scalar equals (n-1)(n-2) r^2 or (n-1)(n-2)(1-r^2), r = {r:.6f}",
                {c: float(min(abs(v - cand) for cand in closed_forms)) for c, v in per_conv.items()},
            )
        )
    return {
        "table": table,
        "every_radius_has_match": all(match_sets),
        "pairs_matching_every_radius": [list(p) for p in sorted(set.intersection(*match_sets))],
        "audit_rows": audit_rows,
    }


@register(
    "blaschke_trace_audit",
    "Blaschke tensor trace identity tr A = 1/(2n) + R/(2(n-1)) under "
    "each scalar normalization",
    1e-6,
    kind="audit",
)
def check_blaschke_trace_audit(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Which normalization satisfies tr A = 1/(2n) + R/(2(n-1))?

    The Blaschke tensor trace is computed from closed-form surface fields;
    the scalar curvature of the Moebius metric is measured independently in
    the full trace and converted per convention.  Audit: the residual of
    the identity under each normalization, per surface.  The audit's
    residual is the worst over surfaces of the best normalization, so a
    surface that no normalization fits shows.
    """
    n = cfg.n
    audit_rows = []
    for surf in surfaces:
        pts = sample_points(surf.imm, 2, rng, pad=0.2)
        request = surf.closed_form.jets(pts)  # one request for A and the scalar
        resid = {name: 0.0 for name in CONVENTION_BY_NAME}
        for a_k, full in zip(request.A, request.direct_scalar):
            tr_a = float(np.trace(a_k))
            for name, r_c in _mean_by_convention([full], n).items():
                target = 1.0 / (2 * n) + r_c / (2 * (n - 1))
                resid[name] = max(resid[name], abs(tr_a - target))
        res.add(min(resid.values()), samples=len(pts))
        audit_rows.append(_audit_row(f"tr A = 1/(2n) + R/(2(n-1)) on the {surf.name}", resid))
    return {"audit_rows": audit_rows}


@register(
    "sigma_invariance",
    "conformal lift to the sphere preserves the Moebius metric and "
    "second fundamental form: eigenvalues of B and the scalar agree",
    1e-5,
)
def check_sigma_invariance(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """B eigenvalues and Moebius scalar agree between f and its sphere lift."""
    for surf in surfaces:
        if surf.name not in ("cylinder", "rotational"):
            continue
        lift_fields = fields_from_immersion(lift_to_sphere(surf.imm))
        pts = sample_points(surf.imm, 3, rng)
        plain, lift = (f.jets(pts) for f in (surf.fields, lift_fields))
        b0, b1, s0, s1 = plain.spectra[1], lift.spectra[1], plain.direct_scalar, lift.direct_scalar
        for gap, r in zip(np.max(np.abs(b0 - b1), axis=1), np.abs(s0 - s1)):
            res.add(float(gap), float(r))
    return {}


@register(
    "fd_convergence",
    "step halving reduces the finite-difference residual of the "
    "scalar curvature by at least 2x (order >= 2 empirically)",
    float("inf"),
)
def check_fd_convergence(cfg: RunConfig, surfaces, rng, res: Residuals) -> dict:
    """Halving the curvature step reduces the truncation residual >= 2x.

    The residual is the error at the finer step; the ratio is the pass
    condition.
    """
    n = cfg.n
    traj = _surface(surfaces, "rotational").traj
    s0 = 0.5 * (traj.s[0] + traj.s[-1])
    p = warped_base_point(n, -1, float(s0))
    k = float(traj.kappa_at(np.array([s0]))[0])
    ks = float(traj.kappa_s_at(np.array([s0]))[0])
    kss = float(kappa_accel(traj.params, k, ks))
    exact = warped_scalar_reference(n, -1, k, ks, kss)

    def field(q):
        return warped_metric_jet(traj, q, 0).value

    errs = [abs(metric_field_curvature(field, p, h).scalar - exact) for h in FD_CONVERGENCE_STEPS]
    ratio = errs[0] / max(errs[1], 1e-300)
    res.add(float(errs[1]), samples=2)
    res.require(ratio >= 2.0)
    return {"errors": errs, "ratio": float(ratio)}


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


def rigidity_initials(cfg: RunConfig, kstar: float) -> np.ndarray:
    """(grid_size**2, 2): the scan's perturbed (kappa, kappa_s) around the equilibrium kstar.

    It serves rigidity_scan, and the tests that march the scan's grid.
    """
    offsets = np.linspace(-cfg.grid_spread, cfg.grid_spread, cfg.grid_size)
    offsets[np.abs(offsets) < 1e-9] = cfg.grid_spread / 8.0
    ks_offsets = np.linspace(-0.8 * cfg.grid_spread, 0.8 * cfg.grid_spread, cfg.grid_size)
    return np.array([[kstar * (1.0 + dk), kstar * dks] for dk in offsets for dks in ks_offsets])


# the (kappa0, kappa_s0) of the flat-model control rows of rigidity_scan
FLAT_CONTROL_STARTS = ((1.0, 0.05), (1.0, 0.1))


def rigidity_scan(cfg: RunConfig) -> dict:
    """Closure experiment for half-plane spirals around the equilibrium.

    The equilibrium curvature gives a hyperbolic circle, which must close
    with period 2 pi / sqrt(kappa*^2 - 1); it is tested over 1.5 periods.  A
    rest point returns at every s, so the row is marched for one Taylor step
    and that step's period map carries it over the 1.5 periods (see
    integrate_grid).  A grid of perturbed initial states (relative kappa
    offsets up to grid_spread, kappa_s offsets up to 0.8 * grid_spread *
    kappa*) is tested for closure over the horizon.  The closed orbits of
    (kappa, kappa_s) around kappa* are those with first_integral E < 0
    (E = 0 runs through kappa = 0), so a grid with a row at E >= 0 is
    refused with a ConfigError before any march.  Each grid row is
    integrated for one kappa period only; its period map (period T and
    holonomy trace, reported per row) carries the closure test over the
    rest of the horizon.  The grid is one
    integrate_grid block and one closure_tests call, which march the rows in
    lockstep and refine their closures together (the equilibrium row alone
    goes through closure_test).  A small flat-model control with
    non-constant curvature is included, and it is not marched: on a flat
    row E = kappa_s^2 kappa^(n-4) is conserved, so kappa(s) is known
    exactly, and E > 0 makes kappa strictly monotone, which certifies the
    row open at every horizon at which kappa is still inside the band
    (flat_control_certified_open when every row is both).  Each flat row
    reports E, kappa_monotone, kappa_in_band (spiral.flat_kappa_in_band)
    and defect_bound, spiral.flat_closure_bound over the grid's controls: a
    lower bound on the closure defect that closure_tests would find on the
    marched row over the horizon.  A row is open when its bound is above
    TOL_OPEN.
    """
    n = cfg.n
    params = SpiralParams(n, -1, cfg.R)
    kstar = equilibrium_kappa(params)
    result = {
        "params": {"n": n, "epsilon": -1, "R": cfg.R},
        "equilibrium_kappa": kstar,
    }
    if kstar is None or kstar <= 1.0:
        result["status"] = "trivial"
        result["reason"] = "no equilibrium with kappa > 1 for this (epsilon, R)"
        return result

    initials = rigidity_initials(cfg, kstar)
    energies = first_integral(params, initials[:, 0], initials[:, 1])
    if np.any(energies >= 0.0):
        i = int(np.argmax(energies >= 0.0))
        (k0, ks0), energy = initials[i].tolist(), float(energies[i])
        raise ConfigError(
            f"grid_spread {cfg.grid_spread!r} puts rigidity grid row {i} "
            f"(kappa0 {k0!r}, kappa_s0 {ks0!r}) off the closed orbits around "
            f"kappa*: its first integral E = {energy!r} is not below 0"
        )

    period = 2.0 * np.pi / np.sqrt(kstar**2 - 1.0)
    eq_traj = integrate_grid(
        params,
        [[kstar, 0.0]],
        IntegratorControls(s_max=1.5 * period, step=cfg.step),
        period_map=True,
    )[0]
    eq = closure_test(eq_traj)
    result["equilibrium"] = {
        "expected_period": period,
        "status": eq.status,
        "period": eq.period,
        "defect": eq.defect,
    }

    controls = IntegratorControls(s_max=cfg.horizon, step=cfg.step, store_stride=10)
    trajectories = integrate_grid(params, initials, controls, period_map=True)
    grid_rows = []
    closures = 0
    results = closure_tests(trajectories)
    for (k0, ks0), traj, res in zip(initials, trajectories, results):
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

    flat_params = SpiralParams(n, 0, 0.0)
    flat_rows = []
    for k0, ks0 in FLAT_CONTROL_STARTS:
        # E = kappa_s^2 kappa^(n-4) is conserved here (eps = 0, R = 0):
        # E > 0 keeps kappa_s away from 0, so kappa is strictly
        # monotone and the profile cannot close
        energy = float(first_integral(flat_params, k0, ks0))
        bound = flat_closure_bound(flat_params, k0, ks0, controls)
        flat_rows.append(
            {
                "kappa_s0": ks0,
                "status": "open" if bound > TOL_OPEN else "inconclusive",
                "defect_bound": bound,
                "E": energy,
                "kappa_monotone": energy > 0.0,
                "kappa_in_band": flat_kappa_in_band(flat_params, k0, ks0, controls),
            }
        )
    result["flat_control"] = flat_rows
    result["flat_control_certified_open"] = all(
        r["kappa_monotone"] and r["kappa_in_band"] for r in flat_rows
    )

    result["status"] = (
        "pass"
        if eq.status == "closed"
        and abs((eq.period or 0.0) - period) < 1e-6
        and result["grid_all_open"]
        and all(r["status"] == "open" for r in flat_rows)
        else "fail"
    )
    return result
