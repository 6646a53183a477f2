"""Command line front end.

Subcommands:

* ``spiral``     integrate the curvature ODE, reconstruct the curve, export CSV
* ``build``      generate a hypersurface and export an OBJ slice + JSON descriptor
* ``invariants`` tabulate the Moebius invariants at sample points (CSV)
* ``verify``     run the verification suite (JSON + markdown report)
* ``rigidity``   closure experiment around the half-plane equilibrium

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or output error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .checks import CONVENTION_BY_NAME, SAMPLE_PAD, rigidity_scan, run_suite, sample_points
from .config import RunConfig, load_config
from .curvature import Convention, convert_scalar
from .errors import ConfigError, MobiusFlatError
from .meshes import SLICE_PAD, export_obj_slice
from .moebius import fields_from_immersion
from .spiral import IntegratorControls, SpiralParams, export_csv, integrate_grid
from .zoo import CHART_MARGIN, EPSILON_BY_FAMILY, build_family, torus_immersion


def _trajectory(cfg: RunConfig, epsilon: int):
    """The config's spiral in the model space of curvature epsilon, within its kappa band."""
    params = SpiralParams(cfg.n, epsilon, cfg.R)
    controls = IntegratorControls(
        s_max=cfg.s_max,
        step=cfg.step,
        kappa_floor=cfg.kappa_floor,
        kappa_ceiling=cfg.kappa_ceiling,
    )
    return integrate_grid(params, [[cfg.kappa0, cfg.kappa_s0]], controls)[0]


def _build_surface(cfg: RunConfig, pad: float):
    """The config's hypersurface, whose arc-length axis must keep pad inside its chart.

    A spiral family's chart is its spiral less CHART_MARGIN at each end; a
    spiral too short for that is a setting to change, so it is refused as a
    ConfigError before the surface is built.
    """
    if cfg.family == "torus":
        return torus_immersion(cfg.torus_r, cfg.n)
    traj = _trajectory(cfg, EPSILON_BY_FAMILY[cfg.family])
    lo, hi = float(traj.s[0]) + CHART_MARGIN, float(traj.s[-1]) - CHART_MARGIN
    if not lo + pad < hi - pad:
        raise ConfigError(
            f"s_max = {cfg.s_max:g} is too short for the {cfg.family} chart: its spiral ends "
            f"at s = {traj.s_end:.6g} ({traj.termination}), and the chart keeps "
            f"{CHART_MARGIN:g} + {pad:g} inside each end"
        )
    return build_family(cfg.family, traj, cfg.n)


def cmd_spiral(cfg: RunConfig, out: str) -> int:
    traj = _trajectory(cfg, cfg.epsilon)
    path = os.path.join(out, "trajectory.csv")
    export_csv(traj, path)
    print(
        f"spiral: {traj.s.size} samples to s = {traj.s_end:.6g} "
        f"({traj.termination}); first-integral drift {traj.first_integral_drift():.3e}"
    )
    print(f"wrote {path}")
    return 0


def cmd_build(cfg: RunConfig, out: str) -> int:
    axes = cfg.slice_axis_pair()
    imm = _build_surface(cfg, SLICE_PAD if 0 in axes else 0.0)
    desc = export_obj_slice(
        imm,
        out,
        axes=axes,
        res=cfg.slice_res,
        ambient_axes=cfg.obj_axis_triple(imm.ambient_dimension),
        stem=cfg.family,
    )
    print(f"build: {cfg.family} slice {desc['vertices']} vertices, {desc['faces']} faces")
    print(f"wrote {os.path.join(out, desc['obj_file'])} and descriptor")
    return 0


def cmd_invariants(cfg: RunConfig, out: str, convention: str) -> int:
    imm = _build_surface(cfg, SAMPLE_PAD)
    fields = fields_from_immersion(imm)
    rng = np.random.default_rng(cfg.seed)
    pts = sample_points(imm, cfg.samples, rng)
    conv = CONVENTION_BY_NAME[convention]
    n = cfg.n
    header = (
        [f"x{i}" for i in range(n)]
        + ["rho", "H"]
        + [f"lambda{i + 1}" for i in range(n)]
        + [f"B_eig{i + 1}" for i in range(n)]
        + [f"A_eig{i + 1}" for i in range(n)]
        + [f"C{i + 1}" for i in range(n)]
        + ["trace_B", "norm2_B_defect", "commutator", "scalar_direct", "scalar_conformal"]
    )
    rows = []
    request = fields.jets(pts)
    scalars = request.direct_scalar, request.conformal_scalar
    for p, d, direct, via in zip(pts, request.records(pts), *scalars):
        rows.append(
            list(p)
            + [d.rho, d.H]
            + list(d.principal_curvatures)
            + list(d.B_eigenvalues)
            + list(d.A_eigenvalues)
            + list(d.C)
            + [
                d.trace_B(),
                d.norm2_B() - (n - 1) / n,
                d.commutator_norm(),
                convert_scalar(direct, Convention.FULL_TRACE, conv, n),
                convert_scalar(via, Convention.FULL_TRACE, conv, n),
            ]
        )
    path = os.path.join(out, "invariants.csv")
    with open(path, "w") as fh:
        fh.write(f"# family={cfg.family} n={n} convention={convention} seed={cfg.seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"invariants: {len(rows)} samples ({convention} convention)")
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: RunConfig, out: str) -> int:
    report = run_suite(cfg)
    texts = {
        "report.json": report.to_json(),
        "report.md": report.to_markdown(),
        "checks.csv": report.to_checks_csv(),
        "residuals.csv": report.to_residuals_csv(),
    }
    paths = []
    for name, text in texts.items():
        paths.append(os.path.join(out, name))
        with open(paths[-1], "w") as fh:
            fh.write(text)
    for r in report.records:
        status = "ERROR" if r.error else ("pass" if r.passed else "FAIL")
        if r.kind == "audit" and not r.error:
            status = "audit"
        print(f"  [{status:5s}] {r.name}: residual {r.max_residual:.3e} (tol {r.tolerance:.3e})")
    ok = report.all_asserts_pass
    print(f"verify: {'PASS' if ok else 'FAIL'} ({len(report.records)} checks)")
    print(f"wrote {', '.join(paths)}")
    return 0 if ok else 1


def cmd_rigidity(cfg: RunConfig, out: str) -> int:
    result = rigidity_scan(cfg)
    path = os.path.join(out, "rigidity.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=False)
        fh.write("\n")
    if "grid" in result:
        csv_path = os.path.join(out, "rigidity_grid.csv")
        with open(csv_path, "w") as fh:
            fh.write(
                "kappa0,kappa_s0,status,min_defect,termination,kappa_period,holonomy_trace\n"
            )
            for row in result["grid"]:
                period, trace = (
                    "" if row[key] is None else repr(row[key])
                    for key in ("kappa_period", "holonomy_trace")
                )
                fh.write(
                    f"{row['kappa0']!r},{row['kappa_s0']!r},{row['status']},"
                    f"{row['min_defect']!r},{row['termination']},{period},{trace}\n"
                )
    eq = result.get("equilibrium", {})
    print(
        f"rigidity: status {result['status']}; equilibrium {eq.get('status')} "
        f"(defect {eq.get('defect', float('nan')):.3e}), "
        f"grid closures {result.get('grid_closures', 'n/a')}"
    )
    print(f"wrote {path}")
    return 0 if result["status"] in ("pass", "trivial") else 1


COMMANDS = {
    "spiral": cmd_spiral,
    "build": cmd_build,
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "rigidity": cmd_rigidity,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiusflat",
        description="Moebius invariants of conformally flat hypersurfaces: "
        "construction, invariants, and verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "invariants":
            p.add_argument(
                "--convention",
                choices=tuple(CONVENTION_BY_NAME),
                default="full",
                help="scalar-curvature normalization of the two scalar columns",
            )
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = int(args.seed)
            cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        options = (args.convention,) if args.command == "invariants" else ()
        return COMMANDS[args.command](cfg, args.out, *options)
    except ConfigError as exc:  # a setting only the built surface or the rigidity grid can check
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MobiusFlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the commands read no files, so an OSError is a failed output write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
