"""Span tracer for the per-layer metrics.

The wrappers are installed from this file at run time; nothing under
``src/`` is edited or import-patched.  Modules import each other by name
(``from .fd import diff1_batch``), so each function is replaced in every
``mobiusflat`` namespace that holds it, methods are replaced on their class,
and the check and command tables are patched in place.

Every wrapped call records one span ``(name, start, end, parent, points)``
in memory.  ``summarize`` turns the spans of one traced iteration into the
per-layer metrics: a layer's ``self_s`` is its spans' time minus the time
covered by their direct child spans, so the self times of all spans plus the
time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = (
    "spiral", "zoo", "immersion", "fd", "curvature", "moebius",
    "linalg", "checks", "report", "config", "meshes", "cli",
)


def _leading(args, result):
    return int(result.shape[0])


def _samples(args, result):
    return int(result.s.size)


def _rows(args, result):
    return len(result)


def _query_points(args, result):
    return int(args[1].size) if hasattr(args[1], "size") else 1


# (layer, module, function names, points-or-None)
FUNCTIONS = (
    ("spiral.integrate_grid", "spiral", ("integrate_grid",), _rows),
    ("spiral.closure_test", "spiral", ("closure_test",), None),
    ("spiral.integrate_spiral", "spiral", ("integrate_spiral",), _samples),
    ("spiral.reconstruct_curve", "spiral", ("reconstruct_curve",), _samples),
    (
        "zoo.generator",
        "zoo",
        (
            "cylinder_immersion",
            "cone_immersion",
            "rotational_immersion",
            "torus_immersion",
            "lift_to_sphere",
        ),
        None,
    ),
    (
        "immersion.forms",
        "immersion",
        ("first_fundamental_form_batch", "second_fundamental_form_batch", "unit_normal_batch"),
        _leading,
    ),
    # diff1/diff2 are single-point front ends of the batch functions, so every
    # stencil batch is counted exactly once here
    ("fd.diff", "fd", ("diff1_batch", "diff2_batch"), _leading),
    ("curvature.metric_field_curvature", "curvature", ("metric_field_curvature",), None),
    ("curvature.conformal_scalar", "curvature", ("conformal_scalar",), None),
    ("curvature.codazzi_defect", "curvature", ("codazzi_defect",), None),
    ("moebius.fields_from_immersion", "moebius", ("fields_from_immersion",), None),
    ("moebius.moebius_data", "moebius", ("moebius_data",), None),
    ("moebius.moebius_scalar", "moebius", ("moebius_scalar",), None),
    ("moebius.moebius_form", "moebius", ("moebius_form",), None),
    ("moebius.blaschke_A", "moebius", ("blaschke_A",), None),
    ("linalg.jacobi_eigh", "linalg", ("jacobi_eigh",), None),
    ("linalg.gram_schmidt_frame", "linalg", ("gram_schmidt_frame",), None),
    ("checks.suite_surfaces", "checks", ("suite_surfaces",), None),
    ("checks.rigidity_scan", "checks", ("rigidity_scan",), None),
)

# (layer, module, class, method names, points-or-None)
METHODS = (
    (
        "spiral.query",
        "spiral",
        "SpiralTrajectory",
        ("curve_at", "kappa_at", "kappa_s_at", "curve_velocity_at"),
        _query_points,
    ),
    ("immersion.evaluate", "immersion", "ImmersionHandle", ("__call__",), _leading),
    ("report.write", "report", "VerificationReport", ("to_json", "to_markdown"), None),
)

# The metric names are the benchmark's contract, so the check and command
# lists are fixed here rather than read from the package.
CHECK_NAMES = (
    "moebius_metric_match",
    "trace_identities",
    "moebius_form_structure",
    "commutator_closure",
    "principal_multiplicity",
    "schouten_codazzi",
    "two_route_scalar",
    "scalar_constancy",
    "warped_metric_scalar",
    "torus_scalar_audit",
    "blaschke_trace_audit",
    "sigma_invariance",
    "fd_convergence",
)
COMMAND_NAMES = ("build", "invariants", "verify", "rigidity")

POINTS_LAYERS = ("spiral.query", "immersion.evaluate", "immersion.forms", "fd.diff")
CALLS_SELF_LAYERS = (
    "spiral.integrate_grid",
    "spiral.closure_test",
    "spiral.integrate_spiral",
    "spiral.reconstruct_curve",
    "spiral.query",
    "zoo.generator",
    "immersion.evaluate",
    "immersion.forms",
    "fd.diff",
    "curvature.metric_field_curvature",
    "curvature.conformal_scalar",
    "curvature.codazzi_defect",
    "moebius.fields_from_immersion",
    "moebius.moebius_data",
    "moebius.moebius_scalar",
    "moebius.moebius_form",
    "moebius.blaschke_A",
    "linalg.jacobi_eigh",
    "linalg.gram_schmidt_frame",
)
INCLUSIVE_LAYERS = (
    ("checks.suite_surfaces",)
    + tuple(f"checks.{c}" for c in CHECK_NAMES)
    + ("checks.rigidity_scan", "report.write")
    + tuple(f"cli.{c}" for c in COMMAND_NAMES)
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    out = {}
    for layer in CALLS_SELF_LAYERS:
        out[f"{layer}.calls"] = "count"
        if layer in POINTS_LAYERS:
            out[f"{layer}.points"] = "count"
        if layer == "spiral.integrate_grid":
            out[f"{layer}.rows"] = "count"
        out[f"{layer}.self_s"] = "s"
        if layer == "spiral.reconstruct_curve":
            out["spiral.samples_stored"] = "count"
    for layer in INCLUSIVE_LAYERS:
        out[f"{layer}.s"] = "s"
    out["trace.wall_s"] = "s"
    out["trace.untraced_wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    out["trace.span_self_s"] = "s"
    out["trace.outside_s"] = "s"
    out["trace.spans"] = "count"
    return out


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.layers: list[str] = []
        # one row per span: [layer index, start, end, parent index, points]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, points=None):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [lid, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if points is not None:
                row[4] = points(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function, method and table entry of the package."""
        mods = [importlib.import_module("mobiusflat")] + [
            importlib.import_module(f"mobiusflat.{m}") for m in MODULES
        ]
        for layer, owner, names, points in FUNCTIONS:
            module = importlib.import_module(f"mobiusflat.{owner}")
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(layer, original, points)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        for layer, owner, cls_name, names, points in METHODS:
            cls = getattr(importlib.import_module(f"mobiusflat.{owner}"), cls_name)
            for name in names:
                setattr(cls, name, self.wrap(layer, vars(cls)[name], points))
        checks = importlib.import_module("mobiusflat.checks")
        for name, fn in list(checks.CHECK_FUNCTIONS.items()):
            checks.CHECK_FUNCTIONS[name] = self.wrap(f"checks.{name}", fn)
        cli = importlib.import_module("mobiusflat.cli")
        for name, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[name] = self.wrap(f"cli.{name}", fn)

    def dump(self) -> dict:
        """The recorded spans in column form, for writing out at the end."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        return {
            "layers": self.layers,
            "layer": list(cols[0]),
            "start": list(cols[1]),
            "end": list(cols[2]),
            "parent": list(cols[3]),
            "points": list(cols[4]),
        }


def summarize(spans: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from its dumped spans."""
    layers = spans["layers"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    count = len(start)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    for i in range(count):
        layer = layers[spans["layer"][i]]
        calls[layer] = calls.get(layer, 0) + 1
        points[layer] = points.get(layer, 0) + spans["points"][i]
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        incl[layer] = incl.get(layer, 0.0) + dur[i]
    out: dict[str, float] = {}
    for name in metric_units():
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(layer, 0)
        elif kind in ("points", "rows"):
            out[name] = points.get(layer, 0)
        elif kind == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif kind == "s":
            out[name] = incl.get(layer, 0.0)
    out["spiral.samples_stored"] = points.get("spiral.integrate_spiral", 0) + points.get(
        "spiral.reconstruct_curve", 0
    )
    span_self = sum(self_s.values())
    roots = sum(dur[i] for i in range(count) if parent[i] < 0)
    out["trace.wall_s"] = wall_s
    out["trace.span_self_s"] = span_self
    out["trace.outside_s"] = wall_s - roots
    out["trace.spans"] = count
    return out
