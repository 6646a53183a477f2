"""Flat key = value run configuration.

One setting per line, ``#`` starts a comment, keys match RunConfig fields
exactly, unknown keys are rejected.  Example::

    n = 4
    epsilon = -1
    R = 0.75
    family = rotational
    seed = 7
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite

from .checks import CHECK_FUNCTIONS
from .errors import ConfigError
from .report import config_hash
from .zoo import FAMILIES


@dataclass
class RunConfig:
    # spiral parameters and initial state
    n: int = 4
    epsilon: int = -1
    R: float = 0.75
    kappa0: float = 1.25
    kappa_s0: float = 0.05
    # integrator controls
    s_max: float = 4.5
    step: float = 1e-3
    kappa_floor: float = 1e-6
    kappa_ceiling: float = 1e6
    # sampling
    samples: int = 20
    seed: int = 0
    # hypersurface selection (build / invariants)
    family: str = "rotational"
    torus_r: float = 0.5
    # verification scope
    checks: str = "all"
    # rigidity experiment
    horizon: float = 200.0
    grid_size: int = 5
    grid_spread: float = 0.2
    # mesh export
    slice_axes: str = "0,1"
    slice_res: int = 24
    obj_axes: str = "auto"

    def slice_axis_pair(self) -> tuple[int, ...]:
        """slice_axes as two distinct chart axes in [0, n)."""
        axes = _int_tuple("slice_axes", self.slice_axes)
        if len(axes) != 2 or axes[0] == axes[1] or not all(0 <= a < self.n for a in axes):
            raise ConfigError(f"slice_axes must be two distinct integers in [0, {self.n})")
        return axes

    def obj_axis_triple(self, ambient_dimension: int | None = None) -> tuple[int, ...] | str:
        """obj_axes as "auto" or three distinct ambient axes.

        The ambient dimension depends on the family's surface, so the axes
        are checked against it only where the caller gives it.
        """
        if self.obj_axes.strip() == "auto":
            return "auto"
        axes = _int_tuple("obj_axes", self.obj_axes)
        if len(axes) != 3:
            raise ConfigError("obj_axes must be 'auto' or three comma-separated integers")
        if len(set(axes)) != 3:
            raise ConfigError("obj_axes must be three distinct integers")
        if ambient_dimension is not None and not all(0 <= a < ambient_dimension for a in axes):
            raise ConfigError(
                f"obj_axes must lie in [0, {ambient_dimension}), the ambient axes of "
                f"family {self.family} at n = {self.n}"
            )
        return axes

    def check_list(self) -> list[str]:
        if self.checks.strip() == "all":
            return list(CHECK_FUNCTIONS)
        if not self.checks.strip():
            return []
        return [c.strip() for c in self.checks.split(",") if c.strip()]

    def canonical_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)!r}" for f in fields(self)]
        return "\n".join(sorted(lines)) + "\n"

    def hash(self) -> str:
        return config_hash(self.canonical_text())

    def validate(self) -> "RunConfig":
        for f in fields(self):
            if f.type == "float" and not isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.n < 4:
            raise ConfigError(
                "n must be >= 4: the classification holds for n >= 4, and at n = 3 "
                "equal principal curvatures no longer characterize conformal flatness"
            )
        if self.n > 7:
            raise ConfigError(
                "n must be <= 7: the suite's spiral presets are fixed, and from n = 8 the "
                "cone's spiral ends too early for its samples to fit in its chart"
            )
        if self.epsilon not in (-1, 0, 1):
            raise ConfigError("epsilon must be one of -1, 0, 1")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}")
        if not 0.0 < self.torus_r < 1.0:
            raise ConfigError("torus_r must lie in (0, 1)")
        for name in (
            "s_max",
            "step",
            "kappa_floor",
            "kappa_ceiling",
            "horizon",
            "grid_spread",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.grid_spread >= 1:
            raise ConfigError(
                "grid_spread must be below 1: the rigidity grid's lowest kappa0, "
                "kappa* (1 - grid_spread), must stay positive"
            )
        if self.kappa_floor >= self.kappa_ceiling:
            raise ConfigError("kappa_floor must be below kappa_ceiling")
        if not self.kappa_floor < self.kappa0 < self.kappa_ceiling:
            raise ConfigError("kappa0 must lie strictly between kappa_floor and kappa_ceiling")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key, least in (("samples", 1), ("grid_size", 1), ("slice_res", 2)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")
        names = self.check_list()
        for c in names:
            if c not in CHECK_FUNCTIONS:
                raise ConfigError(f"unknown check {c!r}")
            if names.count(c) > 1:
                raise ConfigError(f"check {c!r} is named twice")
        self.slice_axis_pair()
        self.obj_axis_triple()
        return self


def _int_tuple(key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(a) for a in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key} must be comma-separated integers, got {raw!r}") from exc


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ}") from exc


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    return RunConfig(**values).validate()


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig().validate()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
