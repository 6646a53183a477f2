"""OBJ export of 2d coordinate slices of a hypersurface, for visualization.

A slice fixes all but two chart coordinates at the handle's base point,
sweeps a structured grid over the remaining two, evaluates the immersion,
and projects the ambient points to three chosen axes (by default the three
of largest variance over the slice).  A JSON descriptor records the slice
specification next to the OBJ file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import InputError
from .immersion import ImmersionHandle

# the chart distance a slice keeps from each end of a swept axis
SLICE_PAD = 0.1


def slice_grid(imm: ImmersionHandle, axes: tuple[int, int], res: int):
    if len(set(axes)) != 2 or any(a < 0 or a >= imm.chart_dimension for a in axes):
        raise InputError(f"slice axes {axes} invalid for chart dimension {imm.chart_dimension}")
    grids = []
    for a in axes:
        lo, hi = imm.domain[a]
        lo, hi = lo + SLICE_PAD, hi - SLICE_PAD
        if not lo < hi:
            raise InputError(f"chart axis {a} too narrow for a slice")
        grids.append(np.linspace(lo, hi, res))
    uu, vv = np.meshgrid(grids[0], grids[1], indexing="ij")
    pts = np.tile(imm.base_point, (res * res, 1))
    pts[:, axes[0]] = uu.ravel()
    pts[:, axes[1]] = vv.ravel()
    return pts


def export_obj_slice(
    imm: ImmersionHandle,
    out_dir: str,
    axes: tuple[int, int] = (0, 1),
    res: int = 24,
    ambient_axes: tuple[int, int, int] | str = "auto",
    stem: str | None = None,
) -> dict:
    """Write <stem>.obj and <stem>.json into out_dir; returns the descriptor."""
    pts = slice_grid(imm, axes, res)
    vals = imm(pts)
    if ambient_axes == "auto":
        variance = np.var(vals, axis=0)
        ambient_axes = tuple(int(i) for i in np.argsort(variance)[::-1][:3])
    else:
        ambient_axes = tuple(int(a) for a in ambient_axes)
        if len(set(ambient_axes)) != 3 or any(
            a < 0 or a >= imm.ambient_dimension for a in ambient_axes
        ):
            raise InputError(f"ambient projection axes {ambient_axes} invalid")
    proj = vals[:, list(ambient_axes)]

    stem = stem or (imm.name or "surface")
    obj_path = os.path.join(out_dir, f"{stem}.obj")
    lines = [f"# {stem}: chart slice axes {axes}, {res}x{res} grid"]
    for v in proj:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for i in range(res - 1):
        for j in range(res - 1):
            a = i * res + j + 1  # OBJ indices are 1-based
            b = a + 1
            c = a + res
            d = c + 1
            lines.append(f"f {a} {b} {d} {c}")
    with open(obj_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    descriptor = {
        "surface": imm.name or "surface",
        "chart_dimension": imm.chart_dimension,
        "ambient_dimension": imm.ambient_dimension,
        "slice_axes": list(axes),
        "fixed_coordinates": {
            str(a): float(imm.base_point[a])
            for a in range(imm.chart_dimension)
            if a not in axes
        },
        "resolution": res,
        "ambient_projection_axes": list(ambient_axes),
        "vertices": int(proj.shape[0]),
        "faces": (res - 1) ** 2,
        "obj_file": os.path.basename(obj_path),
    }
    json_path = os.path.join(out_dir, f"{stem}.json")
    with open(json_path, "w") as fh:
        json.dump(descriptor, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return descriptor
