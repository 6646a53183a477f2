#!/usr/bin/env python3
"""Export 2d slices of the hypersurface families as OBJ meshes.

Each slice fixes all but two chart coordinates, sweeps a structured grid,
and projects the ambient points to the three axes of largest variance.  The
JSON descriptor next to each OBJ records the slice specification.
"""

import tempfile

from mobiusflat.meshes import export_obj_slice
from mobiusflat.spiral import IntegratorControls, SpiralParams, integrate_grid
from mobiusflat.zoo import cylinder_immersion, rotational_immersion, torus_immersion

out = tempfile.mkdtemp(prefix="mobiusflat_meshes_")

plane = integrate_grid(SpiralParams(4, 0, -0.05), [[1.1, 0.1]], IntegratorControls(s_max=4.0))[0]
half = integrate_grid(SpiralParams(4, -1, 0.75), [[1.25, 0.05]], IntegratorControls(s_max=4.0))[0]

for imm, axes in (
    (cylinder_immersion(plane, 4), (0, 1)),
    (rotational_immersion(half, 4), (0, 3)),  # profile arc x azimuth
    (torus_immersion(0.5, 4), (0, 3)),
):
    desc = export_obj_slice(imm, out, axes=axes, res=32)
    print(
        f"{desc['surface']:10s}: {desc['vertices']} vertices, {desc['faces']} faces, "
        f"ambient axes {desc['ambient_projection_axes']} -> {desc['obj_file']}"
    )
print(f"\nmeshes written to {out}")
print("view them in any OBJ viewer; the descriptor JSONs document each slice")
