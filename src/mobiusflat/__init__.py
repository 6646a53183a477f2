"""Moebius geometry of conformally flat hypersurfaces, numerically.

Library layout:

* ``fd``, ``linalg``    -- finite-difference stencils, small-matrix eigensolvers
* ``jets``              -- truncated Taylor jets of tensor fields, batched over points
* ``immersion``         -- fundamental forms and normals of explicit immersions, and their jets
* ``curvature``         -- Riemann/Ricci/full-trace scalar of metric fields, Schouten, Codazzi
* ``moebius``           -- conformal density; the Moebius metric, B, A, C read from one request
* ``spiral``            -- prescribed-curvature curve ODE in the 2d model spaces
* ``taylor``            -- order-20 Taylor marcher behind every spiral trajectory
* ``zoo``               -- cylinder/cone/rotational/torus generators, stereographic lift
* ``meshes``            -- OBJ slice export
* ``checks``, ``report``-- verification harness with structured reports
* ``config``            -- flat key = value run configuration
* ``errors``            -- the MobiusFlatError hierarchy
* ``cli``               -- command-line front end (spiral/build/invariants/verify/rigidity)
"""

from .curvature import (
    Convention,
    CurvatureBundle,
    codazzi_defect,
    conformal_scalar,
    convert_scalar,
    metric_field_curvature,
    schouten_tensor,
)
from .errors import (
    ChartDomainError,
    ConfigError,
    DegenerateGeometryError,
    InputError,
    MobiusFlatError,
    UmbilicPointError,
)
from .immersion import ImmersionHandle
from .moebius import (
    MoebiusData,
    Request,
    SurfaceFields,
    blaschke_A,
    fields_from_immersion,
    moebius_data,
    moebius_form,
    moebius_scalar,
)
from .spiral import (
    ClosureResult,
    IntegratorControls,
    SpiralParams,
    SpiralState,
    SpiralTrajectory,
    closure_test,
    closure_tests,
    equilibrium_kappa,
    first_integral,
    integrate_grid,
    integrate_spiral,
    reconstruct_curve,
)
from .zoo import (
    cone_immersion,
    cylinder_immersion,
    lift_to_sphere,
    rotational_immersion,
    scale_immersion,
    torus_immersion,
)

__version__ = "0.1.0"
