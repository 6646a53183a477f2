import numpy as np
import pytest

from mobiusflat.jets import Jet
from mobiusflat.moebius import moebius_jets
from mobiusflat.spiral import (
    IntegratorControls,
    SpiralParams,
    SpiralState,
    integrate_spiral,
    reconstruct_curve,
)
from mobiusflat.zoo import (
    cone_immersion,
    cylinder_immersion,
    rotational_immersion,
    torus_immersion,
)

import zoo_oracle
from fd_oracle import fd_handle

N_DIM = 4
# the classical optimum eps**(1/6) of the order-4 second difference
FD_STEP = np.finfo(float).eps ** (1 / 6)
TORUS_R = 0.5  # the radius of the torus fixture


def make_trajectory(epsilon, big_r, kappa0, kappa_s0, s_max):
    params = SpiralParams(N_DIM, epsilon, big_r)
    traj = integrate_spiral(
        params, SpiralState(kappa0, kappa_s0), IntegratorControls(s_max=s_max, step=1e-3)
    )
    return reconstruct_curve(traj)


@pytest.fixture(scope="session")
def cylinder_traj():
    # flat model, linearly varying curvature (R = 0 spiral)
    return make_trajectory(0, 0.0, 1.2, 0.08, 5.0)


@pytest.fixture(scope="session")
def cone_traj():
    # unstable family: keep the arc short so kappa stays tame
    return make_trajectory(1, -1.0, 1.02, 0.0, 2.0)


@pytest.fixture(scope="session")
def rotational_traj():
    # kappa oscillates in [1.05, 1.26]: the profile curve stays circle-like
    # and y remains in a moderate band, keeping differencing well conditioned
    return make_trajectory(-1, 0.75, 1.25, 0.05, 4.5)


@pytest.fixture(scope="session")
def cylinder(cylinder_traj):
    return cylinder_immersion(cylinder_traj, N_DIM)


@pytest.fixture(scope="session")
def cone(cone_traj):
    return cone_immersion(cone_traj, N_DIM)


@pytest.fixture(scope="session")
def rotational(rotational_traj):
    return rotational_immersion(rotational_traj, N_DIM)


@pytest.fixture(scope="session")
def torus():
    return torus_immersion(TORUS_R, N_DIM)


def surface_map(name, request):
    """The bare map of the fixture surface name (cylinder, cone, rotational or torus):
    its formula in ``zoo_oracle``, over the fixture's trajectory."""
    if name == "torus":
        return zoo_oracle.torus(TORUS_R)
    return getattr(zoo_oracle, name)(request.getfixturevalue(f"{name}_traj"))


def fd_surface(name, request):
    """The fixture surface name on the FD route: its exact jet replaced by the FD jet
    of its ``zoo_oracle`` map, with step FD_STEP."""
    return fd_handle(surface_map(name, request), FD_STEP, like=request.getfixturevalue(name))


def interior_points(imm, count, seed=0, pad=0.1):
    """Jittered points spread along the first coordinate, inside the domain.

    pad keeps nested difference stencils (outer curvature step plus inner
    immersion step) away from the chart boundary.
    """
    rng = np.random.default_rng(seed)
    lo0, hi0 = imm.domain[0]
    pts = np.tile(imm.base_point, (count, 1))
    pts[:, 0] = np.linspace(lo0 + pad, hi0 - pad, count)
    for a in range(1, imm.chart_dimension):
        lo, hi = imm.domain[a]
        width = min(hi - lo, 1.0)
        pts[:, a] += rng.uniform(-0.1, 0.1, size=count) * width
        pts[:, a] = np.clip(pts[:, a], lo + pad, hi - pad)
    return pts


def forms_request(g, h, rho, mean):
    """The order-0 request of the forms I and h (K, m, m) with rho and H (K,), in a
    flat ambient."""
    return moebius_jets(*(Jet([np.asarray(x, dtype=float)]) for x in (g, h, rho, mean)), 0.0)


def principal_curvatures(first, second):
    """The principal curvatures, descending, of one point's forms (m, m) or of a stack
    (K, m, m): the first spectrum of the forms' request.  It reads neither rho nor H,
    for which 1 and 0 stand in, so umbilic forms are taken too."""
    g, h = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    if g.ndim == 2:
        return principal_curvatures(g[None], h[None])[0]
    return forms_request(g, h, np.ones(len(g)), np.zeros(len(g))).spectra[0]


def moebius_B(first, second, rho, mean):
    """B of one point's forms (m, m), with rho and H floats, or of a stack (K, m, m),
    with rho and H (K,): the B of the forms' request."""
    g, h, rho, mean = (np.asarray(x, dtype=float) for x in (first, second, rho, mean))
    if g.ndim == 2:
        return moebius_B(g[None], h[None], rho[None], mean[None])[0]
    return forms_request(g, h, rho, mean).B
