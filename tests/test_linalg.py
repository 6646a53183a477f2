import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflat.errors import DegenerateGeometryError, InputError

import curvature_oracle
from conftest import interior_points
from mobiusflat.linalg import (
    generalized_eigvals_descending,
    gram_schmidt_frame,
    gram_schmidt_frames,
    jacobi_eigh,
    require_symmetric,
    sym_inv_sqrt,
)
from mobiusflat.moebius import fields_from_immersion, moebius_data_batch


def random_symmetric(rng, m):
    a = rng.standard_normal((m, m))
    return 0.5 * (a + a.T)


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 5, 8):
        a = random_symmetric(rng, m)
        w, v = jacobi_eigh(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-12)
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(m), atol=1e-12)


def test_jacobi_residual_tolerance():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 6)
    w, v = jacobi_eigh(a)
    resid = np.max(np.abs(a @ v - v * w))
    assert resid < 1e-12


def test_jacobi_rejects_asymmetric():
    with pytest.raises(InputError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_generalized_eigvals_against_numpy(m, seed):
    rng = np.random.default_rng(seed)
    b = random_symmetric(rng, m)
    q = rng.standard_normal((m, m))
    a = q @ q.T + m * np.eye(m)
    lam = generalized_eigvals_descending(b, a)
    ref = np.sort(np.linalg.eigvals(np.linalg.solve(a, b)).real)[::-1]
    assert np.allclose(lam, ref, atol=1e-9)


def test_sym_inv_sqrt():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 4))
    a = q @ q.T + 4 * np.eye(4)
    r = sym_inv_sqrt(a)
    assert np.allclose(r @ a @ r, np.eye(4), atol=1e-12)
    with pytest.raises(DegenerateGeometryError):
        sym_inv_sqrt(np.diag([1.0, 0.0]))


def test_gram_schmidt_frame_orthonormalizes():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((5, 5))
    g = q @ q.T + 5 * np.eye(5)
    e = gram_schmidt_frame(g)
    assert np.allclose(e.T @ g @ e, np.eye(5), atol=1e-12)
    # deterministic: first column is along the first coordinate axis
    assert e[1, 0] == 0.0 and e[0, 0] == pytest.approx(1.0 / np.sqrt(g[0, 0]))


def test_require_symmetric_symmetrizes():
    a = np.array([[1.0, 2.0 + 1e-13], [2.0, 3.0]])
    s = require_symmetric(a)
    assert np.all(s == s.T)


def test_gram_schmidt_frames_match_per_metric_loop():
    # the batch runs the per-metric loop's arithmetic on every metric at once
    rng = np.random.default_rng(6)
    q = rng.standard_normal((7, 4, 4))
    g = q @ np.swapaxes(q, 1, 2) + 4 * np.eye(4)
    frames = gram_schmidt_frames(g)
    for gk, ek in zip(g, frames):
        assert np.array_equal(ek, curvature_oracle.gram_schmidt_frame(gk))
        assert np.array_equal(gram_schmidt_frame(gk), ek)


def test_gram_schmidt_frames_ignore_the_memory_layout(rotational):
    # the Moebius metrics of seven points, stacked in Fortran order: each frame
    # equals that of the point alone, bit for bit
    pts = interior_points(rotational, 7, seed=0)
    g = np.array([d.g_moebius for d in moebius_data_batch(fields_from_immersion(rotational), pts)])
    frames = gram_schmidt_frames(np.asfortranarray(g))
    for k in range(len(pts)):
        assert np.array_equal(frames[k], gram_schmidt_frame(g[k]))


def test_batched_checks_name_the_point():
    g = np.tile(np.eye(3), (4, 1, 1))
    g[3, 1, 1] = 0.0
    with pytest.raises(DegenerateGeometryError, match="at point 3"):
        gram_schmidt_frames(g)
    g[3, 1, 1] = 1.0
    g[1, 0, 1] = 0.5
    with pytest.raises(InputError, match="at point 1"):
        require_symmetric(g)
    with pytest.raises(InputError) as one:
        require_symmetric(g[1])
    assert "point" not in str(one.value)
