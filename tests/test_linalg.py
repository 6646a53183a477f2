import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobiusflat import linalg
from mobiusflat.errors import DegenerateGeometryError, InputError

import curvature_oracle
from conftest import interior_points, principal_curvatures
from mobiusflat.linalg import (
    gram_schmidt_frame,
    gram_schmidt_frames,
    jacobi_eigh,
    require_symmetric,
)
from mobiusflat.moebius import fields_from_immersion


def random_symmetric(rng, shape):
    """A random symmetric matrix (m, m) for an int m, or a stack of them for a shape."""
    a = rng.standard_normal((shape, shape) if isinstance(shape, int) else shape)
    return 0.5 * (a + a.mT)


def test_jacobi_matches_numpy():
    # one matrix, and a stack of four
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 5, 8):
        for a in (random_symmetric(rng, m), random_symmetric(rng, (4, m, m))):
            w, v = jacobi_eigh(a)
            assert w.shape == a.shape[:-1] and v.shape == a.shape
            assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-12)
            assert np.allclose((v * w[..., None, :]) @ v.mT, a, atol=1e-12)
            assert np.allclose(v.mT @ v, np.eye(m), atol=1e-12)


def sweeps(a, monkeypatch):
    """The number of sweeps ``jacobi_eigh`` takes on the matrix a: the least
    ``linalg.JACOBI_MAX_SWEEPS`` that gives its result."""
    final = jacobi_eigh(a)
    for k in range(linalg.JACOBI_MAX_SWEEPS + 1):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "JACOBI_MAX_SWEEPS", k)
            capped = jacobi_eigh(a)
        if all(np.array_equal(x, y) for x, y in zip(capped, final)):
            return k


def test_jacobi_stack_equals_one_matrix_calls(monkeypatch):
    # a diagonal matrix, dense matrices that converge after different numbers of
    # sweeps, and m = 1: each matrix of the stack is the same bits as alone
    rng = np.random.default_rng(12)
    diagonal = np.diag([3.0, 1.0, -2.0, 0.5])
    stack = np.array(
        [diagonal] + [diagonal + eps * random_symmetric(rng, 4) for eps in (1e-9, 1e-5, 1e-2, 1.0)]
    )
    assert [sweeps(a, monkeypatch) for a in stack] == [0, 1, 2, 3, 4]
    for a in (stack, rng.standard_normal((3, 1, 1))):
        w, v = jacobi_eigh(a)
        for k in range(len(a)):
            wk, vk = jacobi_eigh(a[k])
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)


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
def test_principal_curvatures_against_numpy(m, seed):
    # random pencils II v = lam I v: the eigenvalues of I^-1 II, descending, at one
    # point and for a stack of three
    rng = np.random.default_rng(seed)
    h = random_symmetric(rng, (3, m, m))
    q = rng.standard_normal((3, m, m))
    g = q @ q.mT + m * np.eye(m)
    ref = np.sort(np.linalg.eigvals(np.linalg.solve(g, h)).real)[:, ::-1]
    assert np.allclose(principal_curvatures(g[0], h[0]), ref[0], atol=1e-9)
    assert np.allclose(principal_curvatures(g, h), ref, atol=1e-9)


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
    records = fields_from_immersion(rotational).jets(pts).records(pts)
    g = np.array([d.g_moebius for d in records])
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
