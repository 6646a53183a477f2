import numpy as np
import pytest

from mobiusflat.errors import InputError
from mobiusflat.fd import diff1, diff1_batch, diff2_batch, jet, jet_batch

import fd_oracle
from conftest import FD_STEP


def poly_field(pts):
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    return x**3 * y + 2.0 * y**2 - x


def vector_field(pts):
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([np.sin(x) * np.cos(y), x * y], axis=1)


@pytest.mark.parametrize("step", [0.0, -0.01, float("nan")])
def test_nonpositive_step_refused(step):
    for request in (diff1_batch, jet_batch):
        with pytest.raises(InputError, match="step must be positive"):
            request(poly_field, np.zeros((1, 2)), step)


def test_diff1_polynomial_exact_for_order4():
    # order-4 first differences are exact on cubics
    p = np.array([0.7, -0.4])
    d = diff1(poly_field, p, 0.05)
    x, y = p
    assert d[0] == pytest.approx(3 * x**2 * y - 1.0, abs=1e-9)
    assert d[1] == pytest.approx(x**3 + 4 * y, abs=1e-9)


def test_diff2_polynomial():
    p = np.array([0.7, -0.4])
    dd = jet(poly_field, p, 0.05)[2]
    x, y = p
    expected = np.array([[6 * x * y, 3 * x**2], [3 * x**2, 4.0]])
    assert np.allclose(dd, expected, atol=1e-8)
    assert np.allclose(dd, dd.T)


def test_vector_valued_derivatives():
    p = np.array([0.3, 0.9])
    d = diff1(vector_field, p, FD_STEP)
    x, y = p
    assert d[0, 0] == pytest.approx(np.cos(x) * np.cos(y), abs=1e-10)
    assert d[1, 0] == pytest.approx(-np.sin(x) * np.sin(y), abs=1e-10)
    assert d[0, 1] == pytest.approx(y, abs=1e-10)
    assert d[1, 1] == pytest.approx(x, abs=1e-10)


def test_batched_matches_single():
    pts = np.array([[0.1, 0.2], [0.5, -0.3], [1.5, 2.0]])
    batch = diff1_batch(vector_field, pts, FD_STEP)
    for i, p in enumerate(pts):
        assert np.allclose(batch[i], diff1(vector_field, p, FD_STEP))
    batch2 = diff2_batch(vector_field, pts, FD_STEP)
    for i, p in enumerate(pts):
        assert np.allclose(batch2[i], jet(vector_field, p, FD_STEP)[2])


# The stencils are order 4; the order parameters below name it.


@pytest.mark.parametrize("order,slope", [(4, 4.0)])
def test_convergence_order(order, slope):
    # truncation error of d^2/dx^2 sin at steps where rounding is negligible
    def f(pts):
        return np.sin(np.atleast_2d(pts)[:, 0])

    p = np.array([0.6])
    errs = []
    for h in [0.6, 0.3, 0.15]:
        dd = jet(f, p, h)[2][0, 0]
        errs.append(abs(dd + np.sin(0.6)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - slope) < 0.5)


def matrix_field(pts):
    v = vector_field(pts)
    return np.einsum("ki,kj->kij", v, v) + np.eye(2)


class TestJet:
    """One stencil for values, first and second partials."""

    @pytest.mark.parametrize("order", [4])
    @pytest.mark.parametrize("field", [poly_field, vector_field, matrix_field])
    def test_matches_separate_stencils(self, order, field):
        pts = np.array([[0.1, 0.2], [0.5, -0.3], [1.5, 2.0], [-3.0, 0.0]])
        for step in (FD_STEP, 0.02):
            values, d1, d2 = jet_batch(field, pts, step)
            assert np.array_equal(values, field(pts))
            assert np.array_equal(d1, diff1_batch(field, pts, step))
            # the oracle differences with a per-coordinate step array
            assert np.array_equal(d2, fd_oracle.diff2_batch(field, pts, step))
            assert np.array_equal(diff2_batch(field, pts, step), d2)

    def test_single_point_front_end(self):
        p = np.array([0.3, 0.9])
        value, d1, d2 = jet(matrix_field, p, FD_STEP)
        assert np.array_equal(value, matrix_field(p[None, :])[0])
        assert np.array_equal(d1, diff1(matrix_field, p, FD_STEP))
        assert np.array_equal(d2, diff2_batch(matrix_field, p[None, :], FD_STEP)[0])

    @pytest.mark.parametrize("order,points", [(4, 2 * 5 + 16)])
    def test_one_field_call(self, order, points):
        calls = []

        def field(pts):
            calls.append(pts.shape[0])
            return poly_field(pts)

        jet_batch(field, np.zeros((3, 2)), FD_STEP)
        assert calls == [3 * points]
