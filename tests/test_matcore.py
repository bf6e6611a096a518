"""Kernel matrix utilities: validation, sym/skew, rotation, spectra."""

import math
import warnings

import numpy as np
import pytest

from deeplin.errors import NumericError
from deeplin.matcore import (
    MAX_DIM,
    as_mat,
    cond_estimate,
    eye,
    frob_norm,
    is_symmetric,
    op_norm,
    rotation,
    singular_values,
    skew,
    sym,
)


def test_as_mat_rejects_bad_input():
    with pytest.raises(ValueError):
        as_mat(np.zeros(3))
    with pytest.raises(ValueError):
        as_mat(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_mat(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    with pytest.raises(ValueError):
        as_mat(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="not a real array"):
        as_mat([[1j, 0.0], [0.0, 1.0]])


def test_is_symmetric_per_matrix():
    a = sym(np.random.default_rng(5).standard_normal((3, 4, 4)))
    a[1, 0, 1] += 1e-6
    assert is_symmetric(a).tolist() == [True, False, True]
    assert is_symmetric(a[0]) and not is_symmetric(a[1])
    # the tolerance has an absolute floor of 1 on the Frobenius scale
    assert is_symmetric(np.array([[0.0, 1e-11], [0.0, 0.0]]))
    assert not is_symmetric(np.array([[0.0, 1e-9], [0.0, 0.0]]))


def test_sym_skew_split():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    np.testing.assert_allclose(sym(a) + skew(a), a, atol=0.0)
    np.testing.assert_array_equal(sym(a), sym(a).T)
    np.testing.assert_array_equal(skew(a), -skew(a).T)


@pytest.mark.parametrize("n", [2, 3])
def test_sym_skew_split_stack(n):
    # a square stack (n = 3) must not be transposed along its batch axis
    a = np.random.default_rng(4).standard_normal((n, 3, 3))
    for part in (sym, skew):
        np.testing.assert_array_equal(part(a), [part(m) for m in a])
    np.testing.assert_allclose(sym(a) + skew(a), a, atol=0.0)


def test_rotation_block():
    r = rotation(np.pi / 2)
    np.testing.assert_allclose(r, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-15)


def test_singular_values_descending():
    a = np.diag([1.0, 3.0, 2.0])
    np.testing.assert_allclose(singular_values(a), [3.0, 2.0, 1.0])
    assert op_norm(a) == 3.0
    assert op_norm(np.diag([3.0, -5.0])) == 5.0
    assert op_norm(rotation(0.83)) == pytest.approx(1.0)


def test_frob_norm_matches_trace_form():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    assert frob_norm(a) ** 2 == pytest.approx(np.trace(a.T @ a), rel=1e-10)
    assert op_norm(a) >= singular_values(a)[-1] >= 0.0


def test_frob_norm_is_numpys_wherever_the_sum_of_squares_is_normal():
    rng = np.random.default_rng(11)
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        a = scale * rng.standard_normal((5, 5))
        for view in (a, a.T, a[::2, ::2]):
            assert frob_norm(view) == np.linalg.norm(view)


def test_frob_norm_neither_underflows_nor_overflows():
    # the unscaled sum of squares reads 0.0 and inf here
    assert frob_norm(1e-200 * np.eye(2)) == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's overflow in the unscaled sum
        assert frob_norm(1e160 * np.eye(2)) == pytest.approx(math.sqrt(2.0) * 1e160, rel=1e-15)
    assert frob_norm(np.zeros((3, 3))) == 0.0
    assert math.isnan(frob_norm([[math.nan, 1.0], [math.inf, 1.0]]))
    assert frob_norm([[math.inf, 1.0], [1.0, 1.0]]) == math.inf


def test_cond_estimate_singular():
    assert cond_estimate(np.zeros((2, 2))) == np.inf


def test_svd_failure_reports_conditioning():
    # svd convergence failures cannot be provoked reliably with small finite
    # inputs, so only check the exception type is exported and catchable
    assert issubclass(NumericError, RuntimeError)


def test_eye_is_one_read_only_identity_per_dimension():
    for d in (1, 3, MAX_DIM):
        a = eye(d)
        assert a is eye(d)
        assert a.tobytes() == np.eye(d).tobytes() and a.dtype == np.float64
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
        with pytest.raises(ValueError):
            a += 1.0
        assert a.tobytes() == np.eye(d).tobytes()
