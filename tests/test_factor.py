"""Polar decomposition, principal matrix roots, balanced factorization."""

import numpy as np
import pytest
import scipy.linalg

from deeplin.errors import NoRealRootError, SingularInputError
from deeplin.factor import (
    balanced_factorization,
    polar,
    principal_root_orthogonal,
    principal_root_spd,
)
from deeplin.lab import random_orthogonal
from deeplin.matcore import rotation, sym


def test_polar_against_sqrtm():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        a = np.eye(d) + 0.6 * rng.standard_normal((d, d))
        parts = polar(a)
        np.testing.assert_allclose(parts.r @ parts.p, a, atol=1e-12)
        np.testing.assert_allclose(parts.r @ parts.r.T, np.eye(d), atol=1e-12)
        # independent oracle for the stretch factor
        p_ref = scipy.linalg.sqrtm(a.T @ a).real
        np.testing.assert_allclose(parts.p, p_ref, atol=1e-9)


def test_polar_singular_input():
    with pytest.raises(SingularInputError):
        polar(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_polar_frozen_cases():
    parts = polar(2.0 * np.eye(3))
    np.testing.assert_allclose(parts.r, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(parts.p, 2.0 * np.eye(3), atol=1e-12)
    r = rotation(0.7)
    parts = polar(r)
    np.testing.assert_allclose(parts.r, r, atol=1e-12)
    np.testing.assert_allclose(parts.p, np.eye(2), atol=1e-12)


def test_orthogonal_root_rotation():
    r = rotation(np.pi / 2)
    root = principal_root_orthogonal(r, 3)
    np.testing.assert_allclose(root, rotation(np.pi / 6), atol=1e-12)
    prod = root @ root @ root
    np.testing.assert_allclose(prod, r, atol=1e-12)


def test_orthogonal_root_block_diagonal():
    r = scipy.linalg.block_diag(rotation(2.0 * np.pi / 3.0), np.eye(1))
    root = principal_root_orthogonal(r, 2)
    expected = scipy.linalg.block_diag(rotation(np.pi / 3.0), np.eye(1))
    np.testing.assert_allclose(root, expected, atol=1e-12)


def test_root_idempotence_at_one():
    rng = np.random.default_rng(9)
    q = random_orthogonal(4, rng)
    r = q @ scipy.linalg.block_diag(rotation(0.4), rotation(-1.1)) @ q.T
    np.testing.assert_allclose(principal_root_orthogonal(r, 1), r, atol=1e-12)
    b = rng.standard_normal((4, 4))
    p = sym(b @ b.T) + 0.5 * np.eye(4)
    np.testing.assert_allclose(principal_root_spd(p, 1), p, atol=1e-12)


def test_orthogonal_root_identity_and_reflection_pair():
    np.testing.assert_allclose(
        principal_root_orthogonal(np.eye(3), 5), np.eye(3), atol=1e-14
    )
    # det +1 with a pi rotation sits on the branch cut
    half_turn = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(NoRealRootError):
        principal_root_orthogonal(half_turn, 2)


def test_orthogonal_root_negative_eigenvalue_rejected():
    with pytest.raises(NoRealRootError):
        principal_root_orthogonal(np.diag([-1.0, 1.0]), 2)


def test_orthogonal_root_requires_orthogonal_input():
    with pytest.raises(ValueError):
        principal_root_orthogonal(np.diag([2.0, 1.0]), 2)


def test_orthogonal_root_matches_matrix_log_route():
    rng = np.random.default_rng(22)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        q = random_orthogonal(d, rng)
        angles = rng.uniform(-3.0, 3.0, d // 2)
        blocks = [rotation(t) for t in angles]
        if d % 2:
            blocks.append(np.eye(1))
        r = q @ scipy.linalg.block_diag(*blocks) @ q.T
        for L in (2, 3, 5):
            root = principal_root_orthogonal(r, L)
            ref = scipy.linalg.expm(scipy.linalg.logm(r) / L).real
            np.testing.assert_allclose(root, ref, atol=1e-9)


def test_spd_root_diagonal():
    root = principal_root_spd(np.diag([8.0, 27.0]), 3)
    np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-12)
    with pytest.raises(ValueError):
        principal_root_spd(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
    with pytest.raises(SingularInputError):
        principal_root_spd(np.diag([1.0, 0.0]), 2)


def test_balanced_factorization_diag():
    res = balanced_factorization(np.diag([8.0, 27.0]), 3)
    assert res.factors.shape == (3, 2, 2)
    for f in res.factors:
        np.testing.assert_allclose(f, np.diag([2.0, 3.0]), atol=1e-12)
    assert res.reconstruction_residual < 1e-14
    assert res.balance_residual < 1e-12


def test_balanced_factorization_scaled_identity():
    res = balanced_factorization(4.0 * np.eye(2), 2)
    for f in res.factors:
        np.testing.assert_allclose(f, 2.0 * np.eye(2), atol=1e-12)


def test_balanced_factorization_properties():
    rng = np.random.default_rng(23)
    for _ in range(12):
        d = int(rng.integers(1, 7))
        L = int(rng.integers(2, 9))
        s = sym(np.eye(d) + 0.4 * rng.standard_normal((d, d))) + 0.6 * np.eye(d)
        k = 0.5 * rng.standard_normal((d, d))
        a = s + (k - k.T) / 2.0
        res = balanced_factorization(a, L)
        # factors are listed in product order, factors[0] leftmost
        prod = np.eye(d)
        for f in res.factors:
            prod = prod @ f
        np.testing.assert_allclose(prod, a, atol=1e-10 * max(1.0, np.linalg.norm(a)))
        assert res.reconstruction_residual <= 1e-10
        # every factor shares the balanced singular values sigma(a)^(1/L)
        ref = np.linalg.svd(a, compute_uv=False) ** (1.0 / L)
        for f in res.factors:
            np.testing.assert_allclose(
                np.linalg.svd(f, compute_uv=False), ref, atol=1e-10
            )


def test_balanced_factorization_negative_branch():
    with pytest.raises(NoRealRootError):
        balanced_factorization(np.diag([-0.8, 1.0, 1.0]), 2)
