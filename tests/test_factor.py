"""Principal orthogonal roots and the balanced factorization."""

import numpy as np
import pytest
import scipy.linalg

from deeplin.errors import NoRealRootError, SingularInputError
from deeplin.factor import balanced_factorization, principal_root_orthogonal
from deeplin.lab import random_orthogonal
from deeplin.matcore import rotation, sym


def _eigh_reference(a, L):
    """The factors as built with the symmetric root from an
    eigendecomposition of the polar factor p = V S V^T (the construction
    before the root was read off the SVD)."""
    d = a.shape[0]
    u, s, vt = np.linalg.svd(a)
    p = sym(vt.T @ (s[:, None] * vt))
    w, v = np.linalg.eigh(sym(p))
    p_root = sym((v * w ** (1.0 / L)) @ v.T)
    r_root = principal_root_orthogonal(u @ vt, L)
    powers = [np.eye(d)]
    for _ in range(1, L):
        powers.append(powers[-1] @ r_root)
    rk = np.array(powers[::-1])
    return r_root @ rk @ p_root @ rk.transpose(0, 2, 1)


def _gamma_positive(rng, d):
    q = random_orthogonal(d, rng)
    s = (q * (0.1 + rng.uniform(0.0, 2.0, d))) @ q.T
    k = rng.uniform(0.0, 1.0) * rng.standard_normal((d, d))
    return sym(s) + (k - k.T) / 2.0


def test_balanced_factorization_against_sqrtm():
    # independent oracle: polar factors and both square roots from sqrtm
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        a = _gamma_positive(rng, d)
        p = scipy.linalg.sqrtm(a.T @ a).real
        r = a @ np.linalg.inv(p)
        r1 = scipy.linalg.sqrtm(r).real
        p1 = scipy.linalg.sqrtm(p).real
        expected = [r1 @ r1 @ p1 @ r1.T, r1 @ p1]
        res = balanced_factorization(a, 2)
        np.testing.assert_allclose(res.factors, expected, atol=1e-9)


def test_balanced_factorization_singular_input():
    with pytest.raises(SingularInputError):
        balanced_factorization(np.array([[1.0, 0.0], [0.0, 0.0]]), 2)
    with pytest.raises(SingularInputError):
        balanced_factorization(np.diag([1.0, 0.0]), 1)


def test_balanced_factorization_frozen_cases():
    res = balanced_factorization(2.0 * np.eye(3), 1)
    np.testing.assert_allclose(res.factors[0], 2.0 * np.eye(3), atol=1e-12)
    # a pure rotation splits into equal rotations by half the angle
    res = balanced_factorization(rotation(0.7), 2)
    for f in res.factors:
        np.testing.assert_allclose(f, rotation(0.35), atol=1e-12)


def test_balanced_factorization_matches_eigh_roots():
    rng = np.random.default_rng(24)
    for _ in range(40):
        d = int(rng.integers(1, 17))
        L = int(rng.integers(1, 65))
        a = _gamma_positive(rng, d)
        res = balanced_factorization(a, L)
        ref = _eigh_reference(a, L)
        assert np.linalg.norm(res.factors - ref) <= 1e-14 * np.linalg.norm(ref)


def test_balance_residual_matches_formula():
    # the residual against sigma(a) ** (1/L) taken from a values-only SVD
    rng = np.random.default_rng(25)
    for _ in range(20):
        d = int(rng.integers(1, 17))
        L = int(rng.integers(1, 65))
        a = _gamma_positive(rng, d)
        res = balanced_factorization(a, L)
        target = np.linalg.svd(a, compute_uv=False) ** (1.0 / L)
        formula = np.max(np.abs(np.linalg.svd(res.factors, compute_uv=False) - target))
        eps = np.finfo(float).eps
        assert abs(res.balance_residual - formula) <= 4 * eps * target[0]


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
    np.testing.assert_allclose(balanced_factorization(p, 1).factors[0], p, atol=1e-12)


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
    # an SPD input has identity polar rotation, so every balanced factor is
    # its principal symmetric root: q diag(8, 27) q^T -> q diag(2, 3) q^T
    q = rotation(0.3)
    res = balanced_factorization(q @ np.diag([8.0, 27.0]) @ q.T, 3)
    for f in res.factors:
        np.testing.assert_allclose(f, f.T, atol=1e-12)
        np.testing.assert_allclose(f, q @ np.diag([2.0, 3.0]) @ q.T, atol=1e-12)
    with pytest.raises(ValueError):
        balanced_factorization(np.ones((2, 3)), 2)
    with pytest.raises(SingularInputError):
        balanced_factorization(np.diag([1.0, 0.0]), 2)


def test_balanced_factorization_diag():
    # the symmetric root of diag(8, 27) is diag(2, 3), shared by all factors
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
