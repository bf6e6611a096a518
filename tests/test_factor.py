"""Principal orthogonal roots and the balanced factorization."""

import numpy as np
import pytest
import scipy.linalg

from deeplin import factor
from deeplin.errors import NoRealRootError, NumericError, SingularInputError
from deeplin.factor import NEG_ONE_ANGLE_TOL, SPD_FLOOR, balanced_factorization
from deeplin.lab import random_orthogonal
from deeplin.matcore import as_mat, frob_norm, rotation, sym

EPS = np.finfo(float).eps
# distance from orthogonality, ||r^T r - I||_F per unit of d, that the Schur
# oracle accepts
ORTHO_TOL = 1e-8


def _schur_root(r, L: int) -> np.ndarray:
    """Principal L-th root of an orthogonal matrix, itself orthogonal.

    Works on the real Schur form: 1x1 blocks must be positive (an eigenvalue
    at -1 admits no real principal root), 2x2 rotation blocks get their angle
    divided by L.
    """
    r = as_mat(r)
    d = len(r)
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError("L must be a positive integer")
    if frob_norm(r.T @ r - np.eye(d)) > ORTHO_TOL * d:
        raise ValueError("input is not orthogonal within tolerance")
    if L == 1:
        return r.copy()
    t, q = scipy.linalg.schur(r, output="real")
    root_t = np.zeros_like(t)
    k = 0
    while k < d:
        two_by_two = k + 1 < d and abs(t[k + 1, k]) > 1e-13 * max(1.0, abs(t[k, k]))
        if two_by_two:
            c = (t[k, k] + t[k + 1, k + 1]) / 2.0
            s = (t[k + 1, k] - t[k, k + 1]) / 2.0
            theta = float(np.arctan2(s, c))
            if np.pi - abs(theta) < NEG_ONE_ANGLE_TOL:
                raise NoRealRootError(
                    f"eigenvalue at -1 (rotation angle {theta:.6f}); "
                    "no real principal root exists"
                )
            # Near-orthogonal input may carry magnitude slightly off 1.
            mag = float(np.sqrt(max(t[k, k] * t[k + 1, k + 1] - t[k, k + 1] * t[k + 1, k], SPD_FLOOR)))
            root_t[k : k + 2, k : k + 2] = mag ** (1.0 / L) * rotation(theta / L)
            k += 2
        else:
            val = t[k, k]
            if val < 0.0:
                raise NoRealRootError(
                    "eigenvalue at -1; no real principal root exists"
                )
            root_t[k, k] = val ** (1.0 / L)
            k += 1
    return q @ root_t @ q.T


def _eigh_reference(a, L):
    """The factors as built with the symmetric root from an
    eigendecomposition of the polar factor p = V S V^T (the construction
    before the root was read off the SVD)."""
    u, s, vt = np.linalg.svd(a)
    p = sym(vt.T @ (s[:, None] * vt))
    w, v = np.linalg.eigh(sym(p))
    p_root = sym((v * w ** (1.0 / L)) @ v.T)
    powers = factor._orthogonal_powers(u @ vt, L)
    rk = powers[L - 1 :: -1]
    return powers[1] @ rk @ p_root @ rk.transpose(0, 2, 1)


def _rotation_powers(q, angles, d, x):
    """q R(x angles) q^T: the rotation with these plane angles, to the real
    power x, padded with a fixed axis when d is odd."""
    blocks = [rotation(x * t) for t in angles] + [np.eye(1)] * (d - 2 * len(angles))
    return q @ scipy.linalg.block_diag(*blocks) @ q.T


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
    root = factor._orthogonal_powers(r, 3)[1]
    np.testing.assert_allclose(root, rotation(np.pi / 6), atol=1e-12)
    prod = root @ root @ root
    np.testing.assert_allclose(prod, r, atol=1e-12)


def test_orthogonal_root_block_diagonal():
    r = scipy.linalg.block_diag(rotation(2.0 * np.pi / 3.0), np.eye(1))
    root = factor._orthogonal_powers(r, 2)[1]
    expected = scipy.linalg.block_diag(rotation(np.pi / 3.0), np.eye(1))
    np.testing.assert_allclose(root, expected, atol=1e-12)


def test_root_idempotence_at_one():
    rng = np.random.default_rng(9)
    q = random_orthogonal(4, rng)
    r = q @ scipy.linalg.block_diag(rotation(0.4), rotation(-1.1)) @ q.T
    np.testing.assert_allclose(factor._orthogonal_powers(r, 1)[1], r, atol=1e-12)
    b = rng.standard_normal((4, 4))
    p = sym(b @ b.T) + 0.5 * np.eye(4)
    np.testing.assert_allclose(balanced_factorization(p, 1).factors[0], p, atol=1e-12)


def test_orthogonal_root_identity_and_reflection_pair():
    np.testing.assert_allclose(
        factor._orthogonal_powers(np.eye(3), 5)[1], np.eye(3), atol=1e-14
    )
    # det +1 with a pi rotation sits on the branch cut
    half_turn = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(NoRealRootError):
        factor._orthogonal_powers(half_turn, 2)


def test_orthogonal_root_negative_eigenvalue_rejected():
    with pytest.raises(NoRealRootError):
        factor._orthogonal_powers(np.diag([-1.0, 1.0]), 2)


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
            root = factor._orthogonal_powers(r, L)[1]
            ref = scipy.linalg.expm(scipy.linalg.logm(r) / L).real
            np.testing.assert_allclose(root, ref, atol=1e-9)


def test_orthogonal_powers_match_schur_walk():
    # every power r ** (k/L) against the constructed rotation and against
    # the Schur root chained k times; the root itself against the walk
    rng = np.random.default_rng(26)
    for _ in range(60):
        d = int(rng.integers(1, 17))
        L = int(rng.integers(1, 65))
        q = random_orthogonal(d, rng)
        angles = rng.uniform(-3.0, 3.0, d // 2)
        r = _rotation_powers(q, angles, d, 1.0)
        powers = factor._orthogonal_powers(r, L)
        schur = _schur_root(r, L)
        np.testing.assert_allclose(powers[1], schur, rtol=0, atol=2e-14)
        assert powers.shape == (L + 1, d, d)
        assert np.array_equal(powers[0], np.eye(d))
        chained = np.eye(d)
        for k in range(L + 1):
            exact = _rotation_powers(q, angles, d, k / L)
            np.testing.assert_allclose(powers[k], exact, rtol=0, atol=2e-14)
            np.testing.assert_allclose(powers[k], chained, rtol=0, atol=1e-12)
            chained = chained @ schur


@pytest.mark.parametrize(
    "near_pi",
    [
        pytest.param((1e-3,), id="one-plane-1e-3"),
        pytest.param((1e-5,), id="one-plane-1e-5"),
        pytest.param((1e-7,), id="one-plane-1e-7"),
        pytest.param((1e-3, 2e-3), id="two-planes-1e-3"),
        pytest.param((1e-3, -2e-3), id="two-planes-opposite-1e-3"),
    ],
)
def test_orthogonal_root_near_pi_matches_schur_walk(near_pi):
    # a plane at pi - delta has root error ~ eps / delta on either route
    rng = np.random.default_rng(27)
    delta = min(abs(x) for x in near_pi)
    for _ in range(20):
        d = int(rng.integers(2 * len(near_pi), 17))
        L = int(rng.integers(2, 65))
        angles = [np.copysign(np.pi - abs(x), x) for x in near_pi]
        angles += list(rng.uniform(-3.0, 3.0, d // 2 - len(angles)))
        r = _rotation_powers(random_orthogonal(d, rng), angles, d, 1.0)
        powers = factor._orthogonal_powers(r, L)
        np.testing.assert_allclose(powers[1], _schur_root(r, L), rtol=0, atol=20 * EPS / delta)
        np.testing.assert_allclose(powers[L], r, rtol=0, atol=2e-14)


def test_orthogonal_root_at_pi_names_the_angle():
    r = _rotation_powers(np.eye(4), [np.pi - 1e-9, 0.5], 4, 1.0)
    with pytest.raises(NoRealRootError, match="rotation angle"):
        factor._orthogonal_powers(r, 3)
    with pytest.raises(NoRealRootError, match="^eigenvalue at -1; no real"):
        factor._orthogonal_powers(np.diag([1.0, -1.0, -1.0]), 3)


@pytest.mark.parametrize(
    "angles",
    [
        pytest.param((0.7, 0.7, 0.7), id="repeated"),
        pytest.param((0.7, -0.7, 0.7, -0.7), id="repeated-conjugate"),
        pytest.param((1.0, 1.0 + 1e-8, 1.0 - 1e-8), id="clustered-1e-8"),
        pytest.param((2.0, 2.0 + 1e-12, 2.0 + 2e-12), id="clustered-1e-12"),
        pytest.param((2.0, 2.0 + 1e-15, 2.0 - 1e-15, 2.0), id="clustered-1e-15"),
        pytest.param((0.0, 0.0, 1e-12), id="near-identity"),
    ],
)
def test_orthogonal_root_clustered_angles(angles):
    rng = np.random.default_rng(28)
    for d in (2 * len(angles), 2 * len(angles) + 1, 16):
        q = random_orthogonal(d, rng)
        r = _rotation_powers(q, angles, d, 1.0)
        for L in (2, 5, 64):
            powers = factor._orthogonal_powers(r, L)
            np.testing.assert_allclose(powers[1], _schur_root(r, L), rtol=0, atol=2e-14)
            for k in (1, L // 2, L - 1, L):
                exact = _rotation_powers(q, angles, d, k / L)
                np.testing.assert_allclose(powers[k], exact, rtol=0, atol=2e-14)


def test_orthogonal_root_of_near_orthogonal_input():
    # within ORTHO_TOL of orthogonal but not normal: the walk treats each
    # 2x2 block as a scaled rotation, the eigendecomposition takes the exact
    # principal root
    rng = np.random.default_rng(29)
    for _ in range(10):
        d = int(rng.integers(2, 17))
        L = int(rng.integers(2, 17))
        r = _rotation_powers(random_orthogonal(d, rng), rng.uniform(-3.0, 3.0, d // 2), d, 1.0)
        r = r + 1e-10 * rng.standard_normal((d, d))
        assert frob_norm(r.T @ r - np.eye(d)) <= ORTHO_TOL * d
        root = factor._orthogonal_powers(r, L)[1]
        np.testing.assert_allclose(root, _schur_root(r, L), rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.matrix_power(root, L), r, rtol=0, atol=1e-13)


def test_failed_eigendecomposition_is_numeric_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(NumericError, match="eig failed"):
        balanced_factorization(np.array([[1.0, 0.5], [-0.5, 1.0]]), 3)


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
