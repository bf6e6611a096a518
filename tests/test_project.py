"""Projections onto the gamma-positive set and the identity ball."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplin.lab import random_orthogonal
from deeplin.matcore import frob_norm, op_norm, skew, sym
from deeplin.project import (
    IdentityBall,
    _ball_kernel,
    project_gamma_positive,
    project_identity_ball,
)
from reference import svd_ball_kernel


def per_layer_ball(stack, ball):
    """Reference: the identity-ball projection one matrix at a time, with
    the clip test on ``op_norm`` and a second, full SVD of a clipped
    matrix."""
    return np.stack([_ball_one(m, ball) for m in stack])


def _ball_one(a, ball):
    d = a.shape[0]
    if ball.psd_constrained:
        scale = max(frob_norm(a), 1.0)
        if frob_norm(a - a.T) > 1e-10 * scale:
            raise ValueError("psd-constrained projection requires symmetric input")
        w, v = np.linalg.eigh(sym(a))
        lo = max(0.0, 1.0 - ball.radius)
        hi = 1.0 + ball.radius
        if w[0] >= lo and w[-1] <= hi:
            return a.copy()
        return sym((v * np.clip(w, lo, hi)) @ v.T)
    e = a - np.eye(d)
    if op_norm(e) <= ball.radius:
        return a.copy()
    u, s, vt = np.linalg.svd(e)
    return np.eye(d) + u @ (np.minimum(s, ball.radius)[:, None] * vt)


def _assert_matches_reference(stack, ball):
    out = project_identity_ball(stack, ball)
    np.testing.assert_array_equal(out, per_layer_ball(stack, ball))
    for m, o in zip(stack, out):
        np.testing.assert_array_equal(project_identity_ball(m, ball), o)
    return out


def test_identity_ball_stack_all_inside():
    rng = np.random.default_rng(40)
    ball = IdentityBall(0.5)
    for d, L in ((1, 3), (3, 4), (16, 64)):
        e = rng.standard_normal((L, d, d))
        e *= rng.uniform(0.0, 0.45, (L, 1, 1)) / np.linalg.norm(e, 2, axis=(1, 2))[:, None, None]
        stack = np.eye(d) + e
        np.testing.assert_array_equal(_assert_matches_reference(stack, ball), stack)


def test_identity_ball_stack_mixed_clips():
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = int(rng.integers(1, 17))
        L = int(rng.integers(2, 65))
        ball = IdentityBall(float(rng.uniform(0.1, 1.0)))
        stack = np.eye(d) + ball.radius * rng.uniform(0.2, 2.0, (L, 1, 1)) * (
            rng.standard_normal((L, d, d)) / np.sqrt(d)
        )
        stack[0] = np.eye(d)
        stack[1] = np.eye(d) + 3.0 * ball.radius * np.eye(d)
        out = _assert_matches_reference(stack, ball)
        clipped = np.any(out != stack, axis=(1, 2))
        assert not clipped[0] and clipped[1]


def test_identity_ball_stack_boundary_layer():
    # a layer with ||W - I||_2 exactly the radius stays as it is
    rng = np.random.default_rng(42)
    for d in (2, 5, 16):
        stack = np.eye(d) + 0.4 * rng.standard_normal((6, d, d))
        radius = op_norm(stack[2] - np.eye(d))
        out = _assert_matches_reference(stack, IdentityBall(radius))
        np.testing.assert_array_equal(out[2], stack[2])
        assert np.any(out != stack)


def test_identity_ball_stack_psd_mode():
    rng = np.random.default_rng(43)
    for radius in (0.3, 1.0, 1.5):
        ball = IdentityBall(radius, psd_constrained=True)
        for d, L in ((2, 3), (4, 8), (16, 64)):
            stack = sym(np.eye(d) + radius * rng.uniform(0.1, 2.0, (L, 1, 1))
                        * rng.standard_normal((L, d, d)) / np.sqrt(d))
            stack[0] = np.eye(d)
            stack[1] = (2.0 + radius) * np.eye(d)
            out = _assert_matches_reference(stack, ball)
            np.testing.assert_array_equal(out[0], stack[0])
            assert np.any(out[1] != stack[1])


def test_identity_ball_stack_validation():
    ball = IdentityBall(0.5)
    with pytest.raises(ValueError):
        project_identity_ball(np.zeros((2, 2, 3)), ball)
    with pytest.raises(ValueError):
        project_identity_ball(np.zeros((0, 2, 2)), ball)
    with pytest.raises(ValueError):
        project_identity_ball(np.full((2, 2, 2), np.nan), ball)
    with pytest.raises(ValueError):
        project_identity_ball(np.zeros((2, 17, 17)), ball)
    one_asymmetric = np.stack([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="symmetric"):
        project_identity_ball(one_asymmetric, IdentityBall(0.5, psd_constrained=True))


def test_gamma_positive_frozen_example():
    # sym part diag(0.2, 0.3) clips to 0.5 I, skew part rides along
    a = np.array([[0.2, 1.0], [-1.0, 0.3]])
    out = project_gamma_positive(a, 0.5)
    np.testing.assert_allclose(out, [[0.5, 1.0], [-1.0, 0.5]], atol=1e-14)


def test_gamma_positive_diagonal_clip():
    out = project_gamma_positive(np.diag([-1.0, 2.0]), 0.5)
    np.testing.assert_allclose(out, np.diag([0.5, 2.0]), atol=1e-14)


def test_gamma_positive_rotation_generator():
    out = project_gamma_positive(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.1)
    np.testing.assert_allclose(out, [[0.1, 1.0], [-1.0, 0.1]], atol=1e-14)


def test_gamma_positive_feasible_passthrough():
    a = np.array([[2.0, 0.7], [-0.3, 1.5]])
    out = project_gamma_positive(a, 0.5)
    np.testing.assert_array_equal(out, a)


def test_gamma_positive_preserves_skew():
    # exact up to the one rounding when the clipped sym part is added back
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d)) * rng.uniform(0.1, 3.0)
        out = project_gamma_positive(a, rng.uniform(0.05, 1.5))
        scale = np.abs(a).max()
        np.testing.assert_allclose(skew(out), skew(a), atol=1e-15 * scale)


def test_gamma_positive_pure_skew_input():
    # no symmetric content to round against, so the skew block is bitwise
    k = skew(np.random.default_rng(35).standard_normal((4, 4)))
    out = project_gamma_positive(k, 0.7)
    np.testing.assert_array_equal(out - np.diag(np.diag(out)), k)
    np.testing.assert_allclose(np.diag(out), 0.7, atol=1e-15)


def test_projections_idempotent():
    rng = np.random.default_rng(36)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        a = 2.0 * rng.standard_normal((d, d))
        y = project_gamma_positive(a, 0.4)
        np.testing.assert_allclose(project_gamma_positive(y, 0.4), y, atol=1e-12)
        for ball in (IdentityBall(0.7), IdentityBall(0.7, psd_constrained=True)):
            x = sym(a) if ball.psd_constrained else a
            z = project_identity_ball(x, ball)
            np.testing.assert_allclose(
                project_identity_ball(z, ball), z, atol=1e-12
            )


def test_gamma_positive_optimality_by_sampling():
    # projection onto a convex set: no sampled feasible point is closer
    rng = np.random.default_rng(32)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        gamma = float(rng.uniform(0.1, 1.0))
        a = 2.0 * rng.standard_normal((d, d))
        y = project_gamma_positive(a, gamma)
        assert np.linalg.svd(y, compute_uv=False)[-1] >= gamma - 1e-12
        dist = np.linalg.norm(a - y)
        for _ in range(200):
            q = random_orthogonal(d, rng)
            w = gamma + rng.exponential(1.0, d)
            z = (q * w) @ q.T + skew(rng.standard_normal((d, d)))
            assert dist <= np.linalg.norm(a - z) + 1e-12


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_gamma_positive_nonexpansive(seed, d):
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0.05, 1.0))
    a = rng.standard_normal((d, d)) * 2.0
    b = rng.standard_normal((d, d)) * 2.0
    pa = project_gamma_positive(a, gamma)
    pb = project_gamma_positive(b, gamma)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


def test_identity_ball_frozen_psd_example():
    out = project_identity_ball(
        np.diag([3.0, 0.5]), IdentityBall(1.0, psd_constrained=True)
    )
    np.testing.assert_allclose(out, np.diag([2.0, 0.5]), atol=1e-14)


def test_identity_ball_psd_floor():
    # radius above 1 keeps the lower clip at zero, not negative
    out = project_identity_ball(
        np.diag([-5.0, 1.0]), IdentityBall(1.5, psd_constrained=True)
    )
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-14)


def test_identity_ball_psd_requires_symmetry():
    with pytest.raises(ValueError):
        project_identity_ball(
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            IdentityBall(0.5, psd_constrained=True),
        )


def test_identity_ball_general_mode():
    ball = IdentityBall(0.5)
    inside = np.eye(3) + 0.2 * np.diag([1.0, -1.0, 0.5])
    np.testing.assert_array_equal(project_identity_ball(inside, ball), inside)
    out = project_identity_ball(np.eye(2) + np.diag([2.0, 0.1]), ball)
    np.testing.assert_allclose(out, np.diag([1.5, 1.1]), atol=1e-12)
    # op norm of the deviation is clipped to the radius
    rng = np.random.default_rng(33)
    a = np.eye(4) + rng.standard_normal((4, 4))
    proj = project_identity_ball(a, ball)
    dev = np.linalg.svd(proj - np.eye(4), compute_uv=False)[0]
    assert dev <= 0.5 + 1e-12


def test_identity_ball_eigenvalue_distance_identity():
    # squared projection distance equals the summed squared eigenvalue
    # excursions past the clip interval
    rng = np.random.default_rng(37)
    for radius in (0.5, 1.0, 1.5):
        ball = IdentityBall(radius, psd_constrained=True)
        lo, hi = max(0.0, 1.0 - radius), 1.0 + radius
        for _ in range(5):
            d = int(rng.integers(2, 6))
            x = sym(2.0 * rng.standard_normal((d, d)))
            y = project_identity_ball(x, ball)
            w = np.linalg.eigvalsh(x)
            expected = float(np.sum(np.minimum(np.abs(w - lo), np.abs(w - hi))[
                (w < lo) | (w > hi)
            ] ** 2))
            assert np.isclose(np.linalg.norm(y - x) ** 2, expected, atol=1e-10)


def test_identity_ball_modes_agree_for_symmetric_small_radius():
    # with radius at most 1 the general singular-value clip and the
    # eigenvalue clip coincide on symmetric input, indefinite included
    rng = np.random.default_rng(38)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        x = sym(3.0 * rng.standard_normal((d, d)))
        r = float(rng.uniform(0.1, 1.0))
        general = project_identity_ball(x, IdentityBall(r))
        psd = project_identity_ball(x, IdentityBall(r, psd_constrained=True))
        np.testing.assert_allclose(general, psd, atol=1e-10)


def test_identity_ball_modes_agree_on_spd_interior():
    # for symmetric matrices whose clipped eigenvalues stay positive the
    # two modes produce the same point
    rng = np.random.default_rng(34)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        q = random_orthogonal(d, rng)
        w = rng.uniform(0.2, 2.5, d)
        a = (q * w) @ q.T
        a = sym(a)
        r = 0.6
        general = project_identity_ball(a, IdentityBall(r))
        psd = project_identity_ball(a, IdentityBall(r, psd_constrained=True))
        np.testing.assert_allclose(general, psd, atol=1e-10)


@given(st.integers(0, 10**6), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_identity_ball_nonexpansive(seed, d):
    rng = np.random.default_rng(seed)
    ball = IdentityBall(float(rng.uniform(0.1, 1.0)))
    a = rng.standard_normal((d, d))
    b = rng.standard_normal((d, d))
    pa = project_identity_ball(a, ball)
    pb = project_identity_ball(b, ball)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


def test_identity_ball_validation():
    with pytest.raises(ValueError):
        IdentityBall(-0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        IdentityBall(float("nan"))


@pytest.mark.parametrize("d, L, radius", [(1, 3, 0.2), (2, 3, 0.3), (4, 8, 0.1), (16, 64, 0.5)])
def test_ball_kernel_on_a_batch_matches_public_calls(d, L, radius):
    # B stacks of L layers, some inside the ball and some not, as one
    # (B L, d, d) stack: the kernel gives each piece's public result bitwise
    rng = np.random.default_rng(d * 100 + L)
    B = 5
    scales = rng.uniform(0.0, 3.0 * radius, (B * L, 1, 1))
    batch = np.eye(d) + scales * rng.standard_normal((B * L, d, d)) / np.sqrt(d)
    batch[:L] = np.eye(d)  # a piece that does not clip at all
    ball = IdentityBall(radius)
    out = _ball_kernel(batch, radius)
    for b in range(B):
        piece = batch[b * L:(b + 1) * L]
        assert out[b * L:(b + 1) * L].tobytes() == project_identity_ball(piece, ball).tobytes()
    # no clip: the input itself; a clip: a new array, the input untouched
    inside = batch[:L].copy()
    assert _ball_kernel(inside, radius) is inside
    before = batch.copy()
    assert _ball_kernel(batch, radius) is not batch
    assert batch.tobytes() == before.tobytes()



@pytest.mark.parametrize("d", [1, 3, 16])
@pytest.mark.parametrize("radius", [0.0, 1e-300, 1e-20, 0.3, 0.9, 7.0])
def test_ball_kernel_norm_shortcut_matches_the_svd_decision(d, radius):
    # a rank-one deviation has ||E||_F = ||E||_2, so one at the radius,
    # 1e-15 inside or outside it, sits where only the SVD can decide;
    # full-rank ones well inside or outside are settled by either test
    rng = np.random.default_rng(d)
    mats = []
    for _ in range(4):
        u, v = rng.standard_normal((2, d))
        unit = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        for scale in (1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 - 1e-10, 0.5, 2.0):
            mats.append(np.eye(d) + scale * radius * unit)
        full = rng.standard_normal((d, d))
        for scale in (0.3, 0.999, 1.5):
            mats.append(np.eye(d) + scale * radius * full / np.linalg.norm(full, 2))
    mats.append(np.eye(d) + 1e-170 * rng.standard_normal((d, d)))  # squares underflow
    stack = np.stack(mats)
    out, ref = _ball_kernel(stack, radius), svd_ball_kernel(stack, radius)
    assert out.tobytes() == ref.tobytes()
    for m in stack:
        one = m[None].copy()
        assert (_ball_kernel(one, radius) is one) == (svd_ball_kernel(one, radius) is one)
        assert _ball_kernel(one, radius).tobytes() == svd_ball_kernel(one, radius).tobytes()


@pytest.mark.parametrize("radius", [1e160, 1e200])
def test_ball_kernel_shortcut_where_squares_overflow(radius):
    # deviations whose squares, or the threshold's, overflow to inf
    mats = [np.eye(3) + s * radius * np.diag([1.0, -0.5, 0.25]) for s in (1e-10, 0.5, 2.0)]
    stack = np.stack(mats + [np.eye(3) + 1e-40 * radius * np.ones((3, 3))])
    assert _ball_kernel(stack, radius).tobytes() == svd_ball_kernel(stack, radius).tobytes()
