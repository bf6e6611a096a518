"""Deep linear network evaluation: products, loss, gradient, hessian.

The d=1 oracles below were worked out by hand: layers (2, 3, 4) with
target 5 give product 24, residual 19, and the second derivatives reduce
to products of the complementary layer scalars.
"""

import math
import tracemalloc

import numpy as np
import pytest

from deeplin.matcore import MAX_DIM, MAX_LAYERS
from deeplin.network import (
    DeepLinearNet,
    full_gradient,
    full_hessian,
    hessian_frob_norm,
    loss,
    prefix_suffix_products,
    product,
)


def identity_net(d, L):
    return DeepLinearNet(np.tile(np.eye(d), (L, 1, 1)))


def scalar_net():
    return DeepLinearNet(
        (np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]]))
    )


def random_net(rng, d, L):
    layers = np.eye(d) + rng.standard_normal((L, d, d)) / (4.0 * np.sqrt(L * d))
    return DeepLinearNet(layers), rng.standard_normal((d, d))


def test_constructor_validation():
    with pytest.raises(ValueError):
        DeepLinearNet(())
    with pytest.raises(ValueError):
        DeepLinearNet((np.zeros((2, 2)), np.zeros((3, 3))))
    with pytest.raises(ValueError):
        DeepLinearNet((np.zeros((2, 3)),))
    with pytest.raises(ValueError):
        DeepLinearNet(np.zeros((MAX_LAYERS + 1, 2, 2)))
    with pytest.raises(ValueError):
        DeepLinearNet(np.zeros((2, MAX_DIM + 1, MAX_DIM + 1)))
    with pytest.raises(ValueError):
        DeepLinearNet((np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])))
    with pytest.raises(ValueError):
        DeepLinearNet(np.eye(2))
    with pytest.raises(ValueError):
        DeepLinearNet((np.eye(2), [[1.0, 0.0], [0.0]]))


def test_layers_are_an_owned_read_only_stack():
    source = np.stack([np.eye(2), 2.0 * np.eye(2)])
    net = DeepLinearNet(source)
    assert net.layers.shape == (2, 2, 2) and net.layers.dtype == np.float64
    assert not net.layers.flags.writeable
    with pytest.raises(ValueError):
        net.layers[0, 0, 0] = 5.0
    source[0, 0, 0] = 5.0
    assert net.layers[0, 0, 0] == 1.0
    # a tuple of matrices builds the same stack
    np.testing.assert_array_equal(DeepLinearNet(tuple(source)).layers, source)


def test_identity_factories():
    net = identity_net(3, 4)
    assert net.d == 3 and net.L == 4
    np.testing.assert_array_equal(product(net.layers), np.eye(3))


def test_application_order():
    # layer 1 acts first, so the end to end map is layers[-1] @ ... @ layers[0]
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    net = DeepLinearNet((a, b))
    np.testing.assert_array_equal(product(net.layers), b @ a)


@pytest.mark.parametrize("d, L", [(3, 1), (1, 4), (2, 7), (4, 64)])
def test_product_is_the_last_prefix_product(d, L):
    net, _ = random_net(np.random.default_rng(20 + L), d, L)
    last = prefix_suffix_products(net.layers)[0][-1]
    assert product(net.layers).tobytes() == last.tobytes()
    assert product(net.layers).tobytes() == last.tobytes()


def _matmul_chain(layers):
    """The prefix and suffix stacks formed with ``np.matmul`` one layer at a
    time: the oracle of ``prefix_suffix_products``."""
    L, d, _ = layers.shape
    pre = np.empty((L + 1, d, d))
    suf = np.empty((L + 1, d, d))
    pre[0] = suf[L] = np.eye(d)
    for k in range(L):
        np.matmul(layers[k], pre[k], out=pre[k + 1])
    for k in range(L - 1, -1, -1):
        np.matmul(suf[k + 1], layers[k], out=suf[k])
    return pre, suf


@pytest.mark.parametrize("L", [1, 2, 3, 64])
@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_prefix_suffix_products_match_the_matmul_chain(d, L):
    layers = np.eye(d) + np.random.default_rng([22, d, L]).standard_normal((L, d, d)) / d
    # a stack with a reversed layer stride, as the power projection trainer
    # passes its refactored layers
    for stack in (layers, layers[::-1]):
        pre, suf = prefix_suffix_products(stack)
        pre_o, suf_o = _matmul_chain(stack)
        assert pre.tobytes() == pre_o.tobytes() and suf.tobytes() == suf_o.tobytes()


def test_cached_products_and_singular_values_are_read_only_and_fresh():
    net, _ = random_net(np.random.default_rng(23), 3, 5)
    pre, suf = net.products
    sv = net.singular_values
    assert net.products[0] is pre and net.singular_values is sv
    for a in (pre, suf, sv):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 7.0
    fresh = prefix_suffix_products(net.layers)
    assert pre.tobytes() == fresh[0].tobytes() and suf.tobytes() == fresh[1].tobytes()
    assert sv.tobytes() == np.linalg.svd(net.layers, compute_uv=False).tobytes()
    assert sv.shape == (5, 3)


@pytest.mark.parametrize("d, L", [(1, 3), (2, 64), (3, 8), (8, 16), (16, 4)])
def test_cached_formulas_are_bitwise_the_uncached_ones(d, L):
    net, phi = random_net(np.random.default_rng([24, d, L]), d, L)
    pre, suf = _matmul_chain(net.layers)
    r = product(net.layers) - phi
    assert loss(net, phi) == 0.5 * float(np.sum(r * r))
    grads = suf[1:].transpose(0, 2, 1) @ (pre[L] - phi) @ pre[:-1].transpose(0, 2, 1)
    assert full_gradient(net, phi).tobytes() == grads.tobytes()
    # the bound's norm from a net holding the oracle's products in its cache
    oracle = DeepLinearNet(net.layers)
    oracle.__dict__["products"] = (pre, suf)
    assert hessian_frob_norm(net, phi) == hessian_frob_norm(oracle, phi)
    # and every formula reads the same value again from the filled cache
    assert loss(net, phi) == 0.5 * float(np.sum(r * r))
    assert hessian_frob_norm(net, phi) == hessian_frob_norm(DeepLinearNet(net.layers), phi)


def test_product_of_a_batch_is_the_product_of_each_row():
    batch = np.eye(3) + 0.3 * np.random.default_rng(21).standard_normal((5, 4, 3, 3))
    prods = product(batch)
    assert prods.shape == (5, 3, 3)
    assert prods.tobytes() == np.array([product(row) for row in batch]).tobytes()


def test_loss_frozen_values():
    net = scalar_net()
    phi = np.array([[5.0]])
    assert loss(net, phi) == pytest.approx(180.5)
    assert (product(net.layers) - phi)[0, 0] == pytest.approx(19.0)
    # identity target at identity layers has zero loss
    idn = identity_net(3, 2)
    assert loss(idn, np.eye(3)) == 0.0
    assert loss(identity_net(2, 3), np.diag([2.0, 1.0])) == 0.5
    # one negative target eigenvalue: residual entry 1 + 0.8
    neg = np.diag([-0.8, 1.0, 1.0])
    assert loss(identity_net(3, 4), neg) == pytest.approx(1.62)


def test_gradient_frozen_scalar_values():
    net = scalar_net()
    phi = np.array([[5.0]])
    g = full_gradient(net, phi)
    assert g[0][0, 0] == pytest.approx(228.0)
    assert g[1][0, 0] == pytest.approx(152.0)
    assert g[2][0, 0] == pytest.approx(114.0)
    assert np.sum(g * g) == pytest.approx(228.0**2 + 152.0**2 + 114.0**2)
    assert g.shape == (3, 1, 1)


def test_gradient_at_identity_is_negative_residual_everywhere():
    phi = np.diag([2.0, 0.5, 1.0])
    net = identity_net(3, 4)
    g = full_gradient(net, phi)
    for i in range(1, 5):
        np.testing.assert_allclose(g[i - 1], np.eye(3) - phi, atol=0.0)


def test_hessian_frozen_scalar_values():
    net = scalar_net()
    phi = np.array([[5.0]])
    h = full_hessian(net, phi)
    expected = np.array(
        [
            [144.0, 172.0, 129.0],
            [172.0, 64.0, 86.0],
            [129.0, 86.0, 36.0],
        ]
    )
    np.testing.assert_allclose(h, expected, atol=1e-10)


def test_hessian_symmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        L = int(rng.integers(1, 5))
        net = DeepLinearNet(tuple(rng.standard_normal((d, d)) for _ in range(L)))
        phi = rng.standard_normal((d, d))
        h = full_hessian(net, phi)
        assert h.shape == (L * d * d, L * d * d)
        np.testing.assert_allclose(h, h.T, atol=1e-12)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    d, L = 2, 3
    net = DeepLinearNet(tuple(rng.uniform(-1, 1, (d, d)) for _ in range(L)))
    phi = rng.uniform(-1, 1, (d, d))
    h = full_hessian(net, phi)
    n = L * d * d
    x0 = np.concatenate([m.ravel(order="F") for m in net.layers])

    def loss_at(x):
        mats = [
            x[k * d * d : (k + 1) * d * d].reshape((d, d), order="F")
            for k in range(L)
        ]
        prod = np.eye(d)
        for m in mats:
            prod = m @ prod
        return 0.5 * np.linalg.norm(prod - phi) ** 2

    step = 1e-4
    fd = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            fd[i, j] = (
                loss_at(x0 + ei + ej)
                - loss_at(x0 + ei - ej)
                - loss_at(x0 - ei + ej)
                + loss_at(x0 - ei - ej)
            ) / (4.0 * step**2)
    np.testing.assert_allclose(h, fd, atol=1e-5)


def test_hessian_identity_target_identity_layers():
    # at the global minimum of the identity target the hessian is psd
    net = identity_net(2, 3)
    h = full_hessian(net, np.eye(2))
    w = np.linalg.eigvalsh(h)
    assert w[0] >= -1e-12


def test_hessian_all_ones_at_scalar_identity():
    for L in (2, 3, 5):
        net = identity_net(1, L)
        h = full_hessian(net, np.array([[1.0]]))
        np.testing.assert_allclose(h, np.ones((L, L)), atol=1e-12)


def test_hessian_scalar_closed_form_equivalence():
    # d=1 closed form: diagonal (prod_{k!=i} theta)^2, off-diagonal
    # prod_{k!=i} * prod_{k!=j} + (prod - phi) * prod_{k not in {i,j}}
    rng = np.random.default_rng(13)
    for _ in range(100):
        L = int(rng.integers(1, 7))
        theta = rng.uniform(-1.5, 1.5, L)
        phi_val = float(rng.uniform(-2.0, 2.0))
        net = DeepLinearNet(tuple(np.array([[v]]) for v in theta))
        h = full_hessian(net, np.array([[phi_val]]))
        prod = np.prod(theta)
        expected = np.empty((L, L))
        for i in range(L):
            for j in range(L):
                pi = np.prod(np.delete(theta, i))
                pj = np.prod(np.delete(theta, j))
                if i == j:
                    expected[i, j] = pi * pi
                else:
                    pij = np.prod(np.delete(theta, (i, j)))
                    expected[i, j] = pi * pj + (prod - phi_val) * pij
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(h, expected, atol=1e-10 * scale)


def test_hessian_size_cap():
    with pytest.raises(ValueError):
        full_hessian(identity_net(16, 17), np.eye(16))


def test_hessian_memory_stays_bounded():
    # the output is 256 x 256 (0.5 MB); no d^4 x d^4 intermediate is allowed
    rng = np.random.default_rng(14)
    d, L = 8, 4
    net = DeepLinearNet(
        tuple(np.eye(d) + 0.1 * rng.standard_normal((d, d)) for _ in range(L))
    )
    phi = rng.standard_normal((d, d))
    tracemalloc.start()
    try:
        h = full_hessian(net, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.shape == (L * d * d, L * d * d)
    assert peak < 16 * 2**20
    # deep and wide nets: the chunks and the middle products stay within 2 MiB
    for d, L in ((2, 64), (8, 16)):
        net, phi = random_net(rng, d, L)
        tracemalloc.start()
        try:
            h = full_hessian(net, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= h.nbytes + 2 * 2**20


def _reference_hessian(net, phi):
    """The second-derivative matrix built one d x d block at a time, as the
    row-chunked ``full_hessian`` must reproduce it."""
    d, L = net.d, net.L
    pre, suf = prefix_suffix_products(net.layers)
    residual = pre[L] - phi
    dd = d * d
    h = np.empty((L * dd, L * dd))
    for i in range(1, L + 1):
        rows = slice((i - 1) * dd, i * dd)
        mid = np.eye(d)
        for j in range(i, L + 1):
            cols = slice((j - 1) * dd, j * dd)
            block = np.einsum(
                "ac,eb->baec", suf[i].T @ suf[j], pre[j - 1] @ pre[i - 1].T
            )
            if j > i:
                q = suf[j].T @ residual @ pre[i - 1].T
                block += np.einsum("ea,cb->baec", mid, q)
                mid = net.layers[j - 1] @ mid
                h[cols, rows] = block.reshape(dd, dd).T
            h[rows, cols] = block.reshape(dd, dd)
    return h


# whole-row chunks, several chunks per row, one block per chunk, one layer
@pytest.mark.parametrize("d, L", [(1, 64), (2, 64), (8, 16), (16, 2), (3, 1)])
def test_hessian_matches_block_reference(d, L):
    net, phi = random_net(np.random.default_rng(15 + d * L), d, L)
    np.testing.assert_allclose(
        full_hessian(net, phi), _reference_hessian(net, phi), rtol=1e-13, atol=0.0
    )


def test_hessian_directional_second_difference_deep():
    rng = np.random.default_rng(16)
    d, L = 2, 64
    net, phi = random_net(rng, d, L)
    h = full_hessian(net, phi)
    x = net.layers.transpose(0, 2, 1).ravel()  # column-major inside each layer

    def f(y):
        return loss(DeepLinearNet(y.reshape(L, d, d).transpose(0, 2, 1)), phi)

    s = 1e-4
    for _ in range(4):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = (f(x + s * v) - 2.0 * f(x) + f(x - s * v)) / s**2
        assert v @ h @ v == pytest.approx(fd, rel=1e-5, abs=1e-6)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each pair of matrices of two stacks."""
    return np.einsum("kab,kab->k", a, b)


def _pairwise_frob_norm(net, phi):
    """||full_hessian(net, phi)||_F block pair by block pair.

    With X = S[i]^T S[j], Y = P[j-1] P[i-1]^T, M the product of layers
    i+1..j-1 and Q = S[j]^T R P[i-1]^T, block (i, j) for i <= j is an index
    permutation of X (x) Y plus, for i < j, of M (x) Q.  As ||A (x) B||_F =
    ||A||_F ||B||_F,

        ||H_ij||_F^2 = ||X||^2 ||Y||^2
                       + [i < j] (||M||^2 ||Q||^2 + 2 <X Q, M^T Y>_F),

    and ||H||_F^2 = sum_i ||H_ii||^2 + 2 sum_{i<j} ||H_ij||^2, since the lower
    blocks are transposes of the upper ones.  The blocks (i, i + m) are
    taken diagonal by diagonal, M from the recurrence of ``full_hessian``,
    in chunks of max(1, 2**15 // (L d^2)) diagonals.
    """
    d, L = net.d, net.L
    phi = np.asarray(phi, dtype=float)

    pre, suf = net.products
    pre_t = pre.transpose(0, 2, 1)
    suf_t = suf.transpose(0, 2, 1)
    sr = suf_t @ (pre[L] - phi)
    step = max(1, 2**15 // (L * d * d))
    total = 0.0
    for m0 in range(0, L, step):
        diags = range(m0, min(m0 + step, L))
        mids = []
        for k in diags:
            if k == 0:  # the diagonal blocks have no second term
                mid = np.zeros((L, d, d))
            elif k == 1:
                mid = np.broadcast_to(np.eye(d), (L - 1, d, d))
            else:
                mid = net.layers[k - 1 : L - 1] @ mid[: L - k]
            mids.append(mid)
        mid_c = np.concatenate(mids)
        m = np.repeat(diags, [L - k for k in diags])
        i = np.concatenate([np.arange(1, L - k + 1) for k in diags])
        j = i + m
        x = suf_t[i] @ suf[j]
        y = pre[j - 1] @ pre_t[i - 1]
        q = sr[j] @ pre_t[i - 1]
        block_sq = (
            _inner(x, x) * _inner(y, y)
            + _inner(mid_c, mid_c) * _inner(q, q)
            + 2.0 * _inner(x @ q, mid_c.transpose(0, 2, 1) @ y)
        )
        total += float(np.where(m > 0, 2.0, 1.0) @ block_sq)
    return math.sqrt(total)


def _assembled_frob_norm(net, phi):
    """||full_hessian(net, phi)||_F with numpy's pairwise sum, a block row at
    a time.  np.linalg.norm sums all (L d^2)^2 squares in one dot product,
    which at d=16, L=16 is itself up to about 1e-13 off a long-double sum."""
    h = full_hessian(net, phi)
    return math.sqrt(sum(float(np.sum(rows * rows)) for rows in np.split(h, net.L)))


# the shapes of the benchmark's curvature workload, then one and two
# scalar layers and the widest network that full_hessian assembles
@pytest.mark.parametrize("d, L", [
    (4, 16), (2, 64), (2, 16), (3, 32), (3, 8), (4, 4), (5, 12), (5, 3), (6, 8),
    (6, 2), (7, 6), (7, 2), (8, 16), (8, 4), (1, 1), (1, 2), (16, 16),
])
def test_hessian_frob_norm_matches_assembled(d, L):
    rng = np.random.default_rng([17, d, L])
    # layers at several distances from I, targets from 0.01 to 1000 in scale
    for spread in (0.0, 0.3, 3.0):
        net = DeepLinearNet(np.eye(d) + spread * rng.standard_normal((L, d, d)) / np.sqrt(L * d))
        for scale in (0.01, 1.0, 1000.0):
            phi = scale * rng.standard_normal((d, d))
            assert hessian_frob_norm(net, phi) == pytest.approx(
                _assembled_frob_norm(net, phi), rel=1e-13, abs=0.0
            )


# the shapes above, then shapes of several chunks (d = 16, L = 64 takes two
# diagonals at a time) and a single layer
@pytest.mark.parametrize("d, L", [
    (4, 16), (2, 64), (2, 16), (3, 32), (3, 8), (4, 4), (5, 12), (5, 3), (6, 8),
    (6, 2), (7, 6), (7, 2), (8, 16), (8, 4), (1, 1), (1, 2), (16, 16),
    (9, 64), (12, 48), (16, 64), (5, 1),
])
def test_hessian_frob_norm_matches_pairwise(d, L):
    rng = np.random.default_rng([18, d, L])
    for spread in (0.0, 0.3, 3.0):
        net = DeepLinearNet(np.eye(d) + spread * rng.standard_normal((L, d, d)) / np.sqrt(L * d))
        for scale in (0.01, 1.0, 1000.0):
            phi = scale * rng.standard_normal((d, d))
            assert hessian_frob_norm(net, phi) == pytest.approx(
                _pairwise_frob_norm(net, phi), rel=1e-13, abs=0.0
            )
