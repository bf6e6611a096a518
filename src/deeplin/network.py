"""Deep linear model with square layers and the population quadratic loss.

Layers are one read-only (L, d, d) float64 stack, and the gradient is a
stack of the same shape.  The model applies layer 1 first, so the
end-to-end map is the reversed matrix product ``layers[L-1] @ ... @
layers[0]``, which ``product`` forms.  Layer indices in the formulas below
are 1-based; P[k] and S[k] are the prefix and suffix products of
``prefix_suffix_products``.

A net forms its products and its layer singular values once, on first
read, and keeps them read-only in the cached properties ``products`` and
``singular_values``.  That is safe because the net owns its layers and
they are read-only, so the cache cannot go stale.  ``loss``, the
derivatives and the curvature bound read ``products``; ``end_to_end``
still returns a fresh array.

The loss is ``0.5 * ||product - target||_F^2``, ``residual_loss`` of the
residual.  Derivative formulas below are exact for this convention; the
second-derivative matrix flattens the layers layer-major and column-major
inside each layer.  Each of its blocks is a sum of two Kronecker-structured
terms, so ``hessian_frob_norm`` gets its Frobenius norm from d x d products
through ||A (x) B||_F = ||A||_F ||B||_F, without forming the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import MAX_HESSIAN_SIDE, MAX_LAYERS, as_mat, as_stack, eye, singular_values


@dataclass(frozen=True)
class DeepLinearNet:
    """L square layers of a common dimension d, held as one read-only
    (L, d, d) float64 array that the net owns.  Any array-like of that
    shape is accepted, a tuple of matrices included, and copied."""

    layers: np.ndarray

    def __post_init__(self):
        # ragged layers raise ValueError here
        layers = as_stack(np.array(self.layers, dtype=float), name="layers")
        if len(layers) > MAX_LAYERS:
            raise ValueError(f"{len(layers)} layers exceeds the bound {MAX_LAYERS}")
        layers.flags.writeable = False
        object.__setattr__(self, "layers", layers)

    @property
    def d(self) -> int:
        return self.layers.shape[1]

    @property
    def L(self) -> int:
        return self.layers.shape[0]

    @cached_property
    def products(self) -> tuple:
        """The (P, S) stacks of ``prefix_suffix_products`` of the layers,
        read-only, formed on first read and kept for the net's lifetime."""
        pre, suf = prefix_suffix_products(self.layers)
        pre.flags.writeable = suf.flags.writeable = False
        return pre, suf

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The read-only (L, d) singular values of the layers, one row per
        layer in descending order, formed on first read and kept."""
        sv = singular_values(self.layers)
        sv.flags.writeable = False
        return sv

    @staticmethod
    def identity(d: int, L: int) -> "DeepLinearNet":
        return DeepLinearNet(np.tile(np.eye(d), (L, 1, 1)))


def _target(net: DeepLinearNet, phi) -> np.ndarray:
    phi = as_mat(phi, name="target")
    if phi.shape != (net.d, net.d):
        raise ValueError("target dimension does not match the network")
    return phi


def prefix_suffix_products(layers: np.ndarray):
    """Stacks P, S of shape (L + 1, d, d) with P[k] = product of the first k
    layers (reversed order) and S[k] = product of layers k+1..L of the
    (L, d, d) stack ``layers``.  P[0] = S[L] = identity."""
    L, d, _ = layers.shape
    pre = np.empty((L + 1, d, d))
    suf = np.empty((L + 1, d, d))
    pre[0] = suf[L] = eye(d)
    for a, b, out in _chain(layers, pre, suf):
        np.dot(a, b, out=out)
    return pre, suf


def _chain(layers, pre, suf):
    """The 2L ``(a, b, out)`` triples whose ``np.dot(a, b, out=out)`` calls,
    in order, fill P[1..L] and S[L-1..0] of ``prefix_suffix_products`` from
    P[0] and S[L].  A list of them serves every step that rewrites
    ``layers`` in place."""
    L = len(layers)
    for k in range(L):
        yield layers[k], pre[k], pre[k + 1]
    for k in range(L - 1, -1, -1):
        yield suf[k + 1], layers[k], suf[k]


def layer_gradients(pre: np.ndarray, suf: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """The (L, d, d) gradient stack G_i = S[i]^T R P[i-1]^T, from the
    products of ``prefix_suffix_products`` and the residual R."""
    return suf[1:].transpose(0, 2, 1) @ residual @ pre[:-1].transpose(0, 2, 1)


def product(layers) -> np.ndarray:
    """The end-to-end map of an (..., L, d, d) array of layers, one per
    leading index: ``layers[..., k, :, :] @ prod`` for k = 0..L-1 from the
    identity, the association of the prefix products."""
    layers = np.asarray(layers)
    prod = eye(layers.shape[-1])
    for k in range(layers.shape[-3]):
        prod = layers[..., k, :, :] @ prod
    return prod


def residual_loss(residual) -> float:
    """The loss of a residual R = product - target: 0.5 ||R||_F^2."""
    return 0.5 * float((residual * residual).sum())


def end_to_end(net: DeepLinearNet) -> np.ndarray:
    """The full product ``layers[L-1] @ ... @ layers[0]``."""
    return product(net.layers)


def loss(net: DeepLinearNet, phi) -> float:
    """Half squared Frobenius distance between the end-to-end map and ``phi``."""
    return residual_loss(net.products[0][net.L] - _target(net, phi))


def full_gradient(net: DeepLinearNet, phi) -> np.ndarray:
    """All layer gradients as one (L, d, d) stack, from the net's
    prefix and suffix products."""
    phi = _target(net, phi)
    pre, suf = net.products
    return layer_gradients(pre, suf, pre[net.L] - phi)


# entries of one chunk: a chunk of ``full_hessian`` holds max(1, _BUDGET //
# d^4) blocks of d^4 entries, one of ``hessian_frob_norm`` max(1, _BUDGET //
# (L d^2)) diagonals of at most L d x d matrices
_BUDGET = 2**15


def full_hessian(net: DeepLinearNet, phi) -> np.ndarray:
    """Full second-derivative matrix, shape (L d^2, L d^2).

    With G_i the gradient of layer i, residual R, M the product of layers
    i+1..j-1 and Q = (S[j]^T R) P[i-1]^T, block (i, j) for i <= j is

        dG_i[a,b] / dW_j[c,e] = (S[i]^T S[j])[a,c] (P[j-1] P[i-1]^T)[e,b]
                                + [i < j] M[e,a] Q[c,b],

    laid out as a (d, d, d, d) array indexed [b, a, e, c], which is the
    column-major flattening of both layers.  S[j]^T R is formed once for
    all j, and the M once for all blocks, one batched product per
    diagonal j - i, in an (L, L, d, d) table of L^2 d^2 entries.  Row i
    builds its L - i + 1 blocks j >= i in chunks of c = max(1, _BUDGET //
    d^4) blocks, each chunk with four batched matmuls and one einsum per
    term.  A row costs O((L - i + 1) d^4) work in ceil((L - i + 1) / c)
    chunks, and no chunk intermediate has more than max(_BUDGET, d^4)
    entries.  The lower off-diagonal blocks are transposes of their upper
    counterparts.  The output itself is capped by MAX_HESSIAN_SIDE.
    """
    d, L = net.d, net.L
    n = L * d * d
    if n > MAX_HESSIAN_SIDE:
        raise ValueError(
            f"second-derivative side {n} exceeds the bound {MAX_HESSIAN_SIDE}"
        )
    phi = _target(net, phi)

    pre, suf = net.products
    pre_t = pre.transpose(0, 2, 1)
    suf_t = suf.transpose(0, 2, 1)
    sr = suf_t @ (pre[L] - phi)
    # mid[m, i-1] is M for block (i, i+m), so the diagonal m = 1 is identity
    mid = np.empty((L, L, d, d))
    mid[1:2] = np.eye(d)
    for m in range(2, L):
        np.matmul(net.layers[m - 1 : L - 1], mid[m - 1, : L - m], out=mid[m, : L - m])
    dd = d * d
    chunk = max(1, _BUDGET // (dd * dd))
    h = np.empty((n, n))
    blocks = h.reshape(L, dd, L, dd)  # blocks[i-1, :, j-1] is block (i, j)
    for i in range(1, L + 1):
        for j0 in range(i, L + 1, chunk):
            j1 = min(j0 + chunk, L + 1)
            row = np.einsum(
                "jac,jeb->jbaec",
                suf_t[i] @ suf[j0:j1],
                pre[j0 - 1 : j1 - 1] @ pre_t[i - 1],
            )
            lo = j0 + (j0 == i)  # the first off-diagonal block of the chunk
            row[lo - j0 :] += np.einsum(
                "jea,jcb->jbaec", mid[lo - i : j1 - i, i - 1], sr[lo:j1] @ pre_t[i - 1]
            )
            row = row.reshape(j1 - j0, dd, dd)
            blocks[lo - 1 : j1 - 1, :, i - 1] = row[lo - j0 :].transpose(0, 2, 1)
            blocks[i - 1, :, j0 - 1 : j1 - 1] = row.transpose(1, 0, 2)
    return h


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each pair of matrices of two stacks."""
    return np.einsum("kab,kab->k", a, b)


def hessian_frob_norm(net: DeepLinearNet, phi) -> float:
    """Frobenius norm of ``full_hessian(net, phi)``, from d x d products only.

    In the notation of ``full_hessian``, block (i, j) for i <= j is an index
    permutation of X (x) Y plus, for i < j, of M (x) Q, with X = S[i]^T S[j]
    and Y = P[j-1] P[i-1]^T.  As ||A (x) B||_F = ||A||_F ||B||_F,

        ||H_ij||_F^2 = ||X||^2 ||Y||^2
                       + [i < j] (||M||^2 ||Q||^2 + 2 <X Q, M^T Y>_F),

    and ||H||_F^2 = sum_i ||H_ii||^2 + 2 sum_{i<j} ||H_ij||^2, since the lower
    blocks are transposes of the upper ones.  The blocks (i, i + m) are
    taken diagonal by diagonal, M from the recurrence of ``full_hessian``,
    in chunks of max(1, _BUDGET // (L d^2)) diagonals with a few batched
    matmuls each.  The work is O(L^2 d^3), and no intermediate has more
    than max(_BUDGET, L d^2) entries, so no size cap applies.
    """
    d, L = net.d, net.L
    phi = _target(net, phi)

    pre, suf = net.products
    pre_t = pre.transpose(0, 2, 1)
    suf_t = suf.transpose(0, 2, 1)
    sr = suf_t @ (pre[L] - phi)
    step = max(1, _BUDGET // (L * d * d))
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
