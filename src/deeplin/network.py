"""Deep linear model with square layers and the population quadratic loss.

Layers are one read-only (L, d, d) float64 stack, and the gradient is a
stack of the same shape.  The model applies layer 1 first, so the
end-to-end map is the reversed matrix product ``layers[L-1] @ ... @
layers[0]``, which ``product`` forms.  Layer indices in the formulas below
are 1-based; P[k] and S[k] are the prefix and suffix products of
``prefix_suffix_products``.

The loss is ``0.5 * ||product - target||_F^2``, ``residual_loss`` of the
residual.  Derivative formulas below are exact for this convention; the
second-derivative matrix flattens the layers layer-major and column-major
inside each layer, and ``hessian_frob_norm`` derives its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .matcore import MAX_HESSIAN_SIDE, MAX_LAYERS, as_mat, as_stack, eye, singular_values


@dataclass(frozen=True)
class DeepLinearNet:
    """L square layers of a common dimension d, held as one read-only
    (L, d, d) float64 array that the net owns.  Any array-like of that
    shape is accepted, a tuple of matrices included, and copied.  The
    layers cannot change, so the cached ``products`` and
    ``singular_values``, which the loss, the derivatives and the curvature
    bound read, cannot go stale."""

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


def loss(net: DeepLinearNet, phi) -> float:
    """Half squared Frobenius distance between the end-to-end map and ``phi``."""
    return residual_loss(net.products[0][net.L] - _target(net, phi))


def full_gradient(net: DeepLinearNet, phi) -> np.ndarray:
    """All layer gradients G_i = S[i]^T R P[i-1]^T, R the residual, as one
    (L, d, d) stack from the net's prefix and suffix products."""
    phi = _target(net, phi)
    pre, suf = net.products
    return suf[1:].transpose(0, 2, 1) @ (pre[net.L] - phi) @ pre[:-1].transpose(0, 2, 1)


# about the entries of one chunk of ``full_hessian`` or ``hessian_frob_norm``
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
    counterparts.  The output itself is capped by MAX_HESSIAN_SIDE;
    ``hessian_frob_norm`` takes its norm without forming it.
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


def _runs(starts, sizes) -> np.ndarray:
    """The read-only runs start, start + 1, ..., start + size - 1 of each
    (start, size), concatenated."""
    out = np.concatenate([np.arange(a, a + n) for a, n in zip(starts, sizes)])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _pair_plan(L: int, chunk: int) -> tuple:
    """Read-only index arrays for the block pairs i < j of an L-layer net,
    which ``hessian_frob_norm`` takes diagonal by diagonal, ``chunk``
    diagonals k = j - i at a time.

    A chunk is ``(i, j, ij, steps)``: per row, i - 1, j - 1 and the flat
    index (i - 1) L + j - 1, then how to form the M of the rows.  Every M
    is a product of two on lower diagonals,

        M_ij = M_{j-h-1, j} M_{i, j-h}    for 0 < h < j - i - 1.

    The first chunk holds the identity on diagonal 1 and layer i + 1 on
    diagonal 2.  For h = 1, 2, 4, ..., ``(lo, hi, left, right)`` in its
    ``steps`` forms its rows lo:hi, diagonals h + 1 < k <= 2h + 1, from the
    rows ``left`` and ``right`` of the chunk itself.  A later chunk takes
    h = ``chunk``: its ``steps`` is ``(left, right)``, rows of diagonal
    ``chunk`` + 1 and of the chunk before.  A plan holds O(L^2) indices;
    the 64 most recent are kept.
    """
    chunks = []
    for k0 in range(1, L, chunk):
        ks = np.arange(k0, min(k0 + chunk, L))
        sizes = L - ks
        start = np.concatenate([[0], np.cumsum(sizes)])  # first row of each diagonal
        i = _runs(np.zeros_like(ks), sizes)
        j = _runs(ks, sizes)
        if k0 == 1:
            steps, h = [], 1
            while h + 2 <= chunk:
                new = ks[h + 1 : 2 * h + 1]
                left = _runs(start[h] + new - h - 1, sizes[new - 1])
                right = _runs(start[new - h - 1], sizes[new - 1])
                steps.append((start[h + 1], start[new[-1]], left, right))
                h *= 2
        else:
            steps = (_runs(ks - chunk - 1, sizes), _runs(prev[ks - k0], sizes))
        prev = start
        ij = i * L + j
        ij.flags.writeable = False
        chunks.append((i, j, ij, tuple(steps)))
    return tuple(chunks)


def hessian_frob_norm(net: DeepLinearNet, phi) -> float:
    """Frobenius norm of ``full_hessian(net, phi)``, from d x d products only.

    In the notation of ``full_hessian``, block (i, j) for i <= j is an index
    permutation of X (x) Y plus, for i < j, of M (x) Q, with X = S[i]^T S[j]
    and Y = P[j-1] P[i-1]^T.  Let A_i = S[i] S[i]^T, B_i = P[i-1]^T P[i-1],
    C_j = R^T A_j R and W_ij = P[j-1] B_i R^T A_j S[i].  By <A (x) B, C (x)
    D>_F = <A, C>_F <B, D>_F, ||X (x) Y||^2 = <A_i, A_j> <B_i, B_j>,
    ||M (x) Q||^2 = ||M||^2 <B_i, C_j> and the cross term is 2 <M, W_ij>.
    The lower blocks are transposes of the upper ones, so

        ||H||_F^2 = sum_{i,j} <A_i, A_j> <B_i, B_j>
                    + 2 sum_{i<j} (||M_ij||^2 <B_i, C_j> + 2 <M_ij, W_ij>).

    The first sum runs over the full square, where the symmetric summand
    counts each pair i != j twice, so the weight 2 off the diagonal comes
    free: it is the entry sum of the elementwise product of two L x L Gram
    matrices.  <B_i, C_j> is one L x L product.  Only the second sum is
    taken pair by pair, diagonal j - i by diagonal in chunks of max(1,
    _BUDGET // (L d^2)) diagonals: the M by doubling (``_pair_plan``), the
    cross term by three batched matmuls.  The work is O(L^2 d^3), and no
    intermediate has more than max(_BUDGET, L d^2) entries, so no size cap
    applies.
    """
    d, L = net.d, net.L
    phi = _target(net, phi)

    pre, suf = net.products
    r = pre[L] - phi
    p, s = pre[:-1], suf[1:]  # P[i-1] and S[i], layer i at row i - 1
    a = s @ s.transpose(0, 2, 1)
    b = p.transpose(0, 2, 1) @ p
    af, bf = a.reshape(L, -1), b.reshape(L, -1)
    total = float(((af @ af.T) * (bf @ bf.T)).sum())
    bc = (bf @ (r.T @ a @ r).reshape(L, -1).T).ravel()
    f = b @ r.T
    chunk = max(1, min(L - 1, _BUDGET // (L * d * d)))
    for n, (i, j, ij, steps) in enumerate(_pair_plan(L, chunk)):
        if n == 0:
            mid = np.empty((len(i), d, d))
            mid[: L - 1] = np.eye(d)
            if chunk > 1:
                mid[L - 1 : 2 * L - 3] = net.layers[1 : L - 1]
            for lo, hi, left, right in steps:
                np.matmul(mid.take(left, 0), mid.take(right, 0), out=mid[lo:hi])
            # diagonal chunk + 1, from diagonal chunk
            jump = net.layers[chunk : L - 1] @ mid[len(i) - L + chunk : len(i) - 1]
        else:
            mid = jump.take(steps[0], 0) @ mid.take(steps[1], 0)
        w = p.take(j, 0) @ f.take(i, 0) @ a.take(j, 0) @ s.take(i, 0)
        mid_sq = np.einsum("kab,kab->k", mid, mid)
        total += 2.0 * (float(mid_sq @ bc.take(ij)) + 2.0 * float(np.vdot(mid, w)))
    return math.sqrt(total)
