"""Deep linear model with square layers and the population quadratic loss.

The model applies layer 1 first, so the end-to-end map is the reversed
matrix product ``layers[L-1] @ ... @ layers[0]``.  Layer indices in the
formulas below are 1-based; P[k] and S[k] are the prefix and suffix
products of ``prefix_suffix_products``.

The loss is ``0.5 * ||product - target||_F^2``.  Derivative formulas below
are exact for this convention; the flattening used throughout is layer-major
and column-major inside each layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import as_mat, require_square


@dataclass(frozen=True)
class DeepLinearNet:
    """Tuple of L square layers of a common dimension d."""

    layers: tuple

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("need at least one layer")
        if len(self.layers) > matcore.MAX_LAYERS:
            raise ValueError(
                f"{len(self.layers)} layers exceeds the bound {matcore.MAX_LAYERS}"
            )
        validated = []
        d = None
        for k, layer in enumerate(self.layers):
            m = as_mat(layer, name=f"layer {k + 1}")
            dk = require_square(m, name=f"layer {k + 1}")
            if d is None:
                d = dk
            elif dk != d:
                raise ValueError("layers must share one square dimension")
            validated.append(m)
        object.__setattr__(self, "layers", tuple(validated))

    @property
    def d(self) -> int:
        return self.layers[0].shape[0]

    @property
    def L(self) -> int:
        return len(self.layers)

    @staticmethod
    def identity(d: int, L: int) -> "DeepLinearNet":
        return DeepLinearNet(tuple(np.eye(d) for _ in range(L)))


@dataclass(frozen=True)
class LossReport:
    loss: float
    residual: np.ndarray


@dataclass(frozen=True)
class GradientSet:
    """Per-layer gradient matrices plus the layer-major flattening."""

    layers: tuple

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate([g.ravel(order="F") for g in self.layers])

    @property
    def squared_norm(self) -> float:
        return float(sum(np.sum(g * g) for g in self.layers))


def prefix_suffix_products(layers):
    """Stacks P, S of shape (L + 1, d, d) with P[k] = product of the first k
    layers (reversed order) and S[k] = product of layers k+1..L.
    P[0] = S[L] = identity.  ``layers`` is a sequence of L matrices or an
    (L, d, d) stack."""
    L = len(layers)
    d = layers[0].shape[0]
    pre = np.empty((L + 1, d, d))
    suf = np.empty((L + 1, d, d))
    pre[0] = suf[L] = np.eye(d)
    for k in range(L):
        np.matmul(layers[k], pre[k], out=pre[k + 1])
    for k in range(L - 1, -1, -1):
        np.matmul(suf[k + 1], layers[k], out=suf[k])
    return pre, suf


def end_to_end(net: DeepLinearNet) -> np.ndarray:
    """The full product ``layers[L-1] @ ... @ layers[0]``."""
    pre, _ = prefix_suffix_products(net.layers)
    return pre[net.L]


def loss(net: DeepLinearNet, phi) -> LossReport:
    """Half squared Frobenius distance between the end-to-end map and ``phi``."""
    phi = as_mat(phi, name="target")
    if phi.shape != (net.d, net.d):
        raise ValueError("target dimension does not match the network")
    residual = end_to_end(net) - phi
    return LossReport(0.5 * float(np.sum(residual * residual)), residual)


def full_gradient(net: DeepLinearNet, phi) -> GradientSet:
    """All layer gradients computed from one pass of partial products."""
    phi = as_mat(phi, name="target")
    if phi.shape != (net.d, net.d):
        raise ValueError("target dimension does not match the network")
    pre, suf = prefix_suffix_products(net.layers)
    residual = pre[net.L] - phi
    grads = tuple(
        suf[k + 1].T @ residual @ pre[k].T for k in range(net.L)
    )
    return GradientSet(grads)


def full_hessian(net: DeepLinearNet, phi) -> np.ndarray:
    """Full second-derivative matrix, shape (L d^2, L d^2).

    With G_i the gradient of layer i, residual R, M the product of layers
    i+1..j-1 and Q = S[j]^T R P[i-1]^T, block (i, j) for i <= j is

        dG_i[a,b] / dW_j[c,e] = (S[i]^T S[j])[a,c] (P[j-1] P[i-1]^T)[e,b]
                                + [i < j] M[e,a] Q[c,b],

    laid out as a (d, d, d, d) array indexed [b, a, e, c], which is the
    column-major flattening of both layers.  M is carried along j with one
    product per block.  The lower off-diagonal blocks are transposes of
    their upper counterparts.  Each block costs O(d^4) and no intermediate
    has more than d^4 entries; the output itself is capped by
    MAX_HESSIAN_SIDE.
    """
    d, L = net.d, net.L
    n = L * d * d
    if n > matcore.MAX_HESSIAN_SIDE:
        raise ValueError(
            f"second-derivative side {n} exceeds the bound {matcore.MAX_HESSIAN_SIDE}"
        )
    phi = as_mat(phi, name="target")
    if phi.shape != (d, d):
        raise ValueError("target dimension does not match the network")

    pre, suf = prefix_suffix_products(net.layers)
    residual = pre[L] - phi
    dd = d * d
    h = np.empty((n, n))
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
