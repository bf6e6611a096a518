"""Deep linear model with square layers and the population quadratic loss.

The model applies layer 1 first, so the end-to-end map is the reversed
matrix product ``layers[L-1] @ ... @ layers[0]``.  Partial products use the
1-based notation ``partial_product(net, i, j)`` = layer j down to layer i,
with the empty-product convention (identity when i > j).

The loss is ``0.5 * ||product - target||_F^2``.  Derivative formulas below
are exact for this convention; the flattening used throughout is layer-major
with column-major ``vec`` inside each layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import as_mat, commutation_matrix, kron, require_square, vec


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

    @staticmethod
    def scaled_identity(d: int, L: int, scale: float) -> "DeepLinearNet":
        return DeepLinearNet(tuple(scale * np.eye(d) for _ in range(L)))


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


def partial_product(net: DeepLinearNet, i: int, j: int) -> np.ndarray:
    """Product of layers i..j applied in order (layer j leftmost); identity
    when i > j.  Indices are 1-based; i may be L+1 and j may be 0."""
    L = net.L
    if not 1 <= i <= L + 1:
        raise ValueError(f"start index {i} out of range for {L} layers")
    if not 0 <= j <= L:
        raise ValueError(f"end index {j} out of range for {L} layers")
    out = np.eye(net.d)
    for k in range(i - 1, j):
        out = net.layers[k] @ out
    return out


def loss(net: DeepLinearNet, phi) -> LossReport:
    """Half squared Frobenius distance between the end-to-end map and ``phi``."""
    phi = as_mat(phi, name="target")
    if phi.shape != (net.d, net.d):
        raise ValueError("target dimension does not match the network")
    residual = end_to_end(net) - phi
    return LossReport(0.5 * float(np.sum(residual * residual)), residual)


def layer_gradient(net: DeepLinearNet, phi, i: int) -> np.ndarray:
    """Gradient of the loss with respect to layer i (1-based)."""
    if not 1 <= i <= net.L:
        raise ValueError(f"layer index {i} out of range")
    phi = as_mat(phi, name="target")
    pre, suf = prefix_suffix_products(net.layers)
    residual = pre[net.L] - phi
    return suf[i].T @ residual @ pre[i - 1].T


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

    Assembled blockwise from the exact Kronecker expressions for mixed layer
    derivatives; the lower off-diagonal blocks are transposes of their upper
    counterparts.  Cost grows like d^6 per block, fine at desk scale but
    capped by MAX_HESSIAN_SIDE.
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
    t_dd = commutation_matrix(d, d)
    eye_d = np.eye(d)
    eye_d2 = np.eye(d * d)
    # Common left factor of every block: contraction with vec of the identity
    # composed with the middle commutation.
    lead = kron(eye_d2, vec(eye_d).T) @ kron(eye_d, kron(t_dd, eye_d))

    dd = d * d
    h = np.zeros((n, n))
    for i in range(1, L + 1):
        left_i = lead @ kron(vec(pre[i - 1].T), eye_d2)
        for j in range(i, L + 1):
            if j == i:
                core = kron(suf[i].T @ suf[i], pre[i - 1].T) @ t_dd
            else:
                mid = partial_product(net, i + 1, j - 1)
                core = kron(suf[i].T @ suf[j], pre[j - 1].T) @ t_dd
                core += kron(mid.T, residual.T @ suf[j])
            block = left_i @ core
            h[(i - 1) * dd : i * dd, (j - 1) * dd : j * dd] = block
            if j != i:
                h[(j - 1) * dd : j * dd, (i - 1) * dd : i * dd] = block.T
    return h
