"""Frobenius projections used by the constrained trainers.

Two feasible sets appear:

* matrices whose quadratic form is at least gamma on every unit vector,
  equivalently min-eig of the symmetric part >= gamma.  The set is convex
  and the Frobenius projection splits orthogonally: clip the symmetric
  part's eigenvalues at gamma, keep the skew part untouched.
* operator-norm balls of radius psi around the identity, with an optional
  symmetric positive semidefinite variant whose eigenvalues are clipped
  onto [max(0, 1 - psi), 1 + psi].  This projection takes one matrix or a
  whole (L, d, d) layer stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import MAX_DIM, as_mat, require_square, singular_values, skew, sym


@dataclass(frozen=True)
class IdentityBall:
    """Operator-norm ball of the given radius around the identity; the
    psd_constrained variant additionally intersects with the symmetric
    positive semidefinite cone."""

    radius: float
    psd_constrained: bool = False

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")


def gamma_margin(phi) -> float:
    """Smallest eigenvalue of the symmetric part: the largest gamma for
    which ``phi`` lies in the gamma-positive set."""
    phi = as_mat(phi)
    require_square(phi)
    return float(np.linalg.eigvalsh(sym(phi))[0])


def project_gamma_positive(a, gamma: float) -> np.ndarray:
    """Nearest (Frobenius) matrix whose symmetric part has min-eig >= gamma.

    The skew part passes through untouched up to the single rounding of the
    final addition; feasible input is returned bitwise as is.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    a = as_mat(a)
    require_square(a)
    s = sym(a)
    w, v = np.linalg.eigh(s)
    if w[0] >= gamma:
        return a.copy()
    clipped = (v * np.maximum(w, gamma)) @ v.T
    return sym(clipped) + skew(a)


def _square_stack(a) -> np.ndarray:
    """``a`` as a float (n, d, d) stack: an (L, d, d) stack as given, one
    square matrix as a stack of one (validated as ``as_mat`` does)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 3:
        arr = as_mat(arr)
        require_square(arr)
        return arr[None]
    n, d, cols = arr.shape
    if n == 0 or d != cols:
        raise ValueError(f"need a nonempty stack of square matrices, got shape {arr.shape}")
    if d > MAX_DIM:
        raise ValueError(f"stack has shape {arr.shape}, beyond the configured bound {MAX_DIM}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("stack has non-finite entries")
    return arr


def project_identity_ball(a, ball: IdentityBall) -> np.ndarray:
    """Frobenius projection onto an IdentityBall of one matrix, or of each
    matrix of an (L, d, d) stack, returned in the input's shape.

    General mode clips the singular values of A - I at the radius.  Whether
    a matrix clips is decided from one values-only SVD of the whole stack,
    the same largest singular value ``op_norm`` gives, and only the matrices
    that clip get a full SVD.  The psd mode requires symmetric input and
    clips eigenvalues onto [max(0, 1 - radius), 1 + radius]; the result then
    commutes with the input.  Feasible matrices are returned unchanged.
    """
    stack = _square_stack(a)
    out = stack.copy()
    d = stack.shape[-1]
    if ball.psd_constrained:
        scale = np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1.0)
        asym = np.linalg.norm(stack - np.swapaxes(stack, 1, 2), axis=(1, 2))
        if np.any(asym > 1e-10 * scale):
            raise ValueError("psd-constrained projection requires symmetric input")
        w, v = np.linalg.eigh(sym(stack))
        lo = max(0.0, 1.0 - ball.radius)
        hi = 1.0 + ball.radius
        clip = (w[:, 0] < lo) | (w[:, -1] > hi)
        if np.any(clip):
            v = v[clip]
            out[clip] = sym((v * np.clip(w[clip], lo, hi)[:, None, :]) @ np.swapaxes(v, 1, 2))
    else:
        e = stack - np.eye(d)
        clip = singular_values(e)[:, 0] > ball.radius
        if np.any(clip):
            u, s, vt = np.linalg.svd(e[clip])
            out[clip] = np.eye(d) + u @ (np.minimum(s, ball.radius)[:, :, None] * vt)
    return out if np.ndim(a) == 3 else out[0]
