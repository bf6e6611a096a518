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

from .matcore import as_mat, as_stack, eye, is_symmetric, singular_values, skew, sym


@dataclass(frozen=True)
class IdentityBall:
    """Operator-norm ball of the given radius around the identity; the
    psd_constrained variant additionally intersects with the symmetric
    positive semidefinite cone."""

    radius: float
    psd_constrained: bool = False

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError("radius must be nonnegative")


def gamma_margin(phi) -> float:
    """Smallest eigenvalue of the symmetric part: the largest gamma for
    which ``phi`` lies in the gamma-positive set."""
    phi = as_mat(phi)
    return float(np.linalg.eigvalsh(sym(phi))[0])


def project_gamma_positive(a, gamma: float) -> np.ndarray:
    """Nearest (Frobenius) matrix whose symmetric part has min-eig >= gamma.

    The skew part passes through untouched up to the single rounding of the
    final addition; feasible input is returned bitwise as is.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    return _gamma_kernel(as_mat(a), gamma)


def _gamma_kernel(a: np.ndarray, gamma: float) -> np.ndarray:
    """``project_gamma_positive`` of a finite square matrix, unchecked."""
    s = sym(a)
    w, v = np.linalg.eigh(s)
    if w[0] >= gamma:
        return a.copy()
    clipped = (v * np.maximum(w, gamma)) @ v.T
    return sym(clipped) + skew(a)


def project_identity_ball(a, ball: IdentityBall) -> np.ndarray:
    """Frobenius projection onto an IdentityBall of one matrix, or of each
    matrix of an (L, d, d) stack, returned in the input's shape.

    General mode clips the singular values of A - I at the radius;
    ``_ball_kernel`` says which matrices get an SVD.  The psd mode requires
    symmetric input and clips eigenvalues onto [max(0, 1 - radius),
    1 + radius]; the result then commutes with the input.  Feasible
    matrices are returned unchanged.
    """
    one = np.ndim(a) != 3
    stack = as_mat(a)[None] if one else as_stack(a)
    if ball.psd_constrained:
        if not np.all(is_symmetric(stack)):
            raise ValueError("psd-constrained projection requires symmetric input")
        out = stack.copy()
        w, v = np.linalg.eigh(sym(stack))
        lo = max(0.0, 1.0 - ball.radius)
        hi = 1.0 + ball.radius
        clip = (w[:, 0] < lo) | (w[:, -1] > hi)
        if np.any(clip):
            v = v[clip]
            out[clip] = sym((v * np.clip(w[clip], lo, hi)[:, None, :]) @ np.swapaxes(v, 1, 2))
    else:
        out = _ball_kernel(stack, ball.radius)
        if out is stack:
            out = stack.copy()
    return out[0] if one else out


def _ball_kernel(stack: np.ndarray, radius: float) -> np.ndarray:
    """The general-mode ball projection of a finite (n, d, d) stack,
    unchecked: ``stack`` itself when no matrix clips, else a copy with the
    clipping matrices replaced.

    Since ||A - I||_2 <= ||A - I||_F, only matrices whose squared Frobenius
    norm (one ``einsum`` per matrix) exceeds (radius (1 - 1e-10))^2 get the
    values-only SVD that decides the clip.  The computed sum of squares and
    the computed largest singular value are each within a few hundred ulps
    of their exact values at d <= 16, far inside that margin, so no matrix
    below it could clip; the rest go through the same LAPACK call on the
    same bytes, and every decision is the SVD's.  A sum of squares that
    overflows is inf and gets the SVD too.  Outside radius [1e-100, 1e100]
    the squares may underflow and the threshold's square may overflow, so
    there every matrix gets the SVD.
    """
    eye_d = eye(stack.shape[-1])
    e = stack - eye_d
    if 1e-100 <= radius <= 1e100:
        clip = np.einsum("kab,kab->k", e, e) > (radius * (1.0 - 1e-10)) ** 2
    else:
        clip = np.ones(len(e), dtype=bool)
    if clip.all():
        clip = singular_values(e)[:, 0] > radius
    elif clip.any():
        clip[clip] = singular_values(e[clip])[:, 0] > radius
    if not clip.any():
        return stack
    out = stack.copy()
    u, s, vt = np.linalg.svd(e[clip])
    out[clip] = eye_d + u @ (np.minimum(s, radius)[:, :, None] * vt)
    return out
