"""Principal orthogonal roots and the balanced factorization.

``balanced_factorization(a, L)`` writes an invertible matrix as a product of
L factors that all share the singular values ``sigma(a) ** (1/L)``.  The
construction takes the polar form a = r p, the principal roots of each part,
and conjugates the scaling root by powers of the rotation root so the pieces
telescope.  One SVD a = U S V^T gives both parts, r = U V^T and
p = V S V^T, and with them the symmetric root p^(1/L) = V S^(1/L) V^T
(Higham, Functions of Matrices, 2008, ch. 7-8).

Principal roots are real matrices.  The orthogonal root comes from the real
Schur form: rotation blocks have their angles divided by L, so an eigenvalue
at -1 (rotation by pi) has no real principal root and is rejected loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

from .errors import NoRealRootError, NumericError, SingularInputError
from .matcore import as_mat, cond_estimate, frob_norm, rotation, singular_values, sym

ORTHO_TOL = 1e-8
# Schur block angles within this of +-pi count as an eigenvalue at -1.
NEG_ONE_ANGLE_TOL = 1e-8
SPD_FLOOR = 1e-12
RECON_TOL = 1e-8


@dataclass(frozen=True)
class FactorizationResult:
    """Factors as one (L, d, d) stack in product order (factors[0]
    leftmost), the reconstruction residual relative to the input's
    Frobenius norm, and the balanced singular values ``sigma(a) ** (1/L)``
    in descending order.
    """

    factors: np.ndarray
    reconstruction_residual: float
    root_singular_values: np.ndarray

    @property
    def balance_residual(self) -> float:
        """Largest absolute deviation of any factor's singular values from
        the balanced values; computed on each read (one batched SVD)."""
        return float(np.max(np.abs(singular_values(self.factors) - self.root_singular_values)))


def principal_root_orthogonal(r, L: int) -> np.ndarray:
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


def balanced_factorization(a, L: int) -> FactorizationResult:
    """Split ``a`` into L factors with identical singular values.

    With a = r p polar, factor i is ``r1 @ (rk @ p1 @ rk.T)`` where r1, p1
    are the principal L-th roots and rk = r1 ** (L - i); the conjugations
    cancel in the product.  Both roots come from the one SVD a = U S V^T:
    r1 is the orthogonal root of U V^T and p1 = V S^(1/L) V^T.  Factors are
    returned as one stack in product order, so ``factors[0] @ ... @
    factors[-1]`` reconstructs ``a``.  A numerically singular input raises
    SingularInputError; a failed reconstruction raises NumericError.
    """
    a = as_mat(a)
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError("L must be a positive integer")
    try:
        u, s, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"svd failed in polar decomposition: {exc}; cond~{cond_estimate(a):.3e}"
        ) from exc
    if s[-1] <= SPD_FLOOR * max(s[0], 1.0):
        raise SingularInputError(
            f"input is numerically singular (sigma_min={s[-1]:.3e}); "
            "polar factors would not support root-taking"
        )
    r_root = principal_root_orthogonal(u @ vt, L)
    s_root = s ** (1.0 / L)
    p_root = sym((vt.T * s_root) @ vt)

    powers = np.empty((L,) + a.shape)
    powers[0] = np.eye(a.shape[0])
    for k in range(1, L):
        np.matmul(powers[k - 1], r_root, out=powers[k])
    # factor i conjugates by r_root ** (L - i)
    rk = powers[::-1]
    factors = r_root @ rk @ p_root @ rk.transpose(0, 2, 1)

    recon = frob_norm(reduce(np.matmul, factors) - a) / max(frob_norm(a), 1.0)
    if recon > RECON_TOL:
        raise NumericError(
            f"balanced factorization failed to reconstruct the input "
            f"(relative residual {recon:.3e}, d={a.shape[0]}, L={L}, "
            f"cond~{cond_estimate(a):.3e})"
        )
    return FactorizationResult(factors, recon, s_root)
