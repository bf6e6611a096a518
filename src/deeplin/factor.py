"""The balanced factorization of an invertible matrix into L factors that
share the singular values ``sigma(a) ** (1/L)``; ``balanced_factorization``
derives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NoRealRootError, NumericError, SingularInputError, _conforms
from .matcore import MAX_LAYERS, as_mat, cond_estimate, eye, frob_norm, singular_values, sym

# Eigenvalue angles within this of +-pi count as an eigenvalue at -1.
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


def _orthogonal_powers(r: np.ndarray, L: int) -> np.ndarray:
    """The principal powers r ** (k/L), k = 0..L, of an orthogonal r as one
    (L + 1, d, d) stack.  r is normal, so with r = V diag(lambda) V^-1,
    r ** x is sum_j lambda_j ** x v_j (V^-1)_j, each eigenvalue e^(i theta)
    going to e^(i x theta), and all are rows of one complex product.  An
    eigenvalue at -1 has no real principal root and raises NoRealRootError.
    Entry 0 is exactly I, and at L == 1 entry 1 is r itself."""
    d = len(r)
    if L == 1:
        return np.stack([eye(d), r])
    try:
        lam, v = np.linalg.eig(r)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eig failed in orthogonal root: {exc}") from exc
    theta = np.angle(lam)
    near_pi = np.flatnonzero(np.pi - np.abs(theta) < NEG_ONE_ANGLE_TOL)
    if near_pi.size:
        j = near_pi[0]
        angle = "" if lam[j].imag == 0.0 else f" (rotation angle {theta[j]:.6f})"
        raise NoRealRootError(f"eigenvalue at -1{angle}; no real principal root exists")
    outer = (v.T[:, :, None] * v_inv[:, None, :]).reshape(d, d * d)
    lam_x = np.exp(np.arange(L + 1)[:, None] / L * np.log(lam + 0j))
    powers = np.ascontiguousarray((lam_x @ outer).real).reshape(L + 1, d, d)
    powers[0] = eye(d)
    return powers


def balanced_factorization(a, L: int) -> FactorizationResult:
    """Split ``a`` into L factors with identical singular values.

    With the polar form a = r p, factor i is ``r1 @ (rk @ p1 @ rk.T)``,
    where r1 and p1 are the principal L-th roots of r and p and
    rk = r ** ((L - i)/L); the conjugations cancel in the product.  One SVD
    a = U S V^T gives both polar parts, r = U V^T and p = V S V^T, and the
    symmetric root p1 = V S^(1/L) V^T; ``_orthogonal_powers`` gives every
    power of r from one eigendecomposition (Higham, Functions of Matrices,
    2008, ch. 7-8).  Factors are returned as one stack in product order, so
    ``factors[0] @ ... @ factors[-1]`` reconstructs ``a``.  L outside
    [1, MAX_LAYERS] raises ValueError, a numerically singular input
    SingularInputError, a rotation part with an eigenvalue at -1 (no real
    principal root) NoRealRootError, and a failed reconstruction NumericError.
    """
    a = as_mat(a)
    if not (_conforms(L, int) and 1 <= L <= MAX_LAYERS):
        raise ValueError(f"L must be an integer in [1, {MAX_LAYERS}], got {L!r}")
    return _balanced(a, L)


def _balanced(a: np.ndarray, L: int) -> FactorizationResult:
    """``balanced_factorization`` of a finite square matrix and a positive
    integer L, unchecked; the singular-input and reconstruction checks stay."""
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
    powers = _orthogonal_powers(u @ vt, L)
    s_root = s ** (1.0 / L)
    p_root = sym((vt.T * s_root) @ vt)
    # factor i conjugates by r ** ((L - i)/L)
    rk = powers[L - 1 :: -1]
    factors = powers[1] @ rk @ p_root @ rk.transpose(0, 2, 1)

    recon = frob_norm(reduce(np.matmul, factors) - a) / max(frob_norm(a), 1.0)
    if not recon <= RECON_TOL:  # NaN too
        raise NumericError(
            f"balanced factorization failed to reconstruct the input "
            f"(relative residual {recon:.3e}, d={a.shape[0]}, L={L}, "
            f"cond~{cond_estimate(a):.3e})"
        )
    return FactorizationResult(factors, recon, s_root)
