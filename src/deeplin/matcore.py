"""Dense small-matrix kernel consumed by every other module.

Conventions that the rest of the package relies on:

* Matrices are float64 ndarrays, treated as immutable once validated.
* Dimensions are desk scale.  ``as_mat`` and the domain constructors enforce
  the bounds below at construction time.
* Tolerances are relative to the Frobenius scale of the operands with an
  absolute floor of ``ABS_FLOOR``.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# Construction-time bounds.  The full second-derivative matrix is
# (L d^2) x (L d^2), so its side length gets its own cap.
MAX_DIM = 16
MAX_LAYERS = 64
MAX_HESSIAN_SIDE = 4096

ABS_FLOOR = 1e-12


def as_mat(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a dense 2-D float64 matrix and return it.

    Rejects non-2D input, non-finite entries, and dimensions beyond the
    configured bound.
    """
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] > MAX_DIM or out.shape[1] > MAX_DIM:
        raise ValueError(
            f"{name} has shape {out.shape}, beyond the configured bound {MAX_DIM}"
        )
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


def require_square(a: np.ndarray, name: str = "matrix") -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def sym(a) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    a = np.asarray(a, dtype=float)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def skew(a) -> np.ndarray:
    """Skew-symmetric part of a matrix, or of each matrix of a stack."""
    a = np.asarray(a, dtype=float)
    return (a - np.swapaxes(a, -1, -2)) / 2.0


def rotation(theta: float) -> np.ndarray:
    """2x2 counterclockwise rotation by ``theta`` radians."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def frob_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def cond_estimate(a) -> float:
    """2-norm condition estimate; inf when it cannot be computed."""
    try:
        return float(np.linalg.cond(np.asarray(a, dtype=float)))
    except np.linalg.LinAlgError:
        return float("inf")


def singular_values(a) -> np.ndarray:
    """Singular values in descending order, one row per matrix of a stack."""
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"singular value computation failed: {exc}; cond~{cond_estimate(a):.3e}"
        ) from exc


def op_norm(a) -> float:
    """Spectral (operator 2-) norm."""
    return float(singular_values(a)[0])
