"""Dense small-matrix kernel consumed by every other module.

Conventions that the rest of the package relies on:

* Matrices are square float64 ndarrays, treated as immutable once
  validated; a stack holds n of them along a leading axis.
* Dimensions are desk scale.  ``as_mat`` and ``as_stack`` are the one
  place that checks shape, finiteness and the dimension bound below;
  ``DeepLinearNet`` adds the layer-count bound.
* ``is_symmetric`` is the package's one symmetry test.
* ``eye(d)`` is the package's one identity, read-only and made once per d.
* Tolerances are relative to the Frobenius scale of the operands with an
  absolute floor of ``ABS_FLOOR``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericError

# Construction-time bounds.  The assembled second-derivative matrix is
# (L d^2) x (L d^2), so its side length gets its own cap.  It bounds only
# what assembles that matrix or one of that size: ``full_hessian``,
# ``fd_hessian_check`` and the ``record_layers`` snapshot cap.  The
# curvature bound check takes ||H||_F from d x d pieces and has no cap.
MAX_DIM = 16
MAX_LAYERS = 64
MAX_HESSIAN_SIDE = 4096

ABS_FLOOR = 1e-12


def _checked(a, ndim: int, name: str) -> np.ndarray:
    """``a`` as a nonempty float64 array of ``ndim`` axes whose last two are
    equal and at most MAX_DIM, with finite entries."""
    try:
        out = np.asarray(a, dtype=float)
    except TypeError as exc:  # complex entries, a mapping, ...
        raise ValueError(f"{name} is not a real array: {exc}") from exc
    if out.ndim != ndim or out.size == 0 or out.shape[-1] != out.shape[-2]:
        layout = "(d, d)" if ndim == 2 else "(n, d, d)"
        raise ValueError(f"{name} must have a nonempty {layout} shape, got {out.shape}")
    if out.shape[-1] > MAX_DIM:
        raise ValueError(
            f"{name} has shape {out.shape}, beyond the configured bound {MAX_DIM}"
        )
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has non-finite entries")
    return out


def as_mat(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a square float64 matrix and return it."""
    return _checked(a, 2, name)


def as_stack(a, name: str = "stack") -> np.ndarray:
    """Validate ``a`` as a nonempty (n, d, d) float64 stack and return it."""
    return _checked(a, 3, name)


@functools.cache
def eye(d: int) -> np.ndarray:
    """The read-only d x d identity, made on the first call for each d."""
    out = np.eye(d)
    out.flags.writeable = False
    return out


def is_symmetric(a):
    """Whether ``a`` is symmetric: ||A - A^T||_F <= 1e-10 max(||A||_F, 1).
    One answer for a matrix, one per matrix of a stack."""
    a = np.asarray(a, dtype=float)
    asym = np.linalg.norm(a - np.swapaxes(a, -1, -2), axis=(-2, -1))
    return asym <= 1e-10 * np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)


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


def _power(base: float, k: int) -> float:
    """``base ** k``, or inf where the float power overflows."""
    try:
        return base**k
    except OverflowError:
        return math.inf


def frob_norm(a) -> float:
    """Frobenius norm: ``np.linalg.norm``'s where the sum of squares is a
    normal float (the norm at least 2^-511), else ``math.hypot`` of the
    entries, which scales by the largest and so neither underflows nor
    overflows (numpy warns of the overflow first).  NaN gives NaN."""
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    if 2.0**-511 <= norm < math.inf or math.isnan(norm):
        return norm
    return math.hypot(*a.flat)


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
