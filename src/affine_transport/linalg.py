"""Symmetric matrix roots and the sample-matrix gate.

All routines work on plain float64 numpy arrays. Symmetric inputs are checked
against a relative tolerance and positive semi-definiteness is enforced by
clamping small eigenvalues. Every function that takes sample sets turns them
into (n, d) matrices through ``sample_matrix`` or ``sample_pair``, so a given
bad input raises the same error whichever entry point it reaches.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NonFinite,
    NotSymmetric,
    PairingMismatch,
    SingularMatrix,
)

__all__ = ["spd_sqrt"]

# relative tolerances for symmetry, indefiniteness, and rank checks
SYMMETRY_TOL = 1e-10
INDEFINITE_TOL = 1e-6
CLAMP_TOL = 1e-12
SINGULAR_RATIO = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous float64 array that nothing else can write.

    An array that owns its data and is already read-only, as a builder hands
    over a fresh one, is kept as it is. Any other array, a caller's writable
    one or a view of one, is copied.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.base is not None or (out is a and a.flags.writeable):
        out = out.copy()
    out.setflags(write=False)
    return out


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains NaN or infinite entries")


def sample_matrix(a, name: str) -> np.ndarray:
    """``a`` as a float64 (n, d) sample matrix with rows as observations.

    A 1-D array is read as n scalar samples (one column). Raises
    DimensionMismatch for any other shape that is not 2-D and NonFinite for a
    NaN or infinite entry.
    """
    x = np.asarray(a, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise DimensionMismatch(f"{name} must be an (n, d) matrix, got shape {x.shape}")
    _require_finite(x, name)
    return x


def sample_pair(x, y, names: tuple[str, str] = ("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    """Both sets through ``sample_matrix``, then checked to be of equal count
    (PairingMismatch) and equal width (DimensionMismatch)."""
    xs = sample_matrix(x, names[0])
    ys = sample_matrix(y, names[1])
    if xs.shape[0] != ys.shape[0]:
        raise PairingMismatch(f"sample counts differ: {xs.shape[0]} vs {ys.shape[0]}")
    if xs.shape[1] != ys.shape[1]:
        raise DimensionMismatch(f"sample widths differ: {xs.shape[1]} vs {ys.shape[1]}")
    return xs, ys


def _first(bad, *values) -> tuple[float, ...] | None:
    """The entries of ``values`` where ``bad`` is first True, or None if it
    never is. ``bad`` and ``values`` share one shape, a stack's or ()."""
    if not np.any(bad):
        return None
    i = np.argmax(bad)
    return tuple(float(np.ravel(v)[i]) for v in values)


def check_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    """Raise NotSymmetric unless max|M - M^T| <= tol * (1 + max|M|).

    ``m`` is one matrix or a stack (..., d, d); the first matrix of the stack
    that fails is the one reported, with the message it raises on its own.
    """
    if not m.size:
        return
    asym = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1))
    scale = np.abs(m).max(axis=(-2, -1))
    bad = _first(asym > SYMMETRY_TOL * (1.0 + scale), asym)
    if bad:
        raise NotSymmetric(f"{name} is not symmetric: max asymmetry {bad[0]:.3e}")


def _checked_eigh(m, name: str):
    """Eigenvalues, eigenvectors and max(lambda_max, 0) of a symmetric PSD
    matrix or of each matrix in a stack (..., d, d)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NotSymmetric(f"{name} must be a square matrix, got shape {m.shape}")
    _require_finite(m, name)
    check_symmetric(m, name)
    w, v = np.linalg.eigh(m)
    scale = np.maximum(w[..., -1], 0.0)
    bad = _first(w[..., 0] < -INDEFINITE_TOL * scale, w[..., 0], scale)
    if bad:
        raise IndefiniteMatrix(
            f"{name} has eigenvalue {bad[0]:.3e} below -{INDEFINITE_TOL:g} * {bad[1]:.3e}"
        )
    return w, v, scale


def _root(m, name: str, *, require_invertible: bool) -> np.ndarray:
    w, v, scale = _checked_eigh(m, name)
    if require_invertible:
        lo = np.maximum(w[..., 0], 0.0)
        bad = _first((scale <= 0.0) | (lo < SINGULAR_RATIO * scale), lo, scale)
        if bad:
            raise SingularMatrix(
                f"{name} is numerically singular: eigenvalue ratio {bad[0]:.3e} / {bad[1]:.3e}"
            )
    roots = np.sqrt(np.maximum(w, CLAMP_TOL * np.asarray(scale)[..., None]))
    s = (v * roots[..., None, :]) @ np.swapaxes(v, -1, -2)
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def spd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric positive semi-definite matrix.

    Eigenvalues below ``CLAMP_TOL * lambda_max`` (including small negative
    rounding noise) are clamped up to that threshold before taking roots, so
    the result is always symmetric PSD.

    Parameters
    ----------
    m : (d, d) array
        Symmetric PSD matrix, or a stack (..., d, d) of them.

    Returns
    -------
    array of the shape of ``m``
        Symmetric PSD square root S with S @ S close to ``m``.

    Raises
    ------
    NotSymmetric
        If ``m`` is not symmetric within tolerance.
    IndefiniteMatrix
        If an eigenvalue is below ``-1e-6 * lambda_max``.

    In a stack, each check reports the first matrix that fails it.
    """
    return _root(m, "spd_sqrt input", require_invertible=False)

