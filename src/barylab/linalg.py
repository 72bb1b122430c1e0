"""SPD matrix helpers built on eigendecomposition of symmetrized inputs, and
the per-problem weighted sums of stacked solves."""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

# SPD is an invariant, not a suggestion: eigenvalues below this floor raise.
SPD_EIG_FLOOR = 1e-12


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetrize, batched over leading axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def spd_check(m: np.ndarray, what: str = "matrix") -> None:
    """Raise unless ``m`` is symmetric to 1e-12 with eigenvalues above the floor."""
    if np.max(np.abs(m - np.swapaxes(m, -1, -2))) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise NotPositiveDefinite(f"{what} is not symmetric")
    w = np.linalg.eigvalsh(sym(m))
    if np.min(w) <= SPD_EIG_FLOOR:
        raise NotPositiveDefinite(f"{what} has eigenvalue {np.min(w):.3e} <= {SPD_EIG_FLOOR}")


def spd_eigh(m: np.ndarray):
    """Eigendecomposition of the symmetrized input, flooring at SPD_EIG_FLOOR."""
    w, v = np.linalg.eigh(sym(m))
    if np.min(w) <= SPD_EIG_FLOOR:
        raise NotPositiveDefinite(
            f"eigenvalue {np.min(w):.3e} <= {SPD_EIG_FLOOR} in SPD operation"
        )
    return w, v


def spd_sqrt_inv_sqrt(m: np.ndarray):
    """Square root and inverse square root from one decomposition, batched
    over leading axes."""
    w, v = spd_eigh(m)
    s = np.sqrt(w)[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    return (v * s) @ vt, (v / s) @ vt


def spd_sqrt_batch(ms: np.ndarray) -> np.ndarray:
    """Batched SPD square root over the leading axis."""
    w, v = np.linalg.eigh(sym(ms))
    if np.min(w) <= SPD_EIG_FLOOR:
        raise NotPositiveDefinite(
            f"eigenvalue {np.min(w):.3e} <= {SPD_EIG_FLOOR} in batched SPD sqrt"
        )
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def positive_qr_q(z: np.ndarray) -> np.ndarray:
    """Q factor of z = QR with a positive diagonal in R, batched over leading axes.

    Classical Gram-Schmidt over the columns with one reorthogonalisation pass
    ("twice is enough"), so Q is orthogonal to rounding even for nearly
    dependent columns.  On a standard Gaussian z this Q is Haar distributed on
    O(d) (Mezzadri 2007, Notices AMS 54); for d = 1 it is sign(z).
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    # cols[j, :, n] is column j of matrix n: the batch axis is innermost
    cols = z.reshape(-1, d, d).transpose(2, 1, 0).copy()
    for j in range(d):
        v = cols[j]
        for _ in range(2 if j else 0):
            coefs = [_column_dot(cols[k], v) for k in range(j)]
            for k, c in enumerate(coefs):
                v -= c * cols[k]
        v /= np.sqrt(_column_dot(v, v))
    # contiguous, so that the callers' matmuls run the BLAS path
    return np.ascontiguousarray(cols.transpose(2, 1, 0)).reshape(z.shape)


def _column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching columns of (d, n) arrays, summed in index
    order so that no column's value depends on the batch around it."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out


def frobenius(m: np.ndarray):
    """Frobenius norm over the last two axes."""
    return np.sqrt(np.sum(m * m, axis=(-2, -1)))


def weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i w_i values_i over the support axis, for weights of shape (..., n)
    and values of shape (..., n, *rest).

    One matrix product per problem, so no problem's sum depends on the
    problems stacked around it.
    """
    weights = np.asarray(weights, dtype=float)
    lead, n = weights.shape[:-1], weights.shape[-1]
    rest = values.shape[len(lead) + 1:]
    flat = values.reshape(lead + (n, -1))
    return (weights[..., None, :] @ flat).reshape(lead + rest)
