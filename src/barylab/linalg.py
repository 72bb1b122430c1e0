"""SPD matrix helpers built on eigendecomposition of symmetrized inputs."""

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
    """Square root and inverse square root from one decomposition."""
    w, v = spd_eigh(m)
    s = np.sqrt(w)
    return (v * s) @ v.T, (v / s) @ v.T


def spd_sqrt_batch(ms: np.ndarray) -> np.ndarray:
    """Batched SPD square root over the leading axis."""
    w, v = np.linalg.eigh(sym(ms))
    if np.min(w) <= SPD_EIG_FLOOR:
        raise NotPositiveDefinite(
            f"eigenvalue {np.min(w):.3e} <= {SPD_EIG_FLOOR} in batched SPD sqrt"
        )
    return np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(w), v)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))
