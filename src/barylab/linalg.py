"""SPD matrix helpers on symmetrized inputs: eigendecompositions, square
roots (closed form for 3x3), and the per-problem weighted sums of stacked
solves."""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

# SPD is an invariant, not a suggestion: eigenvalues below this floor raise.
SPD_EIG_FLOOR = 1e-12

# a 3x3 root is taken in closed form only where the invariants certify
# i1 i2 <= SQRT3_CERT_BOUND i3, which bounds the condition number by the same
# constant; there it agrees with eigh to 1e-13 relative, while its error grows
# with the condition number beyond
SQRT3_CERT_BOUND = 1e3

# Newton steps for the trace of a 3x3 root; a row still moving after this many
# takes the eigh route (certified rows settle within 10)
SQRT3_NEWTON_CAP = 50


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


def spd_sqrt_batch(ms: np.ndarray) -> np.ndarray:
    """Batched SPD square root over leading axes.

    3x3 matrices take the closed form of ``_sqrt_3x3`` row by row wherever
    their invariants certify it, and the eigendecomposition elsewhere; other
    sizes always take the eigendecomposition.  Either way no row's root
    depends on the rows around it.
    """
    a = sym(ms)
    if a.shape[-2:] != (3, 3):
        return _eigh_sqrt(a)
    flat = a.reshape(-1, 3, 3)
    root, closed = _sqrt_3x3(flat)
    if not closed.all():
        root[~closed] = _eigh_sqrt(flat[~closed])
    return root.reshape(a.shape)


def _eigh_sqrt(a: np.ndarray) -> np.ndarray:
    """Square roots of symmetric ``a`` from one eigendecomposition each,
    flooring at SPD_EIG_FLOOR."""
    w, v = np.linalg.eigh(a)
    if np.min(w) <= SPD_EIG_FLOOR:
        raise NotPositiveDefinite(
            f"eigenvalue {np.min(w):.3e} <= {SPD_EIG_FLOOR} in batched SPD sqrt"
        )
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def _sqrt_3x3(a: np.ndarray):
    """Roots of the symmetric (N, 3, 3) ``a`` from their invariants (Franca
    1989, Comput. Math. Appl. 18), elementwise over the batch, and the mask
    of rows where they hold; the other rows are left unset.

    With i1, i2, i3 the invariants of A and e1, e2, e3 those of U = sqrt(A):
    e3 = sqrt(i3), e1 is the largest root of (e1^2 - i1)^2 = 4 (i2 + 2 e1 e3)
    and e2 = sqrt(i2 + 2 e1 e3), which sums positive terms where
    (e1^2 - i1) / 2 would cancel.  Cayley-Hamilton gives
    U = (A + e2 I)^-1 (e1 A + e3 I) = e1 I - (e1 e2 - e3) (A + e2 I)^-1,
    with the inverse by its adjugate.  A row holds if i1, i2 > 0 and
    i1 i2 <= SQRT3_CERT_BOUND i3, so that A is positive definite with a
    moderate condition number, if i3 > 2 SPD_EIG_FLOOR i2, so that its least
    eigenvalue (at least i3 / i2) clears the floor, and if its Newton
    iteration settles within SQRT3_NEWTON_CAP steps.
    """
    a00, a01, a02 = a[:, 0, 0], a[:, 0, 1], a[:, 0, 2]
    a11, a12, a22 = a[:, 1, 1], a[:, 1, 2], a[:, 2, 2]
    i1 = a00 + a11 + a22
    m00 = a11 * a22 - a12 * a12
    i2 = m00 + (a00 * a22 - a02 * a02) + (a00 * a11 - a01 * a01)
    i3 = a00 * m00 + a01 * (a02 * a12 - a01 * a22) + a02 * (a01 * a12 - a02 * a11)
    certified = (
        (i1 > 0) & (i2 > 0) & (i1 * i2 <= SQRT3_CERT_BOUND * i3)
        & (i3 > 2 * SPD_EIG_FLOOR * i2)
    )
    # uncertified rows never step, and their values are discarded
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e3 = np.sqrt(i3)
        c0, c1 = 4.0 * i2, 8.0 * e3
        # f(e) = (e^2 - i1)^2 - c0 - c1 e is convex for e^2 > i1 / 3, and
        # sqrt(3 i1) >= e1 there, so Newton's iterates fall monotonically to
        # e1; a row settles at its first step that does not fall, and is
        # left unchanged from then on
        e1 = np.sqrt(3.0 * i1)
        moving = certified
        for _ in range(SQRT3_NEWTON_CAP):
            g = e1 * e1 - i1
            nxt = e1 - (g * g - c0 - c1 * e1) / (4.0 * e1 * g - c1)
            moving = moving & (nxt < e1)
            if not moving.any():
                break
            e1 = np.where(moving, nxt, e1)
        e2 = np.sqrt(i2 + 2.0 * e1 * e3)
        b00, b11, b22 = a00 + e2, a11 + e2, a22 + e2
        c00 = b11 * b22 - a12 * a12
        c01 = a02 * a12 - a01 * b22
        c02 = a01 * a12 - a02 * b11
        scale = (e1 * e2 - e3) / (b00 * c00 + a01 * c01 + a02 * c02)
        root = np.empty_like(a)
        root[:, 0, 0] = e1 - scale * c00
        root[:, 1, 1] = e1 - scale * (b00 * b22 - a02 * a02)
        root[:, 2, 2] = e1 - scale * (b00 * b11 - a01 * a01)
        root[:, 0, 1] = root[:, 1, 0] = -scale * c01
        root[:, 0, 2] = root[:, 2, 0] = -scale * c02
        root[:, 1, 2] = root[:, 2, 1] = -scale * (a01 * a02 - b00 * a12)
    return root, certified & ~moving


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
