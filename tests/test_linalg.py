"""The positive-diagonal QR factor: agreement with LAPACK, edge batches."""

import numpy as np
import pytest

from barylab.linalg import positive_qr_q


def lapack_q(z):
    """np.linalg.qr's Q with the signs that make R's diagonal positive."""
    q, r = np.linalg.qr(z)
    return q * np.sign(np.einsum("...ii->...i", r))[..., None, :]


class TestPositiveQrQ:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_sign_fixed_lapack_q(self, d):
        z = np.random.default_rng(d).standard_normal((2000, d, d))
        assert np.max(np.abs(positive_qr_q(z) - lapack_q(z))) <= 1e-12

    def test_single_matrix_and_leading_axes(self):
        z = np.random.default_rng(4).standard_normal((2, 5, 3, 3))
        q = positive_qr_q(z)
        assert q.shape == z.shape
        assert np.array_equal(positive_qr_q(z[1, 2]), q[1, 2])

    @pytest.mark.parametrize("d", [3, 6])
    def test_near_singular_batch(self, d):
        """A column equal to another plus 1e-10 noise: QR agreement is
        ill-posed there, but Q stays orthogonal and Q^T z triangular."""
        rng = np.random.default_rng(10 + d)
        z = rng.standard_normal((500, d, d))
        z[..., -1] = z[..., 0] + 1e-10 * rng.standard_normal((500, d))
        q = positive_qr_q(z)
        eye = np.eye(d)
        assert np.max(np.abs(np.swapaxes(q, -1, -2) @ q - eye)) <= 1e-14
        r = np.swapaxes(q, -1, -2) @ z
        scale = np.linalg.norm(z, axis=(-2, -1))[:, None, None]
        assert np.max(np.abs(np.tril(r, -1)) / scale) <= 1e-12
        assert np.all(np.einsum("nii->ni", r) > 0)

    def test_one_dim_is_sign(self):
        z = np.random.default_rng(5).standard_normal((50, 1, 1))
        assert np.array_equal(positive_qr_q(z), np.sign(z))

