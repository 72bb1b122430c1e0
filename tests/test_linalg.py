"""The positive-diagonal QR factor and the SPD square roots: agreement with
LAPACK, edge batches, the SPD floor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barylab.errors import NotPositiveDefinite
from barylab.linalg import (
    SQRT3_CERT_BOUND,
    positive_qr_q,
    spd_sqrt_batch,
    sym,
)


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


def spd(spectra, seed):
    """Haar-rotated SPD matrices with the given (..., d) spectra."""
    spectra = np.asarray(spectra, dtype=float)
    z = np.random.default_rng(seed).standard_normal(spectra.shape + spectra.shape[-1:])
    q = positive_qr_q(z)
    return sym((q * spectra[..., None, :]) @ np.swapaxes(q, -1, -2))


def eigh_root(a):
    """The eigendecomposition route of spd_sqrt_batch, on symmetric input."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def cert_ratio(spectrum):
    """i1 i2 / i3 of a 3x3 SPD matrix from its spectrum."""
    l1, l2, l3 = spectrum
    return (l1 + l2 + l3) * (l1 * l2 + l1 * l3 + l2 * l3) / (l1 * l2 * l3)


class TestSpdFloor:
    """Any matrix of a batch with an eigenvalue at or below SPD_EIG_FLOOR
    fails the whole call, wherever it sits; at 1e-10 the call passes."""

    @staticmethod
    def batch(d, where, least):
        rng = np.random.default_rng(d)
        good = spd(rng.uniform(0.5, 2.0, (5, d)), d)
        bad = spd(np.r_[least, rng.uniform(0.5, 2.0, d - 1)], d + 10)
        return np.insert(good, {"first": 0, "middle": 2, "last": 5}[where], bad, axis=0)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_floor_raises_and_clearance_passes(self, where, d):
        with pytest.raises(NotPositiveDefinite):
            spd_sqrt_batch(self.batch(d, where, 1e-13))
        spd_sqrt_batch(self.batch(d, where, 1e-10))


@st.composite
def sqrt_inputs(draw):
    """3x3 SPD matrices of the kinds the closed-form root must handle, all
    within the certification bound: Haar rotations of spread spectra, near
    identities, exactly and nearly repeated eigenvalues, at scales 1e-6 to 1e6."""
    kind = draw(st.sampled_from(["spread", "near_identity", "repeated", "near_repeated"]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-6, 6))
    if kind == "near_identity":
        eps = 10.0 ** draw(st.floats(-12, -3))
        g = np.random.default_rng(seed).standard_normal((3, 3))
        return scale * (np.eye(3) + eps * sym(g))
    logs = np.array(draw(st.lists(st.floats(0, 1), min_size=3, max_size=3)))
    logs *= math.log(SQRT3_CERT_BOUND)
    if kind == "repeated":
        logs[1] = logs[0]
    elif kind == "near_repeated":
        logs[1] = logs[0] + 10.0 ** draw(st.floats(-15, -8))
    while cert_ratio(np.exp(logs)) > 0.99 * SQRT3_CERT_BOUND:
        logs *= 0.9
    return spd(scale * np.exp(logs), seed)


class TestClosedFormSqrt:
    @given(a=sqrt_inputs())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_eigh(self, a):
        root = spd_sqrt_batch(a)
        assert np.array_equal(root, root.T)  # built symmetric, not symmetrized
        norm_a = np.linalg.norm(a)
        assert np.linalg.norm(root @ root - a) <= 1e-14 * norm_a
        reference = eigh_root(a)
        assert np.linalg.norm(root - reference) <= 1e-13 * np.linalg.norm(reference)

    @given(seed=st.integers(0, 2**32 - 1), spread=st.floats(1.0, 1e6), middle=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_beyond_the_bound_takes_eigh(self, seed, spread, middle):
        spectrum = np.array([1.0, spread**middle, spread])
        while cert_ratio(spectrum) < 1.01 * SQRT3_CERT_BOUND:
            spectrum[2] *= 2.0  # raises the ratio, since spectrum[2]^2 >= spectrum[1]
        a = spd(spectrum, seed)
        assert np.array_equal(spd_sqrt_batch(a), eigh_root(a))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_independent_of_the_batch(self, seed):
        """Row t of a (T, n, 3, 3) batch, mixing closed-form and eigh rows, is
        that matrix's root solved alone, bit for bit."""
        rng = np.random.default_rng(seed)
        spectra = np.exp(rng.uniform(0, math.log(4 * SQRT3_CERT_BOUND), (4, 5, 3)))
        spectra[0, 0] = 1.0  # the identity settles at once, beside rows that do not
        a = spd(spectra, seed)
        roots = spd_sqrt_batch(a)
        for t, i in np.ndindex(a.shape[:2]):
            assert np.array_equal(spd_sqrt_batch(a[t, i][None])[0], roots[t, i])
            assert np.array_equal(spd_sqrt_batch(a[t, i]), roots[t, i])

