import numpy as np
import pytest

from superact import linalg, noisy_ghz
from superact.certify import (
    negativity,
    sle_quantify,
)
from superact.linalg import (
    NonHermitianError,
    hermitian_eigenvalues,
    jacobi_eigh,
    jacobi_eigvalsh,
)
from superact.sdp import ppt_mixer_witness
from superact.states import DensityMatrix
from superact.verify import (
    verify_sle_x_certificate,
    verify_witness_certificate,
)
from util import random_hermitian


def test_diagonal_matrix():
    w = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_identity_over_eight():
    w = hermitian_eigenvalues(np.eye(8) / 8.0)
    assert np.allclose(w, 0.125, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 64])
def test_matches_lapack_on_random_hermitian(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        a = random_hermitian(rng, dim)
        ours = jacobi_eigvalsh(a)
        reference = np.linalg.eigvalsh(a)
        assert np.abs(ours - reference).max() < 1e-11 * max(1.0, np.abs(a).max())


def test_batched_matches_lapack():
    rng = np.random.default_rng(99)
    a = rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4))
    a = a + np.conj(np.swapaxes(a, -1, -2))
    assert np.abs(jacobi_eigvalsh(a) - np.linalg.eigvalsh(a)).max() < 1e-12


def test_eigenvectors_reconstruct_input():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 8)
    w, v = jacobi_eigh(a[None])
    reconstructed = (v[0] * w[0][None, :]) @ v[0].conj().T
    assert np.abs(reconstructed - a).max() < 1e-12
    assert np.abs(v[0].conj().T @ v[0] - np.eye(8)).max() < 1e-13


def test_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("dim", [2, 3])
def test_rejects_nan(dim):
    # A NaN deviation does not exceed the tolerance, and must not pass as
    # lying within it: LAPACK would return NaN, or fail to converge.
    with pytest.raises(NonHermitianError, match="nan"):
        hermitian_eigenvalues(np.full((dim, dim), np.nan))


def test_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.zeros((2, 3)))



def test_jacobi_only_in_certificate_reverification(monkeypatch):
    # Every state spectrum comes from LAPACK; the Jacobi solver is reserved
    # for checks whose value lies in being independent of it.
    class JacobiCalled(Exception):
        pass

    def forbidden(*args, **kwargs):
        raise JacobiCalled

    rho = noisy_ghz(0.5)
    monkeypatch.setattr(linalg, "jacobi_eigh", forbidden)
    DensityMatrix(3, np.asarray(rho.entries))
    rho.eigenvalues()
    hermitian_eigenvalues(rho.entries)
    sle_quantify(rho)
    negativity(rho, (0,))
    result = ppt_mixer_witness(rho)
    with pytest.raises(JacobiCalled):
        verify_witness_certificate(result, rho)
    # The closed form's certificate of an X-shaped state takes no pass.
    x_shaped = noisy_ghz(0.3)
    assert verify_sle_x_certificate(
        sle_quantify(x_shaped).certificate, x_shaped)
