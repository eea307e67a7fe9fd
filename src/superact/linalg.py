"""Eigenvalues of small complex Hermitian matrices via cyclic Jacobi rotations.

Eigensolver policy: every eigenvalue the package computes comes from
LAPACK, except where independence from LAPACK is the point.  Functions that
take input from outside, ``DensityMatrix`` validation,
``DensityMatrix.eigenvalues()`` and :func:`hermitian_eigenvalues`, call it
through ``numpy.linalg``, whose checks and ``LinAlgError`` they keep.  The
solvers' hot paths in ``sdp``, ``certify`` and ``thresholds``, whose
inputs the package builds, call the same gufuncs through the LAPACK entry
of ``superact.states``, without ``numpy.linalg``'s per-call wrapper (see
"LAPACK entry" there).  This module's Jacobi solver serves exactly the
two checks where independence is the point, re-verifying witness and SLE
certificates, one call per certificate, and ``superact.verify`` is its
only caller: ``verify_witness_certificate`` passes the 8x8 factors of a
witness result (six P and Q blocks, three Y_i and three Y_i^{T_i}, or the
six of the one side a sign-only result holds), and
``verify_sle_certificate`` a stack of 4x4 pairs.

At that dimension the quadratically convergent Jacobi iteration is
essentially exact and has no pathological inputs.  The solver is batched:
an input of shape (..., n, n) is diagonalized in lockstep across the
leading axes.  Because the rotation order is cyclic (a fixed schedule over
index pairs, not data-dependent pivoting), all matrices in a batch share
the same schedule and the sweep vectorizes cleanly.  It sweeps until every
off-diagonal magnitude is below ``DEFAULT_OFFDIAG_TOL`` times the largest
input magnitude of its matrix, or for at most ``MAX_SWEEPS`` sweeps.
"""

from __future__ import annotations

import numpy as np

DEFAULT_OFFDIAG_TOL = 1e-15
MAX_SWEEPS = 60
HERMITICITY_TOL = 1e-8


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within the requested tolerance."""


def _as_batched(matrices) -> tuple[np.ndarray, tuple[int, ...]]:
    a = np.array(matrices, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    batch_shape = a.shape[:-2]
    n = a.shape[-1]
    return a.reshape((-1, n, n)), batch_shape


def jacobi_eigh(matrices, *, compute_vectors: bool = True):
    """Diagonalize a batch of Hermitian matrices by cyclic Jacobi sweeps.

    Parameters
    ----------
    matrices : array_like, shape (..., n, n)
        Hermitian matrices.  The Hermitian part is what gets diagonalized;
        callers that need strict validation should check beforehand.
    compute_vectors : bool
        Accumulate the (unitary) eigenvector matrices as well.

    Returns
    -------
    w : ndarray, shape (..., n)
        Eigenvalues in ascending order.
    v : ndarray, shape (..., n, n) or None
        Column eigenvectors matching ``w`` (``None`` unless requested).
    """
    a, batch_shape = _as_batched(matrices)
    m, n = a.shape[0], a.shape[-1]
    a = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    if compute_vectors:
        v = np.broadcast_to(np.eye(n, dtype=np.complex128), (m, n, n)).copy()
    else:
        v = None

    scale = np.maximum(np.abs(a).reshape(m, -1).max(axis=1), 1e-300)
    off_mask = ~np.eye(n, dtype=bool)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    for _ in range(MAX_SWEEPS):
        off = np.abs(a[:, off_mask]).max(axis=1)
        if np.all(off <= DEFAULT_OFFDIAG_TOL * scale):
            break
        for p, q in pairs:
            apq = a[:, p, q]
            r = np.abs(apq)
            active = r > 1e-300
            if not active.any():
                continue
            r_safe = np.where(active, r, 1.0)
            phase = np.where(active, apq / r_safe, 1.0 + 0.0j)
            app = a[:, p, p].real
            aqq = a[:, q, q].real
            # IEEE semantics keep this stable: a huge |tau| overflows to inf
            # and yields t = 0, i.e. no rotation, which is the right limit.
            with np.errstate(over="ignore", divide="ignore"):
                tau = (aqq - app) / (2.0 * r_safe)
                root = np.sqrt(1.0 + tau * tau)
                t = np.where(tau >= 0.0, 1.0 / (tau + root), 1.0 / (tau - root))
            t = np.where(active, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            sp = (t * c) * phase

            # A <- J^H A J, applied as a column update followed by a row update.
            col_p = a[:, :, p].copy()
            col_q = a[:, :, q].copy()
            a[:, :, p] = c[:, None] * col_p - np.conj(sp)[:, None] * col_q
            a[:, :, q] = sp[:, None] * col_p + c[:, None] * col_q
            row_p = a[:, p, :].copy()
            row_q = a[:, q, :].copy()
            a[:, p, :] = c[:, None] * row_p - sp[:, None] * row_q
            a[:, q, :] = np.conj(sp)[:, None] * row_p + c[:, None] * row_q
            a[active, p, q] = 0.0
            a[active, q, p] = 0.0
            if v is not None:
                vcol_p = v[:, :, p].copy()
                vcol_q = v[:, :, q].copy()
                v[:, :, p] = c[:, None] * vcol_p - np.conj(sp)[:, None] * vcol_q
                v[:, :, q] = sp[:, None] * vcol_p + c[:, None] * vcol_q

    w = np.einsum("kii->ki", a).real.copy()
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if v is not None:
        v = np.take_along_axis(v, order[:, None, :], axis=2)
        v = v.reshape(batch_shape + (n, n))
    return w.reshape(batch_shape + (n,)), v


def jacobi_eigvalsh(matrices) -> np.ndarray:
    """Ascending eigenvalues of a batch of Hermitian matrices."""
    w, _ = jacobi_eigh(matrices, compute_vectors=False)
    return w


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Ascending real eigenvalues of a single Hermitian matrix, from LAPACK.

    Raises :class:`NonHermitianError` when the entrywise deviation from the
    adjoint exceeds ``HERMITICITY_TOL``; otherwise the spectrum is that of
    the Hermitian part.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    deviation = np.abs(a - a.conj().T).max()
    if deviation > HERMITICITY_TOL:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {deviation:.3e} "
            f"(tolerance {HERMITICITY_TOL:.1e})")
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))

