"""Certificate checks that trust neither solver.

Two solvers hand back certificates.  ``sdp.ppt_mixer_witness`` returns an
exactly feasible witness and a PPT mixture, which bound the PPT-mixer
program (Jungnitsch, Moroder & Guehne, PRL 106, 190502, 2011) from above
and below; ``verify_witness_certificate`` re-checks both.  A sign-only
``certify.sle_quantify`` that settles a nonnegative sign returns bands in z
on which every projection of the measured qubit leaves a PPT, hence
separable, pair (Horodecki, Horodecki & Horodecki, PLA 223, 1 (1996));
``verify_sle_certificate`` re-checks them.  One policy serves both.

*What a check trusts.*  Only the state and the certificate's own fields.
The witness check ignores the residuals the solver reports and knows
nothing of its symmetry sectors: it rebuilds the full 8 x 8 matrices.  The
SLE check reads the charges through ``_respects``, not through
``states._symmetries``, and contracts the hull points of the bands with
rho^{T_b} itself, not through the search's objective.

*Malformed fields.*  A check reads every field of its certificate in one
``try``, through ``_finite_array`` or ``states._resolve_pair``.  A field
that is missing, ragged, non-numeric, non-finite or of the wrong shape
fails the check: it returns False, never raises and never falls back to a
default (a certificate with no pair is not read as one for the pair
(0, 1)).  Only a state that is not a valid three-qubit state raises.

*Tolerances.*  ``FEASIBILITY_TOL`` bounds ||W - P_i - Q_i^{T_i}||; the
witness's trace and value must hold within 1e-8, the mixture's sum within
1e-9 and its factors' lowest eigenvalues at -1e-9.  A band's pairs must
have their lowest eigenvalue above ``SLE_SIGN_SLACK``, which the band
search imports so that it settles exactly what this check accepts.
Rounding moves a hull point by a few ulps and its value by a few ulps of
||rho||, which the slack dwarfs.

*Positive semidefiniteness.*  Each check takes one pass of the package's
Jacobi solver, ``linalg.jacobi_eigvalsh``, over every matrix it must find
PSD, independent of the LAPACK calls inside the solvers.  It is looked up
through the ``linalg`` module at call time, so that a wrapper installed on
that module sees every pass.
"""

import numpy as np

from . import linalg
from .states import (
    _QUBIT_BITS,
    _partial_transpose_array,
    _resolve_pair,
    _state_entries,
)

# Largest ||W - P_i - Q_i^{T_i}|| that ``verify_witness_certificate``
# accepts.
FEASIBILITY_TOL = 1e-6
# Smallest lowest eigenvalue of a band's pairs that ``verify_sle_certificate``
# accepts, and the margin the sign-only band search settles a sign by (see
# "Certified signs" in ``superact.certify``'s docstring).
SLE_SIGN_SLACK = 1e-12
# What reading a malformed field raises: AttributeError for a missing one,
# ValueError (or TypeError) for one that is ragged or not what it must be.
_MALFORMED = (AttributeError, TypeError, ValueError)


def _finite_array(value, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """``value`` as a ``dtype`` array of ``shape``, a None in which matches
    any length.  Raises ``ValueError`` unless ``value`` is a finite array of
    that shape of a numeric type that casts safely to ``dtype``, so None, a
    string, a bool or a complex bound is rejected (NumPy itself raises
    ``ValueError`` on a ragged one)."""
    a = np.asarray(value)
    if (not np.issubdtype(a.dtype, np.number)
            or not np.can_cast(a.dtype, dtype) or a.ndim != len(shape)
            or any(n not in (None, size) for n, size in zip(shape, a.shape))
            or not np.isfinite(a).all()):
        raise ValueError(f"not a finite array of shape {shape}")
    return a.astype(dtype, copy=False)


def verify_witness_certificate(result, rho) -> bool:
    """Re-check both certificates of a ``sdp.WitnessResult`` without
    trusting the solver.

    The witness must have unit trace and the reported value, with
    ||W - P_i - Q_i^{T_i}|| <= ``FEASIBILITY_TOL`` for every bipartition;
    the residuals the solver reports are not consulted.  The PPT mixture
    must sum to rho - ``lower_bound`` I within 1e-9 (Frobenius norm).  Last,
    the 12 factors, the six P and Q blocks, the three Y_i and the three
    Y_i^{T_i}, must be PSD: their lowest eigenvalue must be at least -1e-9.
    It comes from one call of the package's own Jacobi solver on all 12.
    A malformed field fails the check (see the module docstring).

    ``rho`` must be a three-qubit state: an array must be Hermitian and
    positive semidefinite, with any trace, or ``StateValidationError`` is
    raised.
    """
    m, n_qubits = _state_entries(rho, 3)
    dim = m.shape[0]
    try:
        w = _finite_array(result.witness, (dim, dim))
        decompositions = _finite_array(result.decompositions, (3, 2, dim, dim))
        mixture = _finite_array(result.mixture, (3, dim, dim))
        value = _finite_array(result.optimal_value, (), np.float64)
        lower = _finite_array(result.lower_bound, (), np.float64)
    except _MALFORMED:
        return False
    if not abs(float(np.trace(w).real) - 1.0) <= 1e-8:
        return False
    if not abs(float(np.real(np.vdot(m, w))) - value) <= 1e-8:
        return False
    # Bipartition i transposes party i.
    for party, (p_hat, q_hat) in enumerate(decompositions):
        reconstruction = p_hat + _partial_transpose_array(q_hat, n_qubits,
                                                          (party,))
        if not np.linalg.norm(w - reconstruction) <= FEASIBILITY_TOL:
            return False
    shifted = m - lower * np.eye(dim)
    if not np.linalg.norm(shifted - mixture.sum(axis=0)) <= 1e-9:
        return False

    transposed = [_partial_transpose_array(block, n_qubits, (party,))
                  for party, block in enumerate(mixture)]
    factors = np.concatenate([decompositions.reshape(-1, dim, dim), mixture,
                              transposed])
    return bool(linalg.jacobi_eigvalsh(factors)[:, 0].min() >= -1e-9)


def _respects(m: np.ndarray, charges) -> bool:
    """Whether every nonzero entry of the 8x8 ``m`` joins basis states of
    equal total charge, with ``charges`` the charge of each qubit."""
    total = _QUBIT_BITS @ np.asarray(charges)
    return not np.any((m != 0) & (total[:, None] != total[None, :]))


def _hull_points(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The four hull points (x, z) of each band [z1, z2] of the half circle
    x = sqrt(1 - z^2): the chord ends p1, p2, then p1 / h and p2 / h, with h
    the length of the chord's midpoint less a relative 1e-12; shape
    (bands, 4, 2)."""
    ends = np.stack([np.stack([np.sqrt(1.0 - z * z), z], axis=-1)
                     for z in (z1, z2)], axis=1)
    h = np.linalg.norm(ends.mean(axis=1), axis=-1) * (1.0 - 1e-12)
    return np.concatenate([ends, ends / h[:, None, None]], axis=1)


def verify_sle_certificate(certificate, rho) -> bool:
    """Re-check a ``certify.SLECertificate`` against ``rho`` without
    trusting the solver.

    The pair must name two distinct qubits.  The breakpoints must be
    strictly increasing, from exactly -1 to exactly 1, and rho's nonzero
    entries must conserve the charges, with charge 1 on the measured qubit.
    Every band's four hull points are then contracted with rho^{T_b}, and
    the lowest eigenvalue of each pair must lie above ``SLE_SIGN_SLACK``
    (see "Certified signs" in ``superact.certify``'s docstring), from one
    call of the Jacobi solver.  A malformed field fails the check (see the
    module docstring).

    ``rho`` must be a three-qubit state, or ``StateValidationError`` or
    ``ValueError`` is raised.
    """
    m, _ = _state_entries(rho, 3)
    try:
        kept, measured = _resolve_pair(certificate.pair)
        z = _finite_array(certificate.breakpoints, (None,), np.float64)
        charges = _finite_array(certificate.charges, (3,), np.float64)
    except _MALFORMED:
        return False
    if (z.size < 2 or z[0] != -1.0 or z[-1] != 1.0
            or not np.all(z[1:] > z[:-1])):
        return False
    if charges[measured] != 1.0 or not _respects(m, charges):
        return False
    # x[i, a, b, j, c, d] = <i a b| rho^{T_b} |j c d>, i and j over qubit m.
    x = _partial_transpose_array(m, 3, (kept[1],)).reshape((2,) * 6).transpose(
        measured, *kept, 3 + measured, 3 + kept[0], 3 + kept[1])
    px, pz = np.moveaxis(_hull_points(z[:-1], z[1:]).reshape(-1, 2), -1, 0)
    projectors = 0.5 * np.array([[1.0 + pz, px], [px, 1.0 - pz]])
    pairs = np.einsum("jin,iabjcd->nabcd", projectors, x).reshape(-1, 4, 4)
    return bool(linalg.jacobi_eigvalsh(pairs)[:, 0].min() > SLE_SIGN_SLACK)
