"""Certificate checks that trust neither solver.

Two checks re-verify what the solvers hand back, under one policy.

- ``sdp.ppt_mixer_witness`` returns an exactly feasible witness and a PPT
  mixture, which bound the PPT-mixer program (Jungnitsch, Moroder &
  Guehne, PRL 106, 190502, 2011) from above and below; a sign-only solve
  that fixes its sign returns only the one of the two that fixes it.
  ``verify_witness_certificate`` re-checks each certificate a result
  holds.
- ``certify.sle_quantify`` on an X-shaped state whose closed-form value
  lies above ``SLE_SIGN_SLACK`` returns the kept pair alone;
  ``verify_sle_x_certificate`` rebuilds the two sectors of the transposed
  pair from rho and re-checks that no projection leaves an NPT, hence
  entangled, pair (for two qubits a PPT pair is separable: Horodecki,
  Horodecki & Horodecki, PLA 223, 1 (1996)).

*What a check trusts.*  Only the state and the certificate's own fields.
The witness check ignores the residuals the solver reports and knows
nothing of its symmetry sectors: it rebuilds the full 8 x 8 matrices.  The
X check reads the X pattern and the sectors' entries off rho itself, not
through the search's objective or its closed form.

*Malformed fields.*  A check reads every field of its certificate in one
``try``, through ``_finite_array`` or ``states._resolve_pair``.  A field
that is missing, ragged, non-numeric, non-finite or of the wrong shape
fails the check: it returns False, never raises and never falls back to a
default (a certificate with no pair is not read as one for the pair
(0, 1)).  A witness result's side is read as left out only when all its
certificate fields are None and its bound is the infinity that claims
nothing, so a finite bound with no certificate fails.  Only a state that
is not a valid three-qubit state raises.

*Tolerances.*  ``FEASIBILITY_TOL`` bounds ||W - P_i - Q_i^{T_i}||; the
witness's trace and value must hold within 1e-8, the mixture's sum within
1e-9 and its factors' lowest eigenvalues at -1e-9.  Each sector of an
X-shaped state's pairs, less ``SLE_SIGN_SLACK`` times the weight, must be
PSD; the closed form imports the slack, so that it certifies exactly what
the X check accepts.

*Positive semidefiniteness.*  The witness check takes one pass of the
package's Jacobi solver, ``linalg.jacobi_eigvalsh``, over every matrix it
must find PSD, independent of the LAPACK calls inside the solvers.  It is
looked up through the ``linalg`` module at call time, so that a wrapper
installed on that module sees every pass.  The X check takes no pass and
no eigensolve: a 2x2 sector is PSD exactly where its diagonal and its
determinant are nonnegative, quantities it evaluates in closed form.
"""

import numpy as np

from . import linalg
from .states import (
    _partial_transpose_array,
    _resolve_pair,
    _state_entries,
)

# Largest ||W - P_i - Q_i^{T_i}|| that ``verify_witness_certificate``
# accepts.
FEASIBILITY_TOL = 1e-6
# Smallest lowest eigenvalue, over the weight, of each sector of an
# X-shaped state's pairs that ``verify_sle_x_certificate`` accepts, and the
# margin the closed form certifies a sign by (see "X-shaped states" in
# ``superact.certify``'s docstring).
SLE_SIGN_SLACK = 1e-12
# What reading a malformed field raises: AttributeError for a missing one,
# ValueError (or TypeError) for one that is ragged or not what it must be.
_MALFORMED = (AttributeError, TypeError, ValueError)


def _finite_array(value, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """``value`` as a ``dtype`` array of ``shape``.  Raises ``ValueError``
    unless ``value`` is a finite array of that shape of a numeric type that
    casts safely to ``dtype``, so None, a string, a bool or a complex bound
    is rejected (NumPy itself raises ``ValueError`` on a ragged one)."""
    a = np.asarray(value)
    if (not np.issubdtype(a.dtype, np.number)
            or not np.can_cast(a.dtype, dtype) or a.shape != shape
            or not np.isfinite(a).all()):
        raise ValueError(f"not a finite array of shape {shape}")
    return a.astype(dtype, copy=False)


def _side(bound, certificate: tuple, shapes: tuple, absent: float):
    """One side of a witness result: None when it is left out, that is
    every field of ``certificate`` is None and ``bound`` is the infinity
    ``absent``; otherwise the bound and the certificate's fields, read
    through ``_finite_array``.  Raises ``ValueError`` for a side that is
    neither, such as a finite bound with no certificate."""
    if all(part is None for part in certificate):
        if not (isinstance(bound, float) and bound == absent):
            raise ValueError("a bound with no certificate")
        return None
    return (_finite_array(bound, (), np.float64),
            *(_finite_array(part, shape)
              for part, shape in zip(certificate, shapes)))


def verify_witness_certificate(result, rho) -> bool:
    """Re-check every certificate a ``sdp.WitnessResult`` holds without
    trusting the solver.

    A result holds the upper side, a witness and its value, the lower
    side, a PPT mixture and its bound, or both; a side left out has None
    for its certificate and +inf or -inf for its bound.  A result with neither side, a
    finite bound with no certificate, and a certificate whose bound is not
    the one reported all fail the check.

    The witness must have unit trace and the reported value, with
    ||W - P_i - Q_i^{T_i}|| <= ``FEASIBILITY_TOL`` for every bipartition;
    the residuals the solver reports are not consulted.  The PPT mixture
    must sum to rho - ``lower_bound`` I within 1e-9 (Frobenius norm).  Last,
    the factors held, the six P and Q blocks, the three Y_i and the three
    Y_i^{T_i}, must be PSD: their lowest eigenvalue must be at least -1e-9.
    It comes from one call of the package's own Jacobi solver on all of
    them.  A malformed field fails the check (see the module docstring).

    ``rho`` must be a three-qubit state: an array must be Hermitian and
    positive semidefinite, with any trace, or ``StateValidationError`` is
    raised.
    """
    m, n_qubits = _state_entries(rho, 3)
    dim = m.shape[0]
    try:
        upper = _side(result.optimal_value,
                      (result.witness, result.decompositions),
                      ((dim, dim), (3, 2, dim, dim)), np.inf)
        lower = _side(result.lower_bound, (result.mixture,),
                      ((3, dim, dim),), -np.inf)
    except _MALFORMED:
        return False
    if upper is None and lower is None:
        return False
    factors = []
    if upper is not None:
        value, w, decompositions = upper
        if not abs(float(np.trace(w).real) - 1.0) <= 1e-8:
            return False
        if not abs(float(np.real(np.vdot(m, w))) - value) <= 1e-8:
            return False
        # Bipartition i transposes party i.
        for party, (p_hat, q_hat) in enumerate(decompositions):
            reconstruction = p_hat + _partial_transpose_array(
                q_hat, n_qubits, (party,))
            if not np.linalg.norm(w - reconstruction) <= FEASIBILITY_TOL:
                return False
        factors.append(decompositions.reshape(-1, dim, dim))
    if lower is not None:
        bound, mixture = lower
        shifted = m - bound * np.eye(dim)
        if not np.linalg.norm(shifted - mixture.sum(axis=0)) <= 1e-9:
            return False
        factors += [mixture, np.stack([
            _partial_transpose_array(block, n_qubits, (party,))
            for party, block in enumerate(mixture)])]
    lowest = linalg.jacobi_eigvalsh(np.concatenate(factors))[:, 0]
    return bool(lowest.min() >= -1e-9)


def verify_sle_x_certificate(certificate, rho) -> bool:
    """Re-check a ``certify.SLEXCertificate`` against ``rho`` without
    trusting the solver, and with no eigensolve.

    The pair must name two distinct qubits, and every entry of rho off its
    diagonal and anti-diagonal must be an exact zero.  Projecting the
    measured qubit onto cos(theta)|0> + sin(theta) e^{i phi}|1> then leaves
    a pair whose partial transpose splits into the sectors {00, 11} and
    {01, 10}.  With t = sin^2(theta), a sector's diagonal p, q and the
    projection's weight w are affine in t, read off rho at the poles t = 0
    and t = 1, and its coupling is sqrt(t (1 - t)) (e^{i phi} u
    + e^{-i phi} v), u and v two entries of rho, whose modulus is at most
    sqrt(t (1 - t)) K, K = |u| + |v|, with equality at some phi.  With
    s = ``SLE_SIGN_SLACK``, p - s w and q - s w must be nonnegative at both
    poles, and (p - s w)(q - s w) - t (1 - t) K^2, quadratic in t, at its
    ends and at its vertex where that lies in [0, 1]: then each sector
    less s w is PSD at every projection (see "X-shaped states" in
    ``superact.certify``'s docstring).  A malformed pair fails the check
    (see the module docstring).

    ``rho`` must be a three-qubit state, or ``StateValidationError`` is
    raised.
    """
    m, _ = _state_entries(rho, 3)
    try:
        kept, measured = _resolve_pair(certificate.pair)
    except _MALFORMED:
        return False
    on_x = np.eye(8, dtype=bool)
    if np.any(m[~(on_x | on_x[::-1])] != 0):
        return False
    # r[i, a, b, j, c, d] = <i a b| rho |j c d>, i and j over the measured
    # qubit.
    r = m.reshape((2,) * 6).transpose(
        measured, *kept, 3 + measured, 3 + kept[0], 3 + kept[1])
    diagonal = np.einsum("iabiab->iab", r).real
    shifted = diagonal - SLE_SIGN_SLACK * diagonal.sum(axis=(1, 2))[:, None, None]
    # The sector coupled by <a b|M|a' b'> of the projected pair M, with
    # a' = 1 - a, holds the transposed pair's (a, b') and (a', b).
    for a, b in ((0, 1), (0, 0)):
        (p0, q0), (p1, q1) = shifted[:, [a, 1 - a], [1 - b, b]]
        k2 = (abs(r[0, a, b, 1, 1 - a, 1 - b])
              + abs(r[1, a, b, 0, 1 - a, 1 - b])) ** 2
        if min(p0, q0, p1, q1) < 0.0:
            return False
        lead = (p1 - p0) * (q1 - q0) + k2
        linear = p0 * (q1 - q0) + q0 * (p1 - p0) - k2
        vertex = min(max(-0.5 * linear / lead, 0.0), 1.0) if lead > 0.0 else 0.0
        for t in (0.0, 1.0, vertex):
            if ((p0 + t * (p1 - p0)) * (q0 + t * (q1 - q0))
                    - t * (1.0 - t) * k2 < 0.0):
                return False
    return True
