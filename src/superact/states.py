"""Exact complex linear algebra over multi-qubit pure states and density matrices.

Conventions
-----------
Qubit ordering is big-endian: qubit 0 is the most significant bit of the
computational basis index, so for three qubits the basis runs
|000>, |001>, ..., |111> with |100> at index 4.  All matrix constructors
below follow that row ordering.

States produced by post-selection are naturally subnormalized, so
:class:`DensityMatrix` carries a ``normalized`` flag and projection weights
are returned separately instead of being silently folded in.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call from concurrent workers.

Validation
----------
A :class:`DensityMatrix` checks its shape, finiteness, Hermiticity, trace
and positivity when it is built.  The package's one exception is the
private ``DensityMatrix._trusted``, for states that are states by
construction: ``noisy_ghz``, ``noisy_w`` and ``noise_model_state`` here,
each a convex mix, with its parameters checked to lie in [0, 1], of
validated cached projectors and I/8, and the closed-form PSD matrix of
``distill.analytic_distilled_noisy_ghz``.  Each call site says why its
result is a state, and a test passes every such family's output through
the full validation.  Everything that enters from outside keeps every check:
a ``DensityMatrix(...)``, a file that ``load_density_matrix`` reads, and a
raw array, which ``_state_entries`` validates.  So do the distillation
outputs, reductions and localized states, which are not yet trusted.

LAPACK entry
------------
The solvers' hot paths reach LAPACK through ``_eigh``, ``_eigvalsh`` and
``_solve`` here: every eigensolve and linear solve of the PPT-mixer
iteration and its bounds (``sdp``), of the SLE search (``certify``) and of
the W-SLE margin (``thresholds``).  Each calls the gufunc that the
``numpy.linalg`` function of its name calls (``eigh_lo``, ``eigvalsh_lo``
and ``solve1`` of ``numpy.linalg._umath_linalg``), with the signature of
a float64 or complex128 input, so its result is ``numpy.linalg``'s bit
for bit.  What it skips is the wrapper's per-call work, its dtype
resolution, ``errstate`` and result wrapping: 1.7-1.8 us a call, against
1.6-9.4 us for the call itself at the PPT-mixer's shapes, from a 16 x 16
solve to an eigendecomposition of 12 3 x 3 blocks (2-vCPU VM, NumPy 2.4).
Their inputs are finite stacks of square float64 or complex128 matrices
by construction, so the wrapper's checks have nothing to catch.

Without the wrapper's ``errstate``, a call that fails does not raise
``np.linalg.LinAlgError``: it returns NaN and warns ("invalid value
encountered"), or raises ``FloatingPointError`` under
``np.errstate(invalid="raise")``.  So each verdict that reads the entry's
results passes them through ``_checked``, which raises ``LinAlgError`` on
a NaN before it can become a sign or a bracket: a PPT-mixer bound check,
an SLE search's result and a threshold margin.  ``DensityMatrix``
validation, ``DensityMatrix.eigenvalues()`` and
``linalg.hermitian_eigenvalues`` take input from outside and keep
``numpy.linalg``, its checks and its errors.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9
AMPLITUDE_NORM_TOL = 1e-12
DEGENERATE_WEIGHT = 1e-14

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class StateValidationError(ValueError):
    """A constructed state violates one of its declared invariants."""


class DegenerateProjectionError(ValueError):
    """A projection produced (near-)zero weight where a state was required."""


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m)
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise StateValidationError(
            f"non-finite entries (NaN or inf): {int(bad.sum())}, "
            f"the first at {first}")


def _is_integer(x) -> bool:
    """Whether ``x`` is an int or a NumPy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_qubit_count(n_qubits) -> None:
    """Raise unless ``n_qubits`` is an int or NumPy integer, not a bool, of
    at least 1."""
    if not _is_integer(n_qubits) or n_qubits < 1:
        raise StateValidationError(
            f"n_qubits must be a positive integer, got {n_qubits!r}")


def _is_register_size(size: int, n_qubits: int) -> bool:
    """Whether ``size`` is 2 ** ``n_qubits``, read off its bits, so that no
    2 ** n_qubits is formed, however large the count."""
    return size & (size - 1) == 0 and size.bit_length() - 1 == n_qubits


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` bit for bit, through the LAPACK entry (see
    "LAPACK entry" in the module docstring): NaN where LAPACK fails."""
    return _umath_linalg.eigh_lo(
        a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` bit for bit, through the LAPACK entry: NaN
    where LAPACK fails."""
    return _umath_linalg.eigvalsh_lo(
        a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` bit for bit for a real square ``a`` and
    vector ``b``, through the LAPACK entry: NaN where LAPACK fails."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _checked(values):
    """``values``, read from the LAPACK entry's results, unless one is NaN,
    the mark of a failed call: then ``np.linalg.LinAlgError``."""
    if np.isnan(values).any():
        raise np.linalg.LinAlgError(
            "LAPACK failed: an eigensolve or linear solve returned NaN")
    return values


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over a register of qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if not _is_register_size(amps.size, self.n_qubits):
            raise StateValidationError(
                f"amplitude vector of length {amps.size} does not match "
                f"{self.n_qubits} qubits")
        _check_finite(amps)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > AMPLITUDE_NORM_TOL:
            raise StateValidationError(
                f"squared-amplitude sum {norm_sq!r} deviates from 1 beyond "
                f"{AMPLITUDE_NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def projector(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes,
                                                     self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Square complex matrix over a qubit register.

    ``normalized`` distinguishes proper states (trace one) from
    post-selection intermediates, which may carry any nonnegative trace.
    """

    n_qubits: int
    entries: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        m = np.asarray(self.entries, dtype=np.complex128)
        if (m.ndim != 2 or m.shape[0] != m.shape[1]
                or not _is_register_size(m.shape[0], self.n_qubits)):
            raise StateValidationError(
                f"matrix shape {m.shape} does not match {self.n_qubits} qubits")
        _check_finite(m)
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERMITICITY_TOL:
            raise StateValidationError(
                f"Hermiticity deviation {herm_dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
        tr = float(np.trace(m).real)
        if self.normalized:
            if abs(tr - 1.0) > TRACE_TOL:
                raise StateValidationError(
                    f"trace {tr!r} deviates from 1 beyond {TRACE_TOL:.1e}")
        elif tr < -TRACE_TOL:
            raise StateValidationError(f"trace {tr!r} is negative")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < PSD_TOL:
            raise StateValidationError(
                f"minimum eigenvalue {lam_min:.3e} below {PSD_TOL:.1e}")
        object.__setattr__(self, "entries", _readonly(m))

    @classmethod
    def _trusted(cls, n_qubits: int, entries) -> "DensityMatrix":
        """A normalized state the package built as a state, without
        ``__post_init__``'s checks; the entries are copied to a read-only
        complex128 array, as there.  Only for the noisy families (see
        "Validation" in the module docstring); each call site says why its
        result is a state.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "n_qubits", n_qubits)
        object.__setattr__(rho, "entries", _readonly(
            np.asarray(entries, dtype=np.complex128)))
        object.__setattr__(rho, "normalized", True)
        return rho

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, from LAPACK (``numpy.linalg.eigvalsh``)."""
        return np.linalg.eigvalsh(self.entries)


def _resolve_qubits(spec, n_qubits: int) -> tuple[int, ...]:
    """One qubit index or a sequence of them, distinct and in range.  Each
    index must be an int or a NumPy integer: a float or a bool raises
    ``ValueError`` instead of being truncated to a qubit."""
    items = tuple(spec) if np.iterable(spec) else (spec,)
    if not all(map(_is_integer, items)):
        raise ValueError(f"qubit indices must be integers, got {items}")
    idx = tuple(int(i) for i in items)
    if len(set(idx)) != len(idx) or any(i < 0 or i >= n_qubits for i in idx):
        raise ValueError(f"invalid qubit indices {idx} for {n_qubits} qubits")
    return idx


def _resolve_pair(pair) -> tuple[tuple[int, int], int]:
    """A kept pair of two distinct qubits of three, checked by
    ``_resolve_qubits``, and the measured qubit left over."""
    kept = _resolve_qubits(pair, 3)
    if len(kept) != 2:
        raise ValueError(f"kept pair must have exactly two qubits, got {kept}")
    return kept, 3 - sum(kept)


def _entries(rho, n_qubits: int | None = None) -> tuple[np.ndarray, int]:
    """Entries and qubit count of a ``DensityMatrix`` or a finite array over
    a qubit register; with ``n_qubits`` (two or three) the count must match.
    """
    if isinstance(rho, DensityMatrix):
        m, n = np.asarray(rho.entries), rho.n_qubits
    else:
        m = np.asarray(rho, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise StateValidationError(
                f"matrix shape {m.shape} is not a nonempty square matrix")
        n = m.shape[0].bit_length() - 1
        if m.shape != (2 ** n, 2 ** n):
            raise StateValidationError(
                f"matrix shape {m.shape} is not a qubit register")
        _check_finite(m)
    if n_qubits is not None and n != n_qubits:
        word = {2: "two", 3: "three"}[n_qubits]
        raise ValueError(f"expected a {word}-qubit state, got {n} qubits")
    return m, n


def _state_entries(rho, n_qubits: int | None = None) -> tuple[np.ndarray, int]:
    """Like ``_entries``, but a raw array must also be a state of any trace.

    The array passes ``DensityMatrix(n, m, normalized=False)``, so a
    non-Hermitian or non-PSD one raises ``StateValidationError``; a
    ``DensityMatrix`` was validated when it was built and is not checked
    again.
    """
    m, n = _entries(rho, n_qubits)
    if not isinstance(rho, DensityMatrix):
        DensityMatrix(n, m, normalized=False)
    return m, n


# ---------------------------------------------------------------------------
# symmetries of a three-qubit zero pattern

# _QUBIT_BITS[b, q] is bit q of basis state b, qubit 0 first.  Its rows are
# also the Z-strings s in {0, 1}^3, in itertools.product order.
_QUBIT_BITS = (np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1
# The charge vectors c in {-1, 0, 1}^3, in itertools.product order.
_CHARGES = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
# Labels of each basis state b, shape (8, 35): c.b for each charge vector,
# then the sign (-1)^{s.b} for each Z-string.
_LABELS = np.concatenate([_QUBIT_BITS @ _CHARGES.T,
                          (-1) ** (_QUBIT_BITS @ _QUBIT_BITS.T)], axis=1)


class _Symmetries(NamedTuple):
    """Whether a zero pattern conserves each charge vector, row by row of
    ``_CHARGES``, and each Z-string, row by row of ``_QUBIT_BITS``."""

    charges: tuple[bool, ...]
    z_strings: tuple[bool, ...]


@functools.lru_cache(maxsize=256)
def _symmetries(pattern: bytes) -> _Symmetries:
    """The diagonal symmetries of every three-qubit matrix with the zero
    pattern ``(m != 0).tobytes()``; the one reading of them in the package.

    Let b - b' be the difference of the qubit bits of the basis states of a
    nonzero entry m_bb'.  A charge vector c in {-1, 0, 1}^3 is conserved
    when c.(b - b') = 0 for every such entry, and a Z-string s in
    {0, 1}^3 when s.(b - b') is even.  A diagonal unitary U commutes with
    m exactly when it has the same phase on the two basis states of every
    nonzero entry, so the local phases exp(i theta c.b) of a conserved c,
    for every theta, and the signs (-1)^{s.b} of a conserved s commute
    with m (Gatermann & Parrilo, "Exploiting symmetries in SDP and SOS
    programming", J. Pure Appl. Algebra 192, 2004).  The zero charge and
    the empty Z-string are always conserved.  The reading is exact: a
    nonzero entry breaks a symmetry however small it is, 1e-300 included.
    Noisy GHZ conserves the charges that sum to zero and the Z-strings of
    even weight; noisy W the charges (k, k, k) and the strings 000 and 111;
    noise-model and other X-shaped states only the zero charge and the
    Z-strings of even weight; a state with no zero entry only the trivial
    two.

    ``sdp`` splits the PPT-mixer program into the sectors of every
    conserved charge and Z-string.  The result is cached per pattern.
    """
    # The basis states of each nonzero entry, and the labels both agree in.
    b, b_prime = np.divmod(np.flatnonzero(np.frombuffer(pattern, bool)), 8)
    conserved = (_LABELS[b] == _LABELS[b_prime]).all(axis=0).tolist()
    return _Symmetries(tuple(conserved[:27]), tuple(conserved[27:]))


# ---------------------------------------------------------------------------
# canonical pure states

def make_ghz(index: int, sign: int) -> PureState:
    """Three-qubit GHZ-type basis state.

    ``index`` in 0..3 selects the bit pattern of the first branch
    (|000>, |001>, |010>, |100>), ``sign`` (+1/-1) the relative phase of its
    bit-flipped partner.  The eight states form an orthonormal family.
    """
    if not _is_integer(index) or index not in (0, 1, 2, 3):
        raise ValueError(f"index must be an integer in 0..3, got {index!r}")
    if not _is_integer(sign) or sign not in (1, -1):
        raise ValueError(f"sign must be the integer +1 or -1, got {sign!r}")
    first = (0, 1, 2, 4)[index]
    amps = np.zeros(8, dtype=np.complex128)
    amps[first] = 1.0 / np.sqrt(2.0)
    amps[7 - first] = sign / np.sqrt(2.0)
    return PureState(3, amps)


def ghz3() -> PureState:
    """The target state (|000> + |111>)/sqrt(2)."""
    return make_ghz(0, +1)


def w_state() -> PureState:
    """(|001> + |010> + |100>)/sqrt(3)."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return PureState(3, amps)


def bell_phi_plus() -> PureState:
    """(|00> + |11>)/sqrt(2)."""
    return PureState(2, np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0))


def bloch_state(theta: float, phi: float) -> PureState:
    """Single-qubit state cos(theta)|0> + sin(theta) e^{i phi}|1>."""
    return PureState(1, np.array([np.cos(theta),
                                  np.sin(theta) * np.exp(1j * phi)]))


# ---------------------------------------------------------------------------
# mixed-state constructors

def _check_unit_interval(**params):
    for name, value in params.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value!r} outside [0, 1]")


@functools.cache
def _ghz_projector(index: int, sign: int) -> np.ndarray:
    """The read-only entries of ``make_ghz(index, sign).projector()``,
    built and validated once per process."""
    return make_ghz(index, sign).projector().entries


@functools.cache
def _w_projector() -> np.ndarray:
    """The read-only entries of ``w_state().projector()``, built and
    validated once per process."""
    return w_state().projector().entries


def noisy_ghz(p: float) -> DensityMatrix:
    """GHZ state mixed with white noise: p |GHZ><GHZ| + (1-p) I/8."""
    _check_unit_interval(p=p)
    g = _ghz_projector(0, +1)
    # A state by construction: a convex mix, p in [0, 1], of a validated
    # projector and I/8.
    return DensityMatrix._trusted(3, p * g + (1.0 - p) * np.eye(8) / 8.0)


def noise_model_state(p: float, q: float, r: float) -> DensityMatrix:
    """Noisy GHZ state with explicit phase-flip and bit-flip error rates.

    The signal part keeps a fraction ``r`` on the unflipped bit pattern and
    spreads ``1-r`` uniformly over the three single-bit-flip patterns; within
    each pattern, ``q`` is the weight of the even-phase branch.  ``p`` is the
    overall signal fraction against white noise, so (q=1, r=1) reduces to
    :func:`noisy_ghz`.
    """
    _check_unit_interval(p=p, q=q, r=r)
    signal = np.zeros((8, 8), dtype=np.complex128)
    for index in range(4):
        weight = r if index == 0 else (1.0 - r) / 3.0
        plus, minus = _ghz_projector(index, +1), _ghz_projector(index, -1)
        signal += weight * (q * plus + (1.0 - q) * minus)
    # A state by construction: a convex mix, p, q and r in [0, 1], of
    # validated projectors and I/8.
    return DensityMatrix._trusted(3, p * signal + (1.0 - p) * np.eye(8) / 8.0)


def noisy_w(p: float) -> DensityMatrix:
    """W state mixed with white noise: p |W><W| + (1-p) I/8."""
    _check_unit_interval(p=p)
    w = _w_projector()
    # A state by construction: a convex mix, p in [0, 1], of a validated
    # projector and I/8.
    return DensityMatrix._trusted(3, p * w + (1.0 - p) * np.eye(8) / 8.0)


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 2 ** n_qubits
    return DensityMatrix(n_qubits, np.eye(dim) / dim)


# ---------------------------------------------------------------------------
# operations

def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker composition; qubits of ``a`` come first."""
    ma, na = _entries(a)
    mb, nb = _entries(b)
    normalized = (isinstance(a, DensityMatrix) and a.normalized
                  and isinstance(b, DensityMatrix) and b.normalized)
    return DensityMatrix(na + nb, np.kron(ma, mb), normalized=normalized)


def partial_trace(rho, keep) -> DensityMatrix:
    """Reduced state on the kept qubits; the trace is preserved.

    ``keep`` is a qubit index or a sequence of them.  Kept qubits retain
    their relative order.
    """
    m, n = _entries(rho)
    kept = _resolve_qubits(keep, n)
    traced = tuple(i for i in range(n) if i not in kept)
    t = m.reshape((2,) * (2 * n))
    # Preserve the caller's kept order by permuting before contraction.
    perm = list(kept) + list(traced)
    t = t.transpose(perm + [n + i for i in perm])
    k = len(kept)
    t = t.reshape((2 ** k, 2 ** (n - k), 2 ** k, 2 ** (n - k)))
    reduced = np.einsum("ajbj->ab", t)
    normalized = rho.normalized if isinstance(rho, DensityMatrix) else True
    return DensityMatrix(len(kept), reduced, normalized=normalized)


def _partial_transpose_array(m: np.ndarray, n: int, party: tuple[int, ...]) -> np.ndarray:
    t = m.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for i in party:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return t.transpose(axes).reshape(m.shape)


def partial_transpose(rho, party) -> np.ndarray:
    """Transpose the indices of one party; an involution that preserves trace.

    Returns a plain array: the result of a partial transpose is generally not
    positive semidefinite, which is exactly what makes it useful.
    """
    m, n = _entries(rho)
    idx = _resolve_qubits(party, n)
    return _partial_transpose_array(m, n, idx)


def project_subsystem(rho, psi: PureState, measured,
                      normalize: bool = False) -> tuple[DensityMatrix, float]:
    """Sandwich <psi| rho |psi> over the measured qubits.

    Returns the operator on the remaining qubits together with its trace
    (the branch weight).  With ``normalize`` the state is rescaled to unit
    trace, which fails with :class:`DegenerateProjectionError` when the
    weight is below ``1e-14``.
    """
    m, n = _entries(rho)
    measured_idx = _resolve_qubits(measured, n)
    if psi.n_qubits != len(measured_idx):
        raise ValueError(
            f"projector on {psi.n_qubits} qubits does not match "
            f"{len(measured_idx)} measured indices")
    kept = tuple(i for i in range(n) if i not in measured_idx)
    t = m.reshape((2,) * (2 * n))
    amps = np.asarray(psi.amplitudes).reshape((2,) * psi.n_qubits)
    t = np.tensordot(amps.conj(), t, axes=(range(psi.n_qubits), measured_idx))
    # Row-side measured axes are consumed; column-side positions shift left.
    col_measured = tuple(len(kept) + i for i in measured_idx)
    t = np.tensordot(t, amps, axes=(col_measured, range(psi.n_qubits)))
    k = len(kept)
    reduced = t.reshape((2 ** k, 2 ** k))
    weight = float(np.trace(reduced).real)
    if normalize:
        if weight < DEGENERATE_WEIGHT:
            raise DegenerateProjectionError(
                f"projection weight {weight:.3e} below {DEGENERATE_WEIGHT:.1e}")
        return DensityMatrix(k, reduced / weight), weight
    return DensityMatrix(k, reduced, normalized=False), weight


def fidelity_with_pure(rho, psi: PureState) -> float:
    """Overlap <psi| rho |psi>."""
    m, n = _entries(rho)
    if n != psi.n_qubits:
        raise ValueError(
            f"state on {n} qubits incompatible with projector on {psi.n_qubits}")
    amps = np.asarray(psi.amplitudes)
    return float(np.real(amps.conj() @ m @ amps))


def apply_local(rho, op, qubit: int) -> DensityMatrix:
    """Conjugate by a single-qubit operator on the given qubit."""
    m, n = _entries(rho)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    (qubit,) = _resolve_qubits(qubit, n)
    t = m.reshape((2,) * (2 * n))
    t = np.tensordot(op, t, axes=(1, qubit))
    t = np.moveaxis(t, 0, qubit)
    t = np.tensordot(t, op.conj().T, axes=(n + qubit, 0))
    t = np.moveaxis(t, -1, n + qubit)
    normalized = rho.normalized if isinstance(rho, DensityMatrix) else True
    return DensityMatrix(n, t.reshape(m.shape), normalized=normalized)


# ---------------------------------------------------------------------------
# density-matrix file format

def _matrix_to_dict(m: np.ndarray) -> dict:
    """The JSON encoding of a complex matrix: its real and imaginary parts."""
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    return {"n_qubits": int(rho.n_qubits),
            **_matrix_to_dict(np.asarray(rho.entries))}


def density_matrix_from_dict(doc: Mapping) -> DensityMatrix:
    try:
        n = doc["n_qubits"]
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateValidationError(f"malformed density-matrix document: {exc}")
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateValidationError(
            f"n_qubits must be a JSON integer, got {n!r}")
    if re.shape != im.shape:
        raise StateValidationError(
            f"re/im shapes differ: {re.shape} vs {im.shape}")
    return DensityMatrix(n, re + 1j * im)


def _write_atomically(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so that a failed write leaves any old file as it was.  The
    file gets the mode a plain ``open`` gives a new file, 0o666 less the
    process umask, which the system applies on creation."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".superact-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # e.g. a missing directory
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_density_matrix(rho: DensityMatrix, path) -> None:
    _write_atomically(path, json.dumps(density_matrix_to_dict(rho)))


def load_density_matrix(path) -> DensityMatrix:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise StateValidationError("density-matrix file must hold a JSON object")
    return density_matrix_from_dict(doc)
