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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import hermitian_eigenvalues

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9
AMPLITUDE_NORM_TOL = 1e-12
DEGENERATE_WEIGHT = 1e-14

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

PARTY_LABELS = ("A", "B", "C", "kept", "measured")


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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over a register of qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if self.n_qubits < 1:
            raise StateValidationError("n_qubits must be positive")
        if amps.size != 2 ** self.n_qubits:
            raise StateValidationError(
                f"amplitude vector of length {amps.size} does not match "
                f"{self.n_qubits} qubits")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > AMPLITUDE_NORM_TOL:
            raise StateValidationError(
                f"squared-amplitude sum {norm_sq!r} deviates from 1 beyond "
                f"{AMPLITUDE_NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

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
        m = np.asarray(self.entries, dtype=np.complex128)
        dim = 2 ** self.n_qubits
        if self.n_qubits < 1:
            raise StateValidationError("n_qubits must be positive")
        if m.shape != (dim, dim):
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

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (exact Jacobi diagonalization)."""
        return hermitian_eigenvalues(self.entries)


@dataclass(frozen=True)
class SubsystemPartition:
    """Assignment of qubit indices to party labels.

    The labelled index groups must be disjoint and cover ``0..n_qubits-1``.
    """

    n_qubits: int
    parts: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        parts = {label: tuple(int(i) for i in idx)
                 for label, idx in dict(self.parts).items()}
        seen: list[int] = []
        for label, idx in parts.items():
            if label not in PARTY_LABELS:
                raise StateValidationError(
                    f"unknown party label {label!r}; expected one of {PARTY_LABELS}")
            seen.extend(idx)
        if sorted(seen) != list(range(self.n_qubits)):
            raise StateValidationError(
                f"indices {sorted(seen)} do not form a disjoint cover of "
                f"0..{self.n_qubits - 1}")
        object.__setattr__(self, "parts", parts)

    def qubits(self, label: str) -> tuple[int, ...]:
        return self.parts[label]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.parts)

    @classmethod
    def bipartition(cls, n_qubits: int, first: Sequence[int],
                    labels: tuple[str, str] = ("A", "B")) -> "SubsystemPartition":
        first_t = tuple(int(i) for i in first)
        second = tuple(i for i in range(n_qubits) if i not in first_t)
        return cls(n_qubits, {labels[0]: first_t, labels[1]: second})

    @classmethod
    def kept_measured(cls, n_qubits: int, kept: Sequence[int]) -> "SubsystemPartition":
        kept_t = tuple(int(i) for i in kept)
        measured = tuple(i for i in range(n_qubits) if i not in kept_t)
        return cls(n_qubits, {"kept": kept_t, "measured": measured})


def _resolve_qubits(spec, n_qubits: int, *, role: str) -> tuple[int, ...]:
    """Accept either explicit indices or a SubsystemPartition label group."""
    if isinstance(spec, SubsystemPartition):
        if role in spec.parts:
            idx = spec.parts[role]
        elif len(spec.parts) == 1:
            idx = next(iter(spec.parts.values()))
        else:
            raise ValueError(
                f"partition {spec.labels} does not single out a {role!r} group")
    elif isinstance(spec, (int, np.integer)):
        idx = (int(spec),)
    else:
        idx = tuple(int(i) for i in spec)
    if len(set(idx)) != len(idx) or any(i < 0 or i >= n_qubits for i in idx):
        raise ValueError(f"invalid qubit indices {idx} for {n_qubits} qubits")
    return idx


def _entries(rho) -> tuple[np.ndarray, int]:
    if isinstance(rho, DensityMatrix):
        return np.asarray(rho.entries), rho.n_qubits
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise StateValidationError(
            f"matrix shape {m.shape} is not a nonempty square matrix")
    n = m.shape[0].bit_length() - 1
    if m.shape != (2 ** n, 2 ** n):
        raise StateValidationError(f"matrix shape {m.shape} is not a qubit register")
    _check_finite(m)
    return m, n


# ---------------------------------------------------------------------------
# canonical pure states

def make_ghz(index: int, sign: int) -> PureState:
    """Three-qubit GHZ-type basis state.

    ``index`` in 0..3 selects the bit pattern of the first branch
    (|000>, |001>, |010>, |100>), ``sign`` (+1/-1) the relative phase of its
    bit-flipped partner.  The eight states form an orthonormal family.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"index must be in 0..3, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
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


def noisy_ghz(p: float) -> DensityMatrix:
    """GHZ state mixed with white noise: p |GHZ><GHZ| + (1-p) I/8."""
    _check_unit_interval(p=p)
    g = ghz3().projector().entries
    return DensityMatrix(3, p * g + (1.0 - p) * np.eye(8) / 8.0)


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
        plus = make_ghz(index, +1).projector().entries
        minus = make_ghz(index, -1).projector().entries
        signal += weight * (q * plus + (1.0 - q) * minus)
    return DensityMatrix(3, p * signal + (1.0 - p) * np.eye(8) / 8.0)


def noisy_w(p: float) -> DensityMatrix:
    """W state mixed with white noise: p |W><W| + (1-p) I/8."""
    _check_unit_interval(p=p)
    w = w_state().projector().entries
    return DensityMatrix(3, p * w + (1.0 - p) * np.eye(8) / 8.0)


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

    ``keep`` is a sequence of qubit indices or a partition with a ``kept``
    group.  Kept qubits retain their relative order.
    """
    m, n = _entries(rho)
    kept = _resolve_qubits(keep, n, role="kept")
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
    idx = _resolve_qubits(party, n, role="B")
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
    measured_idx = _resolve_qubits(measured, n, role="measured")
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
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    t = m.reshape((2,) * (2 * n))
    t = np.tensordot(op, t, axes=(1, qubit))
    t = np.moveaxis(t, 0, qubit)
    t = np.tensordot(t, op.conj().T, axes=(n + qubit, 0))
    t = np.moveaxis(t, -1, n + qubit)
    normalized = rho.normalized if isinstance(rho, DensityMatrix) else True
    return DensityMatrix(n, t.reshape(m.shape), normalized=normalized)


# ---------------------------------------------------------------------------
# density-matrix file format

def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    m = np.asarray(rho.entries)
    return {"n_qubits": rho.n_qubits,
            "re": m.real.tolist(),
            "im": m.imag.tolist()}


def density_matrix_from_dict(doc: Mapping) -> DensityMatrix:
    try:
        n = int(doc["n_qubits"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateValidationError(f"malformed density-matrix document: {exc}")
    if re.shape != im.shape:
        raise StateValidationError(
            f"re/im shapes differ: {re.shape} vs {im.shape}")
    return DensityMatrix(n, re + 1j * im)


def save_density_matrix(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(density_matrix_to_dict(rho), fh)


def load_density_matrix(path) -> DensityMatrix:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise StateValidationError("density-matrix file must hold a JSON object")
    return density_matrix_from_dict(doc)
