"""Shared helpers for the test suite: seeded random states and brute-force
reference implementations that stay independent of the package's own
index gymnastics."""

import itertools
from dataclasses import dataclass

import numpy as np

import superact.thresholds as thresholds
from superact.states import PAULI_X, PAULI_Y


@dataclass(frozen=True)
class ThresholdConstant:
    value: float
    provenance: str


def analytic_constants() -> dict[str, ThresholdConstant]:
    """Closed-form threshold values, plus the cited infinite-copy constant,
    the oracles of the bisections."""
    closed = "closed-form"
    return {
        thresholds.PROPERTY_GME: ThresholdConstant(3.0 / 7.0, closed),
        thresholds.PROPERTY_SLE: ThresholdConstant(1.0 / 3.0, closed),
        thresholds.PROPERTY_GME_AFTER: ThresholdConstant(
            (4.0 * np.sqrt(3.0) - 3.0) / 13.0, closed),
        thresholds.PROPERTY_SLE_AFTER: ThresholdConstant(
            (2.0 * np.sqrt(2.0) - 1.0) / 7.0, closed),
        thresholds.PROPERTY_W_SLE: ThresholdConstant(3.0 / 11.0, closed),
        "GME-infinite-copy": ThresholdConstant(0.2, "cited-not-computed"),
    }


def mk_observable(k: int) -> np.ndarray:
    """cos(k pi/3) X + sin(k pi/3) Y, the three equatorial settings."""
    angle = k * np.pi / 3.0
    return np.cos(angle) * PAULI_X + np.sin(angle) * PAULI_Y


def _product_expectation(rho, single_qubit_ops) -> float:
    op = np.array([[1.0]], dtype=np.complex128)
    for o in single_qubit_ops:
        op = np.kron(op, o)
    return float(np.real(np.trace(np.asarray(rho) @ op)))


def exact_ghz_settings(rho) -> dict[str, float]:
    """Exact expectation values of the GHZ fidelity decomposition settings,
    the oracle for ``certify.fidelity_from_settings``."""
    m = np.asarray(getattr(rho, "entries", rho))
    settings = {"population": float(np.real(m[0, 0] + m[7, 7]))}
    for k in range(3):
        mk = mk_observable(k)
        settings[f"m{k}"] = _product_expectation(m, (mk, mk, mk))
    return settings


def exact_epr_settings(rho) -> dict[str, float]:
    """Exact expectation values of the EPR fidelity decomposition settings."""
    m = np.asarray(getattr(rho, "entries", rho))
    return {
        "population": float(np.real(m[0, 0] + m[3, 3])),
        "xx": _product_expectation(m, (PAULI_X, PAULI_X)),
        "yy": _product_expectation(m, (PAULI_Y, PAULI_Y)),
    }


def random_density_matrix(rng, n_qubits):
    dim = 2 ** n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng):
    """A random three-qubit X-shaped state: each pair of basis states i and
    7 - i carries a random 2x2 positive block, nothing else is nonzero."""
    rho = np.zeros((8, 8), dtype=complex)
    for i in range(4):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho[np.ix_([i, 7 - i], [i, 7 - i])] = rng.uniform() * g @ g.conj().T
    return rho / np.trace(rho).real


def phased(rho) -> np.ndarray:
    """rho conjugated by the local unitary diag(1, exp(i a_k)) on each qubit
    k, with angles a = (0.4, 1.3, 2.2)."""
    m = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    u = np.array([1.0], dtype=complex)
    for angle in (0.4, 1.3, 2.2):
        u = np.kron(u, np.array([1.0, np.exp(1j * angle)]))
    return m * np.outer(u, u.conj())


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


# The warning a LAPACK gufunc gives when it fails, which a test that feeds
# the NaN of a failed call on to LAPACK sees again there.
FAILED_LAPACK_WARNING = "ignore:invalid value encountered:RuntimeWarning"


def failing_entry(entry):
    """``entry``, one of ``superact.states``' LAPACK entry functions, failing
    on every call as LAPACK does: NaN in results of the real call's shapes
    (see "LAPACK entry" in ``states``)."""
    def failed(*args):
        out = entry(*args)
        if isinstance(out, tuple):
            return tuple(np.full_like(part, np.nan) for part in out)
        return np.full_like(out, np.nan)
    return failed


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def limit_margin_evaluations(monkeypatch, limit=100):
    """Make every ``certifying_margin`` function raise after ``limit``
    evaluations, so that a bisection that stops shrinking fails instead of
    running forever."""
    build = thresholds.certifying_margin

    def counted(name):
        margin, calls = build(name), []

        def wrapped(p):
            calls.append(p)
            if len(calls) > limit:
                raise RuntimeError(f"more than {limit} margin evaluations")
            return margin(p)

        return wrapped

    monkeypatch.setattr(thresholds, "certifying_margin", counted)


def symmetries_loop(m):
    """The charge vectors c in {-1, 0, 1}^3 and the Z-strings s in
    {0, 1}^3, each in ``itertools.product`` order, that a three-qubit
    matrix conserves, by a loop over every candidate and entry: every
    nonzero entry m[i, j] must have c.i = c.j, and s.i and s.j of equal
    parity, with i and j read as their qubit bits."""

    def dot(vector, index):
        return sum(v * ((index >> (2 - q)) & 1) for q, v in enumerate(vector))

    def conserved(label):
        return all(m[i, j] == 0 or label(i) == label(j)
                   for i in range(8) for j in range(8))

    charges = tuple(c for c in itertools.product((-1, 0, 1), repeat=3)
                    if conserved(lambda i: dot(c, i)))
    strings = tuple(s for s in itertools.product((0, 1), repeat=3)
                    if conserved(lambda i: dot(s, i) % 2))
    return charges, strings


def x_shape_loop(m):
    """(a, b, c, leakage) of a d x d matrix, entry by entry: a[i] = m[i, i]
    and b[i] = m[d-1-i, d-1-i] (real parts), c[i] = m[i, d-1-i] for
    i < d / 2, and the largest magnitude off the diagonal and the
    anti-diagonal, 0.0 if there is none."""
    d = m.shape[0]
    a = [m[i, i].real for i in range(d // 2)]
    b = [m[d - 1 - i, d - 1 - i].real for i in range(d // 2)]
    c = [m[i, d - 1 - i] for i in range(d // 2)]
    leakage = 0.0
    for i in range(d):
        for j in range(d):
            if j not in (i, d - 1 - i):
                leakage = max(leakage, float(np.abs(m[i, j])))
    return np.array(a), np.array(b), np.array(c), leakage


def brute_partial_trace(rho, n_qubits, keep):
    """Loop-based partial trace, big-endian qubit order."""
    keep = list(keep)
    traced = [q for q in range(n_qubits) if q not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)

    def assemble(bits_keep, bits_traced):
        bits = [0] * n_qubits
        for q, b in zip(keep, bits_keep):
            bits[q] = b
        for q, b in zip(traced, bits_traced):
            bits[q] = b
        index = 0
        for b in bits:
            index = 2 * index + b
        return index

    for i in range(dim_keep):
        bi = [(i >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
        for j in range(dim_keep):
            bj = [(j >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
            for t in range(2 ** len(traced)):
                bt = [(t >> (len(traced) - 1 - k)) & 1 for k in range(len(traced))]
                out[i, j] += rho[assemble(bi, bt), assemble(bj, bt)]
    return out


def brute_partial_transpose(rho, n_qubits, party):
    """Loop-based partial transpose, big-endian qubit order."""
    dim = 2 ** n_qubits
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for i in range(dim):
        for j in range(dim):
            bi = [(i >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
            bj = [(j >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
            for q in party:
                bi[q], bj[q] = bj[q], bi[q]
            ni = sum(b << (n_qubits - 1 - q) for q, b in enumerate(bi))
            nj = sum(b << (n_qubits - 1 - q) for q, b in enumerate(bj))
            out[ni, nj] = rho[i, j]
    return out


def _one_nan_state():
    m = np.eye(8, dtype=complex) / 8.0
    m[3, 5] = np.nan
    return m


# Raw arrays that are not a three-qubit matrix, each with the pattern its
# rejection message must match.
BAD_RAW_ARRAYS = {
    "one-nan": (_one_nan_state(), r"non-finite.*the first at \(3, 5\)"),
    "empty": (np.zeros(0), "shape"),
    "empty-2d": (np.zeros((0, 0)), "shape"),
    "1-d": (np.full(8, 0.125), "shape"),
    "non-square": (np.ones((8, 4)), "shape"),
    "not-power-of-two": (np.eye(6) / 6.0, "shape"),
}
