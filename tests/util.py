"""Shared helpers for the test suite: seeded random states and brute-force
reference implementations that stay independent of the package's own
index gymnastics."""

import numpy as np


def random_density_matrix(rng, n_qubits):
    dim = 2 ** n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
