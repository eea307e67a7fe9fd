"""Entanglement verification: X-shape concurrence, negativity, witnesses, SLE.

The stochastic-localizable-entanglement (SLE) search projects the third
qubit of a tripartite state onto cos(theta)|0> + sin(theta) e^{i phi}|1>
and extremizes a bipartite quantifier of the normalized remainder:

- ``negativity`` is maximized; a positive optimum certifies that some
  projection leaves the pair entangled (for two qubits the PPT criterion is
  necessary and sufficient, so this is an if-and-only-if certificate);
- ``min-eigenvalue-after-pt`` is minimized; a positive minimum certifies
  that every projection leaves the pair separable, i.e. the absence of SLE.

The optimizer is deterministic: a 64x64 (theta, phi) grid with a
lowest-theta-then-lowest-phi tie-break, followed by a Nelder-Mead simplex
refinement seeded from the best three grid points.

The objective is set up once per search.  The projected pair state is a
combination of four 4x4 blocks of rho with coefficients in (theta, phi),
``c^2 T00 + c s (e^{i phi} T01 + e^{-i phi} T10) + s^2 T11``, so the blocks
are partially transposed and traced once and each evaluation, of the whole
grid or of one Nelder-Mead point, is a single ``(n, 4) @ (4, 16)`` product
followed by a batched 4x4 eigensolve.  ``sle_quantifier_at`` evaluates the
same objective at one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .states import (
    PAULI_X,
    PAULI_Y,
    DEGENERATE_WEIGHT,
    DegenerateProjectionError,
    DensityMatrix,
    SubsystemPartition,
    _entries,
    _partial_transpose_array,
    _resolve_qubits,
    ghz3,
    w_state,
)

QUANTIFIER_NEGATIVITY = "negativity"
QUANTIFIER_MIN_EIGENVALUE = "min-eigenvalue-after-pt"

X_SHAPE_LEAKAGE_TOL = 1e-8

SLE_GRID_SIZE = 64
SLE_REFINE_STEPS = 500
SLE_PARAM_TOL = 1e-9


class NotXShapedError(ValueError):
    """Off-pattern entries are too large for the X-shape concurrence."""

    def __init__(self, leakage: float, tolerance: float):
        self.leakage = leakage
        self.tolerance = tolerance
        super().__init__(
            f"off-pattern magnitude {leakage:.3e} exceeds {tolerance:.1e}")


# ---------------------------------------------------------------------------
# X-shaped matrices

@dataclass(frozen=True)
class XShapeView:
    """Diagonal/anti-diagonal decomposition of an X-patterned matrix.

    ``a[i]`` and ``b[i]`` are the diagonal entries paired by the
    anti-diagonal, ``c[i]`` the upper anti-diagonal entry linking them;
    everything off that pattern is summarized by its largest magnitude.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    max_off_pattern_magnitude: float

    @property
    def half_dim(self) -> int:
        return self.a.size

    def reconstruct(self) -> np.ndarray:
        d = 2 * self.half_dim
        m = np.zeros((d, d), dtype=np.complex128)
        for i in range(self.half_dim):
            m[i, i] = self.a[i]
            m[d - 1 - i, d - 1 - i] = self.b[i]
            m[i, d - 1 - i] = self.c[i]
            m[d - 1 - i, i] = np.conj(self.c[i])
        return m


def x_shape_view(rho, tolerance: float = 0.0) -> XShapeView:
    """Extract the X pattern of a matrix and report off-pattern leakage.

    Leakage is never an error here; entries with magnitude at most
    ``tolerance`` are treated as clean zeros.
    """
    m, _ = _entries(rho)
    d = m.shape[0]
    if d % 2 != 0:
        raise ValueError(f"X pattern needs even dimension, got {d}")
    half = d // 2
    a = np.array([m[i, i].real for i in range(half)])
    b = np.array([m[d - 1 - i, d - 1 - i].real for i in range(half)])
    c = np.array([m[i, d - 1 - i] for i in range(half)])
    pattern = np.zeros((d, d), dtype=bool)
    idx = np.arange(d)
    pattern[idx, idx] = True
    pattern[idx, d - 1 - idx] = True
    off = np.abs(m[~pattern])
    leakage = float(off.max(initial=0.0))
    if leakage <= tolerance:
        leakage = 0.0
    return XShapeView(a=a, b=b, c=c, max_off_pattern_magnitude=leakage)


def gme_concurrence_arguments(rho, leakage_tol: float = X_SHAPE_LEAKAGE_TOL) -> np.ndarray:
    """Inner arguments |c_i| - sum_{j != i} sqrt(a_j b_j), before clipping.

    Their maximum changes sign exactly where genuine multipartite
    entanglement appears, which makes them the natural bisection quantity.
    """
    view = x_shape_view(rho)
    if view.max_off_pattern_magnitude > leakage_tol:
        raise NotXShapedError(view.max_off_pattern_magnitude, leakage_tol)
    roots = np.sqrt(np.maximum(view.a * view.b, 0.0))
    total = roots.sum()
    return np.abs(view.c) - (total - roots)


def gme_concurrence_x(rho, leakage_tol: float = X_SHAPE_LEAKAGE_TOL) -> float:
    """GME concurrence of an X-shaped state: 2 max_i {0, |c_i| - sum sqrt(a_j b_j)}."""
    args = gme_concurrence_arguments(rho, leakage_tol)
    return float(2.0 * max(0.0, args.max()))


# ---------------------------------------------------------------------------
# bipartite quantifiers

def _transpose_side(rho, bipartition) -> tuple[np.ndarray, int]:
    m, n = _entries(rho)
    if bipartition is None:
        if n != 2:
            raise ValueError("bipartition required for more than two qubits")
        side = (1,)
    elif isinstance(bipartition, SubsystemPartition):
        labels = bipartition.labels
        label = "B" if "B" in labels else labels[-1]
        side = bipartition.qubits(label)
    else:
        side = _resolve_qubits(bipartition, n, role="B")
    return _partial_transpose_array(m, n, tuple(side)), n


def negativity(rho, bipartition=None) -> float:
    """log2 of the trace norm of the partial transpose; zero for PPT states."""
    pt, _ = _transpose_side(rho, bipartition)
    eigs = np.linalg.eigvalsh(pt)
    return float(np.log2(np.abs(eigs).sum()))


def min_eig_after_pt(rho, bipartition=None) -> float:
    """Lowest eigenvalue after partial transposition.

    Negative certifies entanglement across the bipartition; for two qubits a
    nonnegative value certifies separability.
    """
    pt, _ = _transpose_side(rho, bipartition)
    return float(np.linalg.eigvalsh(pt)[0])


# ---------------------------------------------------------------------------
# fidelity witnesses

def ghz_witness_expectation(rho) -> float:
    """Expectation of I/2 - |GHZ><GHZ|; negative certifies GME."""
    m, n = _entries(rho)
    if n != 3:
        raise ValueError(f"expected a three-qubit state, got {n} qubits")
    amps = np.asarray(ghz3().amplitudes)
    fidelity = float(np.real(amps.conj() @ m @ amps))
    return 0.5 * float(np.trace(m).real) - fidelity


def w_witness_expectation(rho) -> float:
    """Expectation of (2/3) I - |W><W|; negative certifies GME."""
    m, n = _entries(rho)
    if n != 3:
        raise ValueError(f"expected a three-qubit state, got {n} qubits")
    amps = np.asarray(w_state().amplitudes)
    fidelity = float(np.real(amps.conj() @ m @ amps))
    return (2.0 / 3.0) * float(np.trace(m).real) - fidelity


def mk_observable(k: int) -> np.ndarray:
    """cos(k pi/3) X + sin(k pi/3) Y, the three equatorial settings."""
    angle = k * np.pi / 3.0
    return np.cos(angle) * PAULI_X + np.sin(angle) * PAULI_Y


def _product_expectation(m: np.ndarray, single_qubit_ops) -> float:
    op = np.array([[1.0]], dtype=np.complex128)
    for o in single_qubit_ops:
        op = np.kron(op, o)
    return float(np.real(np.trace(m @ op)))


def exact_ghz_settings(rho) -> dict[str, float]:
    """Exact expectation values of the GHZ fidelity decomposition settings."""
    m, n = _entries(rho)
    if n != 3:
        raise ValueError(f"expected a three-qubit state, got {n} qubits")
    settings = {"population": float(np.real(m[0, 0] + m[7, 7]))}
    for k in range(3):
        mk = mk_observable(k)
        settings[f"m{k}"] = _product_expectation(m, (mk, mk, mk))
    return settings


def exact_epr_settings(rho) -> dict[str, float]:
    """Exact expectation values of the EPR fidelity decomposition settings."""
    m, n = _entries(rho)
    if n != 2:
        raise ValueError(f"expected a two-qubit state, got {n} qubits")
    return {
        "population": float(np.real(m[0, 0] + m[3, 3])),
        "xx": _product_expectation(m, (PAULI_X, PAULI_X)),
        "yy": _product_expectation(m, (PAULI_Y, PAULI_Y)),
    }


_FIDELITY_SETTINGS = {
    "ghz3": ("population", "m0", "m1", "m2"),
    "epr": ("population", "xx", "yy"),
}


def fidelity_from_settings(expectations: Mapping[str, float], target: str) -> float:
    """Fidelity with the target state from measured setting expectations.

    For ``"ghz3"`` the settings are the two-component population term and
    the three equatorial products ``m0, m1, m2``; for ``"epr"`` the
    population term and the ``xx``/``yy`` products.
    """
    key = target.lower()
    if key not in _FIDELITY_SETTINGS:
        raise ValueError(f"unknown target {target!r}; use 'ghz3' or 'epr'")
    missing = [s for s in _FIDELITY_SETTINGS[key] if s not in expectations]
    if missing:
        raise ValueError(f"missing settings for {target}: {missing}")
    e = expectations
    if key == "ghz3":
        return 0.5 * e["population"] + (e["m0"] - e["m1"] + e["m2"]) / 6.0
    return 0.5 * e["population"] + 0.25 * (e["xx"] - e["yy"])


# ---------------------------------------------------------------------------
# stochastic localizable entanglement

@dataclass(frozen=True)
class SLEResult:
    """Optimum of a bipartite quantifier over single-qubit projections."""

    value: float
    theta: float
    phi: float
    quantifier: str
    localized_state: DensityMatrix


def sle_result_to_json_dict(result: SLEResult) -> dict:
    """Complete JSON record of an SLE search result."""
    from .states import density_matrix_to_dict

    return {
        "value": result.value,
        "optimizer": {"theta": result.theta, "phi": result.phi},
        "quantifier": result.quantifier,
        "localized_state": density_matrix_to_dict(result.localized_state),
    }


def _resolve_pair(rho, pair) -> tuple[tuple[int, int], int]:
    _, n = _entries(rho)
    if n != 3:
        raise ValueError(f"SLE search expects a three-qubit state, got {n}")
    if pair is None:
        kept: tuple[int, ...] = (0, 1)
    elif isinstance(pair, SubsystemPartition):
        if "kept" in pair.parts:
            kept = pair.qubits("kept")
        elif "A" in pair.parts and "B" in pair.parts:
            kept = pair.qubits("A") + pair.qubits("B")
        else:
            raise ValueError(f"partition {pair.labels} does not name a kept pair")
    else:
        kept = tuple(int(i) for i in pair)
    if len(kept) != 2:
        raise ValueError(f"kept pair must have exactly two qubits, got {kept}")
    measured = tuple(i for i in range(3) if i not in kept)
    if len(measured) != 1:
        raise ValueError(f"pair {kept} does not leave exactly one measured qubit")
    return (kept[0], kept[1]), measured[0]


class _SLEObjective:
    """The SLE objective of one state, kept pair and quantifier.

    With ``T_ab = <a| rho |b>`` over the measured qubit, the projected
    (unnormalized) pair state is
    ``c^2 T_00 + c s (e^{i phi} T_01 + e^{-i phi} T_10) + s^2 T_11`` with
    ``c, s = cos(theta), sin(theta)``, that is the real combination
    ``(c^2, c s cos(phi), c s sin(phi), s^2)`` of the blocks
    ``(T_00, T_01 + T_10, i (T_01 - T_10), T_11)``.  Partial transposition
    and trace are linear, so the four blocks are transposed and traced once
    here and every evaluation is one ``(n, 4) @ (4, 16)`` product, done in
    real arithmetic on the blocks' real view.
    """

    def __init__(self, rho, pair, quantifier: str):
        if quantifier not in (QUANTIFIER_NEGATIVITY, QUANTIFIER_MIN_EIGENVALUE):
            raise ValueError(f"unknown quantifier {quantifier!r}")
        m, _ = _entries(rho)
        kept, measured = _resolve_pair(rho, pair)
        # Axes of the reshaped rho: qubit rows 0..2, then qubit columns 3..5.
        t00, t01, t10, t11 = m.reshape((2,) * 6).transpose(
            measured, 3 + measured, kept[0], kept[1], 3 + kept[0], 3 + kept[1]
        ).reshape(4, 4, 4)
        blocks = np.stack([t00, t01 + t10, 1j * (t01 - t10), t11])
        blocks_pt = blocks.reshape(4, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
        self.quantifier = quantifier
        self.blocks = blocks.reshape(4, 16).view(np.float64)
        self.blocks_pt = blocks_pt.reshape(4, 16).view(np.float64)
        self.traces = np.einsum("kii->k", blocks).real

    @staticmethod
    def _coefficients(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        c, s = np.cos(thetas), np.sin(thetas)
        cs = c * s
        return np.stack([c * c, cs * np.cos(phis), cs * np.sin(phis), s * s],
                        axis=1)

    def _combine(self, coeffs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        return (coeffs @ blocks).view(np.complex128).reshape(-1, 4, 4)

    def values(self, thetas: np.ndarray,
               phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantifier values for a batch of (theta, phi) projection directions.

        Invalid (near-zero-weight) projections are returned as the worst
        possible value for the search direction, plus a validity mask.
        """
        coeffs = self._coefficients(thetas, phis)
        weights = coeffs @ self.traces
        valid = weights > DEGENERATE_WEIGHT
        safe = np.where(valid, weights, 1.0)
        pt = self._combine(coeffs, self.blocks_pt) / safe[:, None, None]
        eigs = np.linalg.eigvalsh(pt)
        if self.quantifier == QUANTIFIER_NEGATIVITY:
            with np.errstate(divide="ignore"):
                values = np.log2(np.abs(eigs).sum(axis=1))
            return np.where(valid, values, -np.inf), valid
        return np.where(valid, eigs[:, 0], np.inf), valid

    def projected(self, theta: float, phi: float) -> np.ndarray:
        """The unnormalized pair state left by the projection at one point."""
        coeffs = self._coefficients(np.array([theta]), np.array([phi]))
        return self._combine(coeffs, self.blocks)[0]


def sle_quantifier_at(rho, pair, theta: float, phi: float, quantifier: str) -> float:
    """Evaluate the chosen quantifier at one projection direction."""
    values, valid = _SLEObjective(rho, pair, quantifier).values(
        np.array([theta]), np.array([phi]))
    if not valid[0]:
        raise DegenerateProjectionError(
            f"projection at theta={theta}, phi={phi} has vanishing weight")
    return float(values[0])


def _nelder_mead(objective: Callable[[np.ndarray], float],
                 simplex: np.ndarray, max_steps: int,
                 param_tol: float) -> tuple[np.ndarray, float]:
    """Minimize a 2-D function from an explicit starting simplex."""
    points = [np.array(p, dtype=float) for p in simplex]
    values = [objective(p) for p in points]
    for _ in range(max_steps):
        order = np.argsort(values)
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        spread = max(np.abs(points[i] - points[0]).max() for i in (1, 2))
        if spread < param_tol:
            break
        centroid = 0.5 * (points[0] + points[1])
        reflected = centroid + (centroid - points[2])
        f_r = objective(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - points[2])
            f_e = objective(expanded)
            if f_e < f_r:
                points[2], values[2] = expanded, f_e
            else:
                points[2], values[2] = reflected, f_r
        elif f_r < values[1]:
            points[2], values[2] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (points[2] - centroid)
            f_c = objective(contracted)
            if f_c < values[2]:
                points[2], values[2] = contracted, f_c
            else:
                for i in (1, 2):
                    points[i] = points[0] + 0.5 * (points[i] - points[0])
                    values[i] = objective(points[i])
    best = int(np.argmin(values))
    return points[best], values[best]


def sle_quantify(rho, pair=None, quantifier: str = QUANTIFIER_NEGATIVITY,
                 grid_size: int = SLE_GRID_SIZE,
                 refine_steps: int = SLE_REFINE_STEPS,
                 param_tol: float = SLE_PARAM_TOL) -> SLEResult:
    """Extremize a bipartite quantifier over single-qubit projections.

    Negativity is maximized (positive optimum certifies SLE); the minimum
    eigenvalue after partial transposition is minimized (positive minimum
    certifies the absence of SLE).

    Parameters
    ----------
    rho : DensityMatrix or array
        Three-qubit state.
    pair : optional
        The two kept qubits, as indices or a partition; the remaining qubit
        is projected.  Defaults to qubits (0, 1).
    quantifier : str
        ``"negativity"`` or ``"min-eigenvalue-after-pt"``.
    """
    objective = _SLEObjective(rho, pair, quantifier)
    maximize = quantifier == QUANTIFIER_NEGATIVITY

    theta_axis = np.linspace(0.0, np.pi / 2.0, grid_size)
    phi_axis = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    tg, pg = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    thetas, phis = tg.ravel(), pg.ravel()
    values, valid = objective.values(thetas, phis)
    if not valid.any():
        raise DegenerateProjectionError(
            "every projection direction on the grid has vanishing weight")

    signed = values if maximize else -values
    # theta-major ordering makes argmax break ties toward the lowest theta,
    # then the lowest phi.
    order = np.argsort(-signed, kind="stable")
    top = order[:3]

    def signed_objective(point: np.ndarray) -> float:
        values, valid = objective.values(point[:1], point[1:])
        if not valid[0]:
            return np.inf
        return -values[0] if maximize else values[0]

    simplex = np.stack([np.array([thetas[i], phis[i]]) for i in top])
    edge1, edge2 = simplex[1] - simplex[0], simplex[2] - simplex[0]
    area = abs(edge1[0] * edge2[1] - edge1[1] * edge2[0])
    if area < 1e-12:
        h_theta = theta_axis[1] - theta_axis[0]
        h_phi = phi_axis[1] - phi_axis[0]
        simplex = np.stack([
            simplex[0],
            simplex[0] + np.array([0.5 * h_theta, 0.0]),
            simplex[0] + np.array([0.0, 0.5 * h_phi]),
        ])
    best_point, best_signed = _nelder_mead(signed_objective, simplex,
                                           refine_steps, param_tol)

    grid_best = int(top[0])
    grid_signed = -signed[grid_best]
    if grid_signed <= best_signed:
        # Refinement never found a strictly better point; keep the grid one
        # for a deterministic, reproducible optimizer location.
        best_point = np.array([thetas[grid_best], phis[grid_best]])
        best_signed = grid_signed

    theta, phi = float(best_point[0]), float(best_point[1])
    value = -best_signed if maximize else best_signed
    projected = objective.projected(theta, phi)
    weight = float(np.trace(projected).real)
    localized = DensityMatrix(2, projected / weight)
    return SLEResult(value=float(value), theta=theta, phi=phi,
                     quantifier=quantifier, localized_state=localized)
