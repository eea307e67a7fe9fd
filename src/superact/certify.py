"""Entanglement verification: X-shape concurrence, negativity, witnesses, SLE.

The stochastic-localizable-entanglement (SLE) search projects the third
qubit of a tripartite state onto cos(theta)|0> + sin(theta) e^{i phi}|1>
and minimizes the lowest eigenvalue lambda_min after partial transposition
of the normalized remainder pair.  A negative minimum certifies that some
projection leaves the pair entangled, a nonnegative one that none does (for
two qubits the PPT criterion is necessary and sufficient).  The same search
gives the maximal negativity: the partial transpose of a unit-trace
two-qubit state has at most one negative eigenvalue (Sanpera, Tarrach &
Vidal, "Quantum separability, time reversal and canonical decompositions",
PRA 58, 826 (1998)), so the negativity is log2(1 - 2 min(0, lambda_min)),
largest where lambda_min is smallest.

The optimizer is deterministic: the best point of a 64x64 (theta, phi)
grid, ties going to the lowest theta, then the lowest phi, refined by
see-saw steps (see "Refinement").  That grid point is found by branch and
bound, bit for bit the first minimum over an evaluation of every point,
with an exact eigensolve only where a perturbation bound cannot rule a
point out (see "Grid search").  A sign-only search looks at the 8x8
subgrid and one step, and stops at a point that certifies a negative
minimum or at a certificate of a nonnegative one (see ``sle_quantify``);
otherwise it goes on from that subgrid to the rest of the grid.  The
objective, ``_SLEObjective``, is set up once per search, so each exact
evaluation, of grid points or of one stepped point, is a row of one small
matrix product and a batched 4x4 eigensolve (``_lowest_eigenvalues``);
``sle_quantifier_at`` evaluates it at one point.

Grid search
-----------
The 64 points of the subgrid of every eighth theta and phi are solved
first.  Every other point takes the nearest of them as its parent A (theta
clamps to the last subgrid row, phi wraps).  Let M be the point's
normalized, transposed pair, E = M - A, lambda_1 <= lambda_2 the two lowest
eigenvalues of A and v its lowest eigenvector.  Two lower bounds on
lambda_min(M) follow:

- *Weyl with Samuelson*: every eigenvalue of E lies within sqrt(3) s of
  m = tr E / 4, where 4 s^2 = ||E - m I||_F^2 (Samuelson's inequality for
  four numbers), so lambda_min(M) >= lambda_1 + m - sqrt(3) s.
- *Second order*: eps = |m| + sqrt(3) s bounds ||E||_2.  Let a = v^H E v
  and r^2 = ||E v||^2 - a^2.  In the basis (v, v-perp), M has the corner
  lambda_1 + a, a coupling of norm r and a block whose eigenvalues are at
  least lambda_2 - eps.  If g = lambda_2 - lambda_1 - 2 eps > 0, then at
  mu = lambda_1 + a - r^2 / g the block less mu is at least g, so the
  Schur complement of M - mu is at least r^2 / g - r^2 / g = 0.  Hence
  lambda_min(M) >= lambda_1 + a - r^2 / g.

The bound is the larger of the two, the second taken only where
g > eps / 4.  Rounding in lambda_1, lambda_2 and v acts like a perturbation
of A by the residual rho of its computed eigenpair, a few ulps of ||A||;
through the r^2 / g term it moves the bound by at most about
rho (1 + 2 eps / g + 5 (eps / g)^2), so by under 90 rho where g > eps / 4.
No term is a difference of nearly equal squares: s and r come from
orthonormal coordinates, of E's traceless part and of E v across the other
eigenvectors of A.

A point is skipped only if its bound, less a slack of
1e-12 (1 + ||A||_F + 2 eps), lies above the best value found on the
subgrid; 2 eps >= ||E||_F, so the slack is at least
1e-12 (1 + ||A||_F + ||E||_F).  The slack dwarfs the rounding of the bound
and of LAPACK's eigenvalues, a few ulps of those norms, so the value an
exhaustive evaluation computes at a skipped point lies above that best
value too: the point can neither be the grid's minimum nor tie with it.
Every other point of nonzero weight is solved.  Each solved point is a row
of one product over the whole grid, divided by its weight as in
``_SLEObjective.values``, and LAPACK solves each 4x4 matrix on its own, so
its value is the exhaustive evaluation's, bit for bit.  (The subgrid is
solved first from a product over its 64 rows alone, which is all a
sign-only search needs; a subgrid row that the whole grid's product rounds
differently would be solved again, and none has been.)  ``np.argmin`` over
the grid, with ``inf`` at skipped points, therefore returns the exhaustive
first minimum.  Points of vanishing weight stay ``inf`` and take no solve.
A subgrid point of vanishing weight stays unnormalized: as a parent, A is
its unnormalized pair and E is taken against that same matrix, so its
children's bounds hold as well.

The bounds need no 4x4 matrix per point.  A point's normalized pair is
sum_j n_j H_j, with n its coefficients over its weight and H_j the
Hermitian blocks LAPACK reads (their lower triangles), so E, tr E, E's
traceless part and E v are linear in the differences of n from the
parent's (``_GridSearch``).

Measured on 392 searches, the ``certify-mixed`` bench pools of seeds 1-8
and 40 random states with each of the three kept pairs, the search solves
430 of the 4096 points on average, subgrid included (median 356, at most
2492), and finds the exhaustive point bit for bit every time.  So did 1800
more searches over random states, I/8, noisy GHZ states at 41 values of
p, noisy W, distilled GHZ and W, rank-1, product and near-white states,
and states with a pinned measured qubit; at no grid point of those did a
bound less its slack exceed the computed value.  Ties cannot be pruned:
on I/8 every point is solved.

Refinement
----------
With psi = (cos(theta), sin(theta) e^{i phi}) and the blocks
T_ij = <i| rho |j> over the measured qubit, the projected, transposed pair
is sum_ij conj(psi_i) psi_j T_ij^{T_b} and its weight psi^H R psi, where
R_ij = tr T_ij is the measured qubit's unnormalized state.  The objective
is therefore a minimum over unit pair vectors f and directions psi of
psi^H A(f) psi / psi^H R psi, with A(f)_ij = <f| T_ij^{T_b} |f>, and can be
minimized alternately over the two ("see-saw"; Werner & Wolf, "Bell
inequalities and entanglement", QIC 1 (2001)): f is the lowest eigenvector
of the 4x4 pair at the current psi, psi the lowest generalized eigenvector
of the 2x2 pair (A(f), R).  The step never increases the value: the new
psi's value is at most its ratio at f, the lowest ratio at f, so at most
the old psi's ratio at f, which is the old value.

The search steps from the grid's best point and keeps each step only while
it strictly lowers the value, at most ``SLE_REFINE_STEPS`` of them, so it
never reports a point worse than the grid's.  On a ring of degenerate
optima, as for noisy GHZ states with p > 0, whose value does not depend on
phi, the step leaves the grid's phi in place and lands on theta = pi/4.
When R is singular the step is skipped: the measured qubit is then pure,
the state a product with it, and the objective constant wherever the
weight is nonzero.  A sign-only search takes at most one step from its
subgrid's best point.  At the 39 SLE and SLE-after-distill bisection points the
subgrid settles 12 of the 21 negative margins and the step the other 9,
each within 1e-16 of the default search's optimum.

Certified nonnegative signs
---------------------------
Call the measured qubit m and the kept pair (a, b), and let X = rho^{T_b}.
Projecting m onto |psi> and transposing b leaves an unnormalized pair whose
lowest eigenvalue is the minimum of <psi phi|X|psi phi> over unit |phi>.
If X - t I = P + Q^{T_m} with P, Q >= 0, that minimum is at least t, since
<psi phi|Q^{T_m}|psi phi> = <psi* phi|Q|psi* phi> >= 0.  With t > 0 every
normalized value is then at least t / weight > 0 (the weight is at most
tr rho), so every localized pair is PPT and, for two qubits, separable
(Horodecki, Horodecki & Horodecki, PLA 223, 1 (1996)).  In 2x4 such a
decomposition need not exist for a block-positive X (Woronowicz, Rep. Math.
Phys. 10, 165 (1976)), so a missing one proves nothing.

The best t is the optimum of min tr(X W) over unit-trace W with W >= 0 and
W^{T_m} >= 0, whose dual is this decomposition.  ``sle_certificate``
solves it with the Douglas-Rachford loop of ``sdp.py`` (see
"Douglas-Rachford iteration" there) over (W, A, B): the affine set
W = A = B^{T_m}, tr W = 1 has the closed-form projection
``_project_sle_affine``, W = mean(W_0, A_0, B_0^{T_m}) + ((1 - tr) / 8) I,
and the cones are A, B >= 0.  Every ``SLE_CERT_CHECK_EVERY`` = 5 iterations
both sides of the iterate are repaired, as in ``sdp.py``:

- *certificate*: the cone gap over the step holds the multipliers, P-hat
  from A and Q-hat from B, both PSD; t is the lowest eigenvalue of
  X - P-hat - Q-hat^{T_m}, and the PSD remainder minus t I moves into P, so
  X - t I = P + Q^{T_m} exactly.  The solve returns it at the first
  t > ``SLE_SIGN_SLACK``;
- *refutation*: the affine iterate W, shifted by the smallest delta I that
  makes W and W^{T_m} PSD and rescaled to unit trace, is feasible, and
  its value bounds every t from above.  Once it is at most the slack no
  certificate can clear it, and the solve returns None.

After ``SLE_CERT_MAX_ITERATIONS`` it returns None as well.  The step, the
relaxation and the cap were measured at the 39 SLE and SLE-after-distill
bisection points.  27 of them have no negative point on the 8x8 subgrid:
18 with a nonnegative optimum, 9 with a negative one.  Over steps
{0.5, 1, 2, 4, 8} and relaxations {1.0, 1.2, 1.5}, (2, 1.0) took the
fewest iterations on both: 625 in all, at most 100, to certify the 18,
against 745-1280 for the other settings; and 645, at most 105, to refute
the 9 (660-1125).  The cap of 200 is twice the longest certifying solve.
Every certificate found there passes ``verify_sle_certificate``.  Since
the see-saw step settles those 9 first (see "Refinement"), a sign-only
search solves for a certificate only at the 18.  Those counts are from
cold starts of plain Douglas-Rachford.  With the Anderson acceleration of
the loop the 18 take 250 iterations from cold starts, at most 20; along a
bisection each solve starts from the previous certificate's final
splitting variable (``start``), and they take 140, at most 10.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .sdp import (
    _hermitian_part,
    _partial_transpose_index,
    _start,
    _transpose_stack,
    douglas_rachford,
)
from .states import (
    PAULI_X,
    PAULI_Y,
    DEGENERATE_WEIGHT,
    DegenerateProjectionError,
    DensityMatrix,
    _entries,
    _finite_array,
    _partial_transpose_array,
    _resolve_qubits,
    _state_entries,
    fidelity_with_pure,
    ghz3,
    w_state,
)

QUANTIFIER_NEGATIVITY = "negativity"
QUANTIFIER_MIN_EIGENVALUE = "min-eigenvalue-after-pt"

X_SHAPE_LEAKAGE_TOL = 1e-8

SLE_GRID_SIZE = 64
SLE_REFINE_STEPS = 500
# A sign-only SLE search settles only for signed values below -SLE_SIGN_SLACK,
# so optima within rounding of zero take the default search; its first stage
# is the stride-SLE_COARSE_STRIDE subgrid of the search grid.
SLE_SIGN_SLACK = 1e-12
SLE_COARSE_STRIDE = 8
# Douglas-Rachford settings of ``sle_certificate``, chosen by measurement
# (see "Certified nonnegative signs" in the module docstring).
SLE_CERT_STEP = 2.0
SLE_CERT_RELAXATION = 1.0
SLE_CERT_MAX_ITERATIONS = 200
SLE_CERT_CHECK_EVERY = 5
# (row, column) of the entries below the diagonal of a 4x4 pair.
_BELOW_DIAGONAL = np.tril_indices(4, -1)


class NotXShapedError(ValueError):
    """Off-pattern entries are too large for the X-shape concurrence."""

    def __init__(self, leakage: float, tolerance: float):
        self.leakage = leakage
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


def x_shape_view(rho) -> XShapeView:
    """Extract the X pattern of a matrix and report off-pattern leakage.

    Leakage is never an error here; a raw array must be Hermitian and
    positive semidefinite, with any trace.
    """
    m, _ = _state_entries(rho)
    d = m.shape[0]
    half = d // 2
    a = np.array([m[i, i].real for i in range(half)])
    b = np.array([m[d - 1 - i, d - 1 - i].real for i in range(half)])
    c = np.array([m[i, d - 1 - i] for i in range(half)])
    pattern = np.zeros((d, d), dtype=bool)
    idx = np.arange(d)
    pattern[idx, idx] = True
    pattern[idx, d - 1 - idx] = True
    off = np.abs(m[~pattern])
    return XShapeView(a=a, b=b, c=c,
                      max_off_pattern_magnitude=float(off.max(initial=0.0)))


def gme_concurrence_arguments(rho) -> np.ndarray:
    """Inner arguments |c_i| - sum_{j != i} sqrt(a_j b_j), before clipping.

    Their maximum changes sign exactly where genuine multipartite
    entanglement appears, which makes them the natural bisection quantity.
    Off-pattern entries above ``X_SHAPE_LEAKAGE_TOL`` raise
    ``NotXShapedError``; a raw array must be Hermitian and positive
    semidefinite, with any trace.
    """
    view = x_shape_view(rho)
    if view.max_off_pattern_magnitude > X_SHAPE_LEAKAGE_TOL:
        raise NotXShapedError(view.max_off_pattern_magnitude,
                              X_SHAPE_LEAKAGE_TOL)
    roots = np.sqrt(np.maximum(view.a * view.b, 0.0))
    total = roots.sum()
    return np.abs(view.c) - (total - roots)


def gme_concurrence_x(rho) -> float:
    """GME concurrence of an X-shaped state: 2 max_i {0, |c_i| - sum sqrt(a_j b_j)}.

    Inputs are read as by ``gme_concurrence_arguments``.
    """
    args = gme_concurrence_arguments(rho)
    return float(2.0 * max(0.0, args.max()))


# ---------------------------------------------------------------------------
# bipartite quantifiers

def _transpose_side(rho, bipartition) -> np.ndarray:
    """``rho`` transposed on the qubits ``bipartition`` names; None means
    qubit 1 of a two-qubit state."""
    m, n = _state_entries(rho)
    if bipartition is None:
        if n != 2:
            raise ValueError("bipartition required for more than two qubits")
        side = (1,)
    else:
        side = _resolve_qubits(bipartition, n)
    return _partial_transpose_array(m, n, side)


def negativity(rho, bipartition=None) -> float:
    """log2 of the trace norm of the partial transpose; zero for PPT states."""
    pt = _transpose_side(rho, bipartition)
    eigs = np.linalg.eigvalsh(pt)
    return float(np.log2(np.abs(eigs).sum()))


def min_eig_after_pt(rho, bipartition=None) -> float:
    """Lowest eigenvalue after partial transposition.

    Negative certifies entanglement across the bipartition; for two qubits a
    nonnegative value certifies separability.
    """
    pt = _transpose_side(rho, bipartition)
    return float(np.linalg.eigvalsh(pt)[0])


# ---------------------------------------------------------------------------
# fidelity witnesses

def ghz_witness_expectation(rho) -> float:
    """Expectation of I/2 - |GHZ><GHZ|; negative certifies GME.

    A raw array must be Hermitian and positive semidefinite, with any trace.
    """
    m, _ = _state_entries(rho, 3)
    return 0.5 * float(np.trace(m).real) - fidelity_with_pure(m, ghz3())


def w_witness_expectation(rho) -> float:
    """Expectation of (2/3) I - |W><W|; negative certifies GME.

    A raw array must be Hermitian and positive semidefinite, with any trace.
    """
    m, _ = _state_entries(rho, 3)
    return ((2.0 / 3.0) * float(np.trace(m).real)
            - fidelity_with_pure(m, w_state()))


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
    m, _ = _entries(rho, 3)
    settings = {"population": float(np.real(m[0, 0] + m[7, 7]))}
    for k in range(3):
        mk = mk_observable(k)
        settings[f"m{k}"] = _product_expectation(m, (mk, mk, mk))
    return settings


def exact_epr_settings(rho) -> dict[str, float]:
    """Exact expectation values of the EPR fidelity decomposition settings."""
    m, _ = _entries(rho, 2)
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
class SLECertificate:
    """A decomposition rho^{T_b} - t I = P + Q^{T_m} with P, Q >= 0.

    ``pair`` is the kept pair (a, b), b the qubit transposed in rho^{T_b}
    and m the measured qubit; t is ``lower_bound``.  With t > 0 every
    projection of m leaves a PPT, hence separable, pair (see "Certified
    nonnegative signs" in the module docstring); ``verify_sle_certificate``
    re-checks it.  ``final_z`` is the splitting variable the solve reached,
    a start for the solve of a nearby state; it is no part of the
    certificate.
    """

    pair: tuple[int, int]
    lower_bound: float
    p: np.ndarray
    q: np.ndarray
    final_z: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SLEResult:
    """Optimum of a bipartite quantifier over single-qubit projections.

    ``certificate`` is set only by a sign-only search that settled a
    nonnegative sign with a decomposability certificate.
    """

    value: float
    theta: float
    phi: float
    quantifier: str
    localized_state: DensityMatrix
    certificate: SLECertificate | None = None


def sle_result_to_json_dict(result: SLEResult) -> dict:
    """Complete JSON record of an SLE search result."""
    from .states import density_matrix_to_dict

    return {
        "value": result.value,
        "optimizer": {"theta": result.theta, "phi": result.phi},
        "quantifier": result.quantifier,
        "localized_state": density_matrix_to_dict(result.localized_state),
    }


def _resolve_pair(pair) -> tuple[tuple[int, int], int]:
    kept = (0, 1) if pair is None else tuple(int(i) for i in pair)
    if len(kept) != 2:
        raise ValueError(f"kept pair must have exactly two qubits, got {kept}")
    measured = tuple(i for i in range(3) if i not in kept)
    if len(measured) != 1:
        raise ValueError(f"pair {kept} does not leave exactly one measured qubit")
    return (kept[0], kept[1]), measured[0]


def _lowest_eigenvalues(pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lowest eigenvalues of the stack ``pairs / weights``, the one exact
    evaluation of the SLE objective; ``inf`` where the weight is at most
    ``DEGENERATE_WEIGHT``.

    LAPACK solves each 4x4 matrix on its own, so a matrix's value does not
    depend on the batch it is solved in.
    """
    valid = weights > DEGENERATE_WEIGHT
    safe = np.where(valid, weights, 1.0)
    lowest = np.linalg.eigvalsh(pairs / safe[:, None, None])[:, 0]
    return np.where(valid, lowest, np.inf)


class _SLEObjective:
    """The SLE objective of one state and kept pair.

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

    def __init__(self, rho, pair):
        m, _ = _state_entries(rho, 3)  # _report needs rho >= 0
        kept, measured = _resolve_pair(pair)
        # Axes of the reshaped rho: qubit rows 0..2, then qubit columns 3..5.
        t00, t01, t10, t11 = m.reshape((2,) * 6).transpose(
            measured, 3 + measured, kept[0], kept[1], 3 + kept[0], 3 + kept[1]
        ).reshape(4, 4, 4)
        blocks = np.stack([t00, t01 + t10, 1j * (t01 - t10), t11])
        blocks_pt = blocks.reshape(4, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
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

    def values(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Minimum eigenvalues after partial transposition of the normalized
        pair states for a batch of (theta, phi) projection directions.

        Invalid (near-zero-weight) projections score ``inf``.
        """
        coeffs = self._coefficients(thetas, phis)
        return _lowest_eigenvalues(self._combine(coeffs, self.blocks_pt),
                                   coeffs @ self.traces)

    def projected(self, theta: float, phi: float) -> np.ndarray:
        """The unnormalized pair state left by the projection at one point."""
        coeffs = self._coefficients(np.array([theta]), np.array([phi]))
        return self._combine(coeffs, self.blocks)[0]

    def seesaw_step(self, theta: float, phi: float) -> np.ndarray | None:
        """One see-saw step from (theta, phi) (see "Refinement" in the
        module docstring).

        Returns the direction (theta, phi) of the lowest generalized
        eigenvector of (A, R), the 2x2 forms of the lowest eigenvector f of
        the point's projected, transposed pair and of the weight; its value
        is at most the start's.  Returns None when R, the measured qubit's
        unnormalized state, has an eigenvalue at or below
        ``DEGENERATE_WEIGHT``.
        """
        coeffs = self._coefficients(np.array([theta]), np.array([phi]))
        f = np.linalg.eigh(self._combine(coeffs, self.blocks_pt)[0])[1][:, 0]
        blocks_pt = self.blocks_pt.view(np.complex128).reshape(4, 4, 4)
        a = np.einsum("i,kij,j->k", f.conj(), blocks_pt, f).real

        def form(k: np.ndarray) -> np.ndarray:
            # psi^H form psi = c^2 k0 + c s (cos(phi) k1 + sin(phi) k2) + s^2 k3
            off = 0.5 * (k[1] - 1j * k[2])
            return np.array([[k[0], off], [np.conj(off), k[3]]])

        r_eigs, r_vecs = np.linalg.eigh(form(self.traces))
        if r_eigs[0] <= DEGENERATE_WEIGHT:
            return None
        # psi = S y with S = V diag(r)^{-1/2} whitens R, so psi^H R psi = |y|^2.
        whiten = r_vecs / np.sqrt(r_eigs)
        y = np.linalg.eigh(whiten.conj().T @ form(a) @ whiten)[1][:, 0]
        psi = whiten @ y
        return np.array([np.arctan2(abs(psi[1]), abs(psi[0])),
                         np.angle(psi[1] * np.conj(psi[0])) % (2.0 * np.pi)])


def _report(min_eigenvalue: float, quantifier: str) -> float:
    """``quantifier`` of a pair state whose partial transpose has lowest
    eigenvalue ``min_eigenvalue`` (see the module docstring)."""
    if quantifier == QUANTIFIER_NEGATIVITY:
        return float(np.log2(1.0 - 2.0 * min(0.0, min_eigenvalue)))
    if quantifier == QUANTIFIER_MIN_EIGENVALUE:
        return float(min_eigenvalue)
    raise ValueError(f"unknown quantifier {quantifier!r}")


def sle_reported_as(result: SLEResult, quantifier: str) -> SLEResult:
    """A min-eigenvalue SLE result reported as ``quantifier``, same optimizer."""
    if result.quantifier != QUANTIFIER_MIN_EIGENVALUE:
        raise ValueError(f"cannot re-report a {result.quantifier!r} result")
    return replace(result, value=_report(result.value, quantifier),
                   quantifier=quantifier)


def sle_quantifier_at(rho, pair, theta: float, phi: float, quantifier: str) -> float:
    """Evaluate the chosen quantifier at one projection direction."""
    value = _SLEObjective(rho, pair).values(np.array([theta]), np.array([phi]))[0]
    if value == np.inf:
        raise DegenerateProjectionError(
            f"projection at theta={theta}, phi={phi} has vanishing weight")
    return _report(value, quantifier)


def _project_sle_affine(x: np.ndarray, pt_index: np.ndarray,
                        eye: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a stack (W, A, B) onto W = A = B^{T_m},
    tr W = 1, with ``pt_index`` the gather index of the transpose over m."""
    w = (x[0] + x[1] + _transpose_stack(x[2], pt_index)) / 3.0
    w += ((1.0 - w.trace().real) / 8.0) * eye
    return np.stack([w, w, _transpose_stack(w, pt_index)])


def sle_certificate(rho, pair=None, *,
                    start: np.ndarray | None = None) -> SLECertificate | None:
    """Certify that no projection of the measured qubit leaves an NPT pair.

    Solves min tr(X W) over unit-trace W with W >= 0 and W^{T_m} >= 0, with
    X = rho^{T_b}, by Douglas-Rachford splitting, and every
    ``SLE_CERT_CHECK_EVERY`` iterations repairs the cone multipliers into a
    decomposition X - t I = P + Q^{T_m} (see "Certified nonnegative signs"
    in the module docstring).  Returns it at the first t above
    ``SLE_SIGN_SLACK``.  Returns None once a feasible W puts the optimum,
    and so every such t, at or below the slack, or after
    ``SLE_CERT_MAX_ITERATIONS`` iterations: no certificate does not mean
    that some projection leaves an NPT pair.

    ``rho`` is a three-qubit state (an array must be Hermitian and positive
    semidefinite, with any trace); ``pair`` names the kept qubits as in
    ``sle_quantify``.  The iteration starts from ``start``, the ``final_z``
    of an earlier certificate, when it is a finite (3, 8, 8) array of the
    program's dtype, and otherwise from I/8 in each block.
    """
    m, _ = _state_entries(rho, 3)
    kept, measured = _resolve_pair(pair)
    x = _partial_transpose_array(m, 3, (kept[1],))
    if not x.imag.any():  # a real state iterates in real arithmetic
        x = x.real.copy()
    pt_index = _partial_transpose_index(3, ((measured,),))
    eye = np.eye(8, dtype=x.dtype)
    zero = np.zeros_like(x)
    # Over (W, A, B), cold from I/8 in each block; only W carries a cost.
    iterates = douglas_rachford(
        np.stack([x, zero, zero]), _start(start, np.stack([eye / 8.0] * 3)),
        lambda v: _project_sle_affine(v, pt_index, eye),
        SLE_CERT_STEP, SLE_CERT_RELAXATION, SLE_CERT_MAX_ITERATIONS)
    for iteration, (xf, y, xg, z) in enumerate(iterates, 1):
        if iteration % SLE_CERT_CHECK_EVERY:
            continue
        # The cone multipliers: P-hat from A, Q-hat from B.
        p_hat, q_hat = _hermitian_part((xg[1:] - y[1:]) / SLE_CERT_STEP)
        remainder = _hermitian_part(
            x - p_hat - _transpose_stack(q_hat, pt_index))
        w = _hermitian_part(xf[0])
        lowest = np.linalg.eigvalsh(
            np.stack([remainder, w, _transpose_stack(w, pt_index)]))[:, 0]
        t = float(lowest[0])
        if t > SLE_SIGN_SLACK:
            return SLECertificate(pair=kept, lower_bound=t,
                                  p=p_hat + remainder - t * eye, q=q_hat,
                                  final_z=z)
        # (W + delta I) / (1 + 8 delta) is feasible and bounds every t above.
        delta = max(0.0, -float(lowest[1:].min()))
        upper = (float(np.vdot(x, w).real) + delta * float(x.trace().real)) / (
            1.0 + 8.0 * delta)
        if upper <= SLE_SIGN_SLACK:
            return None
    return None


def verify_sle_certificate(certificate: SLECertificate, rho) -> bool:
    """Re-check an SLE certificate against ``rho`` without trusting the solver.

    With X = rho^{T_b} rebuilt from ``rho`` and the residual
    R = X - t I - P - Q^{T_m}, every projected, transposed pair has lowest
    eigenvalue at least t + min(0, lambda_min P) + min(0, lambda_min Q) -
    ||R||_2 (times 1 / weight), on the Hermitian parts of P and Q.  The
    certificate is accepted when that bound lies above ``SLE_SIGN_SLACK``
    and no more than 1e-9 below the certificate's own ``lower_bound``, so
    that a t the decomposition does not back is rejected.  Eigenvalues come
    from the package's Jacobi solver, independent of the LAPACK calls of the
    solve; a non-finite entry fails the check.
    """
    from .linalg import jacobi_eigvalsh

    m, _ = _state_entries(rho, 3)
    kept, measured = _resolve_pair(certificate.pair)
    p = _finite_array(certificate.p, (8, 8))
    q = _finite_array(certificate.q, (8, 8))
    t = float(certificate.lower_bound)
    if p is None or q is None or not np.isfinite(t):
        return False
    residual = (_partial_transpose_array(m, 3, (kept[1],)) - t * np.eye(8)
                - p - _partial_transpose_array(q, 3, (measured,)))
    eigs = jacobi_eigvalsh(np.stack([
        _hermitian_part(p), _hermitian_part(q), residual.conj().T @ residual]))
    bound = (t + min(0.0, eigs[0, 0]) + min(0.0, eigs[1, 0])
             - float(np.sqrt(max(0.0, eigs[2, -1]))))
    return bool(bound > SLE_SIGN_SLACK and bound >= t - 1e-9)


@dataclass(frozen=True)
class _SLEGrid:
    """The (theta, phi) grid of the SLE search and its state-free tables.

    The points are theta-major, so ``np.argmin`` over them sends ties to the
    lowest theta, then the lowest phi.  ``coarse`` lists the points of the
    stride-``SLE_COARSE_STRIDE`` subgrid in that order.  Each point's parent
    is its nearest subgrid point: theta clamps to the last subgrid row and
    phi wraps.  ``groups[r, k]`` lists the points of row r whose parent is
    in subgrid column k, and ``parent_row[r]`` is the subgrid row of row
    r's parents.
    """

    thetas: np.ndarray
    phis: np.ndarray
    coefficients: np.ndarray
    coarse: np.ndarray
    groups: np.ndarray
    group_coefficients: np.ndarray
    parent_row: np.ndarray


@functools.cache
def _sle_grid() -> _SLEGrid:
    """The ``SLE_GRID_SIZE`` x ``SLE_GRID_SIZE`` search grid, built once."""
    size, stride = SLE_GRID_SIZE, SLE_COARSE_STRIDE
    theta_axis = np.linspace(0.0, np.pi / 2.0, size)
    phi_axis = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    thetas, phis = (axis.ravel() for axis in np.meshgrid(
        theta_axis, phi_axis, indexing="ij"))
    coefficients = _SLEObjective._coefficients(thetas, phis)
    steps = np.arange(size)
    groups = (steps[:, None] * size
              + (steps - stride // 2) % size).reshape(size, -1, stride)
    grid = _SLEGrid(
        thetas=thetas, phis=phis, coefficients=coefficients,
        coarse=(steps[::stride, None] * size + steps[None, ::stride]).ravel(),
        groups=groups, group_coefficients=coefficients[groups],
        parent_row=np.minimum((steps + stride // 2) // stride,
                              size // stride - 1))
    for table in vars(grid).values():
        table.flags.writeable = False
    return grid


def _lower_bound(lam: np.ndarray, mean: np.ndarray, spread: np.ndarray,
                 along: np.ndarray, across: np.ndarray) -> np.ndarray:
    """Lower bounds on the lowest eigenvalue of A + E, less their slack,
    elementwise.

    A and E are Hermitian 4x4; ``lam`` holds A's eigenvalues in ascending
    order (last axis) and v is A's lowest eigenvector; ``mean`` is
    m = tr E / 4, ``spread`` s >= 0 with 4 s^2 = ||E - m I||_F^2, ``along``
    a = v^H E v and ``across`` r^2 = ||E v||^2 - a^2.  The bound is the
    larger of Weyl's with Samuelson's and, where
    g = lambda_2 - lambda_1 - 2 eps exceeds eps / 4, the second-order one;
    the slack is 1e-12 (1 + ||A||_F + 2 eps), with 2 eps >= ||E||_F.  See
    "Grid search" in the module docstring.
    """
    lowest = lam[..., 0]
    root3_spread = np.sqrt(3.0) * spread
    eps = np.abs(mean) + root3_spread
    weyl = mean - root3_spread
    gap = lam[..., 1] - lowest - 2.0 * eps
    schur = gap > 0.25 * eps
    second = along - across / np.where(schur, gap, 1.0)
    norm_a = np.sqrt(np.einsum("...k,...k", lam, lam))
    return (lowest + np.where(schur, np.maximum(weyl, second), weyl)
            - 1e-12 * (1.0 + norm_a + 2.0 * eps))


class _GridSearch:
    """The best point of one objective on the SLE grid, by branch and bound.

    Built, it has solved the subgrid exactly (``coarse_best``), as a
    product over the subgrid alone; ``best`` bounds every other point from
    below through its nearest subgrid point and solves only the points
    whose bound does not rule them out (see "Grid search" in the module
    docstring).  Every value ``best`` compares is a row of one product over
    the whole grid, solved by ``_lowest_eigenvalues``, so it is bit for bit
    the one an exhaustive evaluation gives.
    """

    def __init__(self, objective: _SLEObjective):
        grid = _sle_grid()
        self.objective = objective
        self.values = np.full(grid.thetas.size, np.inf)
        # The subgrid's weights and unnormalized transposed pairs, each by
        # one product over its coefficients, as in ``_SLEObjective.values``.
        coefficients = grid.coefficients[grid.coarse]
        self.coarse_weights = coefficients @ objective.traces
        self.coarse_pairs = objective._combine(coefficients,
                                               objective.blocks_pt)
        self.values[grid.coarse] = _lowest_eigenvalues(self.coarse_pairs,
                                                       self.coarse_weights)

    def _point(self, index: int) -> tuple[float, float, float]:
        grid = _sle_grid()
        return grid.thetas[index], grid.phis[index], self.values[index]

    def coarse_best(self) -> tuple[float, float, float]:
        """The best subgrid point, (theta, phi, value)."""
        coarse = _sle_grid().coarse
        return self._point(coarse[int(np.argmin(self.values[coarse]))])

    def best(self) -> tuple[float, float, float]:
        """The best grid point, (theta, phi, value): ``np.argmin`` over the
        exhaustive grid's values, with ``inf`` at every unsolved point."""
        grid = _sle_grid()
        weights = grid.coefficients @ self.objective.traces
        skipped = self._lower_bounds(weights) > self.values[grid.coarse].min()
        pairs = self.objective._combine(grid.coefficients,
                                        self.objective.blocks_pt)
        unsolved = (weights > DEGENERATE_WEIGHT) & ~skipped
        # A subgrid point is solved again only if the whole grid's product
        # rounds it differently from the subgrid's own; BLAS computes each
        # row alike, so this takes no solve in practice.
        unsolved[grid.coarse] = (
            np.any(pairs[grid.coarse] != self.coarse_pairs, axis=(1, 2))
            | (weights[grid.coarse] != self.coarse_weights))
        points = np.flatnonzero(unsolved)
        self.values[points] = _lowest_eigenvalues(pairs[points],
                                                  weights[points])
        return self._point(int(np.argmin(self.values)))

    def _lower_bounds(self, weights: np.ndarray) -> np.ndarray:
        """A lower bound on the value at every grid point, less its slack,
        from its parent A; ``weights`` are the grid's weights.

        A point's normalized pair is sum_j n_j H_j, with n its coefficients
        over its weight and H_j the Hermitian blocks LAPACK reads (their
        lower triangles), so E = sum_j d_j H_j with d = n - n(A).  The
        trace of E, the coordinates of its traceless part and the components
        of E v along A's eigenvectors are therefore linear in d, and no 4x4
        matrix is formed per point.
        """
        grid = _sle_grid()
        sub = SLE_GRID_SIZE // SLE_COARSE_STRIDE
        blocks = self.objective.blocks_pt.view(np.complex128).reshape(4, 4, 4)
        below = blocks[(slice(None),) + _BELOW_DIAGONAL]
        diagonal = np.einsum("jii->ji", blocks).real
        hermitian = diagonal[:, None, :] * np.eye(4, dtype=complex)
        hermitian[(slice(None),) + _BELOW_DIAGONAL] = below
        hermitian[(slice(None),) + _BELOW_DIAGONAL[::-1]] = below.conj()
        # A parent of vanishing weight stays unnormalized, in A and in d.
        safe = np.where(self.coarse_weights > DEGENERATE_WEIGHT,
                        self.coarse_weights, 1.0)
        lam, vec = np.linalg.eigh(self.coarse_pairs / safe[:, None, None])
        # <v_k| H_j |v_0> over each parent's eigenvectors v_k, as 8 reals.
        along = (np.einsum("jab,pb->pja", hermitian, vec[:, :, 0])
                 @ vec.conj()).view(np.float64)

        weights = weights[grid.groups]
        delta = (grid.group_coefficients / np.where(
            weights > DEGENERATE_WEIGHT, weights, 1.0)[..., None]
            - (grid.coefficients[grid.coarse] / safe[:, None]).reshape(
                sub, sub, 1, 4)[grid.parent_row])
        # a = v^H E v (and its zero imaginary part), then E v across v.
        found = delta @ along.reshape(sub, sub, 4, 8)[grid.parent_row]
        across = found[..., 2:]
        flat = delta.reshape(-1, 4)
        mean = flat @ (diagonal.sum(axis=1) / 4.0)
        # Orthonormal coordinates of E - m I: its diagonal and, times
        # sqrt(2), the real and imaginary parts of the entries below it.
        centred = flat @ np.concatenate([
            diagonal - diagonal.mean(axis=1, keepdims=True),
            np.sqrt(2.0) * below.real, np.sqrt(2.0) * below.imag], axis=1)
        spread = np.sqrt(np.einsum("ij,ij->i", centred, centred) / 4.0)
        bounds = np.empty(grid.thetas.size)
        bounds[grid.groups] = _lower_bound(
            lam.reshape(sub, sub, 1, 4)[grid.parent_row],
            mean.reshape(found.shape[:-1]), spread.reshape(found.shape[:-1]),
            found[..., 0], np.einsum("...k,...k", across, across))
        return bounds


def _descend(objective: _SLEObjective, theta: float, phi: float, value: float,
             max_steps: int) -> tuple[float, float, float]:
    """Up to ``max_steps`` see-saw steps from (theta, phi), each kept only if
    it strictly lowers the value; returns the last point kept and its value.
    """
    for _ in range(max_steps):
        step = objective.seesaw_step(theta, phi)
        if step is None:
            break
        stepped = objective.values(step[:1], step[1:])[0]
        if not stepped < value:
            break
        theta, phi, value = step[0], step[1], stepped
    return theta, phi, value


def sle_quantify(rho, pair=None, quantifier: str = QUANTIFIER_NEGATIVITY, *,
                 sign_only: bool = False,
                 start: np.ndarray | None = None) -> SLEResult:
    """Extremize a bipartite quantifier over single-qubit projections.

    One search serves both quantifiers (see the module docstring): it
    minimizes the minimum eigenvalue after partial transposition, and the
    maximal negativity is log2(1 - 2 min(0, minimum)) at the same optimizer
    (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)).

    The search takes the best point of an ``SLE_GRID_SIZE`` x
    ``SLE_GRID_SIZE`` grid (64 x 64), the first minimum (theta-major) of
    the objective over all its points, and then see-saw steps from it
    (``_SLEObjective.seesaw_step``, see "Refinement" in the module
    docstring) while each one strictly lowers the value, at most
    ``SLE_REFINE_STEPS`` of them, and reports the last point kept.  The
    grid is searched by branch and bound (see "Grid search" in the module
    docstring): the stride-8 subgrid is solved exactly, every other point
    is bounded from below through its nearest subgrid point A, and a point
    is solved unless its bound, less a slack of
    1e-12 (1 + ||A||_F + 2 eps) with 2 eps >= ||E||_F and E the point's
    pair less A's, lies above the subgrid's best value.
    The point found is bit for bit the one an eigensolve at every grid
    point finds, after solving 430 of the 4096 points on average (see the
    module docstring for the measurement).

    With ``sign_only=True`` the search first takes the best point of the
    stride-8 subgrid of the same grid and, unless its minimum eigenvalue
    already lies below -``SLE_SIGN_SLACK``, one see-saw step from it, kept
    if it lowers the value.  If the point reached lies below
    -``SLE_SIGN_SLACK``, the search returns its value, (theta, phi) and
    localized state, which
    certify the sign but need not be the optimum: the projection leaves an
    NPT, hence entangled, pair, so the optimum lies below zero too.  The
    slack (1e-12) leaves optima within rounding of zero, whose sign is
    rounding noise, to the default search, and dwarfs the last-bit change a
    point's value can take when it is evaluated in a different batch.

    Otherwise ``sle_certificate`` runs.  If it finds a decomposition with
    t > ``SLE_SIGN_SLACK``, every value the default search can reach is at
    least t / weight > 0 (see "Certified nonnegative signs" in the module
    docstring), so the search returns that point, whose value is an
    evaluated minimum and so positive too, with ``certificate`` set.
    Without a certificate the search goes on from its subgrid to the rest
    of the grid, and the result is exactly the default search's.  The
    default search takes no certificate.

    Parameters
    ----------
    rho : DensityMatrix or array
        Three-qubit state; an array must be Hermitian and positive
        semidefinite, with any trace.
    pair : optional
        The indices of the two kept qubits; the remaining qubit is
        projected.  Defaults to qubits (0, 1).
    quantifier : str
        ``"negativity"`` or ``"min-eigenvalue-after-pt"``, the quantifier
        reported.
    sign_only : bool
        Stop at the first point that certifies the sign of the optimum.
    start : array, optional
        Start of a sign-only search's certificate solve, the ``final_z`` of
        an earlier certificate (see ``sle_certificate``); it cannot change
        the sign or what the certificate proves.
    """
    _report(0.0, quantifier)  # reject an unknown quantifier before searching
    objective = _SLEObjective(rho, pair)

    def result(theta: float, phi: float, value: float,
               certificate: SLECertificate | None = None) -> SLEResult:
        projected = objective.projected(theta, phi)
        weight = float(np.trace(projected).real)
        localized = DensityMatrix(2, projected / weight)
        return SLEResult(value=_report(value, quantifier), theta=float(theta),
                         phi=float(phi), quantifier=quantifier,
                         localized_state=localized, certificate=certificate)

    search = _GridSearch(objective)
    if sign_only:
        theta, phi, value = search.coarse_best()
        if value >= -SLE_SIGN_SLACK:
            theta, phi, value = _descend(objective, theta, phi, value, 1)
        if value < -SLE_SIGN_SLACK:
            return result(theta, phi, value)
        if value < np.inf:
            certificate = sle_certificate(rho, pair, start=start)
            if certificate is not None:
                return result(theta, phi, value, certificate)

    theta, phi, value = search.best()
    if value == np.inf:
        raise DegenerateProjectionError(
            "every projection direction on the grid has vanishing weight")
    return result(*_descend(objective, theta, phi, value, SLE_REFINE_STEPS))
