"""Entanglement verification: X-shape concurrence, negativity, witnesses, SLE.

The stochastic-localizable-entanglement (SLE) search projects the third
qubit of a tripartite state onto cos(theta)|0> + sin(theta) e^{i phi}|1>
and minimizes the lowest eigenvalue lambda_min after partial transposition
of the normalized remainder pair.  A negative minimum certifies that some
projection leaves the pair entangled, a nonnegative one that none does (for
two qubits the PPT criterion is necessary and sufficient).  The search
returns lambda_min and its direction (theta, phi), and everything else is
read off them.  The partial transpose of a unit-trace two-qubit state has
at most one negative eigenvalue (Sanpera, Tarrach & Vidal, "Quantum
separability, time reversal and canonical decompositions", PRA 58, 826
(1998)), so the maximal negativity is log2(1 - 2 min(0, lambda_min)),
largest where lambda_min is smallest (``SLEResult.negativity``).  The
localized pair itself, for the default pair (0, 1), is
``project_subsystem(rho, bloch_state(theta, phi), 2, normalize=True)``.

The optimizer is deterministic.  An X-shaped state, whose entries off the
diagonal and the anti-diagonal are exact zeros, takes the closed form, with
a certificate when its value is positive (see "X-shaped states").  Any
other state takes the best point of a 64x64 (theta, phi) grid, ties going
to the lowest theta, then the lowest phi, refined by see-saw steps (see
"Refinement").  That grid point is found by branch and bound, bit for bit
the first minimum over an evaluation of every point, with an exact
eigensolve only where a perturbation bound through a subgrid cannot rule a
point out (see "Grid search").  The objective, ``_SLEObjective``, is set up
once per search, so each exact evaluation, of grid points or of one
stepped point, is a row of one small matrix product and a batched 4x4
eigensolve (``_lowest_eigenvalues``); ``sle_quantifier_at`` evaluates it
at one point.

X-shaped states
---------------
With z = cos(2 theta), an X-shaped state's blocks over the measured qubit
are diagonal (T_00, T_11) and anti-diagonal (T_01, T_10) over the kept
pair, so the weight w(z) = ((1 + z) tr T_00 + (1 - z) tr T_11) / 2 does not
depend on phi, and the transposed pair splits into the sectors {00, 11}
and {01, 10}.  A sector's 2x2 block has the diagonal p(z), q(z), affine in
z, and the coupling c s (cos(phi) x + sin(phi) y), with x and y its
entries in ``_SLEObjective``'s blocks 1 and 2 and (c s)^2 = (1 - z^2) / 4.
The block's lowest eigenvalue falls as the coupling grows, and
|cos(phi) x + sin(phi) y|^2 is the Gram matrix of x and y read at
(cos(phi), sin(phi)).  It is largest, K^2 the Gram matrix's largest
eigenvalue, on the principal axis
phi = atan2(2 Re(x conj(y)), |x|^2 - |y|^2) / 2, taken modulo pi.  Each
sector takes its own axis, as the minimum over phi of the lesser of two
blocks is the lesser of their minima.  On a phi-ring, where x and y have
equal moduli and orthogonal phases, the Gram matrix is a multiple of the
identity, the value does not depend on phi, and the axis is phi = 0.

What is left is the least over the sectors and z in [-1, 1] of
f(z) = (p + q - sqrt((p - q)^2 + (1 - z^2) K^2)) / (2 w).  At an interior
minimum s = f(z*), g(z) = (p - s w)(q - s w) - (1 - z^2) K^2 / 4, the
determinant of the block less s w, is nonnegative near z* and zero at z*:
a double root, so its discriminant in z vanishes.  That discriminant is
quadratic in s, since its terms of degree three and four cancel, so s is
one of its two roots, and z* is the double root of g at that s, where g's
leading coefficient is positive (``_touching_points``).  A sector whose p,
q and w take the same values at both poles, as noisy GHZ's coupled sector
does, has z* = 0 exactly, whatever the rounding of s, and theta = pi/4 to
the last bit.  The value is the least of f at those z and at z = 1 and
z = -1, over the points whose weight exceeds ``DEGENERATE_WEIGHT``.  Ties
go to the lowest theta, then the lowest phi, and at a pole, where the
projection does not depend on phi, phi is 0.  The direction is
theta = arccos(z) / 2 and the sector's axis.

The closed form takes no eigensolve: some 0.03 ms per search on a 2-vCPU
VM (timeit), against 0.5-0.6 ms for the grid and its refinement on noisy
GHZ and noise-model states.  On 1797 searches over 599 random X-shaped
states, with blocks emptied, coherences dropped or blocks of rank one at
random, on each kept pair, its value lay at most 3.9e-16 above that
search's and up to 1.2e-8 below it, where the see-saw stopped short; the
objective at its direction reproduced the value within 2.8e-16.

The SLE and SLE-after-distill bisections, on noisy GHZ and its distilled
state, therefore run no eigensolve.  A value above ``SLE_SIGN_SLACK``
comes with an ``SLEXCertificate``, which holds the pair alone.
``verify.verify_sle_x_certificate`` rebuilds both sectors from rho, with
K = |u| + |v| for the two entries u, v of rho that a sector's coupling
reads, and checks, with s the slack and t = sin^2(theta) = (1 - z) / 2,
that p - s w and q - s w are nonnegative at both poles and that the
determinant (p - s w)(q - s w) - t (1 - t) K^2 is nonnegative on [0, 1],
at its ends and its vertex.  Then at every projection the lowest
eigenvalue of each sector is at least s w, so no projection leaves an NPT
pair.  On the 180 X-shaped cases of the tests (noisy GHZ, noise-model,
distilled GHZ and random X states, every kept pair) the check accepts
exactly the 68 whose value exceeds the slack.  A value below -slack is
certified by its direction, which ``sle_quantifier_at`` re-evaluates; one
within the slack of zero, whose sign is rounding noise, takes no
certificate.

Grid search
-----------
The 64 points of the subgrid of every eighth theta and phi are solved
first.  Every other point gets a lower bound, less a slack, through the
nearest of them, its parent A (theta clamps to the last subgrid row, phi
wraps), and is solved unless its bound lies above the best value among
them.  Let M be the point's normalized, transposed pair, E = M - A,
lambda_1 <= lambda_2 the two lowest eigenvalues of A and v its lowest
eigenvector.  Two lower bounds on lambda_min(M) follow:

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

Here the slack is 1e-12 (1 + ||A||_F + 2 eps); 2 eps >= ||E||_F, so it is
at least 1e-12 (1 + ||A||_F + ||E||_F), and it dwarfs the rounding of the
bound and of LAPACK's eigenvalues, a few ulps of those norms.

A subgrid point of vanishing weight stays unnormalized: as a parent, A is
its unnormalized pair and E is taken against that same matrix, so its
children's bounds hold as well.

The bounds need no 4x4 matrix per point.  A point's normalized pair is
sum_j n_j H_j, with n its coefficients over its weight and H_j the
Hermitian blocks LAPACK reads (their lower triangles), so E, tr E, E's
traceless part and E v are linear in the differences of n from the
parent's (``_GridSearch``).

A point is skipped only if its bound, less its slack, lies above the best
value solved first, so the value an exhaustive evaluation computes at a
skipped point lies above that best value too: the point can neither be the
grid's minimum nor tie with it.  Every other point of nonzero weight is
solved.  Each solved point is a row of one product over the whole grid,
divided by its weight as in ``_SLEObjective.values``, and LAPACK solves
each 4x4 matrix on its own, so its value is the exhaustive evaluation's,
bit for bit.  ``np.argmin`` over the grid, with ``inf`` at skipped points,
therefore returns the exhaustive first minimum.  Points of vanishing
weight stay ``inf`` and take no solve.

Measured on the 176 searches over states that are not X-shaped, the
noisy W, CNOT-distilled W and random states of the ``certify-mixed``
bench pools of seeds 1-8 (default pair) and 40 random states with each of
the three kept pairs, the search solves 367 of the 4096 points on average,
counting the subgrid (median 234, at most 1597), and finds the exhaustive
point bit for bit every time.  So did 1800 more searches over random
states, I/8, noisy GHZ states at 41 values of p, noisy W, distilled GHZ
and W, rank-1, product and near-white states, and states with a pinned
measured qubit; at no grid point of those did a bound less its slack
exceed the computed value.  Ties cannot be pruned: on I/8 every point is
solved.

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
never reports a point worse than the grid's.  When R is singular the step
is skipped: the measured qubit is then pure, the state a product with it,
and the objective constant wherever the weight is nonzero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .states import (
    DEGENERATE_WEIGHT,
    DegenerateProjectionError,
    _checked,
    _eigh,
    _eigvalsh,
    _partial_transpose_array,
    _resolve_pair,
    _resolve_qubits,
    _state_entries,
    fidelity_with_pure,
    ghz3,
    w_state,
)
from .verify import SLE_SIGN_SLACK

X_SHAPE_LEAKAGE_TOL = 1e-8

SLE_GRID_SIZE = 64
SLE_REFINE_STEPS = 500
# The grid search bounds each point through the nearest point of the
# stride-SLE_COARSE_STRIDE subgrid (see "Grid search").
SLE_COARSE_STRIDE = 8
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


@functools.cache
def _x_pattern(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The X pattern of a d x d matrix, read-only: the rows i < d / 2, their
    partners d - 1 - i, and the mask of the entries off the diagonal and
    the anti-diagonal.  One entry per register size seen, each no larger
    than a matrix of that size."""
    idx = np.arange(d)
    off = np.ones((d, d), dtype=bool)
    off[idx, idx] = False
    off[idx, d - 1 - idx] = False
    tables = (idx[:d // 2], d - 1 - idx[:d // 2], off)
    for table in tables:
        table.flags.writeable = False
    return tables


def x_shape_view(rho) -> XShapeView:
    """Extract the X pattern of a matrix and report off-pattern leakage.

    Leakage is never an error here; a raw array must be Hermitian and
    positive semidefinite, with any trace.
    """
    m, _ = _state_entries(rho)
    rows, partners, off = _x_pattern(m.shape[0])
    return XShapeView(
        a=m[rows, rows].real, b=m[partners, partners].real,
        c=m[rows, partners],
        max_off_pattern_magnitude=float(np.abs(m[off]).max(initial=0.0)))


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

def negativity(rho, bipartition=None) -> float:
    """log2 of the trace norm of the partial transpose; zero for PPT states.

    ``bipartition`` names the transposed qubits; None means qubit 1 of a
    two-qubit state.
    """
    m, n = _state_entries(rho)
    if bipartition is None:
        if n != 2:
            raise ValueError("bipartition required for more than two qubits")
        side = (1,)
    else:
        side = _resolve_qubits(bipartition, n)
    eigs = _checked(_eigvalsh(_partial_transpose_array(m, n, side)))
    return float(np.log2(np.abs(eigs).sum()))


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
class SLEXCertificate:
    """The kept pair (a, b) of an X-shaped state on which every projection
    of the measured qubit leaves a pair whose partial transpose has its
    lowest eigenvalue at least ``SLE_SIGN_SLACK`` times the projection's
    weight, hence a PPT, and so separable, pair (see "X-shaped states" in
    the module docstring).

    Only the pair is held: ``verify.verify_sle_x_certificate`` rebuilds
    both sectors from rho itself and re-checks it.
    """

    pair: tuple[int, int]


@dataclass(frozen=True)
class SLEResult:
    """The lowest eigenvalue after partial transposition of the pair left by
    projecting the measured qubit onto cos(theta)|0> + sin(theta) e^{i phi}|1>.

    ``certificate`` proves that no projection leaves an NPT pair: the
    closed form of an X-shaped state sets an ``SLEXCertificate`` when its
    value lies above ``SLE_SIGN_SLACK``.  Otherwise the field is None; a
    negative value is certified by its direction instead.
    """

    min_eigenvalue: float
    theta: float
    phi: float
    certificate: SLEXCertificate | None = None

    @property
    def negativity(self) -> float:
        """The pair's negativity, log2(1 - 2 min(0, ``min_eigenvalue``)) (see
        the module docstring)."""
        return float(np.log2(1.0 - 2.0 * min(0.0, self.min_eigenvalue)))


def _lowest_eigenvalues(pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lowest eigenvalues of the stack ``pairs / weights``, the one exact
    evaluation of the SLE objective; ``inf`` where the weight is at most
    ``DEGENERATE_WEIGHT``.

    LAPACK solves each 4x4 matrix on its own, so a matrix's value does not
    depend on the batch it is solved in.
    """
    valid = weights > DEGENERATE_WEIGHT
    safe = np.where(valid, weights, 1.0)
    lowest = _eigvalsh(pairs / safe[:, None, None])[:, 0]
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
        m, _ = _state_entries(rho, 3)  # the negativity needs rho >= 0
        kept, measured = ((0, 1), 2) if pair is None else _resolve_pair(pair)
        self.entries, self.kept, self.measured = m, kept, measured
        # Axes of the reshaped rho: qubit rows 0..2, then qubit columns 3..5.
        t00, t01, t10, t11 = m.reshape((2,) * 6).transpose(
            measured, 3 + measured, kept[0], kept[1], 3 + kept[0], 3 + kept[1]
        ).reshape(4, 4, 4)
        blocks = np.array([t00, t01 + t10, 1j * (t01 - t10), t11])
        blocks_pt = blocks.reshape(4, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
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
        f = _eigh(self._combine(coeffs, self.blocks_pt)[0])[1][:, 0]
        blocks_pt = self.blocks_pt.view(np.complex128).reshape(4, 4, 4)
        a = np.einsum("i,kij,j->k", f.conj(), blocks_pt, f).real

        def form(k: np.ndarray) -> np.ndarray:
            # psi^H form psi = c^2 k0 + c s (cos(phi) k1 + sin(phi) k2) + s^2 k3
            off = 0.5 * (k[1] - 1j * k[2])
            return np.array([[k[0], off], [np.conj(off), k[3]]])

        r_eigs, r_vecs = _eigh(form(self.traces))
        if r_eigs[0] <= DEGENERATE_WEIGHT:
            return None
        # psi = S y with S = V diag(r)^{-1/2} whitens R, so psi^H R psi = |y|^2.
        whiten = r_vecs / np.sqrt(r_eigs)
        y = _eigh(whiten.conj().T @ form(a) @ whiten)[1][:, 0]
        psi = whiten @ y
        return np.array([np.arctan2(abs(psi[1]), abs(psi[0])),
                         np.angle(psi[1] * np.conj(psi[0])) % (2.0 * np.pi)])


def sle_quantifier_at(rho, pair, theta: float, phi: float) -> float:
    """The lowest eigenvalue after partial transposition of the normalized
    pair at one projection direction; a non-finite ``theta`` or ``phi``
    raises ``ValueError``."""
    for name, angle in (("theta", theta), ("phi", phi)):
        if not math.isfinite(angle):
            raise ValueError(f"{name} must be finite, got {angle!r}")
    value = _SLEObjective(rho, pair).values(np.array([theta]), np.array([phi]))[0]
    if _checked(value) == np.inf:
        raise DegenerateProjectionError(
            f"projection at theta={theta}, phi={phi} has vanishing weight")
    return float(value)


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

    Built, it holds the whole grid's weights and unnormalized transposed
    pairs, each from one product over the grid's coefficients.  ``best``
    solves the subgrid first, bounds every other point from below through
    its nearest subgrid point, and then solves only the points whose bound
    does not rule them out (see "Grid search" in the module docstring).
    Every value is a row of that product, solved by ``_lowest_eigenvalues``,
    so it is bit for bit the one an exhaustive evaluation gives.
    """

    def __init__(self, objective: _SLEObjective):
        grid = _sle_grid()
        self.objective = objective
        self.weights = grid.coefficients @ objective.traces
        self.pairs = objective._combine(grid.coefficients, objective.blocks_pt)
        self.values = np.full(grid.thetas.size, np.inf)

    def best(self) -> tuple[float, float, float]:
        """The best grid point, (theta, phi, value): ``np.argmin`` over the
        exhaustive grid's values, with ``inf`` at every unsolved point."""
        grid = _sle_grid()
        lower, first = self._lower_bounds(self.weights), grid.coarse
        self.values[first] = _lowest_eigenvalues(self.pairs[first],
                                                 self.weights[first])
        skipped = lower > self.values[first].min()
        unsolved = (self.weights > DEGENERATE_WEIGHT) & ~skipped
        unsolved[first] = False
        points = np.flatnonzero(unsolved)
        self.values[points] = _lowest_eigenvalues(self.pairs[points],
                                                  self.weights[points])
        best = int(np.argmin(self.values))
        return grid.thetas[best], grid.phis[best], self.values[best]

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
        parents = weights[grid.coarse]
        safe = np.where(parents > DEGENERATE_WEIGHT, parents, 1.0)
        lam, vec = _eigh(self.pairs[grid.coarse] / safe[:, None, None])
        # <v_k| H_j |v_0> over each parent's eigenvectors v_k, as 8 reals.
        along = (np.einsum("jab,pb->pja", hermitian, vec[:, :, 0])
                 @ vec.conj()).view(np.float64)

        weights = weights[grid.groups]
        delta = (grid.group_coefficients / np.where(
            weights > DEGENERATE_WEIGHT, weights, 1.0)[..., None]
            - (grid.coefficients[grid.coarse] / safe[:, None]).reshape(
                sub, sub, 1, 4)[grid.parent_row])
        flat = delta.reshape(-1, 4)
        mean = flat @ (diagonal.sum(axis=1) / 4.0)
        # Orthonormal coordinates of E - m I: its diagonal and, times
        # sqrt(2), the real and imaginary parts of the entries below it.
        centred = flat @ np.concatenate([
            diagonal - diagonal.mean(axis=1, keepdims=True),
            np.sqrt(2.0) * below.real, np.sqrt(2.0) * below.imag], axis=1)
        spread = np.sqrt(np.einsum("ij,ij->i", centred, centred) / 4.0)
        # The largest temporary goes before the next ones come: with the
        # grid's pairs alive, a higher peak makes the allocator return the
        # heap and fault it back in on every search.
        del centred
        # a = v^H E v (and its zero imaginary part), then E v across v.
        found = delta @ along.reshape(sub, sub, 4, 8)[grid.parent_row]
        across = found[..., 2:]
        bounds = np.empty(grid.thetas.size)
        bounds[grid.groups] = _lower_bound(
            lam.reshape(sub, sub, 1, 4)[grid.parent_row],
            mean.reshape(found.shape[:-1]), spread.reshape(found.shape[:-1]),
            found[..., 0], np.einsum("...k,...k", across, across))
        return bounds


def _descend(objective: _SLEObjective, theta: float, phi: float,
             value: float) -> tuple[float, float, float]:
    """Up to ``SLE_REFINE_STEPS`` see-saw steps from (theta, phi), each kept
    only if it strictly lowers the value; returns the last point kept and
    its value.
    """
    for _ in range(SLE_REFINE_STEPS):
        step = objective.seesaw_step(theta, phi)
        if step is None:
            break
        _checked(step)
        stepped = _checked(objective.values(step[:1], step[1:])[0])
        if not stepped < value:
            break
        theta, phi, value = step[0], step[1], stepped
    return theta, phi, value


def _touching_points(p: list, q: list, w: list, k2: float) -> Iterator[float]:
    """The z = cos(2 theta) in (-1, 1) where a sector's value can take an
    interior minimum, for p, q and w given at the poles z = -1 and z = 1
    (see "X-shaped states" in the module docstring).

    With A_i = p_i - s w_i, B_i = q_i - s w_i and S = A_1 B_0 + A_0 B_1, the
    discriminant of 4 g in z is 4 ((A_1 B_0 - A_0 B_1)^2 - 2 K^2 S + K^4),
    quadratic in s, and at each of its roots the double root of g is
    z = (A_0 B_0 - A_1 B_1) / ((A_1 - A_0) (B_1 - B_0) + K^2).
    """
    (p0, p1), (q0, q1), (w0, w1) = p, q, w
    l0, l1 = p1 * q0 - p0 * q1, p0 * w1 + w0 * q1 - p1 * w0 - w1 * q0
    a = l1 * l1 - 4.0 * k2 * w0 * w1
    b = 2.0 * (l0 * l1 + k2 * (p1 * w0 + w1 * q0 + p0 * w1 + w0 * q1))
    c = l0 * l0 - 2.0 * k2 * (p1 * q0 + p0 * q1) + k2 * k2
    # The roots in s without cancellation; a negative discriminant, within
    # rounding of a double root, gives the real part.
    h = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    for s in ([h / a] if a else []) + ([c / h] if h else []):
        a0, a1, b0, b1 = p0 - s * w0, p1 - s * w1, q0 - s * w0, q1 - s * w1
        curvature = (a1 - a0) * (b1 - b0) + k2
        if curvature > 0.0 and abs(a0 * b0 - a1 * b1) < curvature:
            yield (a0 * b0 - a1 * b1) / curvature


def _x_closed_form(objective: _SLEObjective) -> tuple[float, float, float]:
    """The SLE optimum (theta, phi, value) of an X-shaped state, in closed
    form from the objective's blocks (see "X-shaped states" in the module
    docstring); the value is ``inf`` when every projection has vanishing
    weight."""
    blocks = objective.blocks_pt.view(np.complex128).reshape(4, 4, 4)
    # The diagonal at the poles z = -1 and z = 1, which read blocks 3 and 0.
    # The weight sums it by sectors, so that poles whose entries match in
    # another order, as noisy GHZ's do, weigh the same to the last bit.
    diagonal = np.einsum("kii->ki", blocks[3::-3]).real
    poles = diagonal.T.tolist()
    w = [(d0 + d3) + (d1 + d2) for d0, d1, d2, d3 in diagonal.tolist()]
    best = (math.inf, 0.0, 0.0)
    for k, j in ((0, 3), (1, 2)):
        x, y = complex(blocks[1, j, k]), complex(blocks[2, j, k])
        xx, yy, xy = abs(x) ** 2, abs(y) ** 2, (x * y.conjugate()).real
        phi = 0.5 * math.atan2(2.0 * xy, xx - yy) % math.pi
        k2 = 0.5 * (xx + yy) + math.hypot(0.5 * (xx - yy), xy)
        for z in (1.0, -1.0, *_touching_points(poles[k], poles[j], w, k2)):
            # sin^2(theta) and cos^2(theta).
            s2, c2 = 0.5 * (1.0 - z), 0.5 * (1.0 + z)
            p, q, weight = (s2 * a + c2 * b for a, b in (poles[k], poles[j], w))
            if weight > DEGENERATE_WEIGHT:
                value = (0.5 * (p + q) - math.hypot(
                    0.5 * (p - q), math.sqrt(s2 * c2 * k2))) / weight
                # Ties go to the lowest theta, then the lowest phi; at a
                # pole the projection does not depend on phi.
                best = min(best, (value, 0.5 * math.acos(z),
                                  phi if abs(z) < 1.0 else 0.0))
    value, theta, phi = best
    return theta, phi, value


def sle_quantify(rho, pair=None) -> SLEResult:
    """Minimize the lowest eigenvalue after partial transposition of the
    pair left by projecting the measured qubit, over the projection.

    The result holds the minimum and its direction (theta, phi).  Its
    ``negativity`` is the maximal negativity, at the same point, and
    ``project_subsystem(rho, bloch_state(theta, phi), measured,
    normalize=True)`` is the localized pair (see the module docstring).

    A state whose entries off the X pattern (``x_shape_view``) are exact
    zeros takes the closed form, with no grid and no eigensolve: each
    sector of the transposed pair at its principal axis in phi, minimized
    over theta at the poles and where the determinant of the sector less
    the value touches zero, at the roots of a quadratic in the value (see
    "X-shaped states" in the module docstring).  Ties go to the lowest
    theta, and phi is 0 on a phi-ring and at the poles.  A value above
    ``SLE_SIGN_SLACK`` comes with an ``SLEXCertificate`` as
    ``certificate``, which ``verify.verify_sle_x_certificate`` re-checks
    from rho.  Any other state takes the best point of an
    ``SLE_GRID_SIZE`` x ``SLE_GRID_SIZE`` grid (64 x 64), the first minimum
    (theta-major) of the objective over all its points, and then see-saw
    steps from it (``_SLEObjective.seesaw_step``, see "Refinement" in the
    module docstring) while each one strictly lowers the value, at most
    ``SLE_REFINE_STEPS`` of them, and reports the last point kept, with no
    certificate.  The grid is searched by branch and bound (see "Grid
    search" in the module docstring): the stride-8 subgrid is solved first
    and every other point is bounded from below through its nearest
    subgrid point A, less a slack of 1e-12 (1 + ||A||_F + 2 eps) with
    2 eps >= ||E||_F and E the point's pair less A's.  A point is solved
    unless its bound lies above the best value solved first.  The point
    found is bit for bit the one an eigensolve at every grid point finds,
    after solving 367 of the 4096 points on average (see the module
    docstring for the measurement).

    Parameters
    ----------
    rho : DensityMatrix or array
        Three-qubit state; an array must be Hermitian and positive
        semidefinite, with any trace.
    pair : optional
        The indices of the two kept qubits; the remaining qubit is
        projected.  Defaults to qubits (0, 1).
    """
    objective = _SLEObjective(rho, pair)
    # The closed form takes states whose entries off the X pattern are
    # exact zeros; an entry of 1e-300 sends a state to the grid.
    x_shaped = not objective.entries[_x_pattern(8)[2]].any()
    if x_shaped:
        theta, phi, value = _x_closed_form(objective)
    else:
        theta, phi, value = _descend(objective, *_GridSearch(objective).best())
    if _checked(value) == np.inf:
        raise DegenerateProjectionError(
            "every projection direction has vanishing weight")
    return SLEResult(float(value), float(theta), float(phi),
                     SLEXCertificate(objective.kept)
                     if x_shaped and value > SLE_SIGN_SLACK else None)
