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

The optimizer is deterministic: the best point of a 64x64 (theta, phi)
grid, ties going to the lowest theta, then the lowest phi, refined by
see-saw steps (see "Refinement").  That grid point is found by branch and
bound, bit for bit the first minimum over an evaluation of every point,
with an exact eigensolve only where a bound, the closed form of the pair's
sectors or a perturbation bound through a subgrid, cannot rule a point
out (see "Grid search").  A sign-only search settles the sign by a
branch and bound over bands of the Bloch sphere instead, and stops at a
point that certifies a negative minimum or at bands that certify a
nonnegative one (see "Certified signs"); otherwise it takes the default
search.  The objective, ``_SLEObjective``, is set up once per search, so
each exact evaluation, of grid points or of one stepped point, is a row of
one small matrix product and a batched 4x4 eigensolve
(``_lowest_eigenvalues``); ``sle_quantifier_at`` evaluates it at one
point.

Grid search
-----------
Every point gets a lower bound, less a slack; a few points are solved
first, and then every other point of nonzero weight whose bound does not
lie above the best value among them.  The bound comes from the closed
form of the pair's sectors where no sector holds more than two basis
states, and through a subgrid otherwise.

*Sectors.*  Two basis states of the kept pair are coupled when an entry
joining them, in either triangle, is nonzero in one of the transposed
blocks ``_SLEObjective.blocks_pt``.  The rule reads exact zeros: an entry
of 1e-300 couples.  A grid point's pair is a real combination of the
blocks, so its entries off the coupling pattern are exact zeros, and the
pair is block diagonal over its sectors, the groups of states that
couplings connect.  When no sector holds more than two states, as for
every X-shaped state (noisy GHZ, noise-model and distilled GHZ states
among them) with each kept pair, the pair's lowest eigenvalue is the
least of its sectors': d_k for a sector {k} and
(d_k + d_j) / 2 - sqrt(((d_k - d_j) / 2)^2 + |M_jk|^2) for a sector
{k, j}, with M_jk read from the lower triangle that LAPACK reads
(``_sector_lowest``).  The closed form and LAPACK's eigensolve each
return that eigenvalue to within a few ulps of ||M||_F times a small
constant.  The eigensolver is backward stable on M = pairs / weight; the
closed form is a handful of roundings on the unnormalized pair, divided
by the weight at the end, which is M to an ulp in each entry.  The bound
is the closed form less a slack of 1e-12 (1 + ||M||_F), some 10^4 ulps
of that norm, which covers both rounding paths, so it lies below the
value LAPACK returns at every point.  The closed form's argmin is solved
first.  W-type and general states couple three or more states and take
the subgrid.

*Subgrid.*  The 64 points of the subgrid of every eighth theta and phi
are solved first.  Every other point takes the nearest of them as its
parent A (theta clamps to the last subgrid row, phi wraps).  Let M be the
point's normalized, transposed pair, E = M - A, lambda_1 <= lambda_2 the
two lowest eigenvalues of A and v its lowest eigenvector.  Two lower
bounds on lambda_min(M) follow:

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

With either bound, a point is skipped only if its bound, less its slack,
lies above the best value solved first, so the value an exhaustive
evaluation computes at a skipped point lies above that best value too:
the point can neither be the grid's minimum nor tie with it.  Every other
point of nonzero weight is solved.  Each solved point is a row of one
product over the whole grid, divided by its weight as in
``_SLEObjective.values``, and LAPACK solves each 4x4 matrix on its own, so
its value is the exhaustive evaluation's, bit for bit.  ``np.argmin`` over
the grid, with ``inf`` at skipped points, therefore returns the exhaustive
first minimum.  Points of vanishing weight stay ``inf`` and take no
solve.

Measured on 392 searches, the ``certify-mixed`` bench pools of seeds 1-8
(default pair) and 40 random states with each of the three kept pairs,
the search solves, counting the points solved first:

- 216 searches with sectors of at most two states (112 noisy GHZ, 96
  noise-model and 8 X-shaped random states): 69 of the 4096 points on
  average (noisy GHZ 128, noise-model 4; at most 128);
- 176 others (noisy W, CNOT-distilled W and random states): 367 on
  average (median 234, at most 1597),

and finds the exhaustive point bit for bit every time.  With the subgrid
bounds on every state, so did 1800 more searches over random states,
I/8, noisy GHZ states at 41 values of p, noisy W, distilled GHZ and W,
rank-1, product and near-white states, and states with a pinned measured
qubit; at no grid point of those did a bound less its slack exceed the
computed value.  The sector bound was
checked the same way on 1803 more searches over noisy GHZ, noise-model,
distilled-GHZ and random X-shaped states, some with emptied blocks, with
each kept pair: the closed form and LAPACK differed by at most
2.6e-16 (1 + ||M||_F).  Ties cannot be pruned: on I/8 every point is
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
never reports a point worse than the grid's.  On a ring of degenerate
optima, as for noisy GHZ states with p > 0, whose value does not depend on
phi, the step leaves the grid's phi in place and lands on theta = pi/4.
When R is singular the step is skipped: the measured qubit is then pure,
the state a product with it, and the objective constant wherever the
weight is nonzero.

Certified signs
---------------
With the measured qubit's projector written as (I + n.sigma) / 2, the
unnormalized, transposed pair M(n) is affine in n: its coefficients over
``_SLEObjective``'s four blocks are ((1 + z) / 2, x / 2, y / 2, (1 - z) / 2).
So f(n) = lambda_min M(n) is concave, and on the unit sphere it has the
objective's sign.  If rho conserves a charge vector with 1 on the measured
qubit and -1, 0 or 1 on each kept one, its ring charges (``_ring_charges``;
``states._symmetries`` reads which charges a state conserves, and its
docstring explains the reading; noisy GHZ, distilled GHZ and noisy W
states have ring charges), a phase on the measured qubit is undone by
diagonal phases on the kept ones, which leave lambda_min after partial
transposition unchanged.  f then depends only on z and the radius
sqrt(x^2 + y^2), and its minimum over the sphere is its minimum over the
half circle x = sqrt(1 - z^2), y = 0.

The search splits z into bands, eight to start.  The arc of a band from z1
to z2, with chord ends p1 and p2, lies in the hull of p1, p2, p1 / h and
p2 / h, where h is the length of the chord's midpoint: the last two span
the tangent at the arc's middle.  h is shrunk by a relative 1e-12, so that
rounding cannot move the arc outside the hull.  A concave function takes
its minimum over a polygon at a vertex (Horst & Tuy, "Global
Optimization: Deterministic Approaches", 1996), so the smallest of the
four values bounds f on the band.  Each round evaluates the hull points of
every open band in one batched eigensolve and halves the bands still open.
Every search starts from the same eight bands, so the coefficients of
their 32 hull points are a table built once per process
(``_first_band_coefficients``, read-only).  A later round builds its bands'
in a few vector operations (``_band_coefficients``) with the arithmetic of
``verify._hull_points``, so the coefficients, and every sign, bracket and
certificate, are the same bit for bit.  Later rounds take no table: a band
that stays open descends a level a round, some 60 levels within the cap
below, and a table of every depth's bands would hold 8 * 2^d at depth d.
A chord end, which lies on the sphere, whose normalized value lies below
-``SLE_SIGN_SLACK`` settles a negative sign.  Once every band's bound lies
above the slack, every projection leaves a PPT, hence separable, pair
(Horodecki, Horodecki & Horodecki, PLA 223, 1 (1996)), and the bands'
breakpoints and the charges are the certificate, which ``superact.verify``
re-checks.

Near a zero optimum the open bands double each round, so the search stops
before it would evaluate more than ``SLE_BAND_EVALUATIONS`` = 512 hull
points, and leaves the sign to the default search.  At the 39 SLE and
SLE-after-distill bisection points every search settles: 21 negative signs
in the first round of 32 points, and 18 nonnegative ones in at most 128
points each; the 39 searches evaluate 1824 points in all.  Noisy GHZ,
distilled GHZ and noisy W states settle within 256-280 points down to
1e-11 below their thresholds and within 32 above them; from 1e-12 the
optimum lies within the slack of zero and no search settles.  The cap is
about twice the 280.  An undecided search stops at 464-512 points, in
2-8 ms on a 2-vCPU VM, where a cap of 16384 takes 17-47 ms.  On that VM
(timeit, best of five), a whole sign-only search that settles in the first
round takes about 95 us (190 us when every round built its points through
``verify._hull_points`` and tested the nine candidate charges one by one),
one that settles 1e-4 below noisy GHZ's threshold 280 us (540 us), and the
two default SLE bisections, their 39 searches and the states they read,
6.2 ms (12.5 ms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .states import (
    DEGENERATE_WEIGHT,
    DegenerateProjectionError,
    _CHARGES,
    _checked,
    _eigh,
    _eigvalsh,
    _partial_transpose_array,
    _resolve_pair,
    _resolve_qubits,
    _state_entries,
    _symmetries,
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
# A sign-only SLE search settles a sign only on a value below -SLE_SIGN_SLACK
# or on band bounds above SLE_SIGN_SLACK, the slack of the check that accepts
# its certificates, so optima within rounding of zero take the default
# search; it evaluates at most SLE_BAND_EVALUATIONS hull points (see
# "Certified signs" in the module docstring).
SLE_BAND_EVALUATIONS = 512
# The first breakpoints in z of a sign-only search's bands.
_FIRST_BREAKPOINTS = np.linspace(-1.0, 1.0, 9)
# The projector (I + n.sigma) / 2 at n = (x, 0, z) over the SLE objective's
# four blocks is 0.5 (offset + slope (z, x, z, z)), elementwise.
_PROJECTOR_OFFSET = np.array([1.0, 0.0, 0.0, 1.0])
_PROJECTOR_SLOPE = np.array([1.0, 1.0, 0.0, -1.0])
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
class SLECertificate:
    """Bands in z that prove every projection of the measured qubit leaves a
    PPT, hence separable, pair.

    ``pair`` is the kept pair (a, b) and ``charges`` the charge of each
    qubit, 1 on the measured one, that every nonzero entry of rho conserves;
    ``breakpoints`` run from -1 to 1 and split the projectors' z into bands
    on each of which the hull bound lies above ``SLE_SIGN_SLACK`` (see
    "Certified signs" in the module docstring).
    ``verify.verify_sle_certificate`` re-checks it.
    """

    pair: tuple[int, int]
    charges: tuple[int, int, int]
    breakpoints: np.ndarray


@dataclass(frozen=True)
class SLEResult:
    """The lowest eigenvalue after partial transposition of the pair left by
    projecting the measured qubit onto cos(theta)|0> + sin(theta) e^{i phi}|1>.

    ``certificate`` is set only by a sign-only search that settled a
    nonnegative sign on bands.
    """

    min_eigenvalue: float
    theta: float
    phi: float
    certificate: SLECertificate | None = None

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


@functools.cache
def _ring_candidates(kept: tuple[int, int]) -> tuple[tuple[int, tuple], ...]:
    """The nine candidate charges of ``_ring_charges`` for the ordered kept
    pair, each with its row of ``_CHARGES``: 1 on the measured qubit, in
    ``itertools.product`` order over the charges of ``kept``."""
    rows = np.flatnonzero(_CHARGES[:, 3 - sum(kept)] == 1)
    rows = rows[np.lexsort((_CHARGES[rows, kept[1]], _CHARGES[rows, kept[0]]))]
    return tuple((int(row), tuple(_CHARGES[row].tolist())) for row in rows)


def _ring_charges(objective: _SLEObjective) -> tuple[int, int, int] | None:
    """Charges of the qubits, 1 on the measured one and -1, 0 or 1 on each
    kept one, that the state's nonzero entries conserve (read by
    ``_symmetries``); None if none do.  Of several, the first in
    ``itertools.product`` order over the kept pair's charges."""
    conserved = _symmetries((objective.entries != 0).tobytes()).charges
    for row, charges in _ring_candidates(objective.kept):
        if conserved[row]:
            return charges
    return None


def _band_coefficients(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The projector (I + n.sigma) / 2 over ``_SLEObjective``'s four blocks,
    ((1 + z) / 2, x / 2, 0, (1 - z) / 2), at the four hull points of each
    band [z1, z2], in ``verify._hull_points``' order; shape (bands, 4, 4).

    The arithmetic is ``_hull_points``', so the coefficients are those of
    its points bit for bit: x = sqrt(1 - z^2) at the chord ends, and h is
    sqrt(mx^2 + mz^2) (1 - 1e-12) with (mx, mz) = (p1 + p2) / 2, as
    ``np.linalg.norm(ends.mean(axis=1))`` takes it.  1 - z is 1 + (-1) z,
    and the zero of y is 0 + 0 z.
    """
    z = np.array([z1, z2])
    x = np.sqrt(1.0 - z * z)
    mx, mz = (x[0] + x[1]) / 2.0, (z[0] + z[1]) / 2.0
    h = np.sqrt(mx * mx + mz * mz) * (1.0 - 1e-12)
    # (band, chord end, the coordinate under each coefficient).
    ends = np.array([z, x, z, z]).T
    points = np.concatenate([ends, ends / h[:, None, None]], axis=1)
    return 0.5 * (_PROJECTOR_OFFSET + _PROJECTOR_SLOPE * points)


@functools.cache
def _first_band_coefficients() -> np.ndarray:
    """``_band_coefficients`` of the eight first bands, which every band
    search evaluates; built once, read-only."""
    coefficients = _band_coefficients(_FIRST_BREAKPOINTS[:-1],
                                      _FIRST_BREAKPOINTS[1:])
    coefficients.flags.writeable = False
    return coefficients


def _hull_lowest(pairs: np.ndarray) -> np.ndarray:
    """Lowest eigenvalues of a stack of unnormalized transposed pairs, the
    band search's one evaluation."""
    return _eigvalsh(pairs)[:, 0]


def _band_search(
        objective: _SLEObjective) -> tuple[float, np.ndarray | None] | None:
    """The sign of the SLE objective of a state with ring charges, by branch
    and bound over bands in z (see "Certified signs" in the module
    docstring).

    Returns (z, None) at an evaluated point of the circle whose value lies
    below -``SLE_SIGN_SLACK``, and (z, breakpoints) once every band's bound
    lies above the slack, z the evaluated point of the lowest value and
    breakpoints the bands' ends.  Returns None when another round would
    take it past ``SLE_BAND_EVALUATIONS`` hull points, or a band can no
    longer be halved.
    """
    z1, z2 = _FIRST_BREAKPOINTS[:-1], _FIRST_BREAKPOINTS[1:]
    coefficients = _first_band_coefficients()
    closed = []
    best_z, best = 0.0, np.inf
    evaluations = 0
    while True:
        evaluations += 4 * z1.size
        if evaluations > SLE_BAND_EVALUATIONS:
            return None
        lowest = _checked(_hull_lowest(objective._combine(
            coefficients.reshape(-1, 4), objective.blocks_pt))).reshape(-1, 4)
        # Normalized values at the chord ends, which lie on the circle.
        weights = coefficients[:, :2] @ objective.traces
        valid = weights > DEGENERATE_WEIGHT
        values = np.where(valid, lowest[:, :2] / np.where(valid, weights, 1.0),
                          np.inf)
        band, end = divmod(int(np.argmin(values)), 2)
        if values[band, end] < best:
            best_z, best = (z1, z2)[end][band], values[band, end]
        if best < -SLE_SIGN_SLACK:
            return best_z, None
        still_open = lowest.min(axis=1) <= SLE_SIGN_SLACK
        closed.append(z1[~still_open])
        z1, z2 = z1[still_open], z2[still_open]
        if not z1.size:
            return best_z, np.append(np.sort(np.concatenate(closed)), 1.0)
        mid = 0.5 * (z1 + z2)
        if not np.all((z1 < mid) & (mid < z2)):
            return None
        z1, z2 = np.concatenate([z1, mid]), np.concatenate([mid, z2])
        coefficients = _band_coefficients(z1, z2)


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


def _sector_partners(objective: _SLEObjective) -> np.ndarray | None:
    """Each basis state's partner in its sector of the transposed pair, the
    state itself when no block couples it to another; None when a sector
    holds more than two states (see "Grid search" in the module
    docstring).

    Two states are coupled when an entry joining them is nonzero in some
    block, in either triangle; the rule is exact, so any nonzero entry,
    however small, couples.  The couplings are not read through
    ``_symmetries``: they can split the pair more finely than its labels.
    When the only couplings join 00 and 01, they give {00, 01}, {10} and
    {11}, the labels {00, 01} and {10, 11}, and the closed-form bounds
    would take other arithmetic.
    """
    blocks = objective.blocks_pt.view(np.complex128).reshape(4, 4, 4)
    coupled = np.any(blocks != 0, axis=0)
    coupled |= coupled.T
    np.fill_diagonal(coupled, False)
    # Sectors of at most two states are exactly one coupling per state.
    if np.any(coupled.sum(axis=1) > 1):
        return None
    partners = np.arange(4)
    rows, cols = np.nonzero(coupled)
    partners[rows] = cols
    return partners


def _sector_lowest(pairs: np.ndarray, weights: np.ndarray,
                   partners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form lowest eigenvalue of each normalized pair
    M = ``pairs / weights`` whose sectors ``partners`` gives, ``inf``
    where the weight is at most ``DEGENERATE_WEIGHT``, and ||M||_F.

    A sector {k, j} has the lowest eigenvalue
    (d_k + d_j) / 2 - sqrt(((d_k - d_j) / 2)^2 + |M_jk|^2), with M_jk read
    from the lower triangle as LAPACK reads it; a sector {k} has d_k.  Both
    are taken on the unnormalized pair and divided by the weight.
    """
    states = np.arange(4)
    first = np.flatnonzero(partners > states)
    second = partners[first]
    # Real and imaginary parts of the entries, row-major, one row per part.
    entries = pairs.reshape(-1, 16).view(np.float64).T
    diagonal = entries[10 * states]
    below = 8 * second + 2 * first
    off = entries[below] ** 2 + entries[below + 1] ** 2
    half = (diagonal[first] - diagonal[second]) / 2.0
    lowest = np.concatenate([
        diagonal[partners == states],
        (diagonal[first] + diagonal[second]) / 2.0 - np.sqrt(half * half + off),
    ]).min(axis=0)
    norm = np.sqrt((diagonal * diagonal).sum(axis=0) + 2.0 * off.sum(axis=0))
    valid = weights > DEGENERATE_WEIGHT
    safe = np.where(valid, weights, 1.0)
    return np.where(valid, lowest / safe, np.inf), norm / safe


class _GridSearch:
    """The best point of one objective on the SLE grid, by branch and bound.

    Built, it holds the whole grid's weights and unnormalized transposed
    pairs, each from one product over the grid's coefficients.  ``best``
    bounds every point from below, solves the points ``bounds`` names
    first, and then only the points whose bound does not rule them out:
    by the closed form of the pair's sectors when no sector holds more than
    two states, else through the nearest point of the subgrid (see "Grid
    search" in the module docstring).  Every value is a row of that
    product, solved by ``_lowest_eigenvalues``, so it is bit for bit the
    one an exhaustive evaluation gives.
    """

    def __init__(self, objective: _SLEObjective):
        grid = _sle_grid()
        self.objective = objective
        self.partners = _sector_partners(objective)
        self.weights = grid.coefficients @ objective.traces
        self.pairs = objective._combine(grid.coefficients, objective.blocks_pt)
        self.values = np.full(grid.thetas.size, np.inf)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """A lower bound on the value at every grid point, less its slack,
        and the points to solve first: the closed form's argmin for a
        structured objective, else the subgrid."""
        if self.partners is None:
            return self._lower_bounds(self.weights), _sle_grid().coarse
        lowest, norm = _sector_lowest(self.pairs, self.weights, self.partners)
        return (lowest - 1e-12 * (1.0 + norm),
                np.array([np.argmin(lowest)]))

    def best(self) -> tuple[float, float, float]:
        """The best grid point, (theta, phi, value): ``np.argmin`` over the
        exhaustive grid's values, with ``inf`` at every unsolved point."""
        grid = _sle_grid()
        lower, first = self.bounds()
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


def sle_quantify(rho, pair=None, *, sign_only: bool = False) -> SLEResult:
    """Minimize the lowest eigenvalue after partial transposition of the
    pair left by projecting the measured qubit, over the projection.

    The result holds the minimum and its direction (theta, phi).  Its
    ``negativity`` is the maximal negativity, at the same point, and
    ``project_subsystem(rho, bloch_state(theta, phi), measured,
    normalize=True)`` is the localized pair (see the module docstring).

    The search takes the best point of an ``SLE_GRID_SIZE`` x
    ``SLE_GRID_SIZE`` grid (64 x 64), the first minimum (theta-major) of
    the objective over all its points, and then see-saw steps from it
    (``_SLEObjective.seesaw_step``, see "Refinement" in the module
    docstring) while each one strictly lowers the value, at most
    ``SLE_REFINE_STEPS`` of them, and reports the last point kept.  The
    grid is searched by branch and bound (see "Grid search" in the module
    docstring).  When the transposed pair splits into sectors of at most
    two basis states, as for every X-shaped state, each point is bounded
    from below by the closed form of its sectors, less a slack of
    1e-12 (1 + ||M||_F) with M the point's normalized pair, and the closed
    form's argmin is solved first.  Otherwise the stride-8 subgrid is
    solved first and every other point is bounded from below through its
    nearest subgrid point A, less a slack of 1e-12 (1 + ||A||_F + 2 eps)
    with 2 eps >= ||E||_F and E the point's pair less A's.  A point is
    solved unless its bound lies above the best value solved first.  The
    point found is bit for bit the one an eigensolve at every grid point
    finds, after solving 69 of the 4096 points on average for
    a pair of at most two-state sectors and 367 for any other
    (see the module docstring for the measurement).

    With ``sign_only=True``, a state whose nonzero entries conserve ring
    charges (see "Certified signs" in the module docstring) first takes a
    branch and bound over bands in z = cos(2 theta), at phi = 0.  If it
    evaluates a projection whose minimum eigenvalue lies below
    -``SLE_SIGN_SLACK``, the search returns that point's value and
    (theta, phi), which certify the sign but need not be the optimum: the
    projection leaves an NPT, hence entangled, pair, so the optimum lies
    below zero too.  If every band's bound lies above the
    slack, no projection leaves an NPT pair, and the search returns its
    evaluated point of the lowest value, positive too, with the bands as
    ``certificate``.  The slack (1e-12) leaves optima within rounding of
    zero, whose sign is rounding noise, to the default search, and dwarfs
    the last-bit change a point's value can take when it is evaluated in a
    different batch.  A state without ring charges, and a search that
    settles neither sign within ``SLE_BAND_EVALUATIONS`` hull points, take
    the default search, whose result is then returned exactly.  The
    default search takes no certificate.

    Parameters
    ----------
    rho : DensityMatrix or array
        Three-qubit state; an array must be Hermitian and positive
        semidefinite, with any trace.
    pair : optional
        The indices of the two kept qubits; the remaining qubit is
        projected.  Defaults to qubits (0, 1).
    sign_only : bool
        Stop at the first point, or bands, that certify the sign of the
        optimum.
    """
    objective = _SLEObjective(rho, pair)
    charges = _ring_charges(objective) if sign_only else None
    settled = None if charges is None else _band_search(objective)
    if settled is not None:
        z, breakpoints = settled
        theta = 0.5 * float(np.arccos(z))
        value = _checked(objective.values(np.array([theta]), np.zeros(1))[0])
        return SLEResult(float(value), theta, 0.0,
                         None if breakpoints is None else
                         SLECertificate(objective.kept, charges, breakpoints))

    theta, phi, value = _GridSearch(objective).best()
    if _checked(value) == np.inf:
        raise DegenerateProjectionError(
            "every projection direction on the grid has vanishing weight")
    theta, phi, value = _descend(objective, theta, phi, value)
    return SLEResult(float(value), float(theta), float(phi))
