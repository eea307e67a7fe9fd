"""The PPT-mixer witness program: a closed form on GHZ-diagonal states and
a first-order solver for every other state.

The program searched is

    minimize    tr(W rho)
    subject to  tr(W) = 1,
                W = P_i + Q_i^{T_i},  P_i >= 0,  Q_i >= 0

for the three one-versus-rest bipartitions of a three-qubit state.  A
negative optimum certifies genuine multipartite entanglement; a nonnegative
optimum is strong (though not conclusive) evidence of bi-separability.

A GHZ-diagonal state, such as noisy GHZ or a noise-model state, first
takes a closed form (see "GHZ-diagonal states"): the fidelity witness,
normalized, and a PPT mixture that meets it.  Every other state, and one
whose closed form fails its checks, is solved by Douglas-Rachford
splitting (see "Douglas-Rachford iteration") over the 7-tuple (W, P_1,
Q_1, ..., Q_3) of Hermitian matrices.  Every result holds certificates
that ``superact.verify`` can re-check without trusting the solver: an
exactly feasible witness, whose value bounds the optimum from above, and a
PPT mixture, which bounds it from below.  A default result holds both; a
sign-only one that fixes its sign holds only the one that fixes it.

Douglas-Rachford iteration
--------------------------
The splitting separates the program's equality constraints, tr W = 1 and
W = P_i + Q_i^{T_i}, from its cone constraints.  P_A is the orthogonal
projection onto the equality constraints (see "Affine projection"); P_K
leaves W alone and clips the eigenvalues of the six P and Q blocks to be
nonnegative.  ``_iterates`` runs the splitting: from the splitting
variable z each iteration steps along the cost tr(W rho), which moves W
alone, and takes the two projections,

    xf = P_A(z - STEP (rho, 0, ..., 0)),   y = 2 xf - z,   xg = P_K(y),
    z <- z + RELAXATION (xg - xf),

and yields xf, y, xg and the z it moves on to.  The cone gap xg - y on
the P and Q blocks over STEP holds the multipliers of the cone
constraints, from which ``ppt_mixer_witness`` repairs its dual
certificate.  ``ppt_mixer_witness`` counts the iterations, forms the gap
only when a check builds the lower bound, and stops the iteration itself.

The loop runs on one real vector of coordinates, not on the seven 8 x 8
blocks.  The coordinates of a stack are those of its in-sector entries
(see "Symmetry sectors"): block by block, each diagonal entry, and sqrt(2)
times the real part of each entry above the diagonal; then, when the
iteration is complex, sqrt(2) times the imaginary part of each entry
above the diagonal.  They are orthonormal, so the Euclidean inner product
of two coordinate vectors is the Frobenius inner product Re tr(A^H B) of
their stacks, and every vector is the coordinates of a Hermitian stack.
A noisy GHZ state has 63 real coordinates, a noise-model state 84, a noisy
or distilled W state 98, and a state with no symmetry 448 (252 real parts
and 196 imaginary parts), against the 448 real numbers of seven real 8 x 8
blocks.  P_A is affine, P_A(x) = L x + P_A(0), so the cost step and the
affine projection together are y = M z + c with M = 2 L - I and
c = 2 P_A(0) - STEP (M + I) rho, and xf = (y + z) / 2.  P_K gathers the
coordinates of each sector straight into a batched eigendecomposition
(see "Symmetry sectors") and scatters the projected sectors back.  The
iterates are expanded into 8 x 8 blocks only when the bounds are checked
and at the end; ``final_z`` and ``start`` are (7, 8, 8) stacks of the
iteration's dtype.

The loop accelerates the fixed-point iteration z <- T(z) of that map by
type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49, 715,
2011), safeguarded in the manner of Zhang, O'Donoghue & Boyd (SIAM J.
Optim. 30, 3170, 2020).  From the last 16 accepted iterates it takes the
differences dg of the residuals g = T(z) - z and dT of the map's values,
solves the least squares min ||g - dg gamma|| with a Tikhonov weight of
1e-10 times the trace of its Gram matrix, and moves on to
T(z) - dT gamma.  The coefficients gamma are real, and so are the
coordinates they combine: every iterate is exactly Hermitian, with no
rounding drift for the extrapolation to amplify, and the least squares
is the Frobenius one.  The safeguard keeps an extrapolated z only if
its residual ||T(z) - z|| is below that of the last accepted iterate;
otherwise the memory is cleared and the loop takes the plain step T(z)
from the last accepted iterate, which it has already computed.  Either way
each iteration evaluates T once, and a rejected candidate counts as an
iteration.  The differences live in fixed ring buffers whose Gram matrix is
updated one row per iteration.  The regularized system, that matrix with
the weight added to its diagonal, is solved through the LAPACK entry of
``states`` (see "LAPACK entry" there), as is every eigendecomposition of
the iteration and of the bounds: at 16 x 16 the solve takes 1.6 us there
and 3.4 us through ``np.linalg.solve``, whose wrapper costs the
difference.  A memory of 16 was chosen by measurement:
over the 272 certify-mixed states of seeds 1-8 and three more, default
solves took 24040 iterations at a memory of 8, 19650 at 16 and 21620 at
32; at 8 most noisy GHZ and noise-model solves take 20, at 32 they take
30-40, and on 30 noisy random states of rank 1-8 a memory of 8 took 71800
iterations (one solve reached its 30000 cap), 16 took 37140.  Extrapolation
cannot corrupt a verdict: every result is read from bounds repaired at the
final iterate.

A solve starts from a given z: the program's cold start, or a z built
from earlier solves, which ``ppt_mixer_witness`` takes as ``start`` and
hands back as ``final_z``.  Along a threshold bisection the states differ
only in p, so each solve starts from the final z of the evaluated points
nearest to it, interpolated linearly in p: a midpoint starts from the mean
of its bracket ends' (see ``thresholds.certifying_margin``).  A start that
does not have the program's shape and dtype, or is not finite, is ignored;
any other is read into the state's coordinates, which twirls it into its
sectors (see "Symmetry sectors").  The start can only change how soon a
solve stops: every verdict is read from bounds repaired into exactly
feasible points at the final iterate, whatever the start.

Certified bounds
----------------
The dual of the program is the PPT-mixture decomposition (Jungnitsch,
Moroder & Guehne, PRL 106, 190502, 2011)

    maximize    t
    subject to  rho - t I = Y_1 + Y_2 + Y_3,  Y_i >= 0,  Y_i^{T_i} >= 0,

and weak duality gives tr(W rho) >= t for every feasible W and every such
decomposition.  Both sides are repaired into exactly feasible points from
any iterate, with xf the affine iterate, y = 2 xf - z the reflection and
xg its cone projection:

- *upper bound*: take W = xf_0, exactly Hermitian as every expanded
  iterate is, and Q_i the PSD part of xf's Q blocks, let
  delta = max(0, -min_i lambda_min(W - Q_i^{T_i})), and scale
  (W + delta I, W - Q_i^{T_i} + delta I, Q_i) by 1 / (1 + 8 delta).  The
  result is feasible with unit trace and value (tr(W rho) + delta) /
  (1 + 8 delta);
- *lower bound*: the cone multipliers (xg - y) / step give A_i from the P
  blocks and B_i from the Q blocks, both PSD; at a fixed point
  Y_i = A_i = B_i^{T_i}.  Take Y_i = (A_i + B_i^{T_i}) / 2 + eps_i I,
  exactly Hermitian as every expanded iterate is,
  with eps_i the smallest shift that makes Y_i and Y_i^{T_i} PSD, let
  R = rho - sum_i Y_i and t = min(lambda_min(R), lambda_min(R^{T_1})), and
  add R - t I to Y_1.  Then rho - t I = sum_i Y_i exactly and t is the
  lower bound.

One routine, ``_certified_bounds``, builds the bounds for every check of
every Douglas-Rachford solve.  Both sides cost four eigendecompositions of
stacks of blocks, taken sector by sector (see "Symmetry sectors"): one
batched LAPACK call per sector size in each, and none for sectors of size
1, whose one entry is their eigenvalue.  Every solve checks them every 10
iterations and at the iteration cap ``MAX_ITERATIONS`` = 200000, and stops
as soon as upper - lower is at most ``gap_tol``, the one setting a caller of
``ppt_mixer_witness`` passes (``GAP_TOL`` = 1e-8 by default); a solve
asked only for the sign (``sign_only=True``) also stops as soon as the
upper bound lies below minus the certification margin
``CERTIFICATION_MARGIN`` = 1e-5 or the lower bound above it.  The gap stop
ends sign-only solves too, so that one whose optimum lies inside the margin
ends with an indeterminate sign instead of running to the iteration cap.
Every result is built from the bounds at the final iterate, and its sign is
read from them.

Every check builds first the side that the iterate's value tr(W rho)
points to: the upper bound when it is negative and the lower bound
otherwise.  In a sign-only solve, a check whose first side clears the
certification margin ends the solve there and never builds the other side.
The result then holds the one certificate that fixes the sign, a witness
for a negative sign or a PPT mixture for a nonnegative one, and the other
bound is infinite (+inf above, -inf below), so the optimum still lies
between the two.  Otherwise the check builds both sides and the solve
applies its stop rule.  A sign-only result whose sign the second side
fixes keeps only that side; one whose sign stays indeterminate keeps both,
as every default result does.  A sign-only solve so stops at the same
check, with the same ``final_z``, as it would with both sides built, and
the side it keeps is the same bit for bit.  Over the 18 PPT-mixer solves
of the default W-GME and W-GME-after-distill bisections (107 iterations),
building one side where it fixes the sign took the solver's traced time
from 12.56 to 11.06 ms, from 118 to 104 us per iteration (``bench/run.py
--workload thresholds --trace 1``, seed 21, 2-vCPU VM).  Calling LAPACK
through the entry of ``states`` instead of ``numpy.linalg``, which skips
1.7-1.8 us of wrapper per call on eigensolves of 2-9 us, then took the
same 107 iterations from 102 to 84 us each, and the solver's traced time
from 10.9 to 9.0 ms.

A solve that takes a start also checks its bounds at iterations 1 and 3
(``_WARM_CHECKS``), since a start near the optimum often fixes the sign
there, and then keeps the cadence of 10.  An early check gives up,
returning no bounds, unless the side it builds first clears the
certification margin; only then does a default solve build the other side
and apply its stop rule.  A check that fails so costs about half a full
one.
The iterations were chosen by measurement over the eight W-GME and
W-GME-after-distill bisections listed in ``tests/test_thresholds.py``:
checks at (1, 3) took 487 iterations and 114.5 full checks' worth of
bounds, against 830 and 83 from the same starts with no early check.  They
took the least CPU time of the sets (1), (2), (1, 2), (1, 2, 3), (1, 3, 6)
and (3, 6), which took 474-546 iterations, 1% less than (2), the next best.
Building both sides at every early check cost 7-11% more time.

GHZ-diagonal states
-------------------
A state is GHZ-diagonal when the GHZ basis |G_{f,+-}> = (|f> +- |7 - f>) /
sqrt(2), f in (0, 1, 2, 4) as ``states.make_ghz`` orders them,
diagonalizes it; the pairs {f, 7 - f} are read in that order.  Noisy GHZ,
the noise-model states, their parity-check outputs and the maximally mixed
state are GHZ-diagonal.  The test is
exact: the state is real, every entry off the X pattern is an exact zero,
and each pair {f, 7 - f} has rho[f, f] == rho[7 - f, 7 - f] and
rho[f, 7 - f] == rho[7 - f, f].  With a_f = rho[f, f] and
c_f = rho[f, 7 - f], the GHZ-basis eigenvalues are a_f +- c_f.  Such a
state is GME exactly where lambda_max > tr(rho) / 2 (Guehne & Seevinck,
NJP 12, 053002, 2010).  Let (j, s) be the pair and sign of the largest
eigenvalue, G = G_{j,s}, t = (tr(rho) / 2 - lambda_max) / 3, and pi_i(j)
the pair reached by flipping party i's bit of pair j.  Transposing party
i keeps every diagonal entry and swaps the coherences of pairs k and
pi_i(k).

- *Upper bound*: W = (I/2 - |G><G|) / 3, the fidelity witness of G
  normalized to unit trace, with P_i = 0 and Q_i = W^{T_i}.  The partial
  transpose of |G><G| has the spectrum {1/2, 1/2, 1/2, -1/2, 0, 0, 0, 0},
  so Q_i is PSD; the decomposition is exact, with residuals 0, and
  tr(W rho) = t.
- *Lower bound*: Y_i holds pair pi_i(j) of rho - t I and the share
  kappa_i of pair j, with kappa_i = w_i / sum_k w_k,
  w_i = max(0, a_{pi_i(j)} - t), or 1/3 where every w_i is 0.  The three
  pairs pi_i(j) are the other three, so sum_i Y_i = rho - t I.  In exact
  arithmetic sum_k (a_{pi_k(j)} - t) = |c_j|, so kappa_i is
  (a_{pi_i(j)} - t) / |c_j| by the trace; dividing by the sum keeps
  sum_i kappa_i = 1 to rounding when |c_j| is small.
- *Checks*: the entries of each Q_i are exactly 0 and +-1/6, so it
  needs none.  The three Y_i and the three Y_i^{T_i} are X-shaped, and
  each of their four pairs [[d, c], [c, d]] has equal diagonal entries,
  as rho's do; so each factor is PSD exactly where d - |c|, its pairs'
  lowest eigenvalues, are nonnegative.  A factor passes when they lie at
  or above minus ``_ROUNDING`` = 64 ulps of tr(rho) (1.4e-14 for a unit
  trace): its entries are a few roundings deep from entries of size at
  most tr(rho), and the verifier accepts down to -1e-9.  Outside pair j
  the checks read a_k - t >= |c_k|; on it, a_j - t >= |c_j| and
  (a_k - t)(a_j - t) >= |c_k| |c_j| for each other pair k.  Where
  lambda_max >= tr(rho) / 2, t <= 0 and the state's own positivity,
  a_f >= |c_f|, gives them all: on the GME side the fidelity witness is
  the optimum.  Below that they hold on some states, noisy GHZ at every p
  among them, and fail on others, such as
  ``noise_model_state(0.1, 0.9, 0.3)``.

When the checks pass, both bounds are t.  The result, built from
``_Bounds`` as Douglas-Rachford's are, has ``iterations`` = 0,
``converged`` = True and ``final_z`` = None, and the solve reads no
``start``.  It takes no eigensolve, and 0.1-0.15 ms in all on the
2-vCPU VM (Douglas-Rachford took 1.2-1.6 ms on these states).  A
sign-only request keeps the side that fixes the sign against
``CERTIFICATION_MARGIN``, or both where |t| lies inside it, as a sign-only
Douglas-Rachford solve ends.
When the mixture fails its checks (on a state with every a_f >= |c_f|,
only where t > 0), the state falls back to Douglas-Rachford, bit for bit
the solve of a state that is not GHZ-diagonal.  Over the GHZ-diagonal
states of the tests' corpus (noisy GHZ at 41 p, noise-model states over
the benchmark's (q, r) ranges, distilled noisy GHZ, parity-check
outputs, the maximally mixed state and 56 Dirichlet draws with
lambda_max >= 1/2), the closed value lies inside Douglas-Rachford's
certified interval within 1e-12.

Symmetry sectors
----------------
Every state the paper studies is invariant under some diagonal local
unitaries, and the program inherits the symmetry (Gatermann & Parrilo, J.
Pure Appl. Algebra 192, 95, 2004): local unitaries keep the program's
feasible set, and one that commutes with rho keeps its objective.  The
solver takes the charge vectors c and Z-strings s that the state's exact
zero pattern conserves from ``states._symmetries``, whose docstring
explains the reading: the phases exp(i theta c.b) and signs (-1)^{s.b}
commute with rho.  W and the P blocks split into the sectors of basis
states that agree in every c.b and every s.b mod 2.  A Q_i block splits in
the same way with party i's charge negated, since partial transposition
over party i conjugates its phase.  That splits it as flipping party i's
bit does: -c_i b_i and c_i (1 - b_i) differ by the same c_i for every
basis state, and s.b mod 2 changes by the same s_i.  Noisy and
distilled GHZ states give {000, 111} and singletons; noise-model and other
X-shaped states, the four pairs {b, b with every bit flipped}; noisy and
CNOT-distilled W states, the Hamming weights, of sizes 1, 3, 3 and 1.  A
state with no symmetry is one sector of size 8.  Every state takes the
same path.  The sectors, the coordinates and the affine matrix M of the
iteration (see "Affine projection") are cached per conserved symmetries and
dtype, so states whose zero patterns conserve the same ones share them, and
a solve reads them once.

Zeroing the entries outside the sectors is the average over the symmetry
group, the twirl.  The twirl keeps a feasible point feasible, and keeps
its value because rho is invariant.  Every step maps a point inside the
sectors to one inside them: the cost step, since rho lies inside them; the
affine projection; the cone projection; and Anderson's combinations.  So
the iteration runs on the coordinates of the in-sector entries alone (see
"Douglas-Rachford iteration"), and reading a start into them twirls it.
The cone projection takes one batched eigendecomposition per sector size
over the six P and Q blocks, gathering each sector's k x k matrix from
the coordinates, and clips the one coordinate of each sector of size 1 at
0.  Expanded, every iterate is exactly zero outside the sectors.  The
certified bounds read W and the cone multipliers through the sectors,
which twirls them, so every spectrum they take is of an exactly
block-diagonal matrix, and they take it sector by sector.

Affine projection
-----------------
Stack x = (W, P_1, Q_1, P_2, Q_2, P_3, Q_3).  The constraint map is
C x = (tr W - 1, {W - P_i - T_i Q_i}) with T_i the (self-adjoint,
involutive) partial transpose.  Orthogonal projection is
x - C^*(C C^*)^{-1}(C x - b), and C C^* acts on multipliers (t, {M_i}) as
(d t + sum_j tr M_j, {t I + sum_j M_j + 2 M_i}) with d = 8, which inverts
in closed form:

    t   = (5 r_0 - sum_i tr R_i) / 16
    S   = (sum_i R_i - 3 t I) / 5
    M_i = (R_i - t I - S) / 2

where r_0, R_i are the constraint residuals of the point being projected.
``_project_affine`` evaluates it on stacks of blocks.

The iteration instead multiplies its coordinates by M = 2 L - I, with L
the linear part x -> P_A(x) - P_A(0) in coordinates (see "Douglas-Rachford
iteration").  L is built once per set of sectors and dtype, and cached with
the sectors: ``_project_affine`` projects the expanded unit vectors of the
coordinates, a chunk of 64 at a time, and the results are read back into
coordinates.  L is an orthogonal projection, so it is symmetric, and M is
built from the symmetric part of the matrix so read.  The constraints never mix real and imaginary parts:
the trace is real, and T_i moves an entry, conjugating it when it crosses
the diagonal.  So M is kept as two blocks, one acting on the coordinates of
the real parts and one on those of the imaginary parts, which a real
iteration does not have.  For a state with no symmetry these are 252 x 252
and 196 x 196, half the multiplications of one 448 x 448 matrix.

Step and relaxation
-------------------
Douglas-Rachford convergence depends strongly on the step and the
relaxation (Giselsson & Boyd, IEEE TAC 2017), so the fixed ``STEP`` and
``RELAXATION`` were chosen by a scan that predates both the Anderson
acceleration and the gap stop: the solver then stopped when a window of 100
objective values, checked every 50 iterations, spanned less than 1e-9 at a
cone violation of at most 1e-7, and the counts below are of that rule and
of plain Douglas-Rachford.  It
scanned step from 0.5 to 32 and relaxation from 1.0 to 1.9 over a fixed
corpus of 46 states: noisy W at p in {0.4, 0.45, 0.475, 0.478, 0.4797, 0.48,
0.4875, 0.5, 0.6}; CNOT-distilled noisy W at the W-GME-after-distill
bisection points {0.45, 0.4875, 0.50625, 0.515, 0.518, 0.5185, 0.52, 0.525,
0.6}; eight noisy GHZ and four noise-model states; and the 16 random states
of the certify-mixed benchmark workload for seeds 1-8.  A setting was
admissible when

- no certified sign changed and no family's total iteration count rose;
- every optimal value lay within 1e-8 of a tight reference solve (a
  window of 400 values spanning less than 1e-13) made with the old and
  with the new setting.  On one random state the old setting itself misses
  the reference by 1.8e-7, so there a setting had only to do no worse;
- distilled W at p = 0.45, noisy W at 0.6 and noisy GHZ at 0.5 took at most
  2500, 350 and 500 iterations.

The admissible setting with the fewest total iterations, (7, 1.2), replaced
(0.5, 1.8): 94700 -> 33550 iterations in total, W and distilled W 16050 ->
7050, the random states 70900 -> 22300 (worst 11850 -> 6950), each noisy
GHZ or noise-model solve 600-650 -> 350, distilled W at p = 0.45 5800 ->
1000; the largest deviation from the references fell from 1.6e-8 to 3.4e-9
outside that one state, where it fell from 1.8e-7 to 4.4e-8.  (10, 1.3) had
fewer iterations in total, 31350, but takes 450 on noisy W at 0.6.

The setting was not scanned again under acceleration and the gap stop.
With them, at (7, 1.2), those three solves take 1310, 40 and 30 iterations
(``tests/test_sdp.py`` pins 2500, 60 and 40), every noisy GHZ or
noise-model solve 20-30, and the 16 random states 22300 -> 8650 (worst
6950 -> 4940), each now to an interval of at most 1e-8 where the
stagnation rule left up to 6.2e-7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .states import (
    _LABELS,
    _Symmetries,
    _checked,
    _eigh,
    _eigvalsh,
    _matrix_to_dict,
    _partial_transpose_array,
    _solve,
    _state_entries,
    _symmetries,
)

BIPARTITIONS = ((0,), (1,), (2,))
SIGN_NEGATIVE = "negative"
SIGN_NONNEGATIVE = "nonnegative"
SIGN_INDETERMINATE = "indeterminate"

# Douglas-Rachford step and relaxation of the witness program, chosen by
# measurement (see "Step and relaxation" in the module docstring).
STEP = 7.0
RELAXATION = 1.2
# A solve stops once its certified interval [lower bound, upper bound] is at
# most ``gap_tol`` wide (GAP_TOL by default), or after MAX_ITERATIONS; a
# sign-only solve also stops once the interval clears CERTIFICATION_MARGIN
# (see "Certified bounds" in the module docstring).
GAP_TOL = 1e-8
MAX_ITERATIONS = 200_000
CERTIFICATION_MARGIN = 1e-5
# Iterations between two evaluations of the certified bounds.
_BOUND_CHECK_EVERY = 10
# Iterations at which a solve that takes a start also evaluates them, chosen
# by measurement (see "Certified bounds" in the module docstring).
_WARM_CHECKS = (1, 3)
# Anderson acceleration of the Douglas-Rachford map: the number of past
# iterates it extrapolates from, and the Tikhonov weight of its least
# squares, relative to the trace of their Gram matrix.
_ANDERSON_MEMORY = 16
_ANDERSON_REGULARIZATION = 1e-10
# Added to that weight so that the least squares stays solvable when every
# difference is zero, as at an exact fixed point (the maximally mixed state
# reaches one).
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class WitnessResult:
    """Solution and self-verifiable certificates of the witness program.

    The optimum lies in [``lower_bound``, ``optimal_value``] (see "Certified
    bounds" in the module docstring).  ``witness`` is the repaired, exactly
    feasible witness: it has unit trace, every (P, Q) pair in
    ``decompositions`` is positive semidefinite, ``residuals`` holds the
    Frobenius norms ||W - P_i - Q_i^{T_i}|| (rounding only), and
    ``optimal_value`` is its value tr(W rho).  ``mixture`` holds
    (Y_1, Y_2, Y_3) with rho - ``lower_bound`` I = Y_1 + Y_2 + Y_3 and every
    Y_i and Y_i^{T_i} positive semidefinite.  ``iterations`` counts the
    Douglas-Rachford iterations, and ``final_z`` is the splitting variable
    the solve reached, a start for a solve of a nearby state; it is no
    part of either certificate.  A result in closed form (see
    "GHZ-diagonal states" in the module docstring) has ``iterations`` = 0,
    ``final_z`` None and both bounds equal.

    A default result holds both sides, and so does a sign-only one whose
    sign is indeterminate.  A sign-only result with a certified sign holds
    only the side that fixes it: a negative one has ``lower_bound`` = -inf
    and ``mixture`` None, a nonnegative one ``optimal_value`` = +inf and
    ``witness``, ``decompositions`` and ``residuals`` None.

    ``certified_sign`` is ``negative`` when ``optimal_value`` lies below
    minus ``CERTIFICATION_MARGIN``, ``nonnegative`` when ``lower_bound``
    lies above it, and ``indeterminate`` otherwise.
    """

    optimal_value: float
    witness: np.ndarray | None
    decompositions: tuple[tuple[np.ndarray, np.ndarray], ...] | None
    residuals: tuple[float, ...] | None
    iterations: int
    converged: bool
    certified_sign: str
    lower_bound: float
    mixture: tuple[np.ndarray, ...] | None
    final_z: np.ndarray | None = field(default=None, repr=False)


def _partial_transpose_index() -> np.ndarray:
    """Gather index of one three-qubit partial transpose per bipartition,
    shape (3, 64).

    With a stack of three 8 x 8 blocks flattened to ``flat``,
    ``flat[index[j]]`` is block j partially transposed over
    ``BIPARTITIONS[j]``, in row-major order.
    """
    flat = np.arange(64).reshape(8, 8)
    index = np.stack([
        k * 64 + _partial_transpose_array(flat, 3, party).ravel()
        for k, party in enumerate(BIPARTITIONS)
    ])
    index.flags.writeable = False
    return index


_PT_INDEX = _partial_transpose_index()


def _transpose_stack(blocks: np.ndarray,
                     index: np.ndarray = _PT_INDEX) -> np.ndarray:
    """Partial transpose of ``blocks[..., j, :, :]`` over the j-th party of
    ``index``."""
    flat = blocks.reshape(blocks.shape[:-3] + (index.size,))
    return flat[..., index].reshape(blocks.shape)


def _project_affine(x: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Orthogonal projection of each stack (W, P_1, Q_1, ..., Q_3) of ``x``,
    shape (..., 7, 8, 8), onto the equality constraints (see "Affine
    projection" in the module docstring)."""
    dim = eye.shape[0]
    w = x[..., 0, :, :]
    p_blocks, q_blocks = x[..., 1::2, :, :], x[..., 2::2, :, :]
    r0 = np.trace(w, axis1=-2, axis2=-1).real - 1.0
    r = w[..., None, :, :] - p_blocks - _transpose_stack(q_blocks)
    r_sum = r.sum(axis=-3)
    t = (5.0 * r0 - np.trace(r_sum, axis1=-2, axis2=-1).real) / (2.0 * dim)
    t_eye = t[..., None, None] * eye
    s = (r_sum - 3.0 * t_eye) / 5.0
    m = 0.5 * (r - (t_eye + s)[..., None, :, :])
    out = np.empty_like(x)
    out[..., 0, :, :] = w - (t_eye + m.sum(axis=-3))
    out[..., 1::2, :, :] = p_blocks + m
    out[..., 2::2, :, :] = q_blocks + _transpose_stack(m)
    return out


# Gather index of block k of a flattened stack of 8 x 8 blocks.
_OWN = np.arange(7 * 64).reshape(7, 64)
# Flat index of entry (b, j, i) of a stack of seven blocks, at (b, i, j).
_MIRROR = np.swapaxes(_OWN.reshape(7, 8, 8), 1, 2).ravel()
# Whether each entry of a flattened stack of seven blocks lies on, or on or
# above, the diagonal of its block.
_DIAGONAL = np.tile(np.eye(8, dtype=bool).ravel(), 7)
_UPPER = np.tile(np.triu(np.ones((8, 8), dtype=bool)).ravel(), 7)
# Unit vectors projected at a time when the affine matrix is built.
_BUILD_CHUNK = 64
_ROOT_HALF = np.sqrt(0.5)
_ROOT_TWO = np.sqrt(2.0)


class _Plan(NamedTuple):
    """Gathers of the sectors of a stack of blocks, one per sector size.

    Each group holds the flat indices of its sectors, shape (n, k, k), or
    of their one diagonal entry, shape (n,), for k = 1; and the slot
    block * 8 + (first basis state) of each sector.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    blocks: int


class _ConeGroup(NamedTuple):
    """The cone sectors of one size k >= 2, in coordinates: y[gather] *
    weight, viewed in the iteration's dtype, is their (n, k, k) stack, and
    a projected stack s gives the coordinates ``target`` as
    s.view(float64)[source] * scale."""

    gather: np.ndarray
    weight: np.ndarray
    target: np.ndarray
    source: np.ndarray
    scale: np.ndarray


class _Sectors(NamedTuple):
    """Sectors of one set of symmetries and the iteration in them, for one
    dtype.

    ``mask`` holds the in-sector entries of (W, P_1, Q_1, ..., Q_3).  The
    coordinates of the iteration (see "Douglas-Rachford iteration" in the
    module docstring) are read from the real view of a flat stack at
    ``read_at`` times ``read_scale``, and expanded as coordinates[gather] *
    weight, which holds the real and imaginary part of every entry, zero
    outside the sectors.  ``affine`` holds M, one (coordinates, matrix)
    block per part, and ``offset`` the coordinates of 2 P_A(0).  ``clip``
    holds the coordinates of the cone sectors of size 1, and ``cone`` the
    larger ones.  The plans hold the sectors of each stack the bounds read.
    """

    mask: np.ndarray
    dtype: type
    read_at: np.ndarray
    read_scale: np.ndarray
    gather: np.ndarray
    weight: np.ndarray
    affine: tuple[tuple[slice, np.ndarray], ...]
    offset: np.ndarray
    clip: np.ndarray
    cone: tuple[_ConeGroup, ...]
    q: _Plan          # Q_1, Q_2, Q_3
    w: _Plan          # three W blocks
    mixture: _Plan    # Y_1, Y_2, Y_3, then Y_i^{T_i}
    shifted: _Plan    # R, then R^{T_1}

    def read(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the stacks ``x``, shape (..., 7, 8, 8): the
        upper triangle of their in-sector entries."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        flat = x.reshape(x.shape[:-3] + (-1,)).view(np.float64)
        return flat[..., self.read_at] * self.read_scale

    def expand(self, v: np.ndarray) -> np.ndarray:
        """The Hermitian stacks, shape (..., 7, 8, 8), of coordinates
        ``v``."""
        parts = np.ascontiguousarray(v[..., self.gather] * self.weight)
        return parts.view(self.dtype).reshape(v.shape[:-1] + (7, 8, 8))

    def apply_affine(self, v: np.ndarray) -> np.ndarray:
        """M v, the reflection through the equality constraints' linear
        part."""
        if len(self.affine) == 1:  # a real iteration: one part, all of v
            return self.affine[0][1] @ v
        return np.concatenate([m @ v[part] for part, m in self.affine])


def _plan(same: np.ndarray, kinds: tuple[int, ...],
          bases: np.ndarray) -> _Plan:
    """Plan of the sectors of blocks of the given kinds; the row-major
    entries of block j are ``flat[bases[j]]``."""
    in_sector = same[list(kinds)]
    size = in_sector.sum(axis=-1)
    first = in_sector.argmax(axis=-1) == np.arange(8)
    groups = []
    for k in np.flatnonzero(np.bincount(size.ravel())):
        block, head = np.nonzero(first & (size == k))
        if k == 1:
            index = bases[block, 9 * head]
        else:
            members = np.argsort(~in_sector[block, head], axis=-1,
                                 kind="stable")[:, :k]
            entries = members[:, :, None] * 8 + members[:, None, :]
            index = np.take_along_axis(
                bases[block], entries.reshape(len(block), -1), axis=1
            ).reshape(-1, k, k)
        groups.append((index, 8 * block + head))
    return _Plan(tuple(groups), len(kinds))


@functools.lru_cache(maxsize=64)
def _sectors_of(symmetries: _Symmetries, dtype: type) -> _Sectors:
    # The conserved labels of each basis state b (see "Symmetry sectors" in
    # the module docstring), per block kind: kind 0 is W and the P blocks,
    # kind i the block Q_i, which takes the labels of b with party i's bit
    # flipped.
    labels = _LABELS[:, list(symmetries.charges + symmetries.z_strings)]
    labels = labels[np.arange(8) ^ np.array([[0], [4], [2], [1]])]
    # same[kind, b, b']: b and b' share a sector in blocks of that kind.
    same = (labels[:, :, None] == labels[:, None]).all(axis=-1)
    mask = same[[0, 0, 1, 0, 2, 0, 3]]

    # Coordinates: one for the real part of each in-sector entry on or above
    # the diagonal, then, for a complex dtype, one for the imaginary part of
    # each above it; off the diagonal, scaled by sqrt(2).
    upper = mask.ravel() & _UPPER
    parts = [np.flatnonzero(upper)]
    if dtype is np.complex128:
        parts.append(np.flatnonzero(upper & ~_DIAGONAL))
    width = len(parts)
    gather = np.zeros((7 * 64, width), dtype=np.intp)
    weight = np.zeros((7 * 64, width))
    read_at, read_scale, slices = [], [], []
    count = 0
    for part, flat in enumerate(parts):
        slices.append(slice(count, count + len(flat)))
        count += len(flat)
        half = np.where(_DIAGONAL[flat], 1.0, _ROOT_HALF)
        gather[flat, part] = gather[_MIRROR[flat], part] = np.arange(
            slices[-1].start, count)
        # The imaginary part of the entry below the diagonal is negated.
        weight[flat, part] = half
        weight[_MIRROR[flat], part] = -half if part else half
        read_at.append(width * flat + part)
        read_scale.append(np.where(_DIAGONAL[flat], 1.0, _ROOT_TWO))
    sectors = _Sectors(
        mask=mask, dtype=dtype,
        read_at=np.concatenate(read_at), read_scale=np.concatenate(read_scale),
        gather=gather, weight=weight, affine=(), offset=None, clip=None,
        cone=(),
        q=_plan(same, (1, 2, 3), _OWN),
        w=_plan(same, (0, 0, 0), _OWN),
        mixture=_plan(same, (0, 0, 0, 1, 2, 3),
                      np.concatenate([_OWN[:3], _PT_INDEX])),
        shifted=_plan(same, (0, 1), np.stack([_OWN[0], _PT_INDEX[0]])),
    )

    # M = 2 L - I, with L the linear part of the affine projection, one block
    # per part: the constraints map real parts to real parts and imaginary
    # parts to imaginary parts.  Each part's unit vectors are expanded as real
    # stacks, symmetric for the real part and antisymmetric for the
    # imaginary part, and projected in real arithmetic, a chunk at a time so
    # that a pattern with no symmetry takes little memory.
    eye = np.eye(8)
    base = _project_affine(np.zeros((7, 8, 8)), eye)
    affine = []
    for part, (flat, block) in enumerate(zip(parts, slices)):
        linear = np.empty((len(flat), len(flat)))
        for head in range(0, len(flat), _BUILD_CHUNK):
            chunk = flat[head:head + _BUILD_CHUNK]
            units = np.zeros((len(chunk), 7 * 64))
            rows = np.arange(len(chunk))
            units[rows, _MIRROR[chunk]] = weight[_MIRROR[chunk], part]
            units[rows, chunk] = weight[chunk, part]
            moved = _project_affine(units.reshape(-1, 7, 8, 8), eye) - base
            linear[head:head + len(chunk)] = (
                moved.reshape(-1, 7 * 64)[:, flat] * read_scale[part])
        # Row k of ``linear`` is column k of L.  L is symmetric, being an
        # orthogonal projection, and M is built from its symmetric part.
        linear += linear.T
        linear[np.diag_indices(len(flat))] -= 1.0
        affine.append((block, linear))

    # The cone blocks' sectors, per size; those of size 1 are clipped at 0.
    cone, clip = [], []
    for index, _ in _plan(same, (0, 1, 0, 2, 0, 3), _OWN[1:]).groups:
        if index.ndim == 1:
            clip.append(gather[index, 0])
            continue
        position = np.full(7 * 64, -1)
        position[index.ravel()] = np.arange(index.size)
        target, source = [], []
        for part, (flat, block) in enumerate(zip(parts, slices)):
            inside = position[flat] >= 0
            target.append(np.arange(block.start, block.stop)[inside])
            source.append(width * position[flat[inside]] + part)
        target = np.concatenate(target)
        cone.append(_ConeGroup(gather[index], weight[index], target,
                               np.concatenate(source),
                               sectors.read_scale[target]))
    return sectors._replace(
        affine=tuple(affine), offset=2.0 * sectors.read(base),
        clip=np.concatenate(clip) if clip else np.zeros(0, np.intp),
        cone=tuple(cone))


def _sectors(rho: np.ndarray) -> _Sectors:
    """Sectors of the program for the 8 x 8 state ``rho``, and its iteration
    in the dtype of ``rho`` (float64 if real), cached per conserved
    symmetries and dtype: states whose zero patterns conserve the same
    charges and Z-strings share them."""
    dtype = np.complex128 if np.iscomplexobj(rho) else np.float64
    return _sectors_of(_symmetries((rho != 0).tobytes()), dtype)


def _clipped(stack: np.ndarray) -> np.ndarray:
    """Projection of each matrix of ``stack`` onto the PSD cone."""
    lam, vec = _eigh(stack)
    adjoint = vec.swapaxes(-1, -2)
    if adjoint.dtype.kind == "c":
        adjoint = adjoint.conj()
    return (vec * np.maximum(lam, 0.0)[:, None, :]) @ adjoint


def _psd_part(blocks: np.ndarray, plan: _Plan) -> np.ndarray:
    """Projection of each block onto the PSD cone, sector by sector; the
    entries outside the sectors are zero."""
    flat = blocks.reshape(-1)
    out = np.zeros(flat.shape, flat.dtype)
    for index, _ in plan.groups:
        sub = flat[index]
        out[index] = (np.maximum(sub.real, 0.0) if index.ndim == 1
                      else _clipped(sub))
    return out.reshape(blocks.shape)


def _project_cones(y: np.ndarray, sectors: _Sectors) -> np.ndarray:
    """P_K in coordinates: W as it is, and each P and Q block's sectors
    projected onto the PSD cone."""
    xg = y.copy()
    xg[sectors.clip] = np.maximum(y[sectors.clip], 0.0)
    for group in sectors.cone:
        stack = (y[group.gather] * group.weight).view(sectors.dtype)[..., 0]
        psd = _clipped(stack).reshape(-1).view(np.float64)
        xg[group.target] = psd[group.source] * group.scale
    return xg


def _lowest(blocks: np.ndarray, plan: _Plan) -> np.ndarray:
    """Lowest eigenvalue of each block that ``plan`` reads from ``blocks``,
    the minimum over its sectors."""
    flat = blocks.reshape(-1)
    lowest = np.full(8 * plan.blocks, np.inf)
    for index, slot in plan.groups:
        sub = flat[index]
        lowest[slot] = sub.real if index.ndim == 1 else _eigvalsh(sub)[:, 0]
    return lowest.reshape(plan.blocks, 8).min(axis=1)


def _start(start, cold: np.ndarray) -> np.ndarray:
    """``start`` if it is a finite array of ``cold``'s shape and dtype,
    otherwise the cold start ``cold``."""
    if (isinstance(start, np.ndarray) and start.shape == cold.shape
            and start.dtype == cold.dtype and np.isfinite(start).all()):
        return start
    return cold


def _iterates(rho: np.ndarray, sectors: _Sectors, z: np.ndarray):
    """Anderson-accelerated Douglas-Rachford iterates of the witness program.

    Starts from the splitting variable ``z``, a (7, 8, 8) stack, and yields,
    iteration after iteration without end, the affine iterate xf, the
    reflection y and its cone projection xg at the current z, and the z the
    next iteration starts from, all four as coordinates in ``sectors``,
    those of ``rho`` (see "Douglas-Rachford iteration" and "Symmetry
    sectors" in the module docstring); ``sectors.expand`` turns them into
    stacks, and the cone gap is xg - y.  Reading ``z`` into coordinates
    twirls it.  Each iteration evaluates the Douglas-Rachford map once.
    ``rho`` is the state, of the iteration's dtype.  No array is changed in
    place, ``z`` included.
    """
    z = sectors.read(z)
    cost = np.zeros((7, 8, 8), rho.dtype)
    cost[0] = rho
    cost = sectors.read(cost)
    # y = M z + c with c = 2 P_A(0) - STEP (M + I) rho, and xf = (y + z) / 2.
    c = sectors.offset - STEP * (sectors.apply_affine(cost) + cost)
    memory = _ANDERSON_MEMORY
    # Ring buffers of the differences between successive accepted iterates:
    # of the residuals g = T(z) - z, and of T(z).
    d_g = np.empty((memory, z.size))
    d_t = np.empty((memory, z.size))
    gram = np.empty((memory, memory))  # d_g d_g^T
    count = head = 0
    # T(z), g and ||g||^2 at the last accepted z.
    base_t = base_g = None
    base_norm = np.inf
    candidate = False
    while True:
        y = sectors.apply_affine(z) + c
        xf = 0.5 * (y + z)
        xg = _project_cones(y, sectors)
        t_z = z + RELAXATION * (xg - xf)
        g = t_z - z
        g_norm = float(g @ g)
        if candidate and g_norm >= base_norm:
            # Safeguard: drop the extrapolation and the memory, and take the
            # plain step from the last accepted z instead.
            count = head = 0
            candidate = False
            z = base_t
            yield xf, y, xg, z
            continue
        if base_t is not None:
            d_g[head] = g - base_g
            d_t[head] = t_z - base_t
            count = min(count + 1, memory)
            gram[head, :count] = gram[:count, head] = d_g[:count] @ d_g[head]
            head = (head + 1) % memory
        base_t, base_g, base_norm = t_z, g, g_norm
        candidate = count > 0
        if candidate:
            lhs = gram[:count, :count]
            shift = _ANDERSON_REGULARIZATION * lhs.trace() + _TINY
            system = lhs.copy()
            system.flat[::count + 1] += shift
            gamma = _solve(system, d_g[:count] @ g)
            z = t_z - gamma @ d_t[:count]
        else:
            z = t_z
        yield xf, y, xg, z


class _Bounds(NamedTuple):
    """Repaired primal and dual points of one iterate and their values; a
    side left out has None for its points and an infinite value."""

    upper: float
    witness: np.ndarray | None
    p_blocks: np.ndarray | None
    q_blocks: np.ndarray | None
    lower: float
    mixture: np.ndarray | None


def _upper_bound(rho: np.ndarray, sectors: _Sectors, xf: np.ndarray,
                 eye: np.ndarray) -> tuple:
    """Feasible witness built from the affine iterate ``xf``, as (value,
    W, P blocks, Q blocks); see "Certified bounds" in the module docstring.
    W is read through ``sectors``, those of ``rho``, and every spectrum is
    taken sector by sector (see "Symmetry sectors")."""
    dim = eye.shape[0]
    w = np.where(sectors.mask[0], xf[0], 0.0)
    q_hat = _psd_part(xf[2::2], sectors.q)
    p_raw = w - _transpose_stack(q_hat)
    delta = max(0.0, -float(_checked(_lowest(p_raw, sectors.w).min())))
    scale = 1.0 / (1.0 + dim * delta)
    witness = (w + delta * eye) * scale
    return (float(np.vdot(rho, witness).real), witness,
            (p_raw + delta * eye) * scale, q_hat * scale)


def _lower_bound(rho: np.ndarray, sectors: _Sectors, cone_gap: np.ndarray,
                 eye: np.ndarray) -> tuple:
    """PPT mixture built from ``cone_gap``, xg - y on the six cone blocks,
    as (t, mixture); see "Certified bounds" in the module docstring.  The
    cone multipliers are read through ``sectors``, those of ``rho``, and
    every spectrum is taken sector by sector."""
    multipliers = np.where(sectors.mask[1:], cone_gap, 0.0) / STEP
    mix = multipliers[0::2] + _transpose_stack(multipliers[1::2])
    mix = 0.5 * mix
    lowest = _lowest(mix, sectors.mixture)
    mix += np.maximum(0.0, -lowest.reshape(2, -1).min(axis=0))[:, None, None] * eye
    r = rho - (mix[0] + mix[1] + mix[2])
    t = float(_checked(_lowest(r, sectors.shifted).min()))
    mix[0] += r - t * eye
    return t, mix


# The bound and certificate of a side that a sign-only result leaves out.
_NO_UPPER = (np.inf, None, None, None)
_NO_LOWER = (-np.inf, None)


def _certified_bounds(rho: np.ndarray, sectors: _Sectors, xf: np.ndarray,
                      cone_gap, eye: np.ndarray, *,
                      early: bool = False,
                      sign_only: bool = False) -> _Bounds | None:
    """Feasible witness and PPT mixture built from one iterate, with
    ``cone_gap()`` its xg - y on the six cone blocks, called only when the
    lower side is built, and ``sectors`` those of ``rho``.  The side that
    the iterate's value tr(W rho) points to is built first, the upper bound
    when it is negative and the lower bound otherwise.  When it does not
    clear ``CERTIFICATION_MARGIN``, an ``early`` check returns None, and
    any other builds the other side too.  A ``sign_only`` check whose
    bounds fix the sign keeps only the side that fixes it, with
    ``_NO_UPPER`` or ``_NO_LOWER`` for the other, which it builds only when
    the first side does not fix the sign.  A side whose eigensolves failed
    raises ``np.linalg.LinAlgError`` (see "LAPACK entry" in ``states``)."""
    upper = lower = None
    if np.vdot(rho, xf[0]).real < 0.0:
        upper = _upper_bound(rho, sectors, xf, eye)
        cleared = upper[0] < -CERTIFICATION_MARGIN
    else:
        lower = _lower_bound(rho, sectors, cone_gap(), eye)
        cleared = lower[0] > CERTIFICATION_MARGIN
    if early and not cleared:
        return None
    if not (sign_only and cleared):
        upper = upper or _upper_bound(rho, sectors, xf, eye)
        lower = lower or _lower_bound(rho, sectors, cone_gap(), eye)
    bounds = _Bounds(*(upper or _NO_UPPER), *(lower or _NO_LOWER))
    return _fixing_side(bounds) if sign_only else bounds


def _fixing_side(bounds: _Bounds) -> _Bounds:
    """``bounds`` with only the side that fixes the sign, or both when
    neither does."""
    if bounds.upper < -CERTIFICATION_MARGIN:
        return _Bounds(*bounds[:4], *_NO_LOWER)
    if bounds.lower > CERTIFICATION_MARGIN:
        return _Bounds(*_NO_UPPER, *bounds[4:])
    return bounds


def _sign(bounds: _Bounds) -> str:
    """The sign that ``bounds`` certify against ``CERTIFICATION_MARGIN``."""
    if bounds.upper < -CERTIFICATION_MARGIN:
        return SIGN_NEGATIVE
    if bounds.lower > CERTIFICATION_MARGIN:
        return SIGN_NONNEGATIVE
    return SIGN_INDETERMINATE


# GHZ-diagonal states (see "GHZ-diagonal states" in the module docstring).
# The pairs {f, 7 - f}, in the order of the index of ``states.make_ghz``;
# the flat indices of each pair's entries (f, f), (f, 7 - f), (7 - f, f)
# and (7 - f, 7 - f) in an 8 x 8 matrix; for each pair and party, the pair
# reached by flipping that party's bit; and the entries off the X pattern.
_PAIRS = np.array([[0, 7], [1, 6], [2, 5], [3, 4]])
_PAIR_ENTRIES = (8 * _PAIRS[:, :, None] + _PAIRS[:, None, :]).reshape(4, 4)
_FLIPPED = np.arange(4)[:, None] ^ np.array([4, 2, 1])
_FLIPPED = np.minimum(_FLIPPED, 7 - _FLIPPED)
_OFF_X = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
# The closed form's checks pass a factor whose lowest eigenvalue lies at or
# above minus this share of the state's trace, 64 ulps, the rounding of its
# entries (see "GHZ-diagonal states" in the module docstring).
_ROUNDING = 64 * np.finfo(float).eps


def _ghz_diagonal_bounds(state: np.ndarray) -> _Bounds | None:
    """Closed-form bounds of a GHZ-diagonal ``state`` whose PPT mixture
    passes its checks, None for any other (see "GHZ-diagonal states" in the
    module docstring): the fidelity witness of the largest GHZ-basis
    eigenvalue, and the PPT mixture that meets it."""
    if state.dtype != np.float64 or state[_OFF_X].any():
        return None
    entries = state.reshape(-1)[_PAIR_ENTRIES]
    a, c = entries[:, 0], entries[:, 1]
    if not (np.array_equal(a, entries[:, 3])
            and np.array_equal(c, entries[:, 2])):
        return None
    # The pair j and sign of the largest eigenvalue a + c or a - c, whose
    # witness has the value t = (tr rho / 2 - lambda_max) / 3.
    eigenvalues = np.stack([a + c, a - c], axis=1)
    k = int(np.argmax(eigenvalues))
    j, half_trace = k // 2, a.sum()
    t = float((half_trace - eigenvalues.flat[k]) / 3.0)
    witness = np.eye(8) / 6.0
    coherence = 1.0 / 6.0 if k % 2 else -1.0 / 6.0
    witness.flat[_PAIR_ENTRIES[j]] = (0.0, coherence, coherence, 0.0)
    q_blocks = _transpose_stack(np.stack([witness] * 3))
    upper = (t, witness, np.zeros_like(q_blocks), q_blocks)

    # Y_i: pair pi_i(j) of rho - t I, and the share kappa_i of pair j.
    shifted = (state - t * np.eye(8)).reshape(-1)
    own = _PAIR_ENTRIES[_FLIPPED[j]]
    weight = np.maximum(shifted[own[:, 0]], 0.0)
    kappa = weight / weight.sum() if weight.any() else np.full(3, 1.0 / 3.0)
    mixture = np.zeros((3, 64))
    mixture[np.arange(3)[:, None], own] = shifted[own]
    mixture[:, _PAIR_ENTRIES[j]] = kappa[:, None] * shifted[_PAIR_ENTRIES[j]]
    mixture = mixture.reshape(3, 8, 8)
    # Every factor is X-shaped, and each of its pairs has equal diagonal
    # entries d and the coherence c, so it is PSD where d >= |c| on each.
    factors = np.concatenate([mixture, _transpose_stack(mixture)])
    pairs = factors.reshape(6, 64)[:, _PAIR_ENTRIES]
    if (pairs[..., 0] - np.abs(pairs[..., 1])).min() < (
            -_ROUNDING * 2.0 * half_trace):
        return None
    return _Bounds(*upper, t, mixture)


def _residuals(witness: np.ndarray, p_blocks: np.ndarray,
               q_blocks: np.ndarray) -> tuple[float, ...]:
    """Frobenius norms ||W - P_i - Q_i^{T_i}||, one per bipartition."""
    rebuilt = p_blocks + _transpose_stack(q_blocks)
    return tuple(float(np.linalg.norm(witness - r)) for r in rebuilt)


def ppt_mixer_witness(rho, *, gap_tol: float = GAP_TOL,
                      sign_only: bool = False,
                      start: np.ndarray | None = None) -> WitnessResult:
    """Solve the PPT-mixer program for a three-qubit state.

    Whatever the mode, the result holds certified bounds and the sign they
    fix (see ``WitnessResult``).  A GHZ-diagonal state whose PPT mixture
    passes its checks takes the closed form (see "GHZ-diagonal states" in
    the module docstring): its two bounds are equal, so they meet any
    ``gap_tol``, and the result has ``iterations=0``, ``converged=True``
    and ``final_z=None``; ``start`` is not read.  Every other solve is
    Douglas-Rachford's.  Every 10 iterations, and at the iteration budget
    ``MAX_ITERATIONS``, the solve builds the bounds of its iterate and
    stops once they lie within ``gap_tol`` of each other; with
    ``sign_only=True`` it also stops as soon as they fix the sign against
    ``CERTIFICATION_MARGIN``.  Either way a sign-only result keeps only
    the side that fixes its sign (see "Certified bounds" in the module
    docstring).  ``converged`` is True when the bounds ended the solve.
    ``gap_tol`` must be positive and finite, or ``ValueError`` is raised.

    Reaching the budget is not an exception: the result is returned with
    the bounds of the last iterate, and with ``converged=False`` unless
    those bounds meet the stop rule.

    The iteration starts from ``start``, the ``final_z`` of an earlier
    result, when it has this program's shape (7, 8, 8) and dtype (float64
    for a real state, complex128 otherwise) and is finite, and otherwise
    from the cold start I/8 in W and I/16 in every P and Q block.  A solve
    that takes a start also builds the bounds at iterations 1 and 3, one
    side first (see "Certified bounds" in the module docstring).  The start
    changes only when the solve stops, never what its bounds certify (see
    "Douglas-Rachford iteration").
    """
    state = _program_state(rho, gap_tol)
    bounds = _ghz_diagonal_bounds(state)
    if bounds is not None:
        bounds = _fixing_side(bounds) if sign_only else bounds
        return _result(bounds, 0, True, _sign(bounds), None)
    return _douglas_rachford(state, gap_tol, sign_only, start)


def _program_state(rho, gap_tol: float) -> np.ndarray:
    """The entries of ``rho`` the program reads, float64 for a real state
    and complex128 otherwise, once ``rho`` and ``gap_tol`` are checked."""
    if not 0.0 < gap_tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol}")
    m, _ = _state_entries(rho, 3)
    # The program for a real state is invariant under complex conjugation,
    # so averaging an optimal witness with its conjugate gives a real optimal
    # one: such states iterate in real arithmetic.  Contiguous, since np.vdot
    # rounds differently on a strided view such as m.real.
    return np.ascontiguousarray(m if m.imag.any() else m.real)


def _douglas_rachford(state: np.ndarray, gap_tol: float, sign_only: bool,
                      start) -> WitnessResult:
    """The Douglas-Rachford solve of ``ppt_mixer_witness`` on the checked
    entries ``state``."""
    dim = state.shape[0]
    dtype = state.dtype.type
    eye = np.eye(dim, dtype=dtype)
    cold = np.empty((7, dim, dim), dtype=dtype)
    cold[0] = eye / dim
    cold[1:] = eye / (2 * dim)

    sectors = _sectors(state)
    z = _start(start, cold)
    early_checks = () if z is cold else _WARM_CHECKS
    iterates = _iterates(state, sectors, z)
    for iterations, (xf, y, xg, z) in enumerate(iterates, 1):
        full = (not iterations % _BOUND_CHECK_EVERY
                or iterations >= MAX_ITERATIONS)
        if not (full or iterations in early_checks):
            continue
        bounds = _certified_bounds(
            state, sectors, sectors.expand(xf),
            lambda: sectors.expand(xg - y)[1:], eye,
            early=not full, sign_only=sign_only)
        if bounds is None:
            continue
        sign = _sign(bounds)
        converged = (bounds.upper - bounds.lower <= gap_tol
                     or sign_only and sign != SIGN_INDETERMINATE)
        if converged or iterations >= MAX_ITERATIONS:
            break
    return _result(bounds, iterations, converged, sign, sectors.expand(z))


def _result(bounds: _Bounds, iterations: int, converged: bool, sign: str,
            final_z: np.ndarray | None) -> WitnessResult:
    """The ``WitnessResult`` of ``bounds``, its certificates in
    complex128."""
    witness = decompositions = residuals = mixture = None
    if bounds.witness is not None:
        witness = bounds.witness.astype(np.complex128)
        p_blocks = bounds.p_blocks.astype(np.complex128)
        q_blocks = bounds.q_blocks.astype(np.complex128)
        decompositions = tuple(zip(p_blocks, q_blocks))
        residuals = _residuals(witness, p_blocks, q_blocks)
    if bounds.mixture is not None:
        mixture = tuple(bounds.mixture.astype(np.complex128))
    return WitnessResult(
        optimal_value=bounds.upper,
        witness=witness,
        decompositions=decompositions,
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        certified_sign=sign,
        lower_bound=bounds.lower,
        mixture=mixture,
        final_z=final_z,
    )


def witness_result_to_json_dict(result: WitnessResult) -> dict:
    """Complete JSON record of the witness program's solution; a side that
    a sign-only result leaves out is written as null."""
    has_witness = result.witness is not None
    has_mixture = result.mixture is not None
    return {
        "optimal_value": result.optimal_value if has_witness else None,
        "witness": _matrix_to_dict(result.witness) if has_witness else None,
        "decompositions": [
            {"P": _matrix_to_dict(p), "Q": _matrix_to_dict(q)}
            for p, q in result.decompositions
        ] if has_witness else None,
        "residuals": list(result.residuals) if has_witness else None,
        "iterations": result.iterations,
        "converged": result.converged,
        "certified_sign": result.certified_sign,
        "lower_bound": result.lower_bound if has_mixture else None,
        "mixture": ([_matrix_to_dict(y) for y in result.mixture]
                    if has_mixture else None),
    }
