"""Threshold discovery by ITP steps and bisection.

Each certifiable property of the noisy GHZ / noisy W family is reduced to a
margin function of the noise parameter p that is negative where the
property is absent and positive where it is present.  One table,
``_PROPERTIES``, maps each property to its default range of p
(``DEFAULT_RANGES`` is read from it), to the state it is evaluated on,
built from p by ``noisy_ghz``, ``analytic_distilled_noisy_ghz``,
``noisy_w`` or the CNOT-distilled noisy W state, and to one of four
margins, each with the signature ``(label, p, rho, start) -> (value,
start)``:

- the concurrence margin (GME, GME-after-distill): the largest unclipped
  inner argument of the X-shape concurrence;
- the sign-only SLE search (SLE, SLE-after-distill): the negated
  certifying minimum eigenvalue after partial transposition;
- the sign-only PPT mixer (W-GME, W-GME-after-distill): the negated value
  of a PPT-mixer witness whose sign is certified;
- the W-SLE branch (W-SLE): the negated minimum eigenvalue after partial
  transposition of the pair left by projecting qubit 2 onto |0>, one 4x4
  eigensolve of the value ``certify.sle_quantifier_at`` returns at theta =
  0; that projection is the optimal localization for the noisy W state.

``start`` is where a PPT-mixer solve starts, and what it hands back for
later ones; the margins that solve none hand it back unchanged.
``default_tolerance`` reads the margin from the same table: 1e-3 for the
PPT mixer, 1e-6 for the others.

A search on the sign of the margin then brackets the crossing.  Each step
evaluates the margin at one point strictly inside the bracket and keeps the
part whose ends' margins differ in sign, so every bracket, the last one
too, has at each end a sign the margin returned: a self-evident correctness
certificate.  The two PPT-mixer margins step to the midpoint (bisection).
The other five take ITP steps (interpolate, truncate, project: Oliveira &
Takahashi, ACM Trans. Math. Softw. 47(1), 2020): the regula falsi point of
the bracket's ends, moved towards the midpoint by kappa1 w^kappa2 for a
bracket of width w (kappa1 = 0.2 over the first bracket's width, kappa2 =
2), then projected so that the search takes at most n0 = 1 step more than
bisection would.  A step that would not land strictly inside the bracket
takes the midpoint.  At the default 1e-6 each of the five takes 8
evaluations, against bisection's 19 or 20; at 1e-8, 9 (25 or 26); at 1e-9,
9 or 10 (29 or 30).  ``default_tolerance``'s test, whether the margin is
the PPT mixer's, picks the step too.  A sign-only PPT-mixer solve returns a
bound that certifies its sign, not the margin's value, which steers the
interpolation poorly: ITP took W-GME from 9 evaluations to 11.

The two PPT-mixer margins (W-GME and W-GME-after-distill) solve the
program in sign-only mode, at the solver's fixed settings: each
solve stops as soon as a feasible witness (an upper bound) or a PPT mixture
(a lower bound) puts the optimum clear of the certification margin
``sdp.CERTIFICATION_MARGIN`` = 1e-5, and returns that one certificate.  The
margin is minus its bound: minus the witness's value for a negative sign,
a positive margin, and minus the mixture's lower bound for a nonnegative
one.  Its sign is the certified one, so bisection narrows a bracket only
on certified signs, and every evaluated point carries the certificate of
its sign.  When a solve cannot certify its sign, because the optimum at
that p lies within the margin of zero, it holds both bounds and the margin
raises ``ValueError`` naming p and the certified interval [lower, upper];
the search is refused rather than continued on an uncertified sign.  The
default 1e-3 tolerance stops bisecting well before that happens.

Bisection points differ only in p, so every PPT-mixer solve of one margin
function starts from the final splitting variables of the points it has
already evaluated (see "Douglas-Rachford iteration" in ``sdp.py``): their
linear interpolation in p between the nearest evaluated points below and
above, or the nearest point when only one side has been evaluated.  A
bisection midpoint so starts from the mean of its bracket ends'.  The
first solve starts cold, and so does every new ``find_threshold`` call.
A solve that takes a start checks its bounds at its first iterates too
(see "Certified bounds" in ``sdp.py``).  A start changes only when a solve
stops, not the sign it certifies, so every bracket is the one that cold
starts give.  At the default ranges and tolerances the 18 PPT-mixer solves
of the two SDP-backed properties take 107 iterations, at most 20 per solve
and 8 of them 1, against 450 and 70 from cold starts.

The two SLE-search margins (SLE and SLE-after-distill) run sign-only SLE
searches, a branch and bound over bands of the measured qubit's Bloch
sphere (see "Certified signs" in ``certify.py``).  A search stops at the
first projection direction whose minimum eigenvalue after partial
transposition lies below -1e-12: that projection leaves an entangled pair,
which puts the optimum below zero too.  Or it stops once bounds on every
band lie above 1e-12, which puts every projection, and so the optimum,
above zero, and returns its lowest evaluated value.  Only a search that
settles neither within 512 evaluated points runs the default search to its
optimum (see ``certify.sle_quantify``).  At the 16 points of the two
default searches every search settles on bands: 8 negative margins and 8
nonnegative ones, each with a certificate.  The signs, and so every
bracket, are those of the default searches.  A margin value is therefore a
certifying value, not always the optimum; ITP interpolates between such
values, and the values that a no-sign-change error prints are those
certifying values.  The 8 negative signs settle in the first round, on the
eight bands every search starts from, whose hull points' coefficients are
built once per process; the other rounds build theirs in a few vector
operations, with the same arithmetic, so every sign and certificate is the
same bit for bit.

The states the margins read are built from p without re-validation where
they are states by construction: the noisy families and the closed-form
distilled GHZ state (see "Validation" in ``states.py``).  Of the 58
evaluations of the seven default searches, only the nine of
W-GME-after-distill validate a state, the output of ``distill_cnot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import gme_concurrence_arguments, sle_quantify
from .distill import analytic_distilled_noisy_ghz, distill_cnot
from .sdp import (
    CERTIFICATION_MARGIN,
    SIGN_INDETERMINATE,
    SIGN_NEGATIVE,
    ppt_mixer_witness,
)
from .states import DensityMatrix, _checked, _eigvalsh, noisy_ghz, noisy_w

PROPERTY_GME = "GME"
PROPERTY_SLE = "SLE"
PROPERTY_GME_AFTER = "GME-after-distill"
PROPERTY_SLE_AFTER = "SLE-after-distill"
PROPERTY_W_GME = "W-GME"
PROPERTY_W_GME_AFTER = "W-GME-after-distill"
PROPERTY_W_SLE = "W-SLE"

CLOSED_FORM_TOL = 1e-6
SDP_BACKED_TOL = 1e-3
# ITP's parameters (see the module docstring): kappa1 over the first
# bracket's width, kappa2 and n0.
ITP_KAPPA1 = 0.2
ITP_KAPPA2 = 2.0
ITP_N0 = 1


@dataclass(frozen=True)
class ThresholdReport:
    """Bracketed sign change of a property's certifying margin."""

    property_name: str
    crossing_p: float
    bracket_width: float
    evaluations: int


def _concurrence(label: str, p: float, rho, start):
    return float(gme_concurrence_arguments(rho).max()), start


def _sle_search(label: str, p: float, rho, start):
    return -sle_quantify(rho, sign_only=True).min_eigenvalue, start


def _ppt_mixer(label: str, p: float, rho, start):
    result = ppt_mixer_witness(rho, sign_only=True, start=start)
    if result.certified_sign == SIGN_INDETERMINATE:
        raise ValueError(
            f"{label}: the PPT-mixer sign at p={p!r} is not certified: the "
            f"optimum lies in [{result.lower_bound:.6e}, "
            f"{result.optimal_value:.6e}], which does not clear the margin "
            f"{CERTIFICATION_MARGIN:g}; use a larger tolerance")
    if result.certified_sign == SIGN_NEGATIVE:
        return -result.optimal_value, result.final_z
    return -result.lower_bound, result.final_z


def _w_sle(label: str, p: float, rho, start):
    # Projecting qubit 2 onto |0> is the optimal localization for the noisy
    # W state (a test checks it against the full search).  The pair left is
    # <0|rho|0> over qubit 2 over its trace, and its partial transpose over
    # qubit 1 is the one ``certify.sle_quantifier_at(rho, None, 0, 0)``
    # solves.
    pair = rho.entries.reshape((2,) * 6)[:, :, 0, :, :, 0]
    pair_pt = pair.transpose(0, 3, 2, 1).reshape(4, 4)
    lowest = _eigvalsh(pair_pt / pair_pt.trace().real)[0]
    return -float(lowest), start


def _cnot_distilled_w(p: float) -> DensityMatrix:
    rho = noisy_w(p)
    return distill_cnot(rho, rho).state


# Property -> (default range of p, state builder of p, margin).
_PROPERTIES: dict[str, tuple[tuple[float, float], Callable, Callable]] = {
    PROPERTY_GME: ((0.3, 0.6), noisy_ghz, _concurrence),
    PROPERTY_SLE: ((0.2, 0.5), noisy_ghz, _sle_search),
    PROPERTY_GME_AFTER: ((0.2, 0.4), analytic_distilled_noisy_ghz,
                         _concurrence),
    PROPERTY_SLE_AFTER: ((0.2, 0.35), analytic_distilled_noisy_ghz,
                         _sle_search),
    PROPERTY_W_GME: ((0.4, 0.6), noisy_w, _ppt_mixer),
    PROPERTY_W_GME_AFTER: ((0.45, 0.6), _cnot_distilled_w, _ppt_mixer),
    PROPERTY_W_SLE: ((0.15, 0.45), noisy_w, _w_sle),
}
DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    name: entry[0] for name, entry in _PROPERTIES.items()}


def _property(name: str) -> tuple[tuple[float, float], Callable, Callable]:
    if name not in _PROPERTIES:
        raise ValueError(f"unknown property {name!r}")
    return _PROPERTIES[name]


def _interpolated(starts: dict, p: float) -> np.ndarray | None:
    """Start at p, linear in p between the nearest evaluated points below
    and above it, the nearest one if only one side has been evaluated, and
    None (cold) if neither."""
    below = max((q for q in starts if q <= p), default=None)
    above = min((q for q in starts if q >= p), default=None)
    if below is None or above is None or below == above:
        return starts.get(above if below is None else below)
    weight = (p - below) / (above - below)
    return (1.0 - weight) * starts[below] + weight * starts[above]


def certifying_margin(property_name: str) -> Callable[[float], float]:
    """Margin function of p: positive iff the property is present.

    The margins that solve the PPT-mixer program (W-GME and
    W-GME-after-distill) keep the final splitting variable of each solve,
    keyed by p, and start each new solve from their linear interpolation
    between the nearest evaluated points below and above it, from the
    nearest point when only one side has been evaluated, or cold on the
    first (see the module docstring); each call returns a new function.
    A NaN margin, the mark of a failed LAPACK call, raises
    ``np.linalg.LinAlgError`` (see "LAPACK entry" in ``states``).
    """
    _, build, evaluate = _property(property_name)
    starts = {}

    def margin(p: float) -> float:
        value, start = evaluate(property_name, p, build(p),
                                _interpolated(starts, p))
        if start is not None:
            starts[p] = start
        return _checked(value)

    return margin


def default_tolerance(property_name: str) -> float:
    _, _, evaluate = _property(property_name)
    return SDP_BACKED_TOL if evaluate is _ppt_mixer else CLOSED_FORM_TOL


def _itp_point(lo: float, hi: float, m_lo: float, m_hi: float,
               truncation: float, widest: float) -> float:
    """ITP's next point in the bracket (lo, hi), whose ends' margins are
    ``m_lo`` and ``m_hi``: the regula falsi point, moved ``truncation``
    towards the midpoint, then projected onto the points that leave a
    bracket at most ``widest`` wide.  The midpoint where that point is not
    strictly inside (lo, hi) or, by rounding, leaves a wider bracket."""
    mid = 0.5 * (lo + hi)
    radius = widest - (hi - lo) / 2.0
    falsi = lo + (hi - lo) * m_lo / (m_lo - m_hi)
    towards = math.copysign(1.0, mid - falsi)
    step = falsi + towards * truncation
    if truncation > abs(mid - falsi):
        step = mid
    if abs(step - mid) > radius:
        step = mid - towards * radius
    if lo < step < hi and max(step - lo, hi - step) <= widest:
        return step
    return mid


def find_threshold(property_name: str,
                   p_range: tuple[float, float] | None = None,
                   tolerance: float | None = None) -> ThresholdReport:
    """Narrow the certifying margin of a property to a sign-change bracket.

    ``tolerance``, positive and finite, bounds the half-width of the final
    bracket; it defaults to 1e-6 for closed-form margins and 1e-3 for
    SDP-backed ones.  A tolerance the bracket cannot reach, because its
    ends become adjacent floats first, raises ``ValueError``.  The
    SDP-backed margins are bisected; the others take ITP steps (see the
    module docstring).
    """
    default_range, _, evaluate = _property(property_name)
    lo, hi = p_range if p_range is not None else default_range
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid range ({lo}, {hi})")
    tol = tolerance if tolerance is not None else default_tolerance(property_name)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    margin = certifying_margin(property_name)

    m_lo, m_hi = margin(lo), margin(hi)
    evaluations = 2
    if m_lo == 0.0 or m_hi == 0.0 or (m_lo > 0.0) == (m_hi > 0.0):
        raise ValueError(
            f"{property_name}: margin does not change sign on [{lo}, {hi}] "
            f"(values {m_lo:.3e}, {m_hi:.3e})")
    itp = evaluate is not _ppt_mixer
    kappa1 = ITP_KAPPA1 / (hi - lo)
    # Bisection's step count, plus n0: ITP takes at most this many steps.
    steps = max(0, math.ceil(math.log2(hi - lo) - math.log2(tol) - 1.0))
    steps += ITP_N0
    # ITP's bounds aim one ulp inside tol, so that rounding the bracket's
    # ends cannot leave the last step's bracket a hair wider than 2 tol and
    # cost a step more.
    target = tol - math.ulp(hi)
    while (hi - lo) / 2.0 > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            raise ValueError(f"{property_name}: tolerance {tol:g} is below "
                             f"the float resolution at p = {mid!r}")
        p = mid
        if itp:
            # The bracket this step leaves is at most target * 2**steps
            # wide, a bound that halves with each step to 2 * target.
            p = _itp_point(lo, hi, m_lo, m_hi,
                           kappa1 * (hi - lo) ** ITP_KAPPA2,
                           math.ldexp(target, steps))
            steps -= 1
        m_p = margin(p)
        evaluations += 1
        if m_p == 0.0:
            # Exact zero: shrink symmetrically around it.
            half = min(p - lo, hi - p, tol)
            return ThresholdReport(property_name, p, half, evaluations)
        if (m_p > 0.0) == (m_hi > 0.0):
            hi, m_hi = p, m_p
        else:
            lo, m_lo = p, m_p
    return ThresholdReport(
        property_name=property_name,
        crossing_p=0.5 * (lo + hi),
        bracket_width=0.5 * (hi - lo),
        evaluations=evaluations,
    )


def fidelity_curves(p_values) -> np.ndarray:
    """Columns (p, F_initial, F1, F2) of the distillation fidelity curves.

    F_initial is the GHZ fidelity of the noisy GHZ state, F1 of its
    distilled output, and F2 the EPR fidelity after distilling and then
    localizing with an X measurement.
    """
    p = np.asarray(p_values, dtype=float).reshape(-1)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both comparisons
        raise ValueError("p values must lie in [0, 1]")
    denom = 3.0 * p * p + 1.0
    f_initial = (1.0 + 7.0 * p) / 8.0
    f1 = (25.0 * p * p + 6.0 * p + 1.0) / (8.0 * denom)
    f2 = (13.0 * p * p + 2.0 * p + 1.0) / (4.0 * denom)
    return np.column_stack([p, f_initial, f1, f2])

