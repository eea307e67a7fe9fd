"""Deterministic simulation of the crossed photonic distillation network.

Photons are tracked at the occupancy level: what decides an eight-fold
coincidence is which detection terminal each photon reaches, which is fixed
by its path and polarization alone (beam splitters transmit H and reflect
V).  Interference phases never change that bookkeeping, so pass/fail
verdicts are exact combinatorics.

Network model
-------------
Four Bell-pair sources feed two preparation interferometers and a crossed
distillation stage with detection terminals (t1, t2, a3, a4, b3, b4, c3,
c4).  Each source emits polarization-correlated pairs; the H and V branches
of a pair leave the preparation stage in different paths, which is the
"crossing" that filters double-pair emissions.  The per-branch path
assignments and the path-to-terminal routing used here are:

    source 1: H -> (t1, a1)   V -> (t1, c1)
    source 2: H -> (b1, c1)   V -> (b1, a1)
    source 3: H -> (a2, c2)   V -> (a2, b2)
    source 4: H -> (t2, b2)   V -> (t2, c2)

    a1: H -> a3, V -> a4      a2: H -> a4, V -> a3
    b1: H -> b4, V -> b3      b2: H -> b3, V -> b4
    c1: H -> c3, V -> c4      c2: H -> c4, V -> c3
    t1 -> t1, t2 -> t2 (heralds are detected directly)

This is the unique assignment consistent with every routing pattern of the
crossed network's double-pair analysis; the mirrored output labels of the
b-stage relative to the a/c stages are what make same-order double pairs
collide or miss a terminal.

Wave plates M2/M3 of the state-preparation schedule insert 45-degree
half-wave plates into the a respectively b photon paths, flipping the
polarization of whatever crosses them before the distillation stage.  A
component prepared with flipped paths on one copy can only produce an
eight-fold coincidence when the other copy is flipped identically (the
parity check rejects mismatched components), so a configuration here means
the same schedule row applied to both copies: M2 flips paths a1 and a2, M3
flips b1 and b2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .certify import fidelity_from_settings
from .states import (
    DEGENERATE_WEIGHT,
    DensityMatrix,
    _check_unit_interval,
    _is_integer,
    _state_entries,
    ghz3,
    make_ghz,
)

TERMINALS = ("t1", "t2", "a3", "a4", "b3", "b4", "c3", "c4")
POLARIZATIONS = ("H", "V")

SOURCE_BRANCH_MODES: dict[int, dict[str, tuple[str, str]]] = {
    1: {"H": ("t1", "a1"), "V": ("t1", "c1")},
    2: {"H": ("b1", "c1"), "V": ("b1", "a1")},
    3: {"H": ("a2", "c2"), "V": ("a2", "b2")},
    4: {"H": ("t2", "b2"), "V": ("t2", "c2")},
}

ROUTING: dict[tuple[str, str], str] = {
    ("t1", "H"): "t1", ("t1", "V"): "t1",
    ("t2", "H"): "t2", ("t2", "V"): "t2",
    ("a1", "H"): "a3", ("a1", "V"): "a4",
    ("a2", "H"): "a4", ("a2", "V"): "a3",
    ("b1", "H"): "b4", ("b1", "V"): "b3",
    ("b2", "H"): "b3", ("b2", "V"): "b4",
    ("c1", "H"): "c3", ("c1", "V"): "c4",
    ("c2", "H"): "c4", ("c2", "V"): "c3",
}

ORDER_IDEAL = "ideal"
ORDER_DOUBLE_PAIR = "double-pair"

Photon = tuple[str, str]
Pair = tuple[Photon, Photon]


@dataclass(frozen=True)
class HwpSettings:
    """Flip flags for the preparation wave plates, applied to both copies.

    M2 inserts half-wave plates into the a paths (a1, a2), M3 into the
    b paths (b1, b2).
    """

    m2: bool = False
    m3: bool = False

    def flipped_paths(self) -> frozenset[str]:
        paths = set()
        if self.m2:
            paths.update(("a1", "a2"))
        if self.m3:
            paths.update(("b1", "b2"))
        return frozenset(paths)

    def label(self) -> str:
        return f"M2={'in' if self.m2 else 'out'},M3={'in' if self.m3 else 'out'}"


@dataclass(frozen=True)
class EmissionEvent:
    """Photon pairs emitted by the four sources in one trial.

    ``pairs[k]`` lists the pairs of source k+1; each pair holds two
    (path, polarization) photons sharing the polarization branch of its
    source, so the path labels are fixed by the source and the branch.
    """

    pairs: tuple[tuple[Pair, ...], ...]
    order: str

    def __post_init__(self):
        if len(self.pairs) != 4:
            raise ValueError("an emission event covers exactly four sources")
        for source, source_pairs in enumerate(self.pairs, start=1):
            allowed = SOURCE_BRANCH_MODES[source]
            for pair in source_pairs:
                (m1, p1), (m2, p2) = pair
                if p1 != p2 or p1 not in POLARIZATIONS:
                    raise ValueError(
                        f"source {source} pair {pair} is not polarization-"
                        f"correlated")
                if (m1, m2) != allowed[p1]:
                    raise ValueError(
                        f"source {source} pair {pair} does not carry the "
                        f"source's {p1}-branch modes {allowed[p1]}")
        if self.order not in (ORDER_IDEAL, ORDER_DOUBLE_PAIR):
            raise ValueError(f"unknown order tag {self.order!r}")

    @property
    def photons(self) -> tuple[Photon, ...]:
        return tuple(photon for source_pairs in self.pairs
                     for pair in source_pairs for photon in pair)

    def source_description(self, source: int) -> str:
        source_pairs = self.pairs[source - 1]
        if not source_pairs:
            return "0"
        return " ".join(f"{pol}_{mode}" for pair in source_pairs
                        for mode, pol in pair)


@dataclass(frozen=True)
class DetectionPattern:
    """Photon count per terminal, ordered (t1, t2, a3, a4, b3, b4, c3, c4)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(TERMINALS):
            raise ValueError(f"expected {len(TERMINALS)} terminal counts")
        if any(c < 0 for c in self.counts):
            raise ValueError("terminal counts must be nonnegative")


def source_pair(source: int, branch: str) -> Pair:
    """The photon pair source ``source`` emits in polarization branch ``branch``."""
    modes = SOURCE_BRANCH_MODES[source][branch]
    return ((modes[0], branch), (modes[1], branch))


def emission_event(branches: tuple[tuple[str, ...], ...]) -> EmissionEvent:
    """Build an event from per-source branch choices, one entry per pair."""
    pairs = tuple(tuple(source_pair(s + 1, b) for b in source_branches)
                  for s, source_branches in enumerate(branches))
    counts = tuple(len(p) for p in pairs)
    order = ORDER_IDEAL if counts == (1, 1, 1, 1) else ORDER_DOUBLE_PAIR
    return EmissionEvent(pairs=pairs, order=order)


def route_photons(event: EmissionEvent,
                  hwp_settings: HwpSettings = HwpSettings()) -> DetectionPattern:
    """Route every photon of an event to its detection terminal."""
    flipped = hwp_settings.flipped_paths()
    counts = dict.fromkeys(TERMINALS, 0)
    for mode, pol in event.photons:
        if mode in flipped:
            pol = "V" if pol == "H" else "H"
        key = (mode, pol)
        if key not in ROUTING:
            raise ValueError(f"unknown mode label {mode!r}")
        counts[ROUTING[key]] += 1
    return DetectionPattern(tuple(counts[t] for t in TERMINALS))


def is_eightfold_coincidence(pattern: DetectionPattern) -> bool:
    """True iff exactly one photon arrived at each of the eight terminals."""
    return all(c == 1 for c in pattern.counts)


# ---------------------------------------------------------------------------
# exhaustive same-order enumeration

@dataclass(frozen=True)
class EnumeratedEvent:
    class_label: str
    order: str
    hwp: HwpSettings
    event: EmissionEvent
    pattern: DetectionPattern
    coincidence: bool


@dataclass(frozen=True)
class CoincidenceReport:
    """Every same-order emission event, routed under every wave-plate config."""

    rows: tuple[EnumeratedEvent, ...]

    def class_counts(self) -> dict[str, tuple[int, int]]:
        """Per class: (number of events, number passing the filter)."""
        summary: dict[str, list[int]] = {}
        for row in self.rows:
            entry = summary.setdefault(row.class_label, [0, 0])
            entry[0] += 1
            entry[1] += int(row.coincidence)
        return {k: (v[0], v[1]) for k, v in summary.items()}

    def false_accepts(self) -> int:
        return sum(1 for row in self.rows
                   if row.coincidence and row.order != ORDER_IDEAL)


def same_order_pair_counts() -> list[tuple[int, int, int, int]]:
    """All distributions of four pairs over four sources, at most two each."""
    return [c for c in product((0, 1, 2), repeat=4) if sum(c) == 4]


def _class_label(counts: tuple[int, int, int, int]) -> str:
    parts = []
    for source, n in enumerate(counts, start=1):
        if n == 0:
            parts.append("0")
        elif n == 1:
            parts.append(f"g{source}")
        else:
            parts.append(f"g{source}^2")
    return "-".join(parts)


def enumerate_same_order_events() -> CoincidenceReport:
    """Route every same-order emission class exhaustively.

    Covers all 19 distributions of four pairs over the four sources, every
    polarization-branch assignment of the emitted pairs, and all four
    wave-plate configurations of the preparation schedule.  Only ideal-class
    events can pass the eight-fold coincidence filter.
    """
    rows = []
    configs = [HwpSettings(m2, m3) for m2 in (False, True) for m3 in (False, True)]
    for counts in same_order_pair_counts():
        label = _class_label(counts)
        branch_spaces = [list(product(POLARIZATIONS, repeat=n)) for n in counts]
        for assignment in product(*branch_spaces):
            event = emission_event(tuple(assignment))
            for hwp in configs:
                pattern = route_photons(event, hwp)
                rows.append(EnumeratedEvent(
                    class_label=label,
                    order=event.order,
                    hwp=hwp,
                    event=event,
                    pattern=pattern,
                    coincidence=is_eightfold_coincidence(pattern),
                ))
    return CoincidenceReport(tuple(rows))


# ---------------------------------------------------------------------------
# preparation schedule

@dataclass(frozen=True)
class ScheduleRow:
    label: str
    m1: str
    m2: str
    m3: str
    probability: float
    state: DensityMatrix


@dataclass(frozen=True)
class PreparationSchedule:
    """Motor settings and mixing probabilities that prepare the noisy GHZ state.

    The herald of the pure-state row passes a polarizer, so that row is
    generated at half the rate of the mixed rows; ``effective_mixture``
    folds that acceptance factor in, which is exactly what the probability
    column is designed to compensate.
    """

    p: float
    rows: tuple[ScheduleRow, ...]

    def __post_init__(self):
        total = sum(r.probability for r in self.rows)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"schedule probabilities sum to {total!r}")

    def effective_mixture(self) -> DensityMatrix:
        """State actually generated: rows weighted by probability times
        herald acceptance (1/2 when the herald polarizer is in)."""
        weights = np.array([r.probability * (0.5 if r.m1 == "in" else 1.0)
                            for r in self.rows])
        weights = weights / weights.sum()
        mixture = sum(w * np.asarray(r.state.entries)
                      for w, r in zip(weights, self.rows))
        return DensityMatrix(3, mixture)


def _flip_pair_mixture(index: int) -> DensityMatrix:
    """Equal mixture of the two GHZ-type states with bit pattern ``index``."""
    plus = np.asarray(make_ghz(index, +1).projector().entries)
    minus = np.asarray(make_ghz(index, -1).projector().entries)
    return DensityMatrix(3, 0.5 * (plus + minus))


def preparation_schedule(p: float) -> PreparationSchedule:
    """Five-row motor schedule whose effective mixture is the noisy GHZ state."""
    _check_unit_interval(p=p)
    p_prime = 2.0 * p / (1.0 + p)
    mixed_prob = (1.0 - p_prime) / 4.0
    # M2 flips the a photon and M3 the b photon, so the single-flip rows are
    # the bit patterns 100 (component 3) and 010 (component 2), and flipping
    # both prepares the same mixture as flipping c alone (component 1).
    rows = (
        ScheduleRow("GHZ3", "in", "out", "out", p_prime, ghz3().projector()),
        ScheduleRow("rho_G0", "out", "out", "out", mixed_prob, _flip_pair_mixture(0)),
        ScheduleRow("rho_G1", "out", "in", "in", mixed_prob, _flip_pair_mixture(1)),
        ScheduleRow("rho_G2", "out", "out", "in", mixed_prob, _flip_pair_mixture(2)),
        ScheduleRow("rho_G3", "out", "in", "out", mixed_prob, _flip_pair_mixture(3)),
    )
    return PreparationSchedule(p=p, rows=rows)


# ---------------------------------------------------------------------------
# finite-shot Born sampling

_BASIS_ROTATIONS = {
    "z": np.eye(2, dtype=np.complex128),
    "x": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0),
    "y": np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / np.sqrt(2.0),
}
# (-1)^(number of ones) of each three-qubit outcome, in outcome order: the
# value of the full product observable on that outcome.
_PARITIES_3 = np.array([1, -1, -1, 1, -1, 1, 1, -1])


@functools.lru_cache(maxsize=64)  # every setting of up to three qubits
def _setting_rotation(key: str) -> np.ndarray:
    """Read-only product rotation of a lower-case setting; row i of it maps
    a state onto outcome i."""
    u = np.array([[1.0]], dtype=np.complex128)
    for ch in key:
        u = np.kron(u, _BASIS_ROTATIONS[ch])
    u.setflags(write=False)
    return u


def _sampling_state(rho, n_qubits: int | None = None) -> tuple[np.ndarray, int]:
    """Entries and qubit count of a state of nonzero trace."""
    m, n = _state_entries(rho, n_qubits)
    trace = float(np.trace(m).real)
    if trace < DEGENERATE_WEIGHT:
        raise ValueError(
            f"state trace {trace:.3e} below {DEGENERATE_WEIGHT:.1e}; "
            f"there is nothing to sample")
    return m, n


def _check_shots_and_seed(shots, seed) -> None:
    for name, value in (("shots", shots), ("seed", seed)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 < shots <= np.iinfo(np.int64).max:  # the sampler's range
        raise ValueError(
            f"shots must be positive and fit in int64, got {shots}")
    if seed < 0:  # Philox takes non-negative seeds only
        raise ValueError(f"seed must be non-negative, got {seed}")


def _born_counts(m: np.ndarray, key: str, shots: int, seed: int) -> np.ndarray:
    """Outcome counts (int64, in outcome order) of a checked setting."""
    u = _setting_rotation(key)
    probs = np.real(np.einsum("ij,jk,ik->i", u, m, u.conj()))
    probs = np.maximum(probs, 0.0)
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.multinomial(shots, probs)


def sample_counts(rho, setting: str, shots: int, seed: int) -> dict[str, int]:
    """Sample measurement outcomes of a product Pauli setting.

    ``setting`` is a string of one character in {x, y, z} per qubit, in
    either case.  Outcome strings are bit strings, ``0`` marking the +1
    eigenvalue of that qubit's observable.

    ``rho`` is a ``DensityMatrix`` or an array that is a state of nonzero
    trace (the outcome probabilities are normalised); a non-state raises
    ``StateValidationError``.  ``shots`` (positive, at most the int64
    maximum) and ``seed`` (non-negative) must be ``int`` or NumPy
    integers, not ``bool``.  Any other bad argument raises ``ValueError``
    naming it.

    Each setting's rotation is built once and cached.  Sampling uses the
    counter-based Philox generator, so a fixed (setting, shots, seed)
    triple reproduces the histogram bit for bit on any platform.
    """
    m, n = _sampling_state(rho)
    if not isinstance(setting, str):
        raise ValueError(f"setting must be a string, got {setting!r}")
    key = setting.lower()
    if len(key) != n or any(ch not in _BASIS_ROTATIONS for ch in key):
        raise ValueError(
            f"invalid setting {setting!r} for {n} qubits; use characters x/y/z")
    _check_shots_and_seed(shots, seed)
    counts = _born_counts(m, key, shots, seed)
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts)}


def sampled_ghz_fidelity(rho, shots: int, seed: int) -> tuple[float, float]:
    """Estimate the GHZ fidelity from finite-shot Pauli measurements.

    The three equatorial settings of the fidelity decomposition are linear
    combinations of the eight {x, y} product settings, so those eight plus
    the populations setting are sampled (each with its own derived seed)
    and recombined.  ``rho`` is a three-qubit state; it, ``shots`` and
    ``seed`` are checked once, by the rules of :func:`sample_counts`.  The
    population and the parities are read straight from the count arrays,
    and each setting's rotation comes from the same cache.  Returns the
    estimate and its propagated one-sigma statistical error.
    """
    m, _ = _sampling_state(rho, 3)
    _check_shots_and_seed(shots, seed)
    # Python ints: each count / shots then rounds as int / int does, and the
    # derived seeds seed + offset cannot overflow a NumPy seed's dtype.
    shots, seed = int(shots), int(seed)
    counts = _born_counts(m, "zzz", shots, seed)
    population = int(counts[0] + counts[7]) / shots
    var_f = 0.25 * population * (1.0 - population) / shots

    pauli_settings = ["".join(t) for t in product("xy", repeat=3)]
    estimates = [
        int(_PARITIES_3 @ _born_counts(m, pauli, shots, seed + offset)) / shots
        for offset, pauli in enumerate(pauli_settings, start=1)]

    # coefficients[k, s] is the product over the parties of cos(k pi/3) for
    # x and sin(k pi/3) for y in setting s, so m_k = sum_s coefficients[k, s]
    # T_s.  F couples to T_s through the net weight sum_k (-1)^k
    # coefficients[k, s]; variance adds over the independent settings.  Both
    # sums run in setting order, so a seeded estimate repeats to the bit.
    angles = np.arange(3) * np.pi / 3.0
    factors = {"x": np.cos(angles), "y": np.sin(angles)}
    coefficients = np.array([factors[a] * factors[b] * factors[c]
                             for a, b, c in pauli_settings]).T
    m_values = {f"m{k}": sum(row * estimates)
                for k, row in enumerate(coefficients)}
    weights = coefficients[0] - coefficients[1] + coefficients[2]
    for weight, estimate in zip(weights, estimates):
        var_f += (weight / 6.0) ** 2 * ((1.0 - estimate ** 2) / shots)

    settings = {"population": population, **m_values}
    return fidelity_from_settings(settings, "ghz3"), float(np.sqrt(var_f))
