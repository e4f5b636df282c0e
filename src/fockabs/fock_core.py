"""Sparse occupation-number algebra for identical bosons and fermions.

States live on discrete single-particle slots (mode index, spin label) and
are stored as sparse complex superpositions of occupation kets.  Conventions:

* canonical slot order is mode-major, then spin; fermionic signs count the
  occupied slots that precede the acted-on slot in that order,
* bosonic ladder factors are sqrt(n+1) / sqrt(n),
* amplitudes below ``PRUNE_THRESHOLD`` are dropped after every operation,
* the zero state (no terms) is distinct from the vacuum (one empty ket).

``ladder_sum`` is the one ladder primitive: it applies sum_s c_s a_s (or
sum_s c_s adag_s) in a single pass over the slots and the state's terms, with
no intermediate state per slot, and gives every amplitude bit for bit as a
``superpose`` of single-slot results would.  ``create`` and ``annihilate``
are its one-slot case.

Operators are time independent; energy bookkeeping happens in the modules
that know about mode energies.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

PRUNE_THRESHOLD = 1e-14
DEFAULT_OCCUPATION_CAP = 4


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


class SlotKey(NamedTuple):
    """Single-particle slot: a mode index paired with a spin label."""

    mode: int
    spin: int


def _validate_slot(slot: SlotKey) -> SlotKey:
    # bool is an int subclass, but not a mode index or spin label
    if type(slot.mode) is not int or type(slot.spin) is not int:
        raise ValueError(f"slot components must be integers, got {slot!r}")
    if slot.mode < 0 or slot.spin < 0:
        raise ValueError(f"slot indices must be nonnegative, got {slot!r}")
    return slot


@dataclass(frozen=True)
class OccupationKet:
    """One basis ket: sorted tuple of (slot, count) pairs, zero counts absent."""

    occupations: tuple[tuple[SlotKey, int], ...]
    # hashed once: every operation looks kets up in dicts
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.occupations))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_counts(counts: dict[SlotKey, int]) -> "OccupationKet":
        items = tuple(sorted((s, n) for s, n in counts.items() if n != 0))
        for slot, n in items:
            if n < 0:
                raise ValueError(f"negative occupation {n} at slot {slot}")
        return OccupationKet(items)

    def occupation(self, slot: SlotKey) -> int:
        for s, n in self.occupations:
            if s == slot:
                return n
        return 0

    def total(self) -> int:
        return sum(n for _, n in self.occupations)

    def with_delta(self, slot: SlotKey, delta: int) -> "OccupationKet":
        occ = self.occupations
        i = bisect_left(occ, (slot,))
        present = i < len(occ) and occ[i][0] == slot
        n = (occ[i][1] if present else 0) + delta
        if n < 0:
            raise ValueError(f"negative occupation {n} at slot {slot}")
        return OccupationKet(occ[:i] + (((slot, n),) if n else ()) + occ[i + present :])


EMPTY_KET = OccupationKet(())


@dataclass(frozen=True, eq=False)
class FockState:
    """Sparse superposition of occupation kets sharing one statistics kind.

    ``terms`` maps kets to complex amplitudes.  An empty map is the zero
    state.  Treat instances as immutable; operations return new states.
    """

    statistics: Statistics
    terms: dict[OccupationKet, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.statistics is Statistics.FERMI:
            for ket in self.terms:
                for slot, n in ket.occupations:
                    if n > 1:
                        raise ValueError(
                            f"fermionic occupation {n} > 1 at slot {slot}"
                        )

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))


def vacuum(statistics: Statistics) -> FockState:
    """No-particle state (a single empty ket with amplitude 1)."""
    return FockState(statistics, {EMPTY_KET: 1.0 + 0.0j})


def zero_state(statistics: Statistics) -> FockState:
    """The zero vector: no terms at all."""
    return FockState(statistics, {})


def _pruned(terms: dict[OccupationKet, complex]) -> dict[OccupationKet, complex]:
    return {k: a for k, a in terms.items() if abs(a) > PRUNE_THRESHOLD}


def ladder_sum(
    state: FockState,
    weighted_slots: Iterable[tuple[complex, SlotKey]],
    raising: bool,
    cap: int = DEFAULT_OCCUPATION_CAP,
) -> FockState:
    """Apply sum_s c_s adag_s (``raising``) or sum_s c_s a_s in one pass.

    The (c_s, slot) pairs act in the given order.  Bose: factor sqrt(n+1) up,
    sqrt(n) down, occupations above ``cap`` rejected.  Fermi: creation on an
    occupied slot drops the term (Pauli exclusion); every term picks up
    (-1)**(occupation of the slots preceding the slot).  Each one-slot term is
    pruned as if alone and the weighted terms are summed slot by slot, so the
    result equals ``superpose`` of the one-slot results, bit for bit.
    """
    bose = state.statistics is Statistics.BOSE
    terms = state.terms.items()
    step = 1 if raising else -1
    out: dict[OccupationKet, complex] = {}
    for coeff, slot in weighted_slots:
        slot = _validate_slot(slot)
        for ket, amp in terms:
            n = ket.occupation(slot)
            if raising and bose and n + 1 > cap:
                raise ValueError(f"occupation cap {cap} exceeded at slot {slot}")
            if (n == 1 and not bose) if raising else n == 0:
                continue  # Pauli exclusion, or nothing to lower
            if bose:
                term = amp * math.sqrt(n + 1 if raising else n)
            else:
                term = amp * (-1) ** sum(c for s, c in ket.occupations if s < slot)
            if abs(term) > PRUNE_THRESHOLD:
                new_ket = ket.with_delta(slot, step)
                out[new_ket] = out.get(new_ket, 0.0 + 0.0j) + coeff * term
    return FockState(state.statistics, _pruned(out))


def create(state: FockState, slot: SlotKey, cap: int = DEFAULT_OCCUPATION_CAP) -> FockState:
    """Apply the creation operator for ``slot``: ``ladder_sum``'s one-slot case."""
    return ladder_sum(state, ((1.0, slot),), raising=True, cap=cap)


def annihilate(state: FockState, slot: SlotKey) -> FockState:
    """Apply the annihilation operator for ``slot`` (adjoint of ``create``)."""
    return ladder_sum(state, ((1.0, slot),), raising=False)


def inner_product(bra: FockState, ket: FockState) -> complex:
    """<bra|ket>, conjugate linear in the bra.  Statistics must match."""
    if bra.statistics is not ket.statistics:
        raise ValueError(
            f"statistics mismatch: {bra.statistics} vs {ket.statistics}"
        )
    total = 0.0 + 0.0j
    for k, amp in ket.terms.items():
        bra_amp = bra.terms.get(k)
        if bra_amp is not None:
            total += bra_amp.conjugate() * amp
    return total


def superpose(parts: Iterable[tuple[complex, FockState]]) -> FockState:
    """Linear combination sum_i c_i |state_i>, pruned.

    Empty input is not allowed because the statistics kind would be unknown.
    """
    out: dict[OccupationKet, complex] = {}
    statistics: Statistics | None = None
    for coeff, state in parts:
        if statistics is None:
            statistics = state.statistics
        elif statistics is not state.statistics:
            raise ValueError("cannot superpose states of different statistics")
        for ket, amp in state.terms.items():
            out[ket] = out.get(ket, 0.0 + 0.0j) + coeff * amp
    if statistics is None:
        raise ValueError("superpose needs at least one state")
    return FockState(statistics, _pruned(out))


def check_commutation(
    slot_a: SlotKey,
    slot_b: SlotKey,
    statistics: Statistics,
    probe: FockState,
) -> complex:
    """Expectation of the ladder bracket on a normalized probe state.

    Returns <p|(a_a adag_b - adag_b a_a)|p> / <p|p> for bosons and the
    anticommutator analogue for fermions.  Either way the result must equal
    the Kronecker delta of the two slots.
    """
    if probe.statistics is not statistics:
        raise ValueError("probe statistics does not match requested statistics")
    norm_sq = inner_product(probe, probe).real
    if norm_sq == 0.0:
        raise ValueError("zero-norm probe")
    first = annihilate(create(probe, slot_b), slot_a)
    second = create(annihilate(probe, slot_a), slot_b)
    ip_first = inner_product(probe, first)
    ip_second = inner_product(probe, second)
    if statistics is Statistics.BOSE:
        bracket = ip_first - ip_second
    else:
        bracket = ip_first + ip_second
    return bracket / norm_sq
