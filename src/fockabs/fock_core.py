"""Sparse occupation-number algebra for identical bosons and fermions.

States live on discrete single-particle slots (mode index, spin label) and
are stored as sparse complex superpositions of occupation kets.  A ket is the
plain tuple of its (slot, count) pairs, sorted by slot with zero counts
absent; the vacuum ket is ``()``.  Conventions:

* canonical slot order is mode-major, then spin; fermionic signs count the
  occupied slots that precede the acted-on slot in that order,
* bosonic ladder factors are sqrt(n+1) / sqrt(n),
* amplitudes below ``PRUNE_THRESHOLD`` are dropped after every operation,
* the zero state (no terms) is distinct from the vacuum (one empty ket).

``ladder_sum`` is the one ladder primitive: it applies sum_s c_s a_s (or
sum_s c_s adag_s) in a single pass over the slots and the state's terms, with
no intermediate state per slot, and gives every amplitude bit for bit as the
weighted sum of single-slot results would (``tests/test_ladder_sum.py`` holds
that literal reference).  ``create`` and ``annihilate`` are its one-slot case.
Each (slot, ket) step is one scan of the ket, and its results are valid by
construction rather than re-checked: Pauli exclusion drops a raise onto an
occupied fermion slot, lowering never adds, and a bosonic raise past
``OCCUPATION_CAP`` is an error.  Each slot is checked once, where the pass
reaches it: its mode and spin must be nonnegative ints, and a bool is not
one.  The public ``FockState`` constructor still rejects a fermionic count
above 1.

Operators are time independent; energy bookkeeping happens in the modules
that know about mode energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

PRUNE_THRESHOLD = 1e-14
# largest bosonic occupation of one slot
OCCUPATION_CAP = 4


# defined in the base module so that field_ops and medium raise the same type
class ParameterError(ValueError):
    """A domain constructor's rejected argument, named in ``field`` by its config key."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


class SlotKey(NamedTuple):
    """Single-particle slot: a mode index paired with a spin label."""

    mode: int
    spin: int


Ket = tuple[tuple[SlotKey, int], ...]


@dataclass(frozen=True, eq=False)
class FockState:
    """Sparse superposition of occupation kets sharing one statistics kind.

    ``terms`` maps kets to complex amplitudes.  An empty map is the zero
    state.  Treat instances as immutable; operations return new states.
    """

    statistics: Statistics
    terms: dict[Ket, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.statistics is Statistics.FERMI:
            for ket in self.terms:
                for slot, n in ket:
                    if n > 1:
                        raise ValueError(
                            f"fermionic occupation {n} > 1 at slot {slot}"
                        )

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))


def _valid_state(statistics: Statistics, terms: dict[Ket, complex]) -> FockState:
    """A ``FockState`` of terms that are valid by construction, built without
    ``__post_init__``'s Fermi re-scan."""
    state = object.__new__(FockState)
    state.__dict__.update(statistics=statistics, terms=terms)
    return state


def vacuum(statistics: Statistics) -> FockState:
    """No-particle state (a single empty ket with amplitude 1)."""
    # every beam state starts here, and ladder_sum reads all but BOSE as Fermi
    if not isinstance(statistics, Statistics):
        raise ValueError(f"statistics must be a Statistics member, got {statistics!r}")
    return _valid_state(statistics, {(): 1.0 + 0.0j})


def ladder_sum(
    state: FockState,
    weighted_slots: Iterable[tuple[complex, SlotKey]],
    raising: bool,
) -> FockState:
    """Apply sum_s c_s adag_s (``raising``) or sum_s c_s a_s in one pass.

    The (c_s, slot) pairs act in the given order.  Bose: factor sqrt(n+1) up,
    sqrt(n) down, occupations above ``OCCUPATION_CAP`` rejected.  Fermi:
    creation on an occupied slot drops the term (Pauli exclusion); every term
    picks up (-1)**(occupation of the slots preceding the slot).  Each one-slot
    term is pruned as if alone and the weighted terms are summed slot by slot,
    so the result equals the pruned sum of the weighted one-slot results, bit
    for bit (the tests' ``superpose`` is that reference).
    """
    bose = state.statistics is Statistics.BOSE
    cap = OCCUPATION_CAP  # a local: the loop below reads it once per term
    terms = state.terms.items()
    step = 1 if raising else -1
    out: dict[Ket, complex] = {}
    for coeff, slot in weighted_slots:
        # bool is an int subclass, but not a mode index or spin label
        if type(slot.mode) is not int or type(slot.spin) is not int:
            raise ValueError(f"slot components must be integers, got {slot!r}")
        if slot.mode < 0 or slot.spin < 0:
            raise ValueError(f"slot indices must be nonnegative, got {slot!r}")
        for ket, amp in terms:
            # the slot's count n and its index i, where it is or would be inserted
            n = i = 0
            for s, c in ket:
                if s >= slot:
                    if s == slot:
                        n = c
                    break
                i += 1
            if raising and bose and n + 1 > cap:
                raise ValueError(f"occupation cap {cap} exceeded at slot {slot}")
            if (n == 1 and not bose) if raising else n == 0:
                continue  # Pauli exclusion, or nothing to lower
            if bose:
                term = amp * math.sqrt(n + 1 if raising else n)
            else:
                # Fermi counts are 1, so i is the occupation before the slot
                term = amp * (-1) ** i
            if abs(term) > PRUNE_THRESHOLD:
                head, rest = ket[:i], ket[i + 1 :] if n else ket[i:]
                n += step
                new_ket = head + ((slot, n),) + rest if n else head + rest
                out[new_ket] = out.get(new_ket, 0.0 + 0.0j) + coeff * term
    # pruned in place, so that the kets that remain keep their order
    for ket, amp in list(out.items()):
        if not abs(amp) > PRUNE_THRESHOLD:
            del out[ket]
    return _valid_state(state.statistics, out)


def create(state: FockState, slot: SlotKey) -> FockState:
    """Apply the creation operator for ``slot``: ``ladder_sum``'s one-slot case."""
    return ladder_sum(state, ((1.0, slot),), raising=True)


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
