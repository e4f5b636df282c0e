"""The one-pass ladder sum against literal single-slot operators, bit for bit.

The reference operators below act on one slot at a time, written out in
full: look the slot up, apply the ladder factor or sign, rebuild the ket
from a counts dict, prune.  Every comparison is ``==`` on amplitudes (and on
the order of the kets), never a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fockabs import (
    FockState,
    ModeBasis,
    SlotKey,
    Statistics,
    Wavepacket,
    annihilate,
    apply_packet_creation,
    create,
    field_annihilate,
    inner_product,
    lowest_mode_numbers,
    mode_wavefunction,
    second_order_amplitude,
    two_particle_state,
    vacuum,
)
from fockabs.fock_core import OCCUPATION_CAP, PRUNE_THRESHOLD, ladder_sum
from fockabs.verify import _random_basis, _random_model, _random_packet
from helpers import ket, superpose

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI

# kets live on modes 0-3 and spins 0-1; the operators also reach modes 4-5
# and spin 2, which no ket occupies
KET_SLOTS = [SlotKey(m, s) for m in range(4) for s in range(2)]
OPERATOR_SLOTS = KET_SLOTS + [SlotKey(4, 0), SlotKey(5, 1), SlotKey(1, 2)]

# magnitudes on both sides of the prune threshold, also after a factor
# sqrt(2) or sqrt(3), plus ordinary ones
NEAR_THRESHOLD = [
    PRUNE_THRESHOLD * f for f in (0.5, 0.99, 1.0, 1.01, 0.70, 0.71, 0.577, 0.578, 2.0)
]


def literal_op(state, slot, raising):
    """One ladder operator on one slot, term by term."""
    out = {}
    for old, amp in state.terms.items():
        counts = dict(old)
        n = counts.get(slot, 0)
        before = sum(c for s, c in old if s < slot)
        if raising:
            if state.statistics is BOSE:
                if n + 1 > OCCUPATION_CAP:
                    raise ValueError(f"occupation cap {OCCUPATION_CAP} exceeded at slot {slot}")
                new_amp = amp * math.sqrt(n + 1)
            else:
                if n == 1:
                    continue
                new_amp = amp * (-1) ** before
        else:
            if n == 0:
                continue
            if state.statistics is BOSE:
                new_amp = amp * math.sqrt(n)
            else:
                new_amp = amp * (-1) ** before
        counts[slot] = n + 1 if raising else n - 1
        new_ket = ket(counts)
        out[new_ket] = out.get(new_ket, 0.0 + 0.0j) + new_amp
    return FockState(
        state.statistics, {k: a for k, a in out.items() if abs(a) > PRUNE_THRESHOLD}
    )


def outcome(fn, *args):
    """The result of ``fn``, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("error", str(exc))


def assert_same_state(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.statistics is want.statistics
    assert got.terms == want.terms
    # insertion order decides the order of every later sum
    assert list(got.terms) == list(want.terms)


amplitudes = st.builds(
    lambda mag, phase: complex(mag * math.cos(phase), mag * math.sin(phase)),
    st.one_of(st.sampled_from(NEAR_THRESHOLD), st.floats(0.05, 2.0)),
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, 0.3, 2.1]),
)


@st.composite
def states(draw, statistics):
    # bosonic occupations reach the cap, so that a creation can exceed it
    top = OCCUPATION_CAP if statistics is BOSE else 1
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        counts = draw(
            st.dictionaries(st.sampled_from(KET_SLOTS), st.integers(1, top), max_size=3)
        )
        terms[ket(counts)] = draw(amplitudes)
    return FockState(statistics, terms)


weighted_slots = st.lists(st.tuples(amplitudes, st.sampled_from(OPERATOR_SLOTS)), max_size=5)


@st.composite
def ladder_cases(draw):
    statistics = draw(st.sampled_from([BOSE, FERMI]))
    state = draw(states(statistics))
    return state, draw(weighted_slots), draw(st.booleans())


# a raising sum over several slots, one of them a full Bose slot of a ket that
# shares the state with another: the draws above seldom reach that slot
_FULL_SLOT_CASE = (
    FockState(BOSE, {
        ket({SlotKey(0, 0): 1, SlotKey(2, 1): 2}): 0.6 + 0.0j,
        ket({SlotKey(1, 0): OCCUPATION_CAP}): 0.0 + 0.8j,
    }),
    [(0.5 + 0.25j, SlotKey(0, 0)), (2.0 + 0.0j, SlotKey(1, 0)), (1.0 + 0.0j, SlotKey(3, 1))],
    True,
)


# a 3-slot ket and a 1-slot one, acted on at every position of the one-pass
# step: before, on and between the occupied slots (0, 1), (2, 0), (3, 0),
# and after them
_THREE_SLOTS = (SlotKey(0, 1), SlotKey(2, 0), SlotKey(3, 0))
_EVERY_POSITION = [
    (complex(0.5 + k, 0.25 * k), slot)
    for k, slot in enumerate([
        SlotKey(0, 0), SlotKey(0, 1), SlotKey(1, 0), SlotKey(2, 0),
        SlotKey(2, 1), SlotKey(3, 0), SlotKey(3, 1), SlotKey(4, 0),
    ])
]


def _position_case(statistics, raising):
    # Bose counts 1, 2 and cap - 1: lowering empties one slot and keeps the
    # others, raising fills the last one to the cap
    counts = (1, 1, 1) if statistics is FERMI else (1, 2, OCCUPATION_CAP - 1)
    three = ket(dict(zip(_THREE_SLOTS, counts)))
    one = ket({SlotKey(2, 0): 1})
    state = FockState(statistics, {three: 0.6 + 0.0j, one: 0.0 + 0.8j})
    return state, _EVERY_POSITION, raising


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=ladder_cases())
@example(case=_FULL_SLOT_CASE)
@example(case=_position_case(BOSE, True))
@example(case=_position_case(BOSE, False))
@example(case=_position_case(FERMI, True))
@example(case=_position_case(FERMI, False))
def test_ladder_sum_equals_superposed_single_slots(case):
    state, pairs, raising = case
    got = outcome(ladder_sum, state, pairs, raising)

    def superposed(single):
        if not pairs:
            return FockState(state.statistics, {})
        return superpose([(c, single(slot)) for c, slot in pairs])

    # the literal reference, and the package's own one-slot operators
    assert_same_state(got, outcome(superposed, lambda s: literal_op(state, s, raising)))
    if raising:
        own = outcome(superposed, lambda s: create(state, s))
    else:
        own = outcome(superposed, lambda s: annihilate(state, s))
    assert_same_state(got, own)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    statistics=st.sampled_from([BOSE, FERMI]),
    data=st.data(),
    slot=st.sampled_from(OPERATOR_SLOTS),
)
def test_one_slot_operators_equal_the_literal_ones(statistics, data, slot):
    state = data.draw(states(statistics))
    assert_same_state(outcome(create, state, slot), outcome(literal_op, state, slot, True))
    assert_same_state(outcome(annihilate, state, slot), outcome(literal_op, state, slot, False))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=ladder_cases(), more=st.lists(st.tuples(weighted_slots, st.booleans()), max_size=2))
def test_ladder_sum_builds_canonical_states(case, more):
    # the kernel skips FockState's re-check: every state it returns, and every
    # state built from those, must pass it and the other invariants anyway
    state, pairs, raising = case
    for pairs, raising in [(pairs, raising), *more]:
        got = outcome(ladder_sum, state, pairs, raising)
        if isinstance(got, tuple):
            return
        assert got.statistics is state.statistics
        top = 1 if got.statistics is FERMI else OCCUPATION_CAP
        for k, amp in got.terms.items():
            assert type(k) is tuple
            assert k == ket(dict(k))
            assert all(1 <= n <= top for _, n in k)
            assert abs(amp) > PRUNE_THRESHOLD
        state = got


def test_the_full_slot_case_reaches_the_cap_error():
    state, pairs, raising = _FULL_SLOT_CASE
    message = f"occupation cap {OCCUPATION_CAP} exceeded at slot {SlotKey(1, 0)}"
    assert outcome(ladder_sum, state, pairs, raising) == ("error", message)


def test_cap_error_is_the_same():
    full = ket({SlotKey(1, 0): OCCUPATION_CAP})
    state = FockState(BOSE, {full: 1.0 + 0.0j})
    pairs = [(0.5 + 0.0j, SlotKey(0, 0)), (2.0 + 0.0j, SlotKey(1, 0))]
    with pytest.raises(ValueError) as got:
        ladder_sum(state, pairs, raising=True)
    with pytest.raises(ValueError) as want:
        literal_op(state, SlotKey(1, 0), True)
    message = f"occupation cap {OCCUPATION_CAP} exceeded at slot {SlotKey(1, 0)}"
    assert str(got.value) == str(want.value) == message


def test_terms_are_pruned_before_they_are_weighted():
    one = ket({SlotKey(0, 0): 1})
    for statistics in (BOSE, FERMI):
        # a term of exactly the threshold is dropped by the one-slot operator,
        # so a weight of 2 applied after it must not bring it back
        at = FockState(statistics, {one: complex(PRUNE_THRESHOLD, 0.0)})
        assert ladder_sum(at, [(2.0, SlotKey(0, 0))], raising=False).is_zero()
        above = FockState(statistics, {one: complex(1.01 * PRUNE_THRESHOLD, 0.0)})
        lowered = ladder_sum(above, [(0.5, SlotKey(1, 0)), (2.0, SlotKey(0, 0))], raising=False)
        assert not lowered.is_zero()
        assert_same_state(lowered, superpose([(2.0, literal_op(above, SlotKey(0, 0), False))]))


def test_slots_no_ket_occupies_leave_the_zero_state():
    state = create(vacuum(FERMI), SlotKey(0, 0))
    lowered = ladder_sum(state, [(1.0, SlotKey(3, 0)), (2.0, SlotKey(0, 1))], raising=False)
    assert lowered.is_zero() and lowered.statistics is FERMI
    assert ladder_sum(state, [], raising=True).is_zero()


# --------------------------------------------------------------------------
# the oracle's occupied-slot enumeration against an all-modes enumeration
# --------------------------------------------------------------------------


def all_modes_field_annihilate(state, basis, q, spin):
    return superpose(
        (mode_wavefunction(basis, i, q), annihilate(state, SlotKey(i, spin)))
        for i in range(basis.n_modes)
    )


def all_modes_packet_creation(state, packet):
    parts = [
        (amp, create(state, SlotKey(i, packet.spin)))
        for i, amp in enumerate(packet.amplitudes)
        if abs(amp) != 0.0
    ]
    return superpose(parts) if parts else FockState(state.statistics, {})


def test_packet_creation_skips_zero_amplitudes():
    # a zero-amplitude mode must not put a ket into the result early: here
    # mode 0 would place |0,2> ahead of |1,2>, changing the order of later sums
    basis = ModeBasis([2 * math.pi], lowest_mode_numbers(3), spins=(0,))
    packet = Wavepacket(basis, (0.0, 0.0, 1.0), 0)
    one = {m: ket({SlotKey(m, 0): 1}) for m in range(3)}
    for statistics in (BOSE, FERMI):
        state = FockState(statistics, {one[1]: 0.6 + 0.0j, one[0]: 0.0 + 0.8j, one[2]: 0.1})
        created = apply_packet_creation(state, packet)
        assert_same_state(created, all_modes_packet_creation(state, packet))


def all_modes_second_order(particle, basis, q, model, detector_spin, denominator=None):
    """Every ket, every mode of the basis, every channel; the literal loop."""
    vac = vacuum(particle.statistics)
    total = 0.0 + 0.0j
    for ket, amp in particle.terms.items():
        single = FockState(particle.statistics, {ket: amp})
        for i in range(basis.n_modes):
            lowered = annihilate(single, SlotKey(i, detector_spin))
            for inter_ket, inter_amp in lowered.terms.items():
                first_factor = mode_wavefunction(basis, i, q) * inter_amp
                inter = FockState(particle.statistics, {inter_ket: 1.0 + 0.0j})
                second = all_modes_field_annihilate(inter, basis, q, detector_spin)
                overlap = inner_product(vac, second)
                if overlap == 0.0:
                    continue
                for ch in model.channels:
                    if denominator is None:
                        denom = basis.kinetic_energies[i] - ch.energy
                    else:
                        denom = denominator(basis.kinetic_energies[i], ch)
                    total += ch.element_out * ch.element_in * overlap * first_factor / denom
    return model.coupling**2 * total


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    statistics=st.sampled_from([BOSE, FERMI]),
    sharp=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    spins=st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    unit_denominator=st.booleans(),
)
def test_second_order_equals_all_modes_enumeration(
    seed, statistics, sharp, spins, unit_denominator
):
    rng = np.random.default_rng(seed)
    basis = _random_basis(rng)
    model = _random_model(rng, basis)
    spin_a, spin_b, detector = (basis.spins[s % len(basis.spins)] for s in spins)
    packet_a = _random_packet(rng, basis, sharp[0], spin_a)
    packet_b = _random_packet(rng, basis, sharp[1], spin_b)
    # a third particle: a sharp packet skips its zero amplitudes
    packet_c = _random_packet(rng, basis, sharp[2], detector)
    q = basis.position([float(rng.uniform(0.0, L)) for L in basis.box_lengths])
    pair = two_particle_state(packet_a, packet_b, statistics)
    literal_pair = all_modes_packet_creation(
        all_modes_packet_creation(vacuum(statistics), packet_b), packet_a
    )
    assert_same_state(pair, literal_pair)
    assert_same_state(
        field_annihilate(pair, basis, q, detector),
        all_modes_field_annihilate(pair, basis, q, detector),
    )
    assert_same_state(
        apply_packet_creation(pair, packet_c), all_modes_packet_creation(pair, packet_c)
    )
    if pair.is_zero():
        return
    denominator = (lambda energy, ch: 1.0) if unit_denominator else None
    got = second_order_amplitude(pair, basis, q, model, detector, denominator)
    assert got == all_modes_second_order(pair, basis, q, model, detector, denominator)
