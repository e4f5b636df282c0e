"""Ladder-operator algebra on sparse occupation states."""

import math
import re

import numpy as np
import pytest

from fockabs import (
    FockState,
    SlotKey,
    Statistics,
    annihilate,
    create,
    inner_product,
    vacuum,
)
from fockabs.fock_core import OCCUPATION_CAP, ladder_sum
from helpers import check_commutation, ket, superpose

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def states_close(a: FockState, b: FockState, tol: float = 1e-12) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol for k in keys)


def random_state(rng, statistics, slots, n_terms=3):
    parts = []
    for _ in range(n_terms):
        counts = {}
        for slot in slots:
            top = 1 if statistics is FERMI else 2
            n = int(rng.integers(0, top + 1))
            if n:
                counts[slot] = n
        amp = complex(rng.normal(), rng.normal())
        parts.append((amp, FockState(statistics, {ket(counts): 1.0 + 0.0j})))
    state = superpose(parts)
    assert state.norm() > 1e-9
    return state


def test_vacuum_is_single_empty_ket():
    for stats in (BOSE, FERMI):
        vac = vacuum(stats)
        assert list(vac.terms) == [()]
        assert vac.terms[()] == 1.0 + 0.0j
        assert inner_product(vac, vac) == 1.0 + 0.0j


def test_zero_state_is_distinct_from_vacuum():
    z = FockState(BOSE, {})
    assert z.is_zero()
    assert not vacuum(BOSE).is_zero()
    assert inner_product(z, vacuum(BOSE)) == 0.0


def test_create_on_vacuum():
    s = SlotKey(1, 0)
    for stats in (BOSE, FERMI):
        one = create(vacuum(stats), s)
        assert states_close(one, FockState(stats, {ket({s: 1}): 1.0 + 0.0j}))


def test_bose_double_create_sqrt2():
    s = SlotKey(0, 0)
    two = create(create(vacuum(BOSE), s), s)
    assert abs(two.terms[ket({s: 2})] - math.sqrt(2)) < 1e-15


def test_fermi_double_create_is_zero():
    s = SlotKey(0, 0)
    assert create(create(vacuum(FERMI), s), s).is_zero()


def test_pauli_exclusion_on_random_states():
    rng = np.random.default_rng(11)
    slots = [SlotKey(m, sp) for m in range(2) for sp in range(2)]
    for _ in range(25):
        state = random_state(rng, FERMI, slots)
        for slot in slots:
            assert create(create(state, slot), slot).is_zero()


SLOT_ENTRY_POINTS = {
    "create": create,
    "annihilate": annihilate,
    "ladder_sum-raising": lambda state, slot: ladder_sum(state, [(1.0, slot)], raising=True),
    "ladder_sum-lowering": lambda state, slot: ladder_sum(state, [(1.0, slot)], raising=False),
    # the bad slot is checked even when it follows a good one
    "ladder_sum-second": lambda state, slot: ladder_sum(
        state, [(1.0, SlotKey(0, 0)), (2.0, slot)], raising=False
    ),
}


@pytest.mark.parametrize("entry", SLOT_ENTRY_POINTS)
@pytest.mark.parametrize(
    "slot, message",
    [
        pytest.param(SlotKey(-1, 0), "slot indices must be nonnegative", id="negative-mode"),
        pytest.param(SlotKey(0, -1), "slot indices must be nonnegative", id="negative-spin"),
        pytest.param(SlotKey(-2, -3), "slot indices must be nonnegative", id="both-negative"),
        pytest.param(SlotKey(1.0, 0), "slot components must be integers", id="float-mode"),
        pytest.param(SlotKey(0, 0.0), "slot components must be integers", id="float-spin"),
        pytest.param(SlotKey(-1.0, 0), "slot components must be integers", id="negative-float"),
        pytest.param(SlotKey(False, 0), "slot components must be integers", id="bool-mode"),
    ],
)
def test_every_entry_point_validates_slots(entry, slot, message):
    apply = SLOT_ENTRY_POINTS[entry]
    for statistics in (BOSE, FERMI):
        # the check does not depend on the state: the zero state has no ket to act on
        one = create(vacuum(statistics), SlotKey(0, 0))
        for state in (FockState(statistics), vacuum(statistics), one):
            with pytest.raises(ValueError, match=re.escape(f"{message}, got {slot!r}")):
                apply(state, slot)


def test_annihilate_vacuum_gives_zero_state():
    for stats in (BOSE, FERMI):
        assert annihilate(vacuum(stats), SlotKey(0, 1)).is_zero()


def test_annihilate_inverts_create_on_vacuum():
    s = SlotKey(2, 1)
    for stats in (BOSE, FERMI):
        back = annihilate(create(vacuum(stats), s), s)
        assert states_close(back, vacuum(stats))


def test_fermi_sign_worked_example():
    # canonical order puts s1 before s2; a a+ contraction forces the signs
    s1, s2 = SlotKey(0, 0), SlotKey(1, 0)
    stacked = create(create(vacuum(FERMI), s1), s2)

    drop_s2 = annihilate(stacked, s2)
    assert states_close(drop_s2, FockState(FERMI, {ket({s1: 1}): 1.0 + 0.0j}))

    drop_s1 = annihilate(stacked, s1)
    assert states_close(drop_s1, FockState(FERMI, {ket({s2: 1}): -1.0 + 0.0j}))


def test_bose_ladder_factors_track_occupation():
    s = SlotKey(0, 0)
    state = vacuum(BOSE)
    for n in range(1, 4):
        state = create(state, s)
        expected = math.sqrt(math.factorial(n))
        assert abs(state.terms[ket({s: n})] - expected) < 1e-12


def test_occupation_cap_enforced():
    s = SlotKey(0, 0)
    state = vacuum(BOSE)
    for _ in range(OCCUPATION_CAP):
        state = create(state, s)
    with pytest.raises(ValueError, match=f"occupation cap {OCCUPATION_CAP} exceeded"):
        create(state, s)


def test_adjointness_of_create_and_annihilate():
    rng = np.random.default_rng(5)
    slots = [SlotKey(m, sp) for m in range(2) for sp in range(2)]
    for stats in (BOSE, FERMI):
        for _ in range(20):
            x = random_state(rng, stats, slots)
            y = random_state(rng, stats, slots)
            for slot in slots:
                lhs = inner_product(create(x, slot), y)
                rhs = inner_product(x, annihilate(y, slot))
                assert abs(lhs - rhs) < 1e-12


def test_operators_are_linear():
    rng = np.random.default_rng(9)
    slots = [SlotKey(m, 0) for m in range(3)]
    slot = SlotKey(1, 0)
    for stats in (BOSE, FERMI):
        x1 = random_state(rng, stats, slots)
        x2 = random_state(rng, stats, slots)
        c1 = complex(rng.normal(), rng.normal())
        c2 = complex(rng.normal(), rng.normal())
        mixed = superpose([(c1, x1), (c2, x2)])
        for op in (create, annihilate):
            direct = op(mixed, slot)
            split = superpose([(c1, op(x1, slot)), (c2, op(x2, slot))])
            assert states_close(direct, split)


def test_inner_product_orthogonal_kets():
    a = create(vacuum(BOSE), SlotKey(0, 0))
    b = create(vacuum(BOSE), SlotKey(1, 0))
    assert inner_product(a, b) == 0.0


def test_inner_product_conjugates_bra():
    x = create(vacuum(BOSE), SlotKey(0, 0))
    scaled = superpose([(2.0 + 1.0j, x)])
    assert abs(inner_product(scaled, x) - (2.0 - 1.0j)) < 1e-15
    assert abs(inner_product(x, scaled) - (2.0 + 1.0j)) < 1e-15


def test_inner_product_rejects_mixed_statistics():
    with pytest.raises(ValueError):
        inner_product(vacuum(BOSE), vacuum(FERMI))


def test_delta_contraction_through_vacuum():
    s = SlotKey(3, 1)
    assert inner_product(vacuum(BOSE), annihilate(create(vacuum(BOSE), s), s)) == 1.0


def test_superpose_requires_consistent_statistics():
    with pytest.raises(ValueError):
        superpose([(1.0, vacuum(BOSE)), (1.0, vacuum(FERMI))])
    with pytest.raises(ValueError):
        superpose([])


def test_superpose_prunes_dust():
    x = create(vacuum(BOSE), SlotKey(0, 0))
    tiny = superpose([(1e-15, x)])
    assert tiny.is_zero()


def test_fermi_state_rejects_double_occupation():
    with pytest.raises(ValueError):
        FockState(FERMI, {ket({SlotKey(0, 0): 2}): 1.0 + 0.0j})


def test_commutation_trivial_cases():
    assert check_commutation(SlotKey(0, 0), SlotKey(0, 0), BOSE, vacuum(BOSE)) == 1.0
    assert (
        check_commutation(SlotKey(0, 0), SlotKey(1, 1), BOSE, vacuum(BOSE)) == 0.0
    )
    probe = create(vacuum(FERMI), SlotKey(1, 0))
    assert check_commutation(SlotKey(0, 0), SlotKey(0, 0), FERMI, probe) == 1.0


def test_commutation_rejects_zero_probe():
    with pytest.raises(ValueError):
        check_commutation(SlotKey(0, 0), SlotKey(0, 0), BOSE, FockState(BOSE, {}))


def test_commutation_delta_small_basis():
    rng = np.random.default_rng(3)
    slots = [SlotKey(m, sp) for m in range(2) for sp in range(2)]
    for stats in (BOSE, FERMI):
        for sa in slots:
            for sb in slots:
                for _ in range(5):
                    probe = random_state(rng, stats, slots)
                    got = check_commutation(sa, sb, stats, probe)
                    want = 1.0 if sa == sb else 0.0
                    assert abs(got - want) < 1e-12
