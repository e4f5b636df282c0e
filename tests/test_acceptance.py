"""Acceptance gate: one test per required behavior, one printed line each.

Run with `pytest -v tests/test_acceptance.py` to see a pass/fail line per
criterion; the prints add the measured numbers under -s or on failure.
"""

import math
import time

import numpy as np
import pytest

from fockabs import (
    AbsorptionInput,
    IndistinguishableFermionsError,
    MediumChannel,
    MediumModel,
    ModeBasis,
    SlotKey,
    Statistics,
    Wavepacket,
    efficiency_factor,
    lowest_mode_numbers,
    proportionality_exponent,
    rate_first_order,
    rate_second_order,
    second_order_amplitude,
    single_absorption_vacuum_overlap,
    two_particle_state,
    log_log_slope,
    FockState,
)
from helpers import check_commutation, ket, overlap, position_amplitude, superpose, uniform_grid

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI
TWO_PI = 2 * math.pi


def _random_probe(rng, statistics, slots):
    parts = []
    for _ in range(3):
        counts = {}
        for slot in slots:
            top = 1 if statistics is FERMI else 2
            n = int(rng.integers(0, top + 1))
            if n:
                counts[slot] = n
        parts.append(
            (
                complex(rng.normal(), rng.normal()),
                FockState(statistics, {ket(counts): 1.0 + 0.0j}),
            )
        )
    state = superpose(parts)
    if state.norm() < 1e-9:
        return _random_probe(rng, statistics, slots)
    return state


def test_criterion_1_commutation_delta():
    """Ladder commutation equals the Kronecker delta on every slot pair."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    slots = [SlotKey(m, sp) for m in range(4) for sp in range(2)]
    worst = 0.0
    for stats in (BOSE, FERMI):
        for sa in slots:
            for sb in slots:
                want = 1.0 if sa == sb else 0.0
                for _ in range(20):
                    probe = _random_probe(rng, stats, slots)
                    got = check_commutation(sa, sb, stats, probe)
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: commutation delta on 8x8 slot pairs, both "
        f"statistics, 20 probes each; worst deviation {worst:.2e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_2_born_distribution():
    """First-order rate integrates to the efficiency factor; plane wave is flat 1.0."""
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(1.3 - 0.4j, (), first_order_element=0.8 + 0.1j)
    beta = efficiency_factor(model, basis)
    rng = np.random.default_rng(102)
    positions, weight = uniform_grid(basis, 16)
    worst = 0.0
    for _ in range(10):
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw /= np.linalg.norm(raw)
        pkt = Wavepacket(basis, tuple(raw), 0)
        total = sum(
            rate_first_order(pkt, 0, q, model) for q in positions
        ) * weight
        worst = max(worst, abs(total - beta) / beta)
        assert abs(total - beta) / beta < 1e-8

    unit_basis = ModeBasis([TWO_PI], lowest_mode_numbers(1), spins=(0,))
    unit_model = MediumModel(1.0, (), first_order_element=1.0)
    plane = Wavepacket(unit_basis, (1.0,), 0)
    for k in range(25):
        q = unit_basis.position((TWO_PI * k / 25,))
        assert abs(rate_first_order(plane, 0, q, unit_model) - 1.0) < 1e-12
    print(
        f"criterion 2 PASS: Born quadrature matches efficiency over 10 "
        f"packets (worst rel {worst:.2e}); unit plane-wave rate is 1.0 "
        f"everywhere"
    )


def test_criterion_3_first_order_oracle_equivalence(harness_run):
    """Closed first-order rate equals the enumerated amplitude squared."""
    records, (_, _, _, worst, _), _ = harness_run
    count = sum(r.order == 1 for r in records)
    assert count >= 100
    assert not [r for r in records if r.status == "fail" and r.order == 1]
    assert worst < 1e-12
    print(
        f"criterion 3 PASS: first-order oracle equivalence over {count} "
        f"sharp+spread trials, max rel error {worst:.2e}"
    )


def test_criterion_4_second_order_oracle_equivalence(harness_run):
    """Closed second-order rate equals the enumerated amplitude squared."""
    records, (_, _, _, _, worst), elapsed = harness_run
    sharp = [r for r in records if r.order == 2 and r.packet_kind == "sharp"]
    count = len(sharp)
    bose = sum(r.statistics is BOSE for r in sharp)
    fermi = sum(r.statistics is FERMI for r in sharp)
    assert count >= 100
    assert bose >= 40 and fermi >= 40
    assert not [r for r in records if r.status == "fail" and r.order == 2]
    assert worst < 1e-10
    assert elapsed < 30.0
    print(
        f"criterion 4 PASS: second-order oracle equivalence over {count} "
        f"sharp trials ({bose} boson, {fermi} fermion), max rel error "
        f"{worst:.2e}, harness time {elapsed:.2f}s"
    )


def test_criterion_5_orthogonal_packets_product_law():
    """Orthogonal-packet rate divided by the density product is position-free."""
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(
        0.9 + 0.3j,
        (
            MediumChannel("ch0", 1.1 - 0.2j, 0.7 + 0.5j, 2.3),
            MediumChannel("ch1", 0.4 + 0.9j, 1.2 - 0.1j, -0.8),
        ),
    )
    rng = np.random.default_rng(105)
    spreads = []
    for stats in (BOSE, FERMI):
        raw_f = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw_f /= np.linalg.norm(raw_f)
        raw_g = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw_g -= raw_f * np.vdot(raw_f, raw_g)
        raw_g /= np.linalg.norm(raw_g)
        f = Wavepacket(basis, tuple(raw_f), 0)
        g = Wavepacket(basis, tuple(raw_g), 0)
        assert abs(overlap(f, g)) < 1e-12
        inp = AbsorptionInput((f, g), 0, stats)
        ratios = []
        k = 0
        while len(ratios) < 10:
            q = basis.position((TWO_PI * (k + 0.29) / 14,))
            k += 1
            dens = (
                abs(position_amplitude(f, q)) ** 2
                * abs(position_amplitude(g, q)) ** 2
            )
            if dens < 1e-12:
                continue
            ratios.append(rate_second_order(inp, q, model) / dens)
        spread = (max(ratios) - min(ratios)) / max(ratios)
        spreads.append(spread)
        assert spread < 1e-10
    print(
        f"criterion 5 PASS: rate/(density product) constant over 10 "
        f"positions; spreads {spreads[0]:.2e} (bosons), {spreads[1]:.2e} "
        f"(fermions)"
    )


def test_criterion_6_density_exponents():
    """Same-state bosons scale with the 4th power of |psi|, first order with the 2nd."""
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(
        1.0,
        (MediumChannel("c", 1.0, 1.0, 3.0),),
    )
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    qs = [basis.position((x,)) for x in (0.2, 0.5, 0.8, 1.1, 1.35, 2.1, 2.6, 2.9)]
    second = proportionality_exponent(inp, model, qs)
    assert abs(second - 2.0) < 1e-6

    rates = [rate_first_order(pkt, 0, q, model) for q in qs]
    dens = [abs(position_amplitude(pkt, q)) ** 2 for q in qs]
    first = log_log_slope(dens, rates)
    assert abs(first - 1.0) < 1e-6
    print(
        f"criterion 6 PASS: fitted exponents {second:.9f} (two-particle, "
        f"want 2) and {first:.9f} (one-particle, want 1)"
    )


def test_criterion_7_fermion_cancellation():
    """Nearly identical fermions are not absorbed in pairs; identical ones are rejected."""
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(
        1.0,
        (
            MediumChannel("ch0", 1.0, 1.0, 2.3),
            MediumChannel("ch1", 0.5, 1.5, -0.8),
        ),
    )
    eps = 1e-8
    # partner component lives in the degenerate mode, so the pair carries a
    # single kinetic energy and the antisymmetric amplitude cancels exactly
    f = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    mix = math.sqrt(2 * eps - eps * eps)
    g = Wavepacket(basis, (0.0, 1.0 - eps, mix), 0)
    assert abs(overlap(f, g) - (1.0 - eps)) < 1e-16

    q = basis.position((0.9,))
    fermi_rate = rate_second_order(
        AbsorptionInput((f, g), 0, FERMI), q, model
    )
    bose_rate = rate_second_order(
        AbsorptionInput((f, g), 0, BOSE), q, model
    )
    assert bose_rate > 0.0
    assert fermi_rate < 1e-12 * bose_rate

    # the brute-force amplitudes agree with the suppression
    prefactor = 2 * math.pi / basis.hbar**2
    fermi_oracle = prefactor * abs(
        second_order_amplitude(
            two_particle_state(f, g, FERMI), basis, q, model, 0
        )
    ) ** 2
    assert fermi_oracle < 1e-12 * bose_rate

    with pytest.raises(IndistinguishableFermionsError):
        AbsorptionInput((f, f), 0, FERMI)
    print(
        f"criterion 7 PASS: at overlap 1-1e-8 the fermion rate is "
        f"{fermi_rate:.3e} vs boson {bose_rate:.3e} (ratio "
        f"{fermi_rate / bose_rate:.2e} < 1e-12); exact duplicates rejected"
    )


def test_criterion_8_single_interaction_two_absorption_is_zero():
    """One interaction cannot absorb two particles: the element is exactly 0."""
    rng = np.random.default_rng(108)
    checked = 0
    for trial in range(20):
        n_modes = int(rng.integers(2, 5))
        numbers = rng.choice(np.arange(-3, 4), size=n_modes, replace=False)
        basis = ModeBasis(
            [float(rng.uniform(4.0, 8.0))], [[int(n)] for n in numbers]
        )
        stats = BOSE if trial % 2 == 0 else FERMI
        raw_a = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        raw_a /= np.linalg.norm(raw_a)
        raw_b = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        raw_b /= np.linalg.norm(raw_b)
        a = Wavepacket(basis, tuple(raw_a), 0)
        b = Wavepacket(basis, tuple(raw_b), 0)
        pair = two_particle_state(a, b, stats)
        if pair.is_zero():
            continue
        q = basis.position((float(rng.uniform(0.0, basis.box_lengths[0])),))
        value = single_absorption_vacuum_overlap(pair, basis, q, 0)
        assert value == 0.0
        checked += 1
    assert checked >= 18
    print(
        f"criterion 8 PASS: single-interaction two-absorption element is "
        f"exactly 0 in all {checked} random configurations"
    )
