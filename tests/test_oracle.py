"""Brute-force enumeration oracle and the randomized verification harness."""

import math

import numpy as np
import pytest

from fockabs import (
    AbsorptionInput,
    MediumChannel,
    MediumModel,
    ModeBasis,
    ResonanceError,
    Statistics,
    Wavepacket,
    field_annihilate,
    first_order_amplitude,
    inner_product,
    lowest_mode_numbers,
    packet_state,
    rate_first_order,
    rate_second_order,
    record_blocks,
    second_order_amplitude,
    single_absorption_vacuum_overlap,
    two_particle_state,
    vacuum,
)
from fockabs.perturbation import evaluate_rates
from fockabs.verify import TOLERANCE, _compare, _oracle, summary_line, tally
from helpers import verify_records

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI
TWO_PI = 2 * math.pi
RATE_PREFACTOR = 2 * math.pi  # 2*pi/hbar^2 at hbar = 1


def cos_basis(spins=(0, 1)):
    return ModeBasis([TWO_PI], lowest_mode_numbers(3), spins=spins)


def safe_model():
    return MediumModel(
        coupling=0.9 + 0.3j,
        channels=(
            MediumChannel("ch0", 1.1 - 0.2j, 0.7 + 0.5j, 2.3),
            MediumChannel("ch1", 0.4 + 0.9j, 1.2 - 0.1j, -0.8),
        ),
    )


def random_packet(rng, basis, spin=0):
    raw = rng.normal(size=basis.n_modes) + 1j * rng.normal(size=basis.n_modes)
    raw /= np.linalg.norm(raw)
    return Wavepacket(basis, tuple(raw), spin)


def test_first_order_amplitude_matches_closed_form():
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(0)
    for stats in (BOSE, FERMI):
        for _ in range(25):
            pkt = random_packet(rng, basis)
            initial = packet_state(pkt, stats)
            q = basis.position((float(rng.uniform(0, TWO_PI)),))
            amp = first_order_amplitude(initial, basis, q, model, 0)
            closed = rate_first_order(pkt, 0, q, model)
            oracle = RATE_PREFACTOR * abs(amp) ** 2
            assert abs(closed - oracle) <= 1e-12 * max(oracle, 1e-300)


def test_first_order_amplitude_spin_delta():
    basis = cos_basis()
    model = safe_model()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    initial = packet_state(pkt, BOSE)
    q = basis.position((0.4,))
    assert first_order_amplitude(initial, basis, q, model, 1) == 0.0


def test_first_order_amplitude_on_vacuum_is_zero():
    basis = cos_basis()
    model = safe_model()
    initial = vacuum(BOSE)
    q = basis.position((0.4,))
    assert first_order_amplitude(initial, basis, q, model, 0) == 0.0


def test_single_interaction_cannot_absorb_two():
    basis = cos_basis()
    rng = np.random.default_rng(1)
    for stats in (BOSE, FERMI):
        for _ in range(10):
            a = random_packet(rng, basis, 0)
            b = random_packet(rng, basis, 0)
            pair = two_particle_state(a, b, stats)
            if pair.is_zero():
                continue
            q = basis.position((float(rng.uniform(0, TWO_PI)),))
            assert single_absorption_vacuum_overlap(pair, basis, q, 0) == 0.0


def test_second_order_amplitude_requires_two_particles():
    basis = cos_basis()
    model = safe_model()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    initial = packet_state(pkt, BOSE)
    with pytest.raises(ValueError):
        second_order_amplitude(initial, basis, basis.position((0.0,)), model, 0)


def test_second_order_amplitude_requires_channels():
    basis = cos_basis()
    model = MediumModel(1.0, (), first_order_element=1.0)
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    pair = two_particle_state(pkt, pkt, BOSE)
    with pytest.raises(ValueError):
        second_order_amplitude(pair, basis, basis.position((0.0,)), model, 0)


def test_second_order_amplitude_fermi_zero_pair():
    basis = cos_basis()
    model = safe_model()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    pair = two_particle_state(pkt, pkt, FERMI)
    assert pair.is_zero()
    amp = second_order_amplitude(pair, basis, basis.position((0.3,)), model, 0)
    assert amp == 0.0


def test_second_order_resonance_detected():
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("res", 1.0, 1.0, 0.5),))
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    pair = two_particle_state(pkt, pkt, BOSE)
    with pytest.raises(ResonanceError):
        second_order_amplitude(pair, basis, basis.position((0.3,)), model, 0)


def test_same_state_boson_unit_constant():
    # the closed form's 2/pi benchmark, reproduced by raw enumeration
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(1), spins=(0,))
    model = MediumModel(1.0, (MediumChannel("c", 1.0, 1.0, 1.0),))
    pkt = Wavepacket(basis, (1.0,), 0)
    pair = two_particle_state(pkt, pkt, BOSE)
    q = basis.position((0.7,))
    rate = RATE_PREFACTOR * abs(second_order_amplitude(pair, basis, q, model, 0)) ** 2
    assert abs(rate - 2 / math.pi) < 1e-10


def test_sharp_packet_agreement_both_statistics():
    basis = cos_basis()
    model = safe_model()
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    rng = np.random.default_rng(2)
    for stats in (BOSE, FERMI):
        inp = AbsorptionInput((a, b), 0, stats)
        pair = two_particle_state(a, b, stats)
        for _ in range(5):
            q = basis.position((float(rng.uniform(0, TWO_PI)),))
            closed = rate_second_order(inp, q, model)
            amp = second_order_amplitude(pair, basis, q, model, 0)
            oracle = RATE_PREFACTOR * abs(amp) ** 2
            assert abs(closed - oracle) <= 1e-12 * max(oracle, 1e-300)


def test_intermediate_enumeration_resolves_identity():
    # with every denominator forced to 1 the sum telescopes to the direct
    # double application of the field operator
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(3)
    for stats in (BOSE, FERMI):
        a = random_packet(rng, basis, 0)
        b = random_packet(rng, basis, 0)
        pair = two_particle_state(a, b, stats)
        q = basis.position((float(rng.uniform(0, TWO_PI)),))
        hooked = second_order_amplitude(
            pair, basis, q, model, 0, denominator=lambda energy, ch: 1.0
        )
        dropped_twice = field_annihilate(
            field_annihilate(pair, basis, q, 0), basis, q, 0
        )
        direct = inner_product(vacuum(stats), dropped_twice)
        element_sum = sum(
            ch.element_out * ch.element_in for ch in model.channels
        )
        want = model.coupling**2 * element_sum * direct
        assert abs(hooked - want) < 1e-12 * max(abs(want), 1.0)


def test_rates_independent_of_mode_ordering():
    # relabeling modes permutes every fermionic sign; physical rates stay put
    lengths = [TWO_PI]
    modes = [[0], [1], [-1], [2]]
    perm = [2, 0, 3, 1]
    basis = ModeBasis(lengths, modes)
    basis_p = ModeBasis(lengths, [modes[i] for i in perm])
    model = safe_model()
    rng = np.random.default_rng(4)
    raw_a = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw_a /= np.linalg.norm(raw_a)
    raw_b = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw_b /= np.linalg.norm(raw_b)
    for stats in (BOSE, FERMI):
        rates = []
        for bas, order in ((basis, range(4)), (basis_p, perm)):
            a = Wavepacket(bas, tuple(raw_a[i] for i in order), 0)
            b = Wavepacket(bas, tuple(raw_b[i] for i in order), 0)
            pair = two_particle_state(a, b, stats)
            q = bas.position((1.234,))
            amp = second_order_amplitude(pair, bas, q, model, 0)
            rates.append(RATE_PREFACTOR * abs(amp) ** 2)
        assert abs(rates[0] - rates[1]) <= 1e-12 * max(rates[0], 1.0)


def test_zero_coupling_zeroes_both_sides():
    basis = cos_basis()
    model = MediumModel(
        0.0, (MediumChannel("c", 1.0, 1.0, 2.0),), first_order_element=1.0
    )
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    q = basis.position((0.9,))
    assert rate_first_order(pkt, 0, q, model) == 0.0
    initial = packet_state(pkt, BOSE)
    assert first_order_amplitude(initial, basis, q, model, 0) == 0.0
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    assert rate_second_order(inp, q, model) == 0.0
    pair = two_particle_state(pkt, pkt, BOSE)
    assert second_order_amplitude(pair, basis, q, model, 0) == 0.0


def test_verification_harness_smoke():
    records = verify_records(20, seed=7)
    counts = tally(records)
    _, _, _, max_rel_first, max_rel_second_sharp = counts
    assert not [r.line() for r in records if r.status == "fail"]
    assert sum(r.order == 1 for r in records) >= 40
    assert sum(r.order == 2 and r.packet_kind == "sharp" for r in records) >= 20
    assert max_rel_first < 1e-12
    assert max_rel_second_sharp < 1e-10
    # every record renders as one output line with its key fields
    for rec in records[:5]:
        line = rec.line()
        assert f"seed={rec.seed}" in line
        assert rec.digest in line
        assert rec.status in line
    assert "failures=0" in summary_line(counts)


def test_verification_flags_are_spread_only():
    for rec in [r for r in verify_records(30, seed=13) if r.status == "flagged"]:
        assert rec.packet_kind == "spread"
        assert rec.order == 2


def test_cancelling_orderings_compare_against_the_size_of_their_terms():
    # sharp fermions in modes (n,) and (-n,) have one energy, so their two
    # orderings cancel and both rates are round-off, near 1e-32 here
    model = safe_model()
    unfloored = []
    for n in (1, 2, 3):
        basis = ModeBasis([5.3], [(0,), (n,), (-n,)], hbar=0.7, mass=1.3)
        packets = [Wavepacket(basis, (0j, 1 + 0j, 0j), 0), Wavepacket(basis, (0j, 0j, 1 + 0j), 0)]
        pair = AbsorptionInput(packets, 0, FERMI)
        for x in (0.3, 1.1, 2.9, 4.7):
            q = basis.position((x,))
            batch = evaluate_rates(pair, model, [q])
            record = _compare(pair, model, q, batch, _oracle(pair, model, q), 0, 0, "cancelling")[0]
            floor = 1e-12 * batch.bound_order2
            assert record.status == "ok", record.line()
            assert record.rate_closed < floor and record.rate_oracle < floor, record.line()
            rates = (record.rate_closed, record.rate_oracle)
            unfloored.append(abs(rates[0] - rates[1]) / max(*rates, 1e-300))
    # without the floor, round-off against round-off would fail somewhere
    assert max(unfloored) > TOLERANCE


def test_verification_rejects_bad_trials():
    with pytest.raises(ValueError, match="^trials must be a positive integer, got 0$"):
        next(record_blocks(0))
