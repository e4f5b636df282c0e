"""The batched closed-form evaluator against a literal per-position sum."""

import dataclasses
import math
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockabs import (
    AbsorptionInput,
    MediumChannel,
    MediumModel,
    ModeBasis,
    ParameterError,
    RateBatch,
    ResonanceError,
    Statistics,
    Wavepacket,
    absorption_rate,
    evaluate_inputs,
    evaluate_rates,
    lowest_mode_numbers,
    mode_wavefunction,
)
from fockabs import perturbation
from fockabs.verify import _draw

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI
TWO_PI = 2 * math.pi
REL_TOL = 1e-12

# each energy convention's second-order rate in a RateBatch
SECOND_ORDER_FIELDS = {"mean": "rate_order2", "per_mode": "rate_order2_per_mode"}


def literal_rows(inp, model, positions):
    """Densities and rates position by position, mode by mode, with the
    mean-energy weights and with the per-mode ones."""
    packets = inp.packets
    pair = len(packets) == 2
    basis = packets[0].basis
    columns = ["density_a", "density_b", "rate_order1", *SECOND_ORDER_FIELDS.values()]
    out = {key: [] for key in columns}
    uncancelled = {"mean": [], "per_mode": []}
    prefactor = TWO_PI / basis.hbar**2 * abs(model.coupling) ** 4
    for q in positions:
        waves = [mode_wavefunction(basis, i, q) for i in range(basis.n_modes)]
        psi = [
            sum(amp * wave for amp, wave in zip(p.amplitudes, waves))
            for p in packets
        ]
        out["density_a"].append(abs(psi[0]) ** 2)
        out["density_b"].append(abs(psi[1]) ** 2 if pair else 0.0)
        rate1 = 0.0
        if packets[0].spin == inp.detector_spin:
            element = model.coupling * model.first_order_element
            rate1 = TWO_PI / basis.hbar**2 * abs(element) ** 2 * abs(psi[0]) ** 2
        out["rate_order1"].append(rate1)
        for convention, rate_key in SECOND_ORDER_FIELDS.items():
            terms = [0.0, 0.0]
            if pair and all(p.spin == inp.detector_spin for p in packets):
                first = []
                for packet, amp_q in zip(packets, psi):
                    mean = sum(
                        abs(a) ** 2 * basis.kinetic_energies[i]
                        for i, a in enumerate(packet.amplitudes)
                    )
                    total = 0.0
                    for ch in model.channels:
                        product = ch.element_out * ch.element_in
                        if convention == "mean":
                            total += amp_q * product / (mean - ch.energy)
                            continue
                        for i, a in enumerate(packet.amplitudes):
                            energy = basis.kinetic_energies[i]
                            total += a * waves[i] * product / (energy - ch.energy)
                    first.append(total)
                sign = 1.0 if inp.statistics is BOSE else -1.0
                terms = [sign * first[1] * psi[0], first[0] * psi[1]]
            out[rate_key].append(prefactor * abs(sum(terms)) ** 2)
            uncancelled[convention].append(prefactor * (abs(terms[0]) + abs(terms[1])) ** 2)
    reference = {key: np.array(value) for key, value in out.items()}
    return reference, column_scales(reference, uncancelled)


def column_scales(columns, uncancelled):
    """Size of each column's values, the yardstick for its round-off.

    A second-order rate is measured before its two orderings cancel, so a
    Pauli-cancelled column of round-off is not its own yardstick;
    ``uncancelled`` holds those sizes under each convention present.
    """
    scales = {key: np.max(np.abs(value), initial=0.0) for key, value in columns.items()}
    for convention, sizes in uncancelled.items():
        key = SECOND_ORDER_FIELDS[convention]
        scales[key] = max(scales[key], np.max(sizes, initial=0.0))
    return scales


def assert_rows_match(batch, reference, scales, tol=REL_TOL, rows=slice(None)):
    for key, expected in reference.items():
        got = getattr(batch, key)
        expected = expected[rows]
        assert got.shape == expected.shape, key
        assert np.all(np.abs(got - expected) <= tol * scales[key]), key


def random_basis(rng, dim, n_modes, hbar, mass):
    lengths = rng.uniform(2.0, 8.0, size=dim)
    grid = np.stack(
        np.meshgrid(*[np.arange(-2, 3)] * dim, indexing="ij"), axis=-1
    ).reshape(-1, dim)
    picks = rng.choice(len(grid), size=min(n_modes, len(grid)), replace=False)
    return ModeBasis(
        lengths, [tuple(int(n) for n in grid[k]) for k in picks], hbar, mass
    )


def random_packet(rng, basis, spin):
    raw = rng.normal(size=basis.n_modes) + 1j * rng.normal(size=basis.n_modes)
    if basis.n_modes > 1:
        raw[rng.random(basis.n_modes) < 0.3] = 0.0  # some unoccupied modes
    if not np.any(raw):
        raw[0] = 1.0
    return Wavepacket(basis, tuple(raw / np.linalg.norm(raw)), spin)


def random_model(rng, basis):
    # channel energies kept clear of every kinetic energy: below zero or
    # above the largest one
    top = max(basis.kinetic_energies)
    scale = max(top, 1.0)
    channels = []
    for k in range(int(rng.integers(1, 4))):
        offset = rng.uniform(0.2, 2.0) * scale
        energy = -offset if rng.random() < 0.5 else top + offset
        channels.append(
            MediumChannel(
                f"ch{k}",
                complex(*rng.normal(size=2)),
                complex(*rng.normal(size=2)),
                float(energy),
            )
        )
    return MediumModel(complex(*rng.normal(size=2)), tuple(channels))


def random_input(rng, basis, order, statistics):
    detector = 0
    spins = [0 if rng.random() < 0.8 else 1 for _ in range(order)]
    packets = [random_packet(rng, basis, s) for s in spins]
    if order == 1:
        return AbsorptionInput((packets[0],), detector)
    return AbsorptionInput((packets[0], packets[1]), detector, statistics)


def random_coords(rng, basis, rows):
    # spans [-L, 2L) per axis so that wrapping is exercised too
    return [
        tuple(rng.uniform(-1.0, 2.0) * length for length in basis.box_lengths)
        for _ in range(rows)
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n_modes=st.integers(1, 7),
    hbar=st.sampled_from([1.0, 0.37, 2.5]),
    mass=st.sampled_from([1.0, 0.6, 3.2]),
    order=st.integers(1, 2),
    statistics=st.sampled_from([BOSE, FERMI]),
    rows_per_chunk=st.integers(1, 4),
    chunks=st.integers(1, 4),
    past_boundary=st.sampled_from([-1, 0, 1]),
)
def test_batched_rows_match_literal_sum(
    seed, dim, n_modes, hbar, mass, order, statistics, rows_per_chunk, chunks, past_boundary,
):
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, dim, n_modes, hbar, mass)
    model = random_model(rng, basis)
    inp = random_input(rng, basis, order, statistics)
    rows = max(1, rows_per_chunk * chunks + past_boundary)
    coords = random_coords(rng, basis, rows)
    # chunk limit between rows_per_chunk and rows_per_chunk + 1 rows
    limit = rows_per_chunk * basis.n_modes + int(rng.integers(0, basis.n_modes))
    with mock.patch.object(perturbation, "CHUNK_ELEMENTS", limit):
        batch = evaluate_rates(inp, model, coords)
    positions = [basis.position(c) for c in coords]
    assert np.array_equal(batch.coords, positions)
    assert_rows_match(batch, *literal_rows(inp, model, positions))


def test_default_chunking_matches_literal_sum_on_and_past_boundaries():
    rng = np.random.default_rng(11)
    basis = ModeBasis([5.0], lowest_mode_numbers(64), hbar=0.8, mass=1.7)
    model = random_model(rng, basis)
    inp = AbsorptionInput(
        (random_packet(rng, basis, 0), random_packet(rng, basis, 0)), 0, FERMI
    )
    step = perturbation.CHUNK_ELEMENTS // basis.n_modes
    coords = random_coords(rng, basis, 2 * step + 1)
    positions = [basis.position(c) for c in coords]
    reference, scales = literal_rows(inp, model, positions)
    for rows in (2 * step, 2 * step + 1):
        batch = evaluate_rates(inp, model, coords[:rows])
        assert_rows_match(batch, reference, scales, rows=slice(rows))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n_modes=st.integers(1, 6),
    statistics=st.sampled_from([BOSE, FERMI]),
    rows=st.integers(1, 6),
)
def test_scalar_calls_are_rows_of_one_batch(seed, dim, n_modes, statistics, rows):
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, dim, n_modes, 1.3, 0.7)
    model = random_model(rng, basis)
    inp = random_input(rng, basis, 2, statistics)
    positions = [basis.position(c) for c in random_coords(rng, basis, rows)]
    batch = evaluate_rates(inp, model, positions)
    rows_alone = [evaluate_rates(inp, model, [q]) for q in positions]
    scalar = {
        "rate_order1": [
            absorption_rate(AbsorptionInput((inp.packets[0],), inp.detector_spin), model, q)
            for q in positions
        ],
        "rate_order2": [absorption_rate(inp, model, q) for q in positions],
        "rate_order2_per_mode": [row.rate_order2_per_mode[0] for row in rows_alone],
    }
    scalar = {key: np.array(value) for key, value in scalar.items()}
    _, scales = literal_rows(inp, model, positions)
    # one-row and many-row BLAS kernels may round the last bit differently
    assert_rows_match(batch, scalar, scales, tol=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n_modes=st.integers(1, 6),
    hbar=st.sampled_from([0.37, 2.5]),
    mass=st.sampled_from([0.6, 3.2]),
    statistics=st.sampled_from([BOSE, FERMI]),
)
def test_pair_swap_and_global_phase_symmetries(seed, dim, n_modes, hbar, mass, statistics):
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, dim, n_modes, hbar, mass)
    model = random_model(rng, basis)
    inp = random_input(rng, basis, 2, statistics)
    coords = random_coords(rng, basis, 4)
    batch = evaluate_rates(inp, model, coords)
    # rates are compared against their size before the orderings cancel
    _, scales = literal_rows(inp, model, batch.coords)
    # swapping the pair swaps the orderings, which leaves the rates under
    # either exchange sign
    swapped = evaluate_rates(
        AbsorptionInput((inp.packets[1], inp.packets[0]), inp.detector_spin, statistics),
        model,
        coords,
    )
    # a global phase on either packet is unobservable
    turned = []
    for k, packet in enumerate(inp.packets):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rotated = Wavepacket(
            basis, tuple(phase * a for a in packet.amplitudes), packet.spin
        )
        packets = list(inp.packets)
        packets[k] = rotated
        turned.append(evaluate_rates(dataclasses.replace(inp, packets=packets), model, coords))
        for key in ("density_a", "density_b", "rate_order1"):
            want, got = getattr(batch, key), getattr(turned[-1], key)
            assert np.all(np.abs(got - want) <= REL_TOL * np.abs(want).max()), key

    for rate_key in SECOND_ORDER_FIELDS.values():
        rate, tol = getattr(batch, rate_key), REL_TOL * scales[rate_key]
        assert np.all(np.abs(getattr(swapped, rate_key) - rate) <= tol)
        for other in turned:
            assert np.all(np.abs(getattr(other, rate_key) - rate) <= tol)


def test_per_mode_weights_skip_unoccupied_modes():
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    # mode n=1 has kinetic energy 0.5, resonant with the channel, but is empty
    model = MediumModel(1.0, (MediumChannel("res", 1.0, 1.0, 0.5),))
    a = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    inp = AbsorptionInput((a, a), 0, BOSE)
    q = basis.position((0.3,))
    batch = evaluate_rates(inp, model, [q])
    exact, mean = batch.rate_order2_per_mode[0], batch.rate_order2[0]
    assert mean > 0.0 and abs(exact - mean) <= REL_TOL * mean
    b = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    with pytest.raises(ResonanceError):
        evaluate_rates(AbsorptionInput((a, b), 0, BOSE), model, [q])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    hbar=st.sampled_from([0.37, 2.5]),
    mass=st.sampled_from([0.6, 3.2]),
    spins=st.sampled_from([(0,), (0, 1), (0, 1, 2)]),
    statistics=st.sampled_from([BOSE, FERMI]),
    sharp=st.tuples(st.booleans(), st.booleans()),
)
def test_the_conventions_agree_on_packets_of_one_kinetic_energy(
    seed, dim, hbar, mass, spins, statistics, sharp
):
    # a packet in one mode, or spread over a mode n and its mirror -n, has
    # one kinetic energy, which is then its mean: the per-mode rate is the
    # mean-energy one, as verify relies on when it judges sharp pairs strictly
    rng = np.random.default_rng(seed)
    classes = []  # nonzero mode numbers up to sign, each class one energy
    for _ in range(3):
        vec = tuple(int(n) for n in rng.integers(-2, 3, size=dim))
        vec = vec if any(vec) else (1,) + vec[1:]
        if vec not in classes and tuple(-n for n in vec) not in classes:
            classes.append(vec)
    modes = [(0,) * dim] + [m for vec in classes for m in (vec, tuple(-n for n in vec))]
    basis = ModeBasis(rng.uniform(2.0, 8.0, size=dim), modes, hbar, mass, spins)
    detector = spins[int(rng.integers(len(spins)))]

    def packet(one_mode):
        amps = [0j] * basis.n_modes
        k = int(rng.integers(len(classes) + 1))
        if one_mode or k == 0:
            amps[int(rng.integers(basis.n_modes))] = 1.0
        else:
            pair = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            norm = math.hypot(abs(pair[0]), abs(pair[1]))
            amps[2 * k - 1], amps[2 * k] = pair[0] / norm, pair[1] / norm
        spin = detector if rng.random() < 0.8 else spins[int(rng.integers(len(spins)))]
        return Wavepacket(basis, tuple(amps), spin)

    a, b = packet(sharp[0]), packet(sharp[1])
    if statistics is FERMI and (a.spin, a.amplitudes) == (b.spin, b.amplitudes):
        b = Wavepacket(basis, (1.0,) + (0.0,) * (basis.n_modes - 1), a.spin)
        if b == a:
            b = Wavepacket(basis, (0.0, 1.0) + (0.0,) * (basis.n_modes - 2), a.spin)
    model = random_model(rng, basis)
    batch = evaluate_rates(
        AbsorptionInput((a, b), detector, statistics), model, random_coords(rng, basis, 5)
    )
    assert batch.bound_order2_per_mode == pytest.approx(batch.bound_order2, rel=1e-12)
    gap = np.abs(batch.rate_order2_per_mode - batch.rate_order2)
    assert (gap <= 1e-12 * batch.bound_order2).all()


def test_a_batch_holds_nine_columns_each_its_own_array():
    assert RateBatch._fields == (
        "coords", "density_a", "density_b", "rate_order1", "rate_order2",
        "rate_order2_per_mode", "bound_order1", "bound_order2", "bound_order2_per_mode",
    )
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(1.0, (MediumChannel("ch", 1.0, 1.0, 3.0),))
    a = Wavepacket(basis, (0.6, 0.8, 0.0), 0)
    b = Wavepacket(basis, (0.0, 0.6, 0.8j), 0)
    other_spin = Wavepacket(basis, (0.0, 0.6, 0.8j), 1)
    for packets in ((a,), (a, other_spin), (a, b)):
        batch = evaluate_rates(AbsorptionInput(packets, 0), model, [(0.3,), (1.2,), (4.0,)])
        arrays = [
            (name, v) for name, v in zip(RateBatch._fields, batch) if not name.startswith("bound")
        ]
        for k, (name, array) in enumerate(arrays):
            assert isinstance(array, np.ndarray) and len(array) == 3, name
            for other, other_array in arrays[k + 1:]:
                assert not np.shares_memory(array, other_array), (len(packets), name, other)


def test_an_empty_batch_is_rejected():
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(1.0, (MediumChannel("ch", 1.0, 1.0, 3.0),))
    for coords in ([], [(0.5,)]):
        with pytest.raises(ValueError, match="^evaluate_inputs needs at least one input$"):
            evaluate_inputs([], model, coords)


def test_evaluator_rejects_positions_of_wrong_dimension():
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    inp = AbsorptionInput((Wavepacket(basis, (1.0, 0.0, 0.0), 0),), 0)
    model = MediumModel(1.0, (), first_order_element=1.0)
    with pytest.raises(ValueError):
        evaluate_rates(inp, model, [(0.1, 0.2)])
    assert evaluate_rates(inp, model, []).rate_order1.shape == (0,)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("convention", ["mean", "per_mode"])
def test_the_rate_bounds_hold_at_every_position(seed, convention):
    # each bound is a sum of moduli, so no position may exceed it, nodes and
    # cancelling orderings included; the draws are verify's own
    rng = np.random.default_rng(seed)
    basis, model, _, _, inputs = _draw(rng, (BOSE, FERMI)[seed % 2])
    coords = [[rng.uniform(0.0, length) for length in basis.box_lengths] for _ in range(64)]
    rate_key = SECOND_ORDER_FIELDS[convention]
    bound_key = {"mean": "bound_order2", "per_mode": "bound_order2_per_mode"}[convention]
    for inp in inputs:
        batch = evaluate_rates(inp, model, coords)
        assert 0.0 < batch.bound_order1 < math.inf
        assert (batch.rate_order1 <= batch.bound_order1 * (1 + REL_TOL)).all()
        rate, bound = getattr(batch, rate_key), getattr(batch, bound_key)
        if len(inp.packets) == 1:
            assert bound == 0.0
        assert (rate <= bound * (1 + REL_TOL)).all()


def assert_same_bits(got: RateBatch, want: RateBatch):
    """Every field equal bit for bit, so that -0.0 is not 0.0 and NaNs match."""
    for name, g, w in zip(RateBatch._fields, got, want):
        g, w = np.ascontiguousarray(g), np.ascontiguousarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    statistics=st.sampled_from([BOSE, FERMI]),
    rows=st.sampled_from([0, 1, 2, 7]),
    rows_per_chunk=st.integers(1, 3),
)
def test_each_input_of_a_batch_is_its_own_one_input_call(seed, statistics, rows, rows_per_chunk):
    # verify's draws: 1-3 dimensions, hbar and mass off 1, one packet and a
    # pair, sharp and spread; the same inputs seen by every other detector
    # spin add mismatched spins, whose rates the spin deltas zero
    rng = Random(seed)
    basis, model, detector_spin, _, inputs = _draw(rng, statistics)
    inputs += [
        dataclasses.replace(inp, detector_spin=spin)
        for inp in inputs
        for spin in basis.spins
        if spin != detector_spin
    ]
    lengths = basis.box_lengths
    coords = [[rng.uniform(-1.0, 2.0) * length for length in lengths] for _ in range(rows)]
    # 7 rows run in three to seven chunks
    with mock.patch.object(perturbation, "CHUNK_ELEMENTS", rows_per_chunk * basis.n_modes):
        batches = evaluate_inputs(inputs, model, coords)
        assert len(batches) == len(inputs)
        for inp, batch in zip(inputs, batches):
            assert_same_bits(batch, evaluate_rates(inp, model, coords))


def test_a_batch_raises_the_error_of_its_first_rejected_input(monkeypatch):
    # modes 1 and -1 have kinetic energy 0.5, resonant with "res"; a pair in
    # mode 0 is clear of both channels, but its weight through "big", about
    # 3e159, has a second-order rate bound past the largest float
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(
        1.0, (MediumChannel("res", 1.0, 1.0, 0.5), MediumChannel("big", 1e150, 1e10, 3.0))
    )
    still = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    moving = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    single = AbsorptionInput((still,), 0)
    resonant = AbsorptionInput((moving, moving), 0, BOSE)
    unbounded = AbsorptionInput((still, still), 0, BOSE)

    def error_of(inputs, coords):
        with pytest.raises(ValueError) as err:
            evaluate_inputs(inputs, model, coords)
        return type(err.value), str(err.value)

    alone = {
        "resonant": error_of([resonant], [(0.5,)]),
        "unbounded": error_of([unbounded], [(0.5,)]),
    }
    assert alone["resonant"][0] is ResonanceError
    assert alone["unbounded"][0] is ParameterError
    assert evaluate_inputs([single], model, [(0.5,)])[0].rate_order1.item(0) > 0.0

    def no_position(*args):
        raise AssertionError("evaluated a position")

    monkeypatch.setattr(perturbation, "phase_matrix", no_position)
    for coords in ([], [(0.5,)], [(0.1,)] * 5):
        assert error_of([single, resonant, unbounded], coords) == alone["resonant"]
        assert error_of([single, unbounded, resonant], coords) == alone["unbounded"]


def test_a_batch_lives_on_one_basis():
    model = MediumModel(1.0, (MediumChannel("ch", 1.0, 1.0, 3.0),))

    def single(length):
        basis = ModeBasis([length], lowest_mode_numbers(3))
        return AbsorptionInput((Wavepacket(basis, (1.0, 0.0, 0.0), 0),), 0)

    with pytest.raises(ValueError, match="^inputs live on different bases$"):
        evaluate_inputs([single(TWO_PI), single(TWO_PI), single(5.0)], model, [(0.5,)])
    # equal bases, not the same object, are one basis
    assert len(evaluate_inputs([single(TWO_PI), single(TWO_PI)], model, [(0.5,)])) == 2
