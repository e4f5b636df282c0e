"""Mode basis, wavepackets, and the position-space field operator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fockabs import (
    ModeBasis,
    ParameterError,
    SlotKey,
    Statistics,
    Wavepacket,
    apply_packet_creation,
    create,
    field_annihilate,
    inner_product,
    lowest_mode_numbers,
    mean_kinetic_energy,
    mode_wavefunction,
    packet_state,
    two_particle_state,
    vacuum,
)
from fockabs.field_ops import phase_matrix
from helpers import overlap, position_amplitude, uniform_grid

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI
TWO_PI = 2 * math.pi


def cos_basis():
    # modes n = 0, 1, -1 on an L = 2*pi box
    return ModeBasis([TWO_PI], lowest_mode_numbers(3))


def random_packet(rng, basis, spin=0):
    raw = rng.normal(size=basis.n_modes) + 1j * rng.normal(size=basis.n_modes)
    raw /= np.linalg.norm(raw)
    return Wavepacket(basis, tuple(raw), spin)


def test_basis_geometry():
    basis = cos_basis()
    assert basis.dim == 1
    assert basis.n_modes == 3
    assert abs(basis.volume - TWO_PI) < 1e-15
    # 0, +1, -1 ordering with p = n on the unit-hbar 2*pi box
    assert basis.momenta[0] == (0.0,)
    assert abs(basis.momenta[1][0] - 1.0) < 1e-15
    assert abs(basis.momenta[2][0] + 1.0) < 1e-15


def test_kinetic_energy_is_p_squared_over_2m():
    basis = ModeBasis([TWO_PI], [[0], [2]], mass=0.5)
    assert basis.kinetic_energies[0] == 0.0
    assert abs(basis.kinetic_energies[1] - 4.0) < 1e-12


def test_basis_rejects_duplicate_momenta():
    with pytest.raises(ValueError):
        ModeBasis([TWO_PI], [[1], [1]])


def test_basis_rejects_off_grid_momenta():
    # a mode number that is not an int puts its momentum off the 2*pi*hbar/L grid
    for bad in (0.5, 1.0, True):
        with pytest.raises(ValueError, match="integers"):
            ModeBasis([TWO_PI], [[0], [bad]])


def test_momenta_are_derived_bit_for_bit():
    lengths = [TWO_PI, 3.7, 0.91]
    numbers = list(itertools.product(range(-3, 4), repeat=3))
    hbar = 0.37
    basis = ModeBasis(lengths, numbers, hbar=hbar, mass=1.3)
    want = [
        [(2 * math.pi * hbar * n / length).hex() for n, length in zip(vec, lengths)]
        for vec in numbers
    ]
    assert [[p.hex() for p in vec] for vec in basis.momenta] == want
    assert basis.momentum_array.tolist() == [list(vec) for vec in basis.momenta]


@st.composite
def integer_bases(draw):
    dim = draw(st.integers(1, 3))
    numbers = draw(
        st.lists(
            st.tuples(*[st.integers(-5, 5)] * dim), min_size=1, max_size=40, unique=True
        )
    )
    lengths = draw(st.lists(st.floats(0.5, 10.0), min_size=dim, max_size=dim))
    hbar = draw(st.floats(0.1, 5.0))
    return ModeBasis(lengths, numbers, hbar=hbar)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(basis=integer_bases())
@example(
    basis=ModeBasis(
        [TWO_PI, 3.7, 0.91], list(itertools.product(range(-3, 4), repeat=3))
    )
)
def test_distinct_integer_modes_are_orthonormal(basis):
    # N = 2*max|n| + 3 points per axis make the quadrature exact: the box
    # average of exp(2*pi*i*dn*k/N) is 1 only for dn = 0 (mod N), and
    # |dn| <= 2*max|n| < N
    points = 2 * max(abs(n) for vec in basis.mode_numbers for n in vec) + 3
    positions, weight = uniform_grid(basis, points)
    waves = phase_matrix(basis, np.array(positions))
    gram = waves.conj().T @ waves * weight
    assert np.abs(gram - np.eye(basis.n_modes)).max() < 1e-12


def test_basis_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ModeBasis([], [])
    with pytest.raises(ValueError):
        ModeBasis([-1.0], [[0]])
    with pytest.raises(ValueError):
        ModeBasis([TWO_PI], [[0]], spins=())


def test_basis_stores_any_sequences_as_tuples_of_floats():
    listed = ModeBasis([4], [[0], [1]], hbar=1, mass=2)
    strict = ModeBasis((4.0,), ((0,), (1,)), 1.0, 2.0)
    assert listed == strict
    assert hash(listed) == hash(strict)
    # an int equals its float, so compare the reprs too: the verify digest reads them
    assert repr(listed) == repr(strict)


@pytest.mark.parametrize("huge", [10**400, -10**400], ids=["positive", "negative"])
@pytest.mark.parametrize("field", ["box_lengths", "hbar", "mass"])
def test_an_int_too_large_for_a_float_is_named(field, huge):
    args = {"box_lengths": [1.0, 2.0], "mode_numbers": [[0, 0]]}
    args[field] = [1.0, huge] if field == "box_lengths" else huge
    with pytest.raises(ParameterError) as caught:
        ModeBasis(**args)
    assert caught.value.field == field


def test_oversized_ints_are_named_in_the_check_order():
    with pytest.raises(ParameterError) as caught:
        ModeBasis([10**400], [[0]], hbar=10**400, mass=10**400)
    assert caught.value.field == "box_lengths"
    with pytest.raises(ParameterError) as caught:
        ModeBasis([1.0], [[0], [0]], hbar=10**400)
    assert caught.value.field == "modes"
    with pytest.raises(ParameterError) as caught:
        ModeBasis([1.0], [[0]], hbar=10**400, mass=10**400)
    assert caught.value.field == "hbar"


@pytest.mark.parametrize("huge", [10**400, -10**400], ids=["positive", "negative"])
def test_a_mode_number_too_large_for_a_float_is_named(huge):
    # its momentum 2*pi*hbar*n/L would convert n to a float and overflow
    for box, mode in (([1.0], [huge]), ([1.0, 2.0], [0, huge])):
        with pytest.raises(ParameterError, match=r"^kinetic energy of mode 1 ") as caught:
            ModeBasis(box, [[0] * len(box), mode])
        assert caught.value.field == "modes"
    # in the check order: after hbar and mass, before spins
    for kwargs, field in (({"hbar": 10**400}, "hbar"), ({"mass": 0.0}, "mass"),
                          ({"spins": ()}, "modes")):
        with pytest.raises(ParameterError) as caught:
            ModeBasis([1.0], [[huge]], **kwargs)
        assert caught.value.field == field


@pytest.mark.parametrize(
    "n, shown",
    [
        pytest.param(10**5000, "<int of 5001 digits>", id="past-4300-digits"),
        pytest.param(-(10**5000), "-<int of 5001 digits>", id="negative"),
        pytest.param(10**5000 - 1, "<int of 5000 digits>", id="all-nines"),
        pytest.param(10**600, "<int of 601 digits>", id="601-digits"),
        pytest.param(10**600 - 1, "9" * 600, id="600-digits-in-full"),
    ],
)
def test_a_mode_number_too_long_to_print_is_named(n, shown):
    # str() of an int fails past 4300 digits where the interpreter limits the
    # conversion, and from 640 digits on under the lowest limit it can be set to
    for modes, message in (([[n]], f"kinetic energy of mode 0 ({shown},) must be finite"),
                           ([[n, 1]], f"mode numbers ({shown}, 1) are not 1 integers")):
        with pytest.raises(ParameterError) as caught:
            ModeBasis([1.0], modes)
        assert caught.value.field == "modes"
        assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: create(vacuum(BOSE), SlotKey(True, 0)), id="slot-mode"),
        pytest.param(lambda: create(vacuum(BOSE), SlotKey(0, True)), id="slot-spin"),
        pytest.param(lambda: ModeBasis([1.0], [(0,)], spins=(True,)),
                     id="basis-spin"),
        pytest.param(lambda: mode_wavefunction(cos_basis(), True, (0.0,)),
                     id="wavefunction-index"),
        pytest.param(lambda: mode_wavefunction(cos_basis(), 1.0, (0.0,)),
                     id="wavefunction-float-index"),
        # True == 1 and False == 0 are in the spin set (0, 1); on the vacuum
        # no slot reaches the ladder algebra's own check
        pytest.param(lambda: field_annihilate(vacuum(BOSE), cos_basis(), (0.0,), True),
                     id="field-spin-true"),
        pytest.param(lambda: field_annihilate(vacuum(BOSE), cos_basis(), (0.0,), False),
                     id="field-spin-false"),
    ],
)
def test_bool_is_not_a_mode_index_or_spin_label(build):
    # bool is an int subclass, so an isinstance test would take True for 1
    with pytest.raises(ValueError, match="integers"):
        build()


def test_position_wraps_into_box():
    basis = cos_basis()
    assert abs(basis.position((TWO_PI + 0.5,))[0] - 0.5) < 1e-12
    assert abs(basis.position((-0.5,))[0] - (TWO_PI - 0.5)) < 1e-12


def test_position_is_the_one_row_case_of_wrap():
    basis = ModeBasis([2.0, 3.0], [(0, 0), (1, -1)])
    for c in ((2.5, -0.5), (-1e-17, 3.0), (0.25, 1.0)):
        q = basis.position(c)
        assert type(q) is tuple and all(type(x) is float for x in q)
        assert q == tuple(basis.wrap([c])[0])


@st.composite
def boxes_and_edge_coords(draw):
    dim = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
    rows = draw(
        st.lists(
            st.tuples(
                *[
                    st.one_of(
                        st.floats(-1e-12, -1e-300),  # np.mod rounds these up to L
                        st.just(-0.0),
                        st.integers(-5, 5).map(lambda k, length=length: k * length),
                        st.floats(-1e3, 1e3),
                    )
                    for length in lengths
                ]
            ),
            min_size=1,
            max_size=8,
        )
    )
    return lengths, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=boxes_and_edge_coords())
@example(case=([TWO_PI], [(-1e-17,)]))
@example(case=([1.0, 3.0, 0.7], [(-5e-324, -0.0, -3 * 0.7)]))
def test_wrap_lands_in_half_open_box(case):
    lengths, rows = case
    basis = ModeBasis(lengths, [(0,) * len(lengths)])
    wrapped = basis.wrap(rows)
    assert np.all(wrapped >= 0.0)
    assert np.all(wrapped < np.array(lengths))
    for row in rows:
        coords = basis.position(row)
        assert all(0.0 <= c < length for c, length in zip(coords, lengths))


def test_mode_wavefunction_frozen_values():
    basis = cos_basis()
    q0 = basis.position((1.7,))
    flat = mode_wavefunction(basis, 0, q0)
    assert abs(flat - 1 / math.sqrt(TWO_PI)) < 1e-15

    q_pi = basis.position((math.pi,))
    moving = mode_wavefunction(basis, 1, q_pi)
    assert abs(moving - (-1 / math.sqrt(TWO_PI))) < 1e-15


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    basis=integer_bases(),
    mass=st.floats(0.1, 5.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_mode_wavefunction_within_one_ulp_of_numpy(basis, mass, fractions):
    # the scalar cmath form against numpy's, the form of phase_matrix
    basis = ModeBasis(
        basis.box_lengths, basis.mode_numbers, hbar=basis.hbar, mass=mass
    )
    q = basis.position([f * length for f, length in zip(fractions, basis.box_lengths)])
    for i, vec in enumerate(basis.momenta):
        phase = sum(p * x for p, x in zip(vec, q))
        want = complex(np.exp(1j * phase / basis.hbar) / math.sqrt(basis.volume))
        got = mode_wavefunction(basis, i, q)
        assert type(got) is complex
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(g - w) <= math.ulp(w)


def test_mode_wavefunction_box_normalized_everywhere():
    basis = cos_basis()
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = basis.position((float(rng.uniform(0, TWO_PI)),))
        for i in range(basis.n_modes):
            assert abs(abs(mode_wavefunction(basis, i, q)) ** 2 * basis.volume - 1.0) < 1e-12


def test_mode_wavefunction_index_error():
    for index in (3, -1, -4):
        with pytest.raises(IndexError, match=f"mode index {index} out of range"):
            mode_wavefunction(cos_basis(), index, cos_basis().position((0.0,)))


@pytest.mark.parametrize("q", [(), (0.0, 0.0)])
def test_mode_wavefunction_rejects_a_position_of_another_dimension(q):
    with pytest.raises(ValueError, match=f"position dim {len(q)} does not match basis 1"):
        mode_wavefunction(cos_basis(), 0, q)


def test_cos_packet_amplitude():
    basis = cos_basis()
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    at0 = position_amplitude(pkt, basis.position((0.0,)))
    assert abs(at0 - 1 / math.sqrt(math.pi)) < 1e-12
    # node of cos at pi/2
    node = position_amplitude(pkt, basis.position((math.pi / 2,)))
    assert abs(node) < 1e-15
    probe = position_amplitude(pkt, basis.position((1.1,)))
    assert abs(probe - math.cos(1.1) / math.sqrt(math.pi)) < 1e-12


def test_single_mode_density_is_flat():
    basis = cos_basis()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = basis.position((float(rng.uniform(0, TWO_PI)),))
        assert abs(abs(position_amplitude(pkt, q)) ** 2 - 1 / basis.volume) < 1e-14


def test_density_quadrature_is_one():
    basis = cos_basis()
    rng = np.random.default_rng(2)
    positions, weight = uniform_grid(basis, 1024)
    for _ in range(5):
        pkt = random_packet(rng, basis)
        total = sum(abs(position_amplitude(pkt, q)) ** 2 for q in positions) * weight
        assert abs(total - 1.0) < 1e-8


def test_plane_wave_orthonormality_quadrature():
    basis = ModeBasis([4.0], [[0], [1], [-1], [2], [-2], [3]])
    positions, weight = uniform_grid(basis, 64)
    for i in range(basis.n_modes):
        for j in range(basis.n_modes):
            acc = sum(
                mode_wavefunction(basis, i, q).conjugate()
                * mode_wavefunction(basis, j, q)
                for q in positions
            ) * weight
            want = 1.0 if i == j else 0.0
            assert abs(acc - want) < 1e-8


def test_uniform_grid_covers_volume():
    basis = cos_basis()
    positions, weight = uniform_grid(basis, 32)
    assert len(positions) == 32
    assert abs(weight * len(positions) - basis.volume) < 1e-12


def test_overlap_values():
    basis = ModeBasis([TWO_PI], [[0], [1]])
    w = 1 / math.sqrt(2)
    f = Wavepacket(basis, (w, w), 0)
    g = Wavepacket(basis, (w, -w), 0)
    assert abs(overlap(f, f) - 1.0) < 1e-15
    assert abs(overlap(f, g)) < 1e-15
    sharp_a = Wavepacket(basis, (1.0, 0.0), 0)
    sharp_b = Wavepacket(basis, (0.0, 1.0), 0)
    assert overlap(sharp_a, sharp_b) == 0.0


def test_overlap_requires_same_basis():
    f = Wavepacket(cos_basis(), (1.0, 0.0, 0.0), 0)
    g = Wavepacket(ModeBasis([4.0], lowest_mode_numbers(3)), (1.0, 0.0, 0.0), 0)
    with pytest.raises(ValueError):
        overlap(f, g)


def test_overlap_cauchy_schwarz():
    rng = np.random.default_rng(4)
    basis = cos_basis()
    for _ in range(20):
        f = random_packet(rng, basis)
        g = random_packet(rng, basis)
        assert abs(overlap(f, g)) <= 1.0 + 1e-12
        assert abs(overlap(f, f) - 1.0) < 1e-12


def test_wavepacket_normalization_gate():
    basis = ModeBasis([TWO_PI], [[0], [1]])
    ok = math.sqrt(0.5 + 5e-12)
    Wavepacket(basis, (ok, math.sqrt(0.5)), 0)
    with pytest.raises(ValueError):
        Wavepacket(basis, (1.0, 0.1), 0)
    with pytest.raises(ValueError):
        Wavepacket(basis, (math.nan, 0.0), 0)
    # |a|^2 overflows a float: the norm is read as inf
    with pytest.raises(ParameterError, match=r"norm\^2 = inf ") as caught:
        Wavepacket(basis, (1e200, 0.0), 0)
    assert caught.value.field == "amplitudes"


def test_wavepacket_spin_must_be_declared():
    basis = cos_basis()
    with pytest.raises(ValueError):
        Wavepacket(basis, (1.0, 0.0, 0.0), 7)


def test_mean_kinetic_energy_values():
    basis = cos_basis()
    assert mean_kinetic_energy(Wavepacket(basis, (1.0, 0.0, 0.0), 0)) == 0.0
    w = 1 / math.sqrt(2)
    assert abs(mean_kinetic_energy(Wavepacket(basis, (0.0, w, w), 0)) - 0.5) < 1e-12
    assert abs(mean_kinetic_energy(Wavepacket(basis, (0.0, 1.0, 0.0), 0)) - 0.5) < 1e-12


def test_packet_state_norm_and_sharp_case():
    rng = np.random.default_rng(6)
    basis = cos_basis()
    sharp = packet_state(Wavepacket(basis, (0.0, 1.0, 0.0), 0), BOSE)
    assert len(sharp.terms) == 1
    assert abs(next(iter(sharp.terms.values())) - 1.0) < 1e-15
    for stats in (BOSE, FERMI):
        for _ in range(10):
            state = packet_state(random_packet(rng, basis), stats)
            assert abs(state.norm() - 1.0) < 1e-12


def test_two_particle_fermi_same_packet_is_zero():
    basis = cos_basis()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    assert two_particle_state(pkt, pkt, FERMI).is_zero()
    assert not two_particle_state(pkt, pkt, BOSE).is_zero()


def test_field_annihilate_kills_vacuum():
    basis = cos_basis()
    q = basis.position((0.3,))
    assert field_annihilate(vacuum(BOSE), basis, q, 0).is_zero()


def test_field_annihilate_rejects_unknown_spin():
    basis = cos_basis()
    state = packet_state(Wavepacket(basis, (1.0, 0.0, 0.0), 0), BOSE)
    for spin in (9, 2, -1):
        for target in (vacuum(BOSE), state):
            with pytest.raises(ValueError, match=f"spin {spin} not in basis spin set"):
                field_annihilate(target, basis, basis.position((0.0,)), spin)


@pytest.mark.parametrize("q", [(), (0.0, 0.0)])
def test_field_annihilate_rejects_a_position_of_another_dimension(q):
    basis = cos_basis()
    state = packet_state(Wavepacket(basis, (1.0, 0.0, 0.0), 0), BOSE)
    for target in (vacuum(BOSE), state):
        with pytest.raises(ValueError, match=f"position dim {len(q)} does not match basis 1"):
            field_annihilate(target, basis, q, 0)


def test_vacuum_projection_recovers_wavefunction():
    # <0| field(Q) |1_f> = psi_f(Q) at the packet spin, 0 at the other
    rng = np.random.default_rng(8)
    basis = cos_basis()
    for stats in (BOSE, FERMI):
        for _ in range(20):
            pkt = random_packet(rng, basis, spin=0)
            state = packet_state(pkt, stats)
            q = basis.position((float(rng.uniform(0, TWO_PI)),))
            proj = inner_product(
                vacuum(stats), field_annihilate(state, basis, q, 0)
            )
            assert abs(proj - position_amplitude(pkt, q)) < 1e-12
            crossed = inner_product(
                vacuum(stats), field_annihilate(state, basis, q, 1)
            )
            assert crossed == 0.0


def test_apply_packet_creation_matches_packet_state():
    rng = np.random.default_rng(10)
    basis = cos_basis()
    pkt = random_packet(rng, basis)
    built = apply_packet_creation(vacuum(BOSE), pkt)
    direct = packet_state(pkt, BOSE)
    keys = set(built.terms) | set(direct.terms)
    assert all(abs(built.terms.get(k, 0) - direct.terms.get(k, 0)) < 1e-12 for k in keys)
