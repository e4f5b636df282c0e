"""Closed-form first- and second-order absorption rates."""

import cmath
import math

import numpy as np
import pytest

from fockabs import (
    AbsorptionInput,
    IndistinguishableFermionsError,
    MediumChannel,
    MediumModel,
    ModeBasis,
    ParameterError,
    ResonanceError,
    Statistics,
    Wavepacket,
    absorption_rate,
    evaluate_rates,
    log_log_slope,
    lowest_mode_numbers,
    mode_wavefunction,
    proportionality_exponent,
)
from helpers import position_amplitude, uniform_grid

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI
TWO_PI = 2 * math.pi


def cos_basis(spins=(0, 1)):
    return ModeBasis([TWO_PI], lowest_mode_numbers(3), spins=spins)


def safe_model():
    # channel energies sit well away from the 0..0.5 kinetic range
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


def orthogonal_pair(rng, basis, spin=0):
    f = random_packet(rng, basis, spin)
    raw = rng.normal(size=basis.n_modes) + 1j * rng.normal(size=basis.n_modes)
    fvec = np.array(f.amplitudes)
    raw -= fvec * np.vdot(fvec, raw)
    raw /= np.linalg.norm(raw)
    return f, Wavepacket(basis, tuple(raw), spin)


# ----------------------------------------------------------------- first order


def test_unit_plane_wave_rate_is_one_everywhere():
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(1), spins=(0,))
    model = MediumModel(1.0, (), first_order_element=1.0)
    pkt = Wavepacket(basis, (1.0,), 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = basis.position((float(rng.uniform(0, TWO_PI)),))
        assert abs(absorption_rate(AbsorptionInput((pkt,), 0), model, q) - 1.0) < 1e-12


def test_first_order_spin_mismatch_is_zero():
    basis = cos_basis()
    model = safe_model()
    pkt = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    q = basis.position((0.4,))
    assert absorption_rate(AbsorptionInput((pkt,), 1), model, q) == 0.0


def test_first_order_node_of_cos_packet():
    basis = cos_basis()
    model = safe_model()
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    node = basis.position((math.pi / 2,))
    assert absorption_rate(AbsorptionInput((pkt,), 0), model, node) < 1e-28


def test_first_order_rejects_unknown_detector_spin():
    basis = cos_basis()
    pkt = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    with pytest.raises(ValueError):
        absorption_rate(AbsorptionInput((pkt,), 5), safe_model(), basis.position((0.0,)))


def test_born_quadrature_integrates_to_efficiency():
    basis = cos_basis()
    model = safe_model()
    beta = 2.0 * math.pi / basis.hbar**2 * abs(model.coupling * model.first_order_element) ** 2
    rng = np.random.default_rng(1)
    positions, weight = uniform_grid(basis, 16)
    for _ in range(10):
        pkt = random_packet(rng, basis)
        total = sum(
            absorption_rate(AbsorptionInput((pkt,), 0), model, q) for q in positions
        ) * weight
        assert abs(total - beta) / beta < 1e-8


# ----------------------------------------------------------------- inputs


def test_fermi_same_state_input_rejected():
    basis = cos_basis()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    with pytest.raises(IndistinguishableFermionsError) as err:
        AbsorptionInput((pkt, pkt), 0, FERMI)
    # a ParameterError, so a parsed config names its run key
    assert isinstance(err.value, ParameterError) and err.value.field == "packets"


def test_a_packet_given_a_list_is_the_packet_given_a_tuple():
    basis = cos_basis()
    listed = Wavepacket(basis, [0.0, 0.6, 0.8j], 0)
    tupled = Wavepacket(basis, (0.0, 0.6, 0.8j), 0)
    assert listed == tupled and hash(listed) == hash(tupled)
    # so a fermion pair of the two is one state twice, whichever was a list
    for pair in ((listed, tupled), (tupled, listed), (listed, listed)):
        with pytest.raises(IndistinguishableFermionsError):
            AbsorptionInput(pair, 0, FERMI)


def test_fermi_same_amplitudes_different_spins_allowed():
    basis = cos_basis()
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (0.0, 1.0, 0.0), 1)
    AbsorptionInput((a, b), 0, FERMI)


def test_bose_same_state_input_allowed():
    basis = cos_basis()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    AbsorptionInput((pkt, pkt), 0, BOSE)


def test_input_requires_shared_basis():
    a = Wavepacket(cos_basis(), (1.0, 0.0, 0.0), 0)
    b = Wavepacket(ModeBasis([4.0], lowest_mode_numbers(3)), (1.0, 0.0, 0.0), 0)
    with pytest.raises(ParameterError, match="^packets live on different bases$") as err:
        AbsorptionInput((a, b), 0, BOSE)
    assert err.value.field == "packets"


def test_input_validates_detector_spin():
    basis = cos_basis()
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    with pytest.raises(ParameterError, match="^detector spin 4 not in basis spin set$") as err:
        AbsorptionInput((pkt, pkt), 4, BOSE)
    assert err.value.field == "detector_spin"


@pytest.mark.parametrize("count", [0, 3])
def test_input_holds_one_or_two_packets(count):
    pkt = Wavepacket(cos_basis(), (0.0, 1.0, 0.0), 0)
    with pytest.raises(ParameterError, match=f"need one or two packets, got {count}") as err:
        AbsorptionInput((pkt,) * count, 0, BOSE)
    assert err.value.field == "packets"


def test_input_stores_a_packet_list_as_a_tuple():
    basis = cos_basis()
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    inp = AbsorptionInput([a, b], 0, FERMI)
    assert inp.packets == (a, b)
    assert inp == AbsorptionInput((a, b), 0, FERMI)
    assert AbsorptionInput([a], 0).packets == (a,)


@pytest.mark.parametrize("statistics", ["fermi", "bose", None, 1])
def test_input_rejects_statistics_that_are_not_a_member(statistics):
    # the closed forms read any value but FERMI as Bose, and the oracle's
    # ladder algebra any value but BOSE as Fermi: "fermi" gave a sharp pair
    # at q = 0.3 the closed rate 0.08559 against the oracle's 0.000707
    basis = cos_basis()
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    for packets in ((a, b), (a,)):
        with pytest.raises(ParameterError, match="^statistics must be a Statistics member") as err:
            AbsorptionInput(packets, 0, statistics)
        assert err.value.field == "statistics"


# ----------------------------------------------------------------- second order


def test_same_state_boson_unit_case():
    # one zero-momentum mode, L = 2*pi, unit coupling and elements,
    # channel energy 1: rate = 2/pi exactly
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(1), spins=(0,))
    model = MediumModel(1.0, (MediumChannel("c", 1.0, 1.0, 1.0),))
    pkt = Wavepacket(basis, (1.0,), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = basis.position((float(rng.uniform(0, TWO_PI)),))
        rate = absorption_rate(inp, model, q)
        assert abs(rate - 2 / math.pi) < 1e-12


def ordering_amplitudes(inp, model, q):
    """The two ordering amplitudes (packet_b absorbed first, packet_a absorbed
    first) at ``q``, without the statistics sign or the coupling: each is the
    product of both packet amplitudes, summed literally over the modes, and
    the channel weight of the packet absorbed first at its mean kinetic
    energy."""
    basis = inp.packets[0].basis
    waves = [mode_wavefunction(basis, k, q) for k in range(basis.n_modes)]
    psi, weight = [], []
    for packet in inp.packets:
        psi.append(sum(a * wave for a, wave in zip(packet.amplitudes, waves)))
        mean = sum(
            abs(a) ** 2 * energy for a, energy in zip(packet.amplitudes, basis.kinetic_energies)
        )
        weight.append(sum(
            ch.element_out * ch.element_in / (mean - ch.energy) for ch in model.channels
        ))
    return weight[1] * psi[1] * psi[0], weight[0] * psi[0] * psi[1]


def test_rate_matches_terms_assembly():
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(3)
    a = random_packet(rng, basis)
    b = random_packet(rng, basis)
    inp = AbsorptionInput((a, b), 0, BOSE)
    q = basis.position((1.9,))
    rate = absorption_rate(inp, model, q)
    assembled = (
        2 * math.pi / basis.hbar**2
        * abs(model.coupling) ** 4
        * abs(sum(ordering_amplitudes(inp, model, q))) ** 2
    )
    assert abs(rate - assembled) < 1e-12 * max(rate, 1.0)


def test_statistics_flip_negates_partner_first_term():
    # |T_b + T_a|^2 - |-T_b + T_a|^2 = 4 Re(T_b conj(T_a)): the Fermi sign
    # negates one ordering against the other, the orderings formed literally
    basis = cos_basis()
    model = safe_model()
    prefactor = 2 * math.pi / basis.hbar**2 * abs(model.coupling) ** 4
    rng = np.random.default_rng(5)
    sharp = (Wavepacket(basis, (0.0, 1.0, 0.0), 0), Wavepacket(basis, (1.0, 0.0, 0.0), 0))
    q = basis.position((0.8,))
    for a, b in (sharp, orthogonal_pair(rng, basis)):
        bose, fermi = (
            evaluate_rates(AbsorptionInput((a, b), 0, stats), model, [q]).rate_order2[0]
            for stats in (BOSE, FERMI)
        )
        t_b, t_a = ordering_amplitudes(AbsorptionInput((a, b), 0, BOSE), model, q)
        want = 4 * prefactor * (t_b * t_a.conjugate()).real
        scale = prefactor * (abs(t_b) + abs(t_a)) ** 2
        assert abs((bose - fermi) - want) < 1e-12 * scale
        assert abs(bose - prefactor * abs(t_b + t_a) ** 2) < 1e-12 * scale


def test_second_order_spin_selection():
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(4)
    for stats in (BOSE, FERMI):
        for _ in range(10):
            sa = int(rng.integers(0, 2))
            sb = int(rng.integers(0, 2))
            det = int(rng.integers(0, 2))
            a = random_packet(rng, basis, sa)
            b = random_packet(rng, basis, sb)
            inp = AbsorptionInput((a, b), det, stats)
            q = basis.position((float(rng.uniform(0, TWO_PI)),))
            rate = absorption_rate(inp, model, q)
            if sa == det and sb == det:
                continue
            assert rate == 0.0


def test_orthogonal_packets_obey_product_density_law():
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(5)
    for stats in (BOSE, FERMI):
        f, g = orthogonal_pair(rng, basis)
        inp = AbsorptionInput((f, g), 0, stats)
        ratios = []
        for k in range(12):
            q = basis.position((TWO_PI * (k + 0.37) / 12,))
            dens = (
                abs(position_amplitude(f, q)) ** 2
                * abs(position_amplitude(g, q)) ** 2
            )
            if dens < 1e-12:
                continue
            ratios.append(absorption_rate(inp, model, q) / dens)
        assert len(ratios) >= 10
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread < 1e-10


def test_same_state_boson_quartic_scaling():
    basis = cos_basis()
    model = safe_model()
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    qs = [basis.position((x,)) for x in (0.3, 0.9, 1.3, 2.2, 2.8)]
    rates = [absorption_rate(inp, model, q) for q in qs]
    amps = [abs(position_amplitude(pkt, q)) for q in qs]
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            lhs = rates[i] / rates[j]
            rhs = (amps[i] / amps[j]) ** 4
            assert abs(lhs - rhs) / rhs < 1e-10


def test_global_phase_invariance():
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(6)
    a = random_packet(rng, basis)
    b = random_packet(rng, basis)
    phase = cmath.exp(1.2j)
    a_rot = Wavepacket(basis, tuple(phase * x for x in a.amplitudes), 0)
    q = basis.position((2.6,))
    w1 = absorption_rate(AbsorptionInput((a,), 0), model, q)
    w1_rot = absorption_rate(AbsorptionInput((a_rot,), 0), model, q)
    assert abs(w1 - w1_rot) < 1e-12 * max(w1, 1.0)
    for stats in (BOSE, FERMI):
        w2 = absorption_rate(AbsorptionInput((a, b), 0, stats), model, q)
        w2_rot = absorption_rate(AbsorptionInput((a_rot, b), 0, stats), model, q)
        assert abs(w2 - w2_rot) < 1e-12 * max(w2, 1.0)


def test_resonant_channel_raises():
    basis = cos_basis()
    # mode n=1 kinetic energy is exactly 0.5
    model = MediumModel(1.0, (MediumChannel("res", 1.0, 1.0, 0.5),))
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    with pytest.raises(ResonanceError):
        absorption_rate(inp, model, basis.position((0.5,)))


def test_resonance_checked_even_when_spins_kill_rate():
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("res", 1.0, 1.0, 0.5),))
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (0.0, 1.0, 0.0), 1)
    inp = AbsorptionInput((a, b), 0, BOSE)
    with pytest.raises(ResonanceError):
        absorption_rate(inp, model, basis.position((0.5,)))


@pytest.mark.parametrize("convention", ["mean", "per_mode"])
@pytest.mark.parametrize("spins", [(0, 0), (0, 1)])
def test_a_pair_whose_rate_bound_overflows_is_rejected_before_any_position(convention, spins):
    # each factor is finite, and so is element_out * element_in; the rate
    # |coupling|^4 |W psi_a psi_b|^2 ~ 1e320 is not, where the spins match
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("big", 1e150, 1e10, 3.0),))
    a = Wavepacket(basis, (0.0, 1.0, 0.0), spins[0])
    b = Wavepacket(basis, (1.0, 0.0, 0.0), spins[1])
    inp = AbsorptionInput((a, b), 0, BOSE)
    for coords in ([], [(0.5,)]):
        with pytest.raises(ParameterError, match="second-order rate bound") as err:
            evaluate_rates(inp, model, coords)
        assert err.value.field == "channels"
    # with a 1e10 times smaller element the bound, ~1e299, is finite, and so is the rate
    small = MediumModel(1.0, (MediumChannel("big", 1e140, 1e10, 3.0),))
    batch = evaluate_rates(inp, small, [(0.5,)])
    rate = batch.rate_order2 if convention == "mean" else batch.rate_order2_per_mode
    assert np.isfinite(rate).all()


def test_a_pair_whose_per_mode_rate_bound_alone_overflows_is_rejected():
    # the channel sits 1e-8 above mode 1's kinetic energy 0.5: clear of
    # resonance, and of the pair's mean energy 0.25 by 0.25, so the mean
    # weight is ~4e147 and its bound ~4e295 finite, while mode 1's weight
    # is ~1e155 and the per-mode bound past the largest float
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("near", 1e142, 1e5, 0.5 + 1e-8),))
    root_half = math.sqrt(0.5)
    pkt = Wavepacket(basis, (root_half, root_half, 0.0), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    far = MediumModel(1.0, (MediumChannel("near", 1e142, 1e5, 3.0),))
    assert math.isfinite(evaluate_rates(inp, far, []).bound_order2_per_mode)
    for coords in ([], [(0.5,)]):
        with pytest.raises(ParameterError, match="second-order rate bound") as err:
            evaluate_rates(inp, model, coords)
        assert err.value.field == "channels"


def test_a_channel_resonant_with_an_occupied_mode_raises_naming_both():
    # the pair's mean kinetic energy is 0.25, clear of the channel at 0.5,
    # but mode 1, occupied, sits exactly on it: the oracle rejects the
    # input, and so does every closed form, naming the mode and the channel
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3))
    model = MediumModel(1.0, (MediumChannel("ch0", 1.0, 1.0, 0.5),))
    root_half = math.sqrt(0.5)
    pkt = Wavepacket(basis, (root_half, root_half, 0.0), 0)
    message = (
        "energy denominator 0.0 for mode 1 and channel 'ch0' is nan or within 1e-09 of resonance"
    )
    for statistics in (BOSE, FERMI):
        partner = pkt if statistics is BOSE else Wavepacket(basis, (root_half, -root_half, 0.0), 0)
        inp = AbsorptionInput((pkt, partner), 0, statistics)
        for coords in ([], [(0.5,)]):
            with pytest.raises(ResonanceError, match=f"^{message}$"):
                evaluate_rates(inp, model, coords)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("spin", [0, 1])
def test_a_first_order_rate_bound_that_overflows_is_rejected_before_any_position(order, spin):
    # |coupling * element|^2 = 1e306 is finite, (2 pi / hbar^2) times it is not
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(3), hbar=0.01)
    channel = MediumChannel("c", 1.0, 1.0, 3.0)
    models = [
        (MediumModel(1.0, (channel,), first_order_element=1e153), "first_order_element"),
        (MediumModel(1.0, (MediumChannel("c", 1e153, 1.0, 3.0),)), "channels"),
    ]
    a = Wavepacket(basis, (0.0, 1.0, 0.0), spin)
    inp = AbsorptionInput((a, Wavepacket(basis, (1.0, 0.0, 0.0), 0))[:order], 0, BOSE)
    for model, key in models:
        for coords in ([], [(0.5,)]):
            with pytest.raises(ParameterError, match="first-order rate bound") as err:
                evaluate_rates(inp, model, coords)
            assert err.value.field == key


def test_second_order_requires_channels():
    basis = cos_basis()
    model = MediumModel(1.0, (), first_order_element=1.0)
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    with pytest.raises(ValueError):
        absorption_rate(inp, model, basis.position((0.1,)))


def test_absorption_rate_is_at_the_order_of_its_input():
    # one packet gives its first-order rate, a pair its second-order one: both nonzero here
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("c", 1.0, 1.0, 3.0),), first_order_element=1.0)
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    q = basis.position((0.1,))
    for packets, field in (((pkt,), "rate_order1"), ((pkt, pkt), "rate_order2")):
        inp = AbsorptionInput(packets, 0)
        rate = absorption_rate(inp, model, q)
        assert type(rate) is float and rate > 0.0
        assert rate == getattr(evaluate_rates(inp, model, [q]), field)[0]


# ----------------------------------------------------------------- exponents


def test_log_log_slope_recovers_power_law():
    d = np.linspace(0.2, 1.8, 9)
    assert abs(log_log_slope(list(d), list(3.7 * d**2)) - 2.0) < 1e-9
    assert abs(log_log_slope(list(d), list(0.2 * d)) - 1.0) < 1e-9


def test_log_log_slope_input_gates():
    with pytest.raises(ValueError):
        log_log_slope([1.0, 2.0], [1.0, 4.0])
    with pytest.raises(ValueError):
        log_log_slope([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        log_log_slope([1.0, 2.0, 3.0], [1.0, 2.0])
    # ungated, a nan drops out of the fit, an inf rate gives a nan slope and
    # an inf density a LinAlgError from LAPACK
    for densities, rates in (
        ([1.0, 2.0, math.nan, 3.0], [1.0, 4.0, 9.0, 9.0]),
        ([1.0, 2.0, 3.0], [1.0, 4.0, math.inf]),
        ([1.0, 2.0, math.inf], [1.0, 4.0, 9.0]),
    ):
        with pytest.raises(ValueError, match="^densities and rates must be finite$"):
            log_log_slope(densities, rates)


def test_exponent_two_for_same_state_bosons():
    basis = cos_basis()
    model = safe_model()
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    qs = [basis.position((x,)) for x in (0.2, 0.5, 0.8, 1.1, 1.35, 2.1, 2.6, 2.9)]
    assert abs(proportionality_exponent(inp, model, qs) - 2.0) < 1e-6


def test_exponent_two_for_any_boson_pair():
    # the rate goes as |psi_a|^2 |psi_b|^2, so a pair of different packets
    # is fitted against the geometric mean of their densities
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(8)
    a = random_packet(rng, basis)
    b = random_packet(rng, basis)
    inp = AbsorptionInput((a, b), 0, BOSE)
    qs = [basis.position((x,)) for x in (0.2, 0.5, 0.8, 1.1, 1.35, 2.1, 2.6, 2.9)]
    assert abs(proportionality_exponent(inp, model, qs) - 2.0) < 1e-6


def test_exponent_one_for_first_order():
    basis = cos_basis()
    model = safe_model()
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    qs = [basis.position((x,)) for x in (0.2, 0.5, 0.8, 1.1, 1.35, 2.1, 2.6, 2.9)]
    rates = [absorption_rate(AbsorptionInput((pkt,), 0), model, q) for q in qs]
    dens = [abs(position_amplitude(pkt, q)) ** 2 for q in qs]
    assert abs(log_log_slope(dens, rates) - 1.0) < 1e-6


def test_exponent_undefined_for_flat_density():
    basis = ModeBasis([TWO_PI], lowest_mode_numbers(1), spins=(0,))
    model = MediumModel(1.0, (MediumChannel("c", 1.0, 1.0, 1.0),))
    pkt = Wavepacket(basis, (1.0,), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    qs = [basis.position((x,)) for x in (0.1, 0.9, 2.2, 3.3)]
    with pytest.raises(ValueError):
        proportionality_exponent(inp, model, qs)
