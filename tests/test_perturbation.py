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
    efficiency_factor,
    evaluate_rates,
    log_log_slope,
    lowest_mode_numbers,
    proportionality_exponent,
    rate_first_order,
    rate_second_order,
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
        assert abs(rate_first_order(pkt, 0, q, model) - 1.0) < 1e-12


def test_first_order_spin_mismatch_is_zero():
    basis = cos_basis()
    model = safe_model()
    pkt = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    q = basis.position((0.4,))
    assert rate_first_order(pkt, 1, q, model) == 0.0


def test_first_order_node_of_cos_packet():
    basis = cos_basis()
    model = safe_model()
    w = 1 / math.sqrt(2)
    pkt = Wavepacket(basis, (0.0, w, w), 0)
    node = basis.position((math.pi / 2,))
    assert rate_first_order(pkt, 0, node, model) < 1e-28


def test_first_order_rejects_unknown_detector_spin():
    basis = cos_basis()
    pkt = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    with pytest.raises(ValueError):
        rate_first_order(pkt, 5, basis.position((0.0,)), safe_model())


def test_born_quadrature_integrates_to_efficiency():
    basis = cos_basis()
    model = safe_model()
    beta = efficiency_factor(model, basis)
    rng = np.random.default_rng(1)
    positions, weight = uniform_grid(basis, 16)
    for _ in range(10):
        pkt = random_packet(rng, basis)
        total = sum(
            rate_first_order(pkt, 0, q, model) for q in positions
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
        rate = rate_second_order(inp, q, model)
        assert abs(rate - 2 / math.pi) < 1e-12


def test_rate_matches_terms_assembly():
    basis = cos_basis()
    model = safe_model()
    rng = np.random.default_rng(3)
    a = random_packet(rng, basis)
    b = random_packet(rng, basis)
    inp = AbsorptionInput((a, b), 0, BOSE)
    q = basis.position((1.9,))
    rate = rate_second_order(inp, q, model)
    assembled = (
        2 * math.pi / basis.hbar**2
        * abs(model.coupling) ** 4
        * abs(sum(evaluate_rates(inp, model, [q]).terms[0])) ** 2
    )
    assert abs(rate - assembled) < 1e-12 * max(rate, 1.0)


def test_statistics_flip_negates_partner_first_term():
    basis = cos_basis()
    model = safe_model()
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (1.0, 0.0, 0.0), 0)
    q = basis.position((0.8,))
    bose_terms = evaluate_rates(AbsorptionInput((a, b), 0, BOSE), model, [q]).terms[0]
    fermi_terms = evaluate_rates(AbsorptionInput((a, b), 0, FERMI), model, [q]).terms[0]
    assert abs(bose_terms[0] + fermi_terms[0]) < 1e-15
    assert abs(bose_terms[1] - fermi_terms[1]) < 1e-15


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
            rate = rate_second_order(inp, q, model)
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
            ratios.append(rate_second_order(inp, q, model) / dens)
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
    rates = [rate_second_order(inp, q, model) for q in qs]
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
    w1 = rate_first_order(a, 0, q, model)
    w1_rot = rate_first_order(a_rot, 0, q, model)
    assert abs(w1 - w1_rot) < 1e-12 * max(w1, 1.0)
    for stats in (BOSE, FERMI):
        w2 = rate_second_order(AbsorptionInput((a, b), 0, stats), q, model)
        w2_rot = rate_second_order(
            AbsorptionInput((a_rot, b), 0, stats), q, model
        )
        assert abs(w2 - w2_rot) < 1e-12 * max(w2, 1.0)


def test_resonant_channel_raises():
    basis = cos_basis()
    # mode n=1 kinetic energy is exactly 0.5
    model = MediumModel(1.0, (MediumChannel("res", 1.0, 1.0, 0.5),))
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    with pytest.raises(ResonanceError):
        rate_second_order(inp, basis.position((0.5,)), model)


def test_resonance_checked_even_when_spins_kill_rate():
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("res", 1.0, 1.0, 0.5),))
    a = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    b = Wavepacket(basis, (0.0, 1.0, 0.0), 1)
    inp = AbsorptionInput((a, b), 0, BOSE)
    with pytest.raises(ResonanceError):
        rate_second_order(inp, basis.position((0.5,)), model)


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
            evaluate_rates(inp, model, coords, energy_convention=convention)
        assert err.value.field == "channels"
    # with a 1e10 times smaller element the bound, ~1e299, is finite, and so is the rate
    small = MediumModel(1.0, (MediumChannel("big", 1e140, 1e10, 3.0),))
    rate = evaluate_rates(inp, small, [(0.5,)], energy_convention=convention).rate_order2
    assert np.isfinite(rate).all()


def test_second_order_requires_channels():
    basis = cos_basis()
    model = MediumModel(1.0, (), first_order_element=1.0)
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    inp = AbsorptionInput((pkt, pkt), 0, BOSE)
    with pytest.raises(ValueError):
        rate_second_order(inp, basis.position((0.1,)), model)


def test_second_order_rejects_a_single_packet():
    # the packet's first-order rate is nonzero here, so a zero would be silent
    basis = cos_basis()
    model = MediumModel(1.0, (MediumChannel("c", 1.0, 1.0, 3.0),), first_order_element=1.0)
    pkt = Wavepacket(basis, (0.0, 1.0, 0.0), 0)
    q = basis.position((0.1,))
    assert rate_first_order(pkt, 0, q, model) > 0.0
    with pytest.raises(ValueError, match="needs a pair of packets, got one"):
        rate_second_order(AbsorptionInput((pkt,), 0), q, model)


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
    rates = [rate_first_order(pkt, 0, q, model) for q in qs]
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
