"""Absorbing-medium model: channels, matrix elements, efficiency factor."""

import dataclasses
import math
import re

import numpy as np
import pytest

from fockabs import (
    AbsorptionInput,
    MediumChannel,
    MediumModel,
    ModeBasis,
    ParameterError,
    ResonanceError,
    Wavepacket,
    absorption_rate,
    lowest_mode_numbers,
    mean_kinetic_energy,
)
from fockabs.medium import check_resonance
from fockabs.perturbation import _channel_sum


def two_channel_model():
    return MediumModel(
        coupling=0.9 + 0.3j,
        channels=(
            MediumChannel("ch0", 1.1 - 0.2j, 0.7 + 0.5j, 2.3),
            MediumChannel("ch1", 0.4 + 0.9j, 1.2 - 0.1j, 0.8),
        ),
    )


# hbar = 1
UNIT_BASIS = ModeBasis([2 * math.pi], lowest_mode_numbers(3))
UNIT_PACKET = Wavepacket(UNIT_BASIS, (1.0, 0.0, 0.0), 1)


def _efficiency(model):
    """The first-order rate prefactor (2 pi / hbar^2) |coupling * element|^2:
    a one-mode packet's rate times the volume, as its |psi|^2 is 1/V."""
    rate = absorption_rate(AbsorptionInput((UNIT_PACKET,), 1), model, (0.4,))
    return rate * UNIT_BASIS.volume


def test_efficiency_factor_unit_values():
    unit = MediumModel(1.0, (), first_order_element=1.0)
    assert abs(_efficiency(unit) - 2 * math.pi) < 1e-12

    dark = MediumModel(0.0, (), first_order_element=1.0)
    assert _efficiency(dark) == 0.0

    phased = MediumModel(1.0j, (), first_order_element=2.0)
    assert abs(_efficiency(phased) - 8 * math.pi) < 1e-12


def test_efficiency_factor_quadratic_in_coupling():
    base = MediumModel(0.7 - 0.2j, (), first_order_element=1.3 + 0.4j)
    doubled = MediumModel(1.4 - 0.4j, (), first_order_element=1.3 + 0.4j)
    assert abs(_efficiency(doubled) / _efficiency(base) - 4.0) < 1e-12


def _channel_sums(packet, channels):
    return _channel_sum(packet, MediumModel(0.9 + 0.3j, tuple(channels)))


def literal_weight(channels, energy):
    return sum([ch.element_out * ch.element_in / (energy - ch.energy) for ch in channels])


def test_channel_sum_is_the_literal_sum_over_channels():
    # the mean weight bit for bit, and each occupied mode's amplitude times its own
    channels = two_channel_model().channels
    rng = np.random.default_rng(0)
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    for amplitudes in ((1.0, 0.0, 0.0), (0.0, 0.6, 0.8j), tuple(raw / np.linalg.norm(raw))):
        packet = Wavepacket(UNIT_BASIS, amplitudes, 1)
        mean, weighted = _channel_sums(packet, channels)
        assert mean == literal_weight(channels, mean_kinetic_energy(packet))
        energies = UNIT_BASIS.kinetic_energies
        assert weighted == [a * literal_weight(channels, e) if a else 0j
                            for a, e in zip(amplitudes, energies)]
    # mode 2 alone, at energy 2: a unit channel at 0 gives 1/2, a dark one 0
    basis = ModeBasis([2 * math.pi], [[0], [1], [2]])
    packet = Wavepacket(basis, (0.0, 0.0, 1.0), 0)
    assert _channel_sums(packet, [MediumChannel("c", 1.0, 1.0, 0.0)]) == (0.5, [0j, 0j, 0.5])
    assert _channel_sums(packet, [MediumChannel("d", 0.0, 3.0, 0.0)]) == (0j, [0j, 0j, 0j])


def test_channel_sum_is_linear_in_each_element():
    base = MediumChannel("c", 1.1 - 0.2j, 0.7 + 0.5j, -1.2)
    packet = Wavepacket(UNIT_BASIS, (0.6, 0.0, 0.8j), 1)
    mean, weighted = _channel_sums(packet, [base])
    for scale in (2.0, -0.5 + 1.0j):
        for element in ("element_in", "element_out"):
            scaled = dataclasses.replace(base, **{element: scale * getattr(base, element)})
            got_mean, got = _channel_sums(packet, [scaled])
            assert abs(got_mean - scale * mean) < 1e-12
            assert all(abs(g - scale * w) < 1e-12 for g, w in zip(got, weighted))


def test_a_resonant_channel_names_the_mode_only_off_the_mean():
    # at the mean energy 0.32; at mode 1's 0.5; at the mean of a packet whose
    # modes all sit at 0.5, which is checked first; at mode 2's 0.5
    for amplitudes, energy, where in [
        ((0.6, 0.8, 0.0), 0.32, "for channel 'res' "),
        ((0.6, 0.8, 0.0), 0.5 + 1e-10, "for mode 1 and channel 'res' "),
        ((0.0, 0.6, 0.8), 0.5 - 1e-10, "for channel 'res' "),
        ((0.6, 0.0, 0.8), 0.5, "for mode 2 and channel 'res' "),
    ]:
        channels = [MediumChannel("far", 1.0, 1.0, -3.0), MediumChannel("res", 1.0, 1.0, energy)]
        with pytest.raises(ResonanceError, match=re.escape(where)):
            _channel_sums(Wavepacket(UNIT_BASIS, amplitudes, 1), channels)


def test_a_nan_channel_denominator_is_rejected():
    # a finite energy is a MediumChannel invariant; set past it, the gate still holds
    channel = MediumChannel("c", 1.0, 1.0, 0.5)
    object.__setattr__(channel, "energy", math.nan)
    with pytest.raises(ResonanceError, match="nan"):
        _channel_sums(UNIT_PACKET, [channel])


NAN = math.nan
INF = math.inf
UNIT_CHANNEL = MediumChannel("c", 1.0, 1.0, 0.5)
NON_FINITE_CASES = [
    (lambda: ModeBasis([NAN], [[0]]), "box_lengths"),
    (lambda: ModeBasis([1.0, INF], [[0, 0]]), "box_lengths"),
    (lambda: ModeBasis([1.0], [[0]], hbar=NAN), "hbar"),
    (lambda: ModeBasis([1.0], [[0]], hbar=INF), "hbar"),
    (lambda: ModeBasis([1.0], [[0]], mass=NAN), "mass"),
    (lambda: ModeBasis([1.0], [[0]], mass=INF), "mass"),
    (lambda: UNIT_BASIS.wrap([[INF]]), "coordinates"),
    (lambda: UNIT_BASIS.position((NAN,)), "coordinates"),
    (lambda: MediumChannel("c", 1.0, 1.0, NAN), "energy"),
    (lambda: MediumChannel("c", 1.0, 1.0, INF), "energy"),
    (lambda: MediumChannel("c", complex(NAN, 0.0), 1.0, 0.5), "element_in"),
    (lambda: MediumChannel("c", 1.0, complex(0.0, INF), 0.5), "element_out"),
    (lambda: MediumModel(NAN, (UNIT_CHANNEL,)), "coupling"),
    (lambda: MediumModel(1.0, (), first_order_element=INF), "first_order_element"),
    (lambda: check_resonance(NAN, "c"), "nan"),
    (lambda: check_resonance(complex(NAN, 1.0), "c"), "nan"),
    (lambda: ModeBasis([1.0], [[0]], hbar=-INF), "hbar"),
    (lambda: MediumModel(complex(0.0, INF), (UNIT_CHANNEL,)), "coupling"),
    # finite, but past what the rate prefactors can hold
    (lambda: MediumModel(1e100, (UNIT_CHANNEL,)), "coupling"),
    (lambda: MediumModel(complex(1e308, 1e308), (UNIT_CHANNEL,)), "coupling"),
    (lambda: MediumModel(1.0, (), first_order_element=1e200), "first_order_element"),
    (lambda: MediumModel(1e160, (), first_order_element=1e160), "coupling"),
    (lambda: MediumModel(1e-100, (MediumChannel("c", 1e300, 1.0, 0.5),)), "first_order_element"),
    (lambda: MediumChannel("c", 1e200, 1e200, 0.5), "element_in"),
]


@pytest.mark.parametrize(
    "build, field",
    NON_FINITE_CASES,
    ids=[f"{i}-{field}" for i, (_, field) in enumerate(NON_FINITE_CASES)],
)
def test_domain_inputs_must_be_finite(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_model_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        MediumModel(
            1.0,
            (
                MediumChannel("same", 1.0, 1.0, 0.5),
                MediumChannel("same", 2.0, 2.0, 1.5),
            ),
        )


def test_model_rejects_degenerate_energies():
    with pytest.raises(ValueError):
        MediumModel(
            1.0,
            (
                MediumChannel("a", 1.0, 1.0, 0.5),
                MediumChannel("b", 2.0, 2.0, 0.5),
            ),
        )


def test_model_requires_some_first_order_element():
    with pytest.raises(ValueError):
        MediumModel(1.0, ())


def test_first_order_element_defaults_to_first_channel():
    model = two_channel_model()
    assert model.first_order_element == model.channels[0].element_in
    explicit = MediumModel(1.0, model.channels, first_order_element=5.0)
    assert explicit.first_order_element == 5.0


PARAMETER_CASES = [
    (lambda: ModeBasis([1.0] * 4, [[0] * 4]), "box_lengths"),
    (lambda: ModeBasis([-1.0], [[0]]), "box_lengths"),
    (lambda: ModeBasis([1.0], []), "modes"),
    (lambda: ModeBasis([1.0], [[0], [0]]), "modes"),
    (lambda: ModeBasis([1.0], [[0]], hbar=-1.0), "hbar"),
    (lambda: ModeBasis([1.0], [[0]], hbar=1e-200), "hbar"),
    (lambda: ModeBasis([1.0], [[0]], hbar=1e200), "hbar"),
    (lambda: ModeBasis([1.0], [[0]], mass=0.0), "mass"),
    (lambda: ModeBasis([1.0], [[0]], spins=(0, 0)), "spins"),
    (lambda: Wavepacket(UNIT_BASIS, (1.0, 0.0), 0), "amplitudes"),
    (lambda: Wavepacket(UNIT_BASIS, (1.0, 1.0, 0.0), 0), "amplitudes"),
    (lambda: Wavepacket(UNIT_BASIS, (1.0, 0.0, 0.0), 7), "spin"),
    (lambda: MediumModel(1e100, (UNIT_CHANNEL,)), "coupling"),
    (lambda: MediumModel(1.0, (), first_order_element=1e200), "first_order_element"),
    (lambda: MediumModel(1.0, ()), "first_order_element"),
    (lambda: MediumModel(1.0, (UNIT_CHANNEL, UNIT_CHANNEL)), "channels"),
    # a kinetic energy p^2 / 2m that overflows to inf: a tiny mass
    (lambda: ModeBasis([1.0], [[0], [1]], mass=1e-310), "modes"),
    # a defaulted first-order element is the first channel's element_in
    (lambda: MediumModel(1e-100, (MediumChannel("c", 1e300, 1.0, 0.5),)), "channels"),
    (lambda: MediumChannel("c", 1.0, 1.0, NAN), "energy"),
    # finite lengths whose volume underflows to 0 or overflows to inf
    (lambda: ModeBasis([1e-110] * 3, [[0, 0, 0]]), "box_lengths"),
    (lambda: ModeBasis([1e110] * 3, [[0, 0, 0]]), "box_lengths"),
    # a kinetic energy that overflows to inf in a box whose 1/V is a float
    (lambda: ModeBasis([1e-160], [[0], [1]]), "modes"),
    (lambda: ModeBasis([1.0], [[0]], hbar=0.0), "hbar"),
    # spins are ints: True == 1.0 == np.int64(1) == 1 would pass the set check
    (lambda: Wavepacket(UNIT_BASIS, (1.0, 0.0, 0.0), True), "spin"),
    (lambda: Wavepacket(UNIT_BASIS, (1.0, 0.0, 0.0), 1.0), "spin"),
    (lambda: Wavepacket(UNIT_BASIS, (1.0, 0.0, 0.0), np.int64(1)), "spin"),
    (lambda: AbsorptionInput((UNIT_PACKET,), True), "detector_spin"),
    (lambda: AbsorptionInput((UNIT_PACKET,), 1.0), "detector_spin"),
    (lambda: AbsorptionInput((UNIT_PACKET,), np.int64(1)), "detector_spin"),
]


@pytest.mark.parametrize(
    "build, field",
    PARAMETER_CASES,
    ids=[f"{i}-{field}" for i, (_, field) in enumerate(PARAMETER_CASES)],
)
def test_constructor_errors_name_their_config_key(build, field):
    with pytest.raises(ParameterError) as err:
        build()
    assert err.value.field == field
