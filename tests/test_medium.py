"""Absorbing-medium model: channels, matrix elements, efficiency factor."""

import math

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
    channel_weight,
    efficiency_factor,
    lowest_mode_numbers,
)


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


def test_efficiency_factor_unit_values():
    unit = MediumModel(1.0, (), first_order_element=1.0)
    assert abs(efficiency_factor(unit, UNIT_BASIS) - 2 * math.pi) < 1e-12

    dark = MediumModel(0.0, (), first_order_element=1.0)
    assert efficiency_factor(dark, UNIT_BASIS) == 0.0

    phased = MediumModel(1.0j, (), first_order_element=2.0)
    assert abs(efficiency_factor(phased, UNIT_BASIS) - 8 * math.pi) < 1e-12


def test_efficiency_factor_quadratic_in_coupling():
    base = MediumModel(0.7 - 0.2j, (), first_order_element=1.3 + 0.4j)
    doubled = MediumModel(1.4 - 0.4j, (), first_order_element=1.3 + 0.4j)
    ratio = efficiency_factor(doubled, UNIT_BASIS) / efficiency_factor(base, UNIT_BASIS)
    assert abs(ratio - 4.0) < 1e-12


def test_channel_weight_values():
    ch = MediumChannel("c", 1.0, 1.0, 0.5)
    assert channel_weight(ch, 2.0) == 0.5
    dark = MediumChannel("d", 0.0, 3.0, 0.5)
    assert channel_weight(dark, 2.0) == 0.0


def test_channel_weight_linearity():
    denom = 1.7
    for scale in (2.0, -0.5 + 1.0j):
        base = MediumChannel("c", 1.1 - 0.2j, 0.7 + 0.5j, 0.0)
        in_scaled = MediumChannel("c", scale * base.element_in, base.element_out, 0.0)
        out_scaled = MediumChannel("c", base.element_in, scale * base.element_out, 0.0)
        want = scale * channel_weight(base, denom)
        assert abs(channel_weight(in_scaled, denom) - want) < 1e-12
        assert abs(channel_weight(out_scaled, denom) - want) < 1e-12


def test_channel_weight_resonance():
    ch = MediumChannel("c", 1.0, 1.0, 0.5)
    with pytest.raises(ResonanceError):
        channel_weight(ch, 0.0)
    with pytest.raises(ResonanceError):
        channel_weight(ch, 1e-10)
    # the error names the channel
    try:
        channel_weight(ch, 0.0)
    except ResonanceError as exc:
        assert "c" in str(exc)


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
    (lambda: channel_weight(UNIT_CHANNEL, NAN), "nan"),
    (lambda: channel_weight(UNIT_CHANNEL, complex(NAN, 1.0)), "nan"),
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
