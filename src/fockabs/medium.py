"""Phenomenological absorbing-medium model.

The medium is characterized by complex matrix elements of its transition
operator rather than by internal dynamics: a first-order element for the
single-absorption final state, and per-channel (element_in, element_out,
energy) triples for the intermediate states reached while absorbing twice.
Channel energies are measured from the medium ground state at 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

RESONANCE_THRESHOLD = 1e-9

FIRST_ORDER_LABEL = "M1"


class ResonanceError(ValueError):
    """An energy denominator is too close to zero for perturbation theory."""


def check_prefactor(name: str, value: complex, power: int) -> None:
    """Raise ``ValueError`` unless |value|**power, a factor of a rate prefactor, is finite."""
    try:
        finite = math.isfinite(abs(value) ** power)
    except OverflowError:  # abs() or ** past the largest float
        finite = False
    if not finite:
        raise ValueError(f"|{name}|^{power} must be a finite float, got {name} = {value!r}")


@dataclass(frozen=True)
class MediumChannel:
    """One intermediate medium state reachable by absorbing a particle.

    ``element_in`` is the matrix element from the ground state into the
    channel, ``element_out`` the one from the channel to the final state.
    """

    label: str
    element_in: complex
    element_out: complex
    energy: float

    def __post_init__(self) -> None:
        for name in ("element_in", "element_out", "energy"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"channel {self.label!r}: {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class MediumModel:
    """Coupling constant plus the medium matrix elements.

    ``first_order_element`` is the single-absorption matrix element; it
    defaults to the first channel's ``element_in`` when channels exist.
    """

    coupling: complex
    channels: tuple[MediumChannel, ...] = ()
    first_order_element: complex | None = None

    def __post_init__(self) -> None:
        labels = [ch.label for ch in self.channels]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate channel labels: {labels}")
        if FIRST_ORDER_LABEL in labels:
            raise ValueError(
                f"channel label {FIRST_ORDER_LABEL!r} is reserved for the "
                f"first-order final state"
            )
        energies = [ch.energy for ch in self.channels]
        if len(set(energies)) != len(energies):
            raise ValueError(
                f"degenerate channel energies are not supported: {energies}"
            )
        if self.first_order_element is None:
            if not self.channels:
                raise ValueError(
                    "first_order_element is required when no channels are given"
                )
            object.__setattr__(
                self, "first_order_element", self.channels[0].element_in
            )
        # the second-order rate holds |coupling|^4, the first-order one |coupling M1|^2
        check_prefactor("coupling", self.coupling, 4)
        check_prefactor("coupling * first_order_element", self.coupling * self.first_order_element, 2)

    def element_for(self, label: str) -> complex:
        """Absorption matrix element for a named final or channel state."""
        if label == FIRST_ORDER_LABEL:
            assert self.first_order_element is not None
            return self.first_order_element
        for ch in self.channels:
            if ch.label == label:
                return ch.element_in
        raise ValueError(f"unknown medium label {label!r}")


def efficiency_factor(model: MediumModel, hbar: float) -> float:
    """First-order rate prefactor (2 pi / hbar^2) |coupling * element|^2."""
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")
    assert model.first_order_element is not None
    return (
        2.0 * math.pi / hbar**2 * abs(model.coupling * model.first_order_element) ** 2
    )


def check_resonance(denominator: complex, label: str, mode: int | None = None) -> None:
    """Raise ``ResonanceError`` unless ``denominator`` is clear of resonance."""
    # written so that a nan denominator fails the gate too
    if not abs(denominator) >= RESONANCE_THRESHOLD:
        where = f"channel {label!r}" if mode is None else f"mode {mode} and channel {label!r}"
        raise ResonanceError(
            f"energy denominator {denominator!r} for {where} is nan or "
            f"within {RESONANCE_THRESHOLD} of resonance"
        )


def channel_weight(channel: MediumChannel, denominator: complex) -> complex:
    """Second-order channel factor element_out * element_in / denominator."""
    check_resonance(denominator, channel.label)
    return channel.element_out * channel.element_in / denominator
