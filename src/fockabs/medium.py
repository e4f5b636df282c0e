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
from dataclasses import dataclass, field

from .fock_core import ParameterError

RESONANCE_THRESHOLD = 1e-9


class ResonanceError(ValueError):
    """An energy denominator is too close to zero for perturbation theory."""


def _check_prefactor(field: str, name: str, value: complex, power: int) -> None:
    """Raise ``ParameterError`` for ``field`` unless |value|**power, a factor of a
    rate prefactor, is finite."""
    try:
        finite = math.isfinite(abs(value) ** power)
    except OverflowError:  # abs() or ** past the largest float
        finite = False
    if not finite:
        shown = f"|{name}|" if power == 1 else f"|{name}|^{power}"
        raise ParameterError(field, f"{shown} must be a finite float, got {name} = {value!r}")


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
                raise ParameterError(
                    name, f"channel {self.label!r}: {name} must be finite, got {value!r}"
                )
        # every second-order rate holds it; one that overflows makes the rate nan
        product = self.element_out * self.element_in
        _check_prefactor("element_in", "element_out * element_in", product, 1)


@dataclass(frozen=True)
class MediumModel:
    """Coupling constant plus the medium matrix elements.

    ``first_order_element`` is the single-absorption matrix element; it
    defaults to the first channel's ``element_in`` when channels exist.
    """

    coupling: complex
    channels: tuple[MediumChannel, ...] = ()
    first_order_element: complex | None = None
    # the config key that set first_order_element, named by errors raised later
    _first_order_key: str = field(
        default="first_order_element", init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # the second-order rate holds |coupling|^4, the first-order one
        # |coupling * first_order_element|^2
        _check_prefactor("coupling", "coupling", self.coupling, 4)
        product = "coupling * first_order_element"
        if self.first_order_element is not None:
            _check_prefactor(
                "first_order_element", product, self.coupling * self.first_order_element, 2
            )
        labels = [ch.label for ch in self.channels]
        if len(set(labels)) != len(labels):
            raise ParameterError("channels", f"duplicate channel labels: {labels}")
        energies = [ch.energy for ch in self.channels]
        if len(set(energies)) != len(energies):
            raise ParameterError(
                "channels", f"degenerate channel energies are not supported: {energies}"
            )
        if self.first_order_element is None:
            if not self.channels:
                raise ParameterError(
                    "first_order_element",
                    "first_order_element is required when no channels are given",
                )
            default = self.channels[0].element_in
            _check_prefactor("channels", product, self.coupling * default, 2)
            object.__setattr__(self, "first_order_element", default)
            object.__setattr__(self, "_first_order_key", "channels")


def check_resonance(denominator: complex, label: str, mode: int | None = None) -> None:
    """Raise ``ResonanceError`` unless ``denominator`` is clear of resonance."""
    # written so that a nan denominator fails the gate too
    if not abs(denominator) >= RESONANCE_THRESHOLD:
        where = f"channel {label!r}" if mode is None else f"mode {mode} and channel {label!r}"
        raise ResonanceError(
            f"energy denominator {denominator!r} for {where} is nan or "
            f"within {RESONANCE_THRESHOLD} of resonance"
        )
