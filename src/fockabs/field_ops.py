"""Plane-wave modes on a periodic box, wavepackets, and field-operator action.

A ``ModeBasis`` holds a finite momentum grid for a box with periodic
boundaries.  Mode wavefunctions are exp(i p.Q / hbar) / sqrt(V), so the box
volume plays the role a continuum normalization constant would.  Wavepackets
are unit-norm complex amplitude vectors over the modes, tagged with a spin
label.  ``field_annihilate`` applies the position-space field operator for a
fixed spin: the mode-function-weighted sum of slot annihilations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fock_core import FockState, ParameterError, SlotKey, Statistics, ladder_sum, vacuum

NORMALIZATION_TOLERANCE = 1e-10


def lowest_mode_numbers(count: int) -> tuple[tuple[int], ...]:
    """The ``count`` lowest 1D mode numbers in the order 0, 1, -1, 2, -2, ..."""
    return tuple(((i + 1) // 2 if i % 2 else -(i // 2),) for i in range(count))


@dataclass(frozen=True)
class ModeBasis:
    """Finite plane-wave basis on a periodic box.

    Mode k is given by its integer mode numbers ``mode_numbers[k]``, one per
    axis, and has momentum 2*pi*hbar*n/L per axis.  Distinct integer modes
    are orthonormal under the box inner product by construction: the
    overlap of two modes is a product over axes of the box average of
    exp(2*pi*i*dn*x/L), which is 0 for every nonzero integer dn.
    """

    box_lengths: tuple[float, ...]
    mode_numbers: tuple[tuple[int, ...], ...]
    hbar: float = 1.0
    mass: float = 1.0
    spins: tuple[int, ...] = (0, 1)

    def __post_init__(self) -> None:
        dim = len(self.box_lengths)
        if dim not in (1, 2, 3):
            raise ParameterError("box_lengths", f"need 1 to 3 axes, got {dim}")
        if not all(math.isfinite(v) and v > 0 for v in self.box_lengths):
            raise ParameterError(
                "box_lengths",
                f"box_lengths must be finite and positive, got {self.box_lengths!r}",
            )
        if not self.mode_numbers:
            raise ParameterError("modes", "at least one mode is required")
        for n in self.mode_numbers:
            # bool is an int subclass, and neither it nor a float is a mode number
            if len(n) != dim or any(type(c) is not int for c in n):
                raise ParameterError("modes", f"mode numbers {n!r} are not {dim} integers")
        if len(set(self.mode_numbers)) != len(self.mode_numbers):
            raise ParameterError("modes", "mode numbers must be distinct")
        # every rate holds 1/hbar^2, a finite nonzero float only for 1e-154 < hbar < 1e154 or so
        try:
            inverse_sq = 1.0 / self.hbar**2
        except (OverflowError, ZeroDivisionError):
            inverse_sq = 0.0
        if not (self.hbar > 0 and 0.0 < inverse_sq < math.inf):
            raise ParameterError(
                "hbar",
                f"hbar must be positive and 1/hbar^2 a finite, nonzero float, got {self.hbar!r}",
            )
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ParameterError("mass", f"mass must be finite and positive, got {self.mass!r}")
        if not self.spins:
            raise ParameterError("spins", "spin label set must be nonempty")
        if len(set(self.spins)) != len(self.spins):
            raise ParameterError("spins", "spin labels must be unique")
        if any(type(s) is not int or s < 0 for s in self.spins):
            raise ParameterError("spins", "spin labels must be nonnegative integers")

    @classmethod
    def from_mode_numbers(
        cls,
        box_lengths: Sequence[float],
        mode_numbers: Sequence[Sequence[int]],
        hbar: float = 1.0,
        mass: float = 1.0,
        spins: Sequence[int] = (0, 1),
    ) -> "ModeBasis":
        return cls(
            tuple(float(length) for length in box_lengths),
            tuple(tuple(vec) for vec in mode_numbers),
            float(hbar),
            float(mass),
            tuple(spins),
        )

    @classmethod
    def lowest_modes_1d(
        cls,
        count: int,
        length: float,
        hbar: float = 1.0,
        mass: float = 1.0,
        spins: Sequence[int] = (0, 1),
    ) -> "ModeBasis":
        """The ``count`` lowest 1D modes in the order 0, 1, -1, 2, -2, ..."""
        return cls.from_mode_numbers(
            [length], lowest_mode_numbers(count), hbar, mass, spins
        )

    @property
    def dim(self) -> int:
        return len(self.box_lengths)

    @property
    def n_modes(self) -> int:
        return len(self.mode_numbers)

    @cached_property
    def volume(self) -> float:
        return math.prod(self.box_lengths)

    @cached_property
    def length_array(self) -> np.ndarray:
        return np.array(self.box_lengths)

    @cached_property
    def momenta(self) -> tuple[tuple[float, ...], ...]:
        """Momentum 2*pi*hbar*n/L per axis of every mode, in mode order."""
        return tuple(
            tuple(
                2 * math.pi * self.hbar * n / self.box_lengths[ax]
                for ax, n in enumerate(vec)
            )
            for vec in self.mode_numbers
        )

    @cached_property
    def momentum_array(self) -> np.ndarray:
        """The momenta as an (n_modes, dim) array."""
        return np.array(self.momenta)

    @cached_property
    def kinetic_energies(self) -> tuple[float, ...]:
        """|p|^2 / 2m of every mode, in mode order."""
        return tuple(self.kinetic_energy(i) for i in range(self.n_modes))

    def kinetic_energy(self, mode_index: int) -> float:
        """|p|^2 / 2m for one mode."""
        p = self.momenta[mode_index]
        return sum(c * c for c in p) / (2 * self.mass)

    def wrap(self, coords: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Wrap rows of coordinates into [0, L) per axis; one row per position."""
        rows = np.asarray(coords, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, self.dim)
        if rows.shape[1:] != (self.dim,):
            raise ValueError(
                f"expected rows of {self.dim} coordinates, got shape {rows.shape}"
            )
        if not np.isfinite(rows).all():
            raise ValueError("position coordinates must be finite")
        lengths = self.length_array
        wrapped = np.mod(rows, lengths)
        # a tiny negative coordinate rounds up to exactly L, the same point as 0
        wrapped[wrapped == lengths] = 0.0
        return wrapped

    def position(self, coords: Sequence[float]) -> tuple[float, ...]:
        """One position wrapped into [0, L) per axis: ``wrap``'s one-row case."""
        return tuple(self.wrap([coords])[0].tolist())


@dataclass(frozen=True)
class Wavepacket:
    """Unit-norm amplitude vector over the basis modes, with a spin label."""

    basis: ModeBasis
    amplitudes: tuple[complex, ...]
    spin: int

    def __post_init__(self) -> None:
        if len(self.amplitudes) != self.basis.n_modes:
            raise ParameterError(
                "amplitudes",
                f"expected {self.basis.n_modes} amplitudes, got {len(self.amplitudes)}",
            )
        if self.spin not in self.basis.spins:
            raise ParameterError("spin", f"{self.spin} not in basis spin set")
        norm_sq = sum(abs(a) ** 2 for a in self.amplitudes)
        # written so that a nan norm fails the gate too
        if not abs(norm_sq - 1.0) <= NORMALIZATION_TOLERANCE:
            raise ParameterError(
                "amplitudes",
                f"wavepacket norm^2 = {norm_sq!r} is not 1 within "
                f"{NORMALIZATION_TOLERANCE}"
            )


def mode_wavefunction(basis: ModeBasis, mode_index: int, q: tuple[float, ...]) -> complex:
    """Plane-wave value exp(i p.Q / hbar) / sqrt(V) for one mode."""
    if not 0 <= mode_index < basis.n_modes:
        raise IndexError(f"mode index {mode_index} out of range")
    if len(q) != basis.dim:
        raise ValueError(f"position dim {len(q)} does not match basis {basis.dim}")
    phase = sum(p * x for p, x in zip(basis.momenta[mode_index], q))
    # numpy's complex / real multiplies by the reciprocal; doing so here keeps its bits
    return cmath.exp(1j * phase / basis.hbar) * (1.0 / math.sqrt(basis.volume))


def phase_matrix(basis: ModeBasis, coords: np.ndarray) -> np.ndarray:
    """Mode wavefunctions exp(i p_k.Q_r / hbar) / sqrt(V): row r at the wrapped
    position ``coords[r]`` (see ``ModeBasis.wrap``), column k for mode k."""
    phase = np.dot(coords, basis.momentum_array.T)
    return np.exp(phase * (1j / basis.hbar)) / math.sqrt(basis.volume)


def position_amplitude(packet: Wavepacket, q: tuple[float, ...]) -> complex:
    """Position-space amplitude: the mode sum of amplitude * wavefunction."""
    row = phase_matrix(packet.basis, packet.basis.wrap([q]))
    return complex(np.dot(row, np.array(packet.amplitudes))[0])


def overlap(f: Wavepacket, g: Wavepacket) -> complex:
    """Discrete momentum-space overlap <f|g>; spins are not compared."""
    if f.basis != g.basis:
        raise ValueError("wavepackets live on different bases")
    return complex(np.vdot(np.array(f.amplitudes), np.array(g.amplitudes)))


def mean_kinetic_energy(packet: Wavepacket) -> float:
    """Expectation of |p|^2 / 2m in the packet."""
    return sum(
        abs(a) ** 2 * energy
        for a, energy in zip(packet.amplitudes, packet.basis.kinetic_energies)
    )


def apply_packet_creation(state: FockState, packet: Wavepacket) -> FockState:
    """Apply the packet creation operator sum_b f(b) adag_(b, spin)."""
    weighted_slots = [
        (amp, SlotKey(i, packet.spin))
        for i, amp in enumerate(packet.amplitudes)
        if abs(amp) != 0.0
    ]
    return ladder_sum(state, weighted_slots, raising=True)


def packet_state(packet: Wavepacket, statistics: Statistics) -> FockState:
    """One-particle state of the packet."""
    return apply_packet_creation(vacuum(statistics), packet)


def two_particle_state(
    packet_a: Wavepacket, packet_b: Wavepacket, statistics: Statistics
) -> FockState:
    """Two-particle product state: packet_b created first, then packet_a.

    For fermions with identical packets and equal spins this is the zero
    state (Pauli exclusion), not an error.
    """
    if packet_a.basis != packet_b.basis:
        raise ValueError("wavepackets live on different bases")
    return apply_packet_creation(
        apply_packet_creation(vacuum(statistics), packet_b), packet_a
    )


def field_annihilate(
    state: FockState, basis: ModeBasis, q: tuple[float, ...], spin: int
) -> FockState:
    """Apply sum_q psi_q(Q) a_(q, spin) over the modes some ket occupies at ``spin``."""
    if spin not in basis.spins:
        raise ValueError(f"spin {spin} not in basis spin set")
    if len(q) != basis.dim:
        raise ValueError(f"position dim {len(q)} does not match basis {basis.dim}")
    modes = {s.mode for ket in state.terms for s, _ in ket.occupations if s.spin == spin}
    weighted_slots = [(mode_wavefunction(basis, i, q), SlotKey(i, spin)) for i in sorted(modes)]
    return ladder_sum(state, weighted_slots, raising=False)


def uniform_grid(basis: ModeBasis, points_per_axis: int) -> tuple[list[tuple[float, ...]], float]:
    """Uniform quadrature grid over the box and its per-point volume weight."""
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be at least 1")
    axes = [
        np.linspace(0.0, length, points_per_axis, endpoint=False)
        for length in basis.box_lengths
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    weight = basis.volume / coords.shape[0]
    return [tuple(row) for row in coords.tolist()], weight
