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
from operator import mul
from typing import Sequence

import numpy as np

from .fock_core import FockState, ParameterError, SlotKey, Statistics, ladder_sum, vacuum

NORMALIZATION_TOLERANCE = 1e-10


def lowest_mode_numbers(count: int) -> tuple[tuple[int], ...]:
    """The ``count`` lowest 1D mode numbers in the order 0, 1, -1, 2, -2, ..."""
    return tuple(((i + 1) // 2 if i % 2 else -(i // 2),) for i in range(count))


def norm_squared(amplitudes: Sequence[complex]) -> float:
    """sum |a|^2 of the amplitudes, with a sum too large for a float read as inf."""
    try:
        return sum(abs(a) ** 2 for a in amplitudes)
    except OverflowError:  # abs() or ** past the largest float
        return math.inf


def _digits(n: int) -> int:
    """The number of decimal digits of ``n`` > 0, counted without ``str(n)``."""
    d = int(math.log10(n))  # the count, or one or two below it
    return d + (n >= 10**d) + (n >= 10 ** (d + 1))


def _shown(numbers: tuple) -> str:
    """``repr(numbers)``, with an int of over 600 digits shown by its digit
    count: the interpreter may refuse to convert one to str (from 640 digits
    on, under the lowest limit it can be set to)."""
    parts = [
        f"{'-' * (c < 0)}<int of {_digits(abs(c))} digits>"
        if isinstance(c, int) and abs(c) >= 10**600
        else repr(c)
        for c in numbers
    ]
    return f"({', '.join(parts)}{',' * (len(parts) == 1)})"


def _real(value) -> float:
    """``float(value)``, with a number too large for a float read as +-inf,
    which the checks then reject under the field's own name."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        # any sequences are accepted; the fields hold tuples of floats and ints
        set_field = object.__setattr__
        set_field(self, "box_lengths", tuple(map(_real, self.box_lengths)))
        set_field(self, "mode_numbers", tuple(map(tuple, self.mode_numbers)))
        set_field(self, "hbar", _real(self.hbar))
        set_field(self, "mass", _real(self.mass))
        set_field(self, "spins", tuple(self.spins))
        dim = len(self.box_lengths)
        if dim not in (1, 2, 3):
            raise ParameterError("box_lengths", f"need 1 to 3 axes, got {dim}")
        if not all(math.isfinite(v) and v > 0 for v in self.box_lengths):
            raise ParameterError(
                "box_lengths",
                f"box_lengths must be finite and positive, got {self.box_lengths!r}",
            )
        # every density holds 1/V, as every rate holds 1/hbar^2; the product
        # of finite lengths can still underflow to 0 or overflow to inf
        if not (self.volume > 0.0 and 0.0 < 1.0 / self.volume < math.inf):
            raise ParameterError(
                "box_lengths",
                f"1/V must be a finite, nonzero float, got V = {self.volume!r}",
            )
        if not self.mode_numbers:
            raise ParameterError("modes", "at least one mode is required")
        for n in self.mode_numbers:
            # bool is an int subclass, and neither it nor a float is a mode number
            if len(n) != dim or any(type(c) is not int for c in n):
                raise ParameterError("modes", f"mode numbers {_shown(n)} are not {dim} integers")
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
        # every energy denominator holds them; an overflow would make it nan
        for k, energy in enumerate(self.kinetic_energies):
            if not math.isfinite(energy):
                raise ParameterError(
                    "modes",
                    f"kinetic energy of mode {k} {_shown(self.mode_numbers[k])} must be finite, "
                    f"got {energy!r} from hbar = {self.hbar!r}, mass = {self.mass!r}, "
                    f"box_lengths = {self.box_lengths!r}",
                )
        if not self.spins:
            raise ParameterError("spins", "spin label set must be nonempty")
        if len(set(self.spins)) != len(self.spins):
            raise ParameterError("spins", "spin labels must be unique")
        if any(type(s) is not int or s < 0 for s in self.spins):
            raise ParameterError("spins", "spin labels must be nonnegative integers")

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
        """Momentum 2*pi*hbar*n/L per axis of every mode, in mode order.

        A mode number too large for a float gives an infinite momentum, which
        the kinetic-energy check rejects under ``modes``."""
        return tuple(
            tuple(
                2 * math.pi * self.hbar * _real(n) / self.box_lengths[ax]
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
        return tuple(sum(c * c for c in p) / (2 * self.mass) for p in self.momenta)

    def wrap(self, coords: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Wrap rows of coordinates into [0, L) per axis; one row per position."""
        rows = np.asarray(coords, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, self.dim)
        if rows.shape[1:] != (self.dim,):
            raise ValueError(
                f"expected rows of {self.dim} coordinates, got shape {rows.shape}"
            )
        # counted, not .all(): ndarray.all() goes through a Python-level wrapper,
        # which costs a one-row call more than the test itself
        if np.count_nonzero(np.isfinite(rows)) != rows.size:
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
        # any sequence is accepted; a tuple compares and hashes by value
        object.__setattr__(self, "amplitudes", tuple(self.amplitudes))
        if len(self.amplitudes) != self.basis.n_modes:
            raise ParameterError(
                "amplitudes",
                f"expected {self.basis.n_modes} amplitudes, got {len(self.amplitudes)}",
            )
        # bool is an int subclass, and True == 1 and False == 0 would pass the set check
        if type(self.spin) is not int:
            raise ParameterError("spin", f"spin labels must be integers, got {self.spin!r}")
        if self.spin not in self.basis.spins:
            raise ParameterError("spin", f"{self.spin} not in basis spin set")
        norm_sq = norm_squared(self.amplitudes)
        # written so that a nan norm fails the gate too
        if not abs(norm_sq - 1.0) <= NORMALIZATION_TOLERANCE:
            raise ParameterError(
                "amplitudes",
                f"wavepacket norm^2 = {norm_sq!r} is not 1 within "
                f"{NORMALIZATION_TOLERANCE}"
            )


def mode_wavefunction(basis: ModeBasis, mode_index: int, q: tuple[float, ...]) -> complex:
    """Plane-wave value exp(i p.Q / hbar) / sqrt(V) for one mode."""
    # bool is an int subclass, but not a mode index
    if type(mode_index) is not int:
        raise ValueError(f"mode indices must be integers, got {mode_index!r}")
    momenta = basis.momenta
    if not 0 <= mode_index < len(momenta):
        raise IndexError(f"mode index {mode_index} out of range")
    dim = len(basis.box_lengths)
    if len(q) != dim:
        raise ValueError(f"position dim {len(q)} does not match basis {dim}")
    phase = sum(map(mul, momenta[mode_index], q))
    # numpy's complex / real multiplies by the reciprocal; doing so here keeps its bits
    return cmath.exp(1j * phase / basis.hbar) * (1.0 / math.sqrt(basis.volume))


def phase_matrix(basis: ModeBasis, coords: np.ndarray) -> np.ndarray:
    """Mode wavefunctions exp(i p_k.Q_r / hbar) / sqrt(V): row r at the wrapped
    position ``coords[r]`` (see ``ModeBasis.wrap``), column k for mode k."""
    phase = np.dot(coords, basis.momentum_array.T)
    return np.exp(phase * (1j / basis.hbar)) / math.sqrt(basis.volume)


def mean_kinetic_energy(packet: Wavepacket) -> float:
    """Expectation of |p|^2 / 2m in the packet."""
    energies = packet.basis.kinetic_energies
    return sum([abs(a) ** 2 * energy for a, energy in zip(packet.amplitudes, energies)])


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
    # bool is an int subclass, and True == 1 and False == 0 would pass the set check
    if type(spin) is not int:
        raise ValueError(f"spin labels must be integers, got {spin!r}")
    if spin not in basis.spins:
        raise ValueError(f"spin {spin} not in basis spin set")
    if len(q) != basis.dim:
        raise ValueError(f"position dim {len(q)} does not match basis {basis.dim}")
    # the occupied slots at the spin, in mode order
    slots = sorted({s for ket in state.terms for s, _ in ket if s.spin == spin})
    weighted_slots = [(mode_wavefunction(basis, s.mode, q), s) for s in slots]
    return ladder_sum(state, weighted_slots, raising=False)
