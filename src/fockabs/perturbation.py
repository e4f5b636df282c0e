"""Closed-form absorption rates at first and second perturbative order.

First order: a one-particle packet is absorbed at rate
``efficiency * |psi(Q)|^2`` when its spin matches the detector spin, which
is the position-space one-particle detection law.

Second order: two packets are absorbed through the medium channels.  The
amplitude is a coherent sum of two absorption orderings; each ordering
carries the product of both packet amplitudes at the detector position and
an energy denominator built from the kinetic energy of the packet absorbed
first minus the channel energy.  Bosonic orderings add, fermionic orderings
subtract, so identical fermionic packets cancel exactly while identical
bosonic packets give a rate proportional to |psi(Q)|^4.

The closed form factors one mean kinetic energy per packet out of each
ordering's mode sum (``energy_convention="mean"``).  With
``energy_convention="per_mode"`` the denominators stay inside the mode sums,
which reproduces the brute-force enumeration exactly; both conventions
coincide for sharp packets and for packets whose occupied modes share one
kinetic energy.

Every rate goes through ``evaluate_rates``, batched over positions, and its
``RateBatch`` is the one result type; the scalar functions
``rate_first_order`` and ``rate_second_order`` return the rate of its
one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock_core import ParameterError, Statistics
from .field_ops import (
    Wavepacket,
    mean_kinetic_energy,
    phase_matrix,
)
from .medium import MediumModel, channel_weight, efficiency_factor

MIN_FIT_DENSITY = 1e-12

# Largest positions x modes phase matrix built at once (2**13 complex
# entries, 128 KB): big enough that numpy, not Python, sets the pace, small
# enough that a long scan does not raise the peak memory.
CHUNK_ELEMENTS = 2**13


class IndistinguishableFermionsError(ParameterError):
    """Two fermions in exactly the same packet and spin are forbidden."""


@dataclass(frozen=True)
class AbsorptionInput:
    """One packet, absorbed at first order, or the pair (packet_a, packet_b), packet_b
    created first, absorbed at second order; with the detector spin and statistics.

    A rejected argument raises ``ParameterError`` naming ``packets`` or
    ``detector_spin``, the keys of a config's run section.
    """

    packets: tuple[Wavepacket, ...]
    detector_spin: int
    statistics: Statistics = Statistics.BOSE

    def __post_init__(self) -> None:
        packets = tuple(self.packets)
        object.__setattr__(self, "packets", packets)
        if len(packets) not in (1, 2):
            raise ParameterError("packets", f"need one or two packets, got {len(packets)}")
        a, b = packets[0], packets[-1]
        if b.basis != a.basis:
            raise ParameterError("packets", "packets live on different bases")
        if self.detector_spin not in a.basis.spins:
            raise ParameterError(
                "detector_spin", f"detector spin {self.detector_spin} not in basis spin set"
            )
        fermi_pair = len(packets) == 2 and self.statistics is Statistics.FERMI
        if fermi_pair and (a.spin, a.amplitudes) == (b.spin, b.amplitudes):
            raise IndistinguishableFermionsError(
                "packets", "fermionic pair with identical packets and equal spins"
            )


class RateBatch(NamedTuple):
    """Closed-form results at many positions: row r of every array is position r.

    ``coords`` are the wrapped positions.  Row r of ``terms`` holds the two
    ordering amplitudes (packet_b absorbed first, packet_a absorbed first),
    excluding the coupling constant, so that
    rate_order2 = (2 pi / hbar^2) |coupling|^4 |sum(terms)|^2.
    Second-order columns are zero for a one-packet input.
    """

    coords: np.ndarray
    psi_a: np.ndarray
    psi_b: np.ndarray
    density_a: np.ndarray
    density_b: np.ndarray
    rate_order1: np.ndarray
    rate_order2: np.ndarray
    terms: np.ndarray


def _channel_sum(
    packet: Wavepacket, model: MediumModel, convention: str
) -> complex | list[complex]:
    """Channel weight sum_ch M_out M_in / (E - eps_ch) of the packet absorbed first.

    E is the packet's mean kinetic energy (one number) or each occupied
    mode's own kinetic energy (one number per mode, 0 on unoccupied modes).
    """
    if convention == "mean":
        energy = mean_kinetic_energy(packet)
        return sum(channel_weight(ch, energy - ch.energy) for ch in model.channels)
    if convention == "per_mode":
        energies = packet.basis.kinetic_energies
        occupied = [i for i, amp in enumerate(packet.amplitudes) if amp != 0]
        weights = [0j] * len(energies)
        for ch in model.channels:
            for i in occupied:
                weights[i] += channel_weight(ch, energies[i] - ch.energy)
        return weights
    raise ValueError(f"unknown energy convention {convention!r}")


def _check_order2_bound(
    packets: tuple[Wavepacket, ...], weights: list, prefactor: float
) -> None:
    """Raise ``ParameterError`` for ``channels`` unless the bound on the pair's
    second-order rate at every position is a finite float.

    |psi| <= sum_k |a_k| / sqrt(V), and the packet absorbed first, with its
    channel weights, is bounded alike, so each ordering amplitude is bounded
    by a product of two such sums; the rate is the prefactor times the
    squared sum of both.
    """
    # plain Python: verify calls this once per pair at 2-4 modes, where a
    # numpy call costs more than the sums
    psi = [sum(map(abs, p.amplitudes)) for p in packets]
    try:
        first = [
            sum([abs(a * w) for a, w in zip(p.amplitudes, ws)])
            if isinstance(ws, list)
            else abs(ws) * total
            for p, ws, total in zip(packets, weights, psi)
        ]
        product_sum = first[1] * psi[0] + first[0] * psi[1]
        bound = prefactor * (product_sum / packets[0].basis.volume) ** 2
    except OverflowError:  # abs() or ** past the largest float
        bound = math.inf
    if not math.isfinite(bound):
        raise ParameterError(
            "channels",
            "the second-order rate bound (2 pi / hbar^2) |coupling|^4 "
            "(sum |W_b b_k| sum |a_k| + sum |W_a a_k| sum |b_k|)^2 / V^2 "
            f"must be a finite float, got {bound!r}",
        )


def evaluate_rates(
    inp: AbsorptionInput,
    model: MediumModel,
    coords: Sequence[Sequence[float]] | np.ndarray,
    energy_convention: str = "mean",
) -> RateBatch:
    """Closed-form amplitudes, densities and rates at every position.

    Both second-order orderings carry Kronecker deltas forcing each packet
    spin to equal the detector spin; the packet_b-first term carries the
    statistics sign (+ bosons, - fermions) inherited from commuting the
    field operator through the first-created packet.  Channel weights do
    not depend on position and are computed once per packet, before any
    position, so a resonant denominator raises ResonanceError even where
    the spin deltas zero the rate, and a pair whose second-order rate has
    no finite bound raises ParameterError for ``channels``.  Positions go
    through the phase matrix in chunks of at most CHUNK_ELEMENTS entries.
    """
    packets = inp.packets
    pair = len(packets) == 2
    basis = packets[0].basis
    wrapped = basis.wrap(coords)
    rows = len(wrapped)
    # one column per mode sum: each packet's amplitudes (a zero packet_b for
    # one packet) and, with per-mode weights, each packet's weighted
    # amplitudes.  There are always at least two: BLAS hands a one-column
    # product to threaded matrix-vector code that ran 100-1000x slower on a
    # 2-core machine.
    columns = [p.amplitudes for p in packets]
    if not pair:
        columns.append((0,) * basis.n_modes)
    else:
        if not model.channels:
            raise ValueError("second-order rates require at least one medium channel")
        weights = [_channel_sum(p, model, energy_convention) for p in packets]
        per_mode = energy_convention == "per_mode"
        if per_mode:
            columns += [
                [a * w for a, w in zip(p.amplitudes, ws)]
                for p, ws in zip(packets, weights)
            ]
        prefactor = 2.0 * math.pi / basis.hbar**2 * abs(model.coupling) ** 4
        _check_order2_bound(packets, weights, prefactor)
    modes = np.array(columns, dtype=complex).T
    step = max(1, CHUNK_ELEMENTS // basis.n_modes)
    sums = np.empty((rows, modes.shape[1]), dtype=complex)
    for start in range(0, rows, step):
        chunk = slice(start, start + step)
        sums[chunk] = phase_matrix(basis, wrapped[chunk]) @ modes
    psi = sums[:, :2]
    density = np.abs(psi) ** 2
    if packets[0].spin == inp.detector_spin:
        rate_order1 = efficiency_factor(model, basis) * density[:, 0]
    else:
        rate_order1 = np.zeros(rows)
    if not (pair and all(p.spin == inp.detector_spin for p in packets)):
        terms, rate_order2 = np.zeros((rows, 2), dtype=complex), np.zeros(rows)
    else:
        # each packet's amplitude with its channel weight, absorbed first: a
        # mean-energy weight is a common factor of the packet's mode sum
        first = sums[:, 2:] if per_mode else psi * weights
        # (packet_b first, packet_a first): each times the other's amplitude
        terms = first[:, ::-1] * psi
        if inp.statistics is Statistics.FERMI:
            terms[:, 0] *= -1.0
        rate_order2 = prefactor * np.abs(terms[:, 0] + terms[:, 1]) ** 2
    return RateBatch(
        wrapped, psi[:, 0], psi[:, 1], density[:, 0], density[:, 1],
        rate_order1, rate_order2, terms,
    )


def rate_first_order(
    packet: Wavepacket, detector_spin: int, q: tuple[float, ...], model: MediumModel
) -> float:
    """One-particle absorption rate efficiency * |psi(Q)|^2 at matching spin."""
    batch = evaluate_rates(AbsorptionInput((packet,), detector_spin), model, [q])
    return batch.rate_order1.item(0)


def rate_second_order(
    inp: AbsorptionInput, q: tuple[float, ...], model: MediumModel
) -> float:
    """Two-particle absorption rate (2 pi / hbar^2)|coupling|^4 |sum of terms|^2."""
    if len(inp.packets) != 2:
        raise ValueError("a second-order rate needs a pair of packets, got one")
    return evaluate_rates(inp, model, [q]).rate_order2.item(0)


def log_log_slope(densities: list[float], rates: list[float]) -> float:
    """Least-squares slope of log(rate) against log(density).

    Points with density below MIN_FIT_DENSITY or nonpositive rate are
    excluded.  Raises if fewer than 3 points survive or if the surviving
    densities have no spread (a single plane wave gives a flat density).
    """
    if len(densities) != len(rates):
        raise ValueError("densities and rates must have equal length")
    # a nan would drop out of the filter below, and an inf would reach the fit
    if not all(map(math.isfinite, [*densities, *rates])):
        raise ValueError("densities and rates must be finite")
    pairs = [
        (d, r)
        for d, r in zip(densities, rates)
        if d > MIN_FIT_DENSITY and r > 0.0
    ]
    if len(pairs) < 3:
        raise ValueError(
            f"need at least 3 usable points for the fit, got {len(pairs)}"
        )
    log_d = np.log([d for d, _ in pairs])
    log_r = np.log([r for _, r in pairs])
    if np.ptp(log_d) < 1e-9:
        raise ValueError("density has no spread; the exponent is undetermined")
    slope, _ = np.polyfit(log_d, log_r, 1)
    return float(slope)


def proportionality_exponent(
    inp: AbsorptionInput,
    model: MediumModel,
    coords: Sequence[Sequence[float]] | np.ndarray,
) -> float:
    """Fit rate ~ density**k over the positions ``coords`` and return k.

    The first-order rate goes as |psi_a|^2 and the second-order rate as
    |psi_a psi_b|^2, so a pair is fitted against the geometric mean density
    sqrt(|psi_a|^2 |psi_b|^2): the fit returns 1 for one particle and 2 for
    any pair of packets.
    """
    batch = evaluate_rates(inp, model, coords)
    if len(inp.packets) == 2:
        density = np.sqrt(batch.density_a * batch.density_b)
        rates = batch.rate_order2
    else:
        density, rates = batch.density_a, batch.rate_order1
    return log_log_slope(density.tolist(), rates.tolist())
