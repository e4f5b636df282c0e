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

Every rate goes through ``evaluate_inputs``, batched over inputs and
positions, and its ``RateBatch`` is the one result type; ``evaluate_rates``
is its one-input case, and the scalar functions ``rate_first_order`` and
``rate_second_order`` return the rate of its one-input, one-row case.
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
        # bool is an int subclass, and True == 1 and False == 0 would pass the set check
        if type(self.detector_spin) is not int:
            raise ParameterError(
                "detector_spin", f"detector spin must be an integer, got {self.detector_spin!r}"
            )
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
    Second-order columns are zero for a one-packet input.  ``bound_order1``
    and ``bound_order2`` are finite bounds on the rates at every position
    (0 at second order for one packet).
    """

    coords: np.ndarray
    psi_a: np.ndarray
    psi_b: np.ndarray
    density_a: np.ndarray
    density_b: np.ndarray
    rate_order1: np.ndarray
    rate_order2: np.ndarray
    terms: np.ndarray
    bound_order1: float
    bound_order2: float


def _channel_sum(
    packet: Wavepacket, model: MediumModel, convention: str
) -> complex | list[complex]:
    """Channel weight sum_ch M_out M_in / (E - eps_ch) of the packet absorbed first.

    E is the packet's mean kinetic energy (one number) or each occupied
    mode's own kinetic energy (one number per mode, 0 on unoccupied modes).
    """
    if convention == "mean":
        energy = mean_kinetic_energy(packet)
        return sum([channel_weight(ch, energy - ch.energy) for ch in model.channels])
    energies = packet.basis.kinetic_energies
    occupied = [i for i, amp in enumerate(packet.amplitudes) if amp != 0]
    weights = [0j] * len(energies)
    for ch in model.channels:
        for i in occupied:
            weights[i] += channel_weight(ch, energies[i] - ch.energy)
    return weights


def _rate_bounds(
    packets: tuple[Wavepacket, ...],
    model: MediumModel,
    efficiency: float,
    weights: list | None = None,
    prefactor: float = 0.0,
) -> tuple[float, float]:
    """Bounds on the first- and second-order rates at every position (the
    second is 0 without ``weights``, for one packet).

    |psi| <= sum_k |a_k| / sqrt(V), and the packet absorbed first, with its
    channel weights, is bounded alike, so each ordering amplitude is bounded
    by a product of two such sums; the second-order rate is the prefactor
    times the squared sum of both.  Raise ``ParameterError`` unless each
    bound is a finite float: for the key that set ``first_order_element``,
    or for ``channels``.
    """
    # plain Python: verify calls this once per input at 2-4 modes, where a
    # numpy call costs more than the sums
    psi = [sum(map(abs, p.amplitudes)) for p in packets]
    volume = packets[0].basis.volume
    try:
        bound1 = efficiency * (psi[0] ** 2 / volume)
    except OverflowError:  # ** past the largest float
        bound1 = math.inf
    if not math.isfinite(bound1):
        raise ParameterError(
            model._first_order_key,
            "the first-order rate bound (2 pi / hbar^2) |coupling * first_order_element|^2 "
            f"(sum |a_k|)^2 / V must be a finite float, got {bound1!r}",
        )
    if weights is None:
        return bound1, 0.0
    try:
        first = [
            sum([abs(a * w) for a, w in zip(p.amplitudes, ws)])
            if isinstance(ws, list)
            else abs(ws) * total
            for p, ws, total in zip(packets, weights, psi)
        ]
        product_sum = first[1] * psi[0] + first[0] * psi[1]
        bound2 = prefactor * (product_sum / volume) ** 2
    except OverflowError:  # abs() or ** past the largest float
        bound2 = math.inf
    if not math.isfinite(bound2):
        raise ParameterError(
            "channels",
            "the second-order rate bound (2 pi / hbar^2) |coupling|^4 "
            "(sum |W_b b_k| sum |a_k| + sum |W_a a_k| sum |b_k|)^2 / V^2 "
            f"must be a finite float, got {bound2!r}",
        )
    return bound1, bound2


def evaluate_inputs(
    inputs: Sequence[AbsorptionInput],
    model: MediumModel,
    coords: Sequence[Sequence[float]] | np.ndarray,
    energy_convention: str = "mean",
) -> list[RateBatch]:
    """Closed-form amplitudes, densities and rates of each input at every position.

    The one or more inputs share one basis, or ValueError.  Both
    second-order orderings carry Kronecker deltas forcing each packet spin
    to equal the detector spin; the packet_b-first term carries the
    statistics sign (+ bosons, - fermions) inherited from commuting the
    field operator through the first-created packet.  Channel weights do
    not depend on position and are computed once per packet, before any
    position, so a resonant denominator raises ResonanceError even where
    the spin deltas zero the rate.  A rate that has no finite bound raises
    ParameterError before any position, at first order for order-2 inputs
    too, which carry ``rate_order1``.  The first rejected input raises its
    own error.  An ``energy_convention`` other than "mean" or "per_mode"
    raises ValueError first.  The positions are wrapped once, and each chunk
    of at most CHUNK_ELEMENTS phase-matrix entries is built once for all
    inputs; each input's product with it is its own, so each ``RateBatch``
    is bit for bit that of ``evaluate_rates``.
    """
    if energy_convention not in ("mean", "per_mode"):
        raise ValueError(f"unknown energy convention {energy_convention!r}")
    basis = inputs[0].packets[0].basis
    # count compares by identity first, so one shared basis costs no __eq__
    if [inp.packets[0].basis for inp in inputs].count(basis) != len(inputs):
        raise ValueError("inputs live on different bases")
    wrapped = basis.wrap(coords)
    rows = len(wrapped)
    efficiency = efficiency_factor(model, basis)
    prefactor = 2.0 * math.pi / basis.hbar**2 * abs(model.coupling) ** 4
    prepared = []  # (input, mode columns, channel weights, bounds) per input
    for inp in inputs:
        packets = inp.packets
        # one column per mode sum: each packet's amplitudes (a zero packet_b for
        # one packet) and, with per-mode weights, each packet's weighted ones.
        # There are always at least two: BLAS hands a one-column product to
        # threaded matrix-vector code that ran 100-1000x slower on 2 cores.
        columns = [p.amplitudes for p in packets]
        weights = None
        if len(packets) == 1:
            columns.append((0,) * basis.n_modes)
        elif not model.channels:
            raise ValueError("second-order rates require at least one medium channel")
        else:
            weights = [_channel_sum(p, model, energy_convention) for p in packets]
            if energy_convention == "per_mode":
                columns += [
                    [a * w for a, w in zip(p.amplitudes, ws)] for p, ws in zip(packets, weights)
                ]
        bounds = _rate_bounds(packets, model, efficiency, weights, prefactor)
        prepared.append((inp, np.array(columns, dtype=complex).T, weights, bounds))
    step = max(1, CHUNK_ELEMENTS // basis.n_modes)
    parts = []  # each chunk's mode sums, one array per input
    for start in range(0, max(rows, 1), step):
        phase = phase_matrix(basis, wrapped[start:start + step])
        parts.append([phase @ modes for _, modes, _, _ in prepared])
    sums = parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]
    batches = []
    for (inp, _, weights, bounds), mode_sums in zip(prepared, sums):
        packets, spin = inp.packets, inp.detector_spin
        psi = mode_sums[:, :2]
        density = np.abs(psi) ** 2
        rate_order1 = efficiency * density[:, 0] if packets[0].spin == spin else np.zeros(rows)
        if not (weights and packets[0].spin == packets[1].spin == spin):
            terms, rate_order2 = np.zeros((rows, 2), dtype=complex), np.zeros(rows)
        else:
            # each packet's amplitude with its channel weight, absorbed first:
            # a mean-energy weight is a common factor of the packet's mode sum
            first = mode_sums[:, 2:] if energy_convention == "per_mode" else psi * weights
            # (packet_b first, packet_a first): each times the other's amplitude
            terms = first[:, ::-1] * psi
            if inp.statistics is Statistics.FERMI:
                terms[:, 0] *= -1.0
            rate_order2 = prefactor * np.abs(terms[:, 0] + terms[:, 1]) ** 2
        batches.append(RateBatch(
            wrapped, psi[:, 0], psi[:, 1], density[:, 0], density[:, 1],
            rate_order1, rate_order2, terms, *bounds,
        ))
    return batches


def evaluate_rates(
    inp: AbsorptionInput, model: MediumModel,
    coords: Sequence[Sequence[float]] | np.ndarray, energy_convention: str = "mean",
) -> RateBatch:
    """Closed-form amplitudes, densities and rates of ``inp`` at every
    position: ``evaluate_inputs``'s one-input case."""
    return evaluate_inputs([inp], model, coords, energy_convention)[0]


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

    One particle's rate is efficiency * |psi_a|^2, so its fit is 1.  A pair
    is fitted against sqrt(|psi_a|^2 |psi_b|^2) with the mean-energy rate,
    which factors one mean energy per packet out of each ordering: it is a
    constant times |psi_a psi_b|^2, so its fit is 2 by construction, not a
    test of the exact (per-mode) rate.
    """
    batch = evaluate_rates(inp, model, coords)
    if len(inp.packets) == 2:
        density = np.sqrt(batch.density_a * batch.density_b)
        rates = batch.rate_order2
    else:
        density, rates = batch.density_a, batch.rate_order1
    return log_log_slope(density.tolist(), rates.tolist())
