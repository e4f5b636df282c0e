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

Every second-order rate comes in two energy conventions, both from one
evaluation.  The mean-energy rate (``rate_order2``, the one ``scan`` prints)
factors one mean kinetic energy per packet out of each ordering's mode sum;
the per-mode rate (``rate_order2_per_mode``) keeps each mode's own energy
inside the mode sums, which reproduces the brute-force enumeration exactly.
Both coincide for sharp packets and for packets whose occupied modes share
one kinetic energy.

Every rate goes through ``evaluate_inputs``, batched over inputs and
positions, and its ``RateBatch`` is the one result type; ``evaluate_rates``
is its one-input case, and the scalar ``absorption_rate`` returns its
one-row case's rate at the input's order (for a pair, the mean-energy one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock_core import ParameterError, Statistics
from .field_ops import Wavepacket, mean_kinetic_energy, phase_matrix
from .medium import RESONANCE_THRESHOLD, MediumModel, check_resonance

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

    A rejected argument raises ``ParameterError`` naming ``packets``,
    ``detector_spin`` or ``statistics``, the keys of a config's run section.
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
        if not isinstance(self.statistics, Statistics):
            raise ParameterError(
                "statistics", f"statistics must be a Statistics member, got {self.statistics!r}"
            )
        fermi_pair = len(packets) == 2 and self.statistics is Statistics.FERMI
        if fermi_pair and (a.spin, a.amplitudes) == (b.spin, b.amplitudes):
            raise IndistinguishableFermionsError(
                "packets", "fermionic pair with identical packets and equal spins"
            )


class RateBatch(NamedTuple):
    """Closed-form results at many positions: row r of every array is position r.

    ``coords`` are the wrapped positions, ``density_a`` and ``density_b``
    each packet's |psi(Q)|^2.  With P = 2 pi / hbar^2, ``rate_order1`` =
    P |coupling * first_order_element|^2 ``density_a`` where packet_a's spin
    is the detector's, and ``rate_order2`` = P |coupling|^4 |T_b + T_a|^2,
    where T_b (packet_b absorbed first, with the statistics sign) and T_a
    are the ordering amplitudes, each with the channel weight of the packet
    absorbed first at its mean kinetic energy; ``rate_order2_per_mode``
    takes each mode's own.  ``density_b`` and the second-order columns are
    zero for a one-packet input.  ``bound_order1``, ``bound_order2`` and
    ``bound_order2_per_mode`` are finite bounds on the rates at every
    position (0 at second order for one packet).
    """

    coords: np.ndarray
    density_a: np.ndarray
    density_b: np.ndarray
    rate_order1: np.ndarray
    rate_order2: np.ndarray
    rate_order2_per_mode: np.ndarray
    bound_order1: float
    bound_order2: float
    bound_order2_per_mode: float


def _channel_sum(packet: Wavepacket, model: MediumModel) -> tuple[complex, list[complex]]:
    """The channel weight W(E) = sum_ch M_out M_in / (E - eps_ch) of the packet
    absorbed first, at its mean kinetic energy, and each amplitude a_k times
    W(E_k) at mode k's own energy (0 on unoccupied modes).

    A resonant denominator raises ResonanceError, the mean one first; one at
    E_k names mode k.
    """
    # plain Python, with each channel's M_out * M_in formed once: at the 2-4
    # modes of verify's draws a numpy call costs more than the loop
    channels = [(ch.element_out * ch.element_in, ch.energy, ch.label) for ch in model.channels]
    # the mean energy first, as amplitude 1 at no mode, then each mode k
    levels = [(None, (1, mean_kinetic_energy(packet)))]
    levels += enumerate(zip(packet.amplitudes, packet.basis.kinetic_energies))
    weights = []  # W(E), then W(E_k) of each mode k (0 on unoccupied modes)
    for mode, (amp, level) in levels:
        weight = 0j
        for product, channel_energy, label in channels if amp else ():
            denominator = level - channel_energy
            if not abs(denominator) >= RESONANCE_THRESHOLD:
                check_resonance(denominator, label, mode)
            weight += product / denominator
        weights.append(weight)
    return weights[0], [amp * w for amp, w in zip(packet.amplitudes, weights[1:])]


def _rate_bounds(
    packets: tuple[Wavepacket, ...], model: MediumModel, efficiency: float,
    weights: list | None = None, prefactor: float = 0.0,
) -> tuple[float, float, float]:
    """Bounds on the first-order rate and the mean-energy and per-mode
    second-order rates at every position (0 without ``weights``, each
    packet's ``_channel_sum``, for one packet).

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
    bounds = []
    try:
        bounds.append(efficiency * (psi[0] ** 2 / volume))
        if weights:
            # sum_k |W a_k| of each packet: its mean weight times sum_k |a_k|,
            # then with its per-mode weights
            mean = [abs(w) * total for (w, _), total in zip(weights, psi)]
            per_mode = [sum(map(abs, weighted)) for _, weighted in weights]
            for a, b in (mean, per_mode):
                bounds.append(prefactor * ((b * psi[0] + a * psi[1]) / volume) ** 2)
    except OverflowError:  # abs() or ** past the largest float
        bounds.append(math.inf)
    for k, bound in enumerate(bounds):
        if not math.isfinite(bound):
            key, formula = (
                (model._first_order_key, "first-order rate bound (2 pi / hbar^2) "
                 "|coupling * first_order_element|^2 (sum |a_k|)^2 / V"),
                ("channels", "second-order rate bound (2 pi / hbar^2) |coupling|^4 "
                 "(sum |W_b b_k| sum |a_k| + sum |W_a a_k| sum |b_k|)^2 / V^2"),
            )[min(k, 1)]
            raise ParameterError(key, f"the {formula} must be a finite float, got {bound!r}")
    return (*bounds, 0.0, 0.0)[:3]


def evaluate_inputs(
    inputs: Sequence[AbsorptionInput], model: MediumModel,
    coords: Sequence[Sequence[float]] | np.ndarray,
) -> list[RateBatch]:
    """Closed-form densities and rates of each input at every position.

    The one or more inputs share one basis, or ValueError.  Both
    second-order orderings carry Kronecker deltas forcing each packet spin
    to equal the detector spin; the packet_b-first term carries the
    statistics sign (+ bosons, - fermions) inherited from commuting the
    field operator through the first-created packet.  Channel weights do
    not depend on position and are computed once per packet, before any
    position, so a resonant denominator, at a packet's mean kinetic energy
    or at an occupied mode's own, raises ResonanceError even where the spin
    deltas zero the rate.  A rate that has no finite bound raises
    ParameterError before any position, at first order for order-2 inputs
    too, which carry ``rate_order1``.  The first rejected input raises its
    own error.  The positions are wrapped once, and each chunk of at most
    CHUNK_ELEMENTS phase-matrix entries is built once for all inputs; each
    input's products with it are its own, so each ``RateBatch`` is bit for
    bit that of ``evaluate_rates``.
    """
    if not inputs:
        raise ValueError("evaluate_inputs needs at least one input")
    basis = inputs[0].packets[0].basis
    # count compares by identity first, so one shared basis costs no __eq__
    if [inp.packets[0].basis for inp in inputs].count(basis) != len(inputs):
        raise ValueError("inputs live on different bases")
    wrapped = basis.wrap(coords)
    rows = len(wrapped)
    scale = 2.0 * math.pi / basis.hbar**2
    efficiency = scale * abs(model.coupling * model.first_order_element) ** 2
    prefactor = scale * abs(model.coupling) ** 4
    prepared = []  # (input, mode-sum matrices, channel weights, bounds) per input
    for inp in inputs:
        packets = inp.packets
        # one column per mode sum, at least two to a matrix: BLAS hands a
        # one-column product to threaded matrix-vector code that ran
        # 100-1000x slower on 2 cores.  The first holds each packet's
        # amplitudes (a zero packet_b for one packet), a pair's second them
        # times their per-mode weights: one matrix of all four columns would
        # change how BLAS rounds the amplitudes' sums.
        matrices, weights = [[p.amplitudes for p in packets]], None
        if len(packets) == 1:
            matrices[0].append((0,) * basis.n_modes)
        elif not model.channels:
            raise ValueError("second-order rates require at least one medium channel")
        else:
            weights = [_channel_sum(p, model) for p in packets]
            matrices.append([weighted for _, weighted in weights])
        bounds = _rate_bounds(packets, model, efficiency, weights, prefactor)
        matrices = [np.array(m, dtype=complex).T for m in matrices]
        prepared.append((inp, matrices, weights, bounds))
    step = max(1, CHUNK_ELEMENTS // basis.n_modes)
    parts = []  # each chunk's mode sums: per input, one array per matrix
    for start in range(0, max(rows, 1), step):
        phase = phase_matrix(basis, wrapped[start:start + step])
        parts.append([[phase @ m for m in matrices] for _, matrices, _, _ in prepared])
    sums = parts[0] if len(parts) == 1 else [
        [np.concatenate(c) for c in zip(*chunks)] for chunks in zip(*parts)
    ]
    batches = []
    for (inp, _, weights, bounds), (psi, *per_mode) in zip(prepared, sums):
        packets, spin = inp.packets, inp.detector_spin
        density = np.abs(psi) ** 2
        rate_order1 = efficiency * density[:, 0] if packets[0].spin == spin else np.zeros(rows)
        if not (weights and packets[0].spin == packets[1].spin == spin):
            second = [np.zeros(rows), np.zeros(rows)]
        else:
            second = []  # the rate with the mean-energy weights, then the per-mode one
            # each packet's amplitude with its channel weights, absorbed
            # first: a mean-energy weight is a common factor of its mode sum
            for first in (psi * [mean for mean, _ in weights], per_mode[0]):
                # (packet_b first, packet_a first): each times the other's amplitude
                terms = first[:, ::-1] * psi
                if inp.statistics is Statistics.FERMI:
                    terms[:, 0] *= -1.0
                second.append(prefactor * np.abs(terms[:, 0] + terms[:, 1]) ** 2)
        batches.append(RateBatch(
            wrapped, density[:, 0], density[:, 1], rate_order1, *second, *bounds
        ))
    return batches


def evaluate_rates(
    inp: AbsorptionInput, model: MediumModel, coords: Sequence[Sequence[float]] | np.ndarray
) -> RateBatch:
    """Closed-form densities and rates of ``inp`` at every position:
    ``evaluate_inputs``'s one-input case."""
    return evaluate_inputs([inp], model, coords)[0]


def absorption_rate(inp: AbsorptionInput, model: MediumModel, q: tuple[float, ...]) -> float:
    """The rate of ``inp`` at position ``q``, at its order: efficiency * |psi(Q)|^2
    for one packet, the (mean-energy) second-order rate for a pair; row 0 of
    ``evaluate_rates``."""
    batch = evaluate_rates(inp, model, [q])
    return (batch.rate_order1, batch.rate_order2)[len(inp.packets) - 1].item(0)


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
