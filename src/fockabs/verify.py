"""Randomized comparison of the closed-form rates against the oracle.

``record_blocks`` runs its trials in blocks of ``_BLOCK``, and each block in
four phases, one per kind of work.  First ``_draw`` draws every trial as the
domain objects a parsed config also holds: a basis, a medium, the detector
spin and position, and four ``AbsorptionInput``s, and ``_digest`` names each
draw.  Then one ``evaluate_inputs`` call per trial gives its four inputs'
closed-form rates, and ``_oracle`` every input's rate from its literal Fock
state.  Last, ``_compare`` checks each input's closed form against its
oracle, at either order, and returns its records in trial and input order;
the blocks change neither the output nor the exit code.  ``record_blocks``
yields each block's records as the block finishes, and holds nothing of the
blocks before it, so ``fockabs verify`` writes a block's lines and folds
them into the summary (``tally``) before it draws the next: its memory does
not grow with the number of trials.  Both orders are judged by one relative
error, whose scale is floored at 1e-12 times the ``RateBatch`` bound on the
rate being compared.
For spread packets whose occupied modes are not degenerate in energy, a
mean-energy closed form may legitimately differ from the oracle; such
discrepancies are flagged, not failed, after confirming that the per-mode
variant of the closed form, one more ``evaluate_rates`` call, does match
the oracle.  Trial ``i`` of seed ``s`` draws from
``random.Random(s * 1000003 + i)`` with ``random()`` alone, a stream that
Python keeps fixed for a seed; numpy may change its ``Generator``'s.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from random import Random

from .fock_core import Statistics
from .field_ops import ModeBasis, Wavepacket, packet_state, two_particle_state
from .medium import MediumChannel, MediumModel
from .oracle import first_order_amplitude, second_order_amplitude, single_absorption_vacuum_overlap
from .perturbation import (
    AbsorptionInput,
    IndistinguishableFermionsError,
    RateBatch,
    evaluate_inputs,
    evaluate_rates,
)

try:  # CPython's built-in SHA-1: hashlib would map OpenSSL's libcrypto into every process
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

# largest relative error at which a closed form and the oracle agree
TOLERANCE = 1e-10

# trials per block.  Running each kind of work (draws, numpy-bound one-row
# closed forms, pure-Python oracle algebra, records) over a whole block
# rather than input by input cut the process time of a 1000-trial run by 5%
# at blocks of 1 trial, 10% at 4, 14% at 16, 16% at 64 and 15% at 1000
# (medians of 5, Python 3.11, 2-CPU Xeon).  A block's draws, closed forms,
# oracle results and records are all that ``record_blocks`` holds at a time,
# so a consumer that drops each block's records, as ``fockabs verify`` does,
# runs in memory that does not grow with the number of trials
_BLOCK = 16

# a record's statistics column: an Enum's value is a property, read per line
_STATISTICS_TEXT = {s: f"{s.value:<5s}" for s in Statistics}


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One closed-form-versus-oracle comparison."""

    index: int
    seed: int
    digest: str
    order: int
    statistics: Statistics
    packet_kind: str
    rate_closed: float
    rate_oracle: float
    rel_error: float
    status: str  # "ok", "flagged" or "fail"

    def line(self) -> str:
        return (
            f"trial {self.index:04d} seed={self.seed} cfg={self.digest} "
            f"order={self.order} {_STATISTICS_TEXT[self.statistics]} "
            f"{self.packet_kind:<6s} closed={self.rate_closed:.12e} "
            f"oracle={self.rate_oracle:.12e} rel={self.rel_error:.3e} "
            f"{self.status}"
        )


# the tally of no records: comparisons, failures, flagged, and the largest
# rel_error of the non-flagged first-order and sharp second-order records,
# None until one is seen
EMPTY_TALLY = (0, 0, 0, None, None)


def tally(records: Iterable[TrialRecord], counts: tuple = EMPTY_TALLY) -> tuple:
    """``counts`` with ``records`` folded in.

    Folding the blocks of a run one by one gives the tally of all its
    records, NaN included: a maximum keeps its first value unless a later
    one is larger, as ``max`` does.
    """
    comparisons, failures, flagged, first, second_sharp = counts
    for r in records:
        comparisons += 1
        status = r.status
        if status == "flagged":
            flagged += 1
            continue
        if status == "fail":
            failures += 1
        if r.order == 1:
            first = r.rel_error if first is None else max(first, r.rel_error)
        elif r.packet_kind == "sharp":
            second_sharp = r.rel_error if second_sharp is None else max(second_sharp, r.rel_error)
    return comparisons, failures, flagged, first, second_sharp


def summary_line(counts: tuple) -> str:
    """The last line of a verification run, from its ``tally``."""
    comparisons, failures, flagged, first, second_sharp = counts
    return (
        f"comparisons={comparisons} failures={failures} flagged={flagged} "
        f"max_rel_first={0.0 if first is None else first:.3e} "
        f"max_rel_second_sharp={0.0 if second_sharp is None else second_sharp:.3e}"
    )


def _rate_error(batch: RateBatch, order: int, oracle_rate: float) -> float:
    """Relative error of the one-row ``batch``'s rate at ``order``.

    A position on a node of a packet, or two second-order orderings that
    cancel, leave round-off set by the input's size, not the rate's, so the
    scale is at least 1e-12 times the batch's bound on that rate at any
    position.
    """
    rate = (batch.rate_order1 if order == 1 else batch.rate_order2).item(0)
    if rate == oracle_rate:
        return 0.0
    floor = 1e-12 * (batch.bound_order1 if order == 1 else batch.bound_order2)
    return abs(rate - oracle_rate) / max(abs(rate), abs(oracle_rate), floor)


def _below(rng: Random, k: int) -> int:
    """An int from ``range(k)``, drawn with ``rng.random()`` alone."""
    return int(rng.random() * k)


def _uniform(rng: Random, lo: float, hi: float) -> float:
    """A real in ``[lo, hi)``, drawn with ``rng.random()`` alone."""
    return lo + (hi - lo) * rng.random()


def _element(rng: Random) -> complex:
    """A complex number of magnitude in ``[0.1, 2)`` and a uniform phase."""
    return _uniform(rng, 0.1, 2.0) * cmath.exp(1j * _uniform(rng, 0.0, 2.0 * math.pi))


def _random_basis(rng: Random) -> ModeBasis:
    dim = 1 + _below(rng, 3)
    lengths = [_uniform(rng, 4.0, 8.0) for _ in range(dim)]
    hbar, mass = _uniform(rng, 0.5, 2.0), _uniform(rng, 0.5, 2.0)
    spins = ((0,), (0, 1), (0, 1, 2))[_below(rng, 3)]
    n_modes = 2 + _below(rng, 3)
    modes: list[tuple[int, ...]] = []
    while len(modes) < n_modes:
        vec = tuple(_below(rng, 5) - 2 for _ in range(dim))
        if vec not in modes:
            modes.append(vec)
    return ModeBasis(lengths, modes, hbar, mass, spins)


def _random_model(rng: Random, basis: ModeBasis) -> MediumModel:
    n_channels = 1 + _below(rng, 2)
    energies: list[float] = []
    while len(energies) < n_channels:
        candidate = _uniform(rng, 0.5, 3.0)
        clear_of_modes = all(abs(candidate - e) > 1e-3 for e in basis.kinetic_energies)
        clear_of_others = all(abs(candidate - e) > 1e-3 for e in energies)
        if clear_of_modes and clear_of_others:
            energies.append(candidate)
    channels = tuple(
        MediumChannel(f"ch{k}", _element(rng), _element(rng), energies[k])
        for k in range(n_channels)
    )
    return MediumModel(_element(rng), channels, first_order_element=_element(rng))


def _sharp_packet(basis: ModeBasis, mode: int, spin: int) -> Wavepacket:
    amps = [0.0 + 0.0j] * basis.n_modes
    amps[mode] = 1.0 + 0.0j
    return Wavepacket(basis, tuple(amps), spin)


def _random_packet(rng: Random, basis: ModeBasis, sharp: bool, spin: int) -> Wavepacket:
    if sharp:
        return _sharp_packet(basis, _below(rng, basis.n_modes), spin)
    vec = [_element(rng) for _ in range(basis.n_modes)]
    norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
    return Wavepacket(basis, tuple(v / norm for v in vec), spin)


def _pick_spin(rng: Random, basis: ModeBasis, favored: int) -> int:
    return favored if rng.random() < 0.8 else basis.spins[_below(rng, len(basis.spins))]


def _degenerate_support(packet: Wavepacket) -> bool:
    """Whether the packet's occupied modes share one kinetic energy, to within
    1e-12 of the largest: a relative test, so it holds at any energy scale."""
    energies = [e for a, e in zip(packet.amplitudes, packet.basis.kinetic_energies) if a]
    return max(energies) - min(energies) <= 1e-12 * max(energies)


def _digest(*parts: object) -> str:
    text = "|".join(map(repr, parts))
    return sha1(text.encode()).hexdigest()[:10]


def _draw(
    rng: Random, statistics: Statistics
) -> tuple[ModeBasis, MediumModel, int, tuple[float, ...], list[AbsorptionInput]]:
    """One trial's configuration, as the domain objects a parsed config holds.

    Returns the basis, the medium, the detector spin and position, and four
    inputs: one packet, sharp then spread, and a pair, sharp then spread.
    """
    basis = _random_basis(rng)
    model = _random_model(rng, basis)
    detector_spin = basis.spins[_below(rng, len(basis.spins))]
    q = basis.position([_uniform(rng, 0.0, length) for length in basis.box_lengths])
    inputs = []
    for order, sharp in ((1, True), (1, False), (2, True), (2, False)):
        spins = [_pick_spin(rng, basis, detector_spin) for _ in range(order)]
        packets = [_random_packet(rng, basis, sharp, spin) for spin in spins]
        try:
            inputs.append(AbsorptionInput(packets, detector_spin, statistics))
        except IndistinguishableFermionsError:
            # only sharp draws can collide, and a sharp packet leaves at
            # least one of the >= 2 modes free: move packet_b there
            packets[1] = _sharp_packet(basis, packets[0].amplitudes.index(0.0), spins[1])
            inputs.append(AbsorptionInput(packets, detector_spin, statistics))
    return basis, model, detector_spin, q, inputs


def _oracle(
    inp: AbsorptionInput, model: MediumModel, q: tuple[float, ...]
) -> tuple[float, float | None]:
    """The oracle's rate for ``inp`` at ``q``, from its literal Fock state.

    A pair whose state is not zero also gives the magnitude of its
    single-absorption vacuum overlap; otherwise that is None.
    """
    packets = inp.packets
    basis = packets[0].basis
    statistics, spin = inp.statistics, inp.detector_spin
    overlap = None
    if len(packets) == 1:
        state = packet_state(packets[0], statistics)
        amp = first_order_amplitude(state, basis, q, model, spin)
    else:
        state = two_particle_state(packets[0], packets[1], statistics)
        amp = 0.0
        if not state.is_zero():
            amp = second_order_amplitude(state, basis, q, model, spin)
            overlap = abs(single_absorption_vacuum_overlap(state, basis, q, spin))
    return 2.0 * math.pi / basis.hbar**2 * abs(amp) ** 2, overlap


def _compare(
    inp: AbsorptionInput, model: MediumModel, q: tuple[float, ...], batch: RateBatch,
    oracle: tuple[float, float | None], index: int, seed: int, digest: str,
) -> list[TrialRecord]:
    """Compare the closed-form rate of ``inp`` at ``q`` with the oracle's.

    ``batch`` is the batch of ``inp`` from ``evaluate_inputs`` at ``[q]``,
    and ``oracle`` is ``_oracle(inp, model, q)``.  One packet gives one first-order record.  A
    pair gives its second-order record, and, unless its state is zero, a
    "single" record checking that one interaction absorbs nothing from it.
    A packet is sharp when it occupies one mode.
    """
    packets = inp.packets
    statistics, order = inp.statistics, len(packets)
    oracle_rate, overlap = oracle
    kind = "sharp" if all([sum(map(bool, p.amplitudes)) == 1 for p in packets]) else "spread"
    closed = (batch.rate_order1 if order == 1 else batch.rate_order2).item(0)
    rel = _rate_error(batch, order, oracle_rate)
    status = "ok" if rel <= TOLERANCE else "fail"
    if order == 2 and status == "fail" and not all(map(_degenerate_support, packets)):
        # attribute the discrepancy: the per-mode variant of the closed
        # form must match the oracle, otherwise it is a bug
        exact = evaluate_rates(inp, model, [q], "per_mode")
        if _rate_error(exact, 2, oracle_rate) <= TOLERANCE:
            status = "flagged"
    trial = (index, seed, digest, order, statistics)
    records = [TrialRecord(*trial, kind, closed, oracle_rate, rel, status)]
    # a single interaction can never absorb two particles
    if overlap is not None:
        status = "ok" if overlap == 0.0 else "fail"
        records.append(TrialRecord(*trial, "single", overlap, 0.0, float(overlap != 0.0), status))
    return records


def record_blocks(trials: int, seed: int = 0) -> Iterator[list[TrialRecord]]:
    """The records of ``trials`` trials from ``seed``, one list per block of
    ``_BLOCK`` trials, in trial and input order.

    Each trial draws a fresh basis, medium and detector position, then
    compares first- and second-order rates with both sharp and spread
    packets.  Statistics alternate between trials so both kinds are always
    covered.  The arguments are checked when the first block is asked for,
    before any draw.
    """
    # bool is an int subclass, but not a count of trials or a seed
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    # Random would silently seed with a negative seed's absolute value
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    for start in range(0, trials, _BLOCK):
        drawn = []  # (inputs, medium, position, trial index, trial seed, digest)
        for index in range(start, min(start + _BLOCK, trials)):
            trial_seed = seed * 1_000_003 + index
            statistics = Statistics.BOSE if index % 2 == 0 else Statistics.FERMI
            basis, model, detector_spin, q, inputs = _draw(Random(trial_seed), statistics)
            digest = _digest(basis, model, statistics, detector_spin, q)
            drawn.append((inputs, model, q, index, trial_seed, digest))
        batches = [evaluate_inputs(inputs, model, [q]) for inputs, model, q, *_ in drawn]
        oracles = [[_oracle(inp, model, q) for inp in inputs] for inputs, model, q, *_ in drawn]
        records = []
        for (inputs, model, q, *trial), closed, brute in zip(drawn, batches, oracles):
            for inp, batch, oracle in zip(inputs, closed, brute):
                records += _compare(inp, model, q, batch, oracle, *trial)
        yield records

