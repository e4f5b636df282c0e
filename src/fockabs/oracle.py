"""Brute-force amplitudes that cross-check the closed-form rates.

Amplitudes are evaluated by literal operator application: the field
operator acts term by term on occupation kets, intermediate states are
enumerated as (one-particle ket) x (medium channel) pairs, and every energy
denominator uses the exact kinetic energy of the mode that was absorbed,
never a packet mean.  The enumeration visits, for each ket, only the slots
it occupies at the detector spin: the annihilator of an empty slot gives the
zero state, so the other modes of the basis add nothing to the sum.  No
closed-form shortcut appears anywhere in this module, and it imports
nothing from the closed-form module, so agreement with it is a real check.
"""

from __future__ import annotations

from .fock_core import (
    FockState,
    Ket,
    _valid_state,
    annihilate,
    inner_product,
    vacuum,
)
from .field_ops import ModeBasis, field_annihilate, mode_wavefunction
from .medium import MediumModel, check_resonance


def first_order_amplitude(
    particle: FockState,
    basis: ModeBasis,
    q: tuple[float, ...],
    model: MediumModel,
    detector_spin: int,
) -> complex:
    """Single-absorption amplitude by literal operator application.

    coupling * first_order_element * <vacuum| field_annihilate |particle>.
    A vacuum particle state gives 0.
    """
    overlap_vac = single_absorption_vacuum_overlap(particle, basis, q, detector_spin)
    return model.coupling * model.first_order_element * overlap_vac


def single_absorption_vacuum_overlap(
    particle: FockState, basis: ModeBasis, q: tuple[float, ...], detector_spin: int
) -> complex:
    """<vacuum| field_annihilate |particle>: the beam factor of a single
    interaction.  For any two-particle state this is exactly zero, which is
    why two absorptions need second order."""
    lowered = field_annihilate(particle, basis, q, detector_spin)
    return inner_product(vacuum(particle.statistics), lowered)


def second_order_amplitude(
    particle: FockState,
    basis: ModeBasis,
    q: tuple[float, ...],
    model: MediumModel,
    detector_spin: int,
) -> complex:
    """Double-absorption amplitude by intermediate-state enumeration.

    Sums over every initial ket, every mode it occupies at the detector spin
    (all the field operator can remove) and every medium channel.  The
    absorber starts in its ground state, at energy 0, so the denominator
    for each path is (absorbed kinetic energy - channel energy).
    """
    if not model.channels:
        raise ValueError("second-order amplitudes require at least one channel")
    statistics = particle.statistics
    for ket in particle.terms:
        particles = sum(n for _, n in ket)
        if particles != 2:
            raise ValueError(
                f"two-particle initial state required, found a ket with "
                f"{particles} particles"
            )
    vac = vacuum(statistics)
    # plane waves of the absorbed modes, each computed on first use
    mode_values: dict[int, complex] = {}
    vacuum_overlap_cache: dict[Ket, complex] = {}
    total = 0.0 + 0.0j
    for ket, amp in particle.terms.items():
        # one ket of a valid state is itself a valid state
        single = _valid_state(statistics, {ket: amp})
        for slot in [s for s, _ in ket if s.spin == detector_spin]:
            lowered = annihilate(single, slot)
            if lowered.is_zero():
                continue
            i = slot.mode
            absorbed_energy = basis.kinetic_energies[i]
            if i not in mode_values:
                mode_values[i] = mode_wavefunction(basis, i, q)
            for inter_ket, inter_amp in lowered.terms.items():
                first_factor = mode_values[i] * inter_amp
                cached = vacuum_overlap_cache.get(inter_ket)
                if cached is None:
                    inter_state = _valid_state(statistics, {inter_ket: 1.0 + 0.0j})
                    cached = inner_product(
                        vac, field_annihilate(inter_state, basis, q, detector_spin)
                    )
                    vacuum_overlap_cache[inter_ket] = cached
                if cached == 0.0:
                    continue
                for ch in model.channels:
                    denom = absorbed_energy - ch.energy
                    check_resonance(denom, ch.label, i)
                    total += (
                        ch.element_out
                        * ch.element_in
                        * cached
                        * first_factor
                        / denom
                    )
    return model.coupling**2 * total

