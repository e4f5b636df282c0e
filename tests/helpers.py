"""Reference functions that only the tests use.

``ket`` builds an occupation ket from a counts dict; ``superpose`` is the
literal reference for ``ladder_sum``; ``check_commutation`` probes the
ladder brackets; ``position_amplitude``, ``overlap`` and ``uniform_grid``
are one-position and quadrature helpers for wavepackets;
``serialize_config`` renders a parsed config back to YAML for the
round-trip tests, and ``config_fields`` gives a config's fields in a form
that ``==`` compares; ``readme_example``, ``readme_range32`` and ``at_order1``
give the README's example config and its variants; ``verify_records``
flattens a ``record_blocks`` run into one list.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np
import yaml

from fockabs import (
    ExperimentConfig,
    FockState,
    ModeBasis,
    SlotKey,
    Statistics,
    TrialRecord,
    Wavepacket,
    annihilate,
    create,
    inner_product,
    record_blocks,
)
from fockabs.field_ops import phase_matrix
from fockabs.fock_core import PRUNE_THRESHOLD, Ket


def ket(counts: dict[SlotKey, int]) -> Ket:
    """The ket of ``counts``: its (slot, count) pairs sorted, zero counts dropped."""
    return tuple(sorted((s, n) for s, n in counts.items() if n))


def superpose(parts: Iterable[tuple[complex, FockState]]) -> FockState:
    """Linear combination sum_i c_i |state_i>, pruned.

    Empty input is not allowed because the statistics kind would be unknown.
    """
    out: dict[Ket, complex] = {}
    statistics: Statistics | None = None
    for coeff, state in parts:
        if statistics is None:
            statistics = state.statistics
        elif statistics is not state.statistics:
            raise ValueError("cannot superpose states of different statistics")
        for ket, amp in state.terms.items():
            out[ket] = out.get(ket, 0.0 + 0.0j) + coeff * amp
    if statistics is None:
        raise ValueError("superpose needs at least one state")
    return FockState(statistics, {k: a for k, a in out.items() if abs(a) > PRUNE_THRESHOLD})


def check_commutation(
    slot_a: SlotKey,
    slot_b: SlotKey,
    statistics: Statistics,
    probe: FockState,
) -> complex:
    """Expectation of the ladder bracket on a normalized probe state.

    Returns <p|(a_a adag_b - adag_b a_a)|p> / <p|p> for bosons and the
    anticommutator analogue for fermions.  Either way the result must equal
    the Kronecker delta of the two slots.
    """
    if probe.statistics is not statistics:
        raise ValueError("probe statistics does not match requested statistics")
    norm_sq = inner_product(probe, probe).real
    if norm_sq == 0.0:
        raise ValueError("zero-norm probe")
    first = annihilate(create(probe, slot_b), slot_a)
    second = create(annihilate(probe, slot_a), slot_b)
    ip_first = inner_product(probe, first)
    ip_second = inner_product(probe, second)
    if statistics is Statistics.BOSE:
        bracket = ip_first - ip_second
    else:
        bracket = ip_first + ip_second
    return bracket / norm_sq


def position_amplitude(packet: Wavepacket, q: tuple[float, ...]) -> complex:
    """Position-space amplitude: the mode sum of amplitude * wavefunction."""
    row = phase_matrix(packet.basis, packet.basis.wrap([q]))
    return complex(np.dot(row, np.array(packet.amplitudes))[0])


def overlap(f: Wavepacket, g: Wavepacket) -> complex:
    """Discrete momentum-space overlap <f|g>; spins are not compared."""
    if f.basis != g.basis:
        raise ValueError("wavepackets live on different bases")
    return complex(np.vdot(np.array(f.amplitudes), np.array(g.amplitudes)))


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


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to YAML; parse_config inverts this exactly.

    The run's packets are named by identity: two names may hold equal packets.
    """
    names = {id(packet): name for name, packet in config.packets.items()}
    doc = {
        "basis": {
            "box_lengths": list(config.basis.box_lengths),
            "modes": [list(vec) for vec in config.basis.mode_numbers],
            "hbar": config.basis.hbar,
            "mass": config.basis.mass,
            "spins": list(config.basis.spins),
        },
        "packets": {
            name: {
                "spin": packet.spin,
                "amplitudes": [_complex_pair(a) for a in packet.amplitudes],
            }
            for name, packet in config.packets.items()
        },
        "medium": {
            "coupling": _complex_pair(config.medium.coupling),
            "channels": [
                {
                    "label": ch.label,
                    "element_in": _complex_pair(ch.element_in),
                    "element_out": _complex_pair(ch.element_out),
                    "energy": ch.energy,
                }
                for ch in config.medium.channels
            ],
            "first_order_element": _complex_pair(config.medium.first_order_element),
        },
        "scan": {"positions": config.positions.tolist()},
        "run": {
            "order": len(config.run.packets),
            "statistics": config.run.statistics.value,
            "packets": [names[id(packet)] for packet in config.run.packets],
            "detector_spin": config.run.detector_spin,
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


def config_fields(config: ExperimentConfig) -> dict:
    """Every field of ``config`` by name, its positions array as a list of
    rows, so that two configs compare with ``==`` field by field."""
    values = {field.name: getattr(config, field.name) for field in fields(config)}
    return values | {"positions": config.positions.tolist()}


def readme_example() -> str:
    """The example config in README.md, as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)


def readme_range32() -> str:
    """The README example with its commented-out ``range`` of 32 points."""
    old = "  positions: [[0.0], [0.5], [1.0]]\n  # range:"
    text = readme_example()
    assert old in text
    return text.replace(old, "  range:")


def at_order1(text: str) -> str:
    """A README example config run at order 1 on its one packet."""
    for old, new in (("order: 2 ", "order: 1 "), ("packets: [beam, beam]", "packets: [beam]")):
        assert old in text
        text = text.replace(old, new)
    return text


def verify_records(trials: int, seed: int = 0) -> list[TrialRecord]:
    """Every record of ``record_blocks(trials, seed)``, in trial and input order."""
    return [r for block in record_blocks(trials, seed) for r in block]
