"""Seeded inputs for the benchmark workloads, and reference outputs for them.

fockabs receives only what this module writes: a YAML config for the scan
workloads, command-line arguments for ``verify``.  The same seed always
gives the same inputs.  The reference rates are computed here with numpy
straight from the formulas in the package README, so the output check
shares no code with the package:

    psi(Q) = sum_k f_k exp(i p_k.Q / hbar) / sqrt(V),   p_k = 2 pi hbar n_k / L
    rate1  = (2 pi / hbar^2) |g M1|^2 |psi_a|^2                  (spins match)
    rate2  = (2 pi / hbar^2) |g|^4 |psi_a psi_b (W_a +- W_b)|^2  (+ Bose, - Fermi)
    W      = sum_ch M_out M_in / (Ebar - eps_ch),  Ebar = packet mean |p|^2 / 2m
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

# A CSV value passes when |value - reference| <= RTOL * |reference| + FLOOR *
# (largest |reference| in its column).  The CSV carries 12 significant digits
# (rounding ~5e-12) and a batched evaluator may differ by ~1e-12, so RTOL is
# far above both while still catching any real change of formula.  FLOOR
# covers values near a node of psi, where rounding in a sum of hundreds of
# terms is ~1e-16 of the column's scale, not of the value.
RTOL = 1e-8
FLOOR = 1e-10

# Channel energies closer than this share of the largest mode energy to a
# packet's mean kinetic energy are redrawn, so no seed can raise
# ResonanceError or make a row ill-conditioned.
RESONANCE_MARGIN = 0.02


@dataclass(frozen=True)
class Packet:
    spin: int
    amplitudes: np.ndarray  # complex, one per mode, unit norm


@dataclass(frozen=True)
class Channel:
    label: str
    element_in: complex
    element_out: complex
    energy: float


@dataclass(frozen=True)
class ScanSpec:
    """One scan config, in the form both the YAML writer and the reference use."""

    box_lengths: tuple[float, ...]
    modes: np.ndarray  # int, (n_modes, dim), in config order
    lowest_modes: bool  # write ``lowest_modes: n`` instead of listing ``modes``
    hbar: float
    mass: float
    packets: dict[str, Packet]
    coupling: complex
    first_order_element: complex
    channels: tuple[Channel, ...]
    positions: tuple[tuple[float, ...], ...]  # as configured, before wrapping
    scan_range: tuple[tuple[float, ...], tuple[float, ...], int] | None
    order: int
    statistics: str
    packet_names: tuple[str, ...]
    detector_spin: int

    @property
    def dim(self) -> int:
        return len(self.box_lengths)

    def momenta(self) -> np.ndarray:
        return 2 * math.pi * self.hbar * self.modes / np.array(self.box_lengths)

    def mean_energy(self, packet: Packet) -> float:
        energies = (self.momenta() ** 2).sum(axis=1) / (2 * self.mass)
        return float(np.sum(np.abs(packet.amplitudes) ** 2 * energies))


@dataclass(frozen=True)
class Inputs:
    """What one workload run hands to fockabs, plus what the check needs."""

    verify_argv: tuple[str, ...]  # the command line of a verify run; empty for scans
    config: ScanSpec | None  # None for verify
    items: int  # output rows per run (scans) or trials (verify)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def _complex(rng: np.random.Generator, low: float, high: float) -> complex:
    return complex(rng.uniform(low, high) * np.exp(1j * rng.uniform(0, 2 * math.pi)))


def _spread_packet(rng: np.random.Generator, modes: np.ndarray, spin: int) -> Packet:
    """A packet over every mode: Gaussian envelope, jittered, random phases."""
    span = np.abs(modes).max(axis=0) + 1
    centre = rng.uniform(-0.3, 0.3, size=modes.shape[1]) * span
    width = rng.uniform(0.25, 0.5) * span
    envelope = np.exp(-(((modes - centre) / width) ** 2).sum(axis=1) / 4)
    amps = envelope * rng.uniform(0.5, 1.5, size=len(modes))
    amps = amps * np.exp(1j * rng.uniform(0, 2 * math.pi, size=len(modes)))
    # exact normalization keeps the package's renormalization warning silent
    return Packet(spin, amps / math.sqrt(float(np.sum(np.abs(amps) ** 2))))


def _channels(
    rng: np.random.Generator, count: int, spec_energies: list[float], e_max: float
) -> tuple[Channel, ...]:
    margin = RESONANCE_MARGIN * e_max
    chosen: list[Channel] = []
    while len(chosen) < count:
        energy = float(rng.uniform(-0.2 * e_max, e_max))
        taken = spec_energies + [ch.energy for ch in chosen]
        if all(abs(energy - e) >= margin for e in taken):
            chosen.append(
                Channel(
                    f"ch{len(chosen)}",
                    _complex(rng, 0.2, 1.5),
                    _complex(rng, 0.2, 1.5),
                    energy,
                )
            )
    return tuple(chosen)


def _lowest_1d(count: int) -> np.ndarray:
    """The README's ``lowest_modes`` order: 0, 1, -1, 2, -2, ..."""
    numbers = [0]
    k = 1
    while len(numbers) < count:
        numbers.append(k)
        if len(numbers) < count:
            numbers.append(-k)
        k += 1
    return np.array(numbers).reshape(-1, 1)


def _two_packet_scan(
    rng: np.random.Generator,
    box_lengths: tuple[float, ...],
    modes: np.ndarray,
    lowest_modes: bool,
    hbar: float,
    mass: float,
    statistics: str,
    n_channels: int,
    count: int,
) -> ScanSpec:
    packets = {"a": _spread_packet(rng, modes, 0), "b": _spread_packet(rng, modes, 0)}
    start = tuple(float(rng.uniform(0, length)) for length in box_lengths)
    stop = tuple(s + length for s, length in zip(start, box_lengths))
    spec = ScanSpec(
        box_lengths, modes, lowest_modes, hbar, mass, packets,
        _complex(rng, 0.5, 1.5), _complex(rng, 0.2, 1.5), (),
        _range_positions(start, stop, count), (start, stop, count),
        2, statistics, ("a", "b"), 0,
    )
    energies = (spec.momenta() ** 2).sum(axis=1) / (2 * mass)
    means = [spec.mean_energy(p) for p in packets.values()]
    channels = _channels(rng, n_channels, means, float(energies.max()))
    return dataclasses.replace(spec, channels=channels)


def _range_positions(
    start: tuple[float, ...], stop: tuple[float, ...], count: int
) -> tuple[tuple[float, ...], ...]:
    """README ``scan.range``: count points from start toward stop, stop excluded."""
    return tuple(
        tuple(start[ax] + (stop[ax] - start[ax]) * k / count for ax in range(len(start)))
        for k in range(count)
    )


def scan_1d_dense(rng: np.random.Generator) -> Inputs:
    # Evaluation is ~98% of the time: position_amplitude alone is ~88%, with
    # 7 calls x 64 scalar np.exp per row.  Parse, build and emit are ~2%.
    # The batched evaluator must show here, and a parser change must not.
    spec = _two_packet_scan(
        rng, (10.0,), _lowest_1d(64), True, 1.0, 1.0, "bose", 3, 2000
    )
    return Inputs((), spec, 2000)


def scan_listed(rng: np.random.Generator) -> Inputs:
    # yaml.safe_load is ~72% of the time and evaluation ~24%, with the
    # highest peak RSS of the set: the parse layer, the order-1 path and
    # emit_csv.  At 3 modes, per-call overhead of a batched rewrite shows.
    length = 7.0
    modes = np.array([[0], [1], [-1]])
    packet = _spread_packet(rng, modes, 0)
    positions = tuple(
        (float(x),) for x in rng.uniform(-length, 2 * length, size=20_000)
    )
    spec = ScanSpec(
        (length,), modes, False, 1.0, 1.0, {"beam": packet},
        _complex(rng, 0.5, 1.5), _complex(rng, 0.2, 1.5),
        (Channel("ch0", _complex(rng, 0.2, 1.5), _complex(rng, 0.2, 1.5), 5.0),),
        positions, None, 1, "bose", ("beam",), 0,
    )
    return Inputs((), spec, len(positions))


def scan_3d(rng: np.random.Generator) -> Inputs:
    # ModeBasis construction is ~83% of the time (the O(n^2) orthonormality
    # check over 343 modes).  Carries the build layer, the 3D and fermion-sign
    # paths, and the memory cost of a large n_modes for a batched evaluator.
    modes = np.array(list(itertools.product(range(-3, 4), repeat=3)))
    spec = _two_packet_scan(
        rng, (4.0, 5.0, 6.5), modes, False, 0.9, 1.2, "fermi", 2, 20
    )
    return Inputs((), spec, 20)


VERIFY_TRIALS = 1000


def verify_oracle(rng: np.random.Generator) -> Inputs:
    # Most of the time is the oracle, the fock_core ladder algebra and 1000
    # small ModeBasis builds; closed forms at <=4 modes are ~15%.  A scan
    # optimization should leave this unchanged; scalar-API overhead from a
    # rewrite shows here.
    seed = int(rng.integers(0, 2**31))
    return Inputs(
        ("verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)),
        None,
        VERIFY_TRIALS,
    )


WORKLOADS = {
    "scan_1d_dense": scan_1d_dense,
    "scan_listed": scan_listed,
    "scan_3d": scan_3d,
    "verify_oracle": verify_oracle,
}


def generate(workload: str, seed: int) -> Inputs:
    return WORKLOADS[workload](np.random.default_rng(seed % 2**64))


# --------------------------------------------------------------------------
# YAML
# --------------------------------------------------------------------------


def _f(x: float) -> str:
    """repr of a float, spelled so YAML 1.1 reads it back as the same float."""
    text = repr(float(x))
    if "e" in text and "." not in text:  # PyYAML reads 1e-05 as a string
        mantissa, exponent = text.split("e")
        text = f"{mantissa}.0e{exponent}"
    return text


def _c(z: complex) -> str:
    return f"[{_f(z.real)}, {_f(z.imag)}]"


def _vec(values) -> str:
    return "[" + ", ".join(_f(v) for v in values) + "]"


def config_yaml(spec: ScanSpec) -> str:
    out = ["basis:", f"  box_lengths: {_vec(spec.box_lengths)}"]
    if spec.lowest_modes:
        out.append(f"  lowest_modes: {len(spec.modes)}")
    else:
        out.append("  modes:")
        out += ["    - [" + ", ".join(str(int(n)) for n in vec) + "]" for vec in spec.modes]
    out += [f"  hbar: {_f(spec.hbar)}", f"  mass: {_f(spec.mass)}", "  spins: [0, 1]"]
    out.append("packets:")
    for name, packet in spec.packets.items():
        out += [f"  {name}:", f"    spin: {packet.spin}", "    amplitudes:"]
        out += [f"      - {_c(a)}" for a in packet.amplitudes]
    out += [
        "medium:",
        f"  coupling: {_c(spec.coupling)}",
        f"  first_order_element: {_c(spec.first_order_element)}",
        "  channels:",
    ]
    out += [
        f"    - {{label: {ch.label}, element_in: {_c(ch.element_in)}, "
        f"element_out: {_c(ch.element_out)}, energy: {_f(ch.energy)}}}"
        for ch in spec.channels
    ]
    out.append("scan:")
    if spec.scan_range is None:
        out.append("  positions:")
        out += [f"    - {_vec(p)}" for p in spec.positions]
    else:
        start, stop, count = spec.scan_range
        out += ["  range:", f"    start: {_vec(start)}", f"    stop: {_vec(stop)}",
                f"    count: {count}"]
    out += [
        "run:",
        f"  order: {spec.order}",
        f"  statistics: {spec.statistics}",
        f"  packets: [{', '.join(spec.packet_names)}]",
        f"  detector_spin: {spec.detector_spin}",
    ]
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# reference and output checks
# --------------------------------------------------------------------------


def csv_header(dim: int) -> str:
    return ",".join(
        [f"q{i}" for i in range(dim)]
        + ["rate_order1", "rate_order2", "density_a", "density_b"]
    )


def reference_rows(spec: ScanSpec) -> np.ndarray:
    """Expected CSV values, one row per position: q..., rate1, rate2, dens_a, dens_b."""
    q = np.array(
        [[float(c) % spec.box_lengths[ax] for ax, c in enumerate(p)] for p in spec.positions]
    )
    volume = math.prod(spec.box_lengths)
    waves = np.exp(1j * (q @ spec.momenta().T) / spec.hbar) / math.sqrt(volume)
    packet_a = spec.packets[spec.packet_names[0]]
    psi_a = waves @ packet_a.amplitudes
    prefactor = 2 * math.pi / spec.hbar**2
    rate1 = np.zeros(len(q))
    if packet_a.spin == spec.detector_spin:
        rate1 = prefactor * abs(spec.coupling * spec.first_order_element) ** 2 * np.abs(psi_a) ** 2
    rate2 = np.zeros(len(q))
    density_b = np.zeros(len(q))
    if spec.order == 2:
        packet_b = spec.packets[spec.packet_names[1]]
        psi_b = waves @ packet_b.amplitudes
        density_b = np.abs(psi_b) ** 2

        def weight(packet: Packet) -> complex:
            energy = spec.mean_energy(packet)
            return sum(ch.element_out * ch.element_in / (energy - ch.energy) for ch in spec.channels)

        if packet_a.spin == spec.detector_spin == packet_b.spin:
            sign = 1.0 if spec.statistics == "bose" else -1.0
            total = psi_a * psi_b * (weight(packet_a) + sign * weight(packet_b))
            rate2 = prefactor * abs(spec.coupling) ** 4 * np.abs(total) ** 2
    return np.column_stack([q, rate1, rate2, np.abs(psi_a) ** 2, density_b])


def _cells(line: str, width: int) -> list[float]:
    """One CSV row as floats; NaNs (which fail every comparison) if malformed."""
    try:
        cells = [float(cell) for cell in line.split(",")]
    except ValueError:
        cells = []
    return cells if len(cells) == width else [math.nan] * width


def check_csv(text: str, spec: ScanSpec, expected: np.ndarray) -> int:
    """Number of failed rows: missing, extra, malformed or outside tolerance."""
    lines = text.split("\n")
    if lines[0] != csv_header(spec.dim) or lines[-1] != "":
        return len(expected)
    rows = lines[1:-1]
    shared = min(len(rows), len(expected))
    if shared == 0:
        return len(expected)
    width = expected.shape[1]
    values = np.array([_cells(line, width) for line in rows[:shared]])
    ref = expected[:shared]
    atol = np.concatenate(
        [1e-9 * np.array(spec.box_lengths), FLOOR * np.abs(expected[:, spec.dim:]).max(axis=0)]
    )
    ok = np.all(np.abs(values - ref) <= RTOL * np.abs(ref) + atol, axis=1)
    failed = abs(len(rows) - len(expected)) + int(np.count_nonzero(~ok))
    return min(failed, len(expected))


def check_verify(text: str, trials: int) -> int:
    """Number of failed trials: a ``fail`` record, no record, or a bad summary."""
    records = [line.split() for line in text.splitlines() if line.startswith("trial ")]
    summary = [line for line in text.splitlines() if line.startswith("comparisons=")]
    seen: set[int] = set()
    failed: set[int] = set()
    try:
        for fields in records:
            index = int(fields[1])
            seen.add(index)
            if fields[-1] == "fail":
                failed.add(index)
        counts = dict(item.split("=", 1) for item in summary[-1].split()) if summary else {}
    except (IndexError, ValueError):
        return trials
    if (
        counts.get("comparisons") != str(len(records))
        or counts.get("failures") != str(sum(f[-1] == "fail" for f in records))
        or seen - set(range(trials))
    ):
        return trials
    return len(failed | (set(range(trials)) - seen))
