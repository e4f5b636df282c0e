"""The draw stream of ``fockabs verify``, pinned by a golden run, its
blocks, the command that writes them as they finish and its summary, its
argument checks, and its comparison routine run on parsed configs.

``golden/verify_seed7_trials40.txt`` is the output of
``fockabs verify --trials 40 --seed 7``.  A changed draw, statistics kind,
packet kind or status shows as a changed field; the rates are compared to a
relative 1e-9, so the test does not hang on the last bit of libm.
"""

import dataclasses
import hashlib
import io
from collections import Counter
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from fockabs import verify
from fockabs.cli_io import _cmd_verify, main, parse_config
from fockabs.fock_core import Statistics
from fockabs.field_ops import ModeBasis, Wavepacket
from fockabs.perturbation import evaluate_inputs, evaluate_rates
from fockabs.verify import TOLERANCE, TrialRecord, _compare, _oracle
from helpers import at_order1, readme_range32, verify_records

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_seed7_trials40.txt"


def _fields(line: str) -> list[tuple[str, str]]:
    return [tuple(token.partition("=")[::2]) for token in line.split()]


def test_verify_output_matches_the_golden_stream(capsys):
    assert main(["verify", "--trials", "40", "--seed", "7"]) == 0
    got = capsys.readouterr().out.splitlines()
    want = GOLDEN.read_text().splitlines()
    assert len(got) == len(want) == 241
    for number, (got_line, want_line) in enumerate(zip(got, want)):
        got_fields, want_fields = _fields(got_line), _fields(want_line)
        assert [k for k, _ in got_fields] == [k for k, _ in want_fields], number
        for (key, value), (_, expected) in zip(got_fields, want_fields):
            if key == "cfg":
                continue  # a digest of reprs, so of every last bit
            if key == "rel" or key.startswith("max_rel"):
                # relative errors are round-off; only their side of the tolerance counts
                assert (float(value) <= TOLERANCE) == (float(expected) <= TOLERANCE), number
            elif key in ("closed", "oracle"):
                # rates below 1e-20 are float noise around an exact zero in these draws
                assert math.isclose(
                    float(value), float(expected), rel_tol=1e-9, abs_tol=1e-20
                ), (number, key, value, expected)
            else:
                assert value == expected, (number, key)


def test_the_digest_is_sha1_over_the_reprs():
    """``cfg=`` is the first 10 hex digits of the SHA-1 over the reprs of a
    trial's basis, medium, statistics, detector spin and position, joined by
    ``|``, whichever module computes it."""
    for seed in range(20):
        for statistics in Statistics:
            basis, model, spin, q, _ = verify._draw(Random(seed), statistics)
            parts = (basis, model, statistics, spin, q)
            text = "|".join(map(repr, parts))
            assert verify._digest(*parts) == hashlib.sha1(text.encode()).hexdigest()[:10]


# with CPython's built-in _sha1 blocked, verify takes its SHA-1 from hashlib
HASHLIB_FALLBACK = """\
import sys
sys.modules["_sha1"] = None
from fockabs import verify
from fockabs.cli_io import main
assert verify.sha1 is sys.modules["hashlib"].sha1
sys.exit(main(["verify", "--trials", "40", "--seed", "7"]))
"""


def test_the_hashlib_fallback_prints_the_golden_stream_byte_for_byte():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", HASHLIB_FALLBACK],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == GOLDEN.read_bytes()


def test_trial_records_are_frozen_and_hold_no_instance_dict():
    record = verify_records(1)[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.status = "ok"


@pytest.mark.parametrize("seed", [-1, -7])
def test_a_negative_seed_is_rejected_before_any_draw(monkeypatch, seed):
    def no_draw(*args):
        raise AssertionError("drew a random generator")

    monkeypatch.setattr(verify, "Random", no_draw)
    message = f"seed must be a nonnegative integer, got {seed}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        next(verify.record_blocks(3, seed=seed))


@pytest.mark.parametrize(
    ("trials", "seed", "message"),
    [
        (True, 0, "trials must be a positive integer, got True"),
        (2.5, 0, "trials must be a positive integer, got 2.5"),
        (3.0, 0, "trials must be a positive integer, got 3.0"),
        (3, False, "seed must be a nonnegative integer, got False"),
        (3, True, "seed must be a nonnegative integer, got True"),
        (3, 1.5, "seed must be a nonnegative integer, got 1.5"),
        (3, 2.0, "seed must be a nonnegative integer, got 2.0"),
    ],
)
def test_a_bool_or_non_int_argument_is_rejected_before_any_draw(
    monkeypatch, capsys, trials, seed, message
):
    # bool is an int subclass, and a float would reach range() or the seed
    def no_draw(*args):
        raise AssertionError("drew a trial")

    monkeypatch.setattr(verify, "_draw", no_draw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        next(verify.record_blocks(trials, seed=seed))
    # the command line's own consumer of the blocks writes no line either
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _cmd_verify(trials, seed)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("seed", [3, 2024])
def test_a_trials_records_do_not_depend_on_its_block(seed):
    block = verify._BLOCK
    longer = verify_records(3 * block + 5, seed=seed)
    for k in (1, block - 1, block, block + 1, 2 * block + 3):
        records = verify_records(k, seed=seed)
        assert {r.index for r in records} == set(range(k)), k
        # trials alternate Bose and Fermi, so every run but one trial's has both
        assert {r.statistics for r in records} == ({Statistics.BOSE} if k == 1 else set(Statistics))
        assert records == [r for r in longer if r.index < k], k


def test_each_input_is_evaluated_and_checked_once(monkeypatch):
    calls = Counter()

    def count(name):
        function = getattr(verify, name)

        def counted(*args, **kwargs):
            if name.startswith("evaluate_"):
                convention = args[3] if len(args) > 3 else kwargs.get("energy_convention", "mean")
                calls[name, convention] += 1
                if name == "evaluate_inputs":
                    calls["inputs evaluated"] += len(args[0])
            else:
                calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    steps = (
        "evaluate_inputs", "evaluate_rates", "packet_state", "two_particle_state",
        "first_order_amplitude", "second_order_amplitude", "single_absorption_vacuum_overlap",
    )
    for name in steps:
        count(name)
    records = verify_records(60, seed=0)
    flagged = sum(r.status == "flagged" for r in records)
    singles = sum(r.packet_kind == "single" for r in records)
    assert not [r.line() for r in records if r.status == "fail"]
    assert flagged and singles
    # one mean-energy call per trial, of its four inputs, and a per-mode
    # call for each flagged record alone
    assert calls == {
        ("evaluate_inputs", "mean"): 60,
        "inputs evaluated": 4 * 60,
        ("evaluate_rates", "per_mode"): flagged,
        "packet_state": 2 * 60,
        "two_particle_state": 2 * 60,
        "first_order_amplitude": 2 * 60,
        "second_order_amplitude": singles,
        "single_absorption_vacuum_overlap": singles,
    }


def _fermi_pair(text: str) -> str:
    """A README example config run as a fermion pair: ``beam`` and a second,
    distinct packet."""
    partner = "  partner:\n    spin: 0\n    amplitudes: [[0.6, 0.0], 0.0, [0.0, 0.8]]\n\nmedium:"
    edits = (
        ("\nmedium:", partner),
        ("statistics: bose ", "statistics: fermi "),
        ("packets: [beam, beam]", "packets: [beam, partner]"),
    )
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def _coupling(text: str, coupling: str) -> str:
    """A README example config with ``medium.coupling`` set to ``coupling``."""
    old = "coupling: [1.0, 0.0]"
    assert text.count(old) == 1
    return text.replace(old, f"coupling: [{coupling}, 0.0]")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(readme_range32(), id="bose-pair"),
        pytest.param(at_order1(readme_range32()), id="order1"),
        pytest.param(_fermi_pair(readme_range32()), id="fermi-pair"),
        # rates of about 1e-24 and below, where an absolute floor would call
        # any two of them equal
        pytest.param(at_order1(_coupling(readme_range32(), "1.0e-12")), id="order1-tiny"),
        pytest.param(_coupling(readme_range32(), "1.0e-6"), id="bose-pair-tiny"),
    ],
)
def test_compare_passes_every_position_of_a_parsed_config(monkeypatch, text):
    # the range holds q = pi, a node of ``beam``: there every rate is float
    # noise around an exact zero, and the floor must come from the size of
    # the input, not from the noise
    config = parse_config(text)
    # the oracle takes one point as a tuple, as ModeBasis.position gives it
    positions = list(map(tuple, config.positions.tolist()))
    assert len(positions) == 32 and (math.pi,) in positions

    def records_at(index, q):
        # both steps, through whatever ``verify.evaluate_rates`` is now
        batch = verify.evaluate_rates(config.run, config.medium, [q])
        oracle = _oracle(config.run, config.medium, q)
        return _compare(config.run, config.medium, q, batch, oracle, index, 0, "config")

    for index, q in enumerate(positions):
        records = records_at(index, q)
        assert records and not [r.line() for r in records if r.status == "fail"], q

    # a closed form that doubles every rate fails wherever the true rate is
    # not zero, so at least everywhere but the node
    def doubled(*args):
        batch = evaluate_rates(*args)
        return batch._replace(rate_order1=2 * batch.rate_order1, rate_order2=2 * batch.rate_order2)

    monkeypatch.setattr(verify, "evaluate_rates", doubled)
    for index, q in enumerate(positions):
        record = records_at(index, q)[0]
        assert record.status == "fail" or q == (math.pi,), record.line()


def _patch_closed_forms(monkeypatch, change, conventions=("mean", "per_mode")):
    """Make every closed form that verify evaluates under one of ``conventions``,
    through ``evaluate_inputs`` or ``evaluate_rates`` alike, the batch that
    ``change`` makes of the true one."""

    def changed(batch, convention):
        return change(batch) if convention in conventions else batch

    def inputs(inputs, model, coords, energy_convention="mean"):
        batches = evaluate_inputs(inputs, model, coords, energy_convention)
        return [changed(batch, energy_convention) for batch in batches]

    def rates(inp, model, coords, energy_convention="mean"):
        return changed(evaluate_rates(inp, model, coords, energy_convention), energy_convention)

    monkeypatch.setattr(verify, "evaluate_inputs", inputs)
    monkeypatch.setattr(verify, "evaluate_rates", rates)


def _doubled_order2(batch):
    return batch._replace(rate_order2=2 * batch.rate_order2)


def test_degenerate_support_is_relative_to_the_packet_energies():
    # SI scales: a micrometre box holding a proton, where kinetic energies
    # are about 1e-28 J and rounding them to 12 decimals makes them all 0
    basis = ModeBasis([1.0e-6], [(0,), (1,), (-1,), (2,)], hbar=1.0546e-34, mass=1.67e-27)
    energies = basis.kinetic_energies
    assert 1e-28 < energies[1] < energies[3] < 1e-27

    def packet(*amplitudes: complex) -> Wavepacket:
        return Wavepacket(basis, amplitudes, 0)

    root_half = math.sqrt(0.5)
    assert not verify._degenerate_support(packet(0.0, root_half, 0.0, root_half))
    assert not verify._degenerate_support(packet(root_half, root_half, 0.0, 0.0))
    assert verify._degenerate_support(packet(0.0, root_half, root_half, 0.0))
    assert verify._degenerate_support(packet(0.0, 0.0, 0.0, 1.0))
    assert verify._degenerate_support(packet(1.0, 0.0, 0.0, 0.0))


def test_a_wrong_mean_energy_rate_fails_on_sharp_pairs(monkeypatch):
    # sharp packets occupy one energy each, so the mean-energy closed form is
    # exact for them: a wrong one must fail there, not be flagged as a
    # convention gap that the per-mode form explains
    def bound_order2(record: TrialRecord) -> float:
        # the sharp pair of the record's trial, drawn again
        _, model, _, q, inputs = verify._draw(Random(record.seed), record.statistics)
        return evaluate_rates(inputs[2], model, [q]).bound_order2

    _patch_closed_forms(monkeypatch, _doubled_order2, conventions=("mean",))
    # a fermion pair whose orderings cancel has a rate of round-off, and
    # twice round-off is still round-off
    records = [
        r for r in verify_records(40, seed=0)
        if r.order == 2 and r.packet_kind == "sharp" and r.rate_oracle > 1e-12 * bound_order2(r)
    ]
    assert len(records) > 20
    assert not [r.line() for r in records if r.status != "fail"]


class _RandomOnly:
    """A generator with ``random()`` and nothing else, drawing Python's stream."""

    def __init__(self, seed: int):
        self._random = Random(seed).random

    def random(self) -> float:
        return self._random()


def test_draws_use_random_alone_and_cover_the_domain(monkeypatch):
    collisions = []
    real = verify.AbsorptionInput

    def absorption_input(packets, *args):
        try:
            return real(packets, *args)
        except verify.IndistinguishableFermionsError:
            collisions.append(packets)
            raise

    monkeypatch.setattr(verify, "AbsorptionInput", absorption_input)
    seen = {key: set() for key in ("dim", "n_modes", "spins", "channels")}
    for seed in range(200):
        for statistics in Statistics:
            basis, model, spin, q, inputs = verify._draw(_RandomOnly(seed), statistics)
            seen["dim"].add(basis.dim)
            seen["n_modes"].add(basis.n_modes)
            seen["spins"].add(basis.spins)
            seen["channels"].add(len(model.channels))
            assert spin in basis.spins and len(q) == basis.dim
            assert all(0.0 <= x < length for x, length in zip(q, basis.box_lengths))
            assert [len(inp.packets) for inp in inputs] == [1, 1, 2, 2]
    assert seen == {
        "dim": {1, 2, 3},
        "n_modes": {2, 3, 4},
        "spins": {(0,), (0, 1), (0, 1, 2)},
        "channels": {1, 2},
    }
    # the Fermi sharp pair that lands in one mode and spin is moved, not lost
    assert collisions


def _failures(records: list[TrialRecord]) -> list[TrialRecord]:
    return [r for r in records if r.status == "fail"]


def _summary_from_the_records(records: list[TrialRecord]) -> str:
    """The summary line from the record list itself, not from ``tally``."""

    def worst(keep) -> float:
        return max([r.rel_error for r in records if r.status != "flagged" and keep(r)], default=0.0)

    first = worst(lambda r: r.order == 1)
    second_sharp = worst(lambda r: r.order == 2 and r.packet_kind == "sharp")
    return (
        f"comparisons={len(records)} failures={len(_failures(records))} "
        f"flagged={sum(r.status == 'flagged' for r in records)} "
        f"max_rel_first={first:.3e} max_rel_second_sharp={second_sharp:.3e}"
    )


def _cli_matches_the_library(capsys, trials: int, seed: int) -> list[TrialRecord]:
    """The command line's bytes and exit code against the library's records."""
    code = main(["verify", "--trials", str(trials), "--seed", str(seed)])
    out, err = capsys.readouterr()
    records = verify_records(trials, seed=seed)
    summary = verify.summary_line(verify.tally(records))
    assert out == "".join(f"{r.line()}\n" for r in records) + summary + "\n"
    assert (code, err) == (1 if _failures(records) else 0, "")
    assert summary == _summary_from_the_records(records)
    return records


def test_the_tally_of_any_split_is_the_report_summary():
    def record(order, kind, rel, status):
        return TrialRecord(0, 0, "digest", order, Statistics.BOSE, kind, 0.0, 0.0, rel, status)

    # a NaN first stays the maximum, as max() keeps it; flagged records and
    # single-absorption checks are in no maximum
    records = [
        record(1, "sharp", math.nan, "fail"),
        record(1, "spread", 1e-3, "fail"),
        record(2, "spread", 0.7, "flagged"),
        record(2, "sharp", 2e-12, "ok"),
        record(2, "single", 1.0, "fail"),
        record(2, "sharp", 0.9, "flagged"),
        record(2, "sharp", 3e-12, "ok"),
    ]
    want = "comparisons=7 failures=3 flagged=2 max_rel_first=nan max_rel_second_sharp=3.000e-12"
    assert _summary_from_the_records(records) == want
    for split in range(len(records) + 1):
        counts = verify.tally(records[split:], verify.tally(records[:split]))
        assert verify.summary_line(counts) == want, split
    assert verify.summary_line(verify.tally([])) == (
        "comparisons=0 failures=0 flagged=0 max_rel_first=0.000e+00 max_rel_second_sharp=0.000e+00"
    )


_B = verify._BLOCK


@pytest.mark.parametrize("seed", [3, 2024])
@pytest.mark.parametrize("trials", [1, _B - 1, _B, _B + 1, 2 * _B + 3])
def test_the_cli_writes_the_library_report_byte_for_byte(capsys, trials, seed):
    records = _cli_matches_the_library(capsys, trials, seed)
    assert {r.index for r in records} == set(range(trials))


def test_the_cli_summary_counts_failures_across_blocks(monkeypatch, capsys):
    def doubled(batch):
        return batch._replace(rate_order1=2 * batch.rate_order1, rate_order2=2 * batch.rate_order2)

    _patch_closed_forms(monkeypatch, doubled)
    records = _cli_matches_the_library(capsys, 2 * _B + 3, 0)
    # failures in the last, partial block too
    assert {r.index // _B for r in _failures(records)} == {0, 1, 2}


def test_the_cli_summary_leaves_flagged_records_out_of_its_maxima(monkeypatch, capsys):
    # a doubled mean-energy pair rate on packets taken as spread in energy
    # flags every sharp pair that the per-mode form matches, with rel=5e-01:
    # the maxima must not see those, only the sharp pairs of zero rate
    _patch_closed_forms(monkeypatch, _doubled_order2, conventions=("mean",))
    monkeypatch.setattr(verify, "_degenerate_support", lambda packet: False)
    records = _cli_matches_the_library(capsys, 2 * _B + 3, 0)
    flagged_sharp = [r for r in records if r.status == "flagged" and r.packet_kind == "sharp"]
    assert {r.index // _B for r in flagged_sharp} == {0, 1, 2}
    _, _, _, _, max_rel_second_sharp = verify.tally(records)
    assert max_rel_second_sharp < min(
        r.rel_error for r in flagged_sharp
    )


def test_the_cli_writes_each_block_before_it_draws_the_next(monkeypatch):
    trials, seed = 3 * _B + 5, 11
    records = verify_records(trials, seed=seed)
    per_block = Counter(r.index // _B for r in records)
    # record lines of the blocks before each block, from the library's records
    written_before = [sum(per_block[b] for b in range(block)) for block in range(4)]

    out = io.StringIO()
    written_at_draw = []
    draw = verify._draw

    def noting_draw(*args):
        written_at_draw.append(out.getvalue().count("\n"))
        return draw(*args)

    monkeypatch.setattr(verify, "_draw", noting_draw)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "--trials", str(trials), "--seed", str(seed)]) == 0
    assert written_at_draw == [written_before[index // _B] for index in range(trials)]
    assert out.getvalue().count("\n") == len(records) + 1
