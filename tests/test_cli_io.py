"""Config parsing, scan driver, CSV output, and the CLI entry point."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from fockabs import (
    ConfigError,
    IndistinguishableFermionsError,
    MediumChannel,
    MediumModel,
    ModeBasis,
    RateBatch,
    ResonanceError,
    Statistics,
    Wavepacket,
    emit_csv,
    parse_config,
    run_scan,
    serialize_config,
)
from fockabs import cli_io
from fockabs.cli_io import ExperimentConfig, RunSpec, main

TWO_PI = 2 * math.pi

MINIMAL_ORDER1 = """
basis:
  box_lengths: [6.283185307179586]
  modes: [[0]]
  spins: [0]
packets:
  beam: {spin: 0, amplitudes: [[1.0, 0.0]]}
medium:
  coupling: [1.0, 0.0]
  first_order_element: [1.0, 0.0]
scan:
  positions: [[0.0], [1.0], [2.0]]
run:
  order: 1
  packets: [beam]
  detector_spin: 0
"""

ORDER2_TEMPLATE = """
basis:
  box_lengths: [6.283185307179586]
  modes: [[0], [1], [-1]]
  spins: [0, 1]
packets:
  beam:
    spin: 0
    amplitudes: [0.0, [0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
  partner:
    spin: 0
    amplitudes: [[1.0, 0.0], 0.0, 0.0]
medium:
  coupling: [0.9, 0.3]
  channels:
    - {label: ch0, element_in: [1.1, -0.2], element_out: [0.7, 0.5], energy: 2.3}
    - {label: ch1, element_in: [0.4, 0.9], element_out: [1.2, -0.1], energy: -0.8}
scan:
  range: {start: [0.0], stop: [6.283185307179586], count: 12}
run:
  order: 2
  statistics: %s
  packets: [beam, %s]
  detector_spin: 0
"""


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL_ORDER1)
    assert cfg.run.order == 1
    assert isinstance(cfg.basis, ModeBasis)
    assert cfg.basis.mode_numbers == ((0,),)
    assert list(cfg.packets) == ["beam"]
    assert cfg.packets["beam"] == Wavepacket(cfg.basis, (1.0 + 0.0j,), 0)
    assert cfg.medium.first_order_element == 1.0 + 0.0j
    assert len(cfg.positions) == 3


def test_round_trip_is_exact():
    for text in (MINIMAL_ORDER1, ORDER2_TEMPLATE % ("bose", "partner")):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_complexes = st.builds(complex, _finite, _finite)
# names that YAML would read as numbers, booleans or nulls come back quoted
_names = st.text(alphabet="abeinorsty01_-.", min_size=1, max_size=5)


@st.composite
def experiment_configs(draw):
    dim = draw(st.integers(1, 3))
    basis = ModeBasis.from_mode_numbers(
        draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)),
        draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=6, unique=True)),
        hbar=draw(st.floats(1e-3, 1e3).filter(lambda x: x != 1.0)),
        mass=draw(st.floats(1e-3, 1e3).filter(lambda x: x != 1.0)),
        spins=draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True)),
    )
    packets = {}
    for name in draw(st.lists(_names, min_size=1, max_size=3, unique=True)):
        amps = draw(
            st.lists(
                st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
                min_size=basis.n_modes,
                max_size=basis.n_modes,
            ).filter(lambda a: sum(abs(z) ** 2 for z in a) > 1e-3)
        )
        norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
        packets[name] = Wavepacket(
            basis, tuple(z / norm for z in amps), draw(st.sampled_from(basis.spins))
        )
    labels = draw(st.lists(_names.filter(lambda s: s != "M1"), max_size=3, unique=True))
    energies = draw(st.lists(_finite, min_size=len(labels), max_size=len(labels), unique=True))
    channels = tuple(
        MediumChannel(label, draw(_complexes), draw(_complexes), energy)
        for label, energy in zip(labels, energies)
    )
    first = draw(_complexes) if not channels else draw(st.none() | _complexes)
    order = draw(st.sampled_from((1, 2) if channels else (1,)))
    run = RunSpec(
        order,
        draw(st.sampled_from(Statistics)),
        tuple(draw(st.lists(st.sampled_from(sorted(packets)), min_size=order, max_size=order))),
        draw(st.sampled_from(basis.spins)),
    )
    positions = draw(st.lists(st.tuples(*[_finite] * dim), min_size=1, max_size=5))
    return ExperimentConfig(
        basis, packets, MediumModel(draw(_complexes), channels, first), tuple(positions), run
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=experiment_configs())
def test_serialized_configs_parse_back_equal(config):
    assert parse_config(serialize_config(config)) == config


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("basis: [unclosed\n  - oops")
    assert "line" in str(err.value)


def _readme_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)


def _listed_config(count: int) -> str:
    listed = "".join(f"\n    - [{k * TWO_PI / count!r}]" for k in range(count))
    return MINIMAL_ORDER1.replace(
        "positions: [[0.0], [1.0], [2.0]]", "positions:" + listed
    )


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(MINIMAL_ORDER1, id="minimal-order1"),
        pytest.param(ORDER2_TEMPLATE % ("bose", "partner"), id="order2-bose"),
        pytest.param(ORDER2_TEMPLATE % ("fermi", "beam"), id="order2-fermi"),
        pytest.param(_readme_example(), id="readme-example"),
        pytest.param(
            serialize_config(parse_config(ORDER2_TEMPLATE % ("bose", "partner"))),
            id="serialized",
        ),
        pytest.param(_listed_config(2000), id="listed-2000"),
    ],
)
def test_loaders_parse_equal_configs(monkeypatch, text):
    assert cli_io._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    config = parse_config(text)
    monkeypatch.setattr(cli_io, "_YAML_LOADER", yaml.SafeLoader)
    assert parse_config(text) == config


@pytest.mark.parametrize(
    "loader",
    [
        pytest.param(cli_io._YAML_LOADER, id="module-loader"),
        pytest.param(yaml.SafeLoader, id="SafeLoader"),
    ],
)
@pytest.mark.parametrize(
    "text, kind, line, column",
    [
        pytest.param("a:\n  - 1\n - 2\n", "syntax error", 3, 2, id="bad-indent"),
        pytest.param("a: [1, 2\nb: 3\n", "syntax error", 2, 2, id="unclosed-flow"),
        pytest.param("\tfoo: 1\n", "syntax error", 1, 1, id="tab"),
        # well-formed YAML: the safe constructor refuses the tag
        pytest.param("x: !!python/object/apply:os.system ['true']\n",
                     "cannot construct a value", 1, 4, id="python-tag"),
    ],
)
def test_yaml_errors_carry_line_and_column(monkeypatch, loader, text, kind, line, column):
    monkeypatch.setattr(cli_io, "_YAML_LOADER", loader)
    with pytest.raises(ConfigError, match=f"^{kind} at line {line}, column {column}:"):
        parse_config(text)


ORDER2_BOSE = ORDER2_TEMPLATE % ("bose", "partner")
ORDER2_CHANNELS = """  channels:
    - {label: ch0, element_in: [1.1, -0.2], element_out: [0.7, 0.5], energy: 2.3}
    - {label: ch1, element_in: [0.4, 0.9], element_out: [1.2, -0.1], energy: -0.8}
"""
ORDER1_NO_ELEMENT = (
    ORDER2_BOSE.replace(ORDER2_CHANNELS, "")
    .replace("order: 2", "order: 1")
    .replace("packets: [beam, partner]", "packets: [beam]")
)


@pytest.mark.parametrize(
    "old, new, key",
    [
        pytest.param("modes: [[0], [1], [-1]]", "modes: [[0], [1], [1]]",
                     "basis.modes", id="duplicate-modes"),
        pytest.param("label: ch1", "label: ch0",
                     "medium.channels", id="duplicate-labels"),
        pytest.param("label: ch1", "label: M1",
                     "medium.channels", id="reserved-label"),
        pytest.param("energy: -0.8", "energy: 2.3",
                     "medium.channels", id="degenerate-energies"),
        pytest.param("spins: [0, 1]", "spins: [0, 1]\n  hbar: -1.0",
                     "basis.hbar", id="negative-hbar"),
        pytest.param("spins: [0, 1]", "spins: [0, 1]\n  mass: 0.0",
                     "basis.mass", id="zero-mass"),
        pytest.param("spins: [0, 1]", "spins: [0, 0]",
                     "basis.spins", id="duplicate-spins"),
        pytest.param("spins: [0, 1]", "spins: [0, -1]",
                     "basis.spins", id="negative-spin"),
        pytest.param("spin: 0\n    amplitudes: [0.0,", "spin: 2\n    amplitudes: [0.0,",
                     "packets.beam.spin", id="packet-spin-not-in-basis"),
        pytest.param("amplitudes: [[1.0, 0.0], 0.0, 0.0]", "amplitudes: [[1.0, 0.0], 0.0]",
                     "packets.partner.amplitudes", id="amplitude-count"),
        # an order-1 config with neither channels nor first_order_element
        pytest.param(ORDER2_BOSE, ORDER1_NO_ELEMENT,
                     "medium.first_order_element", id="no-first-order-element"),
    ],
)
def test_model_rules_are_checked_at_parse_time(old, new, key):
    text = ORDER2_BOSE
    assert old in text
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(text.replace(old, new))


@pytest.mark.parametrize(
    "old, new, key",
    [
        pytest.param("run:", "scan:\n  positions: [[0.0]]\nrun:",
                     "config.scan", id="top-level"),
        pytest.param("spins: [0, 1]", "spins: [0, 1]\n  hbar: 1.0\n  hbar: 2.0",
                     "basis.hbar", id="basis"),
        pytest.param("energy: 2.3}", "energy: 2.3, energy: 2.4}",
                     "medium.channels[0].energy", id="flow-mapping-channel"),
        pytest.param("  partner:\n", "  beam:\n    spin: 0\n    amplitudes: [1.0, 0.0, 0.0]\n"
                     "  partner:\n", "packets.beam", id="packet-names"),
    ],
)
def test_duplicate_keys_are_named(old, new, key):
    # the safe loader kept the last value without a word
    assert old in ORDER2_BOSE
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: duplicate key$"):
        parse_config(ORDER2_BOSE.replace(old, new))


def test_merge_keys_fill_in_and_own_keys_override():
    packets = """  beam:
    spin: 0
    amplitudes: [0.0, [0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
  partner:
    spin: 0
    amplitudes: [[1.0, 0.0], 0.0, 0.0]
"""
    amplitudes = "amplitudes: [0.0, [0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]"
    # "again" reads the merged mapping a second time, through an alias
    merged = ORDER2_BOSE.replace(ORDER2_CHANNELS, """  channels:
    - &ch0 {label: ch0, element_in: [1.1, -0.2], element_out: [0.7, 0.5], energy: 2.3}
    - {<<: *ch0, label: ch1, energy: -0.8}
""").replace(packets, f"""  beam: &beam {{spin: 1, {amplitudes}}}
  partner: &partner {{<<: [*beam], spin: 0}}
  again: *partner
""")
    explicit = ORDER2_BOSE.replace(
        "element_in: [0.4, 0.9], element_out: [1.2, -0.1]",
        "element_in: [1.1, -0.2], element_out: [0.7, 0.5]",
    ).replace(packets, f"""  beam: {{spin: 1, {amplitudes}}}
  partner: {{spin: 0, {amplitudes}}}
  again: {{spin: 0, {amplitudes}}}
""")
    assert packets in ORDER2_BOSE
    assert parse_config(merged) == parse_config(explicit)


@pytest.mark.parametrize("channels", ["", "  channels:\n", "  channels: []\n"])
def test_absent_or_empty_channels_mean_none(channels):
    text = MINIMAL_ORDER1.replace("medium:\n", "medium:\n" + channels)
    assert parse_config(text).medium.channels == ()


def test_channels_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL_ORDER1.replace("medium:\n", "medium:\n  channels: 5\n"))
    assert main(["scan", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: medium.channels: expected a list\n"


def test_reals_may_be_written_without_a_dot():
    # YAML 1.1 resolves a float only with a dot, so a plain 1e0 is a string
    text = MINIMAL_ORDER1.replace("spins: [0]", "spins: [0]\n  hbar: 1e0\n  mass: -2E+3")
    with pytest.raises(ConfigError, match=r"^basis\.mass: mass must be finite and positive"):
        parse_config(text)
    text = text.replace("mass: -2E+3", "mass: 2E+3").replace(POSITIONS, "positions: [[-1e-17]]")
    cfg = parse_config(text)
    assert (cfg.basis.hbar, cfg.basis.mass) == (1.0, 2000.0)
    assert cfg.positions == ((-1e-17,),)
    for quoted in ("'1e0'", '"1.0"'):
        with pytest.raises(ConfigError, match="^basis.hbar: expected a real number"):
            parse_config(MINIMAL_ORDER1.replace("spins: [0]", f"spins: [0]\n  hbar: {quoted}"))


def test_scan_and_exponent_agree_on_a_tiny_negative_position(tmp_path, capsys):
    # np.mod(-1e-17, 2*pi) rounds to 2*pi, which the wrap folds to 0
    outputs = []
    for first in ("0.0", "-1e-17", "-1.0e-17"):
        path = tmp_path / "cfg.yaml"
        path.write_text(_readme_example().replace("positions: [[0.0],", f"positions: [[{first}],"))
        assert main(["scan", "--config", str(path)]) == 0
        assert main(["exponent", "--config", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].splitlines()[1].startswith("0,")
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_undefined_packet_named_in_error():
    bad = MINIMAL_ORDER1.replace("packets: [beam]", "packets: [h]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "'h'" in str(err.value)


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_ORDER1 + "\nextra_section: 1\n")
    assert "extra_section" in str(err.value)
    bad = MINIMAL_ORDER1.replace("order: 1", "order: 1\n  typo_key: 2")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "typo_key" in str(err.value)


def test_missing_section_is_named():
    bad = "\n".join(
        line for line in MINIMAL_ORDER1.splitlines() if "detector_spin" not in line
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "detector_spin" in str(err.value)


def test_normalization_rules(recwarn):
    # within 1e-10 (the Wavepacket gate): accepted as-is, without a warning
    exact = parse_config(MINIMAL_ORDER1)
    assert exact.packets["beam"].amplitudes == (1.0 + 0.0j,)
    near = MINIMAL_ORDER1.replace("[[1.0, 0.0]]", "[[1.00000000002, 0.0]]")
    assert parse_config(near).packets["beam"].amplitudes == (1.00000000002 + 0.0j,)
    assert not recwarn.list

    # off by ~1e-7: warn and renormalize
    off = MINIMAL_ORDER1.replace("[[1.0, 0.0]]", "[[1.00000005, 0.0]]")
    with pytest.warns(UserWarning):
        cfg = parse_config(off)
    amp = cfg.packets["beam"].amplitudes[0]
    assert abs(abs(amp) - 1.0) < 1e-12

    # off by too much: rejected
    bad = MINIMAL_ORDER1.replace("[[1.0, 0.0]]", "[[1.1, 0.0]]")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_amplitude_count_must_match_modes():
    bad = MINIMAL_ORDER1.replace("[[1.0, 0.0]]", "[[1.0, 0.0], [0.0, 0.0]]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "amplitudes" in str(err.value)


def test_order2_requires_channels():
    bad = ORDER2_TEMPLATE % ("bose", "partner")
    bad = bad.replace(
        """  channels:
    - {label: ch0, element_in: [1.1, -0.2], element_out: [0.7, 0.5], energy: 2.3}
    - {label: ch1, element_in: [0.4, 0.9], element_out: [1.2, -0.1], energy: -0.8}""",
        "  first_order_element: [1.0, 0.0]",
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "channels" in str(err.value)


def test_run_packet_count_must_match_order():
    bad = MINIMAL_ORDER1.replace("packets: [beam]", "packets: [beam, beam]")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_range_scan_generates_count_positions():
    cfg = parse_config(ORDER2_TEMPLATE % ("bose", "partner"))
    assert len(cfg.positions) == 12
    assert cfg.positions[0] == (0.0,)


def test_scan_wants_exactly_one_source():
    bad = MINIMAL_ORDER1.replace(
        "positions: [[0.0], [1.0], [2.0]]",
        "positions: [[0.0]]\n  range: {start: [0.0], stop: [1.0], count: 2}",
    )
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_scan_order1_plane_wave_is_flat_unit_rate():
    batch = run_scan(parse_config(MINIMAL_ORDER1))
    assert batch.coords.tolist() == [[0.0], [1.0], [2.0]]
    for column in (batch.rate_order1, batch.rate_order2, batch.density_a, batch.density_b):
        assert column.shape == (3,)
    assert np.all(np.abs(batch.rate_order1 - 1.0) < 1e-12)
    assert np.all(batch.rate_order2 == 0.0)
    assert np.all(batch.density_b == 0.0)
    assert np.all(np.abs(batch.density_a - 1 / TWO_PI) < 1e-12)


def test_scan_order2_same_state_boson_ratio_constant():
    text = ORDER2_TEMPLATE % ("bose", "beam")
    batch = run_scan(parse_config(text))
    assert batch.coords.shape == (12, 1)
    ratios = [
        rate / (a * b)
        for rate, a, b in zip(batch.rate_order2, batch.density_a, batch.density_b)
        if a * b > 1e-12
    ]
    assert len(ratios) >= 8
    assert (max(ratios) - min(ratios)) / max(ratios) < 1e-10


def test_scan_fermi_same_state_rejected_before_evaluation():
    text = ORDER2_TEMPLATE % ("fermi", "beam")
    with pytest.raises(IndistinguishableFermionsError):
        run_scan(parse_config(text))


def test_scan_resonance_error_names_position():
    text = ORDER2_TEMPLATE % ("bose", "partner")
    resonant = text.replace("energy: 2.3", "energy: 0.5")
    # mean kinetic of the two-mode beam is 0.5: every position resonates
    with pytest.raises(ResonanceError) as err:
        run_scan(parse_config(resonant))
    assert "position" in str(err.value)


def _batch(coords, rate_order1, rate_order2, density_a, density_b) -> RateBatch:
    """A RateBatch holding the given columns; amplitude columns are zero."""
    coords = np.array(coords, dtype=float)
    zeros = np.zeros(len(coords), dtype=complex)
    columns = [np.array(c, dtype=float) for c in (density_a, density_b, rate_order1, rate_order2)]
    return RateBatch(coords, zeros, zeros, *columns, np.zeros((len(coords), 2), dtype=complex))


def test_emit_csv_shapes():
    empty = _batch(np.zeros((0, 1)), [], [], [], [])
    assert emit_csv(empty) == "q0,rate_order1,rate_order2,density_a,density_b\n"
    text = emit_csv(_batch([[float(i)] for i in range(3)], [1.0] * 3, [2.0] * 3, [0.25] * 3, [0.5] * 3))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[1] == "0,1,2,0.25,0.5"
    assert lines[3] == "2,1,2,0.25,0.5"
    three_d = emit_csv(_batch([[0.5, 1.0, 1.5]], [1.0], [2.0], [3.0], [4.0]))
    assert three_d == "q0,q1,q2,rate_order1,rate_order2,density_a,density_b\n0.5,1,1.5,1,2,3,4\n"


def test_emit_csv_12_significant_digits():
    text = emit_csv(_batch([[1.0 / 3.0]], [2.0 / 3.0], [0.0], [0.0], [0.0]))
    assert "0.333333333333" in text
    assert "0.666666666667" in text


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("listed", [True, False], ids=["listed", "range-32"])
def test_readme_example_csv_is_pinned(tmp_path, listed):
    """``fockabs scan`` of the README example, byte for byte: the listed
    positions as written, and the commented-out ``range`` of 32 points."""
    text = _readme_example()
    if not listed:
        old = "  positions: [[0.0], [0.5], [1.0]]\n  # range:"
        assert old in text
        text = text.replace(old, "  range:")
    config = tmp_path / "cfg.yaml"
    config.write_text(text)
    out = tmp_path / "rates.csv"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    golden = GOLDEN / ("readme_listed.csv" if listed else "readme_range32.csv")
    assert out.read_bytes() == golden.read_bytes()


def test_scan_and_csv_deterministic():
    text = ORDER2_TEMPLATE % ("bose", "partner")
    first = emit_csv(run_scan(parse_config(text)))
    second = emit_csv(run_scan(parse_config(text)))
    assert first == second


def test_cli_scan_stdout(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL_ORDER1)
    assert main(["scan", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("q0,rate_order1")
    assert len(out.splitlines()) == 4


def test_cli_scan_to_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_ORDER1)
    out_path = tmp_path / "rates.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("q0,")


def test_cli_reports_missing_config(capsys):
    assert main(["scan", "--config", "/nonexistent/cfg.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_reports_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL_ORDER1.replace("packets: [beam]", "packets: [h]"))
    assert main(["scan", "--config", str(path)]) == 1
    assert "'h'" in capsys.readouterr().err


AMPS = "amplitudes: [[1.0, 0.0]]"
POSITIONS = "positions: [[0.0], [1.0], [2.0]]"


@pytest.mark.parametrize(
    "old, new, key",
    [
        pytest.param(AMPS, "amplitudes: [[.nan, 0.0]]",
                     "packets.beam.amplitudes[0][0]", id="nan-pair"),
        pytest.param(AMPS, "amplitudes: [.nan]",
                     "packets.beam.amplitudes[0]", id="nan-real"),
        pytest.param(AMPS, "amplitudes: ['nan+1j']",
                     "packets.beam.amplitudes[0]", id="nan-string"),
        pytest.param(POSITIONS, "positions: [[0.0], [.nan], [2.0]]",
                     "scan.positions[1][0]", id="nan-position"),
        pytest.param("spins: [0]", "spins: [0]\n  hbar: .inf",
                     "basis.hbar", id="inf-hbar"),
        # plain nan and inf are strings to YAML 1.1, and float() reads them
        pytest.param(POSITIONS, "positions: [[0.0], [nan], [2.0]]",
                     "scan.positions[1][0]", id="plain-nan-position"),
        pytest.param("spins: [0]", "spins: [0]\n  hbar: -inf",
                     "basis.hbar", id="plain-inf-hbar"),
        pytest.param("spins: [0]", "spins: [0]\n  mass: 1" + "0" * 400,
                     "basis.mass", id="overflowing-int"),
        # finite numbers whose rate prefactor, |g|^4 or |g M1|^2, overflows
        pytest.param("coupling: [1.0, 0.0]", "coupling: [1.0e100, 0.0]",
                     "medium.coupling", id="overflowing-coupling"),
        pytest.param("first_order_element: [1.0, 0.0]", "first_order_element: [1.0e200, 0.0]",
                     "medium.first_order_element", id="overflowing-first-order-element"),
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, old, new, key):
    path = tmp_path / "bad.yaml"
    assert old in MINIMAL_ORDER1
    path.write_text(MINIMAL_ORDER1.replace(old, new))
    assert main(["scan", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "finite" in err


@pytest.mark.parametrize(
    "text, old, new, message",
    [
        pytest.param(ORDER2_BOSE, "modes: [[0], [1], [-1]]", "modes: [[0], [1, 0], [-1]]",
                     "basis.modes[1]: expected 1 entries, got 2", id="mode-row"),
        pytest.param(MINIMAL_ORDER1, POSITIONS, "positions: [[0.0, 1.0], [1.0], [2.0]]",
                     "scan.positions[0]: expected 1 entries, got 2", id="position-row"),
        pytest.param(ORDER2_BOSE, "start: [0.0]", "start: [0.0, 0.0]",
                     "scan.range.start: expected 1 entries, got 2", id="range-start"),
        pytest.param(ORDER2_BOSE, "stop: [6.283185307179586]", "stop: [1.0, 6.283185307179586]",
                     "scan.range.stop: expected 1 entries, got 2", id="range-stop"),
        pytest.param(ORDER2_BOSE, "spins: [0, 1]", "spins: []",
                     "basis.spins: expected a nonempty list", id="no-spins"),
    ],
)
def test_list_length_errors_name_their_key(text, old, new, message):
    assert old in text
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text.replace(old, new))


def test_cli_verify_subcommand(capsys):
    assert main(["verify", "--trials", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "fockabs", *args],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )

    result = run("verify", "--trials", "5")
    assert result.returncode == 0
    assert result.stderr == ""
    assert "failures=0" in result.stdout
    missing = run("scan", "--config", str(tmp_path / "missing.yaml"))
    assert missing.returncode == 1
    assert "error:" in missing.stderr


def test_cli_exponent_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(ORDER2_TEMPLATE % ("bose", "beam"))
    assert main(["exponent", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "order=2 exponent=2.000000000" in out


def test_cli_exponent_two_different_packets(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(ORDER2_TEMPLATE % ("bose", "partner"))
    assert main(["exponent", "--config", str(path)]) == 0
    assert "order=2 exponent=2.000000000" in capsys.readouterr().out


def test_cli_exponent_first_order(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    text = MINIMAL_ORDER1.replace(
        "modes: [[0]]", "modes: [[0], [1]]"
    ).replace(
        "amplitudes: [[1.0, 0.0]]",
        "amplitudes: [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]",
    ).replace(
        "positions: [[0.0], [1.0], [2.0]]",
        "positions: [[0.1], [0.7], [1.3], [1.9], [2.5]]",
    )
    path.write_text(text)
    assert main(["exponent", "--config", str(path)]) == 0
    assert "order=1 exponent=1.000000000" in capsys.readouterr().out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "edits, key",
    [
        pytest.param([("modes: [[0], [1], [-1]]", "modes: [[0], [1], [1]]"),
                      ("spins: [0, 1]", "spins: [0, 1]\n  hbar: -1.0")],
                     "basis.modes", id="duplicate-modes-and-negative-hbar"),
        pytest.param([("spins: [0, 1]", "spins: [0, 0]\n  hbar: -1.0")],
                     "basis.hbar", id="negative-hbar-and-duplicate-spins"),
        pytest.param([("coupling: [0.9, 0.3]", "coupling: [1.0e100, 0.0]"),
                      ("label: ch1", "label: ch0")],
                     "medium.coupling", id="overflowing-coupling-and-duplicate-labels"),
    ],
)
def test_two_faults_in_one_section_name_the_same_key_first(edits, key):
    text = ORDER2_BOSE
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        parse_config(text)


@pytest.mark.parametrize("hbar", ["1.0e-200", "1.0e200", "1.0e-160"])
def test_cli_rejects_an_hbar_whose_inverse_square_is_no_float(tmp_path, capsys, hbar):
    # 1e-200 and 1e200 square to 0 and past the largest float; 1e-160 squares
    # to a subnormal whose inverse, a factor of every rate, is infinite
    text = _readme_example().replace("hbar: 1.0 ", f"hbar: {hbar} ")
    assert f"hbar: {hbar} " in text
    path = tmp_path / "hbar.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: basis.hbar: ")
        assert err.count("\n") == 1
