"""Config parsing, scan driver, CSV output, and the CLI entry point."""

import gc
import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings, strategies as st
from yaml.constructor import SafeConstructor
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from fockabs import (
    AbsorptionInput,
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
)
from fockabs import cli_io
from fockabs.cli_io import ExperimentConfig, main
from helpers import (
    at_order1,
    config_fields,
    readme_example,
    readme_range32,
    serialize_config,
)

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
    assert cfg.run == AbsorptionInput((cfg.packets["beam"],), 0, Statistics.BOSE)
    assert cfg.run.packets[0] is cfg.packets["beam"]
    assert isinstance(cfg.basis, ModeBasis)
    assert cfg.basis.mode_numbers == ((0,),)
    assert list(cfg.packets) == ["beam"]
    assert cfg.packets["beam"] == Wavepacket(cfg.basis, (1.0 + 0.0j,), 0)
    assert cfg.medium.first_order_element == 1.0 + 0.0j
    assert len(cfg.positions) == 3


def test_omitted_basis_options_take_the_mode_basis_defaults():
    text = ORDER2_TEMPLATE.replace("  spins: [0, 1]\n", "") % ("bose", "partner")
    assert "hbar" not in text and "mass" not in text and "spins" not in text
    assert parse_config(text).basis == ModeBasis([TWO_PI], [[0], [1], [-1]])


def test_round_trip_is_exact():
    for text in (MINIMAL_ORDER1, ORDER2_TEMPLATE % ("bose", "partner")):
        cfg = parse_config(text)
        assert config_fields(parse_config(serialize_config(cfg))) == config_fields(cfg)


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_complexes = st.builds(complex, _finite, _finite)
# names that YAML would read as numbers, booleans or nulls come back quoted
_names = st.text(alphabet="abeinorsty01_-.", min_size=1, max_size=5)


@st.composite
def experiment_configs(draw):
    dim = draw(st.integers(1, 3))
    basis = ModeBasis(
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
    labels = draw(st.lists(_names, max_size=3, unique=True))
    energies = draw(st.lists(_finite, min_size=len(labels), max_size=len(labels), unique=True))
    channels = tuple(
        MediumChannel(label, draw(_complexes), draw(_complexes), energy)
        for label, energy in zip(labels, energies)
    )
    first = draw(_complexes) if not channels else draw(st.none() | _complexes)
    order = draw(st.sampled_from((1, 2) if channels else (1,)))
    statistics = draw(st.sampled_from(Statistics))
    names = draw(st.lists(st.sampled_from(sorted(packets)), min_size=order, max_size=order))
    try:
        run = AbsorptionInput(
            [packets[name] for name in names], draw(st.sampled_from(basis.spins)), statistics
        )
    except IndistinguishableFermionsError:
        assume(False)
    positions = draw(st.lists(st.tuples(*[_finite] * dim), min_size=1, max_size=5))
    return ExperimentConfig(
        basis, packets, MediumModel(draw(_complexes), channels, first), np.array(positions), run
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=experiment_configs())
def test_serialized_configs_parse_back_equal(config):
    assert config_fields(parse_config(serialize_config(config))) == config_fields(config)


def test_configs_compare_by_identity():
    # the README example lists three positions; an ``==`` that compared the
    # positions arrays would raise, as numpy gives no one bool for them
    first, second = parse_config(readme_example()), parse_config(readme_example())
    assert len(first.positions) == 3
    assert (first == second) is False and (first != second) is True
    assert (first == first) is True
    assert config_fields(first) == config_fields(second)


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("basis: [unclosed\n  - oops")
    assert "line" in str(err.value)


def _listed_config(count: int) -> str:
    listed = "".join(f"\n    - [{k * TWO_PI / count!r}]" for k in range(count))
    return MINIMAL_ORDER1.replace(
        "positions: [[0.0], [1.0], [2.0]]", "positions:" + listed
    )


def _scan_3d_config() -> str:
    """A config shaped like the benchmark's scan_3d: a 3D box, 7^3 = 343 listed
    modes, two packets of [re, im] amplitudes, order 2, Fermi."""
    modes = itertools.product(range(-3, 4), repeat=3)
    rng = np.random.default_rng(3)
    lines = ["basis:", "  box_lengths: [4.0, 5.0, 6.5]", "  modes:"]
    lines += [f"    - [{x}, {y}, {z}]" for x, y, z in modes]
    lines += ["  hbar: 0.9", "  mass: 1.2", "packets:"]
    for name in ("a", "b"):
        amps = rng.normal(size=343) + 1j * rng.normal(size=343)
        amps /= np.linalg.norm(amps)
        lines += [f"  {name}:", "    spin: 0", "    amplitudes:"]
        lines += [f"      - [{a.real!r}, {a.imag!r}]" for a in amps.tolist()]
    lines += [
        "medium:",
        "  coupling: [0.9, 0.3]",
        "  channels:",
        "    - {label: ch0, element_in: [1.1, -0.2], element_out: [0.7, 0.5], energy: -2.3}",
        "scan:",
        "  range: {start: [0.5, 1.0, 1.5], stop: [4.5, 6.0, 8.0], count: 20}",
        "run: {order: 2, statistics: fermi, packets: [a, b], detector_spin: 0}",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(MINIMAL_ORDER1, id="minimal-order1"),
        pytest.param(ORDER2_TEMPLATE % ("bose", "partner"), id="order2-bose"),
        pytest.param(ORDER2_TEMPLATE % ("fermi", "partner"), id="order2-fermi"),
        pytest.param(readme_example(), id="readme-example"),
        pytest.param(
            serialize_config(parse_config(ORDER2_TEMPLATE % ("bose", "partner"))),
            id="serialized",
        ),
        pytest.param(_listed_config(2000), id="listed-2000"),
        pytest.param(_scan_3d_config(), id="scan-3d"),
    ],
)
def test_loaders_parse_equal_configs(monkeypatch, text):
    # the module loader is built on libyaml's where PyYAML has it; the stock
    # SafeLoader below resolves tags with its own resolver
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(cli_io._YAML_LOADER, base)
    config = parse_config(text)
    monkeypatch.setattr(cli_io, "_YAML_LOADER", yaml.SafeLoader)
    assert config_fields(parse_config(text)) == config_fields(config)


def _load_by_path(name: str, path: Path):
    """The module at ``path``, run as ``name``; it is in ``sys.modules`` only
    while it runs, where its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _pure_python_loader():
    """The loader class cli_io defines under a PyYAML without libyaml: a
    second copy of the module, run with ``yaml.CSafeLoader`` hidden."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(yaml, "CSafeLoader", raising=False)
        module = _load_by_path("fockabs._cli_io_without_libyaml", Path(cli_io.__file__))
    assert module._BASE_LOADER is yaml.SafeLoader
    return module._YAML_LOADER


def _bench_config(workload: str, seed: int) -> str:
    """The config of a benchmark scan workload at ``seed``, as the benchmark writes it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = _load_by_path("_bench_workloads", path)
    return workloads.config_yaml(workloads.generate(workload, seed).config)


def _node_tree(node, one_plain_style=False):
    """A composed node and everything under it as nested tuples of kind,
    tag, value, style and marks.

    libyaml gives a plain scalar the style '' and PyYAML's Python composer
    None; ``one_plain_style`` writes both as None.
    """
    marks = tuple((m.line, m.column, m.index) for m in (node.start_mark, node.end_mark))
    if isinstance(node, ScalarNode):
        style = (node.style or None) if one_plain_style else node.style
        return ("scalar", node.tag, node.value, style, marks)
    kids = [n for pair in node.value for n in pair] if isinstance(node, MappingNode) else node.value
    kids = tuple(_node_tree(n, one_plain_style) for n in kids)
    return (node.id, node.tag, node.flow_style, marks, kids)


def test_the_module_loaders_add_no_path_resolver():
    # the composer's path hooks are no-ops, which holds only while no path
    # resolver is added
    for loader in (cli_io._YAML_LOADER, _pure_python_loader()):
        assert loader.yaml_path_resolvers == {}
        assert loader("").descend_resolver(None, 0) == loader("").ascend_resolver() == ""


@pytest.mark.parametrize(
    "workload, seed",
    [("readme-example", None)]
    + list(itertools.product(("scan_listed", "scan_1d_dense", "scan_3d"), (7, 13))),
)
def test_the_module_loaders_compose_the_stock_node_trees(workload, seed):
    text = readme_example() if seed is None else _bench_config(workload, seed)
    # each loader against the stock loader it is built on, and the libyaml
    # tree against the pure-Python one with a plain scalar's style spelled
    # alike; as in parse_config, the collector would cost about as much as
    # the pure-Python composes, so it is paused
    gc.disable()
    try:
        fast = yaml.compose(text, Loader=cli_io._YAML_LOADER)
        assert _node_tree(fast) == _node_tree(yaml.compose(text, Loader=cli_io._BASE_LOADER))
        stock = yaml.compose(text, Loader=yaml.SafeLoader)
        assert _node_tree(yaml.compose(text, Loader=_pure_python_loader())) == _node_tree(stock)
        assert _node_tree(fast, one_plain_style=True) == _node_tree(stock, one_plain_style=True)
    finally:
        gc.enable()


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
    assert config_fields(parse_config(merged)) == config_fields(parse_config(explicit))


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
    assert cfg.positions.tolist() == [[-1e-17]]
    for quoted in ("'1e0'", '"1.0"'):
        with pytest.raises(ConfigError, match="^basis.hbar: expected a real number"):
            parse_config(MINIMAL_ORDER1.replace("spins: [0]", f"spins: [0]\n  hbar: {quoted}"))


_LOADERS = [
    pytest.param(cli_io._YAML_LOADER, id="module-loader"),
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
]


# texts around the YAML 1.1 number forms: signs, dots, exponents, '_' and
# base-60 ':' separators, and the starts of other resolvers' texts
_RESOLVER_PIECES = [
    "0", "1", "7", "9", "-", "+", ".", "_", ":", "e", "E", " ",
    "inf", "nan", "yes", "null", "~", "<<", "=",
]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([ScalarNode, SequenceNode, MappingNode]),
    text=st.lists(st.sampled_from(_RESOLVER_PIECES), max_size=8).map("".join),
    implicit=st.tuples(st.booleans(), st.booleans()),
)
@example(kind=ScalarNode, text="017", implicit=(True, False))
@example(kind=ScalarNode, text="09", implicit=(True, False))  # no octal digit: a string
@example(kind=ScalarNode, text="-0", implicit=(True, False))
@example(kind=ScalarNode, text="1.5e3", implicit=(True, False))
@example(kind=ScalarNode, text="1e+5", implicit=(True, False))
@example(kind=ScalarNode, text="-.5", implicit=(True, False))
@example(kind=ScalarNode, text="1:30.5", implicit=(True, False))
@example(kind=ScalarNode, text="1.5", implicit=(False, True))
def test_resolve_gives_the_stock_safe_loader_tag(kind, text, implicit):
    # a composer passes a scalar's text and (plain, quoted) implicit flags,
    # and a collection None and one flag
    args = (text, implicit) if kind is ScalarNode else (None, implicit[0])
    fast, stock = cli_io._YAML_LOADER(""), yaml.SafeLoader("")
    assert fast.resolve(kind, *args) == stock.resolve(kind, *args)


@pytest.mark.parametrize(
    "kind, value, tag",
    [
        (ScalarNode, "-0.011088673282171346", "float"),
        (ScalarNode, "6.02e+23", "float"),
        (ScalarNode, "-3", "int"),
        (ScalarNode, "0", "int"),
        (SequenceNode, None, "seq"),
        (MappingNode, None, "map"),
    ],
)
def test_plain_numbers_and_collections_skip_the_resolver_loop(monkeypatch, kind, value, tag):
    def loop(*args):
        raise AssertionError("the inherited resolve was called")
    monkeypatch.setattr(cli_io._BASE_LOADER, "resolve", loop)
    implicit = (True, False) if kind is ScalarNode else True
    got = cli_io._YAML_LOADER("").resolve(kind, value, implicit)
    assert got == f"tag:yaml.org,2002:{tag}"


# per reader: entries every bulk reader takes, entries only the per-entry
# reader reads, and entries it rejects
_BULK_CASES = [
    pytest.param(
        cli_io._as_float, cli_io._bulk_floats,
        ["1.5", "-0.0", "+2.", "6.02e+23", "-1.25e-3", "1_000.5", "!!float 7", "12", "-3"],
        # the safe loader reads 017 as 15 and -0 as the int 0, so as +0.0
        ["1:30.5", "1e-05", "017", "-0", "+3", "1_000", "!!int ' 7'"],
        [".inf", "-.nan", "'1.5'", "abc", "[1.0]", "1.0e400", "!!float '1e'", "1" * 400],
        id="floats",
    ),
    pytest.param(
        cli_io._as_int, cli_io._bulk_ints,
        ["0", "-3", "12", "987654321987654321987654321"],
        ["+3", "017", "-0", "1_000", "0x1f", "1:30", "!!int ' 7'"],
        ["1.5", "'3'", "abc", "[1]", "!!int ''", "!!int '1 2'"],
        id="ints",
    ),
    pytest.param(
        cli_io._as_complex, cli_io._bulk_complexes,
        ["[1.5, -0.0]", "[0.1, 2.0e-3]", "[-7.25, 3.5]", "[1_0.5, 0.0]", "[1, -2]"],
        ["0.5", "'1+2j'", "[017, 2.0]", "[1:30.5, 0.0]"],
        ["[1.0]", "[.nan, 0.0]", "abc", "[1.0, '2']", "[1.0, 2.0, 3.0]", "{a: 1}",
         "[1.0e200, 1.0e400]", "!!seq ab"],
        id="complexes",
    ),
]


def _read(read, text: str) -> str:
    """The repr of every value of the YAML list ``text`` read by ``read`` one
    entry at a time, or the text of its ConfigError."""
    nodes = yaml.compose(text, Loader=cli_io._YAML_LOADER).value
    try:
        return repr(tuple([read(n, "x.values", i) for i, n in enumerate(nodes)]))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _vector_read(read, text: str) -> str:
    try:
        return repr(cli_io._vector(yaml.compose(text, Loader=cli_io._YAML_LOADER), read, "x.values"))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@pytest.mark.parametrize("read, bulk, good, slow, bad", _BULK_CASES)
def test_bulk_reads_equal_the_per_entry_readers(read, bulk, good, slow, bad):
    text = "[" + ", ".join(good) + "]"
    assert bulk(yaml.compose(text, Loader=cli_io._YAML_LOADER).value) is not None
    # repr tells -0.0 from 0.0 and prints every bit of a float
    assert _vector_read(read, text) == _read(read, text)
    for odd in slow + bad:
        for at in (0, len(good) // 2, len(good)):
            text = "[" + ", ".join(good[:at] + [odd] + good[at:]) + "]"
            assert bulk(yaml.compose(text, Loader=cli_io._YAML_LOADER).value) is None
            got = _vector_read(read, text)
            assert got == _read(read, text)
            assert got.startswith("ConfigError") == (odd in bad)
            if odd in bad:
                assert got.startswith(f"ConfigError: x.values[{at}]")


def _listed_config(n: int) -> str:
    """An order-1 config with ``n`` modes, amplitudes and scan positions, all plain."""
    modes = ", ".join(f"[{k}]" for k in range(n))
    amplitudes = ", ".join(["[1.0, 0.0]"] + ["[0.0, 0.0]"] * (n - 1))
    positions = ", ".join(f"[{0.25 * k}]" for k in range(n))
    return f"""
basis: {{box_lengths: [6.0], modes: [{modes}], hbar: 1.0, mass: 2.0, spins: [0, 1]}}
packets:
  beam: {{spin: 0, amplitudes: [{amplitudes}]}}
medium: {{coupling: [1.0, 0.0], first_order_element: 0.5}}
scan: {{positions: [{positions}]}}
run: {{order: 1, packets: [beam], detector_spin: 0}}
"""


def test_safe_loader_conversions_read_only_scalars(monkeypatch):
    # the lists of a config go to the bulk readers, so the safe loader's
    # conversions see as many numbers however long the lists are
    calls = []
    for name in ("construct_yaml_float", "construct_yaml_int"):
        convert = getattr(cli_io._SAFE, name)
        monkeypatch.setattr(
            cli_io._SAFE, name, lambda node, convert=convert: calls.append(node) or convert(node)
        )
    counts = []
    for n in (50, 100):
        calls.clear()
        config = parse_config(_listed_config(n))
        assert len(config.positions) == config.basis.n_modes == n
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize(
    "section, rows",
    [
        pytest.param("scan", ["[0.5, -1.25]", "[2.0, 0.0]", "[-0.0, 3.75]"], id="positions"),
        pytest.param("basis", ["[0, 1]", "[-2, 3]", "[4, -5]"], id="modes"),
    ],
)
@pytest.mark.parametrize(
    "odd",
    ["[1.5]", "[1.5, 2.0, 3.0]", "[.inf, 0.5]", "[1_0.5, 2.0]", "[017, 1]", "[+3, 1]",
     "[-0, 2]", "[0.5, 'x']", "[]", "7", "{a: 1}", "!!seq ab"],
)
def test_bulk_rows_equal_the_per_row_readers(monkeypatch, section, rows, odd):
    def read(text: str) -> str:
        if section == "scan":
            node = yaml.compose(f"positions: [{text}]", Loader=cli_io._YAML_LOADER)
            parse = lambda: cli_io._parse_scan(node, 2).tolist()
        else:
            node = yaml.compose(
                f"box_lengths: [1.0, 2.0]\nmodes: [{text}]", Loader=cli_io._YAML_LOADER
            )
            parse = lambda: cli_io._parse_basis(node, None).mode_numbers
        try:
            return repr(parse())
        except ConfigError as exc:
            return f"ConfigError: {exc}"

    for at in (0, 1, 3):
        text = ", ".join(rows[:at] + [odd] + rows[at:])
        got = read(text)
        with monkeypatch.context() as per_row:
            per_row.setattr(cli_io, "_bulk_rows", lambda nodes, width, bulk: None)
            per_row.setattr(
                cli_io, "_BULK_READERS", dict.fromkeys(cli_io._BULK_READERS, lambda nodes: None)
            )
            assert read(text) == got


def _float_node(loader, text: str):
    node = yaml.compose(f"x: {text}\n", Loader=loader).value[0][1]
    if node.tag != "tag:yaml.org,2002:float":
        # YAML 1.1 wants a dot in a float, so a plain 1e-05 resolves to a string
        node = yaml.compose(f"x: !!float {text}\n", Loader=loader).value[0][1]
    assert node.tag == "tag:yaml.org,2002:float"
    return node


@st.composite
def _yaml_float_texts(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    text = draw(st.sampled_from([repr(x), f"{x:.17e}", f"{x:.3f}", f"{x:_.2f}"]))
    if draw(st.booleans()):
        text = text.upper()
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    return text


_base60_texts = st.builds(
    "{}{}:{:02d}.{}".format,
    st.sampled_from(["", "+", "-"]), st.integers(0, 10**6), st.integers(0, 59),
    st.integers(0, 10**6),
)


@pytest.mark.parametrize("loader", _LOADERS)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(
    _yaml_float_texts(),
    _base60_texts,
    st.sampled_from(["1_000.5", "1:30.5", "-0.0", "+0.0", "-.5", "1.", "6.02E+23", "-1__0.0_1"]),
))
def test_floats_read_as_the_safe_loader_builds_them(loader, text):
    node = _float_node(loader, text)
    got = cli_io._as_float(node, "scan.positions", 3, 0)
    assert got.hex() == SafeConstructor().construct_yaml_float(node).hex()


@pytest.mark.parametrize("loader", _LOADERS)
@pytest.mark.parametrize("text", [".inf", "-.Inf", "+.INF", ".NaN", ".nan"])
def test_non_finite_floats_are_named(loader, text):
    node = _float_node(loader, text)
    message = f"scan.positions[3][0]: expected a finite number, got {text!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli_io._as_float(node, "scan.positions", 3, 0)


# the forms a YAML 1.1 int can take, and texts int() reads otherwise: leading
# zeros (octal to the loader), doubled or stray underscores, prefixes, base 60,
# Unicode digits and digit strings beyond int()'s 4300-digit limit
_int_bodies = st.one_of(
    st.integers(0, 10**30).map(str),
    st.builds("{}{}".format, st.sampled_from(["0", "00", "0_"]), st.integers(0, 10**9)),
    st.builds("_".join, st.lists(st.integers(0, 999).map(str), min_size=1, max_size=4)),
    st.builds("__".join, st.lists(st.integers(1, 99).map(str), min_size=2, max_size=3)),
    st.builds("{}{:x}".format, st.sampled_from(["0x", "0X", "0x_"]), st.integers(0, 2**64)),
    st.builds("{}{:b}".format, st.sampled_from(["0b", "0b_"]), st.integers(0, 2**20)),
    st.builds("0o{:o}".format, st.integers(0, 2**20)),
    st.builds("{}:{:02d}:{}".format, st.integers(1, 10**4), st.integers(0, 59), st.integers(0, 59)),
    st.sampled_from(["\u0663", "\u0660\u0661\u0667", "\uff11\uff12", "0\u0661", "", "_1", "1_", "1.0"]),
    st.builds("{}{}".format, st.sampled_from(["", "0", "1_"]),
              st.integers(4290, 4310).map(lambda n: "7" * n)),
    st.text(alphabet="0123456789+-_xbo:. abcdef\u0663", max_size=8),
)


@st.composite
def _int_texts(draw):
    sign = draw(st.sampled_from(["", "+", "-"]))
    pad = st.sampled_from(["", " ", "\t", "\u2003"])
    return draw(pad) + sign + draw(_int_bodies) + draw(pad)


@pytest.mark.parametrize("loader", _LOADERS)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_int_texts())
def test_ints_read_as_the_safe_loader_builds_them(loader, text):
    node = yaml.compose(f'x: !!int "{text}"\n', Loader=loader).value[0][1]
    assert (node.tag, node.value) == ("tag:yaml.org,2002:int", text)
    try:
        want = SafeConstructor().construct_yaml_int(node)
    except (ValueError, IndexError):
        message = f"basis.spins[2]: expected an integer, got {text!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cli_io._as_int(node, "basis.spins", 2)
        with pytest.raises(ConfigError, match="^basis.mass: expected a real number"):
            cli_io._as_float(node, "basis.mass")
        return
    got = cli_io._as_int(node, "basis.spins", 2)
    assert type(got) is int and got == want
    # an !!int read as a real is the same integer, and one too large for a float is named
    try:
        want_real = float(want)
    except OverflowError:
        with pytest.raises(ConfigError, match="^basis.mass: expected a finite number"):
            cli_io._as_float(node, "basis.mass")
    else:
        assert cli_io._as_float(node, "basis.mass").hex() == want_real.hex()


@pytest.mark.parametrize("text, value", [("017", 15), ("-017", -15), ("017 ", 15), (" 017", 17)])
def test_a_leading_zero_is_octal_as_under_the_safe_loader(text, value):
    node = yaml.compose(f'x: !!int "{text}"\n', Loader=cli_io._YAML_LOADER).value[0][1]
    assert cli_io._as_int(node, "run.order") == value
    assert cli_io._as_float(node, "basis.mass") == float(value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("hbar: 1.0 ", 'hbar: !!float "" ',
                     "basis.hbar: expected a real number, got ''", id="hbar"),
        pytest.param("mass: 1.0 ", 'mass: !!int "" ',
                     "basis.mass: expected a real number, got ''", id="int-tagged-mass"),
        pytest.param("spins: [0, 1] ", 'spins: [!!int "", 1] ',
                     "basis.spins[0]: expected an integer, got ''", id="spin"),
        pytest.param("positions: [[0.0],", 'positions: [[!!float ""],',
                     "scan.positions[0][0]: expected a real number, got ''", id="position"),
        pytest.param("- [0.7071067811865476, 0.0]", '- [!!float "", 0.0]',
                     "packets.beam.amplitudes[0][0]: expected a real number, got ''",
                     id="re-im-part"),
    ],
)
def test_empty_tagged_numbers_are_named(tmp_path, capsys, old, new, message):
    # the safe loader's number methods raise IndexError on an empty text
    text = readme_example()
    assert old in text
    text = text.replace(old, new, 1)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    path = tmp_path / "empty.yaml"
    path.write_text(text)
    assert main(["scan", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param(MINIMAL_ORDER1, None, id="valid"),
        pytest.param(MINIMAL_ORDER1 + "extra: 1\n", "^extra: unknown section$", id="config-error"),
        pytest.param("a: [1, 2\nb: 3\n", "^syntax error", id="syntax-error"),
        pytest.param("x: !!python/object/apply:os.system ['true']\n",
                     "^cannot construct a value", id="python-tag"),
    ],
)
def test_parse_config_leaves_the_collector_as_it_found_it(monkeypatch, collecting, text, error):
    during = []

    def spy(root):
        during.append(gc.isenabled())
        return parse_document(root)

    parse_document = cli_io._parse_document
    monkeypatch.setattr(cli_io, "_parse_document", spy)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if error is None:
            parse_config(text)
        else:
            with pytest.raises(ConfigError, match=error):
                parse_config(text)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    # the document is read with the collector paused
    assert not any(during)


def test_scan_and_exponent_agree_on_a_tiny_negative_position(tmp_path, capsys):
    # np.mod(-1e-17, 2*pi) rounds to 2*pi, which the wrap folds to 0
    outputs = []
    for first in ("0.0", "-1e-17", "-1.0e-17"):
        path = tmp_path / "cfg.yaml"
        path.write_text(readme_example().replace("positions: [[0.0],", f"positions: [[{first}],"))
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


def test_the_cli_states_a_renormalization_on_one_line(tmp_path, capsys):
    # the warning's text alone: no source path, line number or line of code
    off = MINIMAL_ORDER1.replace("[[1.0, 0.0]]", "[[1.00000005, 0.0]]")
    with pytest.warns(UserWarning) as caught:
        csv_text = emit_csv(run_scan(parse_config(off)))
    message = str(caught[0].message)
    assert message.startswith("packet 'beam': amplitudes renormalized (norm^2 was 1.0000001")
    path = tmp_path / "off.yaml"
    path.write_text(off)
    assert main(["scan", "--config", str(path)]) == 0
    assert capsys.readouterr() == (csv_text, f"warning: {message}\n")


def test_amplitude_count_must_match_modes():
    bad = MINIMAL_ORDER1.replace("[[1.0, 0.0]]", "[[1.0, 0.0], [0.0, 0.0]]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "amplitudes" in str(err.value)


@pytest.mark.parametrize("count", [4, 10**12])
def test_a_lowest_modes_count_the_first_packet_lacks_fails_before_the_modes_are_built(
    tmp_path, capsys, monkeypatch, count
):
    # 10**12 modes would not fit in memory: the first packet's three
    # amplitudes are counted against the count before any mode is built
    text = readme_example()
    assert "  modes: [[0], [1], [-1]]" in text
    config = tmp_path / "lowest.yaml"
    config.write_text(text.replace("  modes: [[0], [1], [-1]]", f"  lowest_modes: {count}  #"))
    monkeypatch.setattr(cli_io, "lowest_mode_numbers", None)
    assert main(["scan", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: packets.beam.amplitudes: expected {count} entries, got 3\n"


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
    assert cfg.positions.shape == (12, 1)
    assert cfg.positions[0].tolist() == [0.0]


def _positions_config(dim: int, scan: str) -> str:
    """An order-1 config on a ``dim``-D box with the scan section ``scan``."""
    lengths = ", ".join(["6.0"] * dim)
    mode = ", ".join(["0"] * dim)
    return f"""
basis: {{box_lengths: [{lengths}], modes: [[{mode}]], spins: [0]}}
packets: {{beam: {{spin: 0, amplitudes: [[1.0, 0.0]]}}}}
medium: {{coupling: [1.0, 0.0], first_order_element: [1.0, 0.0]}}
scan: {scan}
run: {{order: 1, packets: [beam], detector_spin: 0}}
"""


def _assert_frozen_float_rows(positions, expected: np.ndarray) -> None:
    """``positions`` is a read-only float64 array with every bit of ``expected``."""
    assert isinstance(positions, np.ndarray)
    assert positions.dtype == np.float64 and positions.shape == expected.shape
    assert not positions.flags.writeable
    assert positions.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        positions[0, 0] = 1.0
    assert positions.tobytes() == expected.tobytes()


# position entries that the bulk reader takes, and entries only the per-entry reader reads
_BULK_POSITIONS = ["1.5", "-0.0", "3", "1.0e-300", "-2.25e+2", "0"]
_SLOW_POSITIONS = ["!!float 1:30", "0x1f"]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("odd", [None, *_SLOW_POSITIONS])
def test_listed_positions_are_one_read_only_float_array(dim, odd):
    rows = [
        [_BULK_POSITIONS[(r + a) % len(_BULK_POSITIONS)] for a in range(dim)] for r in range(5)
    ]
    if odd is not None:
        rows[2][dim - 1] = odd
    listed = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    nodes = yaml.compose(listed, Loader=cli_io._YAML_LOADER).value
    # the bulk path reads only plain decimals; the odd entry sends every row
    # through the per-entry reader
    bulk = cli_io._bulk_rows(nodes, dim, cli_io._bulk_floats)
    assert (bulk is None) == (odd is not None)
    reference = np.array(
        [cli_io._vector(row, cli_io._as_float, "scan.positions", i, size=dim)
         for i, row in enumerate(nodes)]
    )
    positions = parse_config(_positions_config(dim, f"{{positions: {listed}}}")).positions
    _assert_frozen_float_rows(positions, reference)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_range_positions_are_one_read_only_float_array(dim):
    start, stop, count = [0.5, -1.25, 3.0][:dim], [4.0, 2.5, -0.1][:dim], 7
    scan = f"{{range: {{start: {start}, stop: {stop}, count: {count}}}}}"
    positions = parse_config(_positions_config(dim, scan)).positions
    # row k is start + (stop - start) * k / count, coordinate by coordinate
    reference = np.array(
        [[a + (b - a) * k / count for a, b in zip(start, stop)] for k in range(count)]
    )
    _assert_frozen_float_rows(positions, reference)


_COUNT_ERROR = "error: scan.range.count: too many positions to hold in memory\n"


@pytest.mark.parametrize("count", [2**63 - 1, 2**63, 2**64, 10**100])
def test_cli_names_a_range_count_too_large_for_an_array(tmp_path, capsys, count):
    # numpy returns an empty arange up to about 2**63 and refuses one past it,
    # so none of these allocates
    text = readme_example().replace(
        "  positions: [[0.0], [0.5], [1.0]]\n  # range:", "  range:"
    ).replace("count: 32", f"count: {count}")
    path = tmp_path / "count.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", _COUNT_ERROR)


def test_a_range_count_out_of_memory_is_named(tmp_path, capsys, monkeypatch):
    def no_memory(count):
        raise MemoryError
    monkeypatch.setattr(cli_io.np, "arange", no_memory)
    path = tmp_path / "count.yaml"
    path.write_text(ORDER2_TEMPLATE % ("bose", "partner"))
    assert main(["scan", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", _COUNT_ERROR)


def test_cli_names_a_range_whose_span_overflows(tmp_path, capsys):
    # stop - start = 2e308 is past the largest float
    text = readme_range32().replace(
        "{start: [0.0], stop: [6.283185307179586], count: 32}",
        "{start: [-1.0e308], stop: [1.0e308], count: 4}",
    )
    path = tmp_path / "span.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: scan.range: "), err


def _per_coordinate_range(start, stop, count):
    """The reference range: one coordinate at a time, in Python floats."""
    dim = len(start)
    return tuple(
        tuple(start[ax] + (stop[ax] - start[ax]) * k / count for ax in range(dim))
        for k in range(count)
    )


_range_ends = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, TWO_PI, -TWO_PI, 1e308, -1e308]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    ends=st.integers(1, 3).flatmap(
        lambda dim: st.tuples(st.lists(_range_ends, min_size=dim, max_size=dim),
                              st.lists(_range_ends, min_size=dim, max_size=dim))
    ),
    count=st.one_of(st.integers(1, 50), st.integers(1, 2000)),
)
@example(ends=([0.3], [-TWO_PI]), count=20_000)
@example(ends=([1.5, -0.25], [-2.75, 7.0]), count=20_000)
@example(ends=([4.0, 0.1, -1e-3], [-4.0, 5.2, -6.5]), count=10**5)
def test_range_rows_are_the_per_coordinate_formula_bit_for_bit(ends, count):
    start, stop = ends
    start_text, stop_text = (", ".join(map(repr, values)) for values in ends)
    text = f"range: {{start: [{start_text}], stop: [{stop_text}], count: {count}}}"
    node = yaml.compose(text, Loader=cli_io._YAML_LOADER)
    want = _per_coordinate_range(tuple(start), tuple(stop), count)
    if not all(math.isfinite(c) for row in want for c in row):
        # a span that overflows is rejected under its key, with no numpy warning
        with pytest.raises(ConfigError, match=r"^scan\.range: "):
            cli_io._parse_scan(node, len(start))
        return
    got = cli_io._parse_scan(node, len(start))
    assert type(got) is np.ndarray and got.dtype == np.float64 and not got.flags.writeable
    assert got.shape == (count, len(start))
    assert [c.hex() for row in got.tolist() for c in row] == [c.hex() for row in want for c in row]


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
    # rejected at parse time, by the AbsorptionInput that is the run section
    text = ORDER2_TEMPLATE % ("fermi", "beam")
    with pytest.raises(ConfigError, match=r"^run\.packets: fermionic pair") as err:
        parse_config(text)
    assert isinstance(err.value.__cause__, IndistinguishableFermionsError)


@pytest.mark.parametrize(
    "old, new, message",
    [
        # the example's run names the packet beam twice
        pytest.param("statistics: bose ", "statistics: fermi ",
                     "run.packets: fermionic pair with identical packets and equal spins",
                     id="fermion-pair"),
        pytest.param("detector_spin: 0 ", "detector_spin: 4 ",
                     "run.detector_spin: detector spin 4 not in basis spin set",
                     id="detector-spin"),
    ],
)
def test_cli_names_the_run_key_of_a_rejected_input(tmp_path, capsys, old, new, message):
    text = readme_example()
    assert old in text
    path = tmp_path / "run.yaml"
    path.write_text(text.replace(old, new))
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        # |a|^2 overflows a float; the norm is read as inf
        pytest.param("      - 0.0\n", "      - [1e200, 0.0]\n",
                     "packets.beam.amplitudes: norm^2 = inf is too far from 1",
                     id="amplitude"),
        # each element is finite, and their product, in every second-order rate, is not
        pytest.param("element_in: [1.1, -0.2], element_out: [0.7, 0.5]",
                     "element_in: [1e200, 0.0], element_out: [1e200, 0.0]",
                     "medium.channels[0].element_in: |element_out * element_in| must be "
                     "a finite float, got element_out * element_in = (inf+0j)",
                     id="channel-product"),
        # the product is finite, and the second-order rate it gives, ~1e320, is not
        pytest.param("element_in: [1.1, -0.2], element_out: [0.7, 0.5]",
                     "element_in: [1.0e150, 0.0], element_out: [1.0e10, 0.0]",
                     "medium.channels: the second-order rate bound (2 pi / hbar^2) "
                     "|coupling|^4 (sum |W_b b_k| sum |a_k| + sum |W_a a_k| sum |b_k|)^2 "
                     "/ V^2 must be a finite float, got inf",
                     id="second-order-rate"),
    ],
)
def test_cli_rejects_a_product_that_overflows(tmp_path, capsys, old, new, message):
    text = readme_example()
    assert old in text
    path = tmp_path / "overflow.yaml"
    path.write_text(text.replace(old, new))
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(("first_order_element: [1.0,", "first_order_element: [1.0e153,"),
                     "first_order_element", id="given"),
        pytest.param(("element_in: [1.1, -0.2]", "element_in: [1.0e153, 0.0]"),
                     "channels", id="defaulted"),
    ],
)
def test_cli_rejects_a_first_order_rate_bound_that_overflows(tmp_path, capsys, order, edit, key):
    # |coupling * element|^2 = 1e306 passes MediumModel, but 2 pi / hbar^2
    # times it is past the largest float, on every row of order-2 runs too
    edits = [("hbar: 1.0 ", "hbar: 0.01 "), edit]
    if key == "channels":
        edits.append(("first_order_element: [1.0, 0.0]", "first_order_element: null"))
    text = readme_example()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "overflow.yaml"
    path.write_text(at_order1(text) if order == 1 else text)
    message = (
        f"error: medium.{key}: the first-order rate bound (2 pi / hbar^2) "
        "|coupling * first_order_element|^2 (sum |a_k|)^2 / V must be a finite float, got inf\n"
    )
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", message)


def test_scan_resonance_error_names_position():
    text = ORDER2_TEMPLATE % ("bose", "partner")
    resonant = text.replace("energy: 2.3", "energy: 0.5")
    # mean kinetic of the two-mode beam is 0.5: every position resonates
    with pytest.raises(ResonanceError) as err:
        run_scan(parse_config(resonant))
    assert "position" in str(err.value)


def test_scan_and_exponent_word_a_resonance_alike(tmp_path, capsys):
    # a beam sharp on mode 0 has kinetic energy 0.0, the energy of ch0 here
    text = readme_example()
    edits = (
        ("      - [0.7071067811865476, 0.0]\n      - [0.7071067811865476, 0.0]\n",
         "      - [1.0, 0.0]\n      - 0.0\n"),
        ("energy: 2.3", "energy: 0.0"),
    )
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "resonant.yaml"
    path.write_text(text)
    message = (
        "error: at every scan position: energy denominator 0.0 for channel 'ch0' "
        "is nan or within 1e-09 of resonance\n"
    )
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", message), command


def test_a_channel_resonant_with_an_occupied_mode_fails_the_scan(tmp_path, capsys):
    # the example's beam has mean kinetic energy 0.25, clear of a lone
    # channel at 0.5, but it occupies mode 1, whose own energy is 0.5: the
    # oracle rejects that input, and so do scan and exponent, naming both
    text = readme_example()
    edits = (
        ("energy: 2.3}", "energy: 0.5}"),
        ("    - {label: ch1, element_in: [0.4, 0.9], element_out: [1.2, -0.1], energy: -0.8}\n", ""),
    )
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "resonant.yaml"
    path.write_text(text)
    message = (
        "error: at every scan position: energy denominator 0.0 for mode 1 and channel 'ch0' "
        "is nan or within 1e-09 of resonance\n"
    )
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", message), command


def _batch(coords, rate_order1, rate_order2, density_a, density_b) -> RateBatch:
    """A RateBatch holding the given columns."""
    coords = np.array(coords, dtype=float)
    columns = [np.array(c, dtype=float) for c in (density_a, density_b, rate_order1, rate_order2)]
    # the per-mode rate, which no CSV holds, repeats the mean-energy one
    return RateBatch(coords, *columns, columns[3], 0.0, 0.0, 0.0)


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


def _emit_csv_by_format(batch: RateBatch) -> str:
    """The reference CSV: one ``str.format`` call per row."""
    header = [f"q{i}" for i in range(batch.coords.shape[1])]
    header += ["rate_order1", "rate_order2", "density_a", "density_b"]
    columns = (*batch.coords.T, batch.rate_order1, batch.rate_order2, batch.density_a, batch.density_b)
    row = ",".join(["{:.12g}"] * len(columns))
    lines = [",".join(header)] + [row.format(*cells) for cells in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


# signed zero, the smallest subnormal, where %g turns to exponents, and values
# that sit on a rounding half at 12 significant digits
_CSV_EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 9.99999999999e-5, 999999999999.5,
    0.5, 2.5, 1.0000000000005, 0.1234567890125, 123456789012.5, -2.5e-7, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 3),
    values=st.lists(
        st.one_of(st.sampled_from(_CSV_EDGE_VALUES), st.floats()), min_size=1, max_size=60
    ),
)
def test_emit_csv_equals_one_format_call_per_row(dim, values):
    rows = len(values)
    rolled = [values[(i + j) % rows] for j in range(dim + 4) for i in range(rows)]
    cols = np.array(rolled, dtype=float).reshape(dim + 4, rows)
    batch = _batch(cols[:dim].T, *cols[dim:])
    assert emit_csv(batch) == _emit_csv_by_format(batch)


def test_emit_csv_edge_values_byte_for_byte():
    values = _CSV_EDGE_VALUES
    batch = _batch([[v] for v in values], values, values[::-1], values, values)
    assert emit_csv(batch) == _emit_csv_by_format(batch)
    assert emit_csv(batch).splitlines()[1] == "-0,-0,nan,-0,-0"


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# from the smallest subnormal to 1e300, of either sign, and the zeros
_CSV_CELLS = st.one_of(
    _SIGNED_ZEROS,
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e300]),
    st.floats(5e-324, 1e300),
).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def _csv_tables(draw) -> np.ndarray:
    """A table of 1-3 coordinate columns and four rate columns, each column
    +0.0 only, signed zeros only, or any cells."""
    dim, rows = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    column = st.one_of(
        st.just([0.0] * rows),
        st.lists(_SIGNED_ZEROS, min_size=rows, max_size=rows),
        st.lists(_CSV_CELLS, min_size=rows, max_size=rows),
    )
    return np.array([draw(column) for _ in range(dim + 4)]).T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_csv_tables())
@example(table=np.zeros((1, 5)))
@example(table=np.zeros((3, 7)))
@example(table=np.array([[0.0, 1.5, 0.0, 0.25, -0.0], [0.0, 2.5, 0.0, 0.5, 0.0]]))
def test_emit_csv_equals_a_per_row_format(table):
    batch = _batch(table[:, :-4], *table[:, -4:].T)
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    header = [f"q{i}" for i in range(table.shape[1] - 4)]
    header = ",".join(header + ["rate_order1", "rate_order2", "density_a", "density_b"]) + "\n"
    assert emit_csv(batch) == header + "".join([row % tuple(cells) for cells in table.tolist()])


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "text, golden",
    [
        pytest.param(readme_example(), "readme_listed.csv", id="listed"),
        pytest.param(readme_range32(), "readme_range32.csv", id="range-32"),
        pytest.param(at_order1(readme_range32()), "readme_order1_range32.csv", id="order1-range-32"),
    ],
)
def test_readme_example_csv_is_pinned(tmp_path, text, golden):
    """``fockabs scan`` of the README example, byte for byte: the listed
    positions as written, the commented-out ``range`` of 32 points, and that
    range at order 1."""
    config = tmp_path / "cfg.yaml"
    config.write_text(text)
    out = tmp_path / "rates.csv"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_a_channel_may_be_labelled_m1():
    # a label is only a name in messages: no label is reserved
    text = readme_range32()
    assert text.count("label: ch0") == 1
    renamed = parse_config(text.replace("label: ch0", "label: M1"))
    assert renamed.medium.channels[0].label == "M1"
    assert emit_csv(run_scan(renamed)) == emit_csv(run_scan(parse_config(text)))


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


def test_cli_verify_names_a_negative_seed(capsys):
    assert main(["verify", "--trials", "5", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be a nonnegative integer, got -1\n")


@pytest.mark.parametrize("trials", [0, -3])
def test_cli_verify_names_a_nonpositive_trial_count(capsys, trials):
    assert main(["verify", "--trials", str(trials), "--seed", "3"]) == 1
    assert capsys.readouterr() == ("", f"error: trials must be a positive integer, got {trials}\n")


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


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["verify", "--trials", "300", "--seed", "0"], id="verify"),
        pytest.param(["scan", "--config", "cfg.yaml"], id="scan"),
    ],
)
def test_a_reader_that_closes_the_pipe_early_is_not_an_error(tmp_path, args):
    """A reader that stops after one line, as ``| head -1`` does, leaves no
    message on stderr and exit code 0.  Both commands write far more than a
    pipe holds: verify about 300 KB in blocks, scan a 5000-row CSV in one call."""
    (tmp_path / "cfg.yaml").write_text(readme_range32().replace("count: 32", "count: 5000"))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fockabs", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    with proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"trial 0000 " if args[0] == "verify" else b"q0,rate_order1,")
    assert (code, stderr) == (0, b"")


# counts this process's open file descriptors before and after a verify run
# whose stdout is a pipe that no one reads
FD_COUNT = """\
import os
import sys
from fockabs.cli_io import main

before = len(os.listdir("/proc/self/fd"))
code = main(["verify", "--trials", "40"])
print(before, len(os.listdir("/proc/self/fd")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_closed_pipe_leaves_no_descriptor_open():
    """The devnull that replaces a closed stdout is opened for the swap only."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        result = subprocess.run(
            [sys.executable, "-c", FD_COUNT],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0, result.stderr
    before, after = result.stderr.split()
    assert after == before


# runs every subcommand in one interpreter, then reports which of argparse,
# gettext and locale it imported, and on its last stdout line which of hashlib
# and _hashlib it imported and whether OpenSSL's libcrypto is mapped (None
# where /proc/self/maps cannot be read)
FOOTPRINT = """\
import sys
from fockabs.cli_io import main

config, out = sys.argv[1:]
for args in (
    ["scan", "--config", config, "--out", out],
    ["exponent", "--config", config],
    ["verify", "--trials", "3"],
):
    assert main(args) == 0, args
try:
    with open("/proc/self/maps") as maps:
        libcrypto = "libcrypto" in maps.read()
except OSError:
    libcrypto = None
print(sorted({"argparse", "gettext", "locale"} & sys.modules.keys()))
print(sorted({"hashlib", "_hashlib"} & sys.modules.keys()), libcrypto)
"""


def test_no_command_loads_openssl(tmp_path):
    """``scan``, ``exponent`` and ``verify`` leave hashlib unimported and
    OpenSSL's libcrypto unmapped, and import none of argparse, gettext and
    locale.  A fresh interpreter, since pytest and Hypothesis import hashlib
    and argparse themselves."""
    config, out = tmp_path / "cfg.yaml", tmp_path / "rates.csv"
    config.write_text(readme_example())
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(config), str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert out.read_bytes() == (GOLDEN / "readme_listed.csv").read_bytes()
    assert "failures=0" in result.stdout
    assert result.stdout.splitlines()[-1] in ("[] False", "[] None")
    assert result.stdout.splitlines()[-2] == "[]"


@pytest.mark.parametrize(
    "args, golden",
    [
        pytest.param(["verify", "--trials", "300", "--seed", "7"], None, id="verify"),
        pytest.param(["scan", "listed"], "readme_listed.csv", id="scan-listed"),
        pytest.param(["exponent", "listed"], None, id="exponent-listed"),
        pytest.param(["scan", "order1"], "readme_order1_range32.csv", id="scan-order1"),
        pytest.param(["exponent", "order1"], None, id="exponent-order1"),
    ],
)
def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path, args, golden):
    """PYTHONHASHSEED changes the iteration order of sets and str-keyed dicts;
    no output byte may depend on it.  The configs are the README example as
    written and its 32-point range at order 1."""
    if args[0] != "verify":
        text = {"listed": readme_example(), "order1": at_order1(readme_range32())}[args[1]]
        (tmp_path / "cfg.yaml").write_text(text)
        args = [args[0], "--config", "cfg.yaml"]
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hashseed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": str(src),
            "PYTHONHASHSEED": hashseed,
            "PYTHONWARNINGS": (
                "error::RuntimeWarning,error::DeprecationWarning,"
                "error::PendingDeprecationWarning"
            ),
        }
        result = subprocess.run(
            [sys.executable, "-m", "fockabs", *args],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    if golden is not None:
        assert outputs[0] == (GOLDEN / golden).read_bytes()


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


NO_COMMAND = "expected a command, one of scan, verify, exponent"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param([], NO_COMMAND, id="no-command"),
        pytest.param(["run"], NO_COMMAND, id="unknown-command"),
        pytest.param(["--trials", "3", "verify"], NO_COMMAND, id="option-before-command"),
        pytest.param(["verify", "--trails", "3"], "verify: unknown argument '--trails'",
                     id="unknown-option"),
        pytest.param(["scan", "--conf", "c.yaml"], "scan: unknown argument '--conf'",
                     id="abbreviated"),
        pytest.param(["verify", "-t", "3"], "verify: unknown argument '-t'", id="short-option"),
        pytest.param(["verify", "--seed"], "--seed: expected a value", id="missing-value"),
        pytest.param(["scan", "--config", "--out", "x.csv"], "--config: expected a value",
                     id="option-as-value"),
        pytest.param(["verify", "--trials", "x"], "--trials: expected an integer, got 'x'",
                     id="not-an-int"),
        pytest.param(["verify", "--trials", "2.5"], "--trials: expected an integer, got '2.5'",
                     id="a-float"),
        pytest.param(["verify", "--seed="], "--seed: expected an integer, got ''",
                     id="empty-joined"),
        pytest.param(["scan"], "scan: --config is required", id="scan-without-config"),
        pytest.param(["scan", "--out", "x.csv"], "scan: --config is required",
                     id="out-without-config"),
        pytest.param(["exponent"], "exponent: --config is required", id="exponent-without-config"),
        pytest.param(["exponent", "--config", "c.yaml", "--out", "x.csv"],
                     "exponent: unknown argument '--out'", id="option-of-another-command"),
        pytest.param(["verify", "3"], "verify: unknown argument '3'", id="stray-word"),
        pytest.param(["scan", "--config", "c.yaml", "x.csv"], "scan: unknown argument 'x.csv'",
                     id="stray-word-after-options"),
    ],
)
def test_a_malformed_command_line_is_a_usage_error(capsys, args, message):
    """Nothing runs: stdout stays empty, and stderr holds the usage and one
    error line; the exit code is 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("", f"{cli_io._USAGE}fockabs: error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [[*command, flag] for flag in ("-h", "--help")
     for command in ([], ["scan"], ["verify"], ["exponent"])]
    + [["scan", "--config", "cfg.yaml", "--help"], ["verify", "--trials", "x", "-h"]],
    ids=" ".join,
)
def test_help_prints_the_usage_on_stdout(capsys, args):
    """Alone, after a command, and on a line that is otherwise malformed."""
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (cli_io._USAGE, "")


def test_the_readme_usage_block_is_what_help_prints(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```text\n(.*?)```", readme, re.S).group(1)
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == block


SEED_7 = ["verify", "--trials", "3", "--seed", "7"]


@pytest.mark.parametrize(
    "args, same_as",
    [
        pytest.param(["verify", "--trials", "3", "--seed=7"], SEED_7, id="joined-value"),
        pytest.param(["verify", "--trials=3", "--seed=7"], SEED_7, id="joined-values"),
        pytest.param(["verify", "--seed", "7", "--trials", "3"], SEED_7, id="any-order"),
        pytest.param(["verify", "--trials", "9", "--seed", "1", "--seed", "7", "--trials", "3"],
                     SEED_7, id="last-value-wins"),
        pytest.param(["verify", "--seed", "0"], ["verify", "--trials", "100"], id="defaults"),
    ],
)
def test_spellings_of_one_command_line_give_the_same_output(capsys, args, same_as):
    outputs = []
    for argv in (args, same_as):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


def test_a_joined_config_path_is_read(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(readme_example())
    assert main(["scan", f"--config={path}"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "readme_listed.csv").read_text()


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
    text = readme_example().replace("hbar: 1.0 ", f"hbar: {hbar} ")
    assert f"hbar: {hbar} " in text
    path = tmp_path / "hbar.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: basis.hbar: ")
        assert err.count("\n") == 1


def test_cli_rejects_a_box_whose_inverse_volume_is_no_float(tmp_path, capsys):
    # a subnormal volume has an infinite inverse, a factor of every density
    text = readme_example().replace("[6.283185307179586]   #", "[1.0e-310]   #")
    assert "box_lengths: [1.0e-310]" in text
    path = tmp_path / "box.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: basis.box_lengths: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_cli_rejects_a_mode_number_too_large_for_a_float(tmp_path, capsys, sign):
    text = MINIMAL_ORDER1.replace("modes: [[0]]", f"modes: [[{sign}1{'0' * 400}]]")
    assert "0" * 400 in text
    path = tmp_path / "modes.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: basis.modes: kinetic energy of mode 0 ")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("mass: 1.0 ", "mass: 1.0e-310 ", id="mass"),
        pytest.param("[6.283185307179586]   #", "[1.0e-160]   #", id="box-length"),
    ],
)
@pytest.mark.parametrize("order", [1, 2])
def test_cli_rejects_a_kinetic_energy_that_overflows(tmp_path, capsys, old, new, order):
    # p^2 / 2m overflows to inf, and a mean kinetic energy holding 0 * inf is nan
    text = readme_example().replace(old, new)
    assert new in text
    if order == 1:
        text = at_order1(text)
    path = tmp_path / "modes.yaml"
    path.write_text(text)
    for command in ("scan", "exponent"):
        assert main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: basis.modes: kinetic energy of mode 1 ")
        assert err.count("\n") == 1
