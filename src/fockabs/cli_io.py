"""Config-driven scans, CSV output, and the command-line entry point.

Configs are YAML documents with five sections: ``basis`` (box and momentum
grid), ``packets`` (named amplitude vectors with spins), ``medium``
(coupling and channel matrix elements), ``scan`` (detector positions) and
``run`` (order, statistics, packet names, detector spin).  Complex numbers
are written as ``[re, im]`` pairs; bare reals are accepted too.  The full
grammar is documented in the package README.

A parsed config holds the domain objects themselves: its run section is the
``AbsorptionInput`` of the rates.  Each object's rules are checked once, by
its constructor, and ``_checked`` names the config key of a rejected field.

CSV output is deterministic byte for byte: fixed column order, reals
printed with 12 significant digits, newline-separated rows.
"""

from __future__ import annotations

import cmath
import copy
import gc
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np
import yaml
from yaml.constructor import SafeConstructor
from yaml.nodes import MappingNode, Node, ScalarNode, SequenceNode

from .fock_core import ParameterError, Statistics
from .field_ops import (
    NORMALIZATION_TOLERANCE,
    ModeBasis,
    Wavepacket,
    lowest_mode_numbers,
    norm_squared,
)
from .medium import MediumChannel, MediumModel, ResonanceError
from .perturbation import AbsorptionInput, RateBatch, evaluate_rates, proportionality_exponent
from .verify import EMPTY_TALLY, record_blocks, summary_line, tally

# packet norm^2 offsets above NORMALIZATION_TOLERANCE and up to this are renormalized
NORMALIZE_WARN_LIMIT = 1e-6

_SECTIONS = ("basis", "packets", "medium", "scan", "run")


class ConfigError(ValueError):
    """A config file that cannot be used, with the offending key named."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A parsed config: the domain objects, the run's rate input among them.

    ``run`` holds the packets that ``run.packets`` names, the very objects of
    ``packets``; its order is their number.  ``positions`` is one read-only
    ``(n, dim)`` float array, the one that ``evaluate_rates`` is given.  As
    an array has no one-bool ``==``, a config's ``==`` is identity.
    """

    basis: ModeBasis
    packets: dict[str, Wavepacket]
    medium: MediumModel
    positions: np.ndarray
    run: AbsorptionInput


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

# The YAML 1.1 tags that the resolver gives a config's values.  Each reader
# takes only the tags of its own kind of value; paths are formatted only for
# an error, so that a long position list costs no string building.
_MAP, _SEQ, _STR, _INT, _FLOAT, _BOOL, _NULL, _MERGE = (
    f"tag:yaml.org,2002:{kind}"
    for kind in ("map", "seq", "str", "int", "float", "bool", "null", "merge")
)
# a key, packet name or channel label is the text of a scalar of these types
_NAME_TAGS = frozenset((_STR, _INT, _FLOAT, _BOOL))
# the tags the safe loader builds a value for; ``<<`` merge keys included
_SAFE_TAGS = frozenset(SafeConstructor.yaml_constructors) | {_MERGE}

# a number is converted, and merge keys applied, by the safe loader's own
# methods, which keep no state between calls; only the bulk readers below
# read a whole list of plain decimals with float() or int()
_SAFE = SafeConstructor()

# libyaml's scanner, parser and composer under the safe loader's resolver, so
# the node tree and its tags are the same; the pure-Python SafeLoader serves a
# PyYAML built without libyaml
_BASE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# a plain decimal float with a dot, or a decimal int with no leading 0: each
# is a strict subset of the YAML 1.1 float or int resolver, and for a text
# that starts with a sign or a digit the float resolver is tried first, the
# int resolver second, and no resolver before them matches such a text
_PLAIN_NUMBER = re.compile(
    r"[-+]?(?:[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|0|[1-9][0-9]*)"
).fullmatch


class _YamlLoader(_BASE_LOADER):
    """The safe loader, with the tags of plain decimal numbers and of
    collections given directly rather than by the resolver's regex loop.

    Every tag is the one the inherited ``resolve`` gives: a float has a dot
    and an int none, and without path resolvers a collection takes its
    default tag.
    """

    # the composer calls these at every node to track the path for path
    # resolvers; none is ever added, so each is a builtin ignoring its arguments
    descend_resolver = ascend_resolver = staticmethod("".format)

    def resolve(self, kind, value, implicit):
        if kind is not ScalarNode:
            return _SEQ if kind is SequenceNode else _MAP
        if implicit[0] and _PLAIN_NUMBER(value):
            return _FLOAT if "." in value else _INT
        return _BASE_LOADER.resolve(self, kind, value, implicit)


_YAML_LOADER = _YamlLoader


def _where(path: str, index: tuple[int, ...]) -> str:
    return path + "".join(f"[{i}]" for i in index)


def _shown(node: Node) -> str:
    return repr(node.value) if isinstance(node, ScalarNode) else f"a {node.id}"


def _is_null(node: Node | None) -> bool:
    return node is None or (isinstance(node, ScalarNode) and node.tag == _NULL)


def _check_safe_tags(root: Node) -> None:
    """Raise the safe loader's error for the first node, in document order,
    whose tag it would not build a value for, such as a python tag."""
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.tag not in _SAFE_TAGS:
            _SAFE.construct_undefined(node)
        if isinstance(node, MappingNode):
            stack.extend(reversed([n for pair in node.value for n in pair]))
        elif isinstance(node, SequenceNode):
            stack.extend(reversed(node.value))


def _as_name(node: Node, path: str, *index: int) -> str:
    if isinstance(node, ScalarNode) and node.tag in _NAME_TAGS:
        return node.value
    raise ConfigError(f"{_where(path, index)}: expected a name, got {_shown(node)}")


def _require_map(node: Node | None, path: str, *index: int) -> dict[str, Node]:
    """A mapping node as ``{key text: value node}``; a key given twice is an error.

    Pairs merged in with ``<<`` come first and the mapping's own keys
    override them, as the safe loader has it.
    """
    if not isinstance(node, MappingNode) or node.tag != _MAP:
        raise ConfigError(f"{_where(path, index)}: expected a mapping")
    own = node.value
    items: dict[str, Node] = {}
    if any(key.tag == _MERGE for key, _ in own):
        # flattening rewrites the nodes it visits, and an alias may read this
        # mapping again, so the merge is applied to a copy
        flat = copy.deepcopy(node)
        _SAFE.flatten_mapping(flat)
        split = len(flat.value) - sum(key.tag != _MERGE for key, _ in own)
        own = flat.value[split:]
        for key, value in flat.value[:split]:
            items[_as_name(key, path, *index)] = value
    names = set()
    for key, value in own:
        name = _as_name(key, path, *index)
        if name in names:
            raise ConfigError(f"{_where(path, index)}.{name}: duplicate key")
        names.add(name)
        items[name] = value
    return items


def _require_list(node: Node, path: str, *index: int) -> list[Node]:
    if not isinstance(node, SequenceNode) or node.tag != _SEQ or not node.value:
        raise ConfigError(f"{_where(path, index)}: expected a nonempty list")
    return node.value


def _vector(node: Node, read, path: str, *index: int, size: int | None = None) -> tuple:
    """A nonempty list with each entry read by ``read``, and ``size`` entries if given.

    The whole list is read at once where ``read`` has a bulk reader that takes
    it, and entry by entry otherwise, so a bad entry gets ``read``'s error.
    """
    items = _require_list(node, path, *index)
    if size is not None and len(items) != size:
        raise ConfigError(f"{_where(path, index)}: expected {size} entries, got {len(items)}")
    bulk = _BULK_READERS.get(read)
    values = None if bulk is None else bulk(items)
    if values is None:
        values = [read(v, path, *index, i) for i, v in enumerate(items)]
    return tuple(values)


# Bulk readers: the values of a whole list of nodes, the very values the
# per-entry reader gives each, or None where any entry needs that reader.
_TAG, _VALUE = attrgetter("tag"), attrgetter("value")


def _decimal_ints(texts: list) -> list[int] | None:
    """The texts as ints where ``int()`` reads each and prints it back unchanged:
    decimals with no leading 0, '+' or '_', which the safe loader reads with
    ``int()`` too."""
    try:
        values = list(map(int, texts))
    except (TypeError, ValueError):  # TypeError: a collection tagged !!int
        return None
    return values if list(map(str, values)) == texts else None


def _bulk_ints(nodes: list[Node]) -> list[int] | None:
    """Int-tagged decimals, as ``_as_int`` reads them."""
    if list(map(_TAG, nodes)).count(_INT) != len(nodes):
        return None
    return _decimal_ints(list(map(_VALUE, nodes)))


def _bulk_floats(nodes: list[Node]) -> list[float] | None:
    """Float-tagged texts and int-tagged decimals that ``float()`` reads as
    finite numbers, as ``_as_float`` does: ``float()`` of a decimal and of its
    int round alike."""
    floats = list(map(_TAG, nodes)).count(_FLOAT)
    if floats != len(nodes):
        ints = [n.value for n in nodes if n.tag == _INT]
        if floats + len(ints) != len(nodes) or _decimal_ints(ints) is None:
            return None
    try:
        values = list(map(float, map(_VALUE, nodes)))
    except (TypeError, ValueError):  # TypeError: a collection tagged !!float
        return None
    # a sum is finite only if every term is; finite terms whose sum
    # overflows merely take the per-entry path
    return values if math.isfinite(sum(values)) else None


def _bulk_rows(nodes: list[Node], width: int, bulk) -> list | None:
    """Lists of ``width`` entries, read as one flat list by ``bulk``, row after row."""
    rows = [
        n.value
        for n in nodes
        if type(n) is SequenceNode and n.tag == _SEQ and len(n.value) == width
    ]
    if len(rows) != len(nodes):
        return None
    return bulk([entry for row in rows for entry in row])


def _bulk_complexes(nodes: list[Node]) -> list[complex] | None:
    """``[re, im]`` pairs of entries that ``_bulk_floats`` reads, as ``_as_complex`` does."""
    values = _bulk_rows(nodes, 2, _bulk_floats)
    return None if values is None else list(map(complex, values[::2], values[1::2]))


def _pop(section: dict, key: str, path: str) -> Node:
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required key")
    return section.pop(key)


def _no_leftovers(section: dict, path: str) -> None:
    if section:
        name = sorted(section)[0]
        raise ConfigError(f"{path}.{name}: unknown key")


def _as_float(node: Node, path: str, *index: int) -> float:
    tag = node.tag
    try:
        if tag == _FLOAT:
            number = _SAFE.construct_yaml_float(node)
        elif tag == _INT:
            number = float(_SAFE.construct_yaml_int(node))
        elif tag == _STR and isinstance(node, ScalarNode) and not node.style:
            # YAML 1.1 wants a dot in a float, so a plain 1e-17 resolves to a string
            number = float(node.value)
        else:
            raise ValueError
    except OverflowError:
        number = math.inf
    except (ValueError, IndexError):  # IndexError: the safe loader on an empty !!float ""
        raise ConfigError(
            f"{_where(path, index)}: expected a real number, got {_shown(node)}"
        ) from None
    if not math.isfinite(number):
        raise ConfigError(
            f"{_where(path, index)}: expected a finite number, got {_shown(node)}"
        )
    return number


def _as_int(node: Node, path: str, *index: int) -> int:
    if node.tag == _INT:
        try:
            return _SAFE.construct_yaml_int(node)
        except (ValueError, IndexError):  # IndexError: the safe loader on an empty !!int ""
            pass
    raise ConfigError(f"{_where(path, index)}: expected an integer, got {_shown(node)}")


def _as_complex(node: Node, path: str, *index: int) -> complex:
    if isinstance(node, ScalarNode):
        if node.tag != _STR:
            return complex(_as_float(node, path, *index))
        try:
            number = complex(node.value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(
                f"{_where(path, index)}: cannot parse complex {node.value!r}"
            ) from exc
        if not cmath.isfinite(number):
            raise ConfigError(
                f"{_where(path, index)}: expected a finite number, got {node.value!r}"
            )
        return number
    if isinstance(node, SequenceNode) and node.tag == _SEQ and len(node.value) == 2:
        re_node, im_node = node.value
        return complex(
            _as_float(re_node, path, *index, 0), _as_float(im_node, path, *index, 1)
        )
    raise ConfigError(
        f"{_where(path, index)}: expected a number, [re, im] pair or complex string"
    )


_BULK_READERS = {_as_float: _bulk_floats, _as_int: _bulk_ints, _as_complex: _bulk_complexes}


def _rows(node: Node, read, path: str, width: int) -> list:
    """The entries of a nonempty list of lists of ``width`` entries, each read
    by ``read``, as one flat list: read at once where the bulk reader takes
    them, and row by row otherwise, so a bad row or entry gets ``_vector``'s error."""
    rows = _require_list(node, path)
    values = _bulk_rows(rows, width, _BULK_READERS[read])
    if values is None:
        values = [v for i, row in enumerate(rows) for v in _vector(row, read, path, i, size=width)]
    return values


def _checked(path: str, constructor, *args, **kwargs):
    """Build a domain object, or evaluate its rates, naming the rejected key
    under ``path`` in the error."""
    try:
        return constructor(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{path}.{exc.field}: {exc}") from exc


def _parse_basis(node: Node, packets: Node) -> ModeBasis:
    data = _require_map(node, "basis")
    lengths = _vector(_pop(data, "box_lengths", "basis"), _as_float, "basis.box_lengths")
    has_modes = "modes" in data
    has_lowest = "lowest_modes" in data
    if has_modes == has_lowest:
        raise ConfigError("basis: give exactly one of 'modes' or 'lowest_modes'")
    if has_lowest:
        if len(lengths) != 1:
            raise ConfigError("basis.lowest_modes: only supported for 1D boxes")
        count = _as_int(data.pop("lowest_modes"), "basis.lowest_modes")
        if count < 1:
            raise ConfigError("basis.lowest_modes: must be at least 1")
        # a count the first packet does not match fails before its modes fill memory
        for name, spec in list(_require_map(packets, "packets").items())[:1]:
            _packet_fields(name, spec, count)
        modes = lowest_mode_numbers(count)
    else:
        flat = _rows(data.pop("modes"), _as_int, "basis.modes", len(lengths))
        modes = zip(*[iter(flat)] * len(lengths))
    # only the keys the config gives: the defaults are ModeBasis's own
    options = {}
    if "hbar" in data:
        options["hbar"] = _as_float(data.pop("hbar"), "basis.hbar")
    if "mass" in data:
        options["mass"] = _as_float(data.pop("mass"), "basis.mass")
    if "spins" in data:
        options["spins"] = _vector(data.pop("spins"), _as_int, "basis.spins")
    _no_leftovers(data, "basis")
    return _checked("basis", ModeBasis, lengths, modes, **options)


def _packet_fields(name: str, node: Node, n_modes: int) -> tuple[str, dict, int, tuple]:
    """A packet's path, its keys left to read, its spin and its ``n_modes`` amplitudes."""
    path = f"packets.{name}"
    data = _require_map(node, path)
    spin = _as_int(_pop(data, "spin", path), f"{path}.spin")
    amps = _vector(_pop(data, "amplitudes", path), _as_complex, f"{path}.amplitudes", size=n_modes)
    return path, data, spin, amps


def _parse_packet(name: str, node: Node, basis: ModeBasis) -> Wavepacket:
    path, data, spin, amps = _packet_fields(name, node, basis.n_modes)
    norm_sq = norm_squared(amps)
    off = abs(norm_sq - 1.0)
    if off > NORMALIZE_WARN_LIMIT:
        raise ConfigError(
            f"{path}.amplitudes: norm^2 = {norm_sq!r} is too far from 1"
        )
    if off > NORMALIZATION_TOLERANCE:
        warnings.warn(
            f"packet {name!r}: amplitudes renormalized (norm^2 was {norm_sq!r})"
        )
        scale = 1.0 / math.sqrt(norm_sq)
        amps = tuple([a * scale for a in amps])
    _no_leftovers(data, path)
    return _checked(path, Wavepacket, basis, amps, spin)


def _parse_medium(node: Node) -> MediumModel:
    data = _require_map(node, "medium")
    coupling = _as_complex(_pop(data, "coupling", "medium"), "medium.coupling")
    channels = []
    raw = data.pop("channels", None)
    if not _is_null(raw):
        if not isinstance(raw, SequenceNode) or raw.tag != _SEQ:
            raise ConfigError("medium.channels: expected a list")
        for i, ch_node in enumerate(raw.value):
            path = f"medium.channels[{i}]"
            ch = _require_map(ch_node, path)
            channels.append(
                _checked(
                    path,
                    MediumChannel,
                    label=_as_name(_pop(ch, "label", path), f"{path}.label"),
                    element_in=_as_complex(_pop(ch, "element_in", path), f"{path}.element_in"),
                    element_out=_as_complex(_pop(ch, "element_out", path), f"{path}.element_out"),
                    energy=_as_float(_pop(ch, "energy", path), f"{path}.energy"),
                )
            )
            _no_leftovers(ch, path)
    first = data.pop("first_order_element", None)
    first = None if _is_null(first) else _as_complex(first, "medium.first_order_element")
    _no_leftovers(data, "medium")
    return _checked("medium", MediumModel, coupling, tuple(channels), first)


def _parse_scan(node: Node, dim: int) -> np.ndarray:
    data = _require_map(node, "scan")
    has_positions = "positions" in data
    has_range = "range" in data
    if has_positions == has_range:
        raise ConfigError("scan: give exactly one of 'positions' or 'range'")
    if has_positions:
        flat = _rows(data.pop("positions"), _as_float, "scan.positions", dim)
        rows = np.array(flat, dtype=float).reshape(-1, dim)
    else:
        rng = _require_map(data.pop("range"), "scan.range")
        start = _vector(_pop(rng, "start", "scan.range"), _as_float, "scan.range.start", size=dim)
        stop = _vector(_pop(rng, "stop", "scan.range"), _as_float, "scan.range.stop", size=dim)
        count = _as_int(_pop(rng, "count", "scan.range"), "scan.range.count")
        _no_leftovers(rng, "scan.range")
        if count < 1:
            raise ConfigError("scan.range.count: must be at least 1")
        # endpoint excluded: the box is periodic, so stop == start + L would
        # duplicate the first point.  Row k is start + (stop - start) * k / count,
        # the same float operations in the same order on every coordinate; a
        # span that overflows gives inf or nan, silenced here and rejected below
        first, last = np.array(start), np.array(stop)
        try:
            steps = np.arange(count)
            # numpy sizes arange by a float: from about 2**63 on it comes back empty
            if len(steps) != count:
                raise ValueError
            with np.errstate(all="ignore"):
                rows = first + (last - first) * steps[:, None] / count
        except (MemoryError, OverflowError, ValueError) as exc:  # past numpy's largest array
            raise ConfigError(
                "scan.range.count: too many positions to hold in memory"
            ) from exc
        if not np.isfinite(rows).all():
            raise ConfigError(
                "scan.range: start + (stop - start) * k / count must be finite "
                "at every point k, but the span overflows"
            )
    _no_leftovers(data, "scan")
    rows.flags.writeable = False  # frozen, as the config is
    return rows


def _parse_run(node: Node, packets: dict[str, Wavepacket]) -> AbsorptionInput:
    data = _require_map(node, "run")
    order = _as_int(_pop(data, "order", "run"), "run.order")
    if order not in (1, 2):
        raise ConfigError(f"run.order: must be 1 or 2, got {order}")
    stats_name = _as_name(data.pop("statistics"), "run.statistics") if "statistics" in data else "bose"
    try:
        statistics = Statistics(stats_name)
    except ValueError as exc:
        raise ConfigError(
            f"run.statistics: expected 'bose' or 'fermi', got {stats_name!r}"
        ) from exc
    names = _vector(_pop(data, "packets", "run"), _as_name, "run.packets")
    if len(names) != order:
        raise ConfigError(
            f"run.packets: order {order} needs exactly {order} packet name(s)"
        )
    for name in names:
        if name not in packets:
            raise ConfigError(f"run.packets: undefined packet {name!r}")
    detector_spin = _as_int(
        _pop(data, "detector_spin", "run"), "run.detector_spin"
    )
    _no_leftovers(data, "run")
    return _checked(
        "run", AbsorptionInput, [packets[name] for name in names], detector_spin, statistics
    )


def _parse_document(root: Node | None) -> ExperimentConfig:
    top = _require_map(root, "config")
    for section in _SECTIONS:
        if section not in top:
            raise ConfigError(f"{section}: missing required section")
    extra = set(top) - set(_SECTIONS)
    if extra:
        raise ConfigError(f"{sorted(extra)[0]}: unknown section")
    basis = _parse_basis(top["basis"], top["packets"])
    packet_section = _require_map(top["packets"], "packets")
    if not packet_section:
        raise ConfigError("packets: at least one packet is required")
    packets = {
        name: _parse_packet(name, spec, basis) for name, spec in packet_section.items()
    }
    medium = _parse_medium(top["medium"])
    positions = _parse_scan(top["scan"], basis.dim)
    run = _parse_run(top["run"], packets)
    if len(run.packets) == 2 and not medium.channels:
        raise ConfigError("medium.channels: required for an order-2 run")
    return ExperimentConfig(basis, packets, medium, positions, run)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config.

    libyaml composes the document into a node tree, with YAML 1.1 tags
    resolved, and each value is read from its node as its key requires.
    A number is read by the safe loader's own conversion for its tag.  Plain
    decimal numbers and collections get their tags without the resolver's
    loop over its patterns, and a list of plain numbers, or of ``[re, im]``
    pairs of them, is read in one pass with ``float()`` or ``int()``; the
    tags, values and errors are the same.

    A long position list allocates tens of thousands of nodes, and the
    collections these would set off cost about as much as the parse itself,
    so the cyclic garbage collector is paused while the document is
    composed and read.  It is resumed on every exit, unless the caller had
    already paused it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        root = yaml.compose(text, Loader=_YAML_LOADER)
        try:
            return _parse_document(root)
        except ConfigError:
            # as under the safe loader, a value it would not build, such as a
            # python tag, is reported before anything else wrong with the config
            if root is not None:
                _check_safe_tags(root)
            raise
    except yaml.YAMLError as exc:
        # a constructor error is well-formed YAML holding a value the safe
        # loader will not build, such as a python tag; the rest is syntax
        if isinstance(exc, yaml.constructor.ConstructorError):
            what = "cannot construct a value"
        else:
            what = "syntax error"
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                f"{what} at line {mark.line + 1}, column {mark.column + 1}: {exc}"
            ) from exc
        raise ConfigError(f"{what}: {exc}") from exc
    finally:
        if collecting:
            gc.enable()


# --------------------------------------------------------------------------
# scan execution
# --------------------------------------------------------------------------


def _over_scan(function, config: ExperimentConfig):
    """``function`` of the config's run, medium and scan positions, with a
    rejected medium key named and a resonance reported at every position."""
    try:
        return _checked("medium", function, config.run, config.medium, config.positions)
    except ResonanceError as exc:
        # the channel weights come before any position, so the gate fails at all of them
        raise ResonanceError(f"at every scan position: {exc}") from exc


def run_scan(config: ExperimentConfig) -> RateBatch:
    """Evaluate the configured rates at every scan position, in order.

    Order-1 runs fill the order-2 and second-density columns with 0.
    """
    return _over_scan(evaluate_rates, config)


def emit_csv(batch: RateBatch) -> str:
    """Deterministic CSV: 12 significant digits, fixed columns, LF newlines.

    One ``%`` formats every row; a column of +0.0 only, such as an order-1
    run's ``rate_order2``, is the ``0`` of ``%.12g`` in the row template.
    """
    header = [f"q{i}" for i in range(batch.coords.shape[1])]
    header += ["rate_order1", "rate_order2", "density_a", "density_b"]
    columns = (batch.rate_order1, batch.rate_order2, batch.density_a, batch.density_b)
    table = np.column_stack((batch.coords, *columns))
    keep = table.any(axis=0) | np.signbit(table).any(axis=0)
    row = ",".join(["%.12g" if k else "0" for k in keep.tolist()]) + "\n"
    cells = tuple(table[:, keep].ravel().tolist())
    return ",".join(header) + "\n" + (row * len(table)) % cells


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------


def _load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def _cmd_scan(config: str, out: str | None) -> int:
    csv_text = emit_csv(run_scan(_load_config(config)))
    if out is None:
        sys.stdout.write(csv_text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
    return 0


def _cmd_verify(trials: int, seed: int) -> int:
    # each block's lines are written, and folded into the summary, before the
    # next block is drawn: no record outlives its block
    counts = EMPTY_TALLY
    for block in record_blocks(trials, seed):
        sys.stdout.write("".join([record.line() + "\n" for record in block]))
        counts = tally(block, counts)
    print(summary_line(counts))
    failures = counts[1]
    return 0 if failures == 0 else 1


def _cmd_exponent(config: str) -> int:
    parsed = _load_config(config)
    value = _over_scan(proportionality_exponent, parsed)
    print(f"order={len(parsed.run.packets)} exponent={value:.9f}")
    return 0


# command: (handler, {option: (type,) if it is required, else (type, default)})
_COMMANDS = {
    "scan": (_cmd_scan, {"config": (str,), "out": (str, None)}),
    "verify": (_cmd_verify, {"trials": (int, 100), "seed": (int, 0)}),
    "exponent": (_cmd_exponent, {"config": (str,)}),
}
_USAGE = "usage: " + "".join(
    " ".join(["fockabs", command] + [("--{0} {1}", "[--{0} {1}]")[len(spec) - 1].format(
        name, name.upper()) for name, spec in options.items()]) + "\n       "
    for command, (_, options) in _COMMANDS.items()
) + "fockabs -h | --help\n"


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv``, by default ``sys.argv[1:]``, names; the
    README's "Command line" gives the grammar, which ``_COMMANDS`` spells out."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        raise SystemExit(0)
    handler, options = _COMMANDS.get(argv[0] if argv else "", (None, {}))
    values = {name: spec[1] for name, spec in options.items() if len(spec) > 1}
    words = iter(argv[1:])
    try:
        if handler is None:
            raise ValueError(f"expected a command, one of {', '.join(_COMMANDS)}")
        for word in words:
            name, joined, value = word[2:].partition("=")
            if not word.startswith("--") or name not in options:
                raise ValueError(f"{argv[0]}: unknown argument {word!r}")
            if not joined and (value := next(words, "--")).startswith("--"):
                raise ValueError(f"--{name}: expected a value")
            try:
                values[name] = options[name][0](value)
            except ValueError:
                raise ValueError(f"--{name}: expected an integer, got {value!r}") from None
        missing = [f"--{name}" for name in options if name not in values]
        if missing:
            raise ValueError(f"{argv[0]}: {missing[0]} is required")
    except ValueError as exc:
        sys.stderr.write(f"{_USAGE}fockabs: error: {exc}\n")
        raise SystemExit(2) from None
    try:
        with warnings.catch_warnings():
            # one line per warning, without the source file and line that raised it
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            code = handler(**values)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped, which is no error; devnull keeps the exit flush quiet
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
