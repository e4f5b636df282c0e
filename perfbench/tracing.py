"""Spans and counters around the public entry points of each fockabs layer.

``install`` rebinds each entry point wherever a fockabs module holds it (as
bound in the calling module, so ``cli_io.position_amplitude`` and
``perturbation.position_amplitude`` are both covered).  It edits nothing on
disk and acts only inside the process that calls it.  An entry point that
the package no longer has is listed as absent instead of failing the run.

Spans stay in memory; ``export`` returns them for writing when the run ends,
and ``layer_metrics`` turns them into self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span or counter name, module, attribute path, kind); kind "span" records a
# timed span, "count" only counts calls.  Entries sharing a name are one layer
# reached through several doors; a span nested in one of the same name is
# folded into it.
ENTRY_POINTS = (
    ("cli_io.parse", "cli_io", "parse_config", "span"),
    ("cli_io.yaml_load", "cli_io", "yaml.safe_load", "span"),
    ("cli_io.yaml_load", "cli_io", "yaml.load", "span"),
    ("cli_io.run_scan", "cli_io", "run_scan", "span"),
    ("cli_io.emit", "cli_io", "emit_csv", "span"),
    ("field_ops.basis_build", "field_ops", "ModeBasis.__init__", "span"),
    ("field_ops.basis_build", "field_ops", "ModeBasis.from_mode_numbers", "span"),
    ("field_ops.basis_build", "field_ops", "ModeBasis.lowest_modes_1d", "span"),
    ("field_ops.position_amplitude", "field_ops", "position_amplitude", "span"),
    ("field_ops.two_particle_state", "field_ops", "two_particle_state", "span"),
    ("perturbation.rate_first_order", "perturbation", "rate_first_order", "span"),
    ("perturbation.rate_second_order", "perturbation", "rate_second_order", "span"),
    ("perturbation.w_terms", "perturbation", "w_terms", "span"),
    ("medium.channel_weight", "medium", "channel_weight", "count"),
    ("oracle.first_order_amplitude", "oracle", "first_order_amplitude", "span"),
    ("oracle.second_order_amplitude", "oracle", "second_order_amplitude", "span"),
    ("oracle.verify", "cli_io", "verify_closed_forms", "span"),
    ("fock_core.annihilate", "fock_core", "annihilate", "count"),
    ("fock_core.inner_product", "fock_core", "inner_product", "count"),
)

# per-layer metric -> (unit, how it is derived from the trace)
LAYER_METRICS = {
    "cli_io.yaml_load_s": ("s", ("self", "cli_io.yaml_load")),
    "cli_io.parse_self_s": ("s", ("self", "cli_io.parse")),
    "cli_io.config_bytes": ("bytes", ("counter", "cli_io.config_bytes")),
    "cli_io.run_scan_self_s": ("s", ("self", "cli_io.run_scan")),
    "cli_io.emit_s": ("s", ("self", "cli_io.emit")),
    "cli_io.csv_bytes": ("bytes", ("counter", "cli_io.csv_bytes")),
    "cli_io.rows": ("count", ("counter", "cli_io.rows")),
    "field_ops.basis_build_s": ("s", ("self", "field_ops.basis_build")),
    "field_ops.basis_builds": ("count", ("calls", "field_ops.basis_build")),
    "field_ops.n_modes": ("count", ("counter", "field_ops.n_modes")),
    "field_ops.position_amplitude_s": ("s", ("self", "field_ops.position_amplitude")),
    "field_ops.position_amplitude_calls": ("count", ("calls", "field_ops.position_amplitude")),
    "field_ops.two_particle_state_s": ("s", ("self", "field_ops.two_particle_state")),
    "perturbation.rate_first_order_self_s": ("s", ("self", "perturbation.rate_first_order")),
    "perturbation.rate_first_order_calls": ("count", ("calls", "perturbation.rate_first_order")),
    "perturbation.rate_second_order_self_s": ("s", ("self", "perturbation.rate_second_order")),
    "perturbation.rate_second_order_calls": ("count", ("calls", "perturbation.rate_second_order")),
    "perturbation.w_terms_s": ("s", ("self", "perturbation.w_terms")),
    "perturbation.w_terms_calls": ("count", ("calls", "perturbation.w_terms")),
    "medium.channel_weight_calls": ("count", ("calls", "medium.channel_weight")),
    "oracle.first_order_amplitude_s": ("s", ("self", "oracle.first_order_amplitude")),
    "oracle.first_order_amplitude_calls": ("count", ("calls", "oracle.first_order_amplitude")),
    "oracle.second_order_amplitude_s": ("s", ("self", "oracle.second_order_amplitude")),
    "oracle.second_order_amplitude_calls": ("count", ("calls", "oracle.second_order_amplitude")),
    "oracle.verify_self_s": ("s", ("self", "oracle.verify")),
    "oracle.comparisons": ("count", ("counter", "oracle.comparisons")),
    "oracle.flagged": ("count", ("counter", "oracle.flagged")),
    "oracle.failures": ("count", ("counter", "oracle.failures")),
    "fock_core.annihilate_calls": ("count", ("calls", "fock_core.annihilate")),
    "fock_core.inner_product_calls": ("count", ("calls", "fock_core.inner_product")),
}
OVERHEAD_METRIC = "trace.overhead_s"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()  # calls of "count" entry points
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def _after(self, name: str, args: tuple, result: object) -> None:
        """Problem sizes read off the arguments or result at a boundary."""
        counters = self.counters
        if name == "cli_io.parse" and args and isinstance(args[0], str):
            counters["cli_io.config_bytes"] = len(args[0].encode())
        elif name == "cli_io.emit" and isinstance(result, str):
            counters["cli_io.csv_bytes"] = len(result.encode())
            counters["cli_io.rows"] = result.count("\n") - 1
        elif name == "field_ops.basis_build":
            basis = result if result is not None else (args[0] if args else None)
            n_modes = getattr(basis, "n_modes", None)
            if isinstance(n_modes, int):
                counters["field_ops.n_modes"] = max(counters.get("field_ops.n_modes", 0), n_modes)
        elif name == "oracle.verify":
            for key in ("records", "flagged", "failures"):
                value = getattr(result, key, None)
                if value is not None:
                    label = "comparisons" if key == "records" else key
                    counters[f"oracle.{label}"] = len(value)

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            self._after(name, args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "counters": self.counters,
            "absent": self.absent,
        }


def _fockabs_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "fockabs" or n.startswith("fockabs.")]


def install() -> Tracer:
    """Wrap every entry point that exists; record the ones that do not."""
    tracer = Tracer()
    modules = _fockabs_modules()
    for name, module_name, path, kind in ENTRY_POINTS:
        try:
            owner = importlib.import_module(f"fockabs.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            tracer.absent.append(f"{module_name}.{path}")
            continue
        make = tracer.span if kind == "span" else tracer.count
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(name, raw.__func__)))
            continue
        wrapped = make(name, raw)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
    return tracer


def layer_metrics(trace: dict) -> dict[str, float]:
    """Self times (span minus its child spans) and counts from one traced run."""
    spans = trace["spans"]
    self_time: Counter[str] = Counter()
    calls: Counter[str] = Counter(trace["calls"])
    for name, start, end, _ in spans:
        self_time[name] += end - start
        calls[name] += 1
    for name, start, end, parent in spans:
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start
    out = {}
    for metric, (_, (source, key)) in LAYER_METRICS.items():
        if source == "self":
            out[metric] = self_time.get(key, 0.0)
        elif source == "calls":
            out[metric] = calls.get(key, 0)
        else:
            out[metric] = trace["counters"].get(key, 0)
    return out
