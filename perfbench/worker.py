"""One measured repetition, in a fresh interpreter.

    python3 worker.py TASK.json

TASK.json names the package source directory, the mode and where to write
the result.  Mode "run" times ``fockabs.cli_io.main(argv)`` once, with
stdout captured, optionally traced, and reports this process's peak RSS.
Mode "setup" times ``parse_config`` on a config file several times.  Both
time the package import first.  A ``SpeedProbe`` samples the host's
speed during every timed call, so that the caller can scale each time to
one host speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
import warnings

SAMPLE_INTERVAL_S = 0.025  # wall time between samples during a call
BRACKET_SAMPLES = 5  # samples right before and right after a call
SAMPLE_ITERATIONS = 20  # timed: ~0.2-0.4 ms; with the warm-up ~2% of a call's time
WARM_ITERATIONS = 10  # untimed first: a cold sample is slow whatever the host's speed


class SpeedProbe:
    """Samples the host's speed while a timed call runs.

    A shared host switches between speeds up to 2x apart every second or
    so, which spreads whole-run times far beyond any change worth
    measuring.  A sample is the time of a tiny chunk of fixed work, small
    numpy calls in a Python loop like the workloads run, that shares no code
    with fockabs.  While the call runs, a SIGALRM handler takes one sample
    every SAMPLE_INTERVAL_S; the handler runs in the main thread between
    bytecodes, so the samples spread over the call's time and their mean
    tracks the host's mean speed during the call.  Each sample warms up
    untimed first, because the program has just evicted its code and data
    from the caches.  numpy is imported here, after the timed package import
    that loads it anyway.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._x = numpy.linspace(0.0, 1.0, 64)
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        # A collection triggered inside a sample would time the program's
        # heap, not the host; the sample's few objects wait for the next one.
        collecting = gc.isenabled()
        gc.disable()
        np, x = self._np, self._x
        acc = 0j
        table = {}
        for i in range(WARM_ITERATIONS + SAMPLE_ITERATIONS):
            if i == WARM_ITERATIONS:
                start = time.perf_counter()
            acc += complex(np.sum(np.exp(1j * x * (i % 7))))
            table[i % 97] = acc
            acc *= 0.5
            sum(k * k for k in range(20))
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        for _ in range(BRACKET_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(BRACKET_SAMPLES):
            self._sample()


def _peak_rss_kb() -> int:
    """Peak resident set of this process since it started this program.

    On Linux, ru_maxrss of a spawned process also covers the spawning
    parent's peak, so read the VmHWM of the current address space where
    /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(task: dict, cli_io) -> dict:
    tracer = None
    if task["trace"]:
        import tracing

        tracer = tracing.install()
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, SpeedProbe() as probe:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli_io.main(task["argv"])
        except Exception:
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "speed_samples": probe.samples,
        "exit_code": code,
        "warnings": [str(w.message) for w in caught],
        "stdout": out.getvalue(),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def _setup(task: dict, cli_io) -> dict:
    with open(task["config"], encoding="utf-8") as handle:
        text = handle.read()
    times: list[float] = []
    samples: list[list[float]] = []
    probe = SpeedProbe()
    deadline = time.perf_counter() + task["budget_s"]
    while len(times) < task["min_reps"] or (
        time.perf_counter() < deadline and len(times) < task["max_reps"]
    ):
        with probe:
            start = time.perf_counter()
            cli_io.parse_config(text)
            times.append(time.perf_counter() - start)
        samples.append(probe.samples)
    return {"setup_s": times, "speed_samples": samples}


def main(task_path: str) -> int:
    with open(task_path, encoding="utf-8") as handle:
        task = json.load(handle)
    start = time.perf_counter()
    sys.path.insert(0, task["src"])
    import fockabs.cli_io as cli_io

    import_s = time.perf_counter() - start
    result = _setup(task, cli_io) if task["mode"] == "setup" else _run(task, cli_io)
    result["import_s"] = import_s
    with open(task["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
