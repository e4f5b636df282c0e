"""The fockabs benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan_1d_dense --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it imports fockabs from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  Every measured repetition runs in a fresh interpreter
(``worker.py``), so peak RSS is that process's own and no heap carries over.
Outputs are checked against references computed in ``workloads.py``.  The
last line of stdout is the JSON result; the lines before it are a readable
summary and the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The workloads are single-threaded Python.  One BLAS thread (<= nproc) keeps
# numpy from spreading work and noise over cores, on every commit alike; it
# is pinned before numpy loads, here and in every worker.
BLAS_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_ENV)

import numpy  # noqa: E402
import yaml  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

MIN_REPS = 3  # measured repetitions per run, however long they take
MIN_TRACED_REPS = 2  # of each kind, traced and untraced, in a traced run
SETUP_SHARE = 0.15  # share of --seconds spent timing parse_config
RUN_LIMIT_S = 150  # no run goes on past this, whatever --seconds says

# Every time the benchmark reports is scaled to one host speed: the speed at
# which a sample of worker.SpeedProbe, fixed work timed during each measured
# call, takes REFERENCE_SAMPLE_S on average.  On a shared host the machine's
# speed switches between states up to 2x apart, and the raw times of runs
# with it; the scaled ones spread several times less.  The summary prints
# the unscaled wall_s median too.
REFERENCE_SAMPLE_S = 0.0002

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _median(values: list[float]) -> float:
    return statistics.median(values)


def _scale(samples: list[float]) -> float:
    """Factor that turns a time measured with these speed samples into
    reference seconds."""
    return REFERENCE_SAMPLE_S / statistics.fmean(samples)


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (n={n}, needs 11)"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g} (n={n})"


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns workers in a scratch directory inside the source tree."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        # Workers cache the package's bytecode under src/ as an installed
        # package would, so that import time never includes compiling it.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, task: dict) -> dict:
        if self.time_left() <= 0:
            return {"error": f"run limit of {RUN_LIMIT_S} s reached"}
        self.count += 1
        task_path = self.workdir / f"task{self.count}.json"
        result_path = self.workdir / f"result{self.count}.json"
        task = dict(task, src=str(SRC), result=str(result_path))
        task_path.write_text(json.dumps(task), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(task_path)],
                capture_output=True,
                text=True,
                timeout=self.time_left(),
                env=self.env,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker stopped at the run limit of {RUN_LIMIT_S} s"}
        if proc.returncode != 0 or not result_path.is_file():
            return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["stderr"] = proc.stderr
        result_path.unlink()
        task_path.unlink()
        return result


class Workload:
    """A workload's inputs written to disk, and the check of its outputs."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.inputs = workloads.generate(name, seed)
        self.config_path = None
        self.out_path = workdir / "out.csv"
        spec = self.inputs.config
        if spec is None:
            self.argv = list(self.inputs.verify_argv)
        else:
            self.config_path = workdir / "config.yaml"
            self.config_path.write_text(workloads.config_yaml(spec), encoding="utf-8")
            self.argv = ["scan", "--config", str(self.config_path), "--out", str(self.out_path)]
            self.expected = workloads.reference_rows(spec)
        self.digests: set[str] = set()
        self.problems: list[str] = []

    @property
    def is_scan(self) -> bool:
        return self.config_path is not None

    def check(self, rep: dict) -> int:
        """Failed items of one repetition; records digests and problems."""
        items = self.inputs.items
        if "error" in rep:
            self.problems.append(rep["error"])
            return items
        if rep["warnings"]:
            self.problems.append(f"warnings: {rep['warnings'][:3]}")
        if self.is_scan:
            written = self.out_path.is_file()
            output = self.out_path.read_text(encoding="utf-8") if written else ""
            self.out_path.unlink(missing_ok=True)
            if rep["exit_code"] != 0 or not written:
                self.problems.append(f"exit {rep['exit_code']}: {rep['stderr'][-500:]}")
                return items
            failed = workloads.check_csv(output, self.inputs.config, self.expected)
        else:
            output = rep["stdout"]
            failed = workloads.check_verify(output, items)
            if rep["exit_code"] != (1 if failed else 0):
                self.problems.append(f"exit {rep['exit_code']}: {rep['stderr'][-500:]}")
                failed = items
        self.digests.add(hashlib.sha256(output.encode()).hexdigest())
        return failed


def _run_reps(runner: Runner, workload: Workload, budget_s: float, kinds: list[bool]):
    """Repeat runs, cycling through ``kinds`` (traced or not), within the budget."""
    start = time.perf_counter()
    reps: list[tuple[bool, dict]] = []
    longest = 0.0
    minimum = MIN_REPS if len(kinds) == 1 else MIN_TRACED_REPS * len(kinds)
    while runner.time_left() > 0 and (
        len(reps) < minimum or time.perf_counter() - start + longest <= budget_s
    ):
        trace = kinds[len(reps) % len(kinds)]
        began = time.perf_counter()
        rep = runner.spawn({"mode": "run", "argv": workload.argv, "trace": trace})
        rep["failed"] = workload.check(rep)
        rep.pop("stdout", None)
        if "error" not in rep:
            rep["scale"] = _scale(rep["speed_samples"])
        if "trace" in rep:
            rep["absent"] = rep["trace"]["absent"]
            rep["layers"] = {
                name: value * rep["scale"] if tracing.LAYER_METRICS[name][0] == "s" else value
                for name, value in tracing.layer_metrics(rep.pop("trace")).items()
            }
        longest = max(longest, time.perf_counter() - began)
        reps.append((trace, rep))
    return reps


def measure(runner: Runner, workload: Workload, seconds: float, trace: bool):
    """Returns (metrics, units, attempted, failed, summary lines)."""
    lines = []
    start = time.perf_counter()
    setup_times = None
    if workload.is_scan and not trace:
        setup = runner.spawn(
            {
                "mode": "setup",
                "config": str(workload.config_path),
                "budget_s": SETUP_SHARE * seconds,
                "min_reps": MIN_REPS,
                "max_reps": 200,
            }
        )
        if "error" in setup:
            workload.problems.append(setup["error"])
        else:
            setup_times = [
                t * _scale(samples) for t, samples in zip(setup["setup_s"], setup["speed_samples"])
            ]
    remaining = seconds - (time.perf_counter() - start)
    reps = _run_reps(runner, workload, remaining, [True, False] if trace else [False])
    attempted = failed = 0
    for _, rep in reps:
        attempted += workload.inputs.items
        failed += rep["failed"]
    good = [(traced, rep) for traced, rep in reps if "error" not in rep]
    plain = [rep for traced, rep in good if not traced]
    traced = [rep for is_traced, rep in good if is_traced]
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if not plain or (trace and not traced):
        return metrics, units, attempted, failed, lines
    walls = [rep["wall_s"] * rep["scale"] for rep in plain]
    if trace:
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            metrics[name] = _median([rep["layers"][name] for rep in traced])
            units[name] = unit
        traced_walls = [rep["wall_s"] * rep["scale"] for rep in traced]
        metrics[tracing.OVERHEAD_METRIC] = _median(traced_walls) - _median(walls)
        units[tracing.OVERHEAD_METRIC] = "s"
        absent = traced[0]["absent"]
        self_times = {k: v for k, v in metrics.items() if units[k] == "s" and k != tracing.OVERHEAD_METRIC}
        lines.append(
            f"wall_s median traced {_median(traced_walls):.6g} s, untraced {_median(walls):.6g} s"
        )
        lines.append(f"dominant self time: {max(self_times, key=self_times.get)}")
        lines.append(f"absent entry points: {', '.join(absent) if absent else 'none'}")
    else:
        imports = [rep["import_s"] * rep["scale"] for rep in plain]
        samples = {
            "wall_s": walls,
            "setup_s": setup_times if setup_times is not None else imports,
            "peak_rss_mb": [rep["peak_rss_kb"] / 1024 for rep in plain],
        }
        metrics = {name: _median(values) for name, values in samples.items()}
        # the rate of the median run, so that it tracks wall_s exactly
        metrics["items_per_s"] = workload.inputs.items / metrics["wall_s"]
        units = dict(END_TO_END_UNITS)
        for name, values in samples.items():
            lines.append(
                f"{name:12s} median {metrics[name]:.6g} {units[name]}; tail {_tail(values)}"
            )
        lines.append(f"items_per_s  {metrics['items_per_s']:.6g} 1/s ({workload.inputs.items} items)")
        what = "parse_config" if setup_times is not None else "package import"
        lines.append(f"setup_s times {what}; import_s median {_median(imports):.6g} s")
        lines.append("wall_s runs  " + " ".join(f"{w:.4g}" for w in walls))
        raw = [rep["wall_s"] for rep in plain]
        speed = [statistics.fmean(rep["speed_samples"]) for rep in plain]
        lines.append(
            f"unscaled wall_s median {_median(raw):.6g} s; mean speed sample median "
            f"{_median(speed):.6g} s (reference {REFERENCE_SAMPLE_S} s)"
        )
    return metrics, units, attempted, failed, lines


def _stop(signum, frame):
    # an exception, so that subprocess.run kills and reaps the running
    # worker and the scratch directory is removed
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description="fockabs benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockabs" / "cli_io.py").is_file():
        print(f"error: no fockabs source under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    began = time.perf_counter()
    try:
        workload = Workload(args.workload, args.seed, workdir)
        metrics, units, attempted, failed, lines = measure(
            Runner(workdir, began + RUN_LIMIT_S), workload, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if len(workload.digests) > 1:
        workload.problems.append(f"output differs between runs: {sorted(workload.digests)}")
    correct = failed == 0 and not workload.problems and bool(metrics)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.perf_counter() - began:.1f} s")
    print("env " + json.dumps(environment(), sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_frac  {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    print(f"output sha256 {' '.join(sorted(workload.digests)) or 'none'}")
    for problem in workload.problems[:5]:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
