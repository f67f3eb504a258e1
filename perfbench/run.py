"""levelwing benchmark: closed-loop workloads timed end to end, and a
separate traced run that splits the time over the package's layers.

Run from the repository root:

    python3 perfbench/run.py --workload compare_rectangle --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures the per-layer metrics with the outside-in tracer.
Every run checks the program's outputs against ``perfbench/reference.json``
and the published numbers. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Set-up takes milliseconds, so it is repeated before every iteration and
# the median reported.
SETUPS_PER_ITERATION = 8


def import_levelwing():
    """Import levelwing from this checkout's src/ and nowhere else."""
    package = SRC / "levelwing"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no levelwing source at {package}")
    sys.path.insert(0, str(SRC))
    import levelwing

    if Path(levelwing.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported levelwing from {levelwing.__file__}, "
                 f"not from {package}")
    return levelwing


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "none"


def source_digest() -> str:
    """sha256 over the package's source and data files."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "levelwing").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_line(args, levelwing) -> str:
    import numpy

    return (f"env nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"levelwing={levelwing.__version__} commit={git_commit()} "
            f"src_sha256={source_digest()} machine={platform.machine()} "
            f"workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}")


def rss_bytes() -> int:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def release_free_memory() -> None:
    """Collect garbage and hand the allocator's free pages back to the
    system, so that the resident set holds only live data."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def peak_growth_mb(workload) -> float:
    """How far one untimed iteration, output checks off, raises the
    process's peak RSS above its resident set after imports and set-up."""
    release_free_memory()
    workload.check = False
    try:
        base = rss_bytes()
        workload.iterate()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    finally:
        workload.check = True
    return (peak - base) / 1e6


class Report:
    """Metrics for the JSON line, and one printed line per metric."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def timing(self, name: str, unit: str, samples: list[float]) -> None:
        value = statistics.median(samples)
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(
            f"{name} = {value:.6g} {unit} (median of n={len(samples)}, "
            f"min {min(samples):.6g}, max {max(samples):.6g})")

    def value(self, name: str, unit: str, value: float,
              note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"{name} = {value:.6g} {unit}{note}")


def per_iteration_count(iterations, get) -> int:
    """A count that every iteration repeats exactly, else -1."""
    counts = {get(it) for it in iterations}
    return counts.pop() if len(counts) == 1 else -1


def measure(workload, seconds: float, report: Report) -> list:
    """End-to-end metrics, tracing off."""
    workload.setup()  # first loads and imports
    peak_mb = peak_growth_mb(workload)

    # Closed loop for `seconds`. Every iteration is a whole pass over the
    # workload's inputs, so every sample covers the same runs. The set-ups
    # are spread between the iterations, so that their median samples the
    # same host states as the iterations do.
    setup, iterations = [], []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_ITERATION):
            t0 = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - t0)
        iterations.append(workload.iterate())

    done = [it for it in iterations if it.steps and not it.failed]
    report.timing("wall_s", "s", [it.wall_s for it in done] or [0.0])
    report.timing("step_us", "us",
                  [1e6 * it.sim_s / it.steps for it in done] or [0.0])
    report.timing("setup_s", "s", setup)
    report.value("peak_mem_mb", "MB", peak_mb,
                 " (peak RSS growth over one unchecked iteration)")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    report.value("ok_frac", "frac", (attempted - failed) / max(attempted, 1),
                 f" ({attempted - failed} of {attempted} operations)")
    return iterations


def trace(workload, seconds: float, report: Report) -> list:
    """Per-layer metrics from a traced run; see README.md for the map."""
    from tracer import Tracer

    workload.setup()
    tracer = Tracer()

    def per_call_s(hook):
        calls = tracer.calls(hook)
        return tracer.self_ns(hook) / calls / 1e9 if calls else 0.0

    def per_call_us(hook):
        return per_call_s(hook) * 1e6

    with tracer:
        workload.setup()
    load_s = per_call_s("config.load_config")
    trim_s = per_call_s("dynamics.trim")
    tracer.reset()

    # Each traced iteration follows an untraced one on the same input, so
    # that both see the same host state; their ratio is the overhead.
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(workload.iterate())
        with tracer:
            traced.append(workload.iterate())
    absent = set(tracer.absent)
    n = len(traced)
    steps = sum(it.steps for it in traced)

    def per_step_us(*hooks):
        return tracer.self_ns(*hooks) / max(steps, 1) / 1e3

    def layer(name, unit, value, *hooks):
        missing = sorted(absent.intersection(hooks))
        note = f" (absent: {', '.join(missing)})" if missing else ""
        report.value(name, unit, value, note)

    def count(name, get):
        value = per_iteration_count(traced, get)
        note = " per iteration" if value >= 0 else " (varies by iteration)"
        report.value(name, "count", value, note)

    synthesis = ("control.combined_yaw_coeffs", "control.ratc_gain_synthesis",
                 "control.roll_gain_synthesis", "control.aotc_gain_synthesis",
                 "control.lon_gain_synthesis")
    laws = ("control.ratc_step", "control.aotc_step",
            "control.longitudinal_holds")
    limits = ("control.apply_rate_limits", "control.clamp_command")

    layer("dynamics.integrate_step_us", "us",
          per_call_us("dynamics.integrate_step"), "dynamics.integrate_step")
    calls, rest = divmod(tracer.calls("dynamics.integrate_step"), n)
    layer("dynamics.integrate_step_calls", "count",
          calls + rest / n, "dynamics.integrate_step")
    count("dynamics.faults", lambda it: it.faults)
    layer("dynamics.air_data_us", "us", per_call_us("dynamics.air_data"),
          "dynamics.air_data")
    layer("dynamics.gust_step_us", "us", per_call_us("dynamics.gust_step"),
          "dynamics.gust_step")
    layer("dynamics.trim_s", "s", trim_s, "dynamics.trim")
    layer("control.gain_synthesis_us", "us", per_step_us(*synthesis),
          *synthesis)
    layer("control.law_us", "us", per_step_us(*laws), *laws)
    layer("control.limits_us", "us", per_step_us(*limits), *limits)
    layer("control.step_us", "us",
          per_call_us("control.flight_controller_step"),
          "control.flight_controller_step")
    count("control.saturated_steps", lambda it: it.count("saturated_steps"))
    saturated = sum(it.count("saturated_steps") for it in traced)
    report.value("control.saturated_frac", "frac", saturated / max(steps, 1))
    layer("guidance.step_us", "us", per_call_us("guidance.step"),
          "guidance.step")
    layer("guidance.lateral_error_us", "us",
          per_call_us("guidance.lateral_error"), "guidance.lateral_error")
    count("guidance.segment_switches", lambda it: it.count("segment_switches"))
    count("scenario.steps", lambda it: it.steps)
    layer("scenario.loop_self_us", "us", per_step_us("scenario.run_scenario"),
          "scenario.run_scenario")
    layer("scenario.export_csv_s", "s",
          tracer.self_ns("scenario.export_csv") / max(n, 1) / 1e9,
          "scenario.export_csv")
    count("scenario.csv_rows", lambda it: it.csv_rows)
    count("scenario.csv_bytes", lambda it: it.csv_bytes)
    layer("config.load_config_s", "s", load_s, "config.load_config")
    layer("metrics.series_stats_s", "s",
          per_call_s("metrics.series_stats"), "metrics.series_stats")
    layer("metrics.beta_estimate_us", "us",
          per_call_us("metrics.beta_estimate"), "metrics.beta_estimate")
    ratios = [t.wall_s / p.wall_s for p, t in zip(plain, traced)
              if p.wall_s > 0.0 and t.wall_s > 0.0]
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    report.value("trace.overhead_frac", "frac", overhead,
                 f" (median over {len(traced)} traced/untraced pairs)")
    report.value("trace.absent_hooks", "count", len(absent),
                 f" {sorted(absent)}" if absent else "")
    return plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    levelwing = import_levelwing()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    print(environment_line(args, levelwing), flush=True)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = Report()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, reference)
        run = trace if args.trace else measure
        iterations = run(workload, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if hasattr(workload, "member_lines"):
        print("\n".join(workload.member_lines()))
    problems = [p for it in iterations for p in it.problems]
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}")
    print(f"workload {workload.name}: {workload.why}")
    print("\n".join(report.lines))
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
