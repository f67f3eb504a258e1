"""Outside-in tracer for the levelwing closed loop.

It replaces, by name, the functions that ``levelwing.scenario`` calls into
with wrappers that time each call. Each call is a span; a span's self time
is its duration minus the time its child spans took. Spans are aggregated
per hook as they close (calls, self ns), so a long run keeps a
few counters in memory instead of millions of span records.

Nothing under ``src/`` is edited: the hooks are looked up with ``getattr``
when the tracer is installed. A hook whose name no longer exists is
reported as absent and its layer reads zero, so renaming a function in
the program never makes the benchmark crash.
"""

from __future__ import annotations

import importlib
import time

# (hook name, module, attribute path). The hook name is the layer followed
# by the function; layers are the package modules. Entries bound in
# levelwing.scenario are looked up there, so what is traced is exactly
# what the run loop calls.
SCENARIO = "levelwing.scenario"
HOOKS = (
    ("config.load_config", "levelwing.config", "load_config"),
    ("dynamics.integrate_step", SCENARIO, "integrate_step"),
    ("dynamics.air_data", SCENARIO, "air_data"),
    ("dynamics.gust_step", SCENARIO, "GustModel.step"),
    ("dynamics.trim", SCENARIO, "trim"),
    ("control.combined_yaw_coeffs", SCENARIO, "combined_yaw_coeffs"),
    ("control.ratc_gain_synthesis", SCENARIO, "ratc_gain_synthesis"),
    ("control.roll_gain_synthesis", SCENARIO, "roll_gain_synthesis"),
    ("control.aotc_gain_synthesis", SCENARIO, "aotc_gain_synthesis"),
    ("control.lon_gain_synthesis", SCENARIO, "lon_gain_synthesis"),
    ("control.ratc_step", SCENARIO, "ratc_step"),
    ("control.aotc_step", SCENARIO, "aotc_step"),
    ("control.longitudinal_holds", SCENARIO, "longitudinal_holds"),
    ("control.apply_rate_limits", SCENARIO, "apply_rate_limits"),
    ("control.clamp_command", SCENARIO, "clamp_command"),
    ("control.flight_controller_step", SCENARIO, "FlightController.step"),
    ("guidance.step", SCENARIO, "PathManager.step"),
    ("guidance.lateral_error", SCENARIO, "PathManager.lateral_error"),
    ("metrics.series_stats", SCENARIO, "series_stats"),
    ("metrics.beta_estimate", SCENARIO, "beta_estimate"),
    ("scenario.run_scenario", SCENARIO, "run_scenario"),
    ("scenario.export_csv", SCENARIO, "export_csv"),
)


class HookStats:
    """Aggregate of all closed spans of one hook."""

    __slots__ = ("calls", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """Installs timing wrappers on the hooks and restores the originals."""

    def __init__(self):
        self.stats: dict[str, HookStats] = {}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        # One entry per open span: the time its children have taken so far.
        self._child_ns: list[int] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, HookStats())
        open_spans = self._child_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.self_ns += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def install(self) -> None:
        self.absent = []
        for name, module, attr_path in HOOKS:
            owner = importlib.import_module(module)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls = stats.self_ns = 0

    def self_ns(self, *names: str) -> int:
        return sum(self.stats[n].self_ns for n in names if n in self.stats)

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
