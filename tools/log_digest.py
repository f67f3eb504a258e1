"""Digests of every output the bundled scenarios produce, to show that a
change leaves them byte-identical.

For each bundled scenario it first prints one sha256 over the repr of the
loaded config, plain and with seed 5 and the slew limiter on, and over the
repr of its plan's segments; the config's aircraft and plan paths are
reduced to their file names, so that two checkouts compare. For each
bundled scenario and each controller it prints one sha256 over the run's
log arrays (key, dtype and bytes of each, in log order) and its steps,
completion, fault and summary row. For each scenario it prints one
sha256 per line of `levelwing gains`, labelled by the line's label, so a
line added on purpose shows in a diff without hiding the others. Then
come the sha256 of the four files of `levelwing compare` on
rectangle_compare. Last comes one run that ends in a dynamics fault, the
circle in gusts and a quartering wind, with its digest and its fault text.

Run it on two checkouts and diff the outputs:

    python3 tools/log_digest.py > new.txt
    mkdir -p /tmp/parent/tools
    git archive <parent> | tar -x -C /tmp/parent
    cp tools/log_digest.py /tmp/parent/tools/
    python3 /tmp/parent/tools/log_digest.py > old.txt
    diff old.txt new.txt

It imports levelwing from the src directory of its own checkout.
--duration caps every run except the faulting one (its fault comes 28 s
in), for a quick check; in full, all of it takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from levelwing.cli import main as cli_main  # noqa: E402
from levelwing.config import bundled_data_dir, load_config  # noqa: E402
from levelwing.scenario import run_scenario  # noqa: E402

MODES = ("aotc", "ratc")
COMPARE_SCENARIO = "rectangle_compare"
COMPARE_FILES = ("aotc.csv", "ratc.csv", "summary.txt", "summary.csv")
FAULT_SCENARIO, FAULT_MODE = "circle", "aotc"


def fault_run():
    """The bundled circle with 2 m/s gusts, a 3 m/s wind toward 135 deg
    and seed 2, flown by aotc for 50 s: it ends in a pitch singularity."""
    cfg = load_config(f"{FAULT_SCENARIO}.ini")
    toward = math.radians(135.0)
    env = dataclasses.replace(cfg.env, gust_intensity=2.0,
                              wind_n=3.0 * math.cos(toward),
                              wind_e=3.0 * math.sin(toward))
    cfg = dataclasses.replace(cfg, env=env, seed=2, duration=50.0)
    return run_scenario(cfg, FAULT_MODE)


def config_digest(path: str | Path) -> str:
    """sha256 over a scenario's loaded config, plain and with seed 5 and
    slew on, with its file references reduced to their names, and over
    its plan's segments."""
    h = hashlib.sha256()
    for cfg in (load_config(path), load_config(path, seed=5, slew=True)):
        cfg = dataclasses.replace(cfg,
                                  aircraft_path=Path(cfg.aircraft_path.name),
                                  plan_path=Path(cfg.plan_path.name))
        h.update(repr(cfg).encode())
        h.update(repr(cfg.plan.segments).encode())
    return h.hexdigest()


def run_digest(result) -> str:
    """sha256 over a RunResult's log arrays and its outcome."""
    h = hashlib.sha256()
    for key, arr in result.log.items():
        h.update(f"{key}:{arr.dtype.str}:".encode())
        h.update(arr.tobytes())
    h.update(repr((result.steps, result.completed, result.fault,
                   result.summary_row())).encode())
    return h.hexdigest()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_output(argv: list[str]) -> str:
    """What one levelwing command prints; its exit code must be 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"levelwing {' '.join(argv)} exited {code}")
    return out.getvalue()


def digest_lines(duration: float | None) -> list[str]:
    scenarios = sorted(p.stem for p in
                       (bundled_data_dir() / "scenarios").glob("*.ini"))
    lines = [f"config {name} {config_digest(f'{name}.ini')}"
             for name in scenarios]
    for name in scenarios:
        cfg = load_config(f"{name}.ini")
        for mode in MODES:
            result = run_scenario(cfg, mode, duration_override=duration)
            lines.append(f"run {name} {mode} steps={result.steps} "
                         f"{run_digest(result)}")
    for name in scenarios:
        for line in cli_output(["gains", "--config",
                                f"{name}.ini"]).splitlines():
            label = line.split(":", 1)[0] if ":" in line else line.split()[0]
            label = "_".join(label.split())
            lines.append(f"gains {name} {label} {sha(line.encode())}")
    argv = ["compare", "--config", f"{COMPARE_SCENARIO}.ini"]
    if duration is not None:
        argv += ["--duration", repr(duration)]
    with tempfile.TemporaryDirectory() as out_dir:
        cli_output(argv + ["--out-dir", out_dir])
        for file in COMPARE_FILES:
            data = (Path(out_dir) / file).read_bytes()
            lines.append(f"compare {COMPARE_SCENARIO} {file} {sha(data)}")
    result = fault_run()
    lines.append(f"fault {FAULT_SCENARIO} {FAULT_MODE} steps={result.steps} "
                 f"{run_digest(result)} {result.fault}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=None,
                        help="cap every run at this many seconds")
    args = parser.parse_args(argv)
    print("\n".join(digest_lines(args.duration)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
