"""tools/log_digest.py: the digests that show a change leaves every
output byte-identical."""

import importlib.util
import re
import shutil
from pathlib import Path

from conftest import DATA_DIR
from levelwing.config import load_config
from levelwing.scenario import run_scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "log_digest.py"
SCENARIOS = ("circle", "corner90", "figure_eight", "rectangle_compare")


def load_tool():
    spec = importlib.util.spec_from_file_location("log_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_cover_every_bundled_output(tmp_path, capsys):
    tool = load_tool()
    assert tool.main(["--duration", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    configs = dict(line.split()[1:] for line in lines
                   if line.startswith("config "))
    assert list(configs) == list(SCENARIOS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
               for digest in configs.values())
    # The config digest does not depend on the directory of the files, so
    # two checkouts compare.
    for source in ("scenarios/rectangle_compare.ini", "aerosonde.ini",
                   "plans/rectangle.ini"):
        shutil.copy(DATA_DIR / source, tmp_path)
    copy = tmp_path / "rectangle_compare.ini"
    assert load_config(copy).plan_path == tmp_path / "rectangle.ini"
    assert tool.config_digest(copy) == configs["rectangle_compare"]
    runs = [line.split() for line in lines if line.startswith("run ")]
    assert [(name, mode) for _, name, mode, *_ in runs] == [
        (name, mode) for name in SCENARIOS for mode in ("aotc", "ratc")]
    assert all(steps == "steps=200" and re.fullmatch(r"[0-9a-f]{64}", digest)
               for *_, steps, digest in runs)
    # A run's digest is that of the same run made again.
    _, name, mode, _, digest = runs[0]
    again = run_scenario(load_config(f"{name}.ini"), mode,
                         duration_override=2.0)
    assert tool.run_digest(again) == digest
    gains = [line.split()[1:3] for line in lines if line.startswith("gains ")]
    for name in SCENARIOS:
        labels = [label for scenario, label in gains if scenario == name]
        assert {"heading_plant", "roll_plant", "pitch_plant", "ratc_heading",
                "aotc_course", "trim"} <= set(labels)
    assert [line.split()[2] for line in lines
            if line.startswith("compare ")] == [
        "aotc.csv", "ratc.csv", "summary.txt", "summary.csv"]
    # The last run ends in a dynamics fault, whatever the duration cap, so
    # the digests see a fault's text.
    name, mode, steps, digest, fault = lines[-1].split(maxsplit=5)[1:]
    assert (name, mode) == ("circle", "aotc")
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert fault == ("dynamics: pitch -89.48 deg too close to +/-90 deg "
                     "at t = 28.21 s")
    result = tool.fault_run()
    assert steps == f"steps={result.steps}"
    assert tool.run_digest(result) == digest
