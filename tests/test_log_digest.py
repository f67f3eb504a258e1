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
    for source in ("scenarios/rectangle_compare.ini", "aircraft/aerosonde.ini",
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
    # Each run is followed by the digest of its `simulate` printout.
    printouts = [line.split() for line in lines
                 if line.startswith("simulate ")]
    assert [(name, mode) for _, name, mode, *_ in printouts] == [
        (name, mode) for name in SCENARIOS for mode in ("aotc", "ratc")
    ] + [("circle", "aotc")]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
               for *_, digest in printouts)
    assert lines.index(" ".join(printouts[0])) == lines.index(
        " ".join(runs[0])) + 1
    assert printouts[0][-1] == tool.sha(tool.printout(again).encode())
    assert "scenario  : circle" in tool.printout(again)
    gains = [line.split()[1:3] for line in lines if line.startswith("gains ")]
    for name in SCENARIOS:
        labels = [label for scenario, label in gains if scenario == name]
        assert {"heading_plant", "roll_plant", "pitch_plant", "ratc_heading",
                "aotc_course", "trim"} <= set(labels)
    assert [line.split()[2] for line in lines
            if line.startswith("compare ")] == [
        "aotc.csv", "ratc.csv", "summary.txt", "summary.csv"]
    # Then one line for corner90 flown by ratc with the slew limiter on:
    # its run digest and the digest of its `simulate` printout.
    assert lines[-5].startswith("compare rectangle_compare summary.csv ")
    slew = run_scenario(load_config("corner90.ini", slew=True), "ratc",
                        duration_override=2.0)
    assert lines[-4] == (f"slew corner90 ratc steps=200 "
                         f"{tool.run_digest(slew)} "
                         f"{tool.sha(tool.printout(slew).encode())}")
    assert len(lines) == 4 + 2 * len(runs) + len(gains) + 4 + 1 + 3
    # The last two runs end in a dynamics fault, whatever the duration cap,
    # so the digests see a fault's text: a pitch singularity, then an
    # overflow in the air data of the first step.
    faults = [line.split(maxsplit=5)[1:] for line in lines[-2:]]
    assert [fault[:2] for fault in faults] == [["circle", "aotc"],
                                               ["rectangle_compare", "ratc"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
               for _, _, _, digest, _ in faults)
    assert [fault[-1] for fault in faults] == [
        "dynamics: pitch -89.48 deg too close to +/-90 deg at t = 28.21 s",
        "dynamics: overflow in closed-loop step: (34, 'Numerical result out "
        "of range') at t = 0.00 s"]
    results = tool.fault_run(), tool.overflow_run()
    for (*_, steps, digest, _), result in zip(faults, results):
        assert steps == f"steps={result.steps}"
        assert tool.run_digest(result) == digest
    assert faults[1][2] == "steps=0"
    assert printouts[-1] == ["simulate", "circle", "aotc", "fault",
                             tool.sha(tool.printout(results[0]).encode())]
    assert lines[-3] == " ".join(printouts[-1])
