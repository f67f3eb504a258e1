"""The README's examples agree with the bundled data and the real output."""

import configparser
import json
import math
import re
import statistics
from pathlib import Path

import numpy as np

from conftest import OFFSETS_M
from levelwing.config import (
    CONTROLLER_KEYS,
    ENVIRONMENT_KEYS,
    GUIDANCE_KEYS,
    REFERENCE_KEYS,
    SCENARIO_KEYS,
    load_config,
    load_plan,
)
from levelwing.scenario import LOG_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE = README.parent / "perfbench" / "reference.json"


def readme_blocks(opening: str) -> list[str]:
    """Bodies of the fenced blocks in the README whose opening fence is
    exactly opening, in order."""
    return re.findall(rf"^{re.escape(opening)}\n(.*?)^```$",
                      README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def readme_block(opening: str) -> str:
    """Body of the first fenced block whose opening fence is opening."""
    blocks = readme_blocks(opening)
    assert blocks, f"no {opening} block in README.md"
    return blocks[0]


def readme_block_with(text: str) -> str:
    """Body of the one Python block that contains text."""
    blocks = [body for body in readme_blocks("```python") if text in body]
    assert len(blocks) == 1, f"{len(blocks)} Python blocks hold {text!r}"
    return blocks[0]


def test_scenario_file_example_is_the_bundled_rectangle(tmp_path):
    path = tmp_path / "rectangle_compare.ini"
    path.write_text(readme_block("```ini"), encoding="utf-8")
    assert load_config(path) == load_config("rectangle_compare.ini")


def test_scenario_file_example_lists_every_key():
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                       interpolation=None)
    parser.read_string(readme_block("```ini"))
    assert {name: set(parser[name]) for name in parser.sections()} == {
        "scenario": {*SCENARIO_KEYS, "name", *REFERENCE_KEYS},
        "environment": set(ENVIRONMENT_KEYS),
        "controller": {*CONTROLLER_KEYS, *GUIDANCE_KEYS},
    }


def test_headline_matches_the_comparison_output(rect_comparison):
    comp, _ = rect_comparison
    headline = readme_block("```").splitlines()
    output = comp.table_text.splitlines()

    rows = [line.split() for line in headline
            if line.startswith("rectangle_compare")]
    assert [row[1] for row in rows] == ["aotc", "ratc"]
    for row in rows:
        actual = next(line.split() for line in output
                      if line.split()[:2] == row[:2])
        assert row[2:] == actual[2:7]

    ratio_lines = [line for line in headline if " = " in line]
    assert len(ratio_lines) == 3
    for line in ratio_lines:
        assert line in output


def test_airframe_example_runs(capsys):
    namespace = {"cfg": load_config("rectangle_compare.ini")}
    exec(readme_block_with("make_airframe("), namespace)
    airframe, state = namespace["airframe"], namespace["state"]
    assert airframe.params == namespace["cfg"].params
    assert state.pn > 0.0 and state.pe > 0.0
    kp_psi, kd_psi, a_psi2 = map(float, capsys.readouterr().out.split())
    gains, plants = namespace["gains"], namespace["plants"]
    assert (kp_psi, kd_psi, a_psi2) == (gains.kp_psi, gains.kd_psi,
                                        plants.a_psi2)


def test_closed_loop_step_example_runs():
    # It goes on from the airframe example.
    namespace = {"cfg": load_config("rectangle_compare.ini")}
    exec(readme_block_with("make_airframe("), namespace)
    exec(readme_block_with("closed_loop_step("), namespace)
    memory, row = namespace["memory"], namespace["row"]
    assert memory.command == namespace["cmd"]
    assert len(row) == len(LOG_COLUMNS) - 1    # every column but t
    assert namespace["state"].pn > 0.0


def test_headline_plan_extent_is_the_bundled_rectangle():
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.findall(r"bundled rectangle plan, a (\d+)x(\d+) m", text)
    assert len(found) == 1, found
    plan = load_plan(load_config("rectangle_compare.ini").plan_path)
    north, east = zip(*plan.waypoints)
    assert tuple(map(float, found[0])) == (max(north) - min(north),
                                           max(east) - min(east))


def test_sweep_band_is_derived_from_the_reference_file():
    # The sentence beside the headline quotes perfbench/reference.json's
    # gust sweep: departures per controller, and ratc's rms_450 over
    # aotc's on the members where neither departs.
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.findall(
        r"in the (\d+)-member gust sweep of `perfbench/reference\.json` .*?"
        r"aotc departs .*? in (\d+) members and ratc in (\w+), and in the "
        r"(\d+) members where neither departs, ratc's `rms_450` over "
        r"aotc's spans (\d\.\d{3}) to (\d\.\d{3}), with a median of "
        r"(\d\.\d{3})\.", text)
    assert len(found) == 1, found
    sweep = json.loads(REFERENCE.read_text(encoding="utf-8"))["gust_sweep"]
    members = sorted({key.rsplit("/", 1)[0] for key in sweep})
    runs = [(sweep[f"{m}/aotc"], sweep[f"{m}/ratc"]) for m in members]
    departs = [sum(pair[i]["departed"] for pair in runs) for i in (0, 1)]
    ratios = [r["summary"]["rms_450"] / a["summary"]["rms_450"]
              for a, r in runs if not (a["departed"] or r["departed"])]
    assert found[0] == (
        str(len(members)), str(departs[0]),
        str(departs[1]) if departs[1] else "none", str(len(ratios)),
        f"{min(ratios):.3f}", f"{max(ratios):.3f}",
        f"{statistics.median(ratios):.3f}")


def test_offset_table_is_recomputed_from_the_offset_runs(offset_runs):
    # Each row of the README's offset table, cell by cell as printed: the
    # peak roll of each law, the time from which each stays within 10 % of
    # the offset, and how far ratc crosses to the other side.
    rows = re.findall(r"^\| (\d+) m \| (.*) \|$",
                      README.read_text(encoding="utf-8"), re.MULTILINE)
    assert [float(offset) for offset, _ in rows] == list(OFFSETS_M)
    for (_, cells), offset in zip(rows, OFFSETS_M):
        runs = [offset_runs[mode, offset] for mode in ("aotc", "ratc")]
        peaks = [math.degrees(np.max(np.abs(run.phi))) for run in runs]
        in_band = [run.t[np.nonzero(np.abs(run.e) >= 0.1 * offset)[0][-1] + 1]
                   for run in runs]
        crossings = [np.max(-run.e) / offset for run in runs]
        assert cells.split(" | ") == [
            *(f"{peak:.2f}°" for peak in peaks),
            *(f"{t:.2f} s" for t in in_band), f"{100 * crossings[1]:.1f} %"]
        # The sentence under the table.
        assert peaks[1] < peaks[0] / 8 and in_band[1] > in_band[0]
        assert crossings[0] <= 0.0 < crossings[1]
