"""Regenerate perfbench/reference.json from the current code.

The reference pins what every benchmarked run must reproduce: the summary
row of each controller on the two bundled scenarios and on every member
of the sweep grid, with its step count, completion, fault category and
counts. Run it only when an output change is intended, and say why in
CHANGES.md:

    python3 perfbench/make_reference.py

Sweep members run in one worker process per CPU.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def sweep_member(member) -> dict:
    """Records of both controllers on one sweep member."""
    from levelwing import config, scenario
    from workloads import MODES, run_record, write_member_inis

    with tempfile.TemporaryDirectory() as tmp:
        cfg = config.load_config(write_member_inis([member], Path(tmp))[0])
    return {f"{member.key}/{mode}":
            run_record(scenario.run_scenario(cfg, mode), cfg.params)
            for mode in MODES}


def main() -> None:
    from levelwing import config, scenario
    from workloads import MODES, SWEEP_PLANS, run_record, sweep_grid

    reference = {}
    cfg = config.load_config("rectangle_compare.ini")
    comp = scenario.compare_controllers(cfg)
    reference["compare_rectangle"] = {
        mode: run_record(getattr(comp, mode), cfg.params) for mode in MODES}
    cfg = config.load_config("figure_eight.ini")
    reference["survey_figure_eight"] = {
        mode: run_record(scenario.run_scenario(cfg, mode), cfg.params)
        for mode in MODES}

    members = [m for plan in SWEEP_PLANS for m in sweep_grid(plan)]
    sweep = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool() as pool:
        for records in pool.imap(sweep_member, members, chunksize=4):
            sweep.update(records)
    reference["gust_sweep"] = sweep

    (BENCH_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    departed = sum(r["departed"] for r in sweep.values())
    print(f"wrote {len(sweep)} sweep records, {departed} departed")


if __name__ == "__main__":
    main()
