"""Command-line interface: subcommands, outputs, and exit codes."""

import inspect
import multiprocessing
import re
from pathlib import Path

import pytest

import levelwing.cli
import levelwing.errors
import levelwing.scenario
from conftest import (DATA_DIR, RETIRED_INPUTS, needs_fork, rectangle_with,
                      set_key, with_retired_input, write_decoys)
from levelwing.cli import main
from levelwing.config import load_config, resolve_input_path
from levelwing.control import plant_report
from levelwing.dynamics import make_airframe
from levelwing.errors import SimulatorError, SingularityError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_simulate_writes_csv_and_reports(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--config", "rectangle_compare.ini",
                 "--duration", "2", "--csv", str(out)])
    assert code == 0
    assert out.is_file()
    text = capsys.readouterr().out
    assert "scenario  : rectangle_compare" in text
    assert "controller: ratc" in text


def test_simulate_controller_and_slew_overrides(capsys):
    code = main(["simulate", "--config", "rectangle_compare.ini",
                 "--duration", "2", "--controller", "aotc", "--slew", "on"])
    assert code == 0
    assert "controller: aotc" in capsys.readouterr().out


def test_compare_writes_report_directory(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(["compare", "--config", "rectangle_compare.ini",
                 "--duration", "8", "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("aotc.csv", "ratc.csv", "summary.txt", "summary.csv"):
        assert (out_dir / name).is_file()
    assert "rms_450_ratc_over_aotc" in capsys.readouterr().out


def test_gains_prints_synthesized_plant(capsys):
    code = main(["gains", "--config", "rectangle_compare.ini"])
    assert code == 0
    text = capsys.readouterr().out
    assert "a_psi1" in text and "a_psi2" in text
    assert "ratc heading" in text
    assert "trim" in text
    # The three plants are the plant report's at the commanded airspeed.
    cfg = load_config("rectangle_compare.ini")
    plants = plant_report(make_airframe(cfg.params), cfg.va_cmd)
    printed = dict(re.findall(r"(a_\w+) ([-+]\d+\.\d+)", text))
    assert printed == {name: f"{value:+.4f}"
                       for name, value in plants._asdict().items()}


def test_trim_prints_solution_and_honors_airspeed(capsys):
    code = main(["trim", "--config", "rectangle_compare.ini",
                 "--airspeed", "22"])
    assert code == 0
    text = capsys.readouterr().out
    assert "Va = 22.00" in text
    assert "throttle" in text


def test_missing_config_exits_2(capsys):
    code = main(["simulate", "--config", "no_such_scenario.ini"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_trim_below_stall_floor_exits_2(capsys):
    code = main(["trim", "--config", "rectangle_compare.ini",
                 "--airspeed", "5"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def bundled_rectangle_text():
    return resolve_input_path("rectangle_compare.ini",
                              "scenarios").read_text(encoding="utf-8")


@pytest.mark.parametrize("args, ini_key, ini_value", [
    (["simulate", "--duration", "nan"], None, None),
    (["simulate", "--duration", "inf"], None, None),
    (["simulate", "--seed", "-3"], None, None),
    (["simulate"], "seed", "-1"),
    (["simulate"], "duration_s", "nan"),
    (["simulate"], "dt_s", "inf"),
    (["simulate"], "warmup_s", "nan"),
    (["trim", "--airspeed", "nan"], None, None),
    (["simulate", "--duration", "1e300"], None, None),
    (["simulate", "--duration", "1e308"], None, None),
    (["simulate"], "duration_s", "1e300"),
])
def test_bad_numbers_exit_2(tmp_path, capsys, args, ini_key, ini_value):
    config = "rectangle_compare.ini"
    if ini_key is not None:
        text, count = re.subn(rf"^{ini_key} = .*$", f"{ini_key} = {ini_value}",
                              bundled_rectangle_text(), flags=re.M)
        assert count == 1
        config = tmp_path / "bad.ini"
        config.write_text(text)
    code = main([args[0], "--config", str(config), *args[1:]])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("args, ini_key, ini_value", [
    (["trim", "--airspeed", "1e160"], None, None),
    (["simulate"], "airspeed_mps", "1e160"),
])
def test_trim_airspeed_whose_square_overflows_exits_3(
        tmp_path, capsys, args, ini_key, ini_value):
    config = "rectangle_compare.ini"
    if ini_key is not None:
        config = tmp_path / "fast.ini"
        config.write_text(re.sub(rf"^{ini_key} = .*$",
                                 f"{ini_key} = {ini_value}",
                                 bundled_rectangle_text(), flags=re.M))
    code = main([args[0], "--config", str(config), *args[1:]])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "error[trim]: trim at 1e+160 m/s overflows")


@pytest.mark.parametrize("command", ["trim", "simulate"])
def test_trim_past_the_pitch_margin_exits_3(tmp_path, capsys, command):
    # Strong lift at zero alpha and weak lift per radian: the trim's
    # Newton iterate diverges past the pitch limit, a trim failure and not
    # an in-flight fault.
    aircraft = resolve_input_path("aerosonde.ini",
                                  "aircraft").read_text(encoding="utf-8")
    for key, value in (("c_lift_0", "0.9"), ("c_lift_alpha", "0.3")):
        aircraft, count = re.subn(rf"^{key} = .*$", f"{key} = {value}",
                                  aircraft, flags=re.M)
        assert count == 1
    (tmp_path / "nose_up.ini").write_text(aircraft)
    config = tmp_path / "nose_up_rectangle.ini"
    config.write_text(re.sub(r"^aircraft = .*$", "aircraft = nose_up.ini",
                             bundled_rectangle_text(), flags=re.M))
    code = main([command, "--config", str(config)])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "error[trim]: trim at 20 m/s diverged: Newton iterate alpha")


def readme_exit_codes():
    """{category: exit code} from the README's exit-code table."""
    rows = re.findall(r"^\| (\d) \| (.*?) \|",
                      README.read_text(encoding="utf-8"), re.M)
    return {category: int(code) for code, categories in rows
            for category in re.findall(r"`(\w+)`", categories)}


def test_each_error_category_exits_with_the_readme_code(monkeypatch,
                                                         capsys):
    codes = readme_exit_codes()
    classes = [cls for _, cls in inspect.getmembers(levelwing.errors,
                                                     inspect.isclass)
               if issubclass(cls, SimulatorError)]
    assert len(classes) == 10
    for error in (*(cls("boom") for cls in classes), OSError("boom")):
        def handler(args, error=error):
            raise error

        monkeypatch.setitem(levelwing.cli._HANDLERS, "gains", handler)
        category = getattr(error, "category", "io")
        assert main(["gains", "--config", "any.ini"]) == codes[category]
        assert capsys.readouterr().err == f"error[{category}]: boom\n"


@pytest.mark.parametrize("old, new, named", [
    ("[environment]", "[enviroment]", "unknown section [enviroment]"),
    ("seed = 0\n", "seed = 0\nduration = 5\n",
     "unknown key 'duration' in [scenario]"),
    ("gust_tau_s = 2.0\n", "gust_tau_s = 2.0\n[controller]\nwn_psi = 6\n",
     "unknown key 'wn_psi' in [controller]"),
    ("[scenario]", "[DEFAULT]\ngust_intensity_mps = 1\n\n[scenario]",
     "unknown section [DEFAULT]"),
])
def test_misspelt_key_or_section_exits_2(tmp_path, capsys, old, new, named):
    # Each of these once ran without a word, in calm air or at defaults.
    text = bundled_rectangle_text()
    assert text.count(old) == 1
    config = tmp_path / "typo.ini"
    config.write_text(text.replace(old, new), encoding="utf-8")
    code = main(["simulate", "--config", str(config), "--duration", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]") and named in err


def test_a_scenario_that_names_a_law_exits_2(tmp_path, capsys):
    # The law is the run's argument (simulate --controller, both for
    # compare), so a file that still sets one is misspelt, whatever runs.
    config = tmp_path / "law.ini"
    config.write_text(set_key(bundled_rectangle_text(), "controller", "mode",
                              "aotc"), encoding="utf-8")
    for argv in (["simulate"], ["compare", "--out-dir", str(tmp_path)],
                 ["gains"], ["trim"]):
        assert main([*argv, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error[config]: {config}: unknown key 'mode' in [controller]\n")


@pytest.mark.parametrize("name", sorted(RETIRED_INPUTS))
def test_a_retired_input_exits_2_from_every_command(tmp_path, capsys, name):
    # Each only restated another input, so a file that still gives one
    # is misspelt, whatever the command.
    written, _, _, fault = RETIRED_INPUTS[name]
    files = with_retired_input(tmp_path, name)
    named = f"{files['scenario']}: "
    if written == "plan":
        named += f"{files['plan']}: "
    for argv in (["simulate"], ["compare", "--out-dir", str(tmp_path)],
                 ["gains"], ["trim"]):
        assert main([*argv, "--config", str(files["scenario"])]) == 2
        assert capsys.readouterr().err == f"error[config]: {named}{fault}\n"


def test_a_trim_with_a_non_finite_residual_exits_3(tmp_path, capsys):
    # The smallest mass makes 1/mass inf: numpy once warned on the
    # Jacobian of the first iterate before the line search stalled.
    config = rectangle_with(tmp_path, "aerosonde.ini", "mass_properties",
                            "mass_kg", "5e-324")
    for argv in (["simulate", "--duration", "1"], ["trim"]):
        assert main([*argv, "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[trim]: trim at 20 m/s has a non-finite "
                              "residual [inf, -inf, ")
        assert err.endswith("]\n")
        assert err.count("\n") == 1


def test_a_plan_leg_whose_length_overflows_exits_2(tmp_path, capsys):
    config = rectangle_with(tmp_path, "rectangle_compare.ini", "scenario",
                            "plan", "huge.ini")
    plan = tmp_path / "huge.ini"
    plan.write_text("[plan]\nfillet_radius_m = 10\n"
                    "[waypoints]\nwp01 = 0, 0\nwp02 = 1e308, 1e308\n")
    assert main(["simulate", "--config", str(config), "--duration", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error[config]: {config}: {plan}: plan 'huge': leg 0 (waypoint 0 "
        "to 1) is too long: its length overflows\n")


def test_an_orbit_smaller_than_the_smallest_distance_exits_2(tmp_path,
                                                             capsys):
    # Its first step would be at the center, where no bearing is defined.
    config = rectangle_with(tmp_path, "rectangle_compare.ini", "scenario",
                            "plan", "tiny.ini")
    plan = tmp_path / "tiny.ini"
    plan.write_text("[plan]\n[orbit]\ncenter_n_m = 0\ncenter_e_m = 0\n"
                    "radius_m = 1e-10\n")
    assert main(["simulate", "--config", str(config), "--duration", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error[config]: {config}: {plan}: OrbitPlan.radius must be >= "
        "1e-06, got 1e-10\n")


def test_a_config_name_is_looked_for_among_the_scenarios_only(
        tmp_path, monkeypatch, capsys):
    # rectangle.ini is a bundled plan, never read as a scenario.
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "rectangle.ini"]) == 2
    assert capsys.readouterr().err == (
        "error[config]: file not found: rectangle.ini among the scenarios "
        f"(looked for {tmp_path / 'rectangle.ini'} and "
        f"{DATA_DIR / 'scenarios' / 'rectangle.ini'})\n")


def test_compare_flies_the_bundled_files_from_any_directory(
        tmp_path, monkeypatch, capsys):
    # Files in the working directory under the names that
    # rectangle_compare.ini gives change nothing that compare prints.
    printed = []
    for directory in (tmp_path / "clean", tmp_path / "decoys"):
        directory.mkdir()
        monkeypatch.chdir(directory)
        if directory.name == "decoys":
            write_decoys(directory)
        assert main(["compare", "--config", "rectangle_compare.ini",
                     "--duration", "10", "--out-dir", "report"]) == 0
        printed.append(capsys.readouterr().out)
    assert "rms_450_ratc_over_aotc = " in printed[0]
    assert printed[1] == printed[0]


# Settings of 1e200, each in the file that sets it: the wind and gusts
# overflow the first step's air data, the rest a check or a gain design.
FLIGHT_CODES = {"simulate": 4, "compare": 4, "gains": 0, "trim": 0}
DESIGN_CODES = dict.fromkeys(FLIGHT_CODES, 2)
OVERFLOW_CASES = [
    *(("rectangle_compare.ini", "environment", key, FLIGHT_CODES, None)
      for key in ("wind_n_mps", "wind_d_mps", "gust_intensity_mps")),
    *(("rectangle_compare.ini", "controller", f"{name}_radps", DESIGN_CODES,
       f"ControllerSettings.{name}")
      for name in ("wn_psi", "wn_pitch", "wn_roll", "wn_alt")),
    ("aerosonde.ini", "mass_properties", "ixz_kgm2", DESIGN_CODES,
     "AircraftParams.ixz"),
]


@pytest.mark.parametrize("command", sorted(FLIGHT_CODES))
@pytest.mark.parametrize("file, section, key, codes, field", OVERFLOW_CASES,
                         ids=[case[2] for case in OVERFLOW_CASES])
def test_a_setting_of_1e200_exits_with_its_category(tmp_path, capfd, command,
                                                    file, section, key, codes,
                                                    field):
    config = rectangle_with(tmp_path, file, section, key, "1e200")
    argv = [command, "--config", str(config)]
    if command in ("simulate", "compare"):
        argv += ["--duration", "1"]
    if command == "compare":
        argv += ["--out-dir", str(tmp_path / "report")]
    assert main(argv) == codes[command]
    out, err = capfd.readouterr()
    assert multiprocessing.active_children() == []
    fault = ("dynamics: overflow in closed-loop step: (34, 'Numerical result "
             "out of range') at t = 0.00 s")
    if field is not None:
        named = "" if file != "aerosonde.ini" else f"{tmp_path / file}: "
        assert err == (f"error[config]: {config}: {named}{field} must have "
                       "a finite square, got 1e+200\n")
    elif command == "simulate":
        assert err == ""
        assert [line for line in out.splitlines()
                if line.startswith("fault")] == [f"fault     : {fault}"]
    elif command == "compare":
        assert err == ("error[dynamics]: comparison aborted: aotc run "
                       f"failed ({fault})\n")
    else:
        assert err == ""


def test_percent_in_a_value_is_literal(tmp_path, capsys):
    config = tmp_path / "pct.ini"
    config.write_text(bundled_rectangle_text().replace(
        "name = rectangle_compare", "name = survey 50%"), encoding="utf-8")
    code = main(["simulate", "--config", str(config), "--duration", "1"])
    assert code == 0
    assert "scenario  : survey 50%" in capsys.readouterr().out


def test_non_utf8_file_exits_2(tmp_path, capsys):
    config = tmp_path / "latin1.ini"
    config.write_bytes(bundled_rectangle_text().replace(
        "name = rectangle_compare", "name = caf\u00e9").encode("latin-1"))
    code = main(["simulate", "--config", str(config), "--duration", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[config]: cannot read")


@pytest.fixture
def pitch_fault(monkeypatch):
    """Make every integration step fail with a pitch singularity."""

    def faulty(state, *args):
        raise SingularityError("pitch 89.50 deg too close to +/-90 deg",
                               state=state)

    monkeypatch.setattr(levelwing.scenario, "integrate_step", faulty)


def test_in_flight_fault_exits_4_from_simulate(pitch_fault, capsys):
    code = main(["simulate", "--config", "rectangle_compare.ini",
                 "--duration", "1"])
    assert code == 4
    assert "fault     : dynamics: pitch" in capsys.readouterr().out


def test_in_flight_fault_exits_4_from_compare(pitch_fault, tmp_path,
                                              capsys):
    code = main(["compare", "--config", "rectangle_compare.ini",
                 "--duration", "1", "--out-dir", str(tmp_path / "report")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error[dynamics]: comparison aborted: aotc run")
    assert not (tmp_path / "report").exists()


@needs_fork
def test_aotc_trim_failure_exits_3_from_compare(aotc_trim_failure, tmp_path,
                                                capsys):
    code = main(["compare", "--config", "rectangle_compare.ini",
                 "--duration", "1", "--out-dir", str(tmp_path / "report")])
    assert code == 3
    assert capsys.readouterr().err == "error[trim]: trim did not converge\n"
    assert not (tmp_path / "report").exists()


def test_invalid_choice_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "rectangle_compare.ini",
              "--controller", "bogus"])
    assert exc.value.code == 2
