"""Command-line interface: subcommands, outputs, and exit codes."""

import re

import pytest

import levelwing.scenario
from conftest import needs_fork
from levelwing.cli import main
from levelwing.config import resolve_input_path
from levelwing.errors import SingularityError


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
                              kind="scenarios").read_text(encoding="utf-8")


@pytest.mark.parametrize("args, ini_key, ini_value", [
    (["simulate", "--duration", "nan"], None, None),
    (["simulate", "--duration", "inf"], None, None),
    (["simulate", "--seed", "-3"], None, None),
    (["simulate"], "seed", "-1"),
    (["simulate"], "duration_s", "nan"),
    (["simulate"], "dt_s", "inf"),
    (["simulate"], "h_ref_m", "nan, 450"),
    (["trim", "--airspeed", "nan"], None, None),
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


@pytest.mark.parametrize("old, new, named", [
    ("[environment]", "[enviroment]", "unknown section [enviroment]"),
    ("seed = 0\n", "seed = 0\nduration = 5\n",
     "unknown key 'duration' in [scenario]"),
    ("mode = ratc\n", "mode = ratc\nwn_psi = 6\n",
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
