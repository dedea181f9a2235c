import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qdiscord.cli import (_OPTIONS, CSV_COLUMNS, MAX_SWEEP_ROWS, _fmt,
                          _sweep_params, build_parser, main)
from qdiscord.correlations import (CorrelationReport, OptimizerStats,
                                   quantum_discord)
from qdiscord.measurement import (VonNeumannMeasurement,
                                  conditional_entropy_fn)
from qdiscord.optimizer import grid_oracle
from qdiscord.states import DensityMatrix, load_state, save_state, werner


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    save_state(werner(0.5), path)
    return str(path)


def test_compute_exit_ok_and_output(werner_file, capsys):
    code = main(["compute", "--state", werner_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "mutual information" in out
    assert "quantum discord" in out
    assert "0.2624831838" in out


def test_compute_writes_json_report(werner_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["compute", "--state", werner_file, "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["discord"] == pytest.approx(0.2624831838, abs=1e-8)
    assert data["optimizer_stats"]["used_bell_fast_path"] is False
    assert data["optimizer_stats"]["converged"] is True


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def test_compute_json_keys_are_the_report_fields(werner_file, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["compute", "--state", werner_file, "--oracle",
                 "--oracle-resolution", "24", "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert set(data) == _field_names(CorrelationReport)
    assert set(data["optimal_measurement"]) == \
        _field_names(VonNeumannMeasurement)
    assert set(data["optimizer_stats"]) == _field_names(OptimizerStats)


def test_csv_columns_are_report_fields():
    # A sweep row looks its columns up in one dict of both field sets.
    report, stats = (_field_names(CorrelationReport),
                     _field_names(OptimizerStats))
    assert not report & stats
    assert set(CSV_COLUMNS) - {"param"} <= report | stats


def test_oracle_minimum_is_one_value_in_json_and_csv(werner_file, tmp_path):
    json_path, csv_path = tmp_path / "report.json", tmp_path / "sweep.csv"
    assert main(["compute", "--state", werner_file, "--oracle",
                 "--oracle-resolution", "24", "--out", str(json_path)]) == 0
    value = json.loads(json_path.read_text())["optimizer_stats"][
        "oracle_min_conditional_entropy"]
    report = quantum_discord(load_state(werner_file), oracle_resolution=24)
    assert value == report.optimizer_stats.oracle_min_conditional_entropy
    assert main(["sweep", "--family", "werner", "--start", "0.5", "--end",
                 "0.5", "--step", "1", "--oracle", "--oracle-resolution",
                 "24", "--out", str(csv_path)]) == 0
    row = csv_path.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("oracle_min_conditional_entropy")] == \
        _fmt(value)


def test_compute_with_oracle_gap(werner_file, capsys):
    code = main(["compute", "--state", werner_file, "--oracle",
                 "--oracle-resolution", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle gap" in out


def test_compute_missing_file_exit_one(tmp_path, capsys):
    code = main(["compute", "--state", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_compute_rejects_invalid_state(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2],
                                "re": (np.eye(4) * 0.3).tolist(),
                                "im": np.zeros((4, 4)).tolist()}))
    code = main(["compute", "--state", str(path)])
    assert code == 1


def test_validate_good_and_bad(werner_file, tmp_path, capsys):
    assert main(["validate", "--state", werner_file]) == 0
    out = capsys.readouterr().out
    assert "trace defect" in out
    assert "valid at tol" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2, 2],
                               "re": np.diag([1.2, 0, 0, -0.2]).tolist(),
                               "im": np.zeros((4, 4)).tolist()}))
    assert main(["validate", "--state", str(bad)]) == 1


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", "--state", str(path)]) == 1
    assert "cannot parse" in capsys.readouterr().err


def test_oracle_command(werner_file, capsys):
    code = main(["oracle", "--state", werner_file,
                 "--oracle-resolution", "24"])
    out = capsys.readouterr().out
    assert code == 0
    assert "grid minimum conditional entropy 0.8112781245" in out


def test_pure_product_state_prints_no_negative_zero(tmp_path, capsys):
    # Every entropy of |00><00| is zero, and must print as +0.
    state, out_path = tmp_path / "pure.json", tmp_path / "report.json"
    save_state(DensityMatrix((2, 2), np.diag([1.0, 0.0, 0.0, 0.0])), state)
    assert main(["compute", "--state", str(state), "--out",
                 str(out_path)]) == 0
    assert main(["oracle", "--state", str(state),
                 "--oracle-resolution", "24"]) == 0
    out = capsys.readouterr().out
    assert "marginal entropy S(rho_A)        0.0000000000 bits" in out
    assert "-0.0000000000" not in out
    data = json.loads(out_path.read_text())
    for key in ("mutual_information", "classical_correlation", "discord",
                "min_conditional_entropy"):
        assert math.copysign(1.0, data[key]) == 1.0, key


def test_sweep_csv_columns_and_values(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "werner", "--start", "0", "--end", "1",
                 "--step", "0.5", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    row = lines[2].split(",")
    assert float(row[0]) == pytest.approx(0.5)
    assert float(row[3]) == pytest.approx(0.2624831838, abs=1e-8)
    # 10 decimal places, fixed format.
    assert row[1].count(".") == 1 and len(row[1].split(".")[1]) == 10
    assert row[7] == "true"


def test_sweep_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(["sweep", "--family", "mixed_bell", "--start", "0.2",
                     "--end", "0.6", "--step", "0.2", "--seed", "11",
                     "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_with_oracle_column(tmp_path):
    out_path = tmp_path / "s.csv"
    assert main(["sweep", "--family", "werner", "--start", "0.5", "--end",
                 "0.5", "--step", "1", "--oracle", "--oracle-resolution",
                 "24", "--out", str(out_path)]) == 0
    row = out_path.read_text().strip().split("\n")[1].split(",")
    assert float(row[5]) == pytest.approx(float(row[4]), abs=1e-6)


def test_sweep_bell_diagonal_omega_expressions(tmp_path):
    out_path = tmp_path / "bd.csv"
    assert main(["sweep", "--family", "bell_diagonal", "--start", "0.2",
                 "--end", "0.4", "--step", "0.2",
                 "--omega=-a,-a,-a", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 3
    # -a,-a,-a is the Werner family.
    ref = tmp_path / "w.csv"
    assert main(["sweep", "--family", "werner", "--start", "0.2",
                 "--end", "0.4", "--step", "0.2", "--out", str(ref)]) == 0
    ref_lines = ref.read_text().strip().split("\n")
    for got, want in zip(lines[1:], ref_lines[1:]):
        # Iteration counts may differ; the reported quantities must not.
        assert got.split(",")[:6] == want.split(",")[:6]


def test_sweep_bell_diagonal_requires_omega(tmp_path, capsys):
    assert main(["sweep", "--family", "bell_diagonal", "--start", "0.1",
                 "--end", "0.2", "--step", "0.1",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_sweep_invalid_parameter_range(tmp_path, capsys):
    assert main(["sweep", "--family", "werner", "--start", "0.9", "--end",
                 "0.1", "--step", "0.1", "--out", str(tmp_path / "x.csv")]) == 1


def test_sweep_emits_plot_script(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    assert main(["sweep", "--family", "werner", "--start", "0.3", "--end",
                 "0.3", "--step", "1", "--plot-script",
                 "--out", str(out_path)]) == 0
    script = (tmp_path / "p.csv.gp").read_text()
    assert "p.csv" in script
    assert "plot" in script


def test_config_file_sets_defaults(werner_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"optimizer": {"method": "grid_then_polish", "restarts": 2}}))
    out_path = tmp_path / "r.json"
    assert main(["compute", "--state", werner_file, "--config", str(cfg_path),
                 "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["optimizer_stats"]["method"] == "grid_then_polish"
    assert data["optimizer_stats"]["restarts"] == 2


def test_flags_override_config_file(werner_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimizer": {"method": "nelder_mead"}}))
    out_path = tmp_path / "r.json"
    assert main(["compute", "--state", werner_file, "--config", str(cfg_path),
                 "--method", "grid_then_polish", "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["optimizer_stats"]["method"] == "grid_then_polish"


def test_config_env_var(werner_file, tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimizer": {"restarts": 3}}))
    monkeypatch.setenv("QDISCORD_CONFIG", str(cfg_path))
    out_path = tmp_path / "r.json"
    assert main(["compute", "--state", werner_file,
                 "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["optimizer_stats"]["restarts"] == 3


def test_config_rejects_unknown_keys(werner_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimizer": {"momentum": 0.9}}))
    assert main(["compute", "--state", werner_file,
                 "--config", str(cfg_path)]) == 1
    assert "unknown optimizer config keys" in capsys.readouterr().err


def _write_matrix(path, matrix):
    path.write_text(json.dumps({"dims": [2, 2],
                                "re": matrix.real.tolist(),
                                "im": matrix.imag.tolist()}))
    return str(path)


def test_validate_accepted_states_can_be_computed(tmp_path, capsys):
    # Both defects lie inside the default --tolerance-input of 1e-6 but
    # outside the entropy routines' own tolerances.
    eps = 1.7e-7
    shifted = werner(1.0).matrix.copy()
    shifted[0, 0] -= eps          # |00> is a null vector of the singlet
    shifted += eps * np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2
    skewed = werner(0.5).matrix.copy()
    skewed[0, 1] += 5e-7
    for name, matrix in (("negative.json", shifted), ("skewed.json", skewed)):
        path = _write_matrix(tmp_path / name, matrix)
        assert main(["validate", "--state", path]) == 0
        assert main(["compute", "--state", path]) == 0, \
            capsys.readouterr().err
    out = capsys.readouterr().out
    assert "min eigenvalue     -1.7" in out


def test_sweep_omega_rejects_code(tmp_path, capsys):
    escape = ("[c for c in ().__class__.__base__.__subclasses__() "
              "if c.__name__=='BuiltinImporter'][0]"
              ".load_module('os').getpid()*0")
    for expr in (escape, "__import__('os')", "a.real", "sin(x=a)", "2**10000"):
        assert main(["sweep", "--family", "bell_diagonal", "--start", "0.1",
                     "--end", "0.1", "--step", "0.1",
                     f"--omega={expr},0,0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "omega expression" in capsys.readouterr().err


def test_sweep_omega_math_functions(tmp_path, capsys):
    out_path = tmp_path / "cos.csv"
    assert main(["sweep", "--family", "bell_diagonal", "--start", "0",
                 "--end", "0.5", "--step", "0.5",
                 "--omega=0.5*cos(pi*a),-a,+a**2/2",
                 "--out", str(out_path)]) == 0
    rows = out_path.read_text().strip().split("\n")[1:]
    # a = 0 gives omega = (0.5, 0, 0), a classical-classical state.
    assert len(rows) == 2
    assert float(rows[0].split(",")[3]) == pytest.approx(0.0, abs=1e-9)


def test_validate_and_compute_reject_non_qubit_b(tmp_path, capsys):
    path = tmp_path / "mixed_2x3.json"
    path.write_text(json.dumps({"dims": [2, 3],
                                "re": (np.eye(6) / 6).tolist(),
                                "im": np.zeros((6, 6)).tolist()}))
    for command in ("validate", "compute"):
        assert main([command, "--state", str(path)]) == 1
        assert "2-dimensional subsystem B" in capsys.readouterr().err


GOLDEN_SWEEPS = {
    "werner": ["--family", "werner", "--start", "0", "--end", "1",
               "--step", "0.1"],
    "mixed_bell": ["--family", "mixed_bell", "--start", "0.05", "--end", "1",
                   "--step", "0.1"],
    "bell_diagonal": ["--family", "bell_diagonal", "--omega=-a,0.5*a,-0.3*a",
                      "--start", "0", "--end", "0.5", "--step", "0.1"],
}


@pytest.mark.parametrize("family", sorted(GOLDEN_SWEEPS))
def test_sweep_matches_golden_csv(family, tmp_path, capsys, monkeypatch):
    # tests/data pins the seeded sweeps byte for byte, the optimizer's
    # iteration counts included.
    monkeypatch.delenv("QDISCORD_CONFIG", raising=False)
    out_path = tmp_path / f"{family}.csv"
    assert main(["sweep", *GOLDEN_SWEEPS[family], "--out", str(out_path)]) == 0
    golden = Path(__file__).parent / "data" / f"sweep_{family}.csv"
    assert out_path.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("argv", [
    ["compute"],
    ["compute", "--state", "s.json", "--method", "gradient_descent"],
    ["validate", "--state", "s.json", "--restarts", "3"],
])
def test_usage_errors_exit_one(argv, capsys):
    # Exit status 2 means "optimizer did not converge", so a usage error
    # must not use argparse's default status 2.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    assert exc.value.code == 0
    assert "--state" in capsys.readouterr().out


def test_each_subcommand_takes_only_the_flags_it_reads():
    minimize = {"--method", "--tol", "--max-iter", "--restarts", "--seed",
                "--oracle", "--oracle-resolution", "--out", "--config"}
    expected = {
        "compute": minimize | {"--state", "--tolerance-input"},
        "sweep": minimize | {"--family", "--start", "--end", "--step",
                             "--omega", "--plot-script"},
        "oracle": {"--state", "--oracle-resolution", "--tolerance-input",
                   "--config"},
        "validate": {"--state", "--tolerance-input", "--config"},
    }
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(expected)
    for name, sub in subparsers.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == expected[name], name


def test_config_rejects_removed_optimizer_options(werner_file, tmp_path,
                                                  capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimizer": {"eta": 0.1}}))
    assert main(["compute", "--state", werner_file,
                 "--config", str(cfg_path)]) == 1
    assert "unknown optimizer config keys" in capsys.readouterr().err
    cfg_path.write_text(json.dumps(
        {"optimizer": {"method": "gradient_descent"}}))
    assert main(["compute", "--state", werner_file,
                 "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "nelder_mead" in err and "grid_then_polish" in err


def test_validate_and_oracle_ignore_optimizer_config(werner_file, tmp_path,
                                                     capsys):
    # Neither subcommand reads the optimizer, so a key it would reject
    # does not stop them; compute still rejects it (test above).
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"optimizer": {"eta": 0.1}}))
    assert main(["validate", "--state", werner_file,
                 "--config", str(cfg_path)]) == 0
    assert main(["oracle", "--state", werner_file, "--oracle-resolution",
                 "16", "--config", str(cfg_path)]) == 0


SUBCOMMAND_ARGS = {
    "compute": [], "oracle": [], "validate": [],
    "sweep": ["--family", "werner", "--start", "0.5", "--end", "0.5",
              "--step", "1", "--out", "sweep.csv"],
}


@pytest.mark.parametrize("config, named, exits", [
    # Each subcommand either rejects the value with an error line that
    # names the key (exit 1) or does not read the key (exit 0).
    ({"optimizer": 5}, "'optimizer'",
     {"compute": 1, "sweep": 1, "oracle": 0, "validate": 0}),
    ({"optimizer": {"tol": "abc"}}, "'optimizer.tol'",
     {"compute": 1, "validate": 0}),
    ([1], "must be a JSON object",
     {"compute": 1, "sweep": 1, "oracle": 1, "validate": 1}),
    ({"input_tolerance": None}, "'input_tolerance'",
     {"compute": 1, "sweep": 0, "oracle": 1, "validate": 1}),
    ({"emit_plot_script": "false"}, "'emit_plot_script'",
     {"sweep": 1, "compute": 0}),
    ({"oracle_resolution": "x"}, "'oracle_resolution'",
     {"validate": 0, "oracle": 1, "compute": 1}),
    ({"optimizer": {"max_iter": 2.5}}, "'optimizer.max_iter'",
     {"compute": 1, "sweep": 1}),
    ({"optimizer": {"seed": "x"}}, "'optimizer.seed'",
     {"compute": 1, "oracle": 0}),
    ({"optimizer": {"tol": True}}, "'optimizer.tol'", {"compute": 1}),
    ({"input_tolerance": -1}, "input tolerance",
     {"validate": 1, "compute": 1, "sweep": 0}),
])
def test_config_values_are_type_checked(config, named, exits, werner_file,
                                        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for command, code in exits.items():
        argv = [command, *SUBCOMMAND_ARGS[command], "--config", str(cfg_path)]
        if command != "sweep":
            argv += ["--state", werner_file]
        assert main(argv) == code, (command, capsys.readouterr().err)
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error:") and named in err, (command, err)
    assert not (tmp_path / "sweep.csv.gp").exists()


def test_config_booleans_and_output_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"emit_plot_script": True,
                                    "output_path": "from_file.csv"}))
    assert main(["sweep", "--family", "werner", "--start", "0.5", "--end",
                 "0.5", "--step", "1", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_file.csv").exists()
    assert (tmp_path / "from_file.csv.gp").exists()


def test_negative_input_tolerance_is_an_error(werner_file, capsys):
    for command in ("validate", "compute", "oracle"):
        assert main([command, "--state", werner_file,
                     "--tolerance-input", "-1"]) == 1
        assert "error: input tolerance must be positive" in \
            capsys.readouterr().err


def test_input_tolerance_of_one_or_more_is_an_error(tmp_path, capsys):
    # At a tolerance of 2 an all-zero matrix passed every check and had
    # no state to renormalize to.
    path = tmp_path / "zero.json"
    zero = np.zeros((4, 4)).tolist()
    path.write_text(json.dumps({"dims": [2, 2], "re": zero, "im": zero}))
    for command in ("validate", "compute", "oracle"):
        assert main([command, "--state", str(path),
                     "--tolerance-input", "2"]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: input tolerance must be positive") \
            and "below 1" in err, (command, err)


@pytest.mark.parametrize("argv", [["oracle"], ["compute", "--oracle"]])
def test_scan_above_the_memory_budget_is_an_error(argv, tmp_path, capsys):
    # A 64x2 state's res-200 scan, 20000 directions of the u < 0 half
    # grid, would need about 6.6 GB; it is refused before anything large
    # is allocated.
    path = tmp_path / "mixed64.json"
    path.write_text(json.dumps({"dims": [64, 2],
                                "re": (np.eye(128) / 128).tolist(),
                                "im": np.zeros((128, 128)).tolist()}))
    assert main(argv + ["--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a scan of 20000 directions on a 64x2 state")
    assert "1 GB scan memory budget" in err


def test_oracle_resolution_above_cap_is_an_error(werner_file, capsys):
    assert main(["oracle", "--state", werner_file,
                 "--oracle-resolution", "1001"]) == 1
    assert "error: oracle resolution must be from 8 to 1000" in \
        capsys.readouterr().err


@pytest.fixture
def no_search(monkeypatch):
    """Fails the test if any report starts its minimisation."""
    from qdiscord import optimizer

    def search(*args):
        raise AssertionError("the minimiser ran")

    monkeypatch.setattr(optimizer, "multi_start", search)
    monkeypatch.setattr(optimizer, "nelder_mead", search)


@pytest.mark.parametrize("argv, message", [
    (["compute", "--oracle", "--oracle-resolution", "1001"],
     "oracle resolution must be from 8 to 1000"),
    (["sweep", "--family", "werner", "--start", "0", "--end", "1",
      "--step", "0.5", "--oracle", "--oracle-resolution", "1001"],
     "oracle resolution must be from 8 to 1000"),
    (["sweep", "--family", "bell_diagonal", "--omega=-a,0.5*a,-0.3*a",
      "--start", "0", "--end", "1", "--step", "0.2"],
     "invalid state at parameter 0.6"),
])
def test_inputs_are_checked_before_the_search(argv, message, no_search,
                                              werner_file, tmp_path, capsys):
    out_path = tmp_path / "out"
    if argv[0] == "compute":
        argv = argv + ["--state", werner_file]
    assert main(argv + ["--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out_path.exists()


def test_invalid_bell_diagonal_message_prints_plain_floats(tmp_path, capsys):
    assert main(["sweep", "--family", "bell_diagonal",
                 "--omega=-a,0.5*a,-0.3*a", "--start", "0", "--end", "1",
                 "--step", "0.2", "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid state at parameter 0.6")
    assert ("omega (-0.6000000000000001, 0.30000000000000004, "
            "-0.18000000000000002) gives negative eigenvalue") in err


def test_non_finite_omega_is_refused_before_the_matrix(tmp_path, capsys):
    # 1e308*10 overflows to inf without raising.
    out_path = tmp_path / "s.csv"
    assert main(["sweep", "--family", "bell_diagonal",
                 "--omega=1e308*10,0,0", "--start", "0", "--end", "0",
                 "--step", "1", "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid state at parameter 0.0: "
                          "omega (inf, 0.0, 0.0) is not finite")
    assert not out_path.exists()


def test_sweep_oracle_column_is_the_grid_oracle(tmp_path):
    out_path = tmp_path / "s.csv"
    assert main(["sweep", "--family", "werner", "--start", "0", "--end", "1",
                 "--step", "0.25", "--oracle", "--oracle-resolution", "24",
                 "--out", str(out_path)]) == 0
    rows = [line.split(",") for line in out_path.read_text().split("\n")[1:-1]]
    assert len(rows) == 5
    for row in rows:
        oracle, _ = grid_oracle(conditional_entropy_fn(werner(float(row[0]))),
                                24)
        assert row[5] == f"{oracle:.10f}"


@pytest.mark.parametrize("argv", [
    ["compute", "--tol", "nan"],
    ["compute", "--tol", "inf"],
    ["sweep", "--tol", "nan"],
    ["compute", "--tolerance-input", "inf"],
    ["validate", "--tolerance-input", "nan"],
    ["oracle", "--tolerance-input", "inf"],
])
def test_tolerance_flags_must_be_finite(argv, werner_file, tmp_path, capsys,
                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv += SUBCOMMAND_ARGS[argv[0]]
    if argv[0] != "sweep":
        argv += ["--state", werner_file]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be positive and finite" in err


@pytest.mark.parametrize("config, commands", [
    ({"optimizer": {"tol": float("nan")}}, ("compute", "sweep")),
    ({"optimizer": {"tol": float("inf")}}, ("compute", "sweep")),
    ({"input_tolerance": float("inf")}, ("compute", "oracle", "validate")),
    ({"input_tolerance": float("nan")}, ("compute", "oracle", "validate")),
])
def test_config_tolerances_must_be_finite(config, commands, werner_file,
                                          tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert "NaN" in cfg_path.read_text() or "Infinity" in cfg_path.read_text()
    for command in commands:
        argv = [command, *SUBCOMMAND_ARGS[command], "--config", str(cfg_path)]
        if command != "sweep":
            argv += ["--state", werner_file]
        assert main(argv) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be positive and finite" \
            in err, (command, err)
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("start, end, step, message", [
    ("0", "1", "nan", "finite"),
    ("0", "inf", "1", "finite"),
    ("-inf", "1", "1", "finite"),
    ("0", "1", "1e-9", "at most 10000 rows"),
    ("0", "1e300", "1e-300", "at most 10000 rows"),
    ("-1e308", "1e308", "1", "at most 10000 rows"),
])
def test_sweep_grid_is_bounded(start, end, step, message, tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    assert main(["sweep", "--family", "werner", f"--start={start}",
                 f"--end={end}", f"--step={step}",
                 "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out_path.exists()


def test_sweep_of_exactly_the_row_cap_is_accepted():
    assert len(_sweep_params(0.0, 1.0, 1.0 / (MAX_SWEEP_ROWS - 1))) \
        == MAX_SWEEP_ROWS


def test_sweep_cap_counts_the_final_row_slack():
    # The end slack of 1e-12 lets a row at 1.0 into a sweep ending at
    # 1 - 5e-13, which makes MAX_SWEEP_ROWS + 1 rows.
    with pytest.raises(ValueError, match=f"at most {MAX_SWEEP_ROWS} rows"):
        _sweep_params(0.0, 1 - 5e-13, 1e-4)
    assert len(_sweep_params(0.0, 0.9999, 1e-4)) == MAX_SWEEP_ROWS


def _readme_section(start, end):
    text = (Path(__file__).parent.parent / "README.md").read_text()
    return text.split(start, 1)[1].split(end, 1)[0]


def test_readme_flag_table_matches_parser():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    rows = re.findall(r"^\| `(\w+)` \| (`--.*) \|$",
                      _readme_section("## CLI", "### Config file"), re.M)
    assert {name: set(re.findall(r"`(--[\w-]+)`", flags))
            for name, flags in rows} == {
        name: {s for a in sub._actions for s in a.option_strings}
        - {"-h", "--help"} for name, sub in subparsers.choices.items()}


def test_readme_config_keys_match_option_table():
    rows = re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)` \| .+ \| ([\w, ]+) \|$",
                      _readme_section("### Config file", "\n## "), re.M)
    assert sorted((key, flag, tuple(commands.split(", ")))
                  for key, flag, commands in rows) == sorted(
        (key, flag, commands) for flag, key, _, _, commands in _OPTIONS if key)


def _state_file_with(**fields):
    data = {"dims": [2, 2], "re": (np.eye(4) / 4).tolist(),
            "im": np.zeros((4, 4)).tolist()}
    data.update(fields)
    return json.dumps(data)


_NAN_RE = (np.eye(4) / 4).tolist()
_NAN_RE[0][1] = math.nan
_INF_IM = np.zeros((4, 4)).tolist()
_INF_IM[2][1] = math.inf
_STRING_RE = (np.eye(4) / 4).tolist()
_STRING_RE[0][0] = "0.25"
_BOOL_IM = np.zeros((4, 4)).tolist()
_BOOL_IM[3][3] = False
MALFORMED_STATE_FILES = {
    "dims float": (_state_file_with(dims=[2.7, 2]), "'dims'"),
    "dims bool": (_state_file_with(dims=[True, 2]), "'dims'"),
    "nan entry": (_state_file_with(re=_NAN_RE), "'re'"),
    "inf entry": (_state_file_with(im=_INF_IM), "'im'"),
    "string entry": (_state_file_with(re=_STRING_RE), "'re'"),
    "bool entry": (_state_file_with(im=_BOOL_IM), "'im'"),
}


@pytest.mark.parametrize("command", ["validate", "compute"])
@pytest.mark.parametrize("case", sorted(MALFORMED_STATE_FILES))
def test_state_file_fields_are_checked(case, command, tmp_path, capsys):
    text, field = MALFORMED_STATE_FILES[case]
    path = tmp_path / "state.json"
    path.write_text(text)
    assert main([command, "--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: malformed state file: ", err)
    assert field in err
