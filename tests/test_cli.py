import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from qdiscord.cli import CSV_COLUMNS, build_parser, main
from qdiscord.states import save_state, werner


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
    # tests/data pins the seeded answers byte for byte; the iteration
    # count depends on the optimizer's path, not on the answer.
    monkeypatch.delenv("QDISCORD_CONFIG", raising=False)
    out_path = tmp_path / f"{family}.csv"
    assert main(["sweep", *GOLDEN_SWEEPS[family], "--out", str(out_path)]) == 0
    golden = Path(__file__).parent / "data" / f"sweep_{family}.csv"
    skip = CSV_COLUMNS.index("iterations")

    def rows(path):
        return [[f for i, f in enumerate(line.split(",")) if i != skip]
                for line in path.read_text().splitlines()]

    assert rows(out_path) == rows(golden)


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
