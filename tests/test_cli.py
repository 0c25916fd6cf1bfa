import subprocess
import sys

import pytest

from conftest import BETA3_CONFIG, STABLE_CONFIG, python_env
from regobs import __version__
from regobs.cli import main


@pytest.fixture
def beta3_path(tmp_path):
    path = tmp_path / "beta3.cfg"
    path.write_text(BETA3_CONFIG)
    return str(path)


class TestExitCodes:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert main(["run"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["rank", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_validation_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("simulation.dt = -1\n")
        assert main(["rank", "--config", str(bad)]) == 1
        assert "simulation.dt" in capsys.readouterr().err

    def test_non_finite_number_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "nan.cfg"
        bad.write_text(BETA3_CONFIG.replace("beta_couple = 3.0", "beta_couple = nan"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "coefficients.beta_couple must be finite" in capsys.readouterr().err

    def test_horizon_not_whole_steps_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "steps.cfg"
        bad.write_text(BETA3_CONFIG + "simulation.dt = 0.4\nsimulation.T = 1.0\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "whole number of simulation.dt steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_sensor_run_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        assert main(["run", "--config", str(empty), "--out", str(tmp_path / "out")]) == 1
        assert "observer requires" in capsys.readouterr().err


class TestRun:
    def test_run_writes_outputs(self, tmp_path, beta3_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", beta3_path, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.txt").exists()
        assert "not_detectable=false" in capsys.readouterr().out

    def test_not_detectable_run_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "blind.cfg"
        cfg.write_text(
            "coefficients.beta_couple = 6.0\n"
            "sensor.1.kind = pointwise\nsensor.1.location = 0.5, 0.43\n"
            "simulation.T = 3.0\noutput.fit_t_lo = 0.0\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "not_detectable=true" in capsys.readouterr().out

    def test_one_step_run_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "one_step.cfg"
        cfg.write_text(BETA3_CONFIG + "simulation.dt = 0.5\nsimulation.T = 0.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "0.5"]


class TestRank:
    def test_rank_prints_report(self, tmp_path, capsys):
        cfg = tmp_path / "stable.cfg"
        cfg.write_text(STABLE_CONFIG)
        assert main(["rank", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out and "groups" in out

    def test_rank_tolerates_zero_sensors(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("simulation.n_modes = 2\n")
        assert main(["rank", "--config", str(cfg)]) == 0
        assert "NotStrategic" in capsys.readouterr().out


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "simulation.n_modes = 3\n"
            "sensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.3\n"
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--grid", "3", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 10


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "regobs", "version"],
            capture_output=True, text=True, check=False, env=python_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__
