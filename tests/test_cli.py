import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BETA3_CONFIG, BETA6_BLIND_CONFIG, FIVE_SENSORS_CONFIG, STABLE_CONFIG, python_env
from regobs import __version__, cli
from regobs.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_config_exit_one(self, tmp_path, capsys, kind):
        config = tmp_path / "config"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(BETA3_CONFIG.encode() + b"# \xff\n")
        out = tmp_path / "out"
        for command in (["run", "--out", str(out)], ["rank"], ["sweep", "--grid", "3", "--out", str(out)]):
            assert main([command[0], "--config", str(config), *command[1:]]) == 1, command
            assert capsys.readouterr().err.startswith(f"error: config {str(config)!r} cannot be read as UTF-8 text")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config"]

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "3"]])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_through_a_file_exit_one_before_any_work(self, tmp_path, beta3_path, capsys, monkeypatch,
                                                         command, below):
        # --out names an existing file, or a path under one
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        monkeypatch.setattr(cli, "run_experiment", None)
        monkeypatch.setattr(cli, "placement_sweep", None)
        out = taken / below if below else taken
        assert main([command[0], "--config", beta3_path, *command[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: output directory {str(out)!r} cannot be made: "
                                           f"{str(taken)!r} is not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beta3.cfg", "taken"]
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "2"]])
    def test_empty_out_exit_one_before_any_work(self, tmp_path, capsys, command):
        # an explicit empty --out is rejected as an empty output.directory is,
        # not replaced by the config's output.directory
        config = tmp_path / "beta3.cfg"
        config.write_text(BETA3_CONFIG + f"output.directory = {tmp_path / 'default'}\n")
        assert main([command[0], "--config", str(config), *command[1:], "--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out must be a nonempty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beta3.cfg"]

    def test_write_failure_during_emission_exit_two(self, tmp_path, beta3_path, capsys, monkeypatch):
        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "emit_sweep", full_disk)
        assert main(["sweep", "--config", beta3_path, "--grid", "3", "--out", str(tmp_path / "out")]) == 2
        assert "runtime failure: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_validation_error_exit_one(self, tmp_path, capsys):
        # rejected while the config is read, by rank and run alike
        collar = (CONFIGS / "boundary_collar.cfg").read_text()
        rejected = {
            "simulation.dt = -1\n": "simulation.dt must be > 0",
            BETA3_CONFIG + "domain.beta1 = 0\n": "domain: domain requires beta1 > alpha1",
            collar.replace("from = 0.25", "from = -0.5").replace("to = 0.75", "to = 0.5"):
                "region: segment endpoints outside edge extent",
            BETA3_CONFIG.replace("x0_seed = 14", "x0_seed = -1"): "simulation.x0_seed must be >= 0",
            BETA3_CONFIG + "region.collar_radius = 0.3\n":
                "region.collar_radius is not a key of internal_rectangle regions",
            collar + "region.rect = 0.2, 0.8, 0.2, 0.8\n": "region.rect is not a key of boundary_segment regions",
            BETA3_CONFIG + "output.directory =\n": "output.directory must be a nonempty path",
        }
        bad, out = tmp_path / "bad.cfg", tmp_path / "out"
        for text, message in rejected.items():
            bad.write_text(text)
            for command in (["rank"], ["run", "--out", str(out)]):
                assert main([command[0], "--config", str(bad), *command[1:]]) == 1, (command, text)
                assert f"error: {message}" in capsys.readouterr().err
                assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (BETA3_CONFIG + "output.plot = maybe\n", "output.plot must be true or false, got 'maybe'"),
        (BETA3_CONFIG + "simulation.n_modes = 2.5\n", "simulation.n_modes must be an integer, got '2.5'"),
        (BETA3_CONFIG.replace("0.23, 0.31", "0.23; 0.31"),
         "sensor.1.location must be a comma-separated list of numbers"),
        (BETA3_CONFIG.replace("0.23, 0.31", "0.23, inf"), "sensor.1.location must contain finite numbers only"),
        (BETA3_CONFIG.replace("region.kind = internal_rectangle\nregion.rect = 0.2, 0.8, 0.2, 0.8\n",
                              "region.kind = boundary_segment\nregion.edge = bottom\nregion.from = 0.25\n"),
         "region.from and region.to are required for boundary_segment regions"),
        (BETA3_CONFIG.replace("sensor.1.location = 0.23, 0.31\n", ""),
         "sensor.1.location is required for pointwise sensors"),
        (BETA3_CONFIG.replace("sensor.1.kind = pointwise\nsensor.1.location = 0.23, 0.31\n", "sensor.1.kind = zone\n"),
         "sensor.1.rect is required for zone sensors"),
    ], ids=["bool", "integer", "list", "finite_list", "segment_ends", "pointwise_location", "zone_rect"])
    def test_config_value_error_exit_one(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_non_finite_number_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "nan.cfg"
        bad.write_text(BETA3_CONFIG.replace("beta_couple = 3.0", "beta_couple = nan"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "coefficients.beta_couple must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("gamma_diff = 0.1", "gamma_diff = 1e307"),
                                          ("beta_couple = 1.0", "beta_couple = 1e308")])
    def test_overflowing_coefficients_exit_one(self, tmp_path, capsys, old, new):
        # finite coefficients whose model overflows: gamma lambda_max (or a
        # pair rate, beta + beta) is -inf.  Every subcommand rejects them while
        # it reads the config, where run and sweep used to end with exit 2 and
        # rank to print -inf groups with exit 0
        cfg, out = tmp_path / "over.cfg", tmp_path / "out"
        cfg.write_text((CONFIGS / "exchange_stable.cfg").read_text().replace(old, new))
        for command in (["run", "--out", str(out)], ["rank"], ["sweep", "--grid", "3", "--out", str(out)]):
            assert main([command[0], "--config", str(cfg), *command[1:]]) == 1, command
            captured = capsys.readouterr()
            assert "error: coefficients: the model's diagonals or mode-pair rates overflow" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_horizon_not_whole_steps_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "steps.cfg"
        bad.write_text(BETA3_CONFIG + "simulation.dt = 0.4\nsimulation.T = 1.0\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "whole number of simulation.dt steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_too_large_for_memory_exit_one(self, tmp_path, capsys):
        # 5e15 steps pass the step bound, but their samples (284 PiB) cannot be
        # allocated: numpy refuses at once, and that is a validation error
        huge = tmp_path / "huge.cfg"
        huge.write_text((CONFIGS / "exchange_stable.cfg").read_text()
                        + "simulation.dt = 1e-15\nsimulation.n_modes = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(huge), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(key in err for key in ("simulation.T", "simulation.dt", "simulation.n_modes"))
        assert not out.exists()

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

    def test_diverging_run_prints_divergence_line(self, tmp_path, capsys):
        # beta = 6 and a sensor on the x = 1/2 nodal line: the unobserved
        # unstable mode (2, 1) carries the open-loop error past MAX_STATE_NORM
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(BETA6_BLIND_CONFIG.replace("simulation.T = 3.0", "simulation.T = 9.0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "divergence: state norm exceeded 1e+12 at t index 714; "
            "run truncated (non-detectable dynamics diverge)")

    def test_diverging_plant_of_detectable_run_is_not_truncated(self, tmp_path, capsys):
        # the plant diverges, but a run reports the error, which decays at
        # the placed rate over the whole horizon
        cfg = tmp_path / "plant.cfg"
        cfg.write_text(FIVE_SENSORS_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "not_detectable=false" in printed and "divergence" not in printed
        summary = (out / "summary.txt").read_text()
        assert "divergence" not in summary and "window = [1.0, 5.0]" in summary
        alpha = float(summary.split("decay fit: alpha = ")[1].split(",")[0])
        target = float(summary.split("observer.target_margin = ")[1].split()[0])
        assert abs(alpha - target) <= 0.1 * target

    def test_all_floored_fit_window_writes_no_fit(self, tmp_path, capsys):
        # started at the truth, the reduced estimator's error is exactly 0:
        # every sample of the fit window is floored, so there is no decay to
        # fit, no fit line and no plot
        cfg = tmp_path / "truth.cfg"
        cfg.write_text((CONFIGS / "exchange_detectable.cfg").read_text() + "simulation.estimator_init = truth\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "err_gamma initial = 0.0, final = 0.0" in summary
        assert "decay fit" not in summary
        assert sorted(p.name for p in out.iterdir()) == ["gain.csv", "summary.txt", "trajectory.csv"]

    def test_one_step_run_exits_zero(self, tmp_path, capsys):
        cfg = tmp_path / "one_step.cfg"
        cfg.write_text(BETA3_CONFIG + "simulation.dt = 0.5\nsimulation.T = 0.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "0.5"]

    def test_out_defaults_to_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "dir.cfg"
        cfg.write_text(BETA3_CONFIG + "output.directory = results\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["sweep", "--config", str(cfg), "--grid", "2"]) == 0
        assert "outputs: results: " in capsys.readouterr().out
        assert {"summary.txt", "sweep.csv"} <= {p.name for p in (tmp_path / "results").iterdir()}

    def test_explicit_out_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "dir.cfg"
        cfg.write_text(BETA3_CONFIG + "output.directory = results\n")
        assert main(["run", "--config", str(cfg), "--out", "mine"]) == 0
        assert main(["sweep", "--config", str(cfg), "--grid", "2", "--out", "mine"]) == 0
        assert (tmp_path / "mine" / "summary.txt").exists() and (tmp_path / "mine" / "sweep.csv").exists()
        assert not (tmp_path / "results").exists()


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
        # a 5 x 5 lattice on the 1 x 1.3 domain: a header and 25 positions
        cfg.write_text("coefficients.beta_couple = 3.0\nsimulation.n_modes = 4\nobserver.gramian_horizon = 2.0\n"
                       "domain.beta2 = 1.3\nsensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.4\n")
        assert main(["sweep", "--config", str(cfg), "--grid", "5", "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 26

    def test_sweep_rejects_zone_too_wide_to_move(self, tmp_path, capsys):
        # the support spans the whole first axis, so its centre cannot move
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("simulation.n_modes = 3\nsensor.1.kind = zone\nsensor.1.rect = 0.0, 1.0, 0.2, 0.4\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--grid", "3", "--out", str(out)]) == 1
        assert "zone sensor support too wide to sweep" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("horizon", [345.8, 400.0])
    def test_sweep_rejects_overflowing_gramian_horizon(self, tmp_path, capsys, horizon):
        # the unstable mode's e^{2 d T} overflows past T = 345.87; at 345.8 the
        # kernel is still finite but a sensor's (c'c) * K is not.  Either way
        # a typed error, exit 1 and no sweep.csv, never a column of nan
        cfg = tmp_path / "long.cfg"
        cfg.write_text((CONFIGS / "exchange_detectable.cfg").read_text() + f"observer.gramian_horizon = {horizon!r}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--grid", "3", "--out", str(out)]) == 1
        assert "observer.gramian_horizon" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("horizon", [345.5, 345.8])
    def test_sweep_rejects_overflowing_gramian_with_eigensolve(self, tmp_path, capsys, horizon):
        # two sensors and C of rank 3 at N = 2: q r = 6 >= n = 4, so the sweep
        # solves each position's Gramian; its kernel is finite here, but a
        # sensor's W_ii = sum_s c_si^2 K_ii is not
        text = ("coefficients.beta_couple = 3.0\nsimulation.n_modes = 2\n"
                "sensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.7\n"
                "sensor.2.kind = pointwise\nsensor.2.location = 0.41, 0.67\n")
        cfg, out = tmp_path / "two.cfg", tmp_path / "out"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--grid", "3", "--out", str(out)]) == 0
        assert 0.0 not in [float(row.split(",")[3]) for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        cfg.write_text(text + f"observer.gramian_horizon = {horizon!r}\n")
        out = tmp_path / "long"
        assert main(["sweep", "--config", str(cfg), "--grid", "3", "--out", str(out)]) == 1
        assert "observer.gramian_horizon" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_sweep_default_gramian_horizon_is_finite(self, tmp_path):
        out = tmp_path / "out"
        config = str(CONFIGS / "exchange_detectable.cfg")
        assert main(["sweep", "--config", config, "--grid", "3", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 9
        assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


class TestParserCache:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("simulation.n_modes = 3\nsensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.3\n")
        calls = (["sweep", "--config", str(cfg), "--grid", "3", "--out", str(tmp_path / "out")],
                 ["sweep", "--config", str(cfg)],
                 ["version"])
        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append((main(argv), capsys.readouterr()))
        assert [code for code, _ in alone] == [0, 1, 0]
        assert "error: the following arguments are required: --grid" in alone[1][1].err

        cli._build_parser.cache_clear()
        # the parser is built while stderr points elsewhere; the usage error
        # must still reach the stderr captured at its own call
        with contextlib.redirect_stderr(io.StringIO()) as elsewhere:
            assert (main(calls[0]), capsys.readouterr()) == alone[0]
        for argv, expected in zip(calls[1:], alone[1:]):
            assert (main(argv), capsys.readouterr()) == expected
        assert elsewhere.getvalue() == ""
        assert cli._build_parser.cache_info().misses == 1


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "regobs", "version"],
            capture_output=True, text=True, check=False, env=python_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_commands_load_scipy_linalg_only_for_exponentials(self, tmp_path):
        # A fresh process, because this one has scipy.linalg loaded already:
        # nothing up to a run with one unstable row (J = 1) needs a matrix
        # exponential; a run with J = 2 does.  Likewise the float formatter's
        # tables are built by the first run that writes a file, not by the
        # import.
        stable, detectable = str(CONFIGS / "exchange_stable.cfg"), str(CONFIGS / "exchange_detectable.cfg")
        # exchange_detectable with a stronger coupling on a taller domain has
        # two unstable modes
        two_rows = tmp_path / "two_rows.cfg"
        text = (CONFIGS / "exchange_detectable.cfg").read_text()
        assert "coefficients.beta_couple = 3.0\n" in text
        two_rows.write_text(text.replace("coefficients.beta_couple = 3.0\n", "coefficients.beta_couple = 4.0\n")
                            + "domain.beta2 = 1.3\n")
        commands = [
            ["version"],
            ["rank", "--config", stable],
            ["sweep", "--config", stable, "--grid", "3", "--out", str(tmp_path / "sweep")],
            ["run", "--config", stable, "--out", str(tmp_path / "stable")],
            ["run", "--config", detectable, "--out", str(tmp_path / "detectable")],
            ["run", "--config", str(two_rows), "--out", str(tmp_path / "two_rows")],
        ]
        script = (
            "import json, sys\n"
            "from regobs.cli import main\n"
            "from regobs.floattext import _tables\n"
            "built = [_tables.cache_info().currsize]\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append('scipy.linalg' in sys.modules)\n"
            "    built.append(_tables.cache_info().currsize)\n"
            "print(json.dumps([loaded, built]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, check=True, env=python_env())
        loaded, built = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == [False, False, False, False, False, True]
        assert built == [0, 0, 0, 0, 1, 1, 1]
        for name, j in (("detectable", 1), ("two_rows", 2)):
            summary = (tmp_path / name / "summary.txt").read_text()
            assert f"J (unstable modes) = {j}\n" in summary and "not_detectable = false\n" in summary

    def test_one_unstable_row_runs_leave_scipy_linalg_unloaded(self, tmp_path):
        # A fresh process: the shipped runs with one unstable row (J = 1)
        # propagate it in closed form and never load scipy.linalg.
        script = (
            "import sys\n"
            "from regobs.cli import main\n"
            "for k, path in enumerate(sys.argv[2:]):\n"
            "    assert main(['run', '--config', path, '--out', f'{sys.argv[1]}/{k}']) == 0, path\n"
            "    assert 'scipy.linalg' not in sys.modules, path\n"
        )
        configs = [str(CONFIGS / name) for name in ("exchange_detectable.cfg", "boundary_collar.cfg")]
        subprocess.run([sys.executable, "-c", script, str(tmp_path), *configs],
                       check=True, env=python_env(), timeout=120)
        for k in range(len(configs)):
            assert "J (unstable modes) = 1\n" in (tmp_path / str(k) / "summary.txt").read_text()
