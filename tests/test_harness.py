import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import BETA3_CONFIG, reference_sweep_csv, reference_trajectory_csv
from regobs import ConfigError, parse_config, run_experiment
from regobs.harness import (
    _write_gain_csv,
    _write_trajectory_csv,
    emit_sweep,
    extract_config_echo,
    placement_sweep,
    render_summary,
)
from regobs.spectral import ModeSet

SWEEP_CONFIG = """\
coefficients.beta_couple = 1.0
simulation.n_modes = 4
sensor.1.kind = pointwise
sensor.1.location = 0.23, 0.31
"""

TWO_SENSOR_SWEEP = SWEEP_CONFIG + """\
sensor.2.kind = pointwise
sensor.2.location = 0.41, 0.67
"""


class TestRunExperiment:
    def test_detectable_run_report(self, beta3_config):
        report, trajs = run_experiment(beta3_config)
        summary = report.estimators["reduced"]
        assert not summary.not_detectable
        assert summary.j_unstable == 1
        assert report.decay_fit is not None
        assert report.decay_fit.alpha_fit >= 0.9 * beta3_config.observer.target_margin
        assert trajs["reduced"].err_gamma is not None

    def test_not_detectable_flagged_with_open_loop(self, beta6_blind_config):
        report, trajs = run_experiment(beta6_blind_config)
        summary = report.estimators["reduced"]
        assert summary.not_detectable
        assert trajs["reduced"].times.shape[0] > 1  # open-loop run recorded

    def test_zero_sensor_run_rejected(self):
        cfg = parse_config("")
        with pytest.raises(ConfigError, match="observer requires ≥ 1 sensor"):
            run_experiment(cfg)

    def test_both_estimators_run(self, beta3_config):
        cfg = parse_config(BETA3_CONFIG + "observer.estimators = both\n")
        report, trajs = run_experiment(cfg)
        assert set(trajs) == {"reduced", "full"}
        assert report.primary == "reduced"
        assert not report.estimators["full"].not_detectable

    def test_truth_initialization_gives_zero_error(self):
        cfg = parse_config(BETA3_CONFIG + "simulation.estimator_init = truth\n")
        report, trajs = run_experiment(cfg)
        assert trajs["reduced"].err_gamma.max() < 1e-9

    def test_boundary_region_uses_collar_proxy(self):
        text = BETA3_CONFIG.replace(
            "region.kind = internal_rectangle\nregion.rect = 0.2, 0.8, 0.2, 0.8\n",
            "region.kind = boundary_segment\nregion.edge = bottom\n"
            "region.from = 0.25\nregion.to = 0.75\nregion.collar_radius = 0.1\n",
        )
        cfg = parse_config(text)
        report, trajs = run_experiment(cfg)
        assert "collar" in report.region_note
        assert trajs["reduced"].err_gamma.max() > 0

    def test_diverged_run_reported_not_crashed(self):
        cfg = parse_config(
            "coefficients.beta_couple = 6.0\n"
            "sensor.1.kind = pointwise\nsensor.1.location = 0.5, 0.43\n"
            "simulation.T = 9.0\nsimulation.dt = 0.05\noutput.fit_t_lo = 0.0\n"
        )
        report, trajs = run_experiment(cfg)
        summary = report.estimators["reduced"]
        assert summary.not_detectable
        assert summary.diverged
        assert "truncated" in summary.divergence_message
        assert trajs["reduced"].times.shape[0] < int(round(9.0 / 0.05)) + 1

    def test_diverged_run_emits_files(self, tmp_path):
        cfg = parse_config(
            "coefficients.beta_couple = 6.0\n"
            "sensor.1.kind = pointwise\nsensor.1.location = 0.5, 0.43\n"
            "simulation.T = 9.0\nsimulation.dt = 0.05\noutput.fit_t_lo = 0.0\n"
        )
        report, trajs = run_experiment(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == trajs["reduced"].times.shape[0] + 1
        assert "divergence" in (tmp_path / "summary.txt").read_text()

    def test_measured_field_two_swaps_blocks(self):
        text = BETA3_CONFIG + "observer.measured_field = 2\n"
        cfg = parse_config(text)
        report, trajs = run_experiment(cfg)
        # A11 at beta=3 is entirely stable (alpha = 1), so J = 0
        assert report.estimators["reduced"].j_unstable == 0


class TestEmittedFiles(object):
    def test_trajectory_csv_shape(self, tmp_path, beta3_config):
        report, trajs = run_experiment(beta3_config, out_dir=str(tmp_path))
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        n_samples = trajs["reduced"].times.shape[0]
        assert len(lines) == n_samples + 1
        header = lines[0].split(",")
        assert header[:4] == ["t", "err_gamma", "err_full_order", "err_reduced_order"]
        assert header[4] == "e_1_1"
        assert header[-1] == "e_8_8"
        assert len(header) == 4 + 64
        first = lines[1].split(",")
        assert first[2] == ""  # full-order not run
        assert float(first[3]) == float(first[1])

    @pytest.mark.parametrize("estimators", ["reduced", "full", "both"])
    def test_trajectory_csv_matches_repr_reference(self, tmp_path, estimators):
        cfg = parse_config(BETA3_CONFIG + f"observer.estimators = {estimators}\n")
        report, trajs = run_experiment(cfg, out_dir=str(tmp_path))
        reference_trajectory_csv(tmp_path / "reference.csv", cfg, trajs[report.primary],
                                 trajs.get("full"), trajs.get("reduced"))
        assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_unequal_series_match_repr_reference(self, tmp_path):
        # Series truncated at different samples pad with empty cells; a
        # missing err_gamma and non-finite values are written as repr has them.
        cfg = parse_config(BETA3_CONFIG + "observer.estimators = both\n")
        _, trajs = run_experiment(cfg)
        # a run keeps the per-mode errors of its primary estimator only, so the
        # full estimator's come from a run where it is the primary
        _, full_only = run_experiment(parse_config(BETA3_CONFIG + "observer.estimators = full\n"))

        def truncated(traj, k, **changes):
            return dataclasses.replace(traj, times=traj.times[:k], err_gamma=traj.err_gamma[:k],
                                       mode_abs_err=traj.mode_abs_err[:k].copy(), **changes)

        reduced = truncated(trajs["reduced"], 7)
        full = truncated(full_only["full"], 300)
        full.mode_abs_err[5, :3] = [math.nan, math.inf, -0.0]
        cases = [(reduced, full, reduced), (full, full, reduced), (reduced, None, reduced),
                 (full, dataclasses.replace(full, err_gamma=None), reduced)]
        for k, (primary, full_traj, reduced_traj) in enumerate(cases):
            _write_trajectory_csv(tmp_path / f"{k}.csv", cfg, primary, full_traj, reduced_traj)
            reference_trajectory_csv(tmp_path / f"{k}.ref", cfg, primary, full_traj, reduced_traj)
            assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}.ref").read_bytes(), k

    def test_gain_csv_cells_are_repr(self, tmp_path, beta3_config):
        h = np.random.default_rng(5).standard_normal((64, 2)) * 10.0 ** np.arange(-160, 160, 2.5).reshape(64, 2)
        h[0] = [0.0, -0.0]
        _write_gain_csv(tmp_path / "gain.csv", beta3_config, "reduced", SimpleNamespace(H=h))
        expected = ["field,i,j,h_1,h_2"] + [f"2,{m.i},{m.j}," + ",".join(map(repr, row))
                                            for m, row in zip(ModeSet.square(8), h.tolist())]
        assert (tmp_path / "gain.csv").read_text().splitlines() == expected

    def test_gain_file_only_when_detectable(self, tmp_path, beta3_config, beta6_blind_config):
        report, _ = run_experiment(beta3_config, out_dir=str(tmp_path / "a"))
        assert "gain.csv" in report.manifest
        assert (tmp_path / "a" / "gain.csv").exists()
        report2, _ = run_experiment(beta6_blind_config, out_dir=str(tmp_path / "b"))
        assert "gain.csv" not in report2.manifest
        assert not (tmp_path / "b" / "gain.csv").exists()

    def test_manifest_lists_every_written_file(self, tmp_path, beta3_config):
        report, _ = run_experiment(beta3_config, out_dir=str(tmp_path))
        written = {p.name for p in tmp_path.iterdir()}
        assert written == set(report.manifest)

    def test_rerun_into_one_directory_leaves_only_its_files(self, tmp_path, beta6_blind_config):
        # a detectable run with a plot, then a NotDetectable run without one:
        # the second run's gain.csv and error_decay.svg would be stale
        first = parse_config(BETA3_CONFIG + "output.plot = true\n")
        report, _ = run_experiment(first, out_dir=str(tmp_path))
        assert {"gain.csv", "error_decay.svg"} <= set(report.manifest)
        (tmp_path / "notes.txt").write_text("kept\n")
        (tmp_path / "gain.csv.bak").write_text("kept\n")
        report, _ = run_experiment(beta6_blind_config, out_dir=str(tmp_path))
        assert report.manifest == ("trajectory.csv", "summary.txt")
        assert {p.name for p in tmp_path.iterdir()} == set(report.manifest) | {"notes.txt", "gain.csv.bak"}
        assert (tmp_path / "notes.txt").read_text() == (tmp_path / "gain.csv.bak").read_text() == "kept\n"
        assert "files: trajectory.csv, summary.txt\n" in (tmp_path / "summary.txt").read_text()

    def test_summary_echo_reparses_to_equal_config(self, tmp_path, beta3_config):
        run_experiment(beta3_config, out_dir=str(tmp_path))
        text = (tmp_path / "summary.txt").read_text()
        echo = extract_config_echo(text)
        assert parse_config(echo) == beta3_config

    def test_summary_names_norm_choice(self, tmp_path, beta3_config):
        run_experiment(beta3_config, out_dir=str(tmp_path))
        text = (tmp_path / "summary.txt").read_text()
        assert "error norm: l2" in text

    def test_reproducible_outputs(self, tmp_path, beta3_config):
        run_experiment(beta3_config, out_dir=str(tmp_path / "one"))
        run_experiment(beta3_config, out_dir=str(tmp_path / "two"))
        for name in ("trajectory.csv", "summary.txt", "gain.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_svg_has_exactly_two_polylines(self, tmp_path):
        cfg = parse_config(BETA3_CONFIG + "output.plot = true\n")
        report, _ = run_experiment(cfg, out_dir=str(tmp_path))
        assert "error_decay.svg" in report.manifest
        svg = (tmp_path / "error_decay.svg").read_text()
        assert svg.count("<polyline") == 2


class TestSweep:
    def test_grid_two_has_four_rows(self):
        cfg = parse_config(SWEEP_CONFIG)
        result = placement_sweep(cfg, 2)
        assert result.strategic.shape == result.min_gramian_eig.shape == (2, 2)
        assert [len(row) for row in result.triggered] == [2, 2]

    def test_nine_by_nine_predicate_positions(self):
        cfg = parse_config(SWEEP_CONFIG)
        result = placement_sweep(cfg, 9)
        assert result.strategic.shape == (9, 9)
        for a, b1 in enumerate(result.b1.tolist()):
            for b, b2 in enumerate(result.b2.tolist()):
                if math.isclose(b1, 0.5) or math.isclose(b2, 0.5):
                    assert not result.strategic[a, b]
                    assert result.triggered[a][b]
                    assert result.min_gramian_eig[a, b] < 1e-8

    def test_sweep_deterministic_csv(self, tmp_path):
        cfg = parse_config(SWEEP_CONFIG)
        emit_sweep(placement_sweep(cfg, 5), str(tmp_path / "a"))
        emit_sweep(placement_sweep(cfg, 5), str(tmp_path / "b"))
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("case", ["triggered", "clamped"])
    def test_sweep_csv_matches_repr_reference(self, tmp_path, case):
        # "triggered": positions on the nodal lines x = 1/2 and y = 1/2 flag
        # modes; "clamped": five sensors put every Gramian through eigvalsh,
        # and its negative round-off is written as 0.0
        if case == "triggered":
            text = SWEEP_CONFIG
        else:
            text = "coefficients.beta_couple = 8.0\nsimulation.n_modes = 4\nobserver.gramian_horizon = 6.0\n" + "".join(
                f"sensor.{k}.kind = pointwise\nsensor.{k}.location = {b1}, {b2}\n" for k, (b1, b2) in
                enumerate([(0.23, 0.31), (0.57, 0.43), (0.71, 0.19), (0.37, 0.83), (0.11, 0.62)], start=1))
        result = placement_sweep(parse_config(text), 9)
        if case == "triggered":
            assert len({t for row in result.triggered for t in row}) > 2
        else:
            assert (result.min_gramian_eig == 0.0).any()
            assert (result.min_gramian_eig > 0.0).any()
        emit_sweep(result, str(tmp_path))
        reference_sweep_csv(tmp_path / "reference.csv", result)
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_sweep_csv_format(self, tmp_path):
        cfg = parse_config(SWEEP_CONFIG)
        emit_sweep(placement_sweep(cfg, 3), str(tmp_path))
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "b1,b2,strategic,min_gramian_eig,triggered_modes"
        assert len(lines) == 10
        cells = lines[1].split(",")
        assert cells[2] in ("0", "1")
        float(cells[3])

    def test_strategic_positions_yield_detectable_runs(self):
        # spot-check sweep/run consistency on up to 10 strategic positions
        base = TWO_SENSOR_SWEEP.replace("coefficients.beta_couple = 1.0",
                                        "coefficients.beta_couple = 3.0")
        result = placement_sweep(parse_config(base), 5)
        strategic = [(float(result.b1[a]), float(result.b2[b])) for a, b in np.argwhere(result.strategic)][:10]
        assert strategic, "expected at least one strategic position"
        for b1, b2 in strategic:
            text = base.replace("sensor.1.location = 0.23, 0.31",
                                f"sensor.1.location = {b1!r}, {b2!r}")
            report, _ = run_experiment(parse_config(text))
            assert not report.not_detectable

    def test_sweep_requires_sensor(self):
        with pytest.raises(ConfigError, match="sweep requires"):
            placement_sweep(parse_config(""), 3)

    def test_grid_must_be_at_least_two(self):
        with pytest.raises(ConfigError, match="grid"):
            placement_sweep(parse_config(SWEEP_CONFIG), 1)

    def test_zone_center_sweep(self):
        text = (
            "coefficients.beta_couple = 1.0\nsimulation.n_modes = 3\n"
            "sensor.1.kind = zone\nsensor.1.rect = 0.2, 0.4, 0.3, 0.5\n"
        )
        cfg = parse_config(text)
        result = placement_sweep(cfg, 3)
        assert result.strategic.shape == (3, 3)
        # feasible centers stay a half-width away from the boundary
        for b in (result.b1, result.b2):
            assert ((0.1 <= b) & (b <= 0.9)).all()


class TestSummaryRendering:
    def test_summary_sections_present(self, beta3_config):
        report, _ = run_experiment(beta3_config)
        report.manifest = ("trajectory.csv", "summary.txt")
        text = render_summary(report, beta3_config)
        for token in ("regobs run summary", "verdict:", "estimator: reduced",
                      "closed-loop spectrum", "decay fit", "--- config ---"):
            assert token in text
