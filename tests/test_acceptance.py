"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the expected values come from
independent oracles (finite differences, scalar integrals, brute-force
enumeration, matrix exponentials) computed inside the tests and conftest.py.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import BETA3_CONFIG, Propagator, propagate, random_sensor_configs
from regobs import (
    Coefficients,
    Domain,
    ModeIndex,
    ModeSet,
    NotDetectableError,
    PointwiseSensor,
    assemble_exchange_model,
    design_gain,
    eigenvalue,
    estimator_matrices,
    fit_decay,
    group_modes_by_eigenvalue,
    nonstrategic_pointwise_predicate,
    observability_gramian,
    output_matrix,
    parse_config,
    reduced_output_map,
    run_experiment,
    simulate_reduced_order,
    split_unstable_stable,
    strategic_rank_test,
)
from regobs.cli import main
from test_spectral import fd_laplacian_residual

UNIT = Domain()
PI2 = math.pi**2


def report(num, description, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_eigenpairs():
    worst = max(
        fd_laplacian_residual(UNIT, (i, j)) for i in range(1, 5) for j in range(1, 5)
    )
    lam11 = eigenvalue(ModeIndex(1, 1), UNIT)
    ok = worst < 1e-3 and abs(lam11 + 2 * PI2) < 1e-12
    report(1, f"finite-difference eigenpair residual {worst:.2e} < 1e-3 and "
              f"lambda_11 = -2 pi^2 to 1e-12", ok)


def test_criterion_2_duhamel_semigroup():
    model = assemble_exchange_model(Coefficients(1.0, 0.1, 0.0), UNIT, ModeSet.square(2))
    x0 = np.zeros(8)
    x0[4:] = np.array([1.0, -2.0, 0.5, 3.0])
    lam = np.array([eigenvalue(m, UNIT) for m in model.mode_set])
    oracle = x0[4:] * np.exp(0.1 * lam)  # decoupled field-2 scalar exponentials
    # the closed-form path that every run takes, and the dense oracle
    dev_scalar = max(np.abs(states[-1, 4:] - oracle).max()
                     for states in (model.mode_pairs.samples(x0, 0.01, 100), propagate(model, x0, dt=0.01, steps=100)))

    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    v = rng.standard_normal(6)
    half = Propagator(m, 0.15)
    whole = Propagator(m, 0.30)
    dev_comp = np.abs(half.step(half.step(v)) - whole.step(v)).max()
    ok = dev_scalar < 1e-10 and dev_comp < 1e-10
    report(2, f"scalar-exponential deviation {dev_scalar:.2e} and composition "
              f"deviation {dev_comp:.2e} both < 1e-10", ok)


def test_criterion_3_strategic_rank_condition():
    modes = ModeSet.square(2)
    model = assemble_exchange_model(Coefficients(1.0, 0.1, 1.0), UNIT, modes)
    groups = group_modes_by_eigenvalue(model)
    center = strategic_rank_test(output_matrix([PointwiseSensor((0.5, 0.5))], UNIT, modes), groups)
    ok_center = (not center.strategic) and ModeIndex(2, 1) in center.offending_modes()

    pair = [PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))]
    ok_pair = strategic_rank_test(output_matrix(pair, UNIT, modes), groups).strategic

    model3 = assemble_exchange_model(Coefficients(1.0, 0.1, 1.0), UNIT, ModeSet.square(3))
    groups3 = group_modes_by_eigenvalue(model3)
    agree = True
    for sensors in random_sensor_configs(seed=0, n_configs=50):
        c = output_matrix(sensors, UNIT, model3.mode_set)
        verdict = strategic_rank_test(c, groups3).strategic
        w = observability_gramian(model3.a22, c, 2.0)
        agree = agree and (verdict == (np.linalg.eigvalsh(w)[0] >= 1e-8))
    ok = ok_center and ok_pair and agree
    report(3, "center sensor NotStrategic with (2,1) offending; sensor pair "
              "Strategic at N=2; Gramian singularity matches the verdict on "
              "50 randomized configurations at N=3 (tol 1e-8)", ok)


def test_criterion_4_position_predicates():
    modes = ModeSet.square(4)
    model = assemble_exchange_model(Coefficients(1.0, 0.1, 6.0), UNIT, modes)
    unstable = [g for g in group_modes_by_eigenvalue(model) if g.value >= 0.0]
    sets_match = True
    unstable_hits_covered = True
    for a in range(1, 10):
        for b in range(1, 10):
            loc = (a / 10, b / 10)
            pred = nonstrategic_pointwise_predicate(PointwiseSensor(loc), UNIT, modes)
            brute = tuple(
                m for m in modes
                if abs(math.sin(m.i * math.pi * loc[0])) < 1e-9
                or abs(math.sin(m.j * math.pi * loc[1])) < 1e-9
            )
            sets_match = sets_match and pred.modes == brute
            hit = [k for k, g in enumerate(unstable) if set(pred.modes) & set(g.modes)]
            if hit:
                rank = strategic_rank_test(
                    output_matrix([PointwiseSensor(loc)], UNIT, modes), unstable
                )
                unstable_hits_covered = unstable_hits_covered and not rank.strategic
                unstable_hits_covered = unstable_hits_covered and all(k in rank.offending for k in hit)
    ok = sets_match and unstable_hits_covered
    report(4, "9x9 lattice predicate set equals the brute-force eigenfunction "
              "zero set at N=4, and every unstable-mode trigger is NotStrategic "
              "by the rank test", ok)


def _beta3_pipeline():
    cfg = parse_config(BETA3_CONFIG)
    modes = ModeSet.square(cfg.simulation.n_modes)
    model = assemble_exchange_model(cfg.coefficients, cfg.domain, modes)
    c = output_matrix(cfg.sensors, cfg.domain, modes)
    split = split_unstable_stable(model.a22, cfg.observer.margin)
    gain = design_gain(reduced_output_map(model, c), split, cfg.observer.target_margin, sensor_matrix=c)
    rng = np.random.default_rng(cfg.simulation.x0_seed)
    x0 = rng.standard_normal(2 * len(modes))
    phi0 = -gain.H @ (c @ x0[: len(modes)])
    return cfg, model, c, gain, x0, phi0


def test_criterion_5_reduced_error_dynamics():
    cfg, model, c, gain, x0, phi0 = _beta3_pipeline()
    traj = simulate_reduced_order(model, cfg.sensors, gain, x0, phi0,
                                  cfg.simulation.dt, cfg.simulation.t_final)
    f_red, _ = estimator_matrices(model, gain)
    e = traj.x2_hat - traj.x2
    worst = 0.0
    for k, t in enumerate(traj.times):
        oracle = expm(f_red * t) @ e[0]
        worst = max(worst, float(np.abs(e[k] - oracle).max()))
    ok = worst < 1e-8
    report(5, f"simulated reduced error matches expm(F_red t) e(0) at every "
              f"sample, max deviation {worst:.2e} < 1e-8", ok)


def test_criterion_6_exponential_convergence():
    cfg = parse_config(BETA3_CONFIG)
    run_report, trajs = run_experiment(cfg)
    summary = run_report.estimators["reduced"]
    slowest = min(abs(v) for v in summary.closed_loop_eigs)
    fit = summary.decay_fit
    ratio = summary.err_last / summary.err_first
    ok = (
        not summary.not_detectable
        and abs(fit.alpha_fit - slowest) <= 0.1 * slowest
        and ratio < 1e-3
    )
    report(6, f"fitted rate {fit.alpha_fit:.4f} within 10% of slowest "
              f"closed-loop eigenvalue {slowest:.4f}; err(5)/err(0) = "
              f"{ratio:.2e} < 1e-3", ok)


def test_criterion_7_non_detectability_detected():
    cfg = parse_config(
        "coefficients.beta_couple = 6.0\n"
        "sensor.1.kind = pointwise\nsensor.1.location = 0.5, 0.43\n"
        "simulation.T = 3.0\n"
    )
    modes = ModeSet.square(cfg.simulation.n_modes)
    model = assemble_exchange_model(cfg.coefficients, cfg.domain, modes)
    c = output_matrix(cfg.sensors, cfg.domain, modes)
    split = split_unstable_stable(model.a22, 0.0)
    try:
        design_gain(reduced_output_map(model, c), split, 1.0)
        raised = False
    except NotDetectableError:
        raised = True

    run_report, trajs = run_experiment(cfg)
    traj = trajs["reduced"]
    col = modes.position(ModeIndex(2, 1))
    fit = fit_decay(traj.times, traj.mode_abs_err[:, col], window=(0.0, 3.0))
    rate = 6 - 0.5 * PI2
    growth = -fit.alpha_fit
    ok = raised and run_report.not_detectable and abs(growth - rate) / rate < 0.05
    report(7, f"blind sensor raises NotDetectable and the open-loop (2,1) "
              f"error grows at {growth:.4f} vs {rate:.4f} (within 5%)", ok)


def test_criterion_8_reference_coefficient_stability():
    cfg = parse_config(
        "coefficients.gamma_diff = 0.1\ncoefficients.beta_couple = 1.0\n"
        "sensor.1.kind = pointwise\nsensor.1.location = 0.23, 0.31\n"
    )
    run_report, trajs = run_experiment(cfg)
    summary = run_report.estimators["reduced"]
    rate = abs(1 - 0.2 * PI2)
    fit = summary.decay_fit
    ok = (
        summary.j_unstable == 0
        and abs(fit.alpha_fit - rate) / rate < 0.05
    )
    report(8, f"gamma=0.1, beta=1 gives J=0 and zero-gain error decay "
              f"{fit.alpha_fit:.4f} within 5% of {rate:.4f}", ok)


def test_criterion_9_reproducibility(tmp_path):
    cfg_path = tmp_path / "beta3.cfg"
    cfg_path.write_text(BETA3_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("trajectory.csv", "summary.txt")
    )
    report(9, "two `run` invocations produce byte-identical trajectory.csv "
              "and summary.txt", same)
