"""A config run and the public API give the same numbers, bit for bit.

run_experiment designs each estimator with design_estimator and simulates
it on the path simulate_reduced_order and simulate_full_order share.  Driven
by the same gain, the config's x0 and its initial estimate, the public
simulators must reproduce the run's error series err_gamma, the primary's
per-mode errors and its divergence index and message.
"""

import numpy as np
import pytest

from conftest import BETA3_CONFIG, BETA6_BLIND_CONFIG, FIVE_SENSORS_CONFIG
from regobs import (
    ModeSet,
    assemble_exchange_model,
    design_estimator,
    output_matrix,
    parse_config,
    run_experiment,
    simulate_full_order,
    simulate_reduced_order,
)
from regobs.harness import _initial_state, _norm_region

COLLAR = BETA3_CONFIG.replace("region.kind = internal_rectangle\nregion.rect = 0.2, 0.8, 0.2, 0.8\n", """\
region.kind = boundary_segment
region.edge = left
region.from = 0.2
region.to = 0.8
region.collar_radius = 0.1
""")
# The open-loop estimators leave the sensor's blind unstable mode to grow
# past the divergence bound.
DIVERGING = BETA6_BLIND_CONFIG.replace("simulation.T = 3.0", "simulation.T = 9.0\nsimulation.dt = 0.05") + \
    "observer.estimators = both\n"
SHORT = "simulation.n_modes = 5\nsimulation.T = 2.0\n"

CASES = {
    "reduced, rectangle": BETA3_CONFIG + SHORT + "observer.estimators = reduced\n",
    "full, collar, truth": COLLAR + SHORT + "observer.estimators = full\nsimulation.estimator_init = truth\n",
    "both, truth": BETA3_CONFIG + SHORT + "observer.estimators = both\nsimulation.estimator_init = truth\n",
    "both, measured field 2, sobolev": BETA3_CONFIG + SHORT + "observer.estimators = both\n"
                                       "observer.measured_field = 2\noutput.norm = sobolev_half\n",
    "both, measured field 2, collar, truth": COLLAR + SHORT + "observer.estimators = both\n"
                                             "observer.measured_field = 2\nsimulation.estimator_init = truth\n",
    "both, diverging": DIVERGING,
    "both, diverging, truth": DIVERGING + "simulation.estimator_init = truth\n",
    # the plant grows past the bound while both errors decay
    "both, plant diverges": FIVE_SENSORS_CONFIG + "observer.estimators = both\n",
}


def _bits(a):
    return a.shape, a.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_public_simulators(case):
    cfg = parse_config(CASES[case])
    _, trajectories = run_experiment(cfg)
    model = assemble_exchange_model(cfg.coefficients, cfg.domain, ModeSet.square(cfg.simulation.n_modes))
    n, mf, sim = model.n_modes, cfg.observer.measured_field, cfg.simulation
    c = output_matrix(cfg.sensors, cfg.domain, model.mode_set)
    x0 = _initial_state(cfg, n)
    meas, unmeas = (slice(0, n), slice(n, 2 * n)) if mf == 1 else (slice(n, 2 * n), slice(0, n))
    region = _norm_region(cfg)[0]
    primary = next(iter(trajectories))
    for kind, run in trajectories.items():
        gain, _ = design_estimator(kind, model, c, cfg.observer.margin, cfg.observer.target_margin,
                                   measured_field=mf)
        truth = x0[unmeas] if kind == "reduced" else x0
        xhat0 = truth if sim.estimator_init == "truth" else np.zeros_like(truth)
        common = dict(measured_field=mf, region=region, norm_weight=cfg.output.norm)
        if kind == "reduced":
            # phi0 = xhat0 - H y(0); the simulator adds H y(0) back
            h_y0 = gain.H @ (c @ x0[meas])
            api = simulate_reduced_order(model, cfg.sensors, gain, x0, xhat0 - h_y0, sim.dt, sim.t_final, **common)
        else:
            api = simulate_full_order(model, cfg.sensors, gain, x0, xhat0, sim.dt, sim.t_final, **common)
        assert (api.diverged, api.divergence_message) == (run.diverged, run.divergence_message)
        assert _bits(api.times) == _bits(run.times)
        if kind == "reduced" and sim.estimator_init == "truth" and h_y0.any():
            # (x_w - H y(0)) + H y(0) is x_w only to round-off: the run starts
            # with no error at all, the API with round-off of x_w
            assert not run.err_gamma.any() and not run.mode_abs_err.any()
            assert np.abs(api.err_gamma).max() <= 1e-14 * np.abs(x0).max()
            continue
        assert _bits(api.err_gamma) == _bits(run.err_gamma)
        if kind == primary:
            assert _bits(api.mode_abs_err) == _bits(run.mode_abs_err)
        else:
            assert run.mode_abs_err is None
