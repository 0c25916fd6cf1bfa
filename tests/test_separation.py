"""Separation: a run reports the estimation error, which obeys e' = F e
whatever the plant does, so it never needs the plant.

The reduced estimator's error lives on the unmeasured field, and its
initial value xhat0 - x_w(0) does not read the measured field.  Scaling the
measured field's x0 far past the divergence bound must leave every output
of the run as it was, and no run may sample the plant at all.
"""

import os

import numpy as np

from conftest import BETA3_CONFIG
from regobs import parse_config, run_experiment
from regobs.harness import _initial_state
from regobs.observer import MAX_STATE_NORM
from regobs.spectral import ModePairs

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "exchange_detectable.cfg")


def _with_x0(text, x1, x2):
    return text + "".join(f"simulation.x0_field{k} = {', '.join(repr(float(v)) for v in x)}\n"
                          for k, x in ((1, x1), (2, x2)))


def _outputs(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_measured_field_scale_leaves_reduced_run_unchanged(tmp_path):
    with open(CONFIG) as f:
        base = f.read() + "observer.estimators = reduced\n"
    cfg = parse_config(base)
    n = cfg.simulation.n_modes ** 2
    x0 = _initial_state(cfg, n)
    x1, x2 = x0[:n], x0[n:]
    assert cfg.simulation.estimator_init == "zero" and cfg.observer.measured_field == 1
    assert 1e13 * np.abs(x1).max() > MAX_STATE_NORM
    runs = {}
    for name, scale in (("unscaled", 1.0), ("scaled", 1e13)):
        report, trajs = run_experiment(parse_config(_with_x0(base, scale * x1, x2)), str(tmp_path / name))
        assert not report.estimators["reduced"].diverged
        assert trajs["reduced"].times.shape[0] == 501
        runs[name] = _outputs(tmp_path / name)
    assert runs["scaled"].keys() == runs["unscaled"].keys()
    for name in runs["unscaled"]:
        if name != "summary.txt":
            assert runs["scaled"][name] == runs["unscaled"][name], name
    summaries = {k: [line for line in v["summary.txt"].decode().splitlines()
                     if "err_gamma" in line or "decay fit" in line] for k, v in runs.items()}
    assert len(summaries["unscaled"]) == 2 and summaries["scaled"] == summaries["unscaled"]


def test_run_samples_no_plant(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run sampled the plant")

    monkeypatch.setattr(ModePairs, "samples", refuse)
    report, trajs = run_experiment(parse_config(BETA3_CONFIG + "observer.estimators = both\n"), str(tmp_path))
    assert set(trajs) == {"reduced", "full"}
    assert all(t.x1 is None and t.y is None and t.estimator_state is None for t in trajs.values())
    assert "trajectory.csv" in report.manifest
