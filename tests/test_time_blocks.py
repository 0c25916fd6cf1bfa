"""Simulations made one block of samples at a time.

A run makes each estimator's error a block of rows at a time
(observer._TIME_BLOCK_CELLS) and reduces every block at once into the series it
reports.  Its results must not depend on the block size, and it must hold
only its blocks and those series: a run never builds a whole-horizon state
array.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BETA3_CONFIG, no_dense_propagator, python_env
from regobs import (
    Coefficients,
    Domain,
    InternalRectangle,
    ModeSet,
    ObserverGain,
    PointwiseSensor,
    Rect,
    assemble_exchange_model,
    build_collar,
    parse_config,
    run_experiment,
    simulate_full_order,
    simulate_reduced_order,
    split_unstable_stable,
)
from regobs import observer
from regobs.region import BoundarySegment
from regobs.spectral import _row_recursion, few_rows_blocks

ALL_ROWS = 1 << 40

# Two unstable modes of the reduced estimator: on the 1 x 1.3 domain the
# modes (1, 1) and (1, 2) of a22 = 0.1 lam + 3.5 grow and (2, 1) decays.
J2_CONFIG = """\
domain.beta2 = 1.3
coefficients.beta_couple = 3.5
sensor.1.kind = pointwise
sensor.1.location = 0.23, 0.31
sensor.2.kind = pointwise
sensor.2.location = 0.57, 0.43
observer.estimators = both
"""

# A sensor on the nodal line x = 1/2 misses the unstable (2, 1) mode: both
# open-loop estimators diverge.
DIVERGING_CONFIG = """\
coefficients.beta_couple = 6.0
sensor.1.kind = pointwise
sensor.1.location = 0.5, 0.43
simulation.T = 9.0
simulation.dt = 0.05
output.fit_t_lo = 0.0
observer.estimators = both
"""

COLLAR_REGION = """\
region.kind = boundary_segment
region.edge = bottom
region.from = 0.25
region.to = 0.75
region.collar_radius = 0.1
"""

RUN_CASES = {
    "J = 0": "coefficients.beta_couple = 1.0\nsensor.1.kind = pointwise\nsensor.1.location = 0.23, 0.31\n"
             "observer.estimators = both\n",
    "J = 1, collar": BETA3_CONFIG.replace("region.kind = internal_rectangle\nregion.rect = 0.2, 0.8, 0.2, 0.8\n",
                                          COLLAR_REGION) + "observer.estimators = both\n",
    "J = 2, sobolev_half": J2_CONFIG + "output.norm = sobolev_half\n",
    "measured_field = 2": BETA3_CONFIG + "observer.measured_field = 2\nobserver.estimators = both\n",
    "diverging": DIVERGING_CONFIG,
}


def _rows_per_block(monkeypatch, rows, n_modes):
    monkeypatch.setattr(observer, "_TIME_BLOCK_CELLS", rows * 2 * n_modes)


def _reported(trajs):
    """What a run reports of each estimator: its error series, its
    per-mode errors when kept, and where it stopped."""
    return {kind: (t.err_gamma.tobytes(), None if t.mode_abs_err is None else t.mode_abs_err.tobytes(),
                   t.times.shape[0], t.diverged, t.divergence_message) for kind, t in trajs.items()}


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_results_do_not_depend_on_block_size(case, monkeypatch):
    cfg = parse_config(RUN_CASES[case])
    n = cfg.simulation.n_modes ** 2
    _rows_per_block(monkeypatch, ALL_ROWS, n)
    report, trajs = run_experiment(cfg)
    reference = _reported(trajs)
    if case == "J = 0":
        assert {s.j_unstable for s in report.estimators.values()} == {0}
    if case.startswith("J = 2"):
        assert report.estimators["reduced"].j_unstable == 2
    budgets = [1, 7]
    if case == "diverging":
        # the first diverged sample k opens the second block of k rows, and
        # sits inside the first of k + 3
        k = trajs["reduced"].times.shape[0]
        assert trajs["reduced"].diverged and 7 < k < int(round(9.0 / 0.05))
        budgets += [k, k + 3]
    for rows in budgets:
        _rows_per_block(monkeypatch, rows, n)
        assert _reported(run_experiment(cfg)[1]) == reference, rows


@pytest.mark.parametrize("kind", ["reduced", "full"])
@pytest.mark.parametrize("region", ["rectangle", "collar"])
def test_dense_gain_simulation_does_not_depend_on_block_size(kind, region, monkeypatch):
    # a random gain acts on every row, so the error takes one exponential of
    # all of them; its drive-free recursion runs row by row across blocks
    rng = np.random.default_rng(11)
    domain = Domain()
    model = assemble_exchange_model(Coefficients(1.0, 0.1, 3.0), domain, ModeSet.square(3))
    n = model.n_modes
    sensors = [PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))]
    if region == "rectangle":
        target = InternalRectangle(Rect(0.2, 0.8, 0.2, 0.8))
    else:
        target = build_collar(BoundarySegment("bottom", 0.25, 0.75), 0.1, domain)
    x0 = rng.standard_normal(2 * n)
    if kind == "reduced":
        gain = ObserverGain(H=0.5 * rng.standard_normal((n, 2)), split=split_unstable_stable(model.a22),
                            target_margin=1.0, closed_loop_eigs=np.zeros(n), residual=0.0)
        simulate, start, rows = simulate_reduced_order, rng.standard_normal(n), n
    else:
        gain = ObserverGain(H=0.5 * rng.standard_normal((2 * n, 2)), split=split_unstable_stable(model.mode_pairs),
                            target_margin=1.0, closed_loop_eigs=np.zeros(2 * n), residual=0.0)
        simulate, start, rows = simulate_full_order, rng.standard_normal(2 * n), 2 * n
    results = []
    for block_rows in (ALL_ROWS, 1, 7):
        _rows_per_block(monkeypatch, block_rows, n)
        with no_dense_propagator(rows=rows):
            traj = simulate(model, sensors, gain, x0, start, 0.05, 3.0, region=target)
        results.append(_reported({kind: traj}))
    assert results[1] == results[0] and results[2] == results[0]


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
                            np.inf, -np.inf, 1e308, -1e308])
_VALUES = st.one_of(_SPECIAL, st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(s=_VALUES, z0=_VALUES, drive=st.lists(_VALUES, min_size=1, max_size=12))
@example(s=-1.0, z0=0.0, drive=[0.0, 0.0])  # s z = -0.0: the numpy product starts from +0.0
def test_one_row_recursion_on_floats_matches_numpy_steps(s, z0, drive):
    step, drive = np.array([[s]]), np.array(drive)[:, None]
    ref = np.empty(drive.shape)
    ref[0] = z0
    with np.errstate(all="ignore"):
        for k in range(drive.shape[0] - 1):
            ref[k + 1] = step @ ref[k] + drive[k]
        got = _row_recursion(step, np.array([z0]), drive)
    assert got.tobytes() == ref.tobytes()


def test_dense_guard_counts_matrix_exponentials():
    with pytest.raises(AssertionError, match="orders"):
        with no_dense_propagator():
            scipy.linalg.expm(np.eye(8))
    # F_RR = [[0.5, 0.3], [0, 1]] has the eigenvalue 0.5 of coordinate 2, whose
    # Gamma column needs a Van Loan block of order 4
    f_rows = np.array([[0.5, 0.3, -0.7, 0.2], [0.0, 1.0, 0.4, -0.6]])
    with no_dense_propagator(rows=2) as orders:
        next(few_rows_blocks(np.array([9.0, 7.0, 0.5, -40.0]), [0, 1], f_rows, np.array([1.0, -0.5, 0.25, 2.0]),
                             0.1, [(0, 21)]))
    assert sorted(set(orders)) == [2, 4]
    with no_dense_propagator() as orders:
        report, _ = run_experiment(parse_config(BETA3_CONFIG + "observer.estimators = both\n"))
    assert report.estimators["reduced"].j_unstable == 1 and orders == []


# N = 24 with both estimators over 500 steps, as the run_n24_both benchmark
# workload: whole-horizon arrays of the stacked state take 4.6 MB each.
N24_BOTH = BETA3_CONFIG + "simulation.n_modes = 24\nobserver.estimators = both\n"


def test_run_holds_only_its_blocks_and_series(tmp_path):
    cfg = parse_config(N24_BOTH)
    tracemalloc.start()
    try:
        run_experiment(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the primary's per-mode errors (2.3 MB), the trajectory.csv formatter's
    # block (2.6 MB) and the time blocks; whole-horizon arrays took 29 MiB
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# The child reports the peak resident set of its own address space, VmHWM.
# Its ru_maxrss would not do: Linux keeps the high-water mark of the address
# space that exec replaced, here a copy of this test process.
RSS_SCRIPT = """\
import sys
from regobs.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as fh:
    print(code, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_large_run_process_stays_small(tmp_path):
    # N = 64 is 4096 modes per field; with whole-horizon arrays the process
    # peaked near 200 MB
    cfg = tmp_path / "n64.cfg"
    cfg.write_text(BETA3_CONFIG + "simulation.n_modes = 64\n")
    out = subprocess.run([sys.executable, "-c", RSS_SCRIPT, str(cfg), str(tmp_path / "out")], env=python_env(),
                         capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()[-1].split()
    assert out[0] == "0"
    assert int(out[1]) / 1024 < 150, f"peak RSS {int(out[1]) / 1024:.0f} MB"
