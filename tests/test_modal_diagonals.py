"""The modal model holds each diagonal block as a vector: no step from
assembly to the estimator maps allocates an n x n array, and every product
with a block taken as a broadcast of its vector equals the product with
that block of the dense matrix (conftest.stacked_a) bit for bit."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regobs import (
    Coefficients,
    Domain,
    ModeSet,
    ObserverGain,
    PointwiseSensor,
    assemble_exchange_model,
    estimator_matrices,
    output_matrix,
    reduced_output_map,
    split_unstable_stable,
)
from regobs.observer import _estimator_maps
from conftest import stacked_a

UNIT = Domain()


def test_model_and_estimator_maps_allocate_no_n_by_n_array():
    modes = ModeSet.square(32)
    n = len(modes)
    c = output_matrix([PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))], UNIT, modes)
    tracemalloc.start()
    try:
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 3.0), UNIT, modes)
        assert model.mode_pairs.n == n
        for mf in (1, 2):
            for kind in ("reduced", "full"):
                block, _, _ = _estimator_maps(kind, model, c, mf)
                split_unstable_stable(block)
            reduced_output_map(model, c, mf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n float array would take 8 n^2 bytes (8 MiB at n = 1024)
    assert peak < 8 * n * n


@settings(max_examples=100, deadline=None)
@given(beta=st.sampled_from([0.0, -0.0, -3.0]) | st.floats(-8.0, 8.0), alpha=st.floats(0.05, 2.0),
       gamma=st.floats(0.05, 2.0), n_side=st.integers(1, 4), mf=st.sampled_from([1, 2]),
       q=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(beta=0.0, alpha=1.0, gamma=0.1, n_side=2, mf=2, q=2, seed=0)
def test_vector_forms_equal_dense_forms(beta, alpha, gamma, n_side, mf, q, seed):
    rng = np.random.default_rng(seed)
    modes = ModeSet.square(n_side)
    n = len(modes)
    model = assemble_exchange_model(Coefficients(alpha, gamma, beta), UNIT, modes)
    c = rng.standard_normal((q, n))
    meas, unmeas = (slice(0, n), slice(n, 2 * n)) if mf == 1 else (slice(n, 2 * n), slice(0, n))
    a = stacked_a(model)
    a_mm, a_mw, a_wm, a_ww = a[meas, meas], a[meas, unmeas], a[unmeas, meas], a[unmeas, unmeas]
    assert np.array_equal(reduced_output_map(model, c, mf), c @ a_mw)

    gain = ObserverGain(H=rng.standard_normal((n, q)), split=split_unstable_stable(model.diagonals(mf)[2]),
                        target_margin=1.0, closed_loop_eigs=np.zeros(n), residual=0.0, sensor_matrix=c)
    hc = gain.H @ c
    f_red, g_y = estimator_matrices(model, gain, measured_field=mf)
    assert np.array_equal(f_red, a_ww - hc @ a_mw)
    assert np.array_equal(g_y, a_ww @ hc - hc @ a_mw @ hc - hc @ a_mm + a_wm)
