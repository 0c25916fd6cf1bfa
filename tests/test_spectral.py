import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from conftest import python_env
from regobs import (
    Coefficients,
    Domain,
    ModeIndex,
    ModeSet,
    Propagator,
    assemble_exchange_model,
    eigenfunction_eval,
    eigenvalue,
    eigenvalues,
    eval_matrix,
    propagate,
)
from regobs.spectral import EXP_ZERO_BELOW, exp_samples

UNIT = Domain()
PI2 = math.pi**2


def fd_laplacian_residual(domain, mode, grid_n=201):
    """Independent oracle: centered 5-point Laplacian applied to the grid
    samples of the eigenfunction, compared against lambda * phi."""
    xs = np.linspace(domain.alpha1, domain.beta1, grid_n)
    ys = np.linspace(domain.alpha2, domain.beta2, grid_n)
    h1 = xs[1] - xs[0]
    h2 = ys[1] - ys[0]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    phi = eval_matrix(domain, ModeSet((ModeIndex(*mode),)), pts)[:, 0].reshape(grid_n, grid_n)
    lap = (
        (phi[:-2, 1:-1] - 2 * phi[1:-1, 1:-1] + phi[2:, 1:-1]) / h1**2
        + (phi[1:-1, :-2] - 2 * phi[1:-1, 1:-1] + phi[1:-1, 2:]) / h2**2
    )
    lam = eigenvalue(ModeIndex(*mode), domain)
    resid = np.abs(lap - lam * phi[1:-1, 1:-1]).max()
    return resid / (abs(lam) * np.abs(phi).max())


class TestEigenvalue:
    def test_unit_square_values(self):
        assert eigenvalue(ModeIndex(1, 1), UNIT) == pytest.approx(-2 * PI2, abs=1e-12)
        assert eigenvalue(ModeIndex(1, 2), UNIT) == pytest.approx(-5 * PI2, abs=1e-12)

    def test_side_scaling(self):
        big = Domain(0.0, 2.0, 0.0, 2.0)
        assert eigenvalue(ModeIndex(1, 1), big) == pytest.approx(-PI2 / 2, abs=1e-12)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            eigenvalue(ModeIndex(0, 1), UNIT)

    def test_fd_laplacian_residual(self):
        for i in range(1, 5):
            for j in range(1, 5):
                assert fd_laplacian_residual(UNIT, (i, j)) < 1e-3

    def test_abs_eigenvalue_monotone_per_axis(self):
        for i in range(1, 9):
            vals = [abs(eigenvalue(ModeIndex(i, j), UNIT)) for j in range(1, 9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for j in range(1, 9):
            vals = [abs(eigenvalue(ModeIndex(i, j), UNIT)) for i in range(1, 9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEigenfunction:
    def test_center_values(self):
        assert eigenfunction_eval(ModeIndex(1, 1), UNIT, (0.5, 0.5)) == pytest.approx(2.0, abs=1e-14)
        assert eigenfunction_eval(ModeIndex(2, 1), UNIT, (0.5, 0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_quarter_point(self):
        assert eigenfunction_eval(ModeIndex(1, 1), UNIT, (0.25, 0.25)) == pytest.approx(1.0, abs=1e-14)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            eigenfunction_eval(ModeIndex(1, 1), UNIT, (1.5, 0.5))

    def test_orthonormality_by_quadrature(self):
        modes = ModeSet.square(4)
        x, w = leggauss(32)
        nodes = 0.5 * (x + 1.0)
        weights = 0.5 * w
        gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        ww = np.outer(weights, weights).ravel()
        phi = eval_matrix(UNIT, modes, pts)
        gram = phi.T @ (ww[:, None] * phi)
        assert np.abs(gram - np.eye(len(modes))).max() < 1e-8


    @pytest.mark.parametrize("modes", [
        ModeSet.square(8),
        ModeSet(tuple(ModeIndex(i, j) for i in range(1, 4) for j in range(1, 12))),
        ModeSet((ModeIndex(7, 2), ModeIndex(1, 1), ModeIndex(3, 9), ModeIndex(7, 1))),
    ])
    def test_eval_matrix_equals_outer_products_bitwise(self, modes):
        # the per-axis sine tables against the per-mode outer products they
        # replaced, on a domain off the origin, its corners and random points
        domain = Domain(-0.4, 1.1, 0.3, 2.6)
        rng = np.random.default_rng(11)
        pts = np.vstack([np.column_stack([rng.uniform(-0.4, 1.1, 500), rng.uniform(0.3, 2.6, 500)]),
                         [[-0.4, 0.3], [1.1, 2.6], [-0.4, 2.6], [1.1, 0.3]]])
        xs = (pts[:, 0] - domain.alpha1) / domain.length1
        ys = (pts[:, 1] - domain.alpha2) / domain.length2
        ii = np.array([m.i for m in modes], dtype=float)
        jj = np.array([m.j for m in modes], dtype=float)
        c = 2.0 / math.sqrt(domain.length1 * domain.length2)
        ref = c * np.sin(np.pi * np.outer(xs, ii)) * np.sin(np.pi * np.outer(ys, jj))
        got = eval_matrix(domain, modes, pts)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestModeSet:
    def test_row_major_order(self):
        modes = ModeSet.square(2)
        assert list(modes) == [ModeIndex(1, 1), ModeIndex(1, 2), ModeIndex(2, 1), ModeIndex(2, 2)]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ModeSet((ModeIndex(1, 1), ModeIndex(1, 1)))

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            ModeSet((ModeIndex(0, 1),))


class TestAssembly:
    def test_paper_coefficients_single_mode(self):
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 1.0), UNIT, ModeSet((ModeIndex(1, 1),)))
        assert model.a22[0] == pytest.approx(1 - 0.2 * PI2, abs=1e-12)
        assert model.a12[0] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_coupling_decouples(self):
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 0.0), UNIT, ModeSet.square(2))
        assert not model.a12.any()
        a = model.stacked_a()
        assert not a[:4, 4:].any() and not a[4:, :4].any()

    def test_beta3_a22_diagonal(self):
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 3.0), UNIT, ModeSet.square(2))
        expected = [3 - 0.1 * 2 * PI2, 3 - 0.1 * 5 * PI2, 3 - 0.1 * 5 * PI2, 3 - 0.1 * 8 * PI2]
        assert model.a22 == pytest.approx(expected, abs=1e-12)

    def test_block_structure_entrywise(self):
        coeffs = Coefficients(2.0, 0.5, 1.7)
        modes = ModeSet.square(3)
        model = assemble_exchange_model(coeffs, UNIT, modes)
        lam = eigenvalues(modes, UNIT)
        n = len(modes)
        a = model.stacked_a()
        assert np.allclose(a[:n, :n], np.diag(2.0 * lam + 1.7))
        assert np.allclose(a[n:, n:], np.diag(0.5 * lam + 1.7))
        assert np.allclose(a[:n, n:], -1.7 * np.eye(n))
        assert np.allclose(a[n:, :n], a[:n, n:])

    def test_requires_positive_diffusion(self):
        with pytest.raises(ValueError):
            Coefficients(alpha_diff=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha_diff", "gamma_diff", "beta_couple"])
    def test_rejects_non_finite_coefficient(self, field, value):
        # a NaN passes "<= 0" and would reach the split as a NaN eigenvalue
        with pytest.raises(ValueError, match="finite"):
            Coefficients(**{field: value})

    @pytest.mark.parametrize("coefficients", [Coefficients(1.0, 1e307, 1.0), Coefficients(1e306, 0.1, 1.0),
                                              Coefficients(1.0, 0.1, 1e308), Coefficients(1.0, 0.1, -1e308)])
    def test_rejects_overflowing_model(self, coefficients):
        # finite coefficients; a diagonal or a pair rate of mode (8, 8) overflows
        with pytest.raises(ValueError, match="overflow"):
            assemble_exchange_model(coefficients, UNIT, ModeSet.square(8))

    def test_rejects_overflowing_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalues overflow"):
            assemble_exchange_model(Coefficients(), Domain(0.0, 1e-160, 0.0, 1.0), ModeSet.square(2))

    @given(alpha=st.floats(1e-3, 1.7e308), gamma=st.floats(1e-3, 1.7e308), beta=st.floats(-1.7e308, 1.7e308),
           n=st.integers(1, 6))
    def test_extreme_modes_bound_the_model(self, alpha, gamma, beta, n):
        # the config's rule: the square set overflows exactly when its modes
        # (1, 1) and (n, n) do
        def overflows(modes):
            try:
                assemble_exchange_model(Coefficients(alpha, gamma, beta), UNIT, modes)
            except ValueError:
                return True
            return False

        corners = ModeSet(tuple(dict.fromkeys((ModeIndex(1, 1), ModeIndex(n, n)))))
        assert overflows(corners) == overflows(ModeSet.square(n))


# Exponents reached at the last sample: below EXP_ZERO_BELOW, in the band
# where exp is subnormal, ordinary ones, and past overflow (709.8).  The
# earlier samples then cross every band between 0 and that exponent.
_FINAL_EXPONENTS = st.one_of(st.floats(-800.0, EXP_ZERO_BELOW), st.floats(-745.2, -708.0),
                             st.floats(-60.0, 60.0), st.floats(700.0, 800.0),
                             st.sampled_from([EXP_ZERO_BELOW, -745.13, -744.44, 709.78, 709.79]))
_STARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 5e-324, -1.0]))


class TestExpSamples:
    @given(data=st.data(), steps=st.integers(1, 40), dt=st.floats(1e-3, 1.0), n=st.integers(1, 8))
    @example(data=None, steps=20, dt=0.5, n=4)
    def test_matches_naive_broadcast_bit_for_bit(self, data, steps, dt, n):
        if data is None:
            # every band in one call, with zero starts on a decaying and an
            # overflowing column and a negative start on a vanishing one
            rates, z0 = np.array([-80.0, -74.0, 80.0, -3.0]), np.array([0.0, -2.0, -0.0, 1.5])
        else:
            rates = np.array([data.draw(_FINAL_EXPONENTS) for _ in range(n)]) / (steps * dt)
            z0 = np.array([data.draw(_STARTS) for _ in range(n)])
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 on the zero columns
            ref = np.exp(np.outer(dt * np.arange(steps + 1), rates)) * z0
            got = exp_samples(rates, z0, dt, steps)
        live = z0 != 0
        assert got.shape == ref.shape
        assert got[:, live].tobytes() == ref[:, live].tobytes()
        # a column that starts at 0 (or -0) stays +0.0, also past overflow
        assert not got[:, ~live].view(np.int64).any()

    def test_numpy_exp_is_positive_zero_below_the_cut(self):
        # exp_samples writes 0.0 * z0 where the exponent is below
        # EXP_ZERO_BELOW; a numpy whose exp differs there fails here
        x = np.concatenate([np.linspace(-800.0, EXP_ZERO_BELOW, 2_000_001),
                            np.nextafter(EXP_ZERO_BELOW, -np.inf) - np.arange(1000) * 2e-13])
        assert x.max() == EXP_ZERO_BELOW
        assert not np.exp(x).view(np.int64).any()


class TestPropagate:
    def test_scalar_exponential(self):
        states = propagate(np.array([[-1.0]]), [1.0], dt=1.0, steps=1)
        assert states[1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_decoupled_mode_matches_scalar(self):
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 0.0), UNIT, ModeSet((ModeIndex(1, 1),)))
        x0 = np.array([0.0, 1.0])
        states = propagate(model, x0, dt=0.01, steps=100)
        assert states[-1, 1] == pytest.approx(math.exp(0.1 * eigenvalue(ModeIndex(1, 1), UNIT)), abs=1e-10)

    def test_zero_matrix_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        states = propagate(np.zeros((3, 3)), v, dt=0.5, steps=7)
        assert np.allclose(states[-1], v, atol=1e-14)

    def test_semigroup_composition(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        x0 = rng.standard_normal(6)
        one = Propagator(m, 0.3)
        two = Propagator(m, 0.6)
        assert np.abs(one.step(one.step(x0)) - two.step(x0)).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            propagate(np.eye(2), [1.0, 2.0, 3.0], dt=0.1, steps=1)


# Each call below reaches one of the places that import scipy.linalg on use.
# propagate_few_rows needs it for two rows or more.  F's rows 0 and 1 have
# F_RR = [[0.5, 0.3], [0, 1]], whose eigenvalue 0.5 equals the rate of
# coordinate 2, so that column of Gamma is read off a Van Loan block
# exponential; the column of coordinate 3 takes the resolvent.
LAZY_SCIPY_SITES = {
    "propagate_few_rows": (
        "from regobs.spectral import propagate_few_rows\n"
        "f_rows = np.array([[0.5, 0.3, -0.7, 0.2], [0.0, 1.0, 0.4, -0.6]])\n"
        "rates = np.array([9.0, 7.0, 0.5, -40.0])\n"
        "result = [propagate_few_rows(rates, [0, 1], f_rows, np.array([1.0, -0.5, 0.25, 2.0]), 0.1, 20)]\n"
    ),
    "Propagator": (
        "from regobs.spectral import Propagator\n"
        "prop = Propagator(np.array([[-1.0, 0.4], [0.3, -2.0]]), 0.05)\n"
        "result = [prop.E]\n"
    ),
}


@pytest.mark.parametrize("site", sorted(LAZY_SCIPY_SITES))
def test_lazy_scipy_import_sites_run_cold(site, tmp_path):
    # conftest loads scipy.linalg here (through scipy.interpolate), so only a
    # fresh process shows that importing regobs leaves it out, that the site
    # loads it itself, and that the cold call gives the same bits.
    code = LAZY_SCIPY_SITES[site]
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import regobs\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        f"{code}"
        "assert 'scipy.linalg' in sys.modules\n"
        "np.savez(sys.argv[1], *result)\n"
    )
    out = tmp_path / "result.npz"
    subprocess.run([sys.executable, "-c", script, str(out)], check=True, env=python_env(), timeout=60)
    namespace = {"np": np}
    exec(code, namespace)
    with np.load(out) as cold:
        got = [cold[f"arr_{k}"] for k in range(len(cold.files))]
    assert len(got) == len(namespace["result"])
    for a, b in zip(got, namespace["result"]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
