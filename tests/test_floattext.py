"""The bulk float formatter against `repr`, cell for cell, with no tolerance."""

import builtins
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import BETA3_CONFIG, reference_trajectory_csv
from regobs import floattext, parse_config, run_experiment
from regobs.floattext import format_rows
from regobs.harness import _write_trajectory_csv

LAYOUT_EDGES = [
    1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 123456789012345678.0,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]


def cells(values) -> list[str]:
    """format_rows of the values as one column, split back into cells."""
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return format_rows(column).decode("ascii").split("\n")[:-1]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    assert cells(values) == [repr(v) for v in values.tolist()]


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310])
def test_any_floats(values):
    assert_repr(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20180618).integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    assert_repr(bits.view(np.float64))


def test_powers_of_two_and_ten():
    assert_repr([2.0**k for k in range(-1074, 1024)])
    assert_repr([10.0**k for k in range(-323, 309)])
    assert_repr([float(f"1e{k}") for k in range(-324, 309)])


def test_layout_edges():
    assert_repr(LAYOUT_EDGES + [-v for v in LAYOUT_EDGES])
    for v in LAYOUT_EDGES:
        assert_repr([math.nextafter(v, 0.0), math.nextafter(v, math.inf)])


def test_integers_around_2_53():
    ints = [float(2**53 + k) for k in range(-2000, 2001)]
    assert_repr(ints + [-v for v in ints] + [2.0**63, 2.0**64, float(10**17), float(10**17 - 1)])


def test_rows_and_empty_cells():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-30, 30, (7, 5))
    values[1, 2], values[3, 0] = 0.0, -math.inf
    empty = rng.random((7, 5)) < 0.3
    expected = "".join(
        ",".join("" if e else repr(v) for v, e in zip(row, skip)) + "\n"
        for row, skip in zip(values.tolist(), empty.tolist())
    )
    assert format_rows(values, empty).decode("ascii") == expected


def test_finite_cells_never_reach_repr(monkeypatch):
    seen = []

    def spy(value):
        seen.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(floattext, "repr", spy, raising=False)
    values = np.array([[1.5, math.nan, 0.0], [-math.inf, 1e-300, -0.0]])
    assert format_rows(values) == b"1.5,nan,0.0\n-inf,1e-300,-0.0\n"
    assert len(seen) == 2 and not any(math.isfinite(v) for v in seen)


def test_every_biased_exponent():
    # one row of the cached powers per biased exponent, and its mantissa 0
    # (the shorter interval of a power of two, or a zero)
    rng = np.random.default_rng(29)
    mantissas = np.concatenate([[0, 1, 2**52 - 1], rng.integers(0, 2**52, 8)]).astype(np.uint64)
    bits = (np.arange(2047, dtype=np.uint64)[:, None] << np.uint64(52)) | mantissas
    bits = np.concatenate([bits.ravel(), bits.ravel() | np.uint64(1 << 63)])
    assert_repr(bits.view(np.float64))


def layout_values() -> list[float]:
    """Values of every sign, positional decimal point -3..16, exponent of
    two and three digits, and digit count 1..17."""
    rng = np.random.default_rng(17)
    values = []
    for decpt in [*range(-3, 17), -10, 27, -200, 250]:
        values += [float(f"{'123456789012345'[:n - 1]}7e{decpt - n}") for n in range(1, 16)]
        values += (rng.uniform(1.0, 10.0, 40) * 10.0 ** (decpt - 1)).tolist()  # 16 and 17 digits
    return values + [-v for v in values]


def test_every_layout_key():
    values = layout_values() + [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0]
    column = np.array(values).reshape(-1, 1)
    empty = np.zeros(column.shape, dtype=bool)
    empty[-1] = True
    _, keys = floattext._layout(column, empty)
    assert set(keys.tolist()) == set(range(floattext._tables().keep.shape[0]))
    expected = "".join(f"{repr(v) if not e else ''}\n" for v, e in zip(values, empty.ravel().tolist()))
    assert format_rows(column, empty).decode("ascii") == expected


@given(st.data())
def test_row_blocks_concatenate(data):
    # formatting rows in blocks writes the bytes of formatting them at once
    rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 5))
    cells = st.lists(st.floats(), min_size=rows * cols, max_size=rows * cols)
    values = np.array(data.draw(cells), dtype=np.float64).reshape(rows, cols)
    empty = np.array(data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1)))) if rows > 1 else []
    bounds = [0, *cuts, rows]
    blocks = b"".join(format_rows(values[a:b], empty[a:b]) for a, b in zip(bounds, bounds[1:]))
    assert blocks == format_rows(values, empty)


def test_trajectory_table_rarely_reaches_repr(monkeypatch, tmp_path):
    # the main path settles all but a few cells of an N = 24 trajectory
    # table, and the cells it leaves to repr are written as repr has them
    cfg = parse_config(BETA3_CONFIG + "simulation.n_modes = 24\nobserver.estimators = both\n")
    report, trajs = run_experiment(cfg)
    series = (trajs[report.primary], trajs["full"], trajs["reduced"])
    seen = []

    def spy(value):
        seen.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(floattext, "repr", spy, raising=False)
    _write_trajectory_csv(tmp_path / "trajectory.csv", cfg, *series)
    monkeypatch.undo()
    reference_trajectory_csv(tmp_path / "reference.csv", cfg, *series)
    text = (tmp_path / "trajectory.csv").read_bytes()
    assert text == (tmp_path / "reference.csv").read_bytes()
    values = [float(c) for line in text.decode("ascii").splitlines()[1:] for c in line.split(",") if c]
    nonzero = sum(math.isfinite(v) and v != 0.0 for v in values)
    reached = sum(math.isfinite(v) for v in seen)
    assert nonzero > 100_000 and reached < 0.01 * nonzero
