import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from regobs import ConfigError, parse_config, render_config
from regobs.config import (
    _KNOWN_KEYS,
    CONFIG_WEIGHTS,
    ESTIMATOR_CHOICES,
    ESTIMATOR_INIT_CHOICES,
    NORM_CHOICES,
    REGION_KINDS,
    SENSOR_KINDS,
    ExperimentConfig,
    ObserverSettings,
    OutputSettings,
    SimulationSettings,
)
from regobs.geometry import EDGES, Domain, Rect
from regobs.region import BoundarySegment, InternalRectangle
from regobs.sensing import PointwiseSensor, ZoneSensor
from regobs.spectral import Coefficients, ModeSet, assemble_exchange_model

MINIMAL = """\
domain.alpha1 = 0.0
domain.beta1 = 1.0
sensor.1.kind = pointwise
sensor.1.location = 0.4, 0.6
"""

ECHO_CONFIG = """\
coefficients.gamma_diff = 0.1
coefficients.beta_couple = 1.0
sensor.1.kind = zone
sensor.1.rect = 0.2, 0.4, 0.3, 0.5
sensor.1.weight = uniform
"""


class TestDefaults:
    def test_minimal_config_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.simulation.n_modes == 8
        assert cfg.simulation.dt == 0.01
        assert cfg.simulation.t_final == 5.0
        assert cfg.observer.margin == 0.0
        assert cfg.observer.target_margin == 1.0
        assert cfg.observer.estimators == "reduced"
        assert isinstance(cfg.region, InternalRectangle)
        assert cfg.output.norm == "l2"

    def test_empty_config_has_no_sensors(self):
        cfg = parse_config("")
        assert cfg.sensors == ()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n" + MINIMAL + "\n# trailing\n")
        assert len(cfg.sensors) == 1


class TestValidation:
    @pytest.mark.parametrize("dt, t_final", [(0.01, 5.0), (0.01, 3.0), (0.1, 0.3)])
    def test_whole_step_horizon_accepted_despite_round_off(self, dt, t_final):
        cfg = parse_config(MINIMAL + f"simulation.dt = {dt}\nsimulation.T = {t_final}\n")
        assert cfg.simulation.t_final == t_final

    def test_negative_dt(self):
        with pytest.raises(ConfigError, match=r"simulation\.dt must be > 0"):
            parse_config(MINIMAL + "simulation.dt = -1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("domain.alpha1 = 0\ndomain.alpha3 = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("domain.alpha1 0.0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("simulation.dt = 0.01\nsimulation.dt = 0.02\n")

    def test_sensor_indices_must_be_consecutive(self):
        text = "sensor.2.kind = pointwise\nsensor.2.location = 0.5, 0.5\n"
        with pytest.raises(ConfigError, match="consecutive"):
            parse_config(text)

    @pytest.mark.parametrize("index", ["0", "01", "\u00b2", "\u0663"])
    def test_sensor_index_written_as_the_echo_writes_it(self, index):
        with pytest.raises(ConfigError, match="line 1: sensor keys"):
            parse_config(f"sensor.{index}.kind = pointwise\nsensor.{index}.location = 0.5, 0.5\n")

    def test_sensor_outside_domain(self):
        text = "sensor.1.kind = pointwise\nsensor.1.location = 1.5, 0.5\n"
        with pytest.raises(ConfigError, match="sensor.1"):
            parse_config(text)

    def test_region_rect_outside_domain(self):
        with pytest.raises(ConfigError, match="region.rect"):
            parse_config("region.kind = internal_rectangle\nregion.rect = 0.5, 1.5, 0.0, 1.0\n")

    def test_boundary_segment_requires_edge(self):
        with pytest.raises(ConfigError, match="region.edge"):
            parse_config("region.kind = boundary_segment\nregion.from = 0.2\nregion.to = 0.8\n")

    def test_t_final_exceeds_dt(self):
        # and a dt so small that T / dt overflows
        for text in ("simulation.dt = 0.5\nsimulation.T = 0.1\n", "simulation.dt = 1e-320\n"):
            with pytest.raises(ConfigError, match=r"simulation\.T"):
                parse_config(text)

    def test_step_count_bounded_by_numpy_index(self):
        # a run holds (steps + 1) x (4 + n_modes^2) samples, which numpy must
        # index: 1e17 steps fit at n_modes = 9 (85 columns), not at 10 (104)
        horizon = "simulation.dt = 1e-17\nsimulation.T = 1.0\n"
        assert parse_config(horizon + "simulation.n_modes = 9\n").simulation.dt == 1e-17
        for text in (horizon + "simulation.n_modes = 10\n", "simulation.dt = 1e-300\n"):
            with pytest.raises(ConfigError, match=r"simulation\.T must be at most \d+ simulation\.dt steps"):
                parse_config(text)

    def test_bad_estimator_choice(self):
        with pytest.raises(ConfigError, match="observer.estimators"):
            parse_config("observer.estimators = kalman\n")

    def test_x0_length_checked(self):
        with pytest.raises(ConfigError, match="x0_field1"):
            parse_config("simulation.n_modes = 2\nsimulation.x0_field1 = 1.0, 2.0\n")


class TestSensors:
    def test_pointwise_and_zone(self):
        text = (
            "sensor.1.kind = pointwise\nsensor.1.location = 0.5, 0.25\n"
            "sensor.2.kind = zone\nsensor.2.rect = 0.1, 0.3, 0.6, 0.9\nsensor.2.weight = separable_sine\n"
        )
        cfg = parse_config(text)
        assert isinstance(cfg.sensors[0], PointwiseSensor)
        assert cfg.sensors[0].location == (0.5, 0.25)
        assert isinstance(cfg.sensors[1], ZoneSensor)
        assert cfg.sensors[1].weight == "separable_sine"

    def test_zone_keys_rejected_on_pointwise(self):
        text = "sensor.1.kind = pointwise\nsensor.1.location = 0.5, 0.5\nsensor.1.weight = uniform\n"
        with pytest.raises(ConfigError):
            parse_config(text)


class TestEcho:
    def test_render_parse_roundtrip(self):
        cfg = parse_config(ECHO_CONFIG)
        echoed = render_config(cfg)
        assert parse_config(echoed) == cfg

    def test_render_is_idempotent(self):
        cfg = parse_config(ECHO_CONFIG)
        once = render_config(cfg)
        twice = render_config(parse_config(once))
        assert once == twice

    def test_reference_coefficients_survive(self):
        cfg = parse_config(ECHO_CONFIG)
        echoed = render_config(cfg)
        assert "coefficients.gamma_diff = 0.1" in echoed
        assert "coefficients.beta_couple = 1.0" in echoed

    def test_boundary_region_roundtrip(self):
        text = (
            "region.kind = boundary_segment\nregion.edge = bottom\n"
            "region.from = 0.25\nregion.to = 0.75\nregion.collar_radius = 0.05\n"
        )
        cfg = parse_config(text)
        assert isinstance(cfg.region, BoundarySegment)
        assert parse_config(render_config(cfg)) == cfg

    def test_explicit_x0_roundtrip(self):
        text = "simulation.n_modes = 2\nsimulation.x0_field1 = 1.0, 2.0, 3.0, 4.0\n"
        cfg = parse_config(text)
        again = parse_config(render_config(cfg))
        assert again.simulation.x0_field1 == (1.0, 2.0, 3.0, 4.0)
        assert again == cfg

    def test_config_equality_is_structural(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL + "\n# comment\n")
        assert isinstance(a, ExperimentConfig)
        assert a == b


def _span(draw, lo, length):
    # a sub-interval [lo + f0 length, lo + f1 length] of the closed interval, f0 < f1
    f0 = draw(st.floats(0.0, 0.9))
    f1 = draw(st.floats(f0 + 0.05, 1.0))
    return lo + length * f0, lo + length * f1


@st.composite
def valid_configs(draw):
    a1, a2 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    l1, l2 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    domain = Domain(a1, a1 + l1, a2, a2 + l2)
    n_quad = draw(st.integers(1, 200))
    if draw(st.booleans()):
        rect = Rect(*_span(draw, a1, l1), *_span(draw, a2, l2))
        region, collar_radius = InternalRectangle(rect, n_quad), 0.1
    else:
        edge = draw(st.sampled_from(EDGES))
        lo, hi = _span(draw, a1, l1) if edge in ("bottom", "top") else _span(draw, a2, l2)
        region, collar_radius = BoundarySegment(edge, lo, hi, n_quad), draw(st.floats(1e-3, 5.0))
    sensors = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            f1, f2 = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
            sensors.append(PointwiseSensor((a1 + l1 * f1, a2 + l2 * f2)))
        else:
            rect = Rect(*_span(draw, a1, l1), *_span(draw, a2, l2))
            sensors.append(ZoneSensor(rect, draw(st.sampled_from(["uniform", "separable_sine"]))))
    n_modes = draw(st.integers(1, 3))
    field = st.none() | st.tuples(*[st.floats(-1e3, 1e3)] * n_modes**2)
    dt = draw(st.floats(1e-3, 1.0))
    fit_t_lo = draw(st.floats(-10.0, 10.0))
    fit_t_hi = draw(st.none() | st.floats(1e-3, 10.0).map(lambda d: fit_t_lo + d))
    return ExperimentConfig(
        domain=domain,
        coefficients=Coefficients(draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)),
                                  draw(st.floats(-1e3, 1e3))),
        region=region,
        collar_radius=collar_radius,
        sensors=tuple(sensors),
        observer=ObserverSettings(
            target_margin=draw(st.floats(1e-3, 1e3)),
            margin=draw(st.floats(0.0, 1e3)),
            measured_field=draw(st.sampled_from([1, 2])),
            estimators=draw(st.sampled_from(ESTIMATOR_CHOICES)),
            gramian_horizon=draw(st.floats(1e-3, 1e3)),
        ),
        simulation=SimulationSettings(
            n_modes=n_modes,
            dt=dt,
            t_final=dt * draw(st.integers(1, 1000)),
            x0_seed=draw(st.integers(0, 2**32 - 1)),
            x0_field1=draw(field),
            x0_field2=draw(field),
            estimator_init=draw(st.sampled_from(ESTIMATOR_INIT_CHOICES)),
        ),
        output=OutputSettings(
            directory=draw(st.text(string.ascii_letters + string.digits + "_-./", min_size=1, max_size=12)),
            norm=draw(st.sampled_from(NORM_CHOICES)),
            plot=draw(st.booleans()),
            fit_t_lo=fit_t_lo,
            fit_t_hi=fit_t_hi,
        ),
    )


@given(cfg=valid_configs())
def test_render_parse_roundtrip_property(cfg):
    assert parse_config(render_config(cfg)) == cfg


_KEYS = [f"{section}.{key}" for section, keys in _KNOWN_KEYS.items() if section != "sensor" for key in keys]
_KEYS += [f"sensor.{k}.{key}" for k in (1, 2) for key in _KNOWN_KEYS["sensor"]]
_NUMBERS = (st.floats() | st.integers(-3, 10)).map(str) | st.sampled_from(["nan", "-inf", "1e400"])
# finite numbers large enough to overflow a diagonal or a pair rate of the model
_HUGE = st.floats(1e300, 1.7e308).map(str) | st.sampled_from(["1e307", "-1e308", "1.7976931348623157e308"])
# junk, non-finite and huge numbers, negatives, inverted pairs, lists and every choice word
_VALUES = st.one_of(
    _NUMBERS,
    _HUGE,
    st.lists(_NUMBERS, min_size=1, max_size=5).map(", ".join),
    st.sampled_from(REGION_KINDS + EDGES + SENSOR_KINDS + CONFIG_WEIGHTS + ESTIMATOR_CHOICES
                    + ESTIMATOR_INIT_CHOICES + NORM_CHOICES + ("true", "false")),
    st.text(string.printable, max_size=6),
)


@given(assignment=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=12))
@example(assignment={"coefficients.gamma_diff": "1e307"})
@example(assignment={"coefficients.beta_couple": "-1e308"})
@example(assignment={"coefficients.alpha_diff": "1e306", "simulation.n_modes": "3"})
def test_known_keys_with_any_values_parse_or_raise_config_error(assignment):
    text = "".join(f"{key} = {value}\n" for key, value in assignment.items())
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert parse_config(render_config(cfg)) == cfg
    # a parsed config's model is finite: assembly raises no overflow
    assemble_exchange_model(cfg.coefficients, cfg.domain, ModeSet.square(cfg.simulation.n_modes))
