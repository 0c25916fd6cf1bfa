"""Experiment configuration: line-oriented `section.key = value` files.

Sections: domain, coefficients, region, sensor.<k>, observer, simulation,
output.  Blank lines and lines starting with '#' are ignored; unknown or
duplicate keys are rejected with their line number.  `render_config` emits
the canonical normalized form (all defaults explicit, fixed key order,
shortest round-trip floats) used for the reproducible config echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import EDGES, Domain, Rect
from .observer import _steps
from .region import BoundarySegment, InternalRectangle
from .sensing import PointwiseSensor, ZoneSensor, _check_sensor
from .spectral import Coefficients

ESTIMATOR_CHOICES = ("reduced", "full", "both")
ESTIMATOR_INIT_CHOICES = ("zero", "truth")
NORM_CHOICES = ("l2", "sobolev_half")
SENSOR_KINDS = ("pointwise", "zone")
REGION_KINDS = ("internal_rectangle", "boundary_segment")
CONFIG_WEIGHTS = ("uniform", "separable_sine")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ObserverSettings:
    target_margin: float = 1.0
    margin: float = 0.0
    measured_field: int = 1
    estimators: str = "reduced"
    gramian_horizon: float = 2.0


@dataclass(frozen=True)
class SimulationSettings:
    n_modes: int = 8
    dt: float = 0.01
    t_final: float = 5.0
    x0_seed: int = 0
    x0_field1: tuple[float, ...] | None = None
    x0_field2: tuple[float, ...] | None = None
    estimator_init: str = "zero"


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    norm: str = "l2"
    plot: bool = False
    fit_t_lo: float = 1.0
    fit_t_hi: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    domain: Domain
    coefficients: Coefficients
    region: BoundarySegment | InternalRectangle
    collar_radius: float
    sensors: tuple
    observer: ObserverSettings
    simulation: SimulationSettings
    output: OutputSettings


_KNOWN_KEYS = {
    "domain": ("alpha1", "beta1", "alpha2", "beta2"),
    "coefficients": ("alpha_diff", "gamma_diff", "beta_couple"),
    "region": ("kind", "rect", "edge", "from", "to", "collar_radius", "n_quad"),
    "sensor": ("kind", "location", "rect", "weight"),
    "observer": ("target_margin", "margin", "measured_field", "estimators", "gramian_horizon"),
    "simulation": ("n_modes", "dt", "T", "x0_seed", "x0_field1", "x0_field2", "estimator_init"),
    "output": ("directory", "norm", "plot", "fit_t_lo", "fit_t_hi"),
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line


def _collect(text: str) -> dict[str, _Entry]:
    entries: dict[str, _Entry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        name, value = line.split("=", 1)
        name = name.strip()
        value = value.strip()
        parts = name.split(".")
        if parts[0] == "sensor":
            if len(parts) != 3 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ConfigError(f"line {lineno}: sensor keys look like 'sensor.<k>.<key>'")
            if parts[2] not in _KNOWN_KEYS["sensor"]:
                raise ConfigError(f"line {lineno}: unknown key '{name}'")
        else:
            if len(parts) != 2 or parts[0] not in _KNOWN_KEYS or parts[1] not in _KNOWN_KEYS[parts[0]]:
                raise ConfigError(f"line {lineno}: unknown key '{name}'")
        if name in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{name}'")
        entries[name] = _Entry(value, lineno)
    return entries


class _Reader:
    def __init__(self, entries: dict[str, _Entry]):
        self.entries = entries

    def _raw(self, key: str):
        entry = self.entries.get(key)
        return None if entry is None else entry.value

    def float(self, key: str, default):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        return value

    def int(self, key: str, default):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None

    def bool(self, key: str, default):
        raw = self._raw(key)
        if raw is None:
            return default
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} must be true or false, got {raw!r}")

    def choice(self, key: str, choices, default):
        raw = self._raw(key)
        if raw is None:
            return default
        if raw not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {raw!r}")
        return raw

    def floats(self, key: str, count: int | None = None):
        raw = self._raw(key)
        if raw is None:
            return None
        try:
            values = tuple(float(part.strip()) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{key} must be a comma-separated list of numbers") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must contain finite numbers only")
        if count is not None and len(values) != count:
            raise ConfigError(f"{key} must have {count} values, got {len(values)}")
        return values

    def str(self, key: str, default):
        raw = self._raw(key)
        return default if raw is None else raw

    def has(self, key: str) -> bool:
        return key in self.entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, filling documented defaults."""
    entries = _collect(text)
    r = _Reader(entries)

    domain = Domain(
        alpha1=r.float("domain.alpha1", 0.0),
        beta1=r.float("domain.beta1", 1.0),
        alpha2=r.float("domain.alpha2", 0.0),
        beta2=r.float("domain.beta2", 1.0),
    )
    if domain.length1 <= 0 or domain.length2 <= 0:
        raise ConfigError("domain.beta1/beta2 must exceed domain.alpha1/alpha2")

    try:
        coefficients = Coefficients(
            alpha_diff=r.float("coefficients.alpha_diff", 1.0),
            gamma_diff=r.float("coefficients.gamma_diff", 0.1),
            beta_couple=r.float("coefficients.beta_couple", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"coefficients: {exc}") from None

    n_quad = r.int("region.n_quad", 64)
    if n_quad < 1:
        raise ConfigError("region.n_quad must be >= 1")
    kind = r.choice("region.kind", REGION_KINDS, "internal_rectangle")
    collar_radius = r.float("region.collar_radius", 0.1)
    if kind == "internal_rectangle":
        rect_vals = r.floats("region.rect", 4)
        if rect_vals is None:
            rect_vals = (domain.alpha1, domain.beta1, domain.alpha2, domain.beta2)
        try:
            rect = Rect(*rect_vals)
        except ValueError as exc:
            raise ConfigError(f"region.rect: {exc}") from None
        if not rect.inside(domain):
            raise ConfigError("region.rect must lie inside the domain")
        region = InternalRectangle(rect=rect, n_quad=n_quad)
    else:
        edge = r.choice("region.edge", EDGES, None)
        if edge is None:
            raise ConfigError("region.edge is required for boundary_segment regions")
        lo = r.float("region.from", None)
        hi = r.float("region.to", None)
        if lo is None or hi is None:
            raise ConfigError("region.from and region.to are required for boundary_segment regions")
        try:
            region = BoundarySegment(edge=edge, lo=lo, hi=hi, n_quad=n_quad)
        except ValueError as exc:
            raise ConfigError(f"region: {exc}") from None
        if collar_radius <= 0:
            raise ConfigError("region.collar_radius must be > 0")

    sensors = _parse_sensors(entries, r, domain)

    observer = ObserverSettings(
        target_margin=r.float("observer.target_margin", 1.0),
        margin=r.float("observer.margin", 0.0),
        measured_field=r.int("observer.measured_field", 1),
        estimators=r.choice("observer.estimators", ESTIMATOR_CHOICES, "reduced"),
        gramian_horizon=r.float("observer.gramian_horizon", 2.0),
    )
    if observer.target_margin <= 0:
        raise ConfigError("observer.target_margin must be > 0")
    if observer.margin < 0:
        raise ConfigError("observer.margin must be >= 0")
    if observer.measured_field not in (1, 2):
        raise ConfigError("observer.measured_field must be 1 or 2")
    if observer.gramian_horizon <= 0:
        raise ConfigError("observer.gramian_horizon must be > 0")

    n_modes = r.int("simulation.n_modes", 8)
    if n_modes < 1:
        raise ConfigError("simulation.n_modes must be >= 1")
    dt = r.float("simulation.dt", 0.01)
    if dt <= 0:
        raise ConfigError("simulation.dt must be > 0")
    t_final = r.float("simulation.T", 5.0)
    try:
        _steps(dt, t_final)
    except ValueError:
        # the API's horizon rule: at least one step, and whole steps
        why = "be >= simulation.dt" if t_final < dt else "be a whole number of simulation.dt steps"
        raise ConfigError(f"simulation.T must {why}") from None
    n_coeffs = n_modes * n_modes
    x0_field1 = r.floats("simulation.x0_field1", n_coeffs)
    x0_field2 = r.floats("simulation.x0_field2", n_coeffs)
    simulation = SimulationSettings(
        n_modes=n_modes,
        dt=dt,
        t_final=t_final,
        x0_seed=r.int("simulation.x0_seed", 0),
        x0_field1=x0_field1,
        x0_field2=x0_field2,
        estimator_init=r.choice("simulation.estimator_init", ESTIMATOR_INIT_CHOICES, "zero"),
    )

    fit_t_lo = r.float("output.fit_t_lo", 1.0)
    fit_t_hi = r.float("output.fit_t_hi", None)
    if fit_t_hi is not None and fit_t_hi <= fit_t_lo:
        raise ConfigError("output.fit_t_hi must be > output.fit_t_lo")
    output = OutputSettings(
        directory=r.str("output.directory", "out"),
        norm=r.choice("output.norm", NORM_CHOICES, "l2"),
        plot=r.bool("output.plot", False),
        fit_t_lo=fit_t_lo,
        fit_t_hi=fit_t_hi,
    )

    return ExperimentConfig(
        domain=domain,
        coefficients=coefficients,
        region=region,
        collar_radius=collar_radius,
        sensors=sensors,
        observer=observer,
        simulation=simulation,
        output=output,
    )


def _parse_sensors(entries, r: _Reader, domain: Domain):
    indices = sorted({int(name.split(".")[1]) for name in entries if name.startswith("sensor.")})
    if indices and indices != list(range(1, len(indices) + 1)):
        raise ConfigError("sensor indices must be consecutive starting at 1")
    sensors = []
    for k in indices:
        prefix = f"sensor.{k}"
        kind = r.choice(f"{prefix}.kind", SENSOR_KINDS, None)
        if kind is None:
            raise ConfigError(f"{prefix}.kind is required")
        if kind == "pointwise":
            loc = r.floats(f"{prefix}.location", 2)
            if loc is None:
                raise ConfigError(f"{prefix}.location is required for pointwise sensors")
            if r.has(f"{prefix}.rect") or r.has(f"{prefix}.weight"):
                raise ConfigError(f"{prefix}: rect/weight are zone-sensor keys")
            sensor = PointwiseSensor(location=loc)
        else:
            rect_vals = r.floats(f"{prefix}.rect", 4)
            if rect_vals is None:
                raise ConfigError(f"{prefix}.rect is required for zone sensors")
            try:
                rect = Rect(*rect_vals)
            except ValueError as exc:
                raise ConfigError(f"{prefix}.rect: {exc}") from None
            weight = r.choice(f"{prefix}.weight", CONFIG_WEIGHTS, "uniform")
            if r.has(f"{prefix}.location"):
                raise ConfigError(f"{prefix}: location is a pointwise-sensor key")
            sensor = ZoneSensor(rect=rect, weight=weight)
        try:
            _check_sensor(sensor, domain)
        except ValueError as exc:
            raise ConfigError(f"{prefix}: {exc}") from None
        sensors.append(sensor)
    return tuple(sensors)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical normalized text; parse(render(cfg)) == cfg."""
    lines = []

    def put(key, value):
        lines.append(f"{key} = {_fmt(value)}")

    put("domain.alpha1", cfg.domain.alpha1)
    put("domain.beta1", cfg.domain.beta1)
    put("domain.alpha2", cfg.domain.alpha2)
    put("domain.beta2", cfg.domain.beta2)
    put("coefficients.alpha_diff", cfg.coefficients.alpha_diff)
    put("coefficients.gamma_diff", cfg.coefficients.gamma_diff)
    put("coefficients.beta_couple", cfg.coefficients.beta_couple)
    if isinstance(cfg.region, InternalRectangle):
        put("region.kind", "internal_rectangle")
        rect = cfg.region.rect
        put("region.rect", (rect.lo1, rect.hi1, rect.lo2, rect.hi2))
    else:
        put("region.kind", "boundary_segment")
        put("region.edge", cfg.region.edge)
        put("region.from", cfg.region.lo)
        put("region.to", cfg.region.hi)
        put("region.collar_radius", cfg.collar_radius)
    put("region.n_quad", cfg.region.n_quad)
    for k, sensor in enumerate(cfg.sensors, start=1):
        if isinstance(sensor, PointwiseSensor):
            put(f"sensor.{k}.kind", "pointwise")
            put(f"sensor.{k}.location", sensor.location)
        else:
            put(f"sensor.{k}.kind", "zone")
            put(f"sensor.{k}.rect", (sensor.rect.lo1, sensor.rect.hi1, sensor.rect.lo2, sensor.rect.hi2))
            put(f"sensor.{k}.weight", sensor.weight)
    put("observer.target_margin", cfg.observer.target_margin)
    put("observer.margin", cfg.observer.margin)
    put("observer.measured_field", cfg.observer.measured_field)
    put("observer.estimators", cfg.observer.estimators)
    put("observer.gramian_horizon", cfg.observer.gramian_horizon)
    put("simulation.n_modes", cfg.simulation.n_modes)
    put("simulation.dt", cfg.simulation.dt)
    put("simulation.T", cfg.simulation.t_final)
    put("simulation.x0_seed", cfg.simulation.x0_seed)
    if cfg.simulation.x0_field1 is not None:
        put("simulation.x0_field1", cfg.simulation.x0_field1)
    if cfg.simulation.x0_field2 is not None:
        put("simulation.x0_field2", cfg.simulation.x0_field2)
    put("simulation.estimator_init", cfg.simulation.estimator_init)
    put("output.directory", cfg.output.directory)
    put("output.norm", cfg.output.norm)
    put("output.plot", cfg.output.plot)
    put("output.fit_t_lo", cfg.output.fit_t_lo)
    if cfg.output.fit_t_hi is not None:
        put("output.fit_t_hi", cfg.output.fit_t_hi)
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
