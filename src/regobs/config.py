"""Experiment configuration: line-oriented `section.key = value` files.

Sections: domain, coefficients, region, sensor.<k>, observer, simulation,
output.  Blank lines and lines starting with '#' are ignored; unknown or
duplicate keys are rejected with their line number.  `render_config` emits
the canonical normalized form (all defaults explicit, fixed key order,
shortest round-trip floats) used for the reproducible config echo.

The five flat sections are declared once, by their settings dataclasses: a
field's default is the key's default and fixes how its value is read, and
the field order is the echo order.  `_RULES` adds the choices and bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .geometry import EDGES, Domain, Rect, edge_segment
from .observer import _steps
from .region import NORM_WEIGHTS, BoundarySegment, InternalRectangle
from .sensing import PointwiseSensor, ZoneSensor, _check_sensor
from .spectral import Coefficients, ModeIndex, ModeSet, assemble_exchange_model

ESTIMATOR_CHOICES = ("reduced", "full", "both")
ESTIMATOR_INIT_CHOICES = ("zero", "truth")
NORM_CHOICES = NORM_WEIGHTS
SENSOR_KINDS = ("pointwise", "zone")
REGION_KINDS = ("internal_rectangle", "boundary_segment")
# the closed-form zone weights; tabulated weights need samples, which only the API takes
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


def _bound(op: str, bound):
    test = {">": operator.gt, ">=": operator.ge}[op]
    return lambda value, section: None if test(value, bound) else f"be {op} {bound}"


def _count(values, n: int):
    return None if len(values) == n else f"have {n} values, got {len(values)}"


def _horizon(t_final: float, section):
    # the API's horizon rule: at least one step, and whole steps
    try:
        steps = _steps(section["dt"], t_final)
    except ValueError:
        return "be >= simulation.dt" if t_final < section["dt"] else "be a whole number of simulation.dt steps"
    # a run holds (steps + 1) samples of trajectory.csv's 4 + n_modes^2
    # columns in arrays that numpy must be able to index
    most = np.iinfo(np.intp).max // (4 + section["n_modes"] ** 2) - 1
    return None if steps <= most else f"be at most {most} simulation.dt steps at this simulation.n_modes"


# Rules of the flat sections, checked in field order on every value that is
# not None, defaults included.  A tuple lists the accepted strings; a
# function of the value and the section's values read so far (by field name)
# returns None, or the phrase that completes "<key> must ...".
_RULES = {
    "observer.target_margin": _bound(">", 0),
    "observer.margin": _bound(">=", 0),
    "observer.measured_field": lambda v, s: None if v in (1, 2) else "be 1 or 2",
    "observer.estimators": ESTIMATOR_CHOICES,
    "observer.gramian_horizon": _bound(">", 0),
    "simulation.n_modes": _bound(">=", 1),
    "simulation.dt": _bound(">", 0),
    "simulation.T": _horizon,
    "simulation.x0_seed": _bound(">=", 0),
    "simulation.x0_field1": lambda v, s: _count(v, s["n_modes"] ** 2),
    "simulation.x0_field2": lambda v, s: _count(v, s["n_modes"] ** 2),
    "simulation.estimator_init": ESTIMATOR_INIT_CHOICES,
    "output.norm": NORM_CHOICES,
    "output.fit_t_hi": lambda v, s: None if v > s["fit_t_lo"] else "be > output.fit_t_lo",
}
_RENAMED = {"t_final": "T"}
_SECTIONS = {
    "domain": Domain,
    "coefficients": Coefficients,
    "observer": ObserverSettings,
    "simulation": SimulationSettings,
    "output": OutputSettings,
}


def _reader(f) -> type:
    # a None default marks an optional number or list of numbers
    if f.default is not None:
        return type(f.default)
    return tuple if "tuple" in str(f.type) else float


# each flat section's (key, field name, reader, default), in echo order
_FIELDS = {
    section: tuple((f"{section}.{_RENAMED.get(f.name, f.name)}", f.name, _reader(f), f.default) for f in fields(cls))
    for section, cls in _SECTIONS.items()
}
# Region and sensor keys besides `kind` (and the region's `n_quad`) belong
# to one kind each.
_KIND_KEYS = {
    "region": {"internal_rectangle": ("rect",), "boundary_segment": ("edge", "from", "to", "collar_radius")},
    "sensor": {"pointwise": ("location",), "zone": ("rect", "weight")},
}
_KNOWN_KEYS = {
    **{section: tuple(key.split(".")[1] for key, *_ in spec) for section, spec in _FIELDS.items()},
    "region": ("kind", "n_quad", *(key for keys in _KIND_KEYS["region"].values() for key in keys)),
    "sensor": ("kind", *(key for keys in _KIND_KEYS["sensor"].values() for key in keys)),
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _collect(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        name, value = line.split("=", 1)
        name = name.strip()
        parts = name.split(".")
        if parts[0] == "sensor":
            # k = 1, 2, ... in ASCII digits, as the echo writes it
            if len(parts) != 3 or not (parts[1].isascii() and parts[1].isdigit()) or parts[1][0] == "0":
                raise ConfigError(f"line {lineno}: sensor keys look like 'sensor.<k>.<key>'")
            parts = parts[::2]  # known as sensor.<key>
        if len(parts) != 2 or parts[1] not in _KNOWN_KEYS.get(parts[0], ()):
            raise ConfigError(f"line {lineno}: unknown key '{name}'")
        if name in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{name}'")
        entries[name] = value.strip()
    return entries


def _convert(key: str, reader: type, raw: str):
    if reader is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} must be true or false, got {raw!r}")
    if reader is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if reader is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        return value
    if reader is tuple:
        try:
            values = tuple(float(part.strip()) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{key} must be a comma-separated list of numbers") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must contain finite numbers only")
        return values
    return raw


def _value(entries, key: str, reader: type, default=None, rule=None, section=None):
    """The key's value read by `reader` (its default when absent), checked by `rule`."""
    raw = entries.get(key)
    value = default if raw is None else _convert(key, reader, raw)
    if value is None or rule is None:
        return value
    if isinstance(rule, tuple):
        if value not in rule:
            raise ConfigError(f"{key} must be one of {', '.join(rule)}; got {value!r}")
    elif (why := rule(value, section)) is not None:
        raise ConfigError(f"{key} must {why}")
    return value


def _make(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError raised as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def _section(entries, section: str):
    values = {}
    for key, name, reader, default in _FIELDS[section]:
        values[name] = _value(entries, key, reader, default, _RULES.get(key), values)
    return _make(section, _SECTIONS[section], **values)


def _reject_other_kinds(entries, prefix: str, group: str, kind: str) -> None:
    for other, keys in _KIND_KEYS[group].items():
        for key in keys:
            if other != kind and f"{prefix}.{key}" in entries:
                raise ConfigError(f"{prefix}.{key} is not a key of {kind} {group}s")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, filling documented defaults."""
    entries = _collect(text)
    # sections in echo order, so the first bad key reported is the first one echoed
    domain = _section(entries, "domain")
    coefficients = _section(entries, "coefficients")
    region, collar_radius = _parse_region(entries, domain)
    sensors = _parse_sensors(entries, domain)
    observer, simulation, output = (_section(entries, section) for section in ("observer", "simulation", "output"))
    # the extreme modes bound every diagonal and rate of the run's model
    n = simulation.n_modes
    corners = ModeSet(tuple(dict.fromkeys((ModeIndex(1, 1), ModeIndex(n, n)))))
    _make("coefficients", assemble_exchange_model, coefficients, domain, corners)
    return ExperimentConfig(domain, coefficients, region, collar_radius, sensors, observer, simulation, output)


def _parse_region(entries, domain: Domain):
    n_quad = _value(entries, "region.n_quad", int, 64, _bound(">=", 1))
    kind = _value(entries, "region.kind", str, "internal_rectangle", REGION_KINDS)
    _reject_other_kinds(entries, "region", "region", kind)
    collar_radius = _value(entries, "region.collar_radius", float, 0.1, _bound(">", 0))
    if kind == "internal_rectangle":
        whole = (domain.alpha1, domain.beta1, domain.alpha2, domain.beta2)
        rect = _make("region.rect", Rect, *_value(entries, "region.rect", tuple, whole, lambda v, _: _count(v, 4)))
        if not rect.inside(domain):
            raise ConfigError("region.rect must lie inside the domain")
        return InternalRectangle(rect=rect, n_quad=n_quad), collar_radius
    edge = _value(entries, "region.edge", str, None, EDGES)
    if edge is None:
        raise ConfigError("region.edge is required for boundary_segment regions")
    lo = _value(entries, "region.from", float)
    hi = _value(entries, "region.to", float)
    if lo is None or hi is None:
        raise ConfigError("region.from and region.to are required for boundary_segment regions")
    region = _make("region", BoundarySegment, edge=edge, lo=lo, hi=hi, n_quad=n_quad)
    _make("region", edge_segment, domain, edge, lo, hi)
    return region, collar_radius


def _parse_sensors(entries, domain: Domain):
    indices = sorted({int(name.split(".")[1]) for name in entries if name.startswith("sensor.")})
    if indices and indices != list(range(1, len(indices) + 1)):
        raise ConfigError("sensor indices must be consecutive starting at 1")
    sensors = []
    for k in indices:
        prefix = f"sensor.{k}"
        kind = _value(entries, f"{prefix}.kind", str, None, SENSOR_KINDS)
        if kind is None:
            raise ConfigError(f"{prefix}.kind is required")
        _reject_other_kinds(entries, prefix, "sensor", kind)
        if kind == "pointwise":
            loc = _value(entries, f"{prefix}.location", tuple, None, lambda v, _: _count(v, 2))
            if loc is None:
                raise ConfigError(f"{prefix}.location is required for pointwise sensors")
            sensor = PointwiseSensor(location=loc)
        else:
            rect_vals = _value(entries, f"{prefix}.rect", tuple, None, lambda v, _: _count(v, 4))
            if rect_vals is None:
                raise ConfigError(f"{prefix}.rect is required for zone sensors")
            rect = _make(f"{prefix}.rect", Rect, *rect_vals)
            sensor = ZoneSensor(rect=rect, weight=_value(entries, f"{prefix}.weight", str, "uniform", CONFIG_WEIGHTS))
        _make(prefix, _check_sensor, sensor, domain)
        sensors.append(sensor)
    return tuple(sensors)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical normalized text; parse(render(cfg)) == cfg."""
    lines = []

    def put(key, value):
        lines.append(f"{key} = {_fmt(value)}")

    def put_sections(*sections):
        for section in sections:
            settings = getattr(cfg, section)
            for key, name, _, _ in _FIELDS[section]:
                value = getattr(settings, name)
                if value is not None:
                    put(key, value)

    put_sections("domain", "coefficients")
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
    put_sections("observer", "simulation", "output")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
