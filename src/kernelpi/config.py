"""Run configuration: strict YAML loading, validation, and round-trip dump.

The file format mirrors the RunConfig dataclass tree one-to-one.  Unknown
keys are rejected with their dotted path, and every invariant violation is
reported with the offending field path, so typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import yaml

from .intersection import ScenarioConfig
from .offline import SolverConfig
from .online import OnlineConfig

__all__ = [
    "ConfigError",
    "OnlineSection",
    "OracleSection",
    "ProbeSection",
    "RunConfig",
    "MODES",
    "load_config",
    "config_from_mapping",
    "dump_config",
    "seeded_solver",
    "online_config",
]

MODES = ("offline", "online", "oracle-compare", "complexity-probe")


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


@dataclass
class OnlineSection:
    window: int = 4
    ident_steps: int = 40
    sigma_excitation: float = 1.5
    m0_scale: float = 1.0e5
    forgetting: float = 1.0


@dataclass
class OracleSection:
    """Penalty-free linear-quadratic comparison instance."""

    horizon: int = 10
    samples: int = 100
    dt: float = 0.1
    n_vehicles: int = 2
    state_weight: float = 1.0
    control_weight: float = 1.0
    terminal_weight: float = 1.0
    position_range: Tuple[float, float] = (-2.0, 2.0)
    speed_range: Tuple[float, float] = (-1.0, 1.0)
    include_collision_penalty: bool = False
    scalar_check: bool = True


@dataclass
class ProbeSection:
    samples: int = 8
    dict_size: int = 6
    horizon: int = 6
    iterations: int = 2


@dataclass
class RunConfig:
    mode: str = "offline"
    seed: int = 0
    output_dir: str = "runs/out"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    online: OnlineSection = field(default_factory=OnlineSection)
    oracle: OracleSection = field(default_factory=OracleSection)
    probe: ProbeSection = field(default_factory=ProbeSection)


def _coerce(value: Any, typ: Any, path: str) -> Any:
    origin = get_origin(typ)
    if origin is Union:
        args = [a for a in get_args(typ) if a is not type(None)]
        if value is None:
            if type(None) in get_args(typ):
                return None
            raise ConfigError(f"{path}: null is not allowed")
        return _coerce(value, args[0], path)
    if dataclasses.is_dataclass(typ):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping")
        return _build_dataclass(typ, value, path)
    if origin in (tuple, Tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        args = get_args(typ)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if origin in (list, Sequence) or typ in (Sequence,):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        args = get_args(typ) or (float,)
        return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    return value


def _build_dataclass(cls, data: dict, path: str):
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {unknown}")
    kwargs = {}
    for key, value in data.items():
        sub = f"{path}.{key}" if path else key
        kwargs[key] = _coerce(value, hints[key], sub)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def config_from_mapping(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain mapping."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping")
    cfg = _build_dataclass(RunConfig, data, "")
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    """Load, parse, and validate a YAML run configuration."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: YAML parse error: {exc}") from exc
    if data is None:
        data = {}
    return config_from_mapping(data)


def seeded_solver(cfg: RunConfig) -> SolverConfig:
    """The solver settings with the run seed in place of the solver's own."""
    return dataclasses.replace(cfg.solver, seed=cfg.seed)


def online_config(cfg: RunConfig) -> OnlineConfig:
    """The online-loop settings of a run; raises ValueError on a violated invariant."""
    on = cfg.online
    return OnlineConfig(
        horizon=cfg.scenario.horizon,
        window=on.window,
        ident_steps=on.ident_steps,
        sigma_excitation=on.sigma_excitation,
        m0_scale=on.m0_scale,
        forgetting=on.forgetting,
        solver=seeded_solver(cfg),
        seed=cfg.seed,
    )


def _validate(cfg: RunConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: {cfg.mode!r} is not one of {MODES}")
    sc = cfg.scenario
    if sc.horizon < 1:
        raise ConfigError("scenario.horizon: must be >= 1")
    if not sc.dt > 0:
        raise ConfigError("scenario.dt: must be > 0")
    if not sc.intersection_length > 0:
        raise ConfigError("scenario.intersection_length: must be > 0")
    if not sc.safety_distance > 0:
        raise ConfigError("scenario.safety_distance: must be > 0")
    if not sc.softening > 0:
        raise ConfigError("scenario.softening: must be > 0")
    if sc.n_cav < 1:
        raise ConfigError("scenario.n_cav: need at least one CAV")
    if cfg.mode == "online":
        try:
            online_config(cfg)
        except ValueError as exc:
            raise ConfigError(f"online: {exc}") from exc
    if cfg.mode == "oracle-compare":
        oc = cfg.oracle
        if oc.horizon < 1 or oc.samples < 1 or oc.n_vehicles < 1:
            raise ConfigError("oracle: horizon, samples, n_vehicles must be >= 1")
        if not oc.dt > 0:
            raise ConfigError("oracle.dt: must be > 0")
        if not oc.control_weight > 0:
            raise ConfigError("oracle.control_weight: must be > 0")
    if cfg.mode == "complexity-probe":
        pr = cfg.probe
        if pr.samples < 2 or pr.dict_size < 1 or pr.horizon < 2 or pr.iterations < 1:
            raise ConfigError("probe: samples/horizon must be >= 2, dict_size/iterations >= 1")


def dump_config(cfg: RunConfig) -> dict:
    """Plain mapping mirroring the dataclass tree (tuples become lists)."""

    def convert(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: convert(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        return obj

    return convert(cfg)
