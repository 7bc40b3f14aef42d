"""Run configuration: strict YAML loading, validation, and round-trip dump.

The file format mirrors the RunConfig dataclass tree one-to-one.  Unknown
keys are rejected with their dotted path.  Each section dataclass checks its
own invariants when it is built, whatever the mode, and a violation is
reported with the section's path, so typos fail loudly instead of silently
falling back to defaults.  Only the checks that span sections live here.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Tuple, Union, get_args, get_origin, get_type_hints

import yaml

from .intersection import ScenarioConfig
from .offline import SolverConfig
from .online import OnlineConfig, OnlineSection

__all__ = [
    "ConfigError",
    "OracleSection",
    "ProbeSection",
    "RunConfig",
    "MODES",
    "load_config",
    "config_from_mapping",
    "dump_config",
    "online_config",
]

MODES = ("offline", "online", "oracle-compare", "complexity-probe")


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


@dataclass
class OracleSection:
    """Penalty-free linear-quadratic comparison instance.

    The comparison draws solver.mc_samples initial states from the position
    and speed boxes.
    """

    horizon: int = 10
    dt: float = 0.1
    n_vehicles: int = 2
    state_weight: float = 1.0
    control_weight: float = 1.0
    terminal_weight: float = 1.0
    position_range: Tuple[float, float] = (-2.0, 2.0)
    speed_range: Tuple[float, float] = (-1.0, 1.0)
    scalar_check: bool = True

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.n_vehicles < 1:
            raise ValueError("horizon and n_vehicles must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not self.control_weight > 0:
            raise ValueError("control_weight must be > 0")
        if not (self.state_weight >= 0 and self.terminal_weight >= 0):
            raise ValueError("state_weight and terminal_weight must be >= 0")
        for name in ("position_range", "speed_range"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must satisfy low <= high")


@dataclass
class ProbeSection:
    samples: int = 8
    dict_size: int = 6
    horizon: int = 6
    iterations: int = 2

    def __post_init__(self) -> None:
        if self.samples < 2 or self.dict_size < 1 or self.horizon < 2 or self.iterations < 1:
            raise ValueError("samples/horizon must be >= 2, dict_size/iterations >= 1")


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

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy's SeedSequence takes non-negative seeds only
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int no float can hold
            raise ConfigError(f"{path}: expected a finite number")
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


def online_config(cfg: RunConfig) -> OnlineConfig:
    """The online-loop settings of a run; raises ValueError on a violated invariant."""
    return OnlineConfig(
        **dataclasses.asdict(cfg.online),
        horizon=cfg.scenario.horizon,
        solver=cfg.solver,
        seed=cfg.seed,
    )


def _validate(cfg: RunConfig) -> None:
    """The checks that span sections; each section has checked itself."""
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: {cfg.mode!r} is not one of {MODES}")
    if cfg.mode == "online":
        try:
            online_config(cfg)
        except ValueError as exc:
            raise ConfigError(f"online: {exc}") from exc
        # run_online plans on its prior model, A = 0 and B = 0, when it
        # identifies nothing, and a config file cannot give it a theta0;
        # without excitation no regressor has an input part, so B stays 0
        if cfg.online.ident_steps == 0:
            raise ConfigError(
                "online.ident_steps: must be >= 1: a config file gives no prior model to plan on"
            )
        if cfg.online.sigma_excitation == 0:
            raise ConfigError(
                "online.sigma_excitation: must be > 0: without excitation the input matrix "
                "stays at its prior, 0"
            )


def dump_config(cfg: RunConfig) -> dict:
    """Plain mapping mirroring the dataclass tree (tuples become lists)."""

    def convert(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: convert(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        return obj

    return convert(cfg)
