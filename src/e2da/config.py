"""JSON run configuration: parsing, strict validation, default filling.

Field names carry their units (bps, Hz, W, s, bits) because unit mistakes
are the usual way these experiments go quietly wrong.  Every section
mirrors one dataclass: its keys are the field names, each value is
checked against its field's type, and absent keys take the field
defaults.  Each dataclass checks its own values when built, and
read_section puts the section's key path in front of its message.
Unknown keys are rejected rather than ignored so typos surface as errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .ioutil import read_json
from .system import ChannelConfig, NodeConfig, check_fair_shares, default_channels
from .workload import Constant, DistributionSpec, Exponential, Uniform, WorkloadConfig

MODES = ("dataset", "live")
AGENT_SCOPES = ("shared", "per_user")
# sweep axis -> the workload distribution it rescales
SWEEP_AXES = {"intensity": "intensity_cpb", "size": "size_bits"}
# a distribution object's `kind` -> the class its other keys build
_DISTRIBUTIONS = {cls.kind: cls for cls in (Uniform, Constant, Exponential)}


@dataclass(frozen=True)
class RewardConfig:
    efficiency_scale_bits_per_j_s: Optional[float] = None  # None means calibrate
    calibration_percentile: float = 99.0

    def __post_init__(self) -> None:
        scale = self.efficiency_scale_bits_per_j_s
        if scale is not None and scale <= 0:
            raise ConfigError(f"efficiency_scale_bits_per_j_s must be > 0, got {scale}")
        if not 0 < self.calibration_percentile <= 100:
            raise ConfigError(
                "calibration_percentile must be in (0, 100], "
                f"got {self.calibration_percentile}"
            )


@dataclass(frozen=True)
class AgentConfig:
    hidden_sizes: Tuple[int, ...] = (50, 50)
    learning_rate: float = 1e-3
    rmsprop_decay: float = 0.99
    rmsprop_eps: float = 1e-8
    minibatch_size: int = 64
    train_steps_per_observation: int = 1
    buffer_capacity: int = 50_000
    epsilon0: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.01
    penalty: float = 1.0
    init_scale: Optional[float] = None
    retrain_from_scratch: bool = False

    def __post_init__(self) -> None:
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        for f_name in ("learning_rate", "rmsprop_eps"):
            if not getattr(self, f_name) > 0:
                raise ConfigError(f"{f_name} must be > 0, got {getattr(self, f_name)}")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ConfigError(f"rmsprop_decay must be in (0, 1), got {self.rmsprop_decay}")
        for f_name in ("minibatch_size", "train_steps_per_observation", "buffer_capacity"):
            if getattr(self, f_name) <= 0:
                raise ConfigError(f"{f_name} must be > 0, got {getattr(self, f_name)}")
        for f_name in ("epsilon0", "epsilon_decay", "epsilon_min"):
            v = getattr(self, f_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{f_name} must be in [0, 1], got {v}")
        if not 0 <= self.penalty < math.inf:
            raise ConfigError(f"penalty must be finite and >= 0, got {self.penalty}")
        if self.init_scale is not None and self.init_scale <= 0:
            raise ConfigError(f"init_scale must be > 0, got {self.init_scale}")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "dataset"
    seed: int = 0
    n_records: int = 32_565
    n_train_episodes: int = 1000
    n_test_episodes: int = 100
    tasks_per_episode: int = 100
    agent_scope: str = "shared"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for f_name in ("n_records", "n_train_episodes", "n_test_episodes", "tasks_per_episode"):
            if getattr(self, f_name) < 1:
                raise ConfigError(f"{f_name} must be >= 1, got {getattr(self, f_name)}")
        if self.agent_scope not in AGENT_SCOPES:
            raise ConfigError(
                f"agent_scope must be one of {AGENT_SCOPES}, got {self.agent_scope!r}"
            )
        if self.agent_scope == "per_user" and self.mode != "dataset":
            raise ConfigError(
                "agent_scope 'per_user' partitions dataset records by user "
                "and therefore requires run.mode 'dataset'"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per JSON section.  Absent channels select the first
    system.n_channels carriers of the three in default_channels()."""

    system: NodeConfig = field(default_factory=NodeConfig)
    channels: Optional[Tuple[ChannelConfig, ...]] = None
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        n = self.system.n_channels
        if self.channels is None:
            object.__setattr__(self, "channels", default_channels()[:n])
        if len(self.channels) != n:
            raise ConfigError(
                f"channels has {len(self.channels)} entries but system.n_channels is {n}"
            )
        check_fair_shares(self.system, self.channels)


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _is_number(raw) -> bool:
    """Whether raw is a finite float or an integer within the float range."""
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    return number and abs(raw) <= sys.float_info.max


# scalar type -> (what the message asks for, whether a JSON value qualifies)
_SCALARS = {
    bool: ("true or false", lambda raw: isinstance(raw, bool)),
    int: ("an integer a float can hold", lambda raw: _is_number(raw) and float(raw).is_integer()),
    float: ("a finite number", _is_number),
    str: ("a string", lambda raw: isinstance(raw, str)),
}


def read_value(raw, hint, where: str):
    """The JSON value `raw` checked against the type `hint` and converted."""
    if hint is DistributionSpec:
        if not isinstance(raw, dict):
            raise ConfigError(f"{where} must be an object with a 'kind'")
        params = dict(raw)
        kind = params.pop("kind", None)
        if not isinstance(kind, str) or kind not in _DISTRIBUTIONS:
            raise ConfigError(f"{where}.kind must be uniform/constant/exponential, got {kind!r}")
        return read_section(_DISTRIBUTIONS[kind], params, where)
    if is_dataclass(hint):
        return read_section(hint, raw, where)
    args = get_args(hint)
    if get_origin(hint) is Union:  # Optional[X]
        return None if raw is None else read_value(raw, args[0], where)
    if get_origin(hint) is tuple:
        if not isinstance(raw, list):
            raise ConfigError(f"{where} must be a list, got {raw!r}")
        items = args[:1] * len(raw) if args[-1] is Ellipsis else args
        if len(items) != len(raw):
            raise ConfigError(f"{where} must list {len(items)} entries, got {len(raw)}")
        return tuple(read_value(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(raw, items)))
    wanted, accepts = _SCALARS[hint]
    if not accepts(raw):
        raise ConfigError(f"{where} must be {wanted}, got {raw!r}")
    return hint(raw)


def read_section(cls, raw, where: str):
    """One dataclass from its JSON object; `where` is its key path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    by_key = {f.name: f for f in fields(cls)}
    _require_keys(raw, by_key, where or "config")
    hints = get_type_hints(cls)
    values = {}
    for key, f in by_key.items():
        path = f"{where}.{key}" if where else key
        if key in raw:
            values[key] = read_value(raw[key], hints[key], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required field {key!r}")
    try:
        return cls(**values)
    except ConfigError as exc:  # the message starts with the field's name
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return read_section(ExperimentConfig, raw, "")


def load_config(path: str) -> ExperimentConfig:
    raw = read_json(path)  # its errors already name the path
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def to_json(value):
    """`value` as JSON data: a dataclass becomes an object keyed as in a
    config file, a tuple a list."""
    if is_dataclass(value):
        obj = {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
        return {"kind": value.kind, **obj} if isinstance(value, DistributionSpec) else obj
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


def with_sweep_value(cfg: ExperimentConfig, axis: str, mean_value: float) -> ExperimentConfig:
    """Scenario config with one workload mean replaced.

    The swept feature keeps its lower bound of 10 and gets max = 2 * mean - 10,
    preserving the uniform shape while hitting the requested mean.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if mean_value <= 10:
        raise ConfigError(f"sweep mean must be > 10, got {mean_value}")
    feature = SWEEP_AXES[axis]
    try:
        dist = Uniform(10.0, 2.0 * mean_value - 10.0)
        workload = replace(cfg.workload, context_bounds=None, **{feature: dist})
    except ConfigError as exc:
        raise ConfigError(f"workload.{feature}: {exc}") from None
    return replace(cfg, workload=workload)
