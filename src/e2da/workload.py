"""Task generation: arrival processes, task feature sampling, context scaling.

Each user owns an independent substream derived from (master seed, user id),
so one user's draws never shift another's and any stream can be regenerated
in isolation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import ClassVar, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .rng import Uniforms, substream

_SMALLEST_POSITIVE = 5e-324  # np.nextafter(0, 1); guards log(0)
_FEATURES = ("size_bits", "intensity_cpb", "deadline_s")  # context order
# a Task's raw features, or a Dataset's feature columns, in context order
_features_of = attrgetter(*_FEATURES)


class DistributionSpec:
    """A scalar sampling rule: Uniform, Constant or Exponential.  Each kind
    is a frozen dataclass whose fields are its config keys; `kind` names it
    in a config.  Uniform and Exponential consume one draw per sample,
    Constant consumes none."""

    kind: ClassVar[str]

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def support(self) -> Optional[Tuple[float, float]]:
        """Bounded support if the kind has one, else None."""
        return None


@dataclass(frozen=True)
class Uniform(DistributionSpec):
    min: float
    max: float
    kind: ClassVar[str] = "uniform"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.min < self.max:
            raise ConfigError(f"max must be > min, got [{self.min}, {self.max}]")

    def sample(self, rng: np.random.Generator) -> float:
        return self.min + (self.max - self.min) * rng.random()

    def support(self) -> Optional[Tuple[float, float]]:
        return (self.min, self.max)


@dataclass(frozen=True)
class Constant(DistributionSpec):
    value: float
    kind: ClassVar[str] = "constant"

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def support(self) -> Optional[Tuple[float, float]]:
        return (self.value, self.value)


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    mean: float
    kind: ClassVar[str] = "exponential"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.mean > 0:
            raise ConfigError(f"mean must be > 0, got {self.mean}")

    def sample(self, rng: np.random.Generator) -> float:
        return _standard_exponential(rng) * self.mean


class Task(NamedTuple):
    task_id: int
    user_id: int
    arrival_time: float  # s
    size_bits: float
    intensity_cpb: float  # cycles per bit
    deadline_s: float


@dataclass(frozen=True)
class WorkloadConfig:
    """Per-user arrival rate plus the three task feature distributions.

    context_bounds holds (min, max) per feature in (size, intensity,
    deadline) order; when omitted it is derived from the feature
    distributions, which then must have bounded, non-degenerate support.
    The field holds the resolved bounds once built.
    """

    arrival_rate_per_s: float = 40.0
    size_bits: DistributionSpec = field(default_factory=lambda: Uniform(10.0, 75_000.0))
    intensity_cpb: DistributionSpec = field(default_factory=lambda: Uniform(10.0, 1000.0))
    deadline_s: DistributionSpec = field(default_factory=lambda: Uniform(0.010, 0.018))
    context_bounds: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if not 0 < self.arrival_rate_per_s < math.inf:
            raise ConfigError(
                f"arrival_rate_per_s must be finite and > 0, got {self.arrival_rate_per_s}"
            )
        for name in _FEATURES:
            sup = getattr(self, name).support()
            if sup is not None and sup[0] <= 0:
                raise ConfigError(f"{name}: support must be positive, got min {sup[0]}")
        bounds = self.context_bounds
        if bounds is None:
            bounds = []
            for name in _FEATURES:
                sup = getattr(self, name).support()
                if sup is None or sup[0] == sup[1]:
                    raise ConfigError(
                        f"context_bounds must be given explicitly: {name} has "
                        "unbounded or degenerate support"
                    )
                bounds.append(sup)
        elif len(bounds) != 3:
            raise ConfigError(f"context_bounds needs 3 (min, max) pairs, got {len(bounds)}")
        object.__setattr__(
            self, "context_bounds", tuple((float(lo), float(hi)) for lo, hi in bounds)
        )
        for i, (lo, hi) in enumerate(self.context_bounds):
            if not -math.inf < lo < hi < math.inf:
                raise ConfigError(
                    f"context_bounds[{i}] must be finite with min < max, got ({lo}, {hi})"
                )

    def context_scale(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower bound and width of each feature's context bounds, the scale
        normalize_context takes."""
        lo, hi = np.asarray(self.context_bounds).T
        return lo, hi - lo


def _standard_exponential(rng: np.random.Generator) -> float:
    """-log(u) of one uniform draw u, with u = 0 read as the smallest
    positive double."""
    u = rng.random()
    if u <= 0.0:
        u = _SMALLEST_POSITIVE
    return -math.log(u)


def sample_interarrival(rng: np.random.Generator, rate_per_s: float) -> float:
    """Exponential gap via inverse CDF; consumes exactly one uniform draw."""
    if not rate_per_s > 0:
        raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
    return _standard_exponential(rng) / rate_per_s


def sample_task(
    rng: np.random.Generator,
    cfg: WorkloadConfig,
    arrival_time: float,
    user_id: int,
    task_id: int,
) -> Task:
    """Draw (size, intensity, deadline) in that fixed order."""
    size = cfg.size_bits.sample(rng)
    intensity = cfg.intensity_cpb.sample(rng)
    deadline = cfg.deadline_s.sample(rng)
    return Task(task_id, user_id, arrival_time, size, intensity, deadline)


def task_stream(
    cfg: WorkloadConfig,
    master_seed: int,
    user_id: int,
    n_users: int,
) -> Iterator[Task]:
    """Endless Poisson task stream for one user.

    Task ids are seq * n_users + user_id: globally unique and strictly
    increasing with arrival time inside the stream.  The stream draws its
    uniforms in blocks (see Uniforms), with the same values as one scalar
    draw each.
    """
    rng = Uniforms(substream(master_seed, "workload", user_id))
    t = 0.0
    seq = 0
    while True:
        t += sample_interarrival(rng, cfg.arrival_rate_per_s)
        yield sample_task(rng, cfg, t, user_id, seq * n_users + user_id)
        seq += 1


def arrivals(cfg: WorkloadConfig, master_seed: int, n_users: int) -> Iterator[Task]:
    """Every user's task_stream merged into one endless feed in arrival
    order; tasks that arrive at the same instant come in user order.  The
    feed holds one drawn task per user, and a user's stream draws again
    only when the feed is asked for the task after that user's last."""
    streams = [task_stream(cfg, master_seed, u, n_users) for u in range(n_users)]
    return heapq.merge(*streams, key=attrgetter("arrival_time"))


def normalize_context(features, scale) -> np.ndarray:
    """Min-max scale (size, intensity, deadline) to [0, 1], clamping
    features that fall outside the bounds; scale is the (lo, span) pair
    WorkloadConfig.context_scale() gives.  features holds the three raw
    features on its last axis: one task's, or one row per task, as a
    replay scales its dataset and a live run each episode's tasks."""
    lo, span = scale
    x = np.subtract(features, lo)
    x /= span
    return x.clip(0.0, 1.0, out=x)
