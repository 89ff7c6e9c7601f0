"""Task generation: arrival processes, task feature sampling, context scaling.

Each user owns an independent substream derived from (master seed, user id),
so one user's draws never shift another's and any stream can be regenerated
in isolation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .rng import Uniforms, substream

_SMALLEST_POSITIVE = 5e-324  # np.nextafter(0, 1); guards log(0)
_FEATURES = ("size_bits", "intensity_cpb", "deadline_s")  # context order


@dataclass(frozen=True)
class DistributionSpec:
    """A scalar sampling rule: uniform(min, max), constant(value), or
    exponential(mean).  uniform and exponential consume one draw per
    sample, constant consumes none."""

    kind: str
    minimum: float = 0.0
    maximum: float = 0.0
    value: float = 0.0
    mean: float = 0.0

    def __post_init__(self) -> None:
        for f_name in ("minimum", "maximum", "value", "mean"):
            if not math.isfinite(getattr(self, f_name)):
                raise ConfigError(f"{f_name} must be finite, got {getattr(self, f_name)}")
        if self.kind not in ("uniform", "constant", "exponential"):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform" and not self.minimum < self.maximum:
            raise ConfigError(f"uniform needs min < max, got [{self.minimum}, {self.maximum}]")
        if self.kind == "exponential" and not self.mean > 0:
            raise ConfigError(f"exponential needs mean > 0, got {self.mean}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "uniform":
            return self.minimum + (self.maximum - self.minimum) * rng.random()
        if self.kind == "constant":
            return self.value
        u = rng.random()
        if u <= 0.0:
            u = _SMALLEST_POSITIVE
        return -math.log(u) * self.mean

    def support(self) -> Optional[Tuple[float, float]]:
        """Bounded support if the kind has one, else None."""
        if self.kind == "uniform":
            return (self.minimum, self.maximum)
        if self.kind == "constant":
            return (self.value, self.value)
        return None

    @staticmethod
    def uniform(minimum: float, maximum: float) -> "DistributionSpec":
        return DistributionSpec("uniform", minimum=minimum, maximum=maximum)

    @staticmethod
    def constant(value: float) -> "DistributionSpec":
        return DistributionSpec("constant", value=value)

    @staticmethod
    def exponential(mean: float) -> "DistributionSpec":
        return DistributionSpec("exponential", mean=mean)


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
    """

    arrival_rate_per_s: float = 40.0
    size_bits: DistributionSpec = field(
        default_factory=lambda: DistributionSpec.uniform(10.0, 75_000.0)
    )
    intensity_cpb: DistributionSpec = field(
        default_factory=lambda: DistributionSpec.uniform(10.0, 1000.0)
    )
    deadline_s: DistributionSpec = field(
        default_factory=lambda: DistributionSpec.uniform(0.010, 0.018)
    )
    context_bounds: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if not self.arrival_rate_per_s > 0:
            raise ConfigError(
                f"arrival_rate_per_s must be > 0, got {self.arrival_rate_per_s}"
            )
        for name in _FEATURES:
            sup = getattr(self, name).support()
            if sup is not None and sup[0] <= 0:
                raise ConfigError(f"{name}: support must be positive, got min {sup[0]}")
        bounds = self.resolved_context_bounds()
        for i, (lo, hi) in enumerate(bounds):
            if not -math.inf < lo < hi < math.inf:
                raise ConfigError(
                    f"context_bounds[{i}] must be finite with min < max, got ({lo}, {hi})"
                )

    def resolved_context_bounds(self) -> Tuple[Tuple[float, float], ...]:
        if self.context_bounds is not None:
            if len(self.context_bounds) != 3:
                raise ConfigError(
                    f"context_bounds needs 3 (min, max) pairs, got {len(self.context_bounds)}"
                )
            return tuple((float(lo), float(hi)) for lo, hi in self.context_bounds)
        bounds = []
        for name in _FEATURES:
            sup = getattr(self, name).support()
            if sup is None or sup[0] == sup[1]:
                raise ConfigError(
                    f"context_bounds must be given explicitly: {name} has "
                    "unbounded or degenerate support"
                )
            bounds.append(sup)
        return tuple(bounds)

    def context_scale(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower bound and width of each feature's context bounds, the scale
        normalize_context takes."""
        lo, hi = np.asarray(self.resolved_context_bounds()).T
        return lo, hi - lo


def sample_interarrival(rng: np.random.Generator, rate_per_s: float) -> float:
    """Exponential gap via inverse CDF; consumes exactly one uniform draw."""
    if not rate_per_s > 0:
        raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
    u = rng.random()
    if u <= 0.0:
        u = _SMALLEST_POSITIVE
    return -math.log(u) / rate_per_s


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
    features on its last axis: one task's, or one row per task.  A tuple
    of one task's floats is scaled in Python floats, with the same
    arithmetic and clip's handling of -0.0 and NaN (both kept)."""
    lo, span = scale
    if type(features) is tuple:
        x = []
        for f, a, s in zip(features, lo.tolist(), span.tolist()):
            v = (f - a) / s
            x.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        return np.array(x)
    x = np.subtract(features, lo)
    x /= span
    return x.clip(0.0, 1.0, out=x)
