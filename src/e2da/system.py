"""The system a simulation runs on: its channels and nodes, checked when
built, and the time, energy and fair-share formulas that the simulator and
its projections share.

This module holds no simulator, so reading a config or replaying a dataset
never loads one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SimulationError
from .workload import DistributionSpec, Uniform


# Each check below takes one decision's floats or a column's equal-length
# arrays.  It tests every element at once and, when one fails, raises the
# error that one decision's floats would raise for the first failing
# decision.


def _first_failed(failed, *values) -> tuple:
    """`values` as the first decision that failed a check saw them: one
    decision's own, or a column's elements at the first set element of
    `failed` (a value shared by the column stays as it is)."""
    if not isinstance(failed, np.ndarray):
        return values
    i = int(failed.argmax())
    return tuple(v[i] if isinstance(v, np.ndarray) else v for v in values)


def exec_time(size_bits, intensity_cpb, cpu_hz):
    """Seconds to run size * intensity cycles at cpu_hz cycles/s."""
    failed = (size_bits <= 0) | (intensity_cpb <= 0) | (cpu_hz <= 0)
    if failed.any() if isinstance(failed, np.ndarray) else failed:
        raise ValueError(
            "exec_time needs positive inputs, got size={}, intensity={}, cpu_hz={}".format(
                *_first_failed(failed, size_bits, intensity_cpb, cpu_hz)
            )
        )
    return size_bits * intensity_cpb / cpu_hz


def cpu_energy(kappa, size_bits, intensity_cpb, cpu_hz):
    """Joules burned computing locally: kappa * cycles * f^2."""
    failed = (kappa <= 0) | (size_bits <= 0) | (intensity_cpb <= 0) | (cpu_hz <= 0)
    if failed.any() if isinstance(failed, np.ndarray) else failed:
        raise ValueError(
            "cpu_energy needs positive inputs, got kappa={}, size={}, intensity={}, "
            "cpu_hz={}".format(*_first_failed(failed, kappa, size_bits, intensity_cpb, cpu_hz))
        )
    return kappa * size_bits * intensity_cpb * cpu_hz * cpu_hz


def radio_energy(duration_s, power_w):
    """Joules the radio spends sending or receiving for duration_s at power_w."""
    failed = (duration_s < 0) | (power_w < 0)
    if failed.any() if isinstance(failed, np.ndarray) else failed:
        raise ValueError(
            "radio_energy needs non-negative inputs, got {}, {}".format(
                *_first_failed(failed, duration_s, power_w)
            )
        )
    return duration_s * power_w


def fair_share_rate(nominal_bps, gain, n_active):
    """Instantaneous rate of one transmitter under egalitarian sharing."""
    # gain != gain: a NaN gain fails, as it fails `0 < gain <= 1`
    failed = (n_active < 1) | (gain <= 0.0) | (gain > 1.0) | (gain != gain) | (nominal_bps <= 0)
    if failed.any() if isinstance(failed, np.ndarray) else failed:
        nominal_bps, gain, n_active = _first_failed(failed, nominal_bps, gain, n_active)
        if n_active < 1:
            raise SimulationError(f"n_active must be >= 1, got {n_active}")
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {gain}")
        raise ValueError(f"nominal_bps must be > 0, got {nominal_bps}")
    return gain * nominal_bps / n_active


@dataclass(frozen=True)
class ChannelConfig:
    """One carrier: nominal rates, transmit/receive powers, gain draw rule."""

    uplink_rate_bps: float
    downlink_rate_bps: float
    uplink_power_w: float
    downlink_power_w: float
    gain: DistributionSpec = field(default_factory=lambda: Uniform(0.6, 1.0))
    carrier_mhz: float = 0.0

    def __post_init__(self) -> None:
        for f_name in ("uplink_rate_bps", "downlink_rate_bps", "uplink_power_w", "downlink_power_w"):
            if not 0 < getattr(self, f_name) < math.inf:
                raise ConfigError(f"{f_name} must be finite and > 0, got {getattr(self, f_name)}")
        sup = self.gain.support()
        if sup is None or sup[0] <= 0.0 or sup[1] > 1.0:
            raise ConfigError(f"gain support must lie in (0, 1], got {sup}")


def default_channels() -> Tuple[ChannelConfig, ...]:
    """Three carriers with increasing nominal rate and radio power."""
    rows = [
        (700.0, 10e6, 10e6, 0.8, 0.4),
        (1500.0, 30e6, 30e6, 1.0, 0.5),
        (2600.0, 75e6, 75e6, 1.2, 0.6),
    ]
    return tuple(
        ChannelConfig(
            uplink_rate_bps=up,
            downlink_rate_bps=dn,
            uplink_power_w=pu,
            downlink_power_w=pd,
            carrier_mhz=mhz,
        )
        for mhz, up, dn, pu, pd in rows
    )


@dataclass(frozen=True)
class NodeConfig:
    """Population sizes, CPU speeds, energy constant, result size rule.
    An absent association puts user k at base station k % n_base_stations;
    the field holds the resolved tuple once built."""

    n_users: int = 5
    n_base_stations: int = 3
    n_channels: int = 3
    user_cpu_hz: float = 1e9
    edge_vm_hz: float = 4e9
    kappa_j_per_cycle_hz2: float = 1e-27
    result_size_ratio: float = 0.1
    association: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for f_name in ("n_users", "n_base_stations", "n_channels"):
            if getattr(self, f_name) < 1:
                raise ConfigError(f"{f_name} must be >= 1, got {getattr(self, f_name)}")
        for f_name in ("user_cpu_hz", "edge_vm_hz", "kappa_j_per_cycle_hz2"):
            if not 0 < getattr(self, f_name) < math.inf:
                raise ConfigError(f"{f_name} must be finite and > 0, got {getattr(self, f_name)}")
        if not 0 <= self.result_size_ratio < math.inf:
            raise ConfigError(
                f"result_size_ratio must be finite and >= 0, got {self.result_size_ratio}"
            )
        assoc = self.association
        if assoc is None:
            assoc = [k % self.n_base_stations for k in range(self.n_users)]
        object.__setattr__(self, "association", tuple(int(b) for b in assoc))
        if len(self.association) != self.n_users:
            raise ConfigError(
                f"association must map all {self.n_users} users, got {len(assoc)} entries"
            )
        for k, bs in enumerate(self.association):
            if not 0 <= bs < self.n_base_stations:
                raise ConfigError(f"association[{k}] = {bs} is not a base station index")


def check_fair_shares(node: NodeConfig, channels: Sequence[ChannelConfig]) -> None:
    """Reject a channel whose least fair share rounds to 0 bps, which would
    divide by zero.  A share is least at the lowest gain with the most
    members: the users of the busiest base station on an uplink, every
    base station on a downlink."""
    members = {"uplink": int(np.bincount(node.association).max()),
               "downlink": node.n_base_stations}
    for i, ch in enumerate(channels):
        gain = ch.gain.support()[0]
        for leg, n in members.items():
            nominal = getattr(ch, f"{leg}_rate_bps")
            if fair_share_rate(nominal, gain, n) == 0.0:
                raise ConfigError(
                    f"channels[{i}]: the {leg} share of {n} stations at gain {gain} "
                    f"and {nominal} bps rounds to 0 bps"
                )
