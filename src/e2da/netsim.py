"""Discrete-event simulator of local execution and offloading through shared
wireless channels to per-user edge VMs.

Route of an offloaded task: per-(user, channel) uplink FIFO, transmission
under egalitarian processor sharing with the other active uplinks on the
same (base station, channel), dedicated edge VM FIFO, then a per-(base
station, channel) downlink FIFO for the result, shared across base stations
active on that channel.  Local tasks run on the user's own CPU FIFO.

Every queue is FIFO and unbounded; servers never idle while their queue is
non-empty.  Both transmission legs run through one path: a sharing domain
re-splits its nominal rate whenever a transmitter starts, settling in-flight
progress as residual bits, and latches each member's finish time.  A domain
keeps one live calendar event, the completion of its earliest finisher (ties
in member order).  A departure with no successor in its queue leaves the
rates as they are until a re-split at the same instant; members whose latched
finish equals that instant leave first, in member order.  A re-latch
supersedes the domain's pending event, which is ignored when popped.

Projected and realized outcomes come from one builder that owns the energy
model: kappa * cycles * f^2 for a local run, radio power times airtime on
both legs of an offload, and the deadline verdict on the total.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SimulationError
from .workload import DistributionSpec, Task


def exec_time(size_bits: float, intensity_cpb: float, cpu_hz: float) -> float:
    """Seconds to run size * intensity cycles at cpu_hz cycles/s."""
    if size_bits <= 0 or intensity_cpb <= 0 or cpu_hz <= 0:
        raise ValueError(
            f"exec_time needs positive inputs, got size={size_bits}, "
            f"intensity={intensity_cpb}, cpu_hz={cpu_hz}"
        )
    return size_bits * intensity_cpb / cpu_hz


def cpu_energy(kappa: float, size_bits: float, intensity_cpb: float, cpu_hz: float) -> float:
    """Joules burned computing locally: kappa * cycles * f^2."""
    if kappa <= 0 or size_bits <= 0 or intensity_cpb <= 0 or cpu_hz <= 0:
        raise ValueError(
            f"cpu_energy needs positive inputs, got kappa={kappa}, size={size_bits}, "
            f"intensity={intensity_cpb}, cpu_hz={cpu_hz}"
        )
    return kappa * size_bits * intensity_cpb * cpu_hz * cpu_hz


def radio_energy(duration_s: float, power_w: float) -> float:
    """Joules the radio spends sending or receiving for duration_s at power_w."""
    if duration_s < 0 or power_w < 0:
        raise ValueError(f"radio_energy needs non-negative inputs, got {duration_s}, {power_w}")
    return duration_s * power_w


def fair_share_rate(nominal_bps: float, gain: float, n_active: int) -> float:
    """Instantaneous rate of one transmitter under egalitarian sharing."""
    if n_active < 1:
        raise SimulationError(f"n_active must be >= 1, got {n_active}")
    if not 0.0 < gain <= 1.0:
        raise ValueError(f"gain must be in (0, 1], got {gain}")
    if nominal_bps <= 0:
        raise ValueError(f"nominal_bps must be > 0, got {nominal_bps}")
    return gain * nominal_bps / n_active


@dataclass(frozen=True)
class ChannelConfig:
    """One carrier: nominal rates, transmit/receive powers, gain draw rule."""

    uplink_rate_bps: float
    downlink_rate_bps: float
    uplink_power_w: float
    downlink_power_w: float
    gain: DistributionSpec = field(default_factory=lambda: DistributionSpec.uniform(0.6, 1.0))
    carrier_mhz: float = 0.0

    def validate(self, name: str = "channel") -> None:
        for f_name in ("uplink_rate_bps", "downlink_rate_bps", "uplink_power_w", "downlink_power_w"):
            if getattr(self, f_name) <= 0:
                raise ConfigError(f"{name}.{f_name} must be > 0, got {getattr(self, f_name)}")
        self.gain.validate(f"{name}.gain")
        sup = self.gain.support()
        if sup is None or sup[0] <= 0.0 or sup[1] > 1.0:
            raise ConfigError(f"{name}.gain support must lie in (0, 1], got {sup}")


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
    """Population sizes, CPU speeds, energy constant, result size rule."""

    n_users: int = 5
    n_base_stations: int = 3
    n_channels: int = 3
    user_cpu_hz: float = 1e9
    edge_vm_hz: float = 4e9
    kappa: float = 1e-27
    result_size_ratio: float = 0.1
    association: Optional[Tuple[int, ...]] = None

    def validate(self) -> None:
        for f_name in ("n_users", "n_base_stations", "n_channels"):
            if getattr(self, f_name) < 1:
                raise ConfigError(f"{f_name} must be >= 1, got {getattr(self, f_name)}")
        for f_name in ("user_cpu_hz", "edge_vm_hz", "kappa"):
            if getattr(self, f_name) <= 0:
                raise ConfigError(f"{f_name} must be > 0, got {getattr(self, f_name)}")
        if self.result_size_ratio < 0:
            raise ConfigError(f"result_size_ratio must be >= 0, got {self.result_size_ratio}")
        assoc = self.resolved_association()
        if len(assoc) != self.n_users:
            raise ConfigError(
                f"association must map all {self.n_users} users, got {len(assoc)} entries"
            )
        for k, bs in enumerate(assoc):
            if not 0 <= bs < self.n_base_stations:
                raise ConfigError(f"association[{k}] = {bs} is not a base station index")

    def resolved_association(self) -> Tuple[int, ...]:
        if self.association is not None:
            return tuple(int(b) for b in self.association)
        return tuple(k % self.n_base_stations for k in range(self.n_users))


class EventKind(IntEnum):
    TASK_ARRIVAL = 0
    LOCAL_EXEC_DONE = 1
    EDGE_EXEC_DONE = 2
    CHANNEL = 3  # a sharing domain's completion or re-split


@dataclass(frozen=True)
class TaskOutcome:
    """Realized (or projected) fate of one task: timing decomposition,
    energy decomposition, and deadline verdict.  action 0 is local, action
    c in 1..C is offloading through channel c."""

    task_id: int
    user_id: int
    action: int
    arrival_s: float
    size_bits: float
    intensity_cpb: float
    deadline_s: float
    d1_s: float
    d2_s: float
    d3_s: float
    d4_s: float
    t_exec_s: float
    t_up_s: float
    t_down_s: float
    total_s: float
    e_cpu_j: float
    e_tx_j: float
    e_rx_j: float
    e_total_j: float
    met_deadline: bool


class _Job:
    __slots__ = (
        "task",
        "action",
        "gains",
        "result_bits",
        "enq_t",
        "d1",
        "d2",
        "d3",
        "d4",
        "t_exec",
        "t_up",
        "t_down",
        "start_t",
        "done_t",
    )

    def __init__(self, task: Task, action: int, gains: Tuple[float, ...], result_bits: float):
        self.task = task
        self.action = action
        self.gains = gains
        self.result_bits = result_bits
        self.enq_t = 0.0
        self.d1 = 0.0
        self.d2 = 0.0
        self.d3 = 0.0
        self.d4 = 0.0
        self.t_exec = 0.0
        self.t_up = 0.0
        self.t_down = 0.0
        self.start_t = 0.0
        self.done_t = 0.0


class _Tx:
    """An in-flight transmission inside one sharing domain."""

    __slots__ = ("job", "gain", "residual", "rate", "last_settle", "elapsed", "finish", "queue_key")

    def __init__(self, job: _Job, gain: float, residual: float, queue_key):
        self.job = job
        self.gain = gain
        self.residual = residual
        self.rate = 0.0
        self.last_settle = 0.0
        self.elapsed = 0.0
        self.finish = 0.0
        self.queue_key = queue_key


class _Domain:
    """Processor-sharing cell: the transmitters that split one nominal rate.

    `queues` and `slots` are its leg's FIFO and in-service tables, keyed by
    a transmitter's queue_key.  `event` is the domain's one live calendar
    entry: the completion of `due`, the member with the earliest latched
    finish (ties in member order), or a re-split of the rate when `due` is
    None.  After a departure without a successor, members latched to finish
    at that instant leave first, then the rate is re-split.
    """

    __slots__ = ("nominal", "uplink", "queues", "slots", "key", "members", "event", "due")

    def __init__(self, nominal: float, uplink: bool, queues: dict, slots: dict, key):
        self.nominal = nominal
        self.uplink = uplink
        self.queues = queues
        self.slots = slots
        self.key = key
        self.members: Dict[_Tx, None] = {}  # dict keeps deterministic insertion order
        self.event: Optional[tuple] = None
        self.due: Optional[_Tx] = None


@dataclass(frozen=True)
class Snapshot:
    """Frozen view of the resources one task could use, taken at its
    decision instant: its user's CPU, edge VM and per-channel uplink queues,
    and its base station's per-channel downlink slots.

    Backlogs include the virtual residual of whatever is in service right
    now.  The *_others counts are the transmitters the task would share a
    channel with: the active members of uplink domain (base station, c) and
    of downlink domain c, leaving out the user's own uplink slot and the
    base station's own downlink slot, behind whose occupant the task would
    queue instead.  Projections from a snapshot assume no further arrivals
    and hold those populations fixed.
    """

    clock: float
    task_id: int
    user_id: int
    base_station: int
    gains: Tuple[float, ...]
    local_backlog_cycles: float
    edge_backlog_cycles: float
    uplink_backlog_bits: Tuple[float, ...]  # [channel], the user's queues
    downlink_backlog_bits: Tuple[float, ...]  # [channel], the base station's queues
    uplink_others: Tuple[int, ...]  # [channel]
    downlink_others: Tuple[int, ...]  # [channel]
    node: NodeConfig
    channels: Tuple[ChannelConfig, ...]


def _outcome(
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    task: Task,
    action: int,
    d1: float, d2: float, d3: float, d4: float, t_exec: float, t_up: float, t_down: float,
    total: float,
) -> TaskOutcome:
    """The outcome model shared by projections and completions: CPU energy
    for a local run, radio energy of both legs through the chosen channel
    otherwise, and the deadline verdict on the total."""
    if action == 0:
        e_cpu = cpu_energy(node.kappa, task.size_bits, task.intensity_cpb, node.user_cpu_hz)
        e_tx = e_rx = 0.0
    else:
        ch = channels[action - 1]
        e_cpu = 0.0
        e_tx = radio_energy(t_up, ch.uplink_power_w)
        e_rx = radio_energy(t_down, ch.downlink_power_w)
    return TaskOutcome(
        task_id=task.task_id,
        user_id=task.user_id,
        action=action,
        arrival_s=task.arrival_time,
        size_bits=task.size_bits,
        intensity_cpb=task.intensity_cpb,
        deadline_s=task.deadline_s,
        d1_s=d1,
        d2_s=d2,
        d3_s=d3,
        d4_s=d4,
        t_exec_s=t_exec,
        t_up_s=t_up,
        t_down_s=t_down,
        total_s=total,
        e_cpu_j=e_cpu,
        e_tx_j=e_tx,
        e_rx_j=e_rx,
        e_total_j=e_tx + e_cpu + e_rx,
        met_deadline=total <= task.deadline_s,
    )


def project_outcome(snap: Snapshot, task: Task, action: int) -> TaskOutcome:
    """Deterministic what-if outcome of taking `action` from `snap`.

    Waits are backlog work over service rate; the task's own transmission
    contends with the frozen set of other active transmitters plus itself.
    """
    if task.task_id != snap.task_id:
        raise ValueError(
            f"snapshot was taken for task {snap.task_id}, cannot project task {task.task_id}"
        )
    node = snap.node
    n_ch = len(snap.channels)
    if not 0 <= action <= n_ch:
        raise ValueError(f"action must be in [0, {n_ch}], got {action}")
    size = task.size_bits
    d1 = d2 = d3 = d4 = 0.0
    t_up = t_down = 0.0
    if action == 0:
        d1 = snap.local_backlog_cycles / node.user_cpu_hz
        t_exec = exec_time(size, task.intensity_cpb, node.user_cpu_hz)
        total = d1 + t_exec
    else:
        c = action - 1
        ch = snap.channels[c]
        gain = snap.gains[c]
        r_up = fair_share_rate(ch.uplink_rate_bps, gain, snap.uplink_others[c] + 1)
        d2 = snap.uplink_backlog_bits[c] / r_up
        t_up = size / r_up
        d3 = snap.edge_backlog_cycles / node.edge_vm_hz
        t_exec = exec_time(size, task.intensity_cpb, node.edge_vm_hz)
        result_bits = node.result_size_ratio * size
        if result_bits > 0:
            r_dn = fair_share_rate(ch.downlink_rate_bps, gain, snap.downlink_others[c] + 1)
            d4 = snap.downlink_backlog_bits[c] / r_dn
            t_down = result_bits / r_dn
        total = d2 + t_up + d3 + t_exec + d4 + t_down
    return _outcome(node, snap.channels, task, action, d1, d2, d3, d4, t_exec, t_up, t_down, total)


class Simulator:
    """Event-calendar simulator; ties broken by submission sequence.

    Tasks enter either through pre-scheduled arrival events (schedule_arrival
    or add_stream, in which case a policy callback picks the action) or by
    direct submit() calls at the current clock.
    """

    def __init__(
        self,
        node: NodeConfig,
        channels: Sequence[ChannelConfig],
        gain_rng: np.random.Generator,
        policy: Optional[Callable[["Simulator", Task], int]] = None,
    ):
        node.validate()
        if len(channels) != node.n_channels:
            raise ConfigError(
                f"expected {node.n_channels} channel configs, got {len(channels)}"
            )
        for i, ch in enumerate(channels):
            ch.validate(f"channels[{i}]")
        self.node = node
        self.channels = tuple(channels)
        self.policy = policy
        self.clock = 0.0
        self._gain_rng = gain_rng
        self._calendar: List[tuple] = []
        self._seq = itertools.count()
        self._halted = False
        self._streams: Dict[int, Iterator[Task]] = {}
        self._staged_gains: Dict[int, Tuple[float, ...]] = {}
        assoc = node.resolved_association()
        self._assoc = assoc
        K, N, C = node.n_users, node.n_base_stations, node.n_channels
        self._local_q: List[deque] = [deque() for _ in range(K)]
        self._local_busy: List[Optional[_Job]] = [None] * K
        self._edge_q: List[deque] = [deque() for _ in range(K)]
        self._edge_busy: List[Optional[_Job]] = [None] * K
        self._up_q: Dict[Tuple[int, int], deque] = {
            (k, c): deque() for k in range(K) for c in range(C)
        }
        self._up_tx: Dict[Tuple[int, int], Optional[_Tx]] = {
            (k, c): None for k in range(K) for c in range(C)
        }
        self._down_q: Dict[Tuple[int, int], deque] = {
            (n, c): deque() for n in range(N) for c in range(C)
        }
        self._down_tx: Dict[Tuple[int, int], Optional[_Tx]] = {
            (n, c): None for n in range(N) for c in range(C)
        }
        self._up_dom: Dict[Tuple[int, int], _Domain] = {
            (n, c): _Domain(self.channels[c].uplink_rate_bps, True, self._up_q, self._up_tx, (n, c))
            for n in range(N)
            for c in range(C)
        }
        self._down_dom: Dict[int, _Domain] = {
            c: _Domain(self.channels[c].downlink_rate_bps, False, self._down_q, self._down_tx, c)
            for c in range(C)
        }
        self.admitted = 0

    # ------------------------------------------------------------------ feeds

    def schedule_arrival(self, task: Task) -> None:
        if task.arrival_time < self.clock:
            raise ValueError(
                f"task {task.task_id} arrives at {task.arrival_time} before clock {self.clock}"
            )
        self._push(task.arrival_time, EventKind.TASK_ARRIVAL, task)

    def add_stream(self, user_id: int, tasks: Iterator[Task]) -> None:
        """Register a lazy task source; the next task is pulled when the
        previous one's arrival event fires."""
        self._streams[user_id] = tasks
        first = next(tasks, None)
        if first is not None:
            self.schedule_arrival(first)

    def halt_arrivals(self) -> None:
        """Stop admitting tasks; already-scheduled arrivals are discarded."""
        self._halted = True

    # ------------------------------------------------------------- decisions

    def stage(self, task: Task) -> Tuple[float, ...]:
        """Draw this task's per-channel gains (one draw per channel, reused
        for both transmission legs).  Idempotent per task."""
        gains = self._staged_gains.get(task.task_id)
        if gains is None:
            gains = tuple(ch.gain.sample(self._gain_rng) for ch in self.channels)
            self._staged_gains[task.task_id] = gains
        return gains

    def snapshot(self, task: Task) -> Snapshot:
        """Frozen decision-time view for `task`; does not mutate the state."""
        gains = self.stage(task)
        node = self.node
        user = task.user_id
        bs = self._assoc[user]
        chans = range(node.n_channels)
        now = self.clock

        def busy_cycles(job: Optional[_Job], hz: float) -> float:
            if job is None:
                return 0.0
            return max(0.0, (job.done_t - now) * hz)

        def tx_residual(tx: Optional[_Tx]) -> float:
            if tx is None:
                return 0.0
            return max(0.0, tx.residual - tx.rate * (now - tx.last_settle))

        up_tx = [self._up_tx[(user, c)] for c in chans]
        down_tx = [self._down_tx[(bs, c)] for c in chans]
        return Snapshot(
            clock=now,
            task_id=task.task_id,
            user_id=user,
            base_station=bs,
            gains=gains,
            local_backlog_cycles=sum(
                j.task.size_bits * j.task.intensity_cpb for j in self._local_q[user]
            )
            + busy_cycles(self._local_busy[user], node.user_cpu_hz),
            edge_backlog_cycles=sum(
                j.task.size_bits * j.task.intensity_cpb for j in self._edge_q[user]
            )
            + busy_cycles(self._edge_busy[user], node.edge_vm_hz),
            uplink_backlog_bits=tuple(
                sum(j.task.size_bits for j in self._up_q[(user, c)]) + tx_residual(up_tx[c])
                for c in chans
            ),
            downlink_backlog_bits=tuple(
                sum(j.result_bits for j in self._down_q[(bs, c)]) + tx_residual(down_tx[c])
                for c in chans
            ),
            uplink_others=tuple(
                len(self._up_dom[(bs, c)].members) - (up_tx[c] is not None) for c in chans
            ),
            downlink_others=tuple(
                len(self._down_dom[c].members) - (down_tx[c] is not None) for c in chans
            ),
            node=node,
            channels=self.channels,
        )

    def projections(self, task: Task) -> Tuple[TaskOutcome, ...]:
        """What-if outcomes for every action, sharing one snapshot and the
        task's own gain draws."""
        snap = self.snapshot(task)
        return tuple(
            project_outcome(snap, task, a) for a in range(self.node.n_channels + 1)
        )

    # ------------------------------------------------------------- execution

    def submit(self, task: Task, action: int) -> None:
        """Admit `task` at the current clock and route it per `action`
        (0 local, c in 1..C through channel c)."""
        C = self.node.n_channels
        if not 0 <= action <= C:
            raise ValueError(f"action must be in [0, {C}], got {action}")
        if not 0 <= task.user_id < self.node.n_users:
            raise ValueError(f"user_id {task.user_id} out of range")
        if task.arrival_time != self.clock:
            raise ValueError(
                f"task {task.task_id} must be submitted at its arrival time "
                f"{task.arrival_time}, clock is {self.clock}"
            )
        gains = self.stage(task)
        del self._staged_gains[task.task_id]
        job = _Job(task, action, gains, self.node.result_size_ratio * task.size_bits)
        self.admitted += 1
        if action == 0:
            job.enq_t = self.clock
            if self._local_busy[task.user_id] is None:
                self._start_local(task.user_id, job)
            else:
                self._local_q[task.user_id].append(job)
        else:
            user, c = task.user_id, action - 1
            self._enqueue_tx(self._up_dom[(self._assoc[user], c)], (user, c), job)

    @property
    def has_events(self) -> bool:
        return bool(self._calendar)

    def advance(self) -> Optional[TaskOutcome]:
        """Pop and process one event; returns the outcome if a task finished."""
        if not self._calendar:
            raise SimulationError("advance() on an empty calendar")
        entry = heappop(self._calendar)
        t, _seq, kind, payload = entry
        self.clock = t
        if kind == EventKind.TASK_ARRIVAL:
            self._handle_arrival(payload)
            return None
        if kind == EventKind.LOCAL_EXEC_DONE:
            return self._handle_local_done(payload)
        if kind == EventKind.EDGE_EXEC_DONE:
            return self._handle_edge_done(payload)
        dom = payload
        if entry is not dom.event:
            return None  # superseded by a later re-latch of the domain
        if dom.due is not None:
            return self._tx_done(dom, dom.due)
        self._settle(dom)
        self._relatch(dom)
        return None

    def run_to_completion(self) -> List[TaskOutcome]:
        """Drain the calendar; returns outcomes in completion order."""
        got: List[TaskOutcome] = []
        while self._calendar:
            out = self.advance()
            if out is not None:
                got.append(out)
        return got

    def in_flight_count(self) -> int:
        n = sum(len(q) for q in self._local_q) + sum(len(q) for q in self._edge_q)
        n += sum(j is not None for j in self._local_busy)
        n += sum(j is not None for j in self._edge_busy)
        n += sum(len(q) for q in self._up_q.values())
        n += sum(tx is not None for tx in self._up_tx.values())
        n += sum(len(q) for q in self._down_q.values())
        n += sum(tx is not None for tx in self._down_tx.values())
        return n

    # -------------------------------------------------------------- internal

    def _push(self, t: float, kind: EventKind, payload) -> None:
        heappush(self._calendar, (t, next(self._seq), kind, payload))

    def _schedule(self, dom: _Domain, t: float, due: Optional[_Tx], seq: Optional[int] = None) -> None:
        """Make (t, due) the domain's one live event; an earlier one goes stale."""
        dom.due = due
        dom.event = (t, next(self._seq) if seq is None else seq, EventKind.CHANNEL, dom)
        heappush(self._calendar, dom.event)

    def _handle_arrival(self, task: Task) -> None:
        if self._halted:
            return
        stream = self._streams.get(task.user_id)
        if stream is not None:
            nxt = next(stream, None)
            if nxt is not None:
                self.schedule_arrival(nxt)
        self.stage(task)
        if self.policy is None:
            raise SimulationError(
                "a task arrival fired but no policy callback is installed"
            )
        action = self.policy(self, task)
        self.submit(task, int(action))

    # local CPU

    def _start_local(self, user: int, job: _Job) -> None:
        job.d1 = self.clock - job.enq_t
        job.start_t = self.clock
        job.t_exec = exec_time(job.task.size_bits, job.task.intensity_cpb, self.node.user_cpu_hz)
        job.done_t = self.clock + job.t_exec
        self._local_busy[user] = job
        self._push(job.done_t, EventKind.LOCAL_EXEC_DONE, job)

    def _handle_local_done(self, job: _Job) -> TaskOutcome:
        # re-measure off the event clock so stage durations telescope to
        # completion minus arrival without cancellation error
        job.t_exec = self.clock - job.start_t
        user = job.task.user_id
        self._local_busy[user] = None
        if self._local_q[user]:
            self._start_local(user, self._local_q[user].popleft())
        return self._finalize(job)

    # edge VM

    def _start_edge(self, user: int, job: _Job) -> None:
        job.d3 = self.clock - job.enq_t
        job.start_t = self.clock
        job.t_exec = exec_time(job.task.size_bits, job.task.intensity_cpb, self.node.edge_vm_hz)
        job.done_t = self.clock + job.t_exec
        self._edge_busy[user] = job
        self._push(job.done_t, EventKind.EDGE_EXEC_DONE, job)

    def _handle_edge_done(self, job: _Job) -> Optional[TaskOutcome]:
        job.t_exec = self.clock - job.start_t
        user = job.task.user_id
        self._edge_busy[user] = None
        if self._edge_q[user]:
            self._start_edge(user, self._edge_q[user].popleft())
        if job.result_bits <= 0.0:
            return self._finalize(job)
        c = job.action - 1
        self._enqueue_tx(self._down_dom[c], (self._assoc[user], c), job)
        return None

    # transmission, both legs

    def _enqueue_tx(self, dom: _Domain, key: Tuple[int, int], job: _Job) -> None:
        job.enq_t = self.clock
        if dom.slots[key] is None:
            self._start_tx(dom, key, job)
        else:
            dom.queues[key].append(job)

    def _start_tx(self, dom: _Domain, key: Tuple[int, int], job: _Job) -> None:
        wait = self.clock - job.enq_t
        if dom.uplink:
            job.d2, bits = wait, job.task.size_bits
        else:
            job.d4, bits = wait, job.result_bits
        tx = _Tx(job, job.gains[key[1]], bits, key)
        tx.last_settle = self.clock
        dom.slots[key] = tx
        self._settle(dom)
        dom.members[tx] = None
        self._relatch(dom)

    def _tx_done(self, dom: _Domain, tx: _Tx) -> Optional[TaskOutcome]:
        key = tx.queue_key
        job = tx.job
        # final leg as a clock difference, not the latched residual / rate:
        # the finish time was rounded, and only the clock version keeps the
        # stage sum consistent with completion minus arrival
        leg = tx.elapsed + (self.clock - tx.last_settle)
        del dom.members[tx]
        dom.slots[key] = None
        q = dom.queues[key]
        if q:
            self._start_tx(dom, key, q.popleft())
        elif dom.members:
            due = next((m for m in dom.members if m.finish == self.clock), None)
            if due is None:
                self._schedule(dom, self.clock, None)  # re-split among the rest
            else:
                # latched to finish now: it leaves next, in member order,
                # under the departed member's sequence number
                self._schedule(dom, self.clock, due, dom.event[1])
        if not dom.uplink:
            job.t_down = leg
            return self._finalize(job)
        job.t_up = leg
        user = job.task.user_id
        job.enq_t = self.clock
        if self._edge_busy[user] is None:
            self._start_edge(user, job)
        else:
            self._edge_q[user].append(job)
        return None

    def _settle(self, dom: _Domain) -> None:
        now = self.clock
        for tx in dom.members:
            dt = now - tx.last_settle
            if dt > 0.0:
                tx.residual = max(0.0, tx.residual - tx.rate * dt)
                tx.elapsed += dt
                tx.last_settle = now

    def _relatch(self, dom: _Domain) -> None:
        """Re-split the nominal rate over the (settled, non-empty) members,
        latch each finish as clock + residual / rate, and schedule the
        earliest finisher as the domain's one event (ties in member order)."""
        n = len(dom.members)
        total = 0.0
        due = None
        for tx in dom.members:
            tx.rate = fair_share_rate(dom.nominal, tx.gain, n)
            total += tx.rate
            tx.finish = self.clock + tx.residual / tx.rate
            if due is None or tx.finish < due.finish:
                due = tx
        if total > dom.nominal * (1.0 + 1e-9):
            raise SimulationError(
                f"allocated {total} bps exceeds nominal {dom.nominal} bps on domain {dom.key}"
            )
        self._schedule(dom, due.finish, due)

    def _finalize(self, job: _Job) -> TaskOutcome:
        task = job.task
        return _outcome(
            self.node, self.channels, task, job.action, job.d1, job.d2, job.d3, job.d4,
            job.t_exec, job.t_up, job.t_down, self.clock - task.arrival_time,
        )
