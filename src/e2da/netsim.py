"""Discrete-event simulator of local execution and offloading through shared
wireless channels to per-user edge VMs.

Every stage of a task runs at a station: a FIFO queue and one service slot
in front of a processor-sharing domain.  A local task visits its user's CPU.
An offloaded task visits its per-(user, channel) uplink, whose domain the
other uplinks of its base station on that channel share, then its user's
dedicated edge VM, then a per-(base station, channel) downlink for the
result, whose domain every base station active on that channel shares.  The
CPU and the VM are one-station domains at gain 1, so the job in service runs
at the full clock rate.  A job is the one record of a task: it carries its
route, the work it brings to each hop, its seven stage times and, while in
service, its share of the station's domain.

Queues are unbounded and a station never idles while its queue is non-empty.
A domain re-splits its nominal rate (bits or cycles per second) whenever a
member starts, settling in-flight progress as residual work, and latches each
member's finish time.  A domain keeps one live calendar event, the completion
of its earliest finisher (ties in member order).  A departure with no
successor in its queue leaves the rates as they are until a re-split at the
same instant; members whose latched finish equals that instant leave first,
in member order.  A re-latch supersedes the domain's pending event, which is
ignored when popped.

Projected and realized outcomes come from one builder that owns the energy
model: kappa * cycles * f^2 for a local run, radio power times airtime on
both legs of an offload, and the deadline verdict on the total.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SimulationError
from .system import (
    ChannelConfig,
    NodeConfig,
    check_fair_shares,
    cpu_energy,
    exec_time,
    fair_share_rate,
    radio_energy,
)
from .workload import Task


class TaskOutcome(NamedTuple):
    """Realized (or projected) fate of one task: timing decomposition,
    energy decomposition, and deadline verdict.  action 0 is local, action
    c in 1..C is offloading through channel c.  A column projection holds
    one array per field, with one element per decision."""

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
    """A submitted task on its way along its route of stations.

    work[h] is what it brings to route[h]: cycles on the CPU or VM, the
    task's bits uplink, its result's bits downlink.  times holds the stage
    times in _outcome's order (d1, d2, d3, d4, t_exec, t_up, t_down).  In
    service, gain, rate, residual, elapsed and finish are its domain share.
    """

    __slots__ = ("task", "action", "gains", "route", "work", "hop", "enq_t", "times",
                 "gain", "residual", "rate", "last_settle", "elapsed", "finish")

    def __init__(self, task: Task, action: int, gains: Tuple[float, ...],
                 route: Tuple["_Station", ...], work: Tuple[float, ...]):
        self.task = task
        self.action = action
        self.gains = gains
        self.route = route
        self.work = work
        self.hop = 0
        self.times = [0.0] * 7


class _Domain:
    """Processor-sharing cell: the jobs in service at its stations split one
    nominal rate, bits/s on a channel and cycles/s on a CPU or VM.

    `event` is the domain's one live calendar entry: the completion of
    `due`, the member with the earliest latched finish (ties in member
    order), or a re-split of the rate when `due` is None.  After a departure
    without a successor, members latched to finish at that instant leave
    first, then the rate is re-split.
    """

    __slots__ = ("nominal", "key", "members", "event", "due")

    def __init__(self, nominal: float, key: tuple):
        self.nominal = nominal
        self.key = key
        self.members: Dict[_Job, None] = {}  # dict keeps deterministic insertion order
        self.event: Optional[tuple] = None
        self.due: Optional[_Job] = None


class _Station:
    """A FIFO queue and one service slot in front of a sharing domain.

    `wait` and `serve` index the job's stage times that get the wait and
    the service time here.  `channel` picks the job's gain on a radio leg;
    the CPU and the VM serve at gain 1.
    """

    __slots__ = ("queue", "slot", "domain", "wait", "serve", "channel")

    def __init__(self, domain: _Domain, wait: int, serve: int, channel: Optional[int] = None):
        self.queue: deque = deque()
        self.slot: Optional[_Job] = None
        self.domain = domain
        self.wait = wait
        self.serve = serve
        self.channel = channel

    def backlog(self, now: float) -> float:
        """Work waiting in the queue plus the work left in service at `now`."""
        job = self.slot
        if job is None:
            left = 0.0
        elif self.channel is None:  # alone at the full rate until its latched finish
            left = max(0.0, (job.finish - now) * self.domain.nominal)
        else:
            left = max(0.0, job.residual - job.rate * (now - job.last_settle))
        return sum(j.work[j.hop] for j in self.queue) + left


class Snapshot(NamedTuple):
    """Frozen view of the resources one task could use, taken at its
    decision instant: the task itself with its per-channel gains, its user's
    CPU, edge VM and per-channel uplink queues, and its base station's
    per-channel downlink slots.

    Backlogs include the virtual residual of whatever is in service right
    now.  The *_others counts are the transmitters the task would share a
    channel with: the active members of uplink domain (base station, c) and
    of downlink domain c, leaving out the user's own uplink slot and the
    base station's own downlink slot, behind whose occupant the task would
    queue instead.  Projections from a snapshot assume no further arrivals
    and hold those populations fixed.

    A column of decisions stacks snapshots: the task becomes a Task whose
    fields are arrays of shape (R,), each scalar field an array of shape
    (R,) and each per-channel field one of shape (C, R), so gains[c]
    indexes both forms alike; node and channels stay shared.
    """

    task: Task
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
    otherwise, and the deadline verdict on the total.  The task's fields and
    the times are one decision's floats or a column's equal-length arrays;
    the action is one int either way."""
    if action == 0:
        e_cpu = cpu_energy(
            node.kappa_j_per_cycle_hz2, task.size_bits, task.intensity_cpb, node.user_cpu_hz
        )
        e_tx = e_rx = 0.0
    else:
        ch = channels[action - 1]
        e_cpu = 0.0
        e_tx = radio_energy(t_up, ch.uplink_power_w)
        e_rx = radio_energy(t_down, ch.downlink_power_w)
    return TaskOutcome(  # positional, in field order: a completion builds one per task
        task.task_id, task.user_id, action,
        task.arrival_time, task.size_bits, task.intensity_cpb, task.deadline_s,
        d1, d2, d3, d4, t_exec, t_up, t_down, total,
        e_cpu, e_tx, e_rx, e_tx + e_cpu + e_rx,
        total <= task.deadline_s,
    )


def project_outcome(snap: Snapshot, action: int) -> TaskOutcome:
    """Deterministic what-if outcome of taking `action` for the task of
    `snap`.

    Waits are backlog work over service rate; the task's own transmission
    contends with the frozen set of other active transmitters plus itself.
    `snap` describes one decision, or a column of decisions as arrays (see
    Snapshot), which projects every decision at once with the same floats.
    """
    task, node = snap.task, snap.node
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
        sent = result_bits > 0  # per task: a tiny result may round to no bits
        if sent.any() if isinstance(sent, np.ndarray) else sent:
            r_dn = fair_share_rate(ch.downlink_rate_bps, gain, snap.downlink_others[c] + 1)
            d4 = snap.downlink_backlog_bits[c] / r_dn
            t_down = result_bits / r_dn  # 0.0 where nothing is sent
            if isinstance(sent, np.ndarray):
                d4 = np.where(sent, d4, 0.0)
        total = d2 + t_up + d3 + t_exec + d4 + t_down
    return _outcome(node, snap.channels, task, action, d1, d2, d3, d4, t_exec, t_up, t_down, total)


class Simulator:
    """Event-calendar simulator; ties broken by submission sequence.

    Tasks enter either through arrival events, where a policy callback
    picks the action, or by direct submit() calls at the current clock.
    Arrivals are scheduled one at a time (schedule_arrival) or come from
    one feed in arrival order (add_arrivals), whose next task goes on the
    calendar when the last one's arrival fires; so an arrival at exactly
    the instant of another event is ordered by when the feed reached it.
    gain_rng only has to provide random(): a Generator, or a Uniforms over
    one.
    """

    def __init__(
        self,
        node: NodeConfig,
        channels: Sequence[ChannelConfig],
        gain_rng: np.random.Generator,
        policy: Optional[Callable[["Simulator", Task], int]] = None,
    ):
        if len(channels) != node.n_channels:
            raise ConfigError(
                f"expected {node.n_channels} channel configs, got {len(channels)}"
            )
        self.node = node
        self.channels = tuple(channels)
        self.policy = policy
        self.clock = 0.0
        self._gain_rng = gain_rng
        self._calendar: List[tuple] = []
        self._seq = itertools.count()
        self._feed: Iterator[Task] = iter(())
        self._fed: Optional[Task] = None  # the last task pulled from the feed
        self._staged_gains: Dict[int, Tuple[float, ...]] = {}
        check_fair_shares(node, self.channels)
        self._assoc = assoc = node.association
        K, N, C = node.n_users, node.n_base_stations, node.n_channels
        # a station's wait and service time land at these indexes of _Job.times
        self._cpu = [_Station(_Domain(node.user_cpu_hz, ("cpu", k)), 0, 4) for k in range(K)]
        self._vm = [_Station(_Domain(node.edge_vm_hz, ("vm", k)), 2, 4) for k in range(K)]
        up_dom = {
            (n, c): _Domain(self.channels[c].uplink_rate_bps, ("up", n, c))
            for n in range(N)
            for c in range(C)
        }
        down_dom = [
            _Domain(ch.downlink_rate_bps, ("down", c)) for c, ch in enumerate(self.channels)
        ]
        self._up = [[_Station(up_dom[(assoc[k], c)], 1, 5, c) for c in range(C)] for k in range(K)]
        self._down = [[_Station(down_dom[c], 3, 6, c) for c in range(C)] for _ in range(N)]

    # ------------------------------------------------------------------ feeds

    def schedule_arrival(self, task: Task) -> None:
        if task.arrival_time < self.clock:
            raise ValueError(
                f"task {task.task_id} arrives at {task.arrival_time} before clock {self.clock}"
            )
        heappush(self._calendar, (task.arrival_time, next(self._seq), task))

    def add_arrivals(self, tasks: Iterator[Task]) -> None:
        """Take arrivals from a lazy feed in arrival order: its next task is
        pulled when the arrival of the last one pulled fires."""
        self._feed = tasks
        self._pull()

    def _pull(self) -> None:
        self._fed = next(self._feed, None)
        if self._fed is not None:
            self.schedule_arrival(self._fed)

    # ------------------------------------------------------------- decisions

    def stage(self, task: Task) -> Tuple[float, ...]:
        """Draw this task's per-channel gains (one draw per channel, reused
        for both transmission legs).  Idempotent per task."""
        gains = self._staged_gains.get(task.task_id)
        if gains is None:
            gains = tuple([ch.gain.sample(self._gain_rng) for ch in self.channels])
            self._staged_gains[task.task_id] = gains
        return gains

    def snapshot(self, task: Task) -> Snapshot:
        """Frozen decision-time view for `task`.  It stages the task's gains
        if they are not drawn yet (see stage) and changes nothing else."""
        user = task.user_id
        now = self.clock
        cpu, vm = self._cpu[user], self._vm[user]
        ups, downs = self._up[user], self._down[self._assoc[user]]
        return Snapshot(
            task=task,
            gains=self.stage(task),
            local_backlog_cycles=cpu.backlog(now),
            edge_backlog_cycles=vm.backlog(now),
            uplink_backlog_bits=tuple(st.backlog(now) for st in ups),
            downlink_backlog_bits=tuple(st.backlog(now) for st in downs),
            uplink_others=tuple(len(st.domain.members) - (st.slot is not None) for st in ups),
            downlink_others=tuple(len(st.domain.members) - (st.slot is not None) for st in downs),
            node=self.node,
            channels=self.channels,
        )

    def projections(self, task: Task) -> Tuple[TaskOutcome, ...]:
        """What-if outcomes for every action, sharing one snapshot and the
        task's own gain draws."""
        snap = self.snapshot(task)
        return tuple(project_outcome(snap, a) for a in range(self.node.n_channels + 1))

    # ------------------------------------------------------------- execution

    def submit(self, task: Task, action: int) -> None:
        """Admit `task` at the current clock and route it per `action`
        (0 local, c in 1..C through channel c)."""
        C = self.node.n_channels
        if not 0 <= action <= C:
            raise ValueError(f"action must be in [0, {C}], got {action}")
        if not 0 <= task.user_id < self.node.n_users:
            raise ValueError(f"user_id {task.user_id} out of range")
        if not (0.0 < task.size_bits < math.inf and 0.0 < task.intensity_cpb < math.inf):
            raise ValueError(
                f"task {task.task_id} needs a finite positive size and intensity, got "
                f"size={task.size_bits}, intensity={task.intensity_cpb}"
            )
        if task.arrival_time != self.clock:
            raise ValueError(
                f"task {task.task_id} must be submitted at its arrival time "
                f"{task.arrival_time}, clock is {self.clock}"
            )
        gains = self.stage(task)
        del self._staged_gains[task.task_id]
        user = task.user_id
        result_bits = self.node.result_size_ratio * task.size_bits
        cycles = task.size_bits * task.intensity_cpb
        if action == 0:
            route, work = (self._cpu[user],), (cycles,)
        else:
            up, down = self._up[user][action - 1], self._down[self._assoc[user]][action - 1]
            route = (up, self._vm[user], down) if result_bits > 0 else (up, self._vm[user])
            work = (task.size_bits, cycles, result_bits)
        self._enqueue(route[0], _Job(task, action, gains, route, work))

    @property
    def has_events(self) -> bool:
        return bool(self._calendar)

    def advance(self) -> Optional[TaskOutcome]:
        """Pop and process one event; returns the outcome if a task finished."""
        if not self._calendar:
            raise SimulationError("advance() on an empty calendar")
        entry = heappop(self._calendar)
        t, _seq, payload = entry
        self.clock = t
        if isinstance(payload, Task):
            self._handle_arrival(payload)
            return None
        dom = payload
        if entry is not dom.event:
            return None  # superseded by a later re-latch of the domain
        if dom.due is not None:
            return self._done(dom, dom.due)
        self._settle(dom)
        self._relatch(dom)
        return None

    def outcomes(self) -> Iterator[TaskOutcome]:
        """Drain the calendar lazily, yielding each finished task's outcome
        in completion order."""
        while self._calendar:
            out = self.advance()
            if out is not None:
                yield out

    def run_to_completion(self) -> List[TaskOutcome]:
        return list(self.outcomes())

    # -------------------------------------------------------------- internal

    def _schedule(self, dom: _Domain, t: float, due: Optional[_Job], seq: Optional[int] = None) -> None:
        """Make (t, due) the domain's one live event; an earlier one goes stale."""
        dom.due = due
        dom.event = (t, next(self._seq) if seq is None else seq, dom)
        heappush(self._calendar, dom.event)

    def _handle_arrival(self, task: Task) -> None:
        if task is self._fed:
            self._pull()
        self.stage(task)
        if self.policy is None:
            raise SimulationError(
                "a task arrival fired but no policy callback is installed"
            )
        action = self.policy(self, task)
        self.submit(task, int(action))

    def _enqueue(self, st: _Station, job: _Job) -> None:
        job.enq_t = self.clock
        if st.slot is None:
            self._start(st, job)
        else:
            st.queue.append(job)

    def _start(self, st: _Station, job: _Job) -> None:
        job.times[st.wait] = self.clock - job.enq_t
        dom = st.domain
        job.gain = gain = 1.0 if st.channel is None else job.gains[st.channel]
        if not 0.0 < gain <= 1.0:  # once per stage, so _relatch need not; NaN fails too
            fair_share_rate(dom.nominal, gain, 1)  # raises its error for this gain
        job.residual = job.work[job.hop]
        job.last_settle = self.clock
        job.elapsed = 0.0
        st.slot = job
        self._settle(dom)
        dom.members[job] = None
        self._relatch(dom)  # sets the job's rate and finish

    def _done(self, dom: _Domain, job: _Job) -> Optional[TaskOutcome]:
        """`job` leaves its station: the station takes its next job, and the
        job moves on to its next station or completes."""
        st = job.route[job.hop]
        # the stage time as a clock difference, not the latched work / rate:
        # the finish time was rounded, and only the clock version keeps the
        # stage sum consistent with completion minus arrival
        job.times[st.serve] = job.elapsed + (self.clock - job.last_settle)
        del dom.members[job]
        st.slot = dom.due = None  # an idle domain keeps no finished job alive
        if st.queue:
            self._start(st, st.queue.popleft())
        elif dom.members:
            due = next((m for m in dom.members if m.finish == self.clock), None)
            if due is None:
                self._schedule(dom, self.clock, None)  # re-split among the rest
            else:
                # latched to finish now: it leaves next, in member order,
                # under the departed member's sequence number
                self._schedule(dom, self.clock, due, dom.event[1])
        job.hop += 1
        if job.hop < len(job.route):
            self._enqueue(job.route[job.hop], job)
            return None
        task = job.task
        return _outcome(
            self.node, self.channels, task, job.action, *job.times, self.clock - task.arrival_time
        )

    def _settle(self, dom: _Domain) -> None:
        now = self.clock
        for job in dom.members:
            dt = now - job.last_settle
            if dt > 0.0:
                job.residual = max(0.0, job.residual - job.rate * dt)
                job.elapsed += dt
                job.last_settle = now

    def _relatch(self, dom: _Domain) -> None:
        """Re-split the nominal rate over the (settled, non-empty) members,
        latch each finish as clock + residual / rate, and schedule the
        earliest finisher as the domain's one event (ties in member order).
        Each rate is fair_share_rate's expression; _start checked the gain."""
        n = len(dom.members)
        nominal, now = dom.nominal, self.clock
        total = 0.0
        due = None
        for job in dom.members:
            job.rate = rate = job.gain * nominal / n
            total += rate
            job.finish = finish = now + job.residual / rate
            if due is None or finish < due.finish:
                due = job
        if total > nominal * (1.0 + 1e-9):
            raise SimulationError(
                f"allocated rates sum to {total} per second, over the nominal "
                f"{dom.nominal} of domain {dom.key}"
            )
        self._schedule(dom, due.finish, due)
