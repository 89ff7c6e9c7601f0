import dataclasses
import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from conftest import StubRng, fixed_gain_channel, make_task, single_user_node
from e2da.baselines import r_star
from e2da.config import load_config
from e2da.errors import ConfigError, SimulationError
from e2da.netsim import Simulator, Snapshot, TaskOutcome, project_outcome
from e2da.rng import Uniforms, substream
from e2da.system import (
    ChannelConfig,
    NodeConfig,
    cpu_energy,
    default_channels,
    exec_time,
    fair_share_rate,
    radio_energy,
)
from e2da.workload import Constant, Task, Uniform, WorkloadConfig, arrivals


class TestOps:
    def test_exec_time(self):
        assert exec_time(1e6, 1000.0, 1e9) == 1.0
        assert exec_time(3.0, 4.0, 6.0) == 2.0

    def test_cpu_energy(self):
        # kappa * S * I * f^2 with easy integers
        assert cpu_energy(2.0, 3.0, 4.0, 5.0) == 600.0

    def test_tx_rx_energy(self):
        assert radio_energy(2.5, 0.8) == 2.0
        assert radio_energy(0.5, 0.4) == 0.2
        assert radio_energy(0.0, 1.0) == 0.0

    def test_fair_share(self):
        assert fair_share_rate(10e6, 0.8, 1) == 8e6
        assert fair_share_rate(10e6, 0.8, 2) == 4e6
        assert fair_share_rate(9e6, 1.0, 3) == 3e6

    @pytest.mark.parametrize(
        "call",
        [
            lambda: exec_time(0.0, 1.0, 1.0),
            lambda: exec_time(1.0, 1.0, 0.0),
            lambda: cpu_energy(-1.0, 1.0, 1.0, 1.0),
            lambda: radio_energy(-0.1, 1.0),
            lambda: fair_share_rate(1e6, 0.0, 1),
            lambda: fair_share_rate(1e6, 1.1, 1),
        ],
    )
    def test_bad_inputs(self, call):
        with pytest.raises(ValueError):
            call()

    def test_fair_share_needs_member(self):
        with pytest.raises(SimulationError):
            fair_share_rate(1e6, 0.5, 0)


class TestConfigs:
    def test_channel_gain_support_must_fit(self):
        with pytest.raises(ConfigError):
            ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=Uniform(0.5, 1.2))
        with pytest.raises(ConfigError):
            ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=Constant(0.0))

    def test_default_channels_shape(self):
        assert len(default_channels()) == 3

    def test_association_default_round_robin(self):
        node = NodeConfig(n_users=5, n_base_stations=3)
        assert node.association == (0, 1, 2, 0, 1)

    def test_association_explicit(self):
        node = NodeConfig(n_users=3, n_base_stations=2, association=(1, 1, 0))
        assert node.association == (1, 1, 0)
        with pytest.raises(ConfigError):
            NodeConfig(n_users=3, n_base_stations=2, association=(0, 2, 0))

    def test_simulator_channel_count_checked(self):
        node = NodeConfig(n_users=1, n_base_stations=1, n_channels=2)
        with pytest.raises(ConfigError):
            Simulator(node, default_channels(), substream(0, "g"))


def run_single(node, channels, task, action, seed=0):
    sim = Simulator(node, channels, substream(seed, "gains"), policy=lambda s, t: action)
    sim.schedule_arrival(task)
    outs = sim.run_to_completion()
    assert len(outs) == 1
    return outs[0]


class TestZeroLoadClosedForm:
    def test_local_route(self):
        node = single_user_node()
        task = make_task(size_bits=1e6, intensity_cpb=1000.0, deadline_s=1.5)
        out = run_single(node, (fixed_gain_channel(1e6, 1.0),), task, 0)
        assert out.t_exec_s == 1.0
        assert out.total_s == 1.0
        assert out.d1_s == 0.0
        assert (out.d2_s, out.d3_s, out.d4_s, out.t_up_s, out.t_down_s) == (0, 0, 0, 0, 0)
        assert out.e_cpu_j == 1e-27 * 1e6 * 1000.0 * 1e9**2
        assert out.e_tx_j == 0.0 and out.e_rx_j == 0.0
        assert out.e_total_j == out.e_cpu_j
        assert out.met_deadline is True

    def test_offload_route(self):
        node = single_user_node(result_size_ratio=0.1)
        ch = fixed_gain_channel(2e6, 1.5, gain=0.8, down_rate_bps=1e6, down_power_w=0.5)
        task = make_task(size_bits=1e6, intensity_cpb=1000.0, deadline_s=10.0)
        out = run_single(node, (ch,), task, 1)
        t_up = 1e6 / (0.8 * 2e6)
        t_exec = 1e6 * 1000.0 / 4e9
        t_down = 0.1 * 1e6 / (0.8 * 1e6)
        assert out.t_up_s == t_up
        assert out.t_exec_s == t_exec
        assert out.t_down_s == t_down
        assert (out.d1_s, out.d2_s, out.d3_s, out.d4_s) == (0, 0, 0, 0)
        assert out.total_s == t_up + t_exec + t_down
        assert out.e_tx_j == t_up * 1.5
        assert out.e_rx_j == t_down * 0.5
        assert out.e_cpu_j == 0.0
        assert out.e_total_j == out.e_tx_j + out.e_rx_j

    def test_zero_result_skips_downlink(self):
        node = single_user_node(result_size_ratio=0.0)
        ch = fixed_gain_channel(2e6, 1.0)
        task = make_task(size_bits=1e6, intensity_cpb=100.0, deadline_s=10.0)
        out = run_single(node, (ch,), task, 1)
        assert out.t_down_s == 0.0 and out.d4_s == 0.0 and out.e_rx_j == 0.0
        assert out.total_s == out.t_up_s + out.t_exec_s


class TestQueueing:
    def test_local_fifo(self):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(0, "g"),
                        policy=lambda s, t: 0)
        t1 = make_task(task_id=0, size_bits=1e6, intensity_cpb=1000.0)  # 1.0 s
        t2 = make_task(task_id=1, size_bits=5e5, intensity_cpb=1000.0)  # 0.5 s
        sim.schedule_arrival(t1)
        sim.schedule_arrival(t2)
        done = sim.run_to_completion()
        assert [o.task_id for o in done] == [0, 1]
        outs = {o.task_id: o for o in done}
        assert outs[0].d1_s == 0.0 and outs[0].total_s == 1.0
        assert outs[1].d1_s == 1.0 and outs[1].total_s == 1.5

    def test_uplink_fair_share_settlement(self):
        """Staggered transmitters on one shared (bs, channel) domain.

        A (2 Mb) starts alone at rate 1 Mb/s; B (1 Mb) joins at t=1 and the
        residual megabit of A is re-timed at the half-rate; a queued second
        task of B waits for B's slot, then gets the full rate back.
        """
        node = NodeConfig(n_users=2, n_base_stations=1, n_channels=1,
                          result_size_ratio=0.0)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        sim = Simulator(node, (ch,), substream(0, "g"), policy=lambda s, t: 1)
        sim.schedule_arrival(make_task(task_id=0, user_id=0, arrival_time=0.0,
                                       size_bits=2e6, intensity_cpb=10.0))
        sim.schedule_arrival(make_task(task_id=1, user_id=1, arrival_time=1.0,
                                       size_bits=1e6, intensity_cpb=10.0))
        sim.schedule_arrival(make_task(task_id=2, user_id=1, arrival_time=1.0,
                                       size_bits=1e6, intensity_cpb=10.0))
        outs = {o.task_id: o for o in sim.run_to_completion()}
        assert outs[0].t_up_s == 3.0  # 1 s alone + 2 s at half rate
        assert outs[0].d2_s == 0.0
        assert outs[1].t_up_s == 2.0  # whole transfer at half rate
        assert outs[1].d2_s == 0.0
        assert outs[2].d2_s == 2.0  # queued behind task 1's slot
        assert outs[2].t_up_s == 1.0  # alone again once both others left

    def test_tied_finishers_leave_in_member_order(self):
        """Two transmitters finish at the same instant while a third survives.

        Tasks 0 and 1 (1 Mb) and task 2 (3 Mb) start together at a third of
        1 Mb/s each; task 3 (1 Mb) joins at t=1.5, so 0 and 1 both finish at
        3.5 under the four-way split.  They leave in member order before the
        channel is re-split between 2 and 3, and task 1's result queues
        behind task 0's on the shared downlink slot.
        """
        node = NodeConfig(n_users=4, n_base_stations=1, n_channels=1,
                          result_size_ratio=0.1)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        sim = Simulator(node, (ch,), substream(0, "g"), policy=lambda s, t: 1)
        for tid, at, size in ((0, 0.0, 1e6), (1, 0.0, 1e6), (2, 0.0, 3e6), (3, 1.5, 1e6)):
            sim.schedule_arrival(make_task(task_id=tid, user_id=tid, arrival_time=at,
                                           size_bits=size, intensity_cpb=10.0))
        outs = sim.run_to_completion()
        assert [o.task_id for o in outs] == [0, 1, 3, 2]
        assert [o.t_up_s for o in outs] == [3.5, 3.5, 3.0, 6.0]
        assert [o.total_s for o in outs] == [3.6025, 3.7025, 3.1025, 6.3075]
        assert [o.d4_s for o in outs] == [0.0, 0.10000000000000009, 0.0, 0.0]

    def test_tied_finishers_leave_before_a_later_scheduled_arrival(self):
        """As above, plus a feed of user 4's tasks: a local task at 2.5
        puts the arrival at 3.5 on the calendar, the instant tasks 0 and 1
        finish.  That arrival was
        put on the calendar after the finish times were latched, so it is
        decided after both tied departures and sees 2 and 3 as the only
        other transmitters."""
        node = NodeConfig(n_users=5, n_base_stations=1, n_channels=1,
                          result_size_ratio=0.1)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        seen = {}

        def policy(sim, task):
            if task.task_id == 5:
                seen["others"] = sim.snapshot(task).uplink_others[0]
            return 0 if task.task_id == 4 else 1

        sim = Simulator(node, (ch,), substream(0, "g"), policy=policy)
        for tid, at, size in ((0, 0.0, 1e6), (1, 0.0, 1e6), (2, 0.0, 3e6), (3, 1.5, 1e6)):
            sim.schedule_arrival(make_task(task_id=tid, user_id=tid, arrival_time=at,
                                           size_bits=size, intensity_cpb=10.0))
        sim.add_arrivals(iter([
            make_task(task_id=4, user_id=4, arrival_time=2.5, size_bits=1e3, intensity_cpb=10.0),
            make_task(task_id=5, user_id=4, arrival_time=3.5, size_bits=1e6, intensity_cpb=10.0),
        ]))
        outs = sim.run_to_completion()
        assert seen["others"] == 2
        assert [o.task_id for o in outs] == [4, 0, 1, 3, 5, 2]
        assert [o.t_up_s for o in outs] == [0.0, 3.5, 3.5, 3.5, 2.5, 7.0]

    def test_uplink_domains_are_per_base_station(self):
        node = NodeConfig(n_users=2, n_base_stations=2, n_channels=1,
                          result_size_ratio=0.5)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        sim = Simulator(node, (ch,), substream(0, "g"), policy=lambda s, t: 1)
        for k in range(2):
            sim.schedule_arrival(make_task(task_id=k, user_id=k, size_bits=1e6,
                                           intensity_cpb=10.0))
        outs = {o.task_id: o for o in sim.run_to_completion()}
        # different base stations: no uplink contention
        assert outs[0].t_up_s == 1.0
        assert outs[1].t_up_s == 1.0
        # one downlink spectrum per channel: both result transfers share it
        assert outs[0].t_down_s == 1.0  # 0.5 Mb at half of 1 Mb/s
        assert outs[1].t_down_s == 1.0
        assert outs[0].e_rx_j == 1.0 * ch.downlink_power_w

    def test_edge_vm_fifo_wait(self):
        node = single_user_node(result_size_ratio=0.0)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        sim = Simulator(node, (ch,), substream(0, "g"), policy=lambda s, t: 1)
        for i in range(2):
            sim.schedule_arrival(make_task(task_id=i, size_bits=1e6,
                                           intensity_cpb=12_000.0))  # 3 s on the VM
        outs = {o.task_id: o for o in sim.run_to_completion()}
        assert outs[0].total_s == 4.0  # 1 up + 3 exec
        assert outs[1].d2_s == 1.0  # uplink slot busy with task 0
        assert outs[1].d3_s == 2.0  # VM still has 2 s of task 0 left
        assert outs[1].total_s == 7.0


class TestLocalCpuQueueing:
    """One user computing locally is an M/G/1 FIFO queue: Poisson arrivals
    and service times size * 100 / 1e9 s, sizes uniform on [1e4, 1e5]
    bits.  Its mean wait d1_s matches Pollaczek-Khinchine,
    W = lambda E[S^2] / (2 (1 - rho)) (Kleinrock, Queueing Systems, Vol. 1,
    ch. 5), within 4 batch-means standard errors over 20 batches."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_pollaczek_khinchine(self, rho):
        lo, hi, cpb, cpu_hz = 1e4, 1e5, 100.0, 1e9
        mean_s = (lo + hi) / 2 * cpb / cpu_hz
        second_moment_s2 = (hi**3 - lo**3) / (3 * (hi - lo)) * (cpb / cpu_hz) ** 2
        rate = rho / mean_s
        want = rate * second_moment_s2 / (2 * (1 - rho))
        wl = WorkloadConfig(
            arrival_rate_per_s=rate, size_bits=Uniform(lo, hi),
            intensity_cpb=Constant(cpb), deadline_s=Constant(1.0),
            context_bounds=((lo, hi), (1.0, 1000.0), (0.5, 2.0)),
        )
        node = NodeConfig(n_users=1, n_base_stations=1, n_channels=1, user_cpu_hz=cpu_hz)
        sim = Simulator(node, default_channels()[:1], substream(3, "gains"), policy=lambda s, t: 0)
        sim.add_arrivals(itertools.islice(arrivals(wl, 3, 1), 100_000))
        waits = []  # in completion order, which FIFO makes arrival order
        while sim.has_events:
            out = sim.advance()
            if out is not None:
                waits.append(out.d1_s)
        batch_means = np.array(waits).reshape(20, -1).mean(axis=1)
        std_err = batch_means.std(ddof=1) / np.sqrt(20)
        assert len(waits) == 100_000
        assert abs(batch_means.mean() - want) < 4 * std_err


class TestUplinkQueueing:
    """One user offloading through channel 1 of one base station finds its
    uplink an M/G/1 FIFO queue: Poisson arrivals and service times
    size / 1e6 s at gain 1, sizes uniform on [1e4, 1e5] bits.  The result
    has no bits, so only the uplink is timed.  Its mean wait d2_s matches
    Pollaczek-Khinchine within 4 batch-means standard errors over 20
    batches, as in TestLocalCpuQueueing."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_pollaczek_khinchine(self, rho):
        lo, hi, rate_bps, n_tasks = 1e4, 1e5, 1e6, 100_000
        mean_s = (lo + hi) / 2 / rate_bps
        second_moment_s2 = (hi**3 - lo**3) / (3 * (hi - lo)) / rate_bps**2
        rate = rho / mean_s
        want = rate * second_moment_s2 / (2 * (1 - rho))
        wl = WorkloadConfig(
            arrival_rate_per_s=rate, size_bits=Uniform(lo, hi),
            intensity_cpb=Constant(1.0), deadline_s=Constant(1.0),
            context_bounds=((lo, hi), (0.5, 2.0), (0.5, 2.0)),
        )
        node = single_user_node(result_size_ratio=0.0)
        channel = fixed_gain_channel(rate_bps, 1.0, gain=1.0)
        sim = Simulator(node, (channel,), substream(3, "gains"), policy=lambda s, t: 1)
        sim.add_arrivals(itertools.islice(arrivals(wl, 3, 1), n_tasks))
        waits = []  # in completion order, which FIFO makes arrival order
        while sim.has_events:
            out = sim.advance()
            if out is not None:
                waits.append(out.d2_s)
        batch_means = np.array(waits).reshape(20, -1).mean(axis=1)
        std_err = batch_means.std(ddof=1) / np.sqrt(20)
        assert len(waits) == n_tasks
        assert abs(batch_means.mean() - want) < 4 * std_err


class TestEdgeVmQueueing:
    """One user offloading to its edge VM at 4e9 Hz finds it an M/G/1 FIFO
    queue: service times size * 100 / 4e9 s, sizes uniform on [1e4, 1e5]
    bits, and no result bits.  The VM's arrivals are the uplink's
    departures, which are Poisson only if the uplink passes tasks on
    without reordering or spacing them; at 1e13 bps each upload takes at
    most 1e-8 s, so every arrival is shifted by at most that, against mean
    services of 1.4e-3 s.  Its mean wait d3_s then matches
    Pollaczek-Khinchine within 4 batch-means standard errors over 20
    batches, as in TestLocalCpuQueueing."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_pollaczek_khinchine(self, rho):
        lo, hi, cpb, vm_hz, n_tasks = 1e4, 1e5, 100.0, 4e9, 100_000
        mean_s = (lo + hi) / 2 * cpb / vm_hz
        second_moment_s2 = (hi**3 - lo**3) / (3 * (hi - lo)) * (cpb / vm_hz) ** 2
        rate = rho / mean_s
        want = rate * second_moment_s2 / (2 * (1 - rho))
        wl = WorkloadConfig(
            arrival_rate_per_s=rate, size_bits=Uniform(lo, hi),
            intensity_cpb=Constant(cpb), deadline_s=Constant(1.0),
            context_bounds=((lo, hi), (1.0, 1000.0), (0.5, 2.0)),
        )
        node = single_user_node(result_size_ratio=0.0, edge_vm_hz=vm_hz)
        channel = fixed_gain_channel(1e13, 1.0, gain=1.0)
        sim = Simulator(node, (channel,), substream(3, "gains"), policy=lambda s, t: 1)
        sim.add_arrivals(itertools.islice(arrivals(wl, 3, 1), n_tasks))
        waits = []  # in completion order, which FIFO makes arrival order
        while sim.has_events:
            out = sim.advance()
            if out is not None:
                waits.append(out.d3_s)
        batch_means = np.array(waits).reshape(20, -1).mean(axis=1)
        std_err = batch_means.std(ddof=1) / np.sqrt(20)
        assert len(waits) == n_tasks
        assert abs(batch_means.mean() - want) < 4 * std_err


DEFAULT_CONFIG =os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json")


class TestLocalProjectionUnderLoad:
    """A local task runs on its user's CPU, a FIFO station with one server
    that later arrivals queue behind, so its decision-time projection
    d1_s + t_exec_s is exact: the realized total may differ only by the
    rounding of the clock, about one ulp per job that queued ahead of it.
    The runs are live ones on configs/default.json, at its 40 and at 400
    tasks/s per user, under a random and an r policy."""

    TASKS = 4_000
    SLACK_ULPS = 4  # beyond one ulp per queued job

    @classmethod
    def worst_excess(cls, rate, policy_name, seed=3):
        """Run TASKS arrivals and give, over the local tasks, the largest
        |realized - projected total| in ulps of the completion clock minus
        the jobs its user's CPU held at decision, the most jobs held, and
        the number of local tasks."""
        cfg = load_config(DEFAULT_CONFIG)
        workload = dataclasses.replace(cfg.workload, arrival_rate_per_s=rate)
        picks = substream(seed, "policy")
        held = [0] * cfg.system.n_users  # local jobs admitted and not yet done, per user
        decided = {}  # task_id -> (projected total, jobs held at decision)

        def policy(sim, task):
            outs = sim.projections(task)
            if policy_name == "random":
                action = int(picks.integers(len(outs)))
            else:
                columns = (np.array([o.total_s for o in outs]), np.array([o.e_total_j for o in outs]))
                action = int(r_star(task.size_bits, *columns))
            if action == 0:
                decided[task.task_id] = (outs[0].d1_s + outs[0].t_exec_s, held[task.user_id])
                held[task.user_id] += 1
            return action

        sim = Simulator(cfg.system, cfg.channels, Uniforms(substream(seed, "gains")), policy)
        sim.add_arrivals(itertools.islice(arrivals(workload, seed, cfg.system.n_users), cls.TASKS))
        worst, deepest, n_local = -math.inf, 0, 0
        while sim.has_events:
            out = sim.advance()
            if out is None or out.action != 0:
                continue
            held[out.user_id] -= 1
            n_local += 1
            projected, ahead = decided.pop(out.task_id)
            ulps = abs(out.total_s - projected) / math.ulp(sim.clock)
            worst, deepest = max(worst, ulps - ahead), max(deepest, ahead)
        assert not decided
        return worst, deepest, n_local

    @pytest.mark.parametrize("policy_name", ["random", "r"])
    @pytest.mark.parametrize("rate", [40.0, 400.0])
    def test_realized_total_matches_projection(self, rate, policy_name):
        worst, deepest, n_local = self.worst_excess(rate, policy_name)
        assert n_local >= 100
        assert worst <= self.SLACK_ULPS, (worst, deepest)
        if rate == 400.0:
            assert deepest > 100  # the bound is checked under a deep queue


class TestSnapshotProjection:
    def test_block_drawn_gains_match_scalar_draws(self):
        # a constant-gain carrier draws nothing, so tasks straddle blocks
        node = NodeConfig(n_users=4, n_base_stations=2, n_channels=3)
        chans = default_channels()
        chans = (chans[0], fixed_gain_channel(2e6, 1.0, gain=0.7), chans[2])
        blocked = Simulator(node, chans, Uniforms(substream(9, "gains")))
        scalar = Simulator(node, chans, substream(9, "gains"))
        tasks = [make_task(task_id=i) for i in range(2000)]
        assert [repr(blocked.stage(t)) for t in tasks] == [repr(scalar.stage(t)) for t in tasks]

    def test_projection_matches_realized_on_idle_system(self):
        node = single_user_node(n_channels=2, result_size_ratio=0.1)
        chans = (fixed_gain_channel(2e6, 1.0, gain=0.7),
                 fixed_gain_channel(8e6, 2.0, gain=0.9))
        task = make_task(size_bits=5e4, intensity_cpb=500.0, deadline_s=0.1)
        for action in range(3):
            probe = Simulator(node, chans, substream(9, "gains"))
            projected = probe.projections(task)[action]
            realized = run_single(node, chans, task, action, seed=9)
            # projections are closed-form; realized durations are event-clock
            # differences, so stages starting at a non-dyadic clock may land
            # one ulp off the prediction
            assert projected.task_id == realized.task_id
            assert projected.action == realized.action
            assert projected.met_deadline == realized.met_deadline
            for field in ("d1_s", "d2_s", "d3_s", "d4_s", "t_exec_s",
                          "t_up_s", "t_down_s", "total_s",
                          "e_tx_j", "e_cpu_j", "e_rx_j", "e_total_j"):
                p, r = getattr(projected, field), getattr(realized, field)
                assert p == pytest.approx(r, rel=1e-12, abs=1e-300), field

    def test_snapshot_sees_virtual_residual(self):
        node = NodeConfig(n_users=2, n_base_stations=1, n_channels=1,
                          result_size_ratio=0.0)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        seen = {}

        def policy(sim, task):
            if task.task_id == 1:
                # user 0's own view at the same instant, through a probe task
                own = sim.snapshot(make_task(task_id=99, user_id=0, arrival_time=1.0))
                seen["up"] = own.uplink_backlog_bits[0]
                seen["own_others"] = own.uplink_others[0]
                snap = sim.snapshot(task)
                seen["others"] = snap.uplink_others[0]
                seen["self_bits"] = snap.uplink_backlog_bits[0]
            return 1 if task.task_id == 0 else 0

        sim = Simulator(node, (ch,), substream(0, "g"), policy=policy)
        sim.schedule_arrival(make_task(task_id=0, user_id=0, size_bits=2e6,
                                       intensity_cpb=10.0))
        sim.schedule_arrival(make_task(task_id=1, user_id=1, arrival_time=1.0,
                                       size_bits=1e4, intensity_cpb=10.0))
        sim.run_to_completion()
        assert seen["up"] == 1e6  # half the 2 Mb already drained
        assert seen["own_others"] == 0  # user 0's busy slot is its own, not a rival
        assert seen["others"] == 1  # user 0 transmits on user 1's domain
        assert seen["self_bits"] == 0.0  # user 1's own slot is idle

    def test_projection_contention_counts(self):
        node = NodeConfig(n_users=2, n_base_stations=1, n_channels=1,
                          result_size_ratio=0.0)
        ch = fixed_gain_channel(1e6, 1.0, gain=1.0)
        got = {}

        def policy(sim, task):
            if task.task_id == 1:
                got["proj"] = sim.projections(task)[1]
            return 1

        sim = Simulator(node, (ch,), substream(0, "g"), policy=policy)
        sim.schedule_arrival(make_task(task_id=0, user_id=0, size_bits=2e6,
                                       intensity_cpb=10.0))
        sim.schedule_arrival(make_task(task_id=1, user_id=1, arrival_time=1.0,
                                       size_bits=1e6, intensity_cpb=10.0))
        outs = {o.task_id: o for o in sim.run_to_completion()}
        # projected under the frozen 2-transmitter split
        assert got["proj"].t_up_s == 2.0
        assert got["proj"].d2_s == 0.0
        # realized matches here because A's residual (1 Mb at 0.5 Mb/s) keeps
        # the split alive for exactly B's whole transfer
        assert outs[1].t_up_s == 2.0

    def test_snapshot_is_pure(self):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(3, "g"))
        task = make_task(size_bits=1e5, intensity_cpb=100.0)
        before = len(sim._calendar)
        p1 = sim.projections(task)
        p2 = sim.projections(task)
        assert p1 == p2
        assert len(sim._calendar) == before

    def test_stage_idempotent_and_ordered(self):
        node = single_user_node(n_channels=3)
        chans = tuple(
            ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=Uniform(0.6, 1.0))
            for _ in range(3)
        )
        sim = Simulator(node, chans, substream(4, "gains"))
        mirror = substream(4, "gains")
        task = make_task(task_id=7)
        g1 = sim.stage(task)
        g2 = sim.stage(task)
        assert g1 == g2
        want = tuple(0.6 + 0.4 * mirror.random() for _ in range(3))
        assert g1 == want


def mixed_sim(n_tasks=2000, seed=13):
    """A mixed run's simulator with its feed added and no event popped, and
    the list of task ids its policy has decided (each one submitted)."""
    node = NodeConfig(n_users=5, n_base_stations=3, n_channels=3)
    wl = WorkloadConfig()
    act_rng = substream(seed, "actions")
    decided = []

    def policy(sim, task):
        decided.append(task.task_id)
        return int(act_rng.integers(4))

    sim = Simulator(node, default_channels(), substream(seed, "gains"),
                    policy=policy)
    sim.add_arrivals(itertools.islice(arrivals(wl, seed, 5), n_tasks))
    return sim, decided


def mixed_run(n_tasks=2000, seed=13):
    """(sim, outcomes, number of decisions) of a drained mixed run."""
    sim, decided = mixed_sim(n_tasks, seed)
    outs = sim.run_to_completion()
    return sim, outs, len(decided)


class TestMixedRunProperties:
    def test_conservation_and_identities(self):
        sim, outs, decided = mixed_run()
        assert len(outs) == 2000
        assert decided == 2000
        assert len(outs) == decided  # nothing submitted is left in flight
        assert len({o.task_id for o in outs}) == 2000
        for o in outs:
            parts = (o.d1_s + o.d2_s + o.t_up_s + o.d3_s + o.t_exec_s
                     + o.d4_s + o.t_down_s)
            assert abs(o.total_s - parts) <= 1e-9 * max(o.total_s, 1e-300)
            assert o.e_total_j == o.e_cpu_j + o.e_tx_j + o.e_rx_j
            assert o.met_deadline == (o.total_s <= o.deadline_s)
            assert o.total_s > 0.0
            if o.action == 0:
                assert o.e_tx_j == 0.0 and o.e_rx_j == 0.0
                assert (o.d2_s, o.d3_s, o.d4_s, o.t_up_s, o.t_down_s) == (0, 0, 0, 0, 0)
            else:
                assert o.e_cpu_j == 0.0
                assert o.d1_s == 0.0
                assert o.t_up_s > 0.0

    def test_bit_identical_reruns(self):
        _, a, _ = mixed_run(n_tasks=500)
        _, b, _ = mixed_run(n_tasks=500)
        assert a == b

    def test_a_feed_of_n_tasks_admits_exactly_n(self):
        sim, outs, decided = mixed_run(n_tasks=50)
        assert decided == 50
        assert not sim.has_events


class TestOutcomes:
    def test_outcomes_drains_lazily_like_run_to_completion(self):
        sim, decided = mixed_sim(n_tasks=200)
        drain = sim.outcomes()
        first = next(drain)
        assert sim.has_events  # later events are still on the calendar
        assert len(decided) < 200  # later arrivals are not decided yet
        rest = list(drain)
        assert not sim.has_events and len(decided) == 200
        assert [first] + rest == mixed_sim(n_tasks=200)[0].run_to_completion()


class TestTieHeavyDigest:
    def test_golden_digest(self):
        """Dyadic rates, constant gains and sizes, and batch arrivals on a
        0.25 s grid make local runs, VM runs and both radio legs finish at
        the same instants.  The sha256 of the outcomes in completion order
        was recorded before the CPU and VM shared the channels' code path."""
        node = NodeConfig(n_users=6, n_base_stations=2, n_channels=3, user_cpu_hz=2.0**30,
                          edge_vm_hz=2.0**32, result_size_ratio=0.25)
        chans = tuple(
            ChannelConfig(rate, rate, 1.0, 0.5, gain=Constant(gain))
            for rate, gain in ((2.0**20, 1.0), (2.0**21, 0.5), (2.0**22, 1.0))
        )
        sim = Simulator(node, chans, substream(0, "gains"),
                        policy=lambda s, t: t.task_id % 4 if t.task_id % 5 else 0)
        task_id = 0
        for step in range(30):
            for k in range(6):
                if (step + k) % 3:
                    sim.schedule_arrival(make_task(task_id=task_id, user_id=k,
                                                   arrival_time=0.25 * step, size_bits=2.0**18,
                                                   intensity_cpb=2.0**10, deadline_s=0.5))
                    task_id += 1
        outs, tied, tied_done, prev = [], 0, 0, None
        while sim.has_events:
            out = sim.advance()
            if sim.clock == prev:
                tied += 1
                tied_done += out is not None
            prev = sim.clock
            if out is not None:
                outs.append(out)
        assert len(outs) == 120
        assert {o.action for o in outs} == {0, 1, 2, 3}
        assert tied >= 20 and tied_done >= 20
        digest = hashlib.sha256(repr([tuple(o) for o in outs]).encode()).hexdigest()
        assert digest == "1c9e8dd0284e57a9197262d88c6a196a5393d93ef33dc4297e1dc3507000c4e9"


    def test_deferred_resplit_digest(self):
        """After a departure with no successor and no member latched to
        finish at that instant, the remaining members' rate is re-split by
        a later event at the same instant, not at once, so other events
        tied at that instant go first.  Re-splitting inside the departure
        changes these outcomes."""
        node = NodeConfig(n_users=5, n_base_stations=2, n_channels=3, user_cpu_hz=2.0**30,
                          edge_vm_hz=2.0**31, result_size_ratio=0.5)
        chans = tuple(
            ChannelConfig(2.0**18, down, 1.0, 0.5, gain=Constant(gain))
            for down, gain in ((2.0**18, 0.5), (2.0**21, 0.5), (2.0**20, 1.0))
        )
        tasks = [  # (user, arrival_s, size_bits, intensity_cpb, action)
            (0, .125, 2.0**15, 512.0, 3), (4, .125, 2.0**17, 512.0, 3),
            (0, .25, 2.0**18, 1024.0, 3), (2, .25, 2.0**16, 512.0, 1),
            (4, .25, 2.0**17, 256.0, 1), (4, .375, 2.0**16, 256.0, 3),
            (2, .5, 2.0**15, 256.0, 3),
        ]
        sim = Simulator(node, chans, substream(0, "gains"),
                        policy=lambda s, t: tasks[t.task_id][4])
        for task_id, (user, arrival, size, intensity, _) in enumerate(tasks):
            sim.schedule_arrival(make_task(task_id=task_id, user_id=user, arrival_time=arrival,
                                           size_bits=size, intensity_cpb=intensity,
                                           deadline_s=0.5))
        outs = sim.run_to_completion()
        assert len(outs) == len(tasks)
        digest = hashlib.sha256(repr([tuple(o) for o in outs]).encode()).hexdigest()
        assert digest == "ad4680672d00b29b054babea885820f3fd3ee21fcb9532d9366e5eea762c56d6"

def reference_projections(sim, task):
    """Every action's what-if outcome, computed from backlog and occupancy
    tables over all users and base stations; the reference that
    Simulator.projections must match bit for bit."""
    gains = sim.stage(task)
    node = sim.node
    K, N, C = node.n_users, node.n_base_stations, node.n_channels
    now = sim.clock

    def busy_cycles(tx, hz):
        if tx is None:
            return 0.0
        return max(0.0, (tx.finish - now) * hz)

    def tx_residual(tx):
        if tx is None:
            return 0.0
        return max(0.0, tx.residual - tx.rate * (now - tx.last_settle))

    local = [
        sum(j.task.size_bits * j.task.intensity_cpb for j in sim._cpu[k].queue)
        + busy_cycles(sim._cpu[k].slot, node.user_cpu_hz)
        for k in range(K)
    ]
    edge = [
        sum(j.task.size_bits * j.task.intensity_cpb for j in sim._vm[k].queue)
        + busy_cycles(sim._vm[k].slot, node.edge_vm_hz)
        for k in range(K)
    ]
    up_bits = [
        [sum(j.task.size_bits for j in sim._up[k][c].queue) + tx_residual(sim._up[k][c].slot)
         for c in range(C)]
        for k in range(K)
    ]
    down_bits = [
        [sum(node.result_size_ratio * j.task.size_bits for j in sim._down[n][c].queue) + tx_residual(sim._down[n][c].slot)
         for c in range(C)]
        for n in range(N)
    ]
    assoc = node.association
    up_active = {
        (assoc[k], c): len(sim._up[k][c].domain.members) for k in range(K) for c in range(C)
    }
    up_self = [[sim._up[k][c].slot is not None for c in range(C)] for k in range(K)]
    down_active = [len(sim._down[0][c].domain.members) for c in range(C)]
    down_slot = [[sim._down[n][c].slot is not None for c in range(C)] for n in range(N)]

    user, size, cpb = task.user_id, task.size_bits, task.intensity_cpb
    bs = assoc[user]
    outs = []
    for action in range(C + 1):
        d1 = d2 = d3 = d4 = 0.0
        t_up = t_down = 0.0
        e_cpu = e_tx = e_rx = 0.0
        if action == 0:
            d1 = local[user] / node.user_cpu_hz
            t_exec = exec_time(size, cpb, node.user_cpu_hz)
            e_cpu = cpu_energy(node.kappa_j_per_cycle_hz2, size, cpb, node.user_cpu_hz)
            total = d1 + t_exec
        else:
            c = action - 1
            ch = sim.channels[c]
            n_up = up_active[(bs, c)] - (1 if up_self[user][c] else 0) + 1
            r_up = fair_share_rate(ch.uplink_rate_bps, gains[c], n_up)
            d2 = up_bits[user][c] / r_up
            t_up = size / r_up
            d3 = edge[user] / node.edge_vm_hz
            t_exec = exec_time(size, cpb, node.edge_vm_hz)
            e_tx = radio_energy(t_up, ch.uplink_power_w)
            result_bits = node.result_size_ratio * size
            if result_bits > 0:
                n_dn = down_active[c] - (1 if down_slot[bs][c] else 0) + 1
                r_dn = fair_share_rate(ch.downlink_rate_bps, gains[c], n_dn)
                d4 = down_bits[bs][c] / r_dn
                t_down = result_bits / r_dn
                e_rx = radio_energy(t_down, ch.downlink_power_w)
            total = d2 + t_up + d3 + t_exec + d4 + t_down
        outs.append(TaskOutcome(
            task_id=task.task_id, user_id=user, action=action,
            arrival_s=task.arrival_time, size_bits=size, intensity_cpb=cpb,
            deadline_s=task.deadline_s, d1_s=d1, d2_s=d2, d3_s=d3, d4_s=d4,
            t_exec_s=t_exec, t_up_s=t_up, t_down_s=t_down, total_s=total,
            e_cpu_j=e_cpu, e_tx_j=e_tx, e_rx_j=e_rx, e_total_j=e_tx + e_cpu + e_rx,
            met_deadline=total <= task.deadline_s,
        ))
    return outs


def loaded_run(node, on_decision, n_decisions=1500):
    """A loaded mixed run of 12 users under random actions: uplink queues
    build up, the deciding user's own uplink and its base station's downlink
    slots are sometimes busy, and several base stations share each downlink
    channel.  on_decision(sim, task) sees every decision before it is made.
    Returns the number of decisions made."""
    wl = WorkloadConfig(arrival_rate_per_s=150.0)
    act_rng = substream(21, "actions")
    decided = []

    def policy(sim, task):
        on_decision(sim, task)
        decided.append(task.task_id)
        return int(act_rng.integers(node.n_channels + 1))

    sim = Simulator(node, default_channels(), substream(21, "gains"), policy=policy)
    sim.add_arrivals(itertools.islice(arrivals(wl, 21, node.n_users), n_decisions))
    sim.run_to_completion()
    return len(decided)


def stack(snaps):
    """One column Snapshot from per-decision ones: its task's fields and
    the scalar fields become (R,) arrays, per-channel fields (C, R) arrays."""
    task = Task(*(np.array([getattr(one.task, name) for one in snaps]) for name in Task._fields))
    return Snapshot(
        task,
        *(np.array([getattr(one, name) for one in snaps]).T for name in Snapshot._fields[1:-2]),
        snaps[0].node, snaps[0].channels,
    )


def assert_column_matches_scalar(snap_col, snaps):
    """project_outcome on the column equals the per-decision calls, field
    by field and bit for bit, for every action."""
    for action in range(len(snap_col.channels) + 1):
        col = project_outcome(snap_col, action)
        one = [project_outcome(sn, action) for sn in snaps]
        for name in TaskOutcome._fields:
            want = np.array([getattr(o, name) for o in one])
            got = np.broadcast_to(getattr(col, name), want.shape)
            assert got.dtype == want.dtype, (action, name)
            assert got.tobytes() == want.tobytes(), (action, name)


class TestDecisionViewReference:
    def test_projections_match_the_all_user_reference(self):
        node = NodeConfig(n_users=12, n_base_stations=3, n_channels=3)
        seen = dict(decisions=0, up_queued=0, up_self=0, down_slot=0, down_shared=0,
                    local_queued=0, edge_busy=0)
        names = TaskOutcome._fields

        def check(sim, task):
            got = sim.projections(task)
            want = reference_projections(sim, task)
            for g, w in zip(got, want, strict=True):
                assert [(n, getattr(g, n)) for n in names] == [(n, getattr(w, n)) for n in names]
            user = task.user_id
            bs = node.association[user]
            chans = range(node.n_channels)
            seen["decisions"] += 1
            seen["up_queued"] += any(sim._up[user][c].queue for c in chans)
            seen["up_self"] += any(sim._up[user][c].slot is not None for c in chans)
            seen["down_slot"] += any(sim._down[bs][c].slot is not None for c in chans)
            seen["down_shared"] += any(
                len({job.route[job.hop] for job in sim._down[bs][c].domain.members}) >= 2
                for c in chans
            )
            seen["local_queued"] += bool(sim._cpu[user].queue)
            seen["edge_busy"] += sim._vm[user].slot is not None

        assert loaded_run(node, check) == 1500
        assert seen["decisions"] == 1500
        for key, count in seen.items():
            assert count >= 20, (key, seen)

    @staticmethod
    def logged_decisions(result_size_ratio, n_decisions):
        node = NodeConfig(n_users=12, n_base_stations=3, n_channels=3,
                          result_size_ratio=result_size_ratio)
        snaps = []
        loaded_run(node, lambda sim, task: snaps.append(sim.snapshot(task)), n_decisions)
        return snaps

    @pytest.mark.parametrize("result_size_ratio", [0.1, 0.0])
    def test_column_projection_matches_the_scalar_calls(self, result_size_ratio):
        snaps = self.logged_decisions(result_size_ratio, 600)
        assert len(snaps) == 600
        assert any(sn.uplink_backlog_bits != (0.0,) * 3 for sn in snaps)
        assert_column_matches_scalar(stack(snaps), snaps)
        if result_size_ratio > 0:
            # a result too small to be a float is not sent, decided per task,
            # here by a task that would otherwise queue behind a busy downlink
            i = next(i for i, sn in enumerate(snaps) if max(sn.downlink_backlog_bits) > 0)
            snaps[i] = snaps[i]._replace(task=snaps[i].task._replace(size_bits=5e-324))
            assert_column_matches_scalar(stack(snaps), snaps)

    @pytest.mark.parametrize("action", [0, 1, 3])
    @pytest.mark.parametrize(
        "field, bad",
        [("size_bits", 0.0), ("intensity_cpb", -1.0), ("gains", 0.0), ("gains", float("nan"))],
    )
    def test_one_bad_element_raises_the_scalar_error(self, action, field, bad):
        snaps = self.logged_decisions(0.1, 50)
        if field == "gains":
            snaps[31] = snaps[31]._replace(gains=(bad,) * 3)
            action = action or 2  # a local run reads no gain
        else:
            snaps[31] = snaps[31]._replace(task=snaps[31].task._replace(**{field: bad}))
        with pytest.raises((ValueError, SimulationError)) as scalar:
            project_outcome(snaps[31], action)
        with pytest.raises(type(scalar.value)) as column:
            project_outcome(stack(snaps), action)
        assert str(column.value) == str(scalar.value)


class TestValidationAndErrors:
    def test_submit_validates(self):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(0, "g"))
        with pytest.raises(ValueError):
            sim.submit(make_task(arrival_time=1.0), 0)  # clock is 0
        with pytest.raises(ValueError):
            sim.submit(make_task(), 2)  # only actions 0..1 exist
        with pytest.raises(ValueError):
            sim.submit(make_task(user_id=3), 0)

    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("field", ["size_bits", "intensity_cpb"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_submit_rejects_a_bad_size_or_intensity(self, action, field, bad):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(0, "g"))
        with pytest.raises(ValueError, match="finite positive"):
            sim.submit(make_task(**{field: bad}), action)
        assert not sim.has_events and sim.run_to_completion() == []

    @pytest.mark.parametrize("u, shown", [(1.5, "1.2"), (-2.0, "-0.2"), (float("nan"), "nan")])
    def test_a_gain_outside_0_1_fails_its_transmission(self, u, shown):
        """A gain draw the channel's support cannot give, from a scripted
        stream, fails with fair_share_rate's error when its leg starts."""
        node = single_user_node()
        ch = ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=Uniform(0.6, 1.0))
        sim = Simulator(node, (ch,), StubRng([u]))
        with pytest.raises(ValueError, match=rf"^gain must be in \(0, 1\], got {shown}"):
            sim.submit(make_task(), 1)

    def test_advance_on_empty_calendar(self):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(0, "g"))
        with pytest.raises(SimulationError):
            sim.advance()

    def test_late_arrival_rejected(self):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(0, "g"),
                        policy=lambda s, t: 0)
        sim.schedule_arrival(make_task(task_id=0, arrival_time=1.0))
        sim.run_to_completion()
        with pytest.raises(ValueError):
            sim.schedule_arrival(make_task(task_id=1, arrival_time=0.5))
