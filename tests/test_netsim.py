from dataclasses import fields

import numpy as np
import pytest

from conftest import fixed_gain_channel, make_task, single_user_node
from e2da.errors import ConfigError, SimulationError
from e2da.netsim import (
    ChannelConfig,
    NodeConfig,
    Simulator,
    TaskOutcome,
    cpu_energy,
    default_channels,
    exec_time,
    fair_share_rate,
    project_outcome,
    radio_energy,
)
from e2da.rng import substream
from e2da.workload import DistributionSpec, WorkloadConfig, task_stream


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
        bad = ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=DistributionSpec.uniform(0.5, 1.2))
        with pytest.raises(ConfigError):
            bad.validate()
        zero = ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=DistributionSpec.constant(0.0))
        with pytest.raises(ConfigError):
            zero.validate()

    def test_default_channels_shape(self):
        chans = default_channels()
        assert len(chans) == 3
        for ch in chans:
            ch.validate()

    def test_association_default_round_robin(self):
        node = NodeConfig(n_users=5, n_base_stations=3)
        assert node.resolved_association() == (0, 1, 2, 0, 1)

    def test_association_explicit(self):
        node = NodeConfig(n_users=3, n_base_stations=2, association=(1, 1, 0))
        assert node.resolved_association() == (1, 1, 0)
        bad = NodeConfig(n_users=3, n_base_stations=2, association=(0, 2, 0))
        with pytest.raises(ConfigError):
            bad.validate()

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
        """As above, plus user 4's stream: a local task at 2.5 schedules an
        arrival at 3.5, the instant tasks 0 and 1 finish.  That arrival was
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
        sim.add_stream(4, iter([
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


class TestSnapshotProjection:
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
            ChannelConfig(1e6, 1e6, 1.0, 0.5, gain=DistributionSpec.uniform(0.6, 1.0))
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

    def test_projection_rejects_foreign_snapshot(self):
        node = single_user_node()
        sim = Simulator(node, (fixed_gain_channel(1e6, 1.0),), substream(0, "g"))
        snap = sim.snapshot(make_task(task_id=1))
        with pytest.raises(ValueError):
            project_outcome(snap, make_task(task_id=2), 0)


def mixed_run(n_tasks=2000, seed=13):
    node = NodeConfig(n_users=5, n_base_stations=3, n_channels=3)
    wl = WorkloadConfig()
    act_rng = substream(seed, "actions")
    decided = [0]

    def policy(sim, task):
        decided[0] += 1
        if decided[0] >= n_tasks:
            sim.halt_arrivals()
        return int(act_rng.integers(4))

    sim = Simulator(node, default_channels(), substream(seed, "gains"),
                    policy=policy)
    for u in range(5):
        sim.add_stream(u, task_stream(wl, seed, u, 5))
    outs = sim.run_to_completion()
    return sim, outs


class TestMixedRunProperties:
    def test_conservation_and_identities(self):
        sim, outs = mixed_run()
        assert len(outs) == 2000
        assert sim.admitted == 2000
        assert sim.in_flight_count() == 0
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
        _, a = mixed_run(n_tasks=500)
        _, b = mixed_run(n_tasks=500)
        assert a == b

    def test_halt_truly_stops_admissions(self):
        sim, outs = mixed_run(n_tasks=50)
        assert sim.admitted == 50
        assert not sim.has_events


def reference_projections(sim, task):
    """Every action's what-if outcome, computed from backlog and occupancy
    tables over all users and base stations; the reference that
    Simulator.projections must match bit for bit."""
    gains = sim.stage(task)
    node = sim.node
    K, N, C = node.n_users, node.n_base_stations, node.n_channels
    now = sim.clock

    def busy_cycles(job, hz):
        if job is None:
            return 0.0
        return max(0.0, (job.done_t - now) * hz)

    def tx_residual(tx):
        if tx is None:
            return 0.0
        return max(0.0, tx.residual - tx.rate * (now - tx.last_settle))

    local = [
        sum(j.task.size_bits * j.task.intensity_cpb for j in sim._local_q[k])
        + busy_cycles(sim._local_busy[k], node.user_cpu_hz)
        for k in range(K)
    ]
    edge = [
        sum(j.task.size_bits * j.task.intensity_cpb for j in sim._edge_q[k])
        + busy_cycles(sim._edge_busy[k], node.edge_vm_hz)
        for k in range(K)
    ]
    up_bits = [
        [sum(j.task.size_bits for j in sim._up_q[(k, c)]) + tx_residual(sim._up_tx[(k, c)])
         for c in range(C)]
        for k in range(K)
    ]
    down_bits = [
        [sum(j.result_bits for j in sim._down_q[(n, c)]) + tx_residual(sim._down_tx[(n, c)])
         for c in range(C)]
        for n in range(N)
    ]
    up_active = [[len(sim._up_dom[(n, c)].members) for c in range(C)] for n in range(N)]
    up_self = [[sim._up_tx[(k, c)] is not None for c in range(C)] for k in range(K)]
    down_active = [len(sim._down_dom[c].members) for c in range(C)]
    down_slot = [[sim._down_tx[(n, c)] is not None for c in range(C)] for n in range(N)]

    user, size, cpb = task.user_id, task.size_bits, task.intensity_cpb
    bs = node.resolved_association()[user]
    outs = []
    for action in range(C + 1):
        d1 = d2 = d3 = d4 = 0.0
        t_up = t_down = 0.0
        e_cpu = e_tx = e_rx = 0.0
        if action == 0:
            d1 = local[user] / node.user_cpu_hz
            t_exec = exec_time(size, cpb, node.user_cpu_hz)
            e_cpu = cpu_energy(node.kappa, size, cpb, node.user_cpu_hz)
            total = d1 + t_exec
        else:
            c = action - 1
            ch = sim.channels[c]
            n_up = up_active[bs][c] - (1 if up_self[user][c] else 0) + 1
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


class TestDecisionViewReference:
    def test_projections_match_the_all_user_reference(self):
        """A loaded mixed run: uplink queues build up, the deciding user's own
        uplink and its base station's downlink slots are sometimes busy, and
        several base stations share each downlink channel."""
        node = NodeConfig(n_users=12, n_base_stations=3, n_channels=3)
        wl = WorkloadConfig(arrival_rate_per_s=150.0)
        act_rng = substream(21, "actions")
        seen = dict(decisions=0, up_queued=0, up_self=0, down_slot=0, down_shared=0,
                    local_queued=0, edge_busy=0)
        names = [f.name for f in fields(TaskOutcome)]

        def policy(sim, task):
            got = sim.projections(task)
            want = reference_projections(sim, task)
            for g, w in zip(got, want, strict=True):
                assert [(n, getattr(g, n)) for n in names] == [(n, getattr(w, n)) for n in names]
            user = task.user_id
            bs = node.resolved_association()[user]
            chans = range(node.n_channels)
            seen["decisions"] += 1
            seen["up_queued"] += any(sim._up_q[(user, c)] for c in chans)
            seen["up_self"] += any(sim._up_tx[(user, c)] is not None for c in chans)
            seen["down_slot"] += any(sim._down_tx[(bs, c)] is not None for c in chans)
            seen["down_shared"] += any(
                len({tx.queue_key[0] for tx in sim._down_dom[c].members}) >= 2 for c in chans
            )
            seen["local_queued"] += bool(sim._local_q[user])
            seen["edge_busy"] += sim._edge_busy[user] is not None
            if seen["decisions"] >= 1500:
                sim.halt_arrivals()
            return int(act_rng.integers(node.n_channels + 1))

        sim = Simulator(node, default_channels(), substream(21, "gains"), policy=policy)
        for u in range(node.n_users):
            sim.add_stream(u, task_stream(wl, 21, u, node.n_users))
        sim.run_to_completion()
        assert seen["decisions"] == 1500
        for key, count in seen.items():
            assert count >= 20, (key, seen)


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
