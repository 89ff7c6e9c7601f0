"""Release acceptance gate: ten end-to-end checks over the whole package.

Each check prints one [C<n>] PASS/FAIL line with its measured value and
tolerance; the prints bypass capture so the gate reads as a checklist even
on a fully green run.  Heavy artifacts (the benchmark dataset, the trained
agents) are module-scoped fixtures shared across checks.

Scenario constants were chosen once, verified empirically, and are frozen:
changing them invalidates the recorded baselines in the repository notes.
"""

import itertools
import json
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import (
    finite_difference_grads,
    fixed_gain_channel,
    max_rel_err,
    single_user_node,
)
from e2da import cli
from e2da.bandit import E2daAgent, MlpModel, RewardParams
from e2da.config import AgentConfig
from e2da.experiment import (
    calibrate_efficiency_scale,
    generate_dataset,
    make_policy,
    run_evaluation,
    run_live_evaluation,
    run_training,
    summarize,
)
from e2da.netsim import Simulator
from e2da.rng import substream
from e2da.system import ChannelConfig, NodeConfig, default_channels
from e2da.workload import Task, Uniform, WorkloadConfig, arrivals


def trailing_mean(values, window):
    """At each i, the mean of values[max(0, i - window + 1): i + 1], taken
    from one cumulative sum."""
    csum = np.cumsum(np.asarray(values, dtype=np.float64))
    out = []
    for i in range(len(csum)):
        lo = max(0, i - window + 1)
        out.append((csum[i] - (csum[lo - 1] if lo > 0 else 0.0)) / (i - lo + 1))
    return np.array(out)


def report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {detail}: {'PASS' if ok else 'FAIL'}")
    return ok


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


# The benchmark scenario: three channels spanning a real trade-off.  The
# slow channel is energy-cheap per second but misses deadlines on big
# tasks, the fast channel is quick but power-hungry, the middle channel
# balances both; deadlines are loose enough that good scheduling can meet
# nearly all of them.
BENCH_NODE = NodeConfig(n_users=5, n_base_stations=3, n_channels=3)
BENCH_CHANNELS = (
    ChannelConfig(uplink_rate_bps=0.8e6, downlink_rate_bps=0.8e6,
                  uplink_power_w=0.05, downlink_power_w=0.025, carrier_mhz=700),
    ChannelConfig(uplink_rate_bps=8e6, downlink_rate_bps=8e6,
                  uplink_power_w=1.0, downlink_power_w=0.5, carrier_mhz=1500),
    ChannelConfig(uplink_rate_bps=16e6, downlink_rate_bps=16e6,
                  uplink_power_w=8.0, downlink_power_w=4.0, carrier_mhz=2600),
)
BENCH_WORKLOAD = WorkloadConfig(
    arrival_rate_per_s=40.0, deadline_s=Uniform(0.025, 0.045)
)
BENCH_SEEDS = (1, 2, 3)
EPISODE_TASKS = 100


@pytest.fixture(scope="module")
def bench_dataset():
    return generate_dataset(BENCH_NODE, BENCH_CHANNELS, BENCH_WORKLOAD, 5000, seed=101)


@pytest.fixture(scope="module")
def bench_params(bench_dataset):
    return RewardParams(1.0, calibrate_efficiency_scale(bench_dataset))


# The four 100,000-step trainings, seeds 1-3 of the protocol and C10's
# control, are independent and seeded, so they run side by side in worker
# processes.  Workers are spawned, not forked from a process that may hold
# BLAS threads, so each gets its data as arguments and returns what the
# checks read.


def protocol_run(dataset, params, seed):
    """Full train/test protocol for one seed, the learner against each
    oracle: the mean test-episode reward per policy, the training rows and
    the run's own wall time."""
    t0 = time.perf_counter()
    rewards = {}
    for name in ("eel", "ee", "r"):
        rows = run_evaluation(
            make_policy(name), dataset, BENCH_WORKLOAD, params, 100, EPISODE_TASKS, seed=seed,
        )
        rewards[name] = float(np.mean([r.reward for r in rows]))
    agent = E2daAgent.create(AgentConfig(), 4, params, seed)
    train_rows = run_training(agent, dataset, BENCH_WORKLOAD, 1000, EPISODE_TASKS, seed=seed)
    eval_rows = run_evaluation(
        make_policy("e2da", [agent]), dataset, BENCH_WORKLOAD, params, 100, EPISODE_TASKS,
        seed=seed,
    )
    rewards["e2da"] = float(np.mean([r.reward for r in eval_rows]))
    return rewards, train_rows, time.perf_counter() - t0


def control_run(dataset, params, seed):
    """Training rows of an agent pinned to always explore."""
    pinned = AgentConfig(epsilon0=1.0, epsilon_decay=1.0, epsilon_min=1.0)
    agent = E2daAgent.create(pinned, 4, params, seed)
    return run_training(agent, dataset, BENCH_WORKLOAD, 1000, EPISODE_TASKS, seed=seed)


def strict_worker():
    """A worker fails on a RuntimeWarning, as the suite does (pyproject.toml)."""
    warnings.simplefilter("error", RuntimeWarning)


@pytest.fixture(scope="module")
def trainings(bench_dataset, bench_params):
    """(protocol runs for BENCH_SEEDS in order, control rows at seed 7)."""
    workers = min(4, os.cpu_count() or 1)
    args = (bench_dataset, bench_params)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, spawn, initializer=strict_worker) as pool:
        runs = [pool.submit(protocol_run, *args, seed) for seed in BENCH_SEEDS]
        control = pool.submit(control_run, *args, 7)
        return [run.result() for run in runs], control.result()


@pytest.fixture(scope="module")
def convergence_runs(trainings):
    """Per-policy test rewards averaged over the seeds, the training series,
    and the seeds' summed wall time: parallel workers do not shrink it."""
    runs, _ = trainings
    return {
        "rewards": {
            name: float(np.mean([rewards[name] for rewards, _, _ in runs]))
            for name in ("e2da", "eel", "ee", "r")
        },
        "train_series": [rows for _, rows, _ in runs],
        "elapsed_s": sum(seconds for _, _, seconds in runs),
    }


class TestOutcomeAccounting:
    def test_c1_identities_hold_over_mixed_run(self, capsys):
        n_tasks = 100_000
        seed = 13
        act_rng = substream(seed, "actions")

        def policy(sim, task):
            return int(act_rng.integers(4))

        t0 = time.perf_counter()
        sim = Simulator(
            BENCH_NODE, default_channels(), substream(seed, "gains"), policy=policy
        )
        sim.add_arrivals(
            itertools.islice(arrivals(WorkloadConfig(), seed, BENCH_NODE.n_users), n_tasks)
        )
        outs = sim.run_to_completion()
        elapsed = time.perf_counter() - t0

        worst_t = worst_e = 0.0
        zeros_ok = True
        for o in outs:
            if o.action == 0:
                parts = o.d1_s + o.t_exec_s
                zeros_ok &= o.e_tx_j == 0.0 and o.e_rx_j == 0.0
            else:
                parts = o.d2_s + o.t_up_s + o.d3_s + o.t_exec_s + o.d4_s + o.t_down_s
            worst_t = max(worst_t, rel_err(parts, o.total_s))
            worst_e = max(worst_e, rel_err(o.e_cpu_j + o.e_tx_j + o.e_rx_j, o.e_total_j))
        ok = (
            len(outs) == n_tasks
            and worst_t <= 1e-9
            and worst_e <= 1e-9
            and zeros_ok
            and elapsed < 30.0
        )
        report(
            capsys, "C1", ok,
            f"time/energy decomposition identities over {len(outs)} mixed tasks: "
            f"worst rel err {worst_t:.2e}/{worst_e:.2e} (tol 1e-9), "
            f"local radio energy all zero: {zeros_ok}, "
            f"runtime {elapsed:.1f}s (limit 30s)",
        )
        assert len(outs) == n_tasks
        assert worst_t <= 1e-9 and worst_e <= 1e-9
        assert zeros_ok
        assert elapsed < 30.0


class TestZeroLoadParity:
    def test_c2_single_task_matches_hand_computation(self, capsys):
        node = single_user_node()
        chan = fixed_gain_channel(2e6, 1.5, gain=0.8, down_rate_bps=1e6, down_power_w=0.75)

        def run_single(action):
            sim = Simulator(node, [chan], substream(0, "gains"),
                            policy=lambda s, t: action)
            task = Task(task_id=0, user_id=0, arrival_time=0.0,
                        size_bits=1e6, intensity_cpb=1000.0, deadline_s=10.0)
            sim.schedule_arrival(task)
            outs = sim.run_to_completion()
            assert len(outs) == 1
            return outs[0]

        local = run_single(0)
        off = run_single(1)
        t_up = 1e6 / (0.8 * 2e6)
        t_exec_edge = 1e6 * 1000.0 / 4e9
        t_down = 0.1 * 1e6 / (0.8 * 1e6)
        checks = {
            "local t_exec": local.t_exec_s == 1.0,
            "local total": local.total_s == 1.0,
            "local e_cpu": local.e_cpu_j == 1e-27 * 1e6 * 1000.0 * 1e9**2,
            "uplink time": off.t_up_s == t_up,
            "edge exec": off.t_exec_s == t_exec_edge,
            "downlink time": off.t_down_s == t_down,
            "offload total": off.total_s == t_up + t_exec_edge + t_down,
            "tx energy": off.e_tx_j == t_up * 1.5,
            "rx energy": off.e_rx_j == t_down * 0.75,
        }
        ok = all(checks.values())
        bad = [k for k, v in checks.items() if not v]
        report(
            capsys, "C2", ok,
            "idle-system single task matches closed forms exactly "
            f"(== on floats, 9 quantities){'; failed: ' + ', '.join(bad) if bad else ''}",
        )
        assert ok, bad


class TestGradientOracle:
    # Finite differences are only a valid oracle where the loss is smooth.
    # A ReLU kink within the step h of a hidden pre-activation makes the
    # two-sided difference measure the kink, not the gradient, so each
    # (net, batch) pair is redrawn until every hidden pre-activation sits
    # at least 100x the step away from zero.  Biases are randomized because
    # zero biases park all-negative samples exactly on the kink.
    H = 1e-5
    MARGIN = 1e-3

    def batch_is_clear(self, model, x):
        h = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = h @ w.T + b
            if np.min(np.abs(z)) < self.MARGIN:
                return False
            h = np.maximum(z, 0.0)
        return True

    def test_c3_analytic_gradients_match_finite_differences(self, capsys):
        t0 = time.perf_counter()
        rng = substream(33, "nets")
        worst = 0.0
        redraws = 0
        for _ in range(100):
            model = MlpModel((3, 8, 8, 4), 0.01, 0.99, 1e-8, rng=rng)
            for b in model.biases:
                b[:] = rng.uniform(-0.2, 0.2, size=b.shape)
            x = rng.random((8, 3))
            while not self.batch_is_clear(model, x):
                redraws += 1
                x = rng.random((8, 3))
            actions = rng.integers(0, 4, size=8)
            targets = rng.random(8)
            _, gw, gb = model.loss_and_grads(x, actions, targets)
            gw, gb = [g.copy() for g in gw], [g.copy() for g in gb]  # the next call overwrites
            fw, fb = finite_difference_grads(model, x, actions, targets, h=self.H)
            worst = max(worst, max_rel_err(gw, fw), max_rel_err(gb, fb))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-4 and elapsed < 10.0
        report(
            capsys, "C3", ok,
            f"100 nets 3-8-8-4, analytic vs central-difference gradients "
            f"(step 1e-5, batches redrawn {redraws}x to keep kinks 100 steps "
            f"away): max rel err {worst:.2e} (tol 1e-4), "
            f"runtime {elapsed:.1f}s (limit 10s)",
        )
        assert worst < 1e-4
        assert elapsed < 10.0


class TestOracleAttainment:
    def test_c4_picks_attain_extremes_on_every_record(self, capsys, bench_dataset):
        from e2da.baselines import ee_star, eel_star, r_star

        r_ok = ee_ok = eel_ok = True
        ds = bench_dataset
        columns = (ds.size_bits[:, None], ds.total_s, ds.e_total_j)
        r_picks, ee_picks, eel_picks = (
            rule(*columns).tolist() for rule in (r_star, ee_star, eel_star)
        )
        records = zip(ds.size_bits.tolist(), ds.total_s.tolist(), ds.e_total_j.tolist())
        for i, (size, totals, energies) in enumerate(records):
            r_ok &= totals[r_picks[i]] == min(totals)
            ee_ok &= size / energies[ee_picks[i]] == max(size / e for e in energies)
            p = eel_picks[i]
            eel_ok &= size / (totals[p] * energies[p]) == max(
                size / (t * e) for t, e in zip(totals, energies)
            )
        ok = r_ok and ee_ok and eel_ok
        report(
            capsys, "C4", ok,
            f"exhaustive per-record optimality on {len(bench_dataset)} records "
            f"(exact ==): min-time rule {r_ok}, max bits/J rule {ee_ok}, "
            f"max bits/(s*J) rule {eel_ok}",
        )
        assert r_ok and ee_ok and eel_ok


class TestLearningConvergence:
    def test_c5_learner_reaches_oracle_band(self, capsys, convergence_runs):
        m = convergence_runs["rewards"]
        elapsed = convergence_runs["elapsed_s"]
        ok = (
            m["e2da"] >= 0.9 * m["eel"]
            and m["e2da"] > m["ee"]
            and m["e2da"] > m["r"]
            and elapsed < 600.0
        )
        report(
            capsys, "C5", ok,
            f"mean test-episode reward over {len(BENCH_SEEDS)} seeds: learner "
            f"{m['e2da']:.3f} vs efficiency-per-time oracle {m['eel']:.3f} "
            f"(need >= 0.9x), energy oracle {m['ee']:.3f} and fastest-route "
            f"oracle {m['r']:.3f} (need strictly greater), "
            f"runtime summed over seeds {elapsed:.0f}s (limit 600s)",
        )
        assert m["e2da"] >= 0.9 * m["eel"]
        assert m["e2da"] > m["ee"]
        assert m["e2da"] > m["r"]
        assert elapsed < 600.0


class TestDeadlineTrend:
    def test_c6_smoothed_deadline_fraction_improves(self, capsys, convergence_runs):
        firsts, lasts = [], []
        for rows in convergence_runs["train_series"]:
            sm = trailing_mean([r.deadline_frac for r in rows], 20)
            firsts.append(float(np.mean(sm[:100])))
            lasts.append(float(np.mean(sm[-100:])))
        first, last = float(np.mean(firsts)), float(np.mean(lasts))
        ok = last >= first
        report(
            capsys, "C6", ok,
            f"window-20 smoothed deadline-met fraction during training: "
            f"first 100 episodes {first:.3f} -> last 100 episodes {last:.3f} "
            f"(need last >= first)",
        )
        assert last >= first


def live_sweep_means(policy_name, node, channels, workload, seed=17):
    params = RewardParams(1.0, 1e9)  # ratios are scale-free
    rows = run_live_evaluation(
        policy_name, node, channels, workload, params, 20, EPISODE_TASKS, seed
    )
    stats = summarize({policy_name: rows}, EPISODE_TASKS)["agents"][policy_name]
    return stats["mean_task_energy_j"], stats["mean_task_response_s"]


class TestIntensitySweep:
    def test_c7_compute_heavier_tasks_cost_time_not_radio_energy(self, capsys):
        # Small payloads, compute-bound tasks: quadrupling mean intensity
        # should blow up response time through edge queueing while barely
        # moving the energy-greedy policy's radio energy.
        node = NodeConfig(n_users=10, n_base_stations=3, n_channels=3)
        means = {}
        for intensity_mean in (50_000, 200_000):
            wl = WorkloadConfig(
                arrival_rate_per_s=20.0,
                size_bits=Uniform(10, 9_990),
                intensity_cpb=Uniform(10, 2 * intensity_mean - 10),
                deadline_s=Uniform(0.025, 0.045),
            )
            means[intensity_mean] = live_sweep_means("ee", node, default_channels(), wl)
        e_ratio = means[200_000][0] / means[50_000][0]
        t_ratio = means[200_000][1] / means[50_000][1]
        ok = e_ratio <= 1.5 and t_ratio >= 2.0
        report(
            capsys, "C7", ok,
            f"4x mean intensity (50K -> 200K cycles/bit, small payloads): "
            f"energy ratio {e_ratio:.3f} (need <= 1.5), "
            f"response ratio {t_ratio:.2f} (need >= 2.0)",
        )
        assert e_ratio <= 1.5
        assert t_ratio >= 2.0


class TestSizeSweep:
    def test_c8_bigger_payloads_cost_both_energy_and_time(self, capsys):
        # Transfer-bound tasks on a crowded two-station system: doubling mean
        # size superlinearly inflates both radio energy and response time,
        # because fair-share rates collapse as transfers pile up.
        node = NodeConfig(n_users=10, n_base_stations=2, n_channels=3)
        channels = (
            ChannelConfig(uplink_rate_bps=4e6, downlink_rate_bps=4e6,
                          uplink_power_w=0.25, downlink_power_w=0.125, carrier_mhz=700),
            ChannelConfig(uplink_rate_bps=8e6, downlink_rate_bps=8e6,
                          uplink_power_w=1.0, downlink_power_w=0.5, carrier_mhz=1500),
            ChannelConfig(uplink_rate_bps=16e6, downlink_rate_bps=16e6,
                          uplink_power_w=8.0, downlink_power_w=4.0, carrier_mhz=2600),
        )
        means = {}
        for size_mean in (25_000, 50_000):
            wl = WorkloadConfig(
                arrival_rate_per_s=60.0,
                size_bits=Uniform(10, 2 * size_mean - 10),
                intensity_cpb=Uniform(10, 9_990),
                deadline_s=Uniform(0.025, 0.045),
            )
            means[size_mean] = live_sweep_means("ee", node, channels, wl)
        e_ratio = means[50_000][0] / means[25_000][0]
        t_ratio = means[50_000][1] / means[25_000][1]
        ok = e_ratio >= 2.0 and t_ratio >= 2.0
        report(
            capsys, "C8", ok,
            f"2x mean size (25K -> 50K bits, compute-light tasks): "
            f"energy ratio {e_ratio:.2f} and response ratio {t_ratio:.2f} "
            f"(both need >= 2.0)",
        )
        assert e_ratio >= 2.0
        assert t_ratio >= 2.0


CLI_CONFIG = {
    "system": {"n_users": 4, "n_base_stations": 2, "n_channels": 3},
    "workload": {"arrival_rate_per_s": 40.0},
    "agent": {"hidden_sizes": [8, 8], "minibatch_size": 8, "buffer_capacity": 256},
    "reward": {"efficiency_scale_bits_per_j_s": 2e6},
    "run": {
        "mode": "dataset",
        "seed": 7,
        "n_records": 300,
        "n_train_episodes": 10,
        "n_test_episodes": 5,
        "tasks_per_episode": 20,
    },
}


class TestCliDeterminism:
    def test_c9_same_seed_runs_are_bit_identical(self, capsys, tmp_path):
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            json.dump(CLI_CONFIG, fh)

        def pipeline(root):
            data, train, ev = (os.path.join(root, d) for d in ("data", "train", "eval"))
            assert cli.main(["generate-dataset", "--config", config_path, "--out", data]) == 0
            assert cli.main(
                ["train", "--config", config_path, "--out", train,
                 "--dataset", os.path.join(data, "dataset.csv")]
            ) == 0
            assert cli.main(
                ["evaluate", "--config", config_path, "--out", ev, "--agent", "e2da",
                 "--dataset", os.path.join(data, "dataset.csv"),
                 "--model", os.path.join(train, "model.json")]
            ) == 0
            files = {}
            for sub in ("data", "train", "eval"):
                base = os.path.join(root, sub)
                for name in sorted(os.listdir(base)):
                    with open(os.path.join(base, name), "rb") as fh:
                        files[f"{sub}/{name}"] = fh.read()
            return files

        first = pipeline(str(tmp_path / "run1"))
        second = pipeline(str(tmp_path / "run2"))
        same_names = sorted(first) == sorted(second)
        diffs = [k for k in first if first[k] != second.get(k)]
        ok = same_names and not diffs
        report(
            capsys, "C9", ok,
            f"generate/train/evaluate rerun with identical seed+config: "
            f"{len(first)} output files byte-identical"
            + (f"; differing: {diffs}" if diffs else ""),
        )
        assert same_names
        assert not diffs


class TestNoLearningControl:
    def test_c10_pinned_exploration_has_flat_reward_trend(self, capsys, trainings):
        _, rows = trainings
        y = np.array([r.reward for r in rows])
        x = np.arange(len(y), dtype=float)
        xc = x - x.mean()
        slope = float(xc @ (y - y.mean()) / (xc @ xc))
        resid = y - (y.mean() + slope * xc)
        se = float(np.sqrt(resid @ resid / (len(y) - 2) / (xc @ xc)))
        ok = abs(slope) < 2 * se
        report(
            capsys, "C10", ok,
            f"always-exploring control over 1000 episodes: reward slope "
            f"{slope:.5f} per episode vs standard error {se:.5f} "
            f"(need |slope| < 2 SE)",
        )
        assert abs(slope) < 2 * se
