import hashlib

import numpy as np
import pytest

from e2da.bandit import AgentConfig, E2daAgent, RewardParams, compute_reward
from e2da.errors import ConfigError
from e2da.experiment import (
    Dataset,
    MetricsRow,
    average_rows,
    calibrate_efficiency_scale,
    calibrate_efficiency_scale_live,
    generate_dataset,
    make_policy,
    metrics_to_csv_text,
    moving_average,
    read_metrics,
    run_evaluation,
    run_live_evaluation,
    run_live_training,
    run_training,
    run_training_per_user,
    split_by_user,
    summarize,
    write_metrics,
)
from e2da.baselines import r_star
from e2da.netsim import NodeConfig, Simulator, default_channels
from e2da.rng import substream
from e2da.workload import WorkloadConfig, normalize_context, task_stream


@pytest.fixture(scope="module")
def small_node():
    return NodeConfig(n_users=4, n_base_stations=2, n_channels=3)


@pytest.fixture(scope="module")
def small_dataset(small_node):
    return generate_dataset(
        small_node, default_channels(), WorkloadConfig(), n_records=200, seed=42
    )


class TestGenerateDataset:
    def test_exact_count_and_contiguous_ids(self, small_dataset):
        assert len(small_dataset) == 200
        assert [r.record_id for r in small_dataset.records] == list(range(200))

    def test_action_indexed_outcomes(self, small_dataset):
        assert small_dataset.n_actions == 4
        for rec in small_dataset.records[:20]:
            assert [o.action for o in rec.outcomes] == [0, 1, 2, 3]
            assert all(o.task_id == rec.task.task_id for o in rec.outcomes)

    def test_arrivals_are_time_ordered(self, small_dataset):
        arrivals = [rec.task.arrival_time for rec in small_dataset.records]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_deterministic_regeneration(self, small_node, small_dataset):
        again = generate_dataset(
            small_node, default_channels(), WorkloadConfig(), n_records=200, seed=42
        )
        assert again.to_csv_text() == small_dataset.to_csv_text()

    def test_seed_changes_content(self, small_node, small_dataset):
        other = generate_dataset(
            small_node, default_channels(), WorkloadConfig(), n_records=200, seed=43
        )
        assert other.to_csv_text() != small_dataset.to_csv_text()

    def test_golden_digest(self, tmp_path):
        """The bytes of a loaded K=50 dataset, pinned: a simulator change that
        moves any logged outcome by one ulp changes this digest."""
        node = NodeConfig(n_users=50, n_base_stations=3, n_channels=3)
        wl = WorkloadConfig(arrival_rate_per_s=100.0)
        path = tmp_path / "dataset.csv"
        generate_dataset(node, default_channels(), wl, n_records=500, seed=2023).write_csv(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "14d7c46bad189db214df70b89604c469e8fa91e49b0f55f9111ab57d14473793"
        )

    def test_rejects_empty_request(self, small_node):
        with pytest.raises(ConfigError):
            generate_dataset(
                small_node, default_channels(), WorkloadConfig(), n_records=0, seed=1
            )


class TestDatasetCsv:
    def test_round_trip_is_exact(self, small_dataset, tmp_path):
        path = str(tmp_path / "records.csv")
        small_dataset.write_csv(path)
        back = Dataset.from_csv(path)
        assert len(back) == len(small_dataset)
        for a, b in zip(small_dataset.records, back.records):
            assert a.record_id == b.record_id
            assert a.task == b.task
            assert a.outcomes == b.outcomes

    def test_round_trip_text_is_stable(self, small_dataset, tmp_path):
        path = str(tmp_path / "records.csv")
        small_dataset.write_csv(path)
        assert Dataset.from_csv(path).to_csv_text() == small_dataset.to_csv_text()


class TestCalibration:
    def test_matches_numpy_percentile(self, small_dataset):
        effs = []
        for rec in small_dataset.records:
            for out in rec.outcomes:
                effs.append(out.size_bits / (out.total_s * out.e_total_j))
        want = float(np.percentile(np.array(effs), 99.0))
        assert calibrate_efficiency_scale(small_dataset) == want
        want50 = float(np.percentile(np.array(effs), 50.0))
        assert calibrate_efficiency_scale(small_dataset, 50.0) == want50

    def test_live_calibration_deterministic_and_positive(self, small_node):
        a = calibrate_efficiency_scale_live(
            small_node, default_channels(), WorkloadConfig(), seed=5, n_tasks=300
        )
        b = calibrate_efficiency_scale_live(
            small_node, default_channels(), WorkloadConfig(), seed=5, n_tasks=300
        )
        assert a == b and a > 0.0


class TestMovingAverage:
    def test_matches_naive_loop(self):
        values = [1.0, 2.0, 3.0, 4.0]
        got = moving_average(values, 2)
        assert got.tolist() == [1.0, 1.5, 2.5, 3.5]
        rng = substream(3, "ma")
        vals = rng.random(50)
        for w in (1, 7, 50, 80):
            got = moving_average(vals, w)
            want = [np.mean(vals[max(0, i - w + 1): i + 1]) for i in range(50)]
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestSummarize:
    def rows(self, phase, rewards, fracs, energies, responses):
        return [
            MetricsRow(i, phase, r, f, e, t)
            for i, (r, f, e, t) in enumerate(zip(rewards, fracs, energies, responses))
        ]

    def test_means_per_name(self):
        rows_a = self.rows("test", [1.0, 3.0], [0.5, 1.0], [2.0, 4.0], [1.0, 3.0])
        rows_b = self.rows("test", [2.0, 6.0], [1.0, 1.0], [1.0, 2.0], [0.5, 0.5])
        got = summarize({"a": rows_a, "b": rows_b}, tasks_per_episode=10)
        a, b = got["agents"]["a"], got["agents"]["b"]
        assert a["episodes"] == 2
        assert a["mean_episode_reward"] == 2.0
        assert a["mean_deadline_fraction"] == 0.75
        assert a["mean_task_energy_j"] == 6.0 / 20
        assert a["mean_task_response_s"] == 4.0 / 20
        assert b["mean_episode_reward"] == 4.0

    def test_filters_phase(self):
        rows_a = self.rows("test", [0.0], [0.0], [1.0], [1.0]) + self.rows(
            "train", [9.0], [1.0], [9.0], [9.0]
        )
        rows_b = self.rows("test", [5.0], [1.0], [2.0], [2.0])
        got = summarize({"a": rows_a, "b": rows_b}, tasks_per_episode=1)
        assert got["agents"]["a"]["mean_episode_reward"] == 0.0
        assert got["agents"]["a"]["episodes"] == 1
        assert got["agents"]["b"]["mean_task_energy_j"] == 2.0

    def test_missing_phase_rejected(self):
        with pytest.raises(ValueError):
            summarize({"a": self.rows("train", [1.0], [1.0], [1.0], [1.0])}, 1)


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            MetricsRow(0, "train", -1.25, 0.5, 1e-3, 0.125),
            MetricsRow(1, "test", 97.333333333333333, 1.0, 0.1 + 0.2, 3.0),
        ]
        path = str(tmp_path / "metrics.csv")
        write_metrics(path, rows)
        assert read_metrics(path) == rows

    def test_header(self):
        text = metrics_to_csv_text([])
        assert text == "episode,phase,reward,deadline_frac,energy_J,response_s\n"


class TestRunEvaluation:
    def test_constant_policy_matches_manual_replay(self, small_dataset):
        params = RewardParams(penalty=1.0, efficiency_scale=1e6)
        wl = WorkloadConfig()
        rows = run_evaluation(
            lambda task, x, projections: 2, small_dataset, wl, params,
            n_episodes=4, tasks_per_episode=7, seed=11,
        )
        mirror = substream(11, "episodes", "test")
        for e in range(4):
            idx = mirror.integers(0, len(small_dataset), size=7)
            reward = energy = response = 0.0
            met = 0
            for i in idx:
                out = small_dataset.records[i].outcomes[2]
                reward += compute_reward(out, params)
                energy += out.e_total_j
                response += out.total_s
                met += out.met_deadline
            row = rows[e]
            assert row.episode == e and row.phase == "test"
            assert row.reward == reward
            assert row.deadline_frac == met / 7
            assert row.energy_j == energy
            assert row.response_s == response

    def test_oracle_policy_beats_random_on_its_criterion(self, small_dataset):
        params = RewardParams(penalty=1.0, efficiency_scale=1e6)
        wl = WorkloadConfig()
        kw = dict(n_episodes=10, tasks_per_episode=20, seed=3)
        r_rows = run_evaluation(
            make_policy("r"), small_dataset, wl, params, **kw
        )
        rand_rows = run_evaluation(
            make_policy("random", rng=substream(3, "pol"), n_actions=4),
            small_dataset, wl, params, **kw,
        )
        assert sum(r.response_s for r in r_rows) < sum(r.response_s for r in rand_rows)

    def test_phase_stream_and_offset(self, small_dataset):
        params = RewardParams(1.0, 1e6)
        rows = run_evaluation(
            lambda task, x, projections: 0, small_dataset, WorkloadConfig(), params,
            n_episodes=2, tasks_per_episode=3, seed=5,
            phase="train", stream="train", start_episode=40,
        )
        assert [r.episode for r in rows] == [40, 41]
        assert all(r.phase == "train" for r in rows)


def fresh_agent(seed, n_actions=4):
    cfg = AgentConfig(hidden_sizes=(8, 8), minibatch_size=8, buffer_capacity=512)
    return E2daAgent.create(cfg, n_actions, RewardParams(1.0, 1e6), seed)


class TestRunTraining:
    def test_deterministic_and_counts_episodes(self, small_dataset):
        wl = WorkloadConfig()
        a, b = fresh_agent(21), fresh_agent(21)
        rows_a = run_training(a, small_dataset, wl, 5, 10, seed=9)
        rows_b = run_training(b, small_dataset, wl, 5, 10, seed=9)
        assert rows_a == rows_b
        assert a.episodes_trained == 5
        assert [r.episode for r in rows_a] == list(range(5))
        assert all(r.phase == "train" for r in rows_a)

    def test_resumed_training_continues_numbering(self, small_dataset):
        wl = WorkloadConfig()
        agent = fresh_agent(22)
        run_training(agent, small_dataset, wl, 3, 5, seed=9)
        more = run_training(agent, small_dataset, wl, 2, 5, seed=9)
        assert [r.episode for r in more] == [3, 4]
        assert agent.episodes_trained == 5

    def test_training_improves_over_random(self, small_dataset):
        """After replay training with decayed epsilon, greedy evaluation should
        outscore the uniform-random logging policy."""
        wl = WorkloadConfig()
        scale = calibrate_efficiency_scale(small_dataset)
        params = RewardParams(1.0, scale)
        cfg = AgentConfig(hidden_sizes=(16, 16), minibatch_size=16,
                          buffer_capacity=4096, epsilon_decay=0.98)
        agent = E2daAgent.create(cfg, 4, params, 31)
        run_training(agent, small_dataset, wl, 150, 20, seed=7)
        kw = dict(n_episodes=20, tasks_per_episode=20, seed=13)
        greedy = run_evaluation(
            make_policy("e2da", [agent]), small_dataset, wl, params, **kw
        )
        rand = run_evaluation(
            make_policy("random", rng=substream(13, "pol"), n_actions=4),
            small_dataset, wl, params, **kw,
        )
        assert np.mean([r.reward for r in greedy]) > np.mean([r.reward for r in rand])


def per_user_agents(seed, n_users, n_actions=4):
    cfg = AgentConfig(hidden_sizes=(8, 8), minibatch_size=8, buffer_capacity=512)
    return [
        E2daAgent.create(cfg, n_actions, RewardParams(1.0, 1e6), seed, stream_salt=("user", u))
        for u in range(n_users)
    ]


class TestPerUserTraining:
    def test_split_partitions_by_owner(self, small_dataset, small_node):
        parts = split_by_user(small_dataset, small_node.n_users)
        assert len(parts) == small_node.n_users
        assert sum(len(p) for p in parts) == len(small_dataset)
        for u, part in enumerate(parts):
            assert all(rec.task.user_id == u for rec in part.records)
        # original record order survives within each partition
        for part in parts:
            ids = [rec.record_id for rec in part.records]
            assert ids == sorted(ids)

    def test_split_rejects_uncovered_user(self, small_dataset):
        without_user0 = Dataset(
            [rec for rec in small_dataset.records if rec.task.user_id != 0]
        )
        with pytest.raises(ConfigError, match="own no dataset records"):
            split_by_user(without_user0, 4)

    def test_split_rejects_foreign_user_id(self, small_dataset):
        with pytest.raises(ConfigError, match="outside the configured"):
            split_by_user(small_dataset, 2)

    def test_average_rows_is_elementwise_mean(self):
        a = [MetricsRow(0, "train", 4.0, 0.5, 2.0, 1.0),
             MetricsRow(1, "train", 6.0, 1.0, 4.0, 3.0)]
        b = [MetricsRow(0, "train", 2.0, 0.0, 0.0, 1.0),
             MetricsRow(1, "train", 2.0, 0.5, 2.0, 1.0)]
        combined = average_rows([a, b])
        assert combined == [MetricsRow(0, "train", 3.0, 0.25, 1.0, 1.0),
                            MetricsRow(1, "train", 4.0, 0.75, 3.0, 2.0)]

    def test_average_rows_rejects_misaligned_series(self):
        a = [MetricsRow(0, "train", 1.0, 1.0, 1.0, 1.0)]
        b = [MetricsRow(3, "train", 1.0, 1.0, 1.0, 1.0)]
        with pytest.raises(ValueError, match="not aligned"):
            average_rows([a, b])

    def test_matches_manual_per_user_composition(self, small_dataset, small_node):
        """The wrapper must equal training each user's agent by hand on that
        user's partition with the same stream salt."""
        wl = WorkloadConfig()
        n = small_node.n_users
        combined, per_user = run_training_per_user(
            per_user_agents(33, n), small_dataset, wl, 4, 10, seed=11
        )
        parts = split_by_user(small_dataset, n)
        manual = [
            run_training(agent, parts[u], wl, 4, 10, seed=11, stream_salt=("user", u))
            for u, agent in enumerate(per_user_agents(33, n))
        ]
        assert per_user == manual
        assert combined == average_rows(manual)
        assert [r.episode for r in combined] == list(range(4))

    def test_deterministic_twin_runs(self, small_dataset, small_node):
        wl = WorkloadConfig()
        n = small_node.n_users
        first = run_training_per_user(
            per_user_agents(5, n), small_dataset, wl, 3, 10, seed=2
        )
        second = run_training_per_user(
            per_user_agents(5, n), small_dataset, wl, 3, 10, seed=2
        )
        assert first == second

    def test_sibling_agents_differ(self, small_dataset, small_node):
        """Per-user salts must give each agent its own weights and draws."""
        agents = per_user_agents(8, small_node.n_users)
        w0 = agents[0].model.weights[0]
        w1 = agents[1].model.weights[0]
        assert not np.array_equal(w0, w1)


class TestLiveRuns:
    def test_live_training_shape_and_determinism(self, small_node):
        wl = WorkloadConfig()
        a, b = fresh_agent(41), fresh_agent(41)
        rows_a = run_live_training(a, small_node, default_channels(), wl, 4, 25, seed=19)
        rows_b = run_live_training(b, small_node, default_channels(), wl, 4, 25, seed=19)
        assert rows_a == rows_b
        assert len(rows_a) == 4
        assert a.episodes_trained == 4
        assert all(r.phase == "train" for r in rows_a)
        assert all(np.isfinite(r.reward) for r in rows_a)
        assert all(0.0 <= r.deadline_frac <= 1.0 for r in rows_a)
        assert all(r.energy_j > 0 and r.response_s > 0 for r in rows_a)

    def test_live_evaluation_oracles_and_random(self, small_node):
        wl = WorkloadConfig()
        params = RewardParams(1.0, 1e6)
        for name in ("eel", "ee", "r", "random"):
            rows = run_live_evaluation(
                name, small_node, default_channels(), wl, params, 3, 20, seed=23
            )
            assert len(rows) == 3
            assert all(r.phase == "test" for r in rows)
            assert all(np.isfinite(r.reward) for r in rows)

    def test_live_evaluation_r_is_fastest(self, small_node):
        wl = WorkloadConfig()
        params = RewardParams(1.0, 1e6)
        kw = dict(n_episodes=5, tasks_per_episode=40, seed=29)
        by_name = {
            name: run_live_evaluation(
                name, small_node, default_channels(), wl, params, **kw
            )
            for name in ("r", "random")
        }
        total = {k: sum(r.response_s for r in v) for k, v in by_name.items()}
        assert total["r"] < total["random"]

    def test_live_agent_evaluation_uses_model(self, small_node):
        wl = WorkloadConfig()
        params = RewardParams(1.0, 1e6)
        agent = fresh_agent(51)
        rows = run_live_evaluation(
            "e2da", small_node, default_channels(), wl, params, 2, 15, seed=31,
            agents=[agent],
        )
        assert len(rows) == 2
        assert all(np.isfinite(r.reward) for r in rows)


def hand_driven_live(node, wl, params, seed, n_episodes, tasks_per_episode, decide,
                     learn=None, start_episode=0, phase="test"):
    """Reference booking for the live loops: a Simulator driven by hand with
    the rollout's substreams.  decide(sim, task, episode) returns (action,
    context); each outcome is scored when its completion event fires and
    booked to the episode its task was decided in."""
    total = n_episodes * tasks_per_episode
    decided = [0]
    pending = {}

    def policy(sim, task):
        ep = decided[0] // tasks_per_episode
        decided[0] += 1
        if decided[0] >= total:
            sim.halt_arrivals()
        action, x = decide(sim, task, start_episode + ep)
        pending[task.task_id] = (ep, x, action)
        return action

    sim = Simulator(node, default_channels(), substream(seed, "gains"), policy=policy)
    for user in range(node.n_users):
        sim.add_stream(user, task_stream(wl, seed, user, node.n_users))
    books = [[0.0, 0, 0.0, 0.0, 0] for _ in range(n_episodes)]
    while sim.has_events:
        out = sim.advance()
        if out is None:
            continue
        ep, x, action = pending.pop(out.task_id)
        r = compute_reward(out, params)
        if learn is not None:
            learn(x, action, r)
        book = books[ep]
        book[0] += r
        book[1] += out.met_deadline
        book[2] += out.e_total_j
        book[3] += out.total_s
        book[4] += 1
    assert not pending and all(b[4] == tasks_per_episode for b in books)
    return [
        MetricsRow(start_episode + e, phase, b[0], b[1] / tasks_per_episode, b[2], b[3])
        for e, b in enumerate(books)
    ]


class TestLiveBookingReference:
    """Every MetricsRow field of the live loops, pinned against a hand-driven
    simulator: rewards, deadline fractions, energies and response times are
    booked to the submitting episode in completion order."""

    KW = dict(n_episodes=4, tasks_per_episode=25, seed=37)

    def test_oracle_evaluation(self, small_node):
        wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)
        rows = run_live_evaluation("r", small_node, default_channels(), wl, params, **self.KW)

        def decide(sim, task, ep):
            return r_star(sim.projections(task)), None

        assert rows == hand_driven_live(small_node, wl, params, decide=decide, **self.KW)

    def test_random_evaluation(self, small_node):
        wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)
        rows = run_live_evaluation(
            "random", small_node, default_channels(), wl, params, **self.KW
        )
        rng = substream(self.KW["seed"], "logging-policy")

        def decide(sim, task, ep):
            return int(rng.integers(small_node.n_channels + 1)), None

        assert rows == hand_driven_live(small_node, wl, params, decide=decide, **self.KW)

    def test_training_observes_in_completion_order(self, small_node):
        wl = WorkloadConfig()
        agent, mirror = fresh_agent(61), fresh_agent(61)
        agent.episodes_trained = mirror.episodes_trained = 3
        rows = run_live_training(agent, small_node, default_channels(), wl, **self.KW)

        def decide(sim, task, ep):
            x = normalize_context(task, wl)
            return mirror.act(x, mirror.epsilon(ep)), x

        want = hand_driven_live(
            small_node, wl, mirror.reward_params, decide=decide, learn=mirror.observe,
            start_episode=3, phase="train", **self.KW,
        )
        assert rows == want
        assert agent.episodes_trained == 3 + self.KW["n_episodes"]
        for w, v in zip(agent.model.weights, mirror.model.weights):
            assert np.array_equal(w, v)


class TestReplayBookingReference:
    def test_training_matches_hand_loop(self, small_dataset):
        wl = WorkloadConfig()
        agent, mirror = fresh_agent(71), fresh_agent(71)
        rows = run_training(agent, small_dataset, wl, 3, 12, seed=17)
        ep_rng = substream(17, "episodes", "train")
        for e, row in enumerate(rows):
            reward = energy = response = 0.0
            met = 0
            for i in ep_rng.integers(0, len(small_dataset), size=12):
                rec = small_dataset.records[i]
                x = normalize_context(rec.task, wl)
                a = mirror.act(x, mirror.epsilon(e))
                out = rec.outcomes[a]
                r = compute_reward(out, mirror.reward_params)
                mirror.observe(x, a, r)
                reward += r
                energy += out.e_total_j
                response += out.total_s
                met += out.met_deadline
            assert row == MetricsRow(e, "train", reward, met / 12, energy, response)
