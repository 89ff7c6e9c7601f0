import copy
import math

import numpy as np
import pytest

from conftest import StubRng, finite_difference_grads, max_rel_err
from e2da.bandit import (
    AgentConfig,
    E2daAgent,
    MlpModel,
    ReplayBuffer,
    RewardParams,
    compute_reward,
    efficiency,
    epsilon_at,
    reward_to_target,
    select_action,
)
from e2da.errors import ConfigError, TrainingFault
from e2da.netsim import TaskOutcome
from e2da.rng import substream


def outcome_with(total_s, e_total_j, size_bits=1000.0, met=True):
    return TaskOutcome(
        task_id=0, user_id=0, action=1, arrival_s=0.0, size_bits=size_bits,
        intensity_cpb=100.0, deadline_s=1.0, d1_s=0.0, d2_s=0.0, d3_s=0.0,
        d4_s=0.0, t_exec_s=0.0, t_up_s=0.0, t_down_s=0.0, total_s=total_s,
        e_cpu_j=0.0, e_tx_j=e_total_j, e_rx_j=0.0, e_total_j=e_total_j,
        met_deadline=met,
    )


class TestReward:
    def test_efficiency(self):
        assert efficiency(1000.0, 0.5, 0.002) == 1e6
        with pytest.raises(ValueError):
            efficiency(1000.0, 0.0, 1.0)

    def test_scaled_and_capped(self):
        params = RewardParams(penalty=1.0, efficiency_scale=2e6)
        assert compute_reward(outcome_with(0.5, 0.002), params) == 0.5
        capped = RewardParams(penalty=1.0, efficiency_scale=0.5e6)
        assert compute_reward(outcome_with(0.5, 0.002), capped) == 1.0

    def test_miss_pays_penalty(self):
        params = RewardParams(penalty=2.5, efficiency_scale=1.0)
        assert compute_reward(outcome_with(0.5, 0.002, met=False), params) == -2.5

    def test_compute_reward_reads_outcome(self):
        params = RewardParams(penalty=1.0, efficiency_scale=2e6)
        assert compute_reward(outcome_with(0.5, 0.002), params) == 0.5
        assert compute_reward(outcome_with(0.5, 0.002, met=False), params) == -1.0
        with pytest.raises(ValueError):
            compute_reward(outcome_with(0.0, 0.002, met=False), params)

    def test_target_map(self):
        assert reward_to_target(1.0, 1.0) == 1.0
        assert reward_to_target(-1.0, 1.0) == 0.0
        assert reward_to_target(0.0, 1.0) == 0.5
        assert reward_to_target(-3.0, 3.0) == 0.0

    def test_params_validate(self):
        with pytest.raises(ConfigError):
            RewardParams(penalty=-0.1).validate()
        with pytest.raises(ConfigError):
            RewardParams(efficiency_scale=0.0).validate()


class TestEpsilon:
    def test_geometric_decay(self):
        assert epsilon_at(1.0, 0.995, 0.01, 0) == 1.0
        assert epsilon_at(1.0, 0.995, 0.01, 1) == 0.995
        assert epsilon_at(1.0, 0.995, 0.01, 2) == 0.995**2

    def test_floor(self):
        assert epsilon_at(1.0, 0.995, 0.01, 10_000) == 0.01

    def test_pinned(self):
        assert epsilon_at(1.0, 1.0, 1.0, 500) == 1.0


class TestSelectAction:
    def test_greedy_and_ties(self):
        assert select_action(np.array([0.1, 0.9, 0.3]), 0.0, None) == 1
        assert select_action(np.array([0.3, 0.7, 0.7]), 0.0, None) == 1

    def test_zero_epsilon_consumes_no_randomness(self):
        rng = substream(1, "explore")
        state_before = copy.deepcopy(rng.bit_generator.state)
        select_action(np.array([0.2, 0.8]), 0.0, rng)
        assert rng.bit_generator.state == state_before

    def test_explore_path_mirrors_generator(self):
        rng = substream(2, "explore")
        mirror = substream(2, "explore")
        q = np.array([0.9, 0.1, 0.1, 0.1])
        picks = [select_action(q, 1.0, rng) for _ in range(50)]
        want = []
        for _ in range(50):
            mirror.random()
            want.append(int(mirror.integers(4)))
        assert picks == want

    def test_exploit_branch_with_partial_epsilon(self):
        # scripted uniform draw 0.9 >= eps 0.5: greedy, no integer draw
        assert select_action(np.array([0.1, 0.6]), 0.5, StubRng([0.9])) == 1
        # draw 0.2 < eps: uniform pick from scripted integers
        assert select_action(np.array([0.1, 0.6]), 0.5, StubRng([0.2], [0])) == 0

    def test_requires_rng_when_exploring(self):
        with pytest.raises(ValueError):
            select_action(np.array([0.1]), 0.5, None)


class TestMlpForward:
    def test_hand_computed_two_layer(self):
        model = MlpModel((2, 2, 2), 0.01, 0.99, 1e-8, rng=None)
        model.weights[0] = np.array([[1.0, -1.0], [0.5, 0.25]])
        model.biases[0] = np.array([0.1, -0.2])
        model.weights[1] = np.array([[2.0, 1.0], [-1.0, 3.0]])
        model.biases[1] = np.array([0.0, 0.1])
        x = np.array([1.0, 2.0])
        # pre1 = (-0.9, 0.8) -> relu (0, 0.8); pre2 = (0.8, 2.5) -> sigmoid
        want = 1.0 / (1.0 + np.exp(-np.array([0.8, 2.5])))
        got = model.forward(x)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        batch = model.forward(np.stack([x, x]))
        assert batch.shape == (2, 2)
        assert np.array_equal(batch[0], batch[1])

    def test_outputs_in_unit_interval(self):
        model = MlpModel((3, 8, 4), 0.01, 0.99, 1e-8, rng=substream(0, "i"))
        q = model.forward(substream(1, "x").random((64, 3)))
        assert np.all((q > 0.0) & (q < 1.0))

    def test_sigmoid_extreme_stability(self):
        z = np.array([-800.0, 800.0, 0.0])
        s = MlpModel._sigmoid(z)
        assert s[0] == 0.0 and s[1] == 1.0 and s[2] == 0.5
        assert np.all(np.isfinite(s))

    def test_glorot_bounds_and_zero_biases(self):
        model = MlpModel((3, 8, 4), 0.01, 0.99, 1e-8, rng=substream(0, "i"))
        for w, (fi, fo) in zip(model.weights, ((3, 8), (8, 4))):
            limit = math.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= limit)
            assert np.any(w != 0.0)
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_init_scale_override(self):
        model = MlpModel((3, 8, 4), 0.01, 0.99, 1e-8, rng=substream(0, "i"),
                         init_scale=0.05)
        assert all(np.all(np.abs(w) <= 0.05) for w in model.weights)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = substream(21, "grad")
        for _ in range(3):
            model = MlpModel((3, 8, 8, 4), 0.01, 0.99, 1e-8, rng=rng)
            x = rng.random((8, 3))
            actions = rng.integers(0, 4, size=8)
            targets = rng.random(8)
            _, gw, gb = model.loss_and_grads(x, actions, targets)
            fw, fb = finite_difference_grads(model, x, actions, targets)
            assert max_rel_err(gw, fw) < 1e-4
            assert max_rel_err(gb, fb) < 1e-4

    def test_loss_is_chosen_head_mse(self):
        model = MlpModel((2, 4, 3), 0.01, 0.99, 1e-8, rng=substream(5, "g"))
        x = substream(6, "x").random((5, 2))
        actions = np.array([0, 2, 1, 2, 0])
        targets = np.linspace(0.1, 0.9, 5)
        loss, _, _ = model.loss_and_grads(x, actions, targets)
        q = model.forward(x)
        want = float(np.mean((q[np.arange(5), actions] - targets) ** 2))
        assert loss == pytest.approx(want, rel=1e-14)

    def test_only_chosen_head_gets_gradient(self):
        model = MlpModel((2, 4, 3), 0.01, 0.99, 1e-8, rng=substream(5, "g"))
        x = np.array([[0.3, 0.7]])
        _, gw, _ = model.loss_and_grads(x, np.array([1]), np.array([0.5]))
        out_grad = gw[-1]
        assert np.any(out_grad[1] != 0.0)
        assert np.all(out_grad[0] == 0.0) and np.all(out_grad[2] == 0.0)


class TestRmsProp:
    def test_single_step_oracle(self):
        model = MlpModel((1, 1), lr := 0.1, beta := 0.9, eps := 1e-8, rng=None)
        model.weights[0][:] = 1.0
        g = np.array([[3.0]])
        model.apply_grads([g], [np.array([0.0])])
        acc = (1 - beta) * 9.0
        want = 1.0 - lr * 3.0 / math.sqrt(acc + eps)
        assert model.weights[0][0, 0] == pytest.approx(want, rel=1e-15)
        assert model.acc_w[0][0, 0] == pytest.approx(acc, rel=1e-15)
        # second step folds the accumulator forward
        model.apply_grads([g], [np.array([0.0])])
        acc2 = beta * acc + (1 - beta) * 9.0
        want2 = want - lr * 3.0 / math.sqrt(acc2 + eps)
        assert model.weights[0][0, 0] == pytest.approx(want2, rel=1e-15)

    def test_training_reduces_loss(self):
        model = MlpModel((3, 16, 4), 1e-2, 0.99, 1e-8, rng=substream(8, "i"))
        rng = substream(9, "d")
        x = rng.random((64, 3))
        actions = rng.integers(0, 4, size=64)
        targets = rng.random(64)
        first = model.train_step(x, actions, targets)
        for _ in range(100):
            last = model.train_step(x, actions, targets)
        assert last < first * 0.5

    def test_non_finite_loss_faults(self):
        model = MlpModel((2, 2), 0.01, 0.99, 1e-8, rng=substream(0, "i"))
        with pytest.raises(TrainingFault):
            model.train_step(np.array([[0.1, 0.2]]), np.array([0]),
                             np.array([float("nan")]))

    def test_state_round_trip_is_exact(self):
        model = MlpModel((3, 8, 4), 0.01, 0.99, 1e-8, rng=substream(3, "i"))
        rng = substream(4, "d")
        for _ in range(5):
            model.train_step(rng.random((16, 3)), rng.integers(0, 4, 16), rng.random(16))
        clone = MlpModel.from_state(model.to_state())
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, clone.weights))
        assert all(np.array_equal(a, b) for a, b in zip(model.acc_w, clone.acc_w))
        x = rng.random((4, 3))
        assert np.array_equal(model.forward(x), clone.forward(x))


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(3, context_dim=1)
        for i in range(5):
            buf.push(np.array([float(i)]), i % 2, float(10 * i))
        assert buf.size == 3
        # slots hold items 3, 4, 2 after wraparound
        assert buf.contexts[:, 0].tolist() == [3.0, 4.0, 2.0]
        assert buf.rewards.tolist() == [30.0, 40.0, 20.0]

    def test_sample_mirrors_generator(self):
        buf = ReplayBuffer(10, context_dim=1)
        for i in range(4):
            buf.push(np.array([float(i)]), i, float(i))
        rng = substream(5, "mb")
        mirror = substream(5, "mb")
        ctx, act, rew = buf.sample(rng, 6)
        idx = mirror.integers(0, 4, size=6)
        assert np.array_equal(ctx[:, 0], idx.astype(float))
        assert np.array_equal(act, idx)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4).sample(substream(0, "x"), 1)


def tiny_agent(seed=3, **overrides):
    cfg = AgentConfig(hidden_sizes=(8, 8), minibatch_size=8, buffer_capacity=64,
                      **overrides)
    return E2daAgent.create(cfg, 4, RewardParams(1.0, 1e6), seed)


class TestAgent:
    def test_deterministic_twin_training(self):
        a, b = tiny_agent(11), tiny_agent(11)
        rng = substream(12, "ctx")
        for _ in range(30):
            x = rng.random(3)
            act_a = a.act(x, 0.3)
            act_b = b.act(x, 0.3)
            assert act_a == act_b
            a.observe(x, act_a, 0.5)
            b.observe(x, act_b, 0.5)
        assert all(np.array_equal(u, v) for u, v in zip(a.model.weights, b.model.weights))

    def test_act_epsilon_zero_is_pure_argmax(self):
        agent = tiny_agent(7)
        state = copy.deepcopy(agent.explore_rng.bit_generator.state)
        x = np.array([0.2, 0.5, 0.8])
        assert agent.act(x, 0.0) == int(np.argmax(agent.model.forward(x)))
        assert agent.explore_rng.bit_generator.state == state

    def test_observe_trains_toward_target(self):
        agent = tiny_agent(5, train_steps_per_observation=4)
        x = np.array([0.5, 0.5, 0.5])
        before = agent.model.forward(x)[2]
        for _ in range(200):
            agent.observe(x, 2, 1.0)  # target (1+1)/2 = 1.0
        after = agent.model.forward(x)[2]
        assert after > before
        assert after > 0.8

    def test_state_round_trip(self):
        agent = tiny_agent(9)
        rng = substream(10, "ctx")
        for _ in range(20):
            x = rng.random(3)
            agent.observe(x, agent.act(x, 0.5), 0.25)
        agent.episodes_trained = 17
        state = agent.to_state()
        clone = E2daAgent.from_state(state, substream(0, "e"), substream(0, "m"))
        assert clone.episodes_trained == 17
        assert clone.config == agent.config
        assert clone.reward_params == agent.reward_params
        probe = rng.random((6, 3))
        assert np.array_equal(clone.model.forward(probe), agent.model.forward(probe))

    def test_retrain_from_scratch_keeps_anchor(self):
        agent = tiny_agent(6, retrain_from_scratch=True)
        anchor = [w.copy() for w in agent._initial_params[0]]
        rng = substream(13, "ctx")
        for _ in range(10):
            x = rng.random(3)
            agent.observe(x, 1, 0.5)
        assert all(np.array_equal(a, w) for a, w in zip(anchor, agent._initial_params[0]))
        state = agent.to_state()
        clone = E2daAgent.from_state(state, substream(0, "e"), substream(0, "m"))
        assert all(
            np.array_equal(a, w) for a, w in zip(anchor, clone._initial_params[0])
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AgentConfig(hidden_sizes=()).validate()
        with pytest.raises(ConfigError):
            AgentConfig(rmsprop_decay=1.0).validate()
        with pytest.raises(ConfigError):
            AgentConfig(epsilon0=1.2).validate()
