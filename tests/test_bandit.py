import copy
import math

import numpy as np
import pytest

from conftest import StubRng, finite_difference_grads, max_rel_err
from e2da.bandit import (
    E2daAgent,
    MlpModel,
    ReplayBuffer,
    RewardParams,
    compute_reward,
    efficiency,
    read_checkpoint,
    reward_to_target,
    write_checkpoint,
)
from e2da.config import AgentConfig
from e2da.errors import ConfigError, TrainingFault
from e2da.experiment import make_policy
from e2da.rng import substream


def outcome_with(total_s, e_total_j, size_bits=1000.0, met=True):
    """compute_reward's outcome arguments: size, T, E and the verdict."""
    return size_bits, total_s, e_total_j, met


class TestReward:
    def test_efficiency(self):
        assert efficiency(1000.0, 0.5, 0.002) == 1e6
        with pytest.raises(ValueError):
            efficiency(1000.0, 0.0, 1.0)

    def test_scaled_and_capped(self):
        params = RewardParams(penalty=1.0, efficiency_scale=2e6)
        assert compute_reward(*outcome_with(0.5, 0.002), params) == 0.5
        capped = RewardParams(penalty=1.0, efficiency_scale=0.5e6)
        assert compute_reward(*outcome_with(0.5, 0.002), capped) == 1.0

    def test_miss_pays_penalty(self):
        params = RewardParams(penalty=2.5, efficiency_scale=1.0)
        assert compute_reward(*outcome_with(0.5, 0.002, met=False), params) == -2.5

    def test_compute_reward_reads_outcome(self):
        params = RewardParams(penalty=1.0, efficiency_scale=2e6)
        assert compute_reward(*outcome_with(0.5, 0.002), params) == 0.5
        assert compute_reward(*outcome_with(0.5, 0.002, met=False), params) == -1.0
        with pytest.raises(ValueError):
            compute_reward(*outcome_with(0.0, 0.002, met=False), params)

    def test_reward_and_efficiency_are_elementwise(self):
        """Over records x actions, with one size per record broadcast along
        the action axis, each cell equals its scalar call."""
        params = RewardParams(penalty=1.0, efficiency_scale=2e6)
        size = np.array([[1000.0], [3000.0]])
        total = np.array([[0.5, 0.25], [0.125, 2.0]])
        energy = np.array([[0.002, 0.004], [0.001, 0.5]])
        met = np.array([[True, False], [True, True]])
        rewards = compute_reward(size, total, energy, met, params)
        effs = efficiency(size, total, energy)
        for i in range(2):
            for a in range(2):
                cell = (size[i, 0], total[i, a], energy[i, a])
                assert rewards[i, a] == compute_reward(*cell, met[i, a], params)
                assert effs[i, a] == efficiency(*cell)
        with pytest.raises(ValueError):
            efficiency(size, total * np.array([1.0, 0.0]), energy)

    def test_target_map(self):
        assert reward_to_target(1.0, 1.0) == 1.0
        assert reward_to_target(-1.0, 1.0) == 0.0
        assert reward_to_target(0.0, 1.0) == 0.5
        assert reward_to_target(-3.0, 3.0) == 0.0

    def test_params_validate(self):
        with pytest.raises(ConfigError):
            RewardParams(penalty=-0.1)
        with pytest.raises(ConfigError):
            RewardParams(efficiency_scale=0.0)


class TestEpsilon:
    def test_geometric_decay(self):
        agent = tiny_agent(epsilon0=1.0, epsilon_decay=0.995, epsilon_min=0.01)
        assert agent.epsilon(0) == 1.0
        assert agent.epsilon(1) == 0.995
        assert agent.epsilon(2) == 0.995**2

    def test_floor(self):
        agent = tiny_agent(epsilon0=1.0, epsilon_decay=0.995, epsilon_min=0.01)
        assert agent.epsilon(10_000) == 0.01

    def test_pinned(self):
        agent = tiny_agent(epsilon0=1.0, epsilon_decay=1.0, epsilon_min=1.0)
        assert agent.epsilon(500) == 1.0


X = np.array([0.2, 0.5, 0.8])


def valued_agent(q, explore_rng):
    """An agent whose action values are sigmoid(q) on every context, so
    ordered and tied as q: zero weights, and q as the output biases."""
    agent = E2daAgent(AgentConfig(hidden_sizes=(4,)), len(q), RewardParams(), None,
                      explore_rng=explore_rng, minibatch_rng=None)
    agent.model.biases[-1][...] = q
    return agent


class TestAct:
    def test_greedy_and_ties(self):
        assert valued_agent([0.1, 0.9, 0.3], StubRng()).act(X, 0.0) == 1
        assert valued_agent([0.3, 0.7, 0.7], StubRng()).act(X, 0.0) == 1
        assert valued_agent([0.5, 0.5, 0.5, 0.5], StubRng()).act(X, 0.0) == 0

    def test_zero_epsilon_consumes_no_randomness(self):
        stub = StubRng()
        assert valued_agent([0.2, 0.8], stub).act(X, 0.0) == 1
        assert stub.calls == []
        rng = substream(1, "explore")
        state_before = copy.deepcopy(rng.bit_generator.state)
        valued_agent([0.2, 0.8], rng).act(X, 0.0)
        assert rng.bit_generator.state == state_before

    def test_explore_path_mirrors_generator(self):
        agent = valued_agent([0.9, 0.1, 0.1, 0.1], substream(2, "explore"))
        mirror = substream(2, "explore")
        picks = [agent.act(X, 1.0) for _ in range(50)]
        want = []
        for _ in range(50):
            mirror.random()
            want.append(int(mirror.integers(4)))
        assert picks == want

    def test_exploit_branch_with_partial_epsilon(self):
        # scripted coin 0.9 >= eps 0.5: greedy, and only the coin is drawn
        stub = StubRng([0.9])
        assert valued_agent([0.1, 0.6], stub).act(X, 0.5) == 1
        assert stub.calls == [("random",)]
        # coin 0.2 < eps: the coin, then a uniform pick from scripted integers
        stub = StubRng([0.2], [0])
        assert valued_agent([0.1, 0.6], stub).act(X, 0.5) == 0
        assert stub.calls == [("random",), ("integers", 2)]


class TestMlpForward:
    def test_hand_computed_two_layer(self):
        model = MlpModel((2, 2, 2), 0.01, 0.99, 1e-8, rng=None)
        model.weights[0][...] = np.array([[1.0, -1.0], [0.5, 0.25]])
        model.biases[0][...] = np.array([0.1, -0.2])
        model.weights[1][...] = np.array([[2.0, 1.0], [-1.0, 3.0]])
        model.biases[1][...] = np.array([0.0, 0.1])
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
            gw, gb = [g.copy() for g in gw], [g.copy() for g in gb]  # the next call overwrites
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


def reference_sigmoid(z):
    """The boolean-mask logistic squash of the per-layer learner."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(weights, biases, x):
    """Per-layer forward pass on lists of weight matrices and bias vectors."""
    single = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = reference_sigmoid(z) if i == last else np.maximum(z, 0.0)
    return h[0] if single else h


def reference_train_step(weights, biases, acc_w, acc_b, x, actions, targets, lr, beta, eps):
    """One minibatch step of the per-layer learner, in place on its lists:
    chosen-head squared error, backpropagation over every head, then
    RMSProp layer by layer.  Returns the loss.  MlpModel must match it bit
    for bit."""
    batch = x.shape[0]
    last = len(weights) - 1
    acts, pre, h = [x], [], x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        pre.append(z)
        h = reference_sigmoid(z) if i == last else np.maximum(z, 0.0)
        acts.append(h)
    q = acts[-1]
    rows = np.arange(batch)
    chosen = q[rows, actions]
    err = chosen - targets
    loss = float(np.mean(err**2))
    dz = np.zeros_like(q)
    dz[rows, actions] = (2.0 / batch) * err * chosen * (1.0 - chosen)
    grads_w, grads_b = [None] * len(weights), [None] * len(biases)
    for i in range(last, -1, -1):
        grads_w[i] = dz.T @ acts[i]
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ weights[i]) * (pre[i - 1] > 0.0)
    for params, grads, accs in ((weights, grads_w, acc_w), (biases, grads_b, acc_b)):
        for p, g, a in zip(params, grads, accs):
            a *= beta
            a += (1.0 - beta) * g**2
            p -= lr * g / np.sqrt(a + eps)
    return loss


def same_bits(arrays, others):
    return len(arrays) == len(others) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(arrays, others)
    )


class TestReferenceLearner:
    LR, BETA, EPS = 1e-3, 0.99, 1e-8

    @pytest.mark.parametrize("sizes", [(3, 50, 50, 4), (3, 8, 2), (3, 16, 16, 16, 5)])
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("from_scratch", [False, True])
    def test_steps_match_per_layer_learner(self, sizes, batch, from_scratch):
        model = MlpModel(sizes, self.LR, self.BETA, self.EPS, rng=substream(17, "init"))
        ref = [[p.copy() for p in group] for group in (model.weights, model.biases)]
        ref += [[np.zeros_like(p) for p in group] for group in ref]
        initial = model.params.copy()
        anchor = [[p.copy() for p in group] for group in ref[:2]]
        rng = substream(18, "steps", *sizes, batch)
        for _ in range(200):
            x = rng.random((batch, 3))
            actions = rng.integers(0, sizes[-1], size=batch)
            targets = rng.random(batch)
            if from_scratch:
                model.set_params(initial)
                ref = [[p.copy() for p in group] for group in anchor]
                ref += [[np.zeros_like(p) for p in group] for group in ref]
            loss = model.train_step(x, actions, targets)
            want = reference_train_step(*ref, x, actions, targets, self.LR, self.BETA, self.EPS)
            assert loss.hex() == want.hex()
            accs = model.layer_views(model.acc)
            for got, expected in zip((model.weights, model.biases, *accs), ref):
                assert same_bits(got, expected)
        probe = rng.random((batch, 3))
        assert same_bits([model.forward(probe)], [reference_forward(*ref[:2], probe)])
        assert same_bits([model.forward(probe[0])], [reference_forward(*ref[:2], probe[0])])


def reference_act(weights, biases, x):
    """One context's greedy decision as a batch of one: the hidden layers'
    ReLU matmuls, the -|z| logistic squash and np.argmax.  Returns
    (q, action); MlpModel.forward and E2daAgent.act must match it bit for
    bit, since one differing ulp in q can flip a close pick."""
    h = x[None]
    for w, b in zip(weights[:-1], biases[:-1]):
        h = h @ w.T
        h += b
        h = np.maximum(h, 0.0, out=h)
    z = h @ weights[-1].T
    z += biases[-1]
    e = np.exp(-np.abs(z))
    q = (np.where(z >= 0.0, 1.0, e) / (1.0 + e))[0]
    return q, int(np.argmax(q))


class TestReferenceAct:
    def check(self, agent, contexts):
        """act on every context, and the frozen replay policy on all of
        them as one batch, match reference_act."""
        model = agent.model
        wants = []
        for x in contexts:
            want_q, want_a = reference_act(model.weights, model.biases, x)
            assert same_bits([model.forward(x)], [want_q])
            assert agent.act(x, 0.0) == want_a
            wants.append(want_a)
        batch = make_policy("e2da", [agent])(np.zeros(len(contexts), dtype=np.int64), contexts, None)
        assert np.asarray(batch).tolist() == wants

    @pytest.mark.parametrize("hidden", [(50, 50), (8,), (16, 16, 16)])
    def test_trained_parameters(self, hidden):
        agent = E2daAgent.create(AgentConfig(hidden_sizes=hidden, minibatch_size=16), 4,
                                 RewardParams(), 31)
        rng = substream(32, "act", *hidden)
        self.check(agent, rng.random((200, 3)))
        for _ in range(300):
            x = rng.random(3)
            agent.observe(x, agent.act(x, 0.5), float(rng.uniform(-1.0, 1.0)))
        self.check(agent, rng.random((500, 3)))
        # contexts on the clamp edges, as normalize_context gives them
        self.check(agent, rng.integers(0, 2, (16, 3)).astype(np.float64))

    def test_saturated_heads(self):
        agent = E2daAgent.create(AgentConfig(hidden_sizes=(8, 8)), 5, RewardParams(), 33)
        agent.model.biases[-1][...] = [-60.0, 45.0, 41.0, -41.0, 800.0]
        self.check(agent, substream(34, "act").random((100, 3)))
        agent.model.biases[-1][...] = [-800.0, -45.0, -41.0, -60.0, -700.0]
        self.check(agent, substream(35, "act").random((100, 3)))

    def test_exactly_tied_heads(self):
        agent = E2daAgent.create(AgentConfig(hidden_sizes=(8,)), 4, RewardParams(), 36)
        w, b = agent.model.weights[-1], agent.model.biases[-1]
        w[2] = w[1] = w[3]
        b[...] = [-5.0, 0.25, 0.25, 0.25]
        self.check(agent, substream(37, "act").random((100, 3)))
        w[...] = 0.0
        b[...] = 50.0  # every head squashes to exactly 1.0
        self.check(agent, substream(38, "act").random((20, 3)))
        assert agent.act(np.full(3, 0.5), 0.0) == 0

    def test_exactly_tied_rows_inside_a_batch(self):
        """Heads 1 and 2 are equal, so every row they win is an exact tie,
        and the batch mixes those rows with rows heads 0 and 3 win clearly.
        The batched policy sends the close rows, and only them, through
        act, which resolves each tie to head 1."""
        agent = E2daAgent.create(AgentConfig(hidden_sizes=(8,)), 4, RewardParams(), 39)
        w, b = agent.model.weights[-1], agent.model.biases[-1]
        w[2] = w[1]
        b[...] = [0.05, 0.0, 0.0, 0.1]
        contexts = substream(40, "act").random((200, 3))
        q = np.array([reference_act(agent.model.weights, agent.model.biases, x)[0] for x in contexts])
        top = np.sort(q, axis=1)
        close = np.flatnonzero(top[:, -1] - top[:, -2] < 1e-9).tolist()
        assert 0 < len(close) < len(contexts)
        assert all(q[i, 1] == q[i, 2] == q[i].max() for i in close)
        assert {0, 3} <= set(q.argmax(axis=1).tolist())
        row_of = {x.tobytes(): i for i, x in enumerate(contexts)}
        acted = []
        act = agent.act

        def spy(x, epsilon):
            acted.append(row_of[x.tobytes()])
            return act(x, epsilon)

        agent.act = spy
        self.check(agent, contexts)  # one act per context, then the batch
        assert acted[len(contexts):] == close
        state = agent.explore_rng.bit_generator.state
        make_policy("e2da", [agent])(np.zeros(len(contexts), dtype=np.int64), contexts, None)
        assert agent.explore_rng.bit_generator.state == state

    def test_agent_observe_matches_per_layer_learner(self):
        cfg = AgentConfig(hidden_sizes=(16, 16), minibatch_size=64, buffer_capacity=50,
                          retrain_from_scratch=True, penalty=2.0)
        agent = E2daAgent.create(cfg, 4, RewardParams(2.0, 1.0), 23)
        anchor = [[w.copy() for w in agent.model.weights], [b.copy() for b in agent.model.biases]]
        mirror = substream(23, "minibatch")
        contexts, actions, rewards = np.zeros((50, 3)), np.zeros(50, dtype=np.intp), np.zeros(50)
        rng = substream(24, "outcomes")
        for n in range(200):
            x, a, r = rng.random(3), int(rng.integers(4)), float(rng.uniform(-2.0, 1.0))
            agent.observe(x, a, r)
            contexts[n % 50], actions[n % 50], rewards[n % 50] = x, a, r
            ref = [[p.copy() for p in group] for group in anchor]
            ref += [[np.zeros_like(p) for p in group] for group in ref]
            idx = mirror.integers(0, min(n + 1, 50), size=64)
            targets = reward_to_target(rewards[idx], cfg.penalty)
            reference_train_step(*ref, contexts[idx], actions[idx], targets,
                                 cfg.learning_rate, cfg.rmsprop_decay, cfg.rmsprop_eps)
            model = agent.model
            accs = model.layer_views(model.acc)
            for got, expected in zip((model.weights, model.biases, *accs), ref):
                assert same_bits(got, expected)


def step_with(model, flat_grad):
    """One apply_grads from a chosen gradient, laid out like model.params
    and written into the model's gradient buffer."""
    np.copyto(model._grad, flat_grad)
    model.apply_grads()


class TestRmsProp:
    def test_single_step_oracle(self):
        model = MlpModel((1, 1), lr := 0.1, beta := 0.9, eps := 1e-8, rng=None)
        model.weights[0][:] = 1.0
        step_with(model, [3.0, 0.0])  # dL/dw 3, dL/db 0
        acc = (1 - beta) * 9.0
        want = 1.0 - lr * 3.0 / math.sqrt(acc + eps)
        assert model.weights[0][0, 0] == pytest.approx(want, rel=1e-15)
        assert model.acc[0] == pytest.approx(acc, rel=1e-15)  # the one weight's accumulator
        # second step folds the accumulator forward
        step_with(model, [3.0, 0.0])
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

    def test_state_round_trip_is_exact(self, tmp_path):
        cfg = AgentConfig(hidden_sizes=(8,), learning_rate=0.01)
        agent = E2daAgent.create(cfg, 4, RewardParams(1.0, 1e6), 3)
        model, rng = agent.model, substream(4, "d")
        for _ in range(5):
            model.train_step(rng.random((16, 3)), rng.integers(0, 4, 16), rng.random(16))
        [clone] = checkpoint_round_trip(tmp_path, [agent])
        assert np.array_equal(model.params, clone.model.params)
        assert np.array_equal(model.acc, clone.model.acc)
        x = rng.random((4, 3))
        assert np.array_equal(model.forward(x), clone.model.forward(x))


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.push(np.full(3, float(i)), i % 2, float(10 * i))
        assert buf.size == 3
        # slots hold items 3, 4, 2 after wraparound
        assert buf.contexts[:, 0].tolist() == [3.0, 4.0, 2.0]
        assert buf.targets.tolist() == [30.0, 40.0, 20.0]

    def test_sample_mirrors_generator(self):
        buf = ReplayBuffer(10)
        for i in range(4):
            buf.push(np.full(3, float(i)), i, float(i))
        rng = substream(5, "mb")
        mirror = substream(5, "mb")
        ctx, act, rew = buf.sample(rng, 6)
        idx = mirror.integers(0, 4, size=6)
        assert np.array_equal(ctx[:, 0], idx.astype(float))
        assert np.array_equal(act, idx)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4).sample(substream(0, "x"), 1)


def checkpoint_round_trip(tmp_path, agents, per_user=False):
    """The agents written to a model.json and read back, after checking
    that writing what was read gives the same bytes."""
    bounds = ((10.0, 5e4), (10.0, 2000.0), (0.01, 0.03))
    salts = [("user", u) for u in range(len(agents))] if per_user else [()]
    first, again = str(tmp_path / "model.json"), str(tmp_path / "again.json")
    write_checkpoint(first, agents, per_user, bounds)
    clones, read_bounds = read_checkpoint(first, 4, per_user, salts, 0)
    write_checkpoint(again, clones, per_user, read_bounds)
    assert read_bounds == bounds
    with open(first, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()
    return clones


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

    def test_act_draws_before_any_forward(self, monkeypatch):
        """act draws the coin, then on an exploring step the action, and
        runs the forward only on a greedy step."""
        agent = tiny_agent(8)
        forward, forwards = agent.model.forward, []
        monkeypatch.setattr(agent.model, "forward", lambda x: forwards.append(x) or forward(x))
        x = np.array([0.2, 0.5, 0.8])
        agent.explore_rng = StubRng([0.1], [3])  # 0.1 < 0.5 explores
        assert agent.act(x, 0.5) == 3
        assert agent.explore_rng.calls == [("random",), ("integers", 4)]
        assert forwards == []
        agent.explore_rng = StubRng([0.7])  # 0.7 >= 0.5 exploits
        assert agent.act(x, 0.5) == int(np.argmax(forward(x)))
        assert agent.explore_rng.calls == [("random",)]
        assert len(forwards) == 1

    def test_observe_trains_toward_target(self):
        agent = tiny_agent(5, train_steps_per_observation=4)
        x = np.array([0.5, 0.5, 0.5])
        before = agent.model.forward(x)[2]
        for _ in range(200):
            agent.observe(x, 2, 1.0)  # target (1+1)/2 = 1.0
        after = agent.model.forward(x)[2]
        assert after > before
        assert after > 0.8

    @staticmethod
    def check_round_trip(tmp_path, n_agents, per_user):
        agents = [tiny_agent(9 + u) for u in range(n_agents)]
        rng = substream(10, "ctx")
        for agent in agents:
            for _ in range(20):
                x = rng.random(3)
                agent.observe(x, agent.act(x, 0.5), 0.25)
            agent.episodes_trained = 17
        clones = checkpoint_round_trip(tmp_path, agents, per_user)
        probe = rng.random((6, 3))
        for agent, clone in zip(agents, clones):
            assert clone.episodes_trained == 17
            assert clone.config == agent.config
            assert clone.reward_params == agent.reward_params
            assert np.array_equal(clone.model.forward(probe), agent.model.forward(probe))

    def test_state_round_trip(self, tmp_path):
        self.check_round_trip(tmp_path, 1, per_user=False)

    def test_set_state_round_trip(self, tmp_path):
        self.check_round_trip(tmp_path, 3, per_user=True)

    def test_retrain_from_scratch_keeps_anchor(self, tmp_path):
        agent = tiny_agent(6, retrain_from_scratch=True)
        anchor = [w.copy() for w in agent.model.layer_views(agent._initial_params)[0]]
        rng = substream(13, "ctx")
        for _ in range(10):
            x = rng.random(3)
            agent.observe(x, 1, 0.5)
        initial_weights = agent.model.layer_views(agent._initial_params)[0]
        assert all(np.array_equal(a, w) for a, w in zip(anchor, initial_weights))
        [clone] = checkpoint_round_trip(tmp_path, [agent])
        assert all(
            np.array_equal(a, w)
            for a, w in zip(anchor, clone.model.layer_views(clone._initial_params)[0])
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AgentConfig(hidden_sizes=())
        with pytest.raises(ConfigError):
            AgentConfig(rmsprop_decay=1.0)
        with pytest.raises(ConfigError):
            AgentConfig(epsilon0=1.2)
