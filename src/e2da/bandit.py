"""Neural epsilon-greedy scheduler over task features.

A small fully connected network maps the scaled (size, intensity, deadline)
context to one value head per action (local plus each channel).  Hidden
layers are ReLU, the output layer is a logistic squash, and training
minimizes squared error on the chosen action's head only, with RMSProp
updates over minibatches replayed from a ring buffer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, TrainingFault
from .rng import substream


@dataclass(frozen=True)
class RewardParams:
    """Scoring constants: miss penalty and the efficiency normalizer.

    efficiency_scale is the bits/(s*J) level mapped to score 1.0; realized
    efficiencies above it clamp."""

    penalty: float = 1.0
    efficiency_scale: float = 1.0

    def validate(self) -> None:
        if not 0 <= self.penalty < math.inf:
            raise ConfigError(f"penalty must be finite and >= 0, got {self.penalty}")
        if not 0 < self.efficiency_scale < math.inf:
            raise ConfigError(
                f"efficiency_scale must be finite and > 0, got {self.efficiency_scale}"
            )


def efficiency(size_bits, total_s, e_total_j):
    """Raw bits per second-joule of finished tasks, elementwise: a task's
    size broadcasts against per-action times and energies on the last axis."""
    # plain operators, so one task's floats stay Python floats and cost no
    # numpy call per live decision
    if np.count_nonzero((total_s <= 0) | (e_total_j <= 0)):
        raise ValueError(
            f"efficiency needs positive time and energy, got {total_s}, {e_total_j}"
        )
    return size_bits / (total_s * e_total_j)


def compute_reward(size_bits, total_s, e_total_j, met_deadline, params: RewardParams):
    """Score in [-penalty, 1], elementwise like efficiency: scaled
    efficiency where the deadline held, -penalty where it did not."""
    # scored before the verdict, so a non-positive T or E raises on a miss too
    eta = efficiency(size_bits, total_s, e_total_j)
    return np.where(met_deadline, np.minimum(eta / params.efficiency_scale, 1.0), -params.penalty)


def reward_to_target(reward: float, penalty: float) -> float:
    """Affine map of [-penalty, 1] onto [0, 1] for the logistic output;
    elementwise on an array of rewards."""
    return (reward + penalty) / (1.0 + penalty)


def epsilon_at(epsilon0: float, decay: float, epsilon_min: float, episode: int) -> float:
    """Exploration rate after `episode` episodes of geometric decay."""
    return max(epsilon_min, epsilon0 * decay**episode)


def select_action(q: np.ndarray, epsilon: float, rng: Optional[np.random.Generator]) -> int:
    """Greedy on q with probability 1 - epsilon, uniform otherwise.
    Greedy ties resolve to the lowest action index; epsilon = 0 consumes
    no randomness at all."""
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires an exploration rng")
        if rng.random() < epsilon:
            return int(rng.integers(len(q)))
    return int(np.argmax(q))


def _check_optimizer(learning_rate: float, rmsprop_decay: float, rmsprop_eps: float) -> None:
    """RMSProp constants: positive step and epsilon, decay inside (0, 1)."""
    for f_name, value in (("learning_rate", learning_rate), ("rmsprop_eps", rmsprop_eps)):
        if not value > 0:
            raise ConfigError(f"{f_name} must be > 0, got {value}")
    if not 0.0 < rmsprop_decay < 1.0:
        raise ConfigError(f"rmsprop_decay must be in (0, 1), got {rmsprop_decay}")


@dataclass(frozen=True)
class AgentConfig:
    hidden_sizes: Tuple[int, ...] = (50, 50)
    learning_rate: float = 1e-3
    rmsprop_decay: float = 0.99
    rmsprop_eps: float = 1e-8
    minibatch_size: int = 64
    train_steps_per_observation: int = 1
    buffer_capacity: int = 50_000
    epsilon0: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.01
    penalty: float = 1.0
    init_scale: Optional[float] = None
    retrain_from_scratch: bool = False

    def validate(self) -> None:
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        _check_optimizer(self.learning_rate, self.rmsprop_decay, self.rmsprop_eps)
        for f_name in ("minibatch_size", "train_steps_per_observation", "buffer_capacity"):
            if getattr(self, f_name) <= 0:
                raise ConfigError(f"{f_name} must be > 0, got {getattr(self, f_name)}")
        for f_name in ("epsilon0", "epsilon_decay", "epsilon_min"):
            v = getattr(self, f_name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{f_name} must be in [0, 1], got {v}")
        if not 0 <= self.penalty < math.inf:
            raise ConfigError(f"penalty must be finite and >= 0, got {self.penalty}")
        if self.init_scale is not None and self.init_scale <= 0:
            raise ConfigError(f"init_scale must be > 0, got {self.init_scale}")


class MlpModel:
    """Plain numpy MLP: ReLU hidden layers, logistic outputs, squared error
    on one selected output per sample, RMSProp parameter updates."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        learning_rate: float,
        rmsprop_decay: float,
        rmsprop_eps: float,
        rng: Optional[np.random.Generator] = None,
        init_scale: Optional[float] = None,
    ):
        if len(layer_sizes) < 2:
            raise ConfigError(f"need at least input and output sizes, got {layer_sizes}")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.learning_rate = float(learning_rate)
        self.rmsprop_decay = float(rmsprop_decay)
        self.rmsprop_eps = float(rmsprop_eps)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = init_scale if init_scale is not None else math.sqrt(6.0 / (fan_in + fan_out))
            if rng is None:
                w = np.zeros((fan_out, fan_in))
            else:
                w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))
        self._reset_optimizer()

    def _reset_optimizer(self) -> None:
        self.acc_w = [np.zeros_like(w) for w in self.weights]
        self.acc_b = [np.zeros_like(b) for b in self.biases]

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for a single context (1d) or a batch (2d)."""
        single = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            h = self._sigmoid(z) if i == last else np.maximum(z, 0.0)
        return h[0] if single else h

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def loss_and_grads(
        self, x: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
        """Mean squared error on the chosen heads and its parameter gradients.
        Gradients flow only through each sample's chosen output."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        actions = np.asarray(actions, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.float64)
        batch = x.shape[0]
        last = len(self.weights) - 1
        acts = [x]
        pre: List[np.ndarray] = []
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            pre.append(z)
            h = self._sigmoid(z) if i == last else np.maximum(z, 0.0)
            acts.append(h)
        q = acts[-1]
        rows = np.arange(batch)
        chosen = q[rows, actions]
        err = chosen - targets
        loss = float(np.mean(err**2))
        dz = np.zeros_like(q)
        dz[rows, actions] = (2.0 / batch) * err * chosen * (1.0 - chosen)
        grads_w: List[Optional[np.ndarray]] = [None] * len(self.weights)
        grads_b: List[Optional[np.ndarray]] = [None] * len(self.biases)
        for i in range(last, -1, -1):
            grads_w[i] = dz.T @ acts[i]
            grads_b[i] = dz.sum(axis=0)
            if i > 0:
                dz = (dz @ self.weights[i]) * (pre[i - 1] > 0.0)
        return loss, grads_w, grads_b  # type: ignore[return-value]

    def apply_grads(self, grads_w: List[np.ndarray], grads_b: List[np.ndarray]) -> None:
        lr, beta, eps = self.learning_rate, self.rmsprop_decay, self.rmsprop_eps
        for w, gw, aw in zip(self.weights, grads_w, self.acc_w):
            aw *= beta
            aw += (1.0 - beta) * gw**2
            w -= lr * gw / np.sqrt(aw + eps)
        for b, gb, ab in zip(self.biases, grads_b, self.acc_b):
            ab *= beta
            ab += (1.0 - beta) * gb**2
            b -= lr * gb / np.sqrt(ab + eps)

    def train_step(self, x: np.ndarray, actions: np.ndarray, targets: np.ndarray) -> float:
        loss, gw, gb = self.loss_and_grads(x, actions, targets)
        if not math.isfinite(loss):
            raise TrainingFault(f"non-finite loss {loss}")
        self.apply_grads(gw, gb)
        return loss

    def copy_params(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]

    def set_params(self, weights: List[np.ndarray], biases: List[np.ndarray]) -> None:
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]
        self._reset_optimizer()

    def to_state(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "learning_rate": self.learning_rate,
            "rmsprop_decay": self.rmsprop_decay,
            "rmsprop_eps": self.rmsprop_eps,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "acc_weights": [a.tolist() for a in self.acc_w],
            "acc_biases": [a.tolist() for a in self.acc_b],
        }

    @classmethod
    def from_state(cls, state: dict) -> "MlpModel":
        """Model saved by to_state.  Bad layer sizes or optimizer constants,
        or parameter arrays of the wrong shape or with a non-finite entry,
        raise ConfigError whose message starts with the key path, such as
        "model.weights[1]"."""
        sizes = state["layer_sizes"]
        if not (
            isinstance(sizes, list)
            and len(sizes) >= 2
            and all(type(n) is int and n > 0 for n in sizes)
        ):
            raise ConfigError(
                f"model.layer_sizes must list two or more positive sizes, got {sizes!r}"
            )
        optimizer = (state["learning_rate"], state["rmsprop_decay"], state["rmsprop_eps"])
        try:
            _check_optimizer(*optimizer)
        except ConfigError as exc:
            raise ConfigError(f"model.{exc}") from None
        model = cls(sizes, *optimizer, rng=None)
        w_shapes, b_shapes = model.param_shapes()
        model.weights = _param_arrays(state["weights"], w_shapes, "model.weights")
        model.biases = _param_arrays(state["biases"], b_shapes, "model.biases")
        model.acc_w = _param_arrays(state["acc_weights"], w_shapes, "model.acc_weights")
        model.acc_b = _param_arrays(state["acc_biases"], b_shapes, "model.acc_biases")
        return model

    def param_shapes(self) -> Tuple[List[tuple], List[tuple]]:
        """Shapes of the weight matrices and bias vectors, layer by layer."""
        return [w.shape for w in self.weights], [b.shape for b in self.biases]


def _param_arrays(values, shapes: Sequence[tuple], key: str) -> List[np.ndarray]:
    """Saved parameter arrays, one per layer, checked against `shapes` and
    for finiteness; a bad entry raises ConfigError naming key[i]."""
    if not isinstance(values, list) or len(values) != len(shapes):
        raise ConfigError(f"{key} must list {len(shapes)} arrays, one per layer")
    arrays = []
    for i, (value, shape) in enumerate(zip(values, shapes)):
        try:
            arr = np.array(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}[{i}] is not a numeric array") from None
        if arr.shape != shape:
            raise ConfigError(f"{key}[{i}] has shape {arr.shape}, the layer sizes need {shape}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"{key}[{i}] holds a non-finite value")
        arrays.append(arr)
    return arrays


class ReplayBuffer:
    """Fixed-capacity ring of (context, action, reward) observations."""

    def __init__(self, capacity: int, context_dim: int = 3):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.contexts = np.zeros((capacity, context_dim))
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.rewards = np.zeros(capacity)
        self.size = 0
        self._cursor = 0

    def push(self, context: np.ndarray, action: int, reward: float) -> None:
        i = self._cursor
        self.contexts[i] = context
        self.actions[i] = action
        self.rewards[i] = reward
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uniform sample with replacement over stored tuples."""
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=n)
        return self.contexts[idx], self.actions[idx], self.rewards[idx]


class E2daAgent:
    """Ties the pieces together: value network, replay memory, exploration."""

    def __init__(
        self,
        config: AgentConfig,
        n_actions: int,
        reward_params: RewardParams,
        init_rng: np.random.Generator,
        explore_rng: np.random.Generator,
        minibatch_rng: np.random.Generator,
        context_dim: int = 3,
    ):
        config.validate()
        reward_params.validate()
        self.config = config
        self.reward_params = reward_params
        self.model = MlpModel(
            (context_dim, *config.hidden_sizes, n_actions),
            config.learning_rate,
            config.rmsprop_decay,
            config.rmsprop_eps,
            rng=init_rng,
            init_scale=config.init_scale,
        )
        self.buffer = ReplayBuffer(config.buffer_capacity, context_dim)
        self.explore_rng = explore_rng
        self.minibatch_rng = minibatch_rng
        self.episodes_trained = 0
        self._initial_params = self.model.copy_params() if config.retrain_from_scratch else None

    @classmethod
    def create(
        cls,
        config: AgentConfig,
        n_actions: int,
        reward_params: RewardParams,
        master_seed: int,
        stream_salt: Tuple = (),
    ) -> "E2daAgent":
        """Fresh agent with its own substreams.  stream_salt separates the
        streams of sibling agents built from one master seed."""
        return cls(
            config,
            n_actions,
            reward_params,
            init_rng=substream(master_seed, "agent-init", *stream_salt),
            explore_rng=substream(master_seed, "explore", *stream_salt),
            minibatch_rng=substream(master_seed, "minibatch", *stream_salt),
        )

    def epsilon(self, episode: int) -> float:
        cfg = self.config
        return epsilon_at(cfg.epsilon0, cfg.epsilon_decay, cfg.epsilon_min, episode)

    def act(self, context: np.ndarray, epsilon: float) -> int:
        return select_action(self.model.forward(context), epsilon, self.explore_rng)

    def observe(self, context: np.ndarray, action: int, reward: float) -> None:
        """Record one outcome and run the configured number of replay steps."""
        self.buffer.push(context, action, reward)
        if self._initial_params is not None:
            self.model.set_params(*self._initial_params)
        for _ in range(self.config.train_steps_per_observation):
            ctx, act, rew = self.buffer.sample(self.minibatch_rng, self.config.minibatch_size)
            self.model.train_step(ctx, act, reward_to_target(rew, self.config.penalty))

    def to_state(self) -> dict:
        initial = None
        if self._initial_params is not None:
            initial = {
                "weights": [w.tolist() for w in self._initial_params[0]],
                "biases": [b.tolist() for b in self._initial_params[1]],
            }
        return {
            "model": self.model.to_state(),
            "reward_params": asdict(self.reward_params),
            "initial_params": initial,
            "episodes_trained": self.episodes_trained,
            "config": asdict(self.config),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        explore_rng: np.random.Generator,
        minibatch_rng: np.random.Generator,
    ) -> "E2daAgent":
        """Agent saved by to_state.  An out-of-range config or reward
        constant, two differing miss penalties, or a malformed model or
        initial parameter array, raises ConfigError whose message starts
        with its key path in the state; other malformed entries raise
        KeyError, TypeError or ValueError."""
        cfg_d = dict(state["config"])
        cfg_d["hidden_sizes"] = tuple(cfg_d["hidden_sizes"])
        config = AgentConfig(**cfg_d)
        rp = RewardParams(**state["reward_params"])
        for key, section in (("config", config), ("reward_params", rp)):
            try:
                section.validate()
            except ConfigError as exc:
                raise ConfigError(f"{key}.{exc}") from None
        if config.penalty != rp.penalty:
            raise ConfigError(
                f"config.penalty {config.penalty!r} differs from reward_params.penalty "
                f"{rp.penalty!r}; the learner's targets and the scores must share one penalty"
            )
        model = MlpModel.from_state(state["model"])
        agent = cls.__new__(cls)
        agent.config = config
        agent.reward_params = rp
        agent.model = model
        agent.buffer = ReplayBuffer(config.buffer_capacity, model.layer_sizes[0])
        agent.explore_rng = explore_rng
        agent.minibatch_rng = minibatch_rng
        agent.episodes_trained = int(state["episodes_trained"])
        initial = state.get("initial_params")
        if initial is not None:
            w_shapes, b_shapes = model.param_shapes()
            agent._initial_params = (
                _param_arrays(initial["weights"], w_shapes, "initial_params.weights"),
                _param_arrays(initial["biases"], b_shapes, "initial_params.biases"),
            )
        else:
            agent._initial_params = None
        return agent
