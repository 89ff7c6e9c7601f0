"""Neural epsilon-greedy scheduler over task features.

A small fully connected network maps the scaled (size, intensity, deadline)
context to one value head per action (local plus each channel).  Hidden
layers are ReLU, the output layer is a logistic squash, and training
minimizes squared error on the chosen action's head only, with RMSProp
updates over minibatches replayed from a ring buffer.  A run's agents are
saved to and read from model.json by write_checkpoint and read_checkpoint.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import AgentConfig, read_section, read_value, to_json
from .errors import ConfigError, TrainingFault
from .ioutil import read_json, write_json
from .rng import substream

# width of the paper's context: the scaled (size, intensity, deadline)
CONTEXT_DIM = 3


@dataclass(frozen=True)
class RewardParams:
    """Scoring constants: miss penalty and the efficiency normalizer.

    efficiency_scale is the bits/(s*J) level mapped to score 1.0; realized
    efficiencies above it clamp."""

    penalty: float = 1.0
    efficiency_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.penalty < math.inf:
            raise ConfigError(f"penalty must be finite and >= 0, got {self.penalty}")
        if not 0 < self.efficiency_scale < math.inf:
            raise ConfigError(
                f"efficiency_scale must be finite and > 0, got {self.efficiency_scale}"
            )


def efficiency(size_bits, total_s, e_total_j):
    """Raw bits per second-joule of finished tasks, elementwise: a task's
    size broadcasts against per-action times and energies on the last axis."""
    bad = (total_s <= 0) | (e_total_j <= 0)  # a plain bool for one task's Python floats
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise ValueError(
            f"efficiency needs positive time and energy, got {total_s}, {e_total_j}"
        )
    return size_bits / (total_s * e_total_j)


def compute_reward(size_bits, total_s, e_total_j, met_deadline, params: RewardParams):
    """Score in [-penalty, 1], elementwise like efficiency: scaled
    efficiency where the deadline held, -penalty where it did not."""
    # scored before the verdict, so a non-positive T or E raises on a miss too
    scaled = efficiency(size_bits, total_s, e_total_j) / params.efficiency_scale
    if isinstance(scaled, np.ndarray):
        return np.where(met_deadline, np.minimum(scaled, 1.0), -params.penalty)
    return min(scaled, 1.0) if met_deadline else -params.penalty


def reward_to_target(reward: float, penalty: float) -> float:
    """Affine map of [-penalty, 1] onto [0, 1] for the logistic output;
    elementwise on an array of rewards."""
    return (reward + penalty) / (1.0 + penalty)


class MlpModel:
    """Plain numpy MLP: ReLU hidden layers, logistic outputs, squared error
    on one selected output per sample, RMSProp parameter updates.

    Parameters, RMSProp accumulators and gradients are one flat float64
    vector each (params, acc, _grad); weights and biases are per-layer
    views into params, so writing through a view changes the model."""

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
        n = sum(i * o + o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.params, self.acc, self._grad, self._tmp = (np.zeros(n) for _ in range(4))
        self.weights, self.biases = self.layer_views(self.params)
        self._grads = self.layer_views(self._grad)  # what loss_and_grads returns
        # per layer, the transposed weight and (1, fan_out) bias views that
        # the matmuls and the bias adds take
        *self._hidden_t, self._out_t = [(w.T, b[None]) for w, b in zip(self.weights, self.biases)]
        for w in self.weights if rng is not None else ():
            fan_out, fan_in = w.shape
            limit = init_scale if init_scale is not None else math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def layer_views(self, flat: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-layer weight and bias views into a flat vector laid out like params."""
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            end = start + fan_out * fan_in
            weights.append(flat[start:end].reshape(fan_out, fan_in))
            biases.append(flat[end : end + fan_out])
            start = end + fan_out
        return weights, biases

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for a single context (1d) or a batch (2d).  One
        context runs as a batch of one, through the same matmuls as a
        batch."""
        batch = x[None] if x.ndim == 1 else x
        values = self._sigmoid(self._layers(batch)[1])
        return values if batch is x else values[0]

    def _layers(self, x: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Layer inputs (x, then each ReLU output) and the output pre-activations."""
        acts = [x]
        for wt, b in self._hidden_t:
            h = acts[-1] @ wt
            h += b
            acts.append(np.maximum(h, 0.0, out=h))
        wt, b = self._out_t
        z = acts[-1] @ wt
        z += b
        return acts, z

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        """Logistic function that never overflows: exp only sees -|z|.
        It is num / (1 + exp(-|z|)), where num is 1 for z >= 0 and
        exp(-|z|) = exp(z) below; exp(fmin(z, 0)) gives those same bits,
        and for a NaN z the NaN of the denominator."""
        e = np.copysign(z, -1.0)
        np.exp(e, out=e)
        e += 1.0
        q = np.fmin(z, 0.0)
        np.exp(q, out=q)
        q /= e
        return q

    def loss_and_grads(
        self, x: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
        """Mean squared error on the chosen heads and its parameter gradients.
        Gradients flow only through each sample's chosen output, and only the
        chosen heads are squashed.  The gradients fill the model's one
        gradient buffer, and the per-layer weight and bias lists returned
        are views into it, which the next call or apply_grads overwrites."""
        grads_w, grads_b = self._grads
        acts, z = self._layers(x)
        batch, n_out = z.shape
        heads = np.arange(0, z.size, n_out) + actions  # flat index of each chosen head
        chosen = self._sigmoid(z.ravel()[heads])
        err = chosen - targets
        loss = float(np.add.reduce(err * err) / batch)
        dz = np.zeros(z.shape)
        dz.ravel()[heads] = (2.0 / batch) * err * chosen * (1.0 - chosen)
        for i in range(len(acts) - 1, -1, -1):
            np.matmul(dz.T, acts[i], out=grads_w[i])
            np.add.reduce(dz, axis=0, out=grads_b[i])
            if i:
                dz = dz @ self.weights[i]
                dz *= acts[i] > 0.0  # a ReLU output is positive where its input was
        return loss, grads_w, grads_b

    def apply_grads(self) -> None:
        """One RMSProp step, elementwise over the flat vectors, from the
        gradient buffer that loss_and_grads filled; the step consumes it."""
        g, tmp, beta = self._grad, self._tmp, self.rmsprop_decay
        self.acc *= beta
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta
        self.acc += tmp
        np.sqrt(np.add(self.acc, self.rmsprop_eps, out=tmp), out=tmp)
        g *= self.learning_rate
        g /= tmp
        self.params -= g

    def train_step(self, x: np.ndarray, actions: np.ndarray, targets: np.ndarray) -> float:
        """One minibatch step: gradients, a finite-loss check, then RMSProp."""
        loss = self.loss_and_grads(x, actions, targets)[0]
        if not math.isfinite(loss):
            raise TrainingFault(f"non-finite loss {loss}")
        self.apply_grads()
        return loss

    def set_params(self, params: np.ndarray) -> None:
        """Load a flat parameter vector and restart RMSProp from zero."""
        np.copyto(self.params, params)
        self.acc.fill(0.0)


class ReplayBuffer:
    """Fixed-capacity ring of (context, action, target) observations."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.contexts = np.zeros((capacity, CONTEXT_DIM))
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.targets = np.zeros(capacity)
        self.size = 0
        self._cursor = 0

    def push(self, context: np.ndarray, action: int, target: float) -> None:
        i = self._cursor
        self.contexts[i] = context
        self.actions[i] = action
        self.targets[i] = target
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uniform sample with replacement over stored tuples."""
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=n)
        return self.contexts[idx], self.actions[idx], self.targets[idx]


class E2daAgent:
    """Ties the pieces together: value network, replay memory, exploration."""

    def __init__(
        self,
        config: AgentConfig,
        n_actions: int,
        reward_params: RewardParams,
        init_rng: Optional[np.random.Generator],
        explore_rng: np.random.Generator,
        minibatch_rng: np.random.Generator,
    ):
        self.config = config
        self.reward_params = reward_params
        self.model = MlpModel(
            (CONTEXT_DIM, *config.hidden_sizes, n_actions),
            config.learning_rate,
            config.rmsprop_decay,
            config.rmsprop_eps,
            rng=init_rng,
            init_scale=config.init_scale,
        )
        self.buffer = ReplayBuffer(config.buffer_capacity)
        self.explore_rng = explore_rng
        self.minibatch_rng = minibatch_rng
        self.episodes_trained = 0
        self._initial_params = self.model.params.copy() if config.retrain_from_scratch else None

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
        """Exploration rate after `episode` episodes of geometric decay."""
        cfg = self.config
        return max(cfg.epsilon_min, cfg.epsilon0 * cfg.epsilon_decay**episode)

    def act(self, context: np.ndarray, epsilon: float) -> int:
        """Uniform over the actions with probability epsilon, otherwise greedy
        on the model's values.  The coin, and on an exploring step the
        action, are drawn from explore_rng before any forward pass; greedy
        ties go to the lowest action, and epsilon 0 draws nothing."""
        rng = self.explore_rng
        if epsilon > 0.0 and rng.random() < epsilon:
            return int(rng.integers(self.model.n_actions))
        return int(self.model.forward(context).argmax())

    def observe(self, context: np.ndarray, action: int, reward: float) -> None:
        """Record one outcome and run the configured number of replay steps."""
        self.buffer.push(context, action, reward_to_target(reward, self.config.penalty))
        if self._initial_params is not None:
            self.model.set_params(self._initial_params)
        for _ in range(self.config.train_steps_per_observation):
            batch = self.buffer.sample(self.minibatch_rng, self.config.minibatch_size)
            self.model.train_step(*batch)


# model.json's format name and agent-state key, by whether agents are per user
_FORMATS = {False: ("e2da-agent", "agent"), True: ("e2da-agent-set", "agents")}
_ACC_KEYS = ("acc_weights", "acc_biases")


def _hyperparameters(model: MlpModel) -> dict:
    """The checkpoint entries that describe a model, not its arrays."""
    names = ("learning_rate", "rmsprop_decay", "rmsprop_eps")
    return {"layer_sizes": list(model.layer_sizes), **{n: getattr(model, n) for n in names}}


def _save_layers(model: MlpModel, flat: np.ndarray, keys=("weights", "biases")) -> dict:
    """A vector laid out as model.params, as per-layer lists under keys."""
    return {key: [a.tolist() for a in views] for key, views in zip(keys, model.layer_views(flat))}


def _load_layers(model: MlpModel, flat: np.ndarray, saved: dict, prefix: str,
                 keys=("weights", "biases")) -> None:
    """Copy the per-layer lists that _save_layers wrote into `flat`.  A
    wrong, non-finite or unrepresentable entry raises ConfigError naming
    its key path, such as "model.weights[1]"."""
    for name, views in zip(keys, model.layer_views(flat)):
        values, key = saved[name], f"{prefix}.{name}"
        if not isinstance(values, list) or len(values) != len(views):
            raise ConfigError(f"{key} must list {len(views)} arrays, one per layer")
        for i, (value, view) in enumerate(zip(values, views)):
            try:
                arr = np.array(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{key}[{i}] is not an array of floats") from None
            if arr.shape != view.shape:
                raise ConfigError(
                    f"{key}[{i}] has shape {arr.shape}, the layer sizes need {view.shape}"
                )
            if not np.isfinite(arr).all():
                raise ConfigError(f"{key}[{i}] holds a non-finite value")
            view[...] = arr


def write_checkpoint(
    path: str, agents: Sequence[E2daAgent], per_user: bool, context_bounds
) -> None:
    """Write the model.json of a run's agents, whose contexts it scaled
    with context_bounds; in a per-user set agents[u] decides for user u."""
    kind, key = _FORMATS[per_user]
    states = []
    for agent in agents:
        model, anchor = agent.model, agent._initial_params
        arrays = {**_save_layers(model, model.params), **_save_layers(model, model.acc, _ACC_KEYS)}
        states.append({
            "model": {**_hyperparameters(model), **arrays},
            "reward_params": to_json(agent.reward_params),
            "initial_params": None if anchor is None else _save_layers(model, anchor),
            "episodes_trained": agent.episodes_trained,
            "config": to_json(agent.config),
        })
    write_json(path, {
        "format": kind, "tool_version": __version__, "n_actions": agents[0].model.n_actions,
        "context_bounds": to_json(context_bounds), key: states if per_user else states[0],
    })


def read_checkpoint(
    path: str, n_actions: int, per_user: bool, salts: Sequence[Tuple], seed: int
) -> Tuple[List[E2daAgent], Tuple[Tuple[float, float], ...]]:
    """The agents and context bounds of the model.json at path, checked
    against a run's agent scope (per_user), action count and, in a set, one
    agent per stream salt, all with one episode count.  Each agent's explore
    and minibatch substreams are salted as E2daAgent.create salts them and
    also with that count, so a resumed run does not replay the original
    run's draws.  A malformed entry raises ConfigError starting with the
    path and then the entry's key path."""
    payload = read_json(path)
    kind, key = _FORMATS[per_user]
    try:
        found = payload.get("format") if isinstance(payload, dict) else None
        if found != kind:
            scope = "per_user" if per_user else "shared"
            raise ConfigError(f"format is {found!r}; run.agent_scope {scope!r} needs {kind!r}")
        if (found := payload.get("n_actions")) != n_actions:
            raise ConfigError(f"n_actions is {found!r}, the config implies {n_actions}")
        states = payload.get(key) if per_user else [payload.get(key)]
        if not isinstance(states, list) or len(states) != len(salts):
            raise ConfigError(f"{key} must list one agent state per user ({len(salts)})")
        agents = []
        for u, (state, salt) in enumerate(zip(states, salts)):
            where = f"agents[{u}]" if per_user else "agent"
            if not isinstance(state, dict):
                raise ConfigError(f"{where} must be an agent state object, got {state!r}")
            try:
                agents.append(_read_agent(state, n_actions, seed, salt))
            except ConfigError as exc:  # the message starts with a key path inside the state
                raise ConfigError(f"{where}.{exc}") from None
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise ConfigError(f"{where} is not a valid agent state ({exc!r})") from None
        # a set's agents train together, so one count numbers a resumed run's episodes
        counts = [agent.episodes_trained for agent in agents]
        for u, ep in enumerate(counts):
            if ep != counts[0]:
                raise ConfigError(
                    f"agents[{u}].episodes_trained is {ep}, agents[0]'s is {counts[0]}"
                )
        hint = Tuple[Tuple[float, float], ...]
        return agents, read_value(payload.get("context_bounds"), hint, "context_bounds")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _read_agent(state: dict, n_actions: int, seed: int, salt: Tuple) -> E2daAgent:
    """One saved agent, built from its config section, which is read like
    a run config's agent section.  A bad episode count or constant, two
    miss penalties, hyperparameters or an anchor the config does not imply,
    or a malformed array raises ConfigError starting with its key path in
    the state; other malformed entries raise KeyError, TypeError or
    ValueError."""
    ep = state.get("episodes_trained")
    if not isinstance(ep, int) or isinstance(ep, bool) or not 0 <= ep <= sys.float_info.max:
        raise ConfigError(f"episodes_trained must be a count a float can hold, got {ep!r}")
    config = read_section(AgentConfig, state["config"], "config")
    rp = read_section(RewardParams, state["reward_params"], "reward_params")
    if config.penalty != rp.penalty:
        raise ConfigError(
            f"config.penalty {config.penalty!r} differs from reward_params.penalty "
            f"{rp.penalty!r}; the learner's targets and the scores must share one penalty"
        )
    agent = E2daAgent(
        config, n_actions, rp, None,
        explore_rng=substream(seed, "explore", ep, *salt),
        minibatch_rng=substream(seed, "minibatch", ep, *salt),
    )
    model, saved = agent.model, state["model"]
    for name, implied in _hyperparameters(model).items():
        if (found := saved[name]) != implied:
            raise ConfigError(f"model.{name} is {found!r}, but the config implies {implied!r}")
    _load_layers(model, model.params, saved, "model")
    _load_layers(model, model.acc, saved, "model", _ACC_KEYS)
    agent.episodes_trained = ep
    initial = state.get("initial_params")
    anchor = None if initial is None else np.zeros_like(model.params)
    if anchor is not None:  # loaded before the check, so a bad entry names its key
        _load_layers(model, anchor, initial, "initial_params")
    if (anchor is None) == config.retrain_from_scratch:
        raise ConfigError(
            f"initial_params is {'null' if anchor is None else 'set'}, but "
            f"config.retrain_from_scratch is {config.retrain_from_scratch}"
        )
    agent._initial_params = anchor
    return agent
