"""Training and evaluation protocols, reward calibration, run metrics.

Replay rollouts sample records of a logged dataset (see dataset.py)
uniformly, so every action's consequence is known without re-simulating;
live rollouts instead submit the workload's first arrivals as real tasks
and book each decision when its completion event fires.  A live run reads
its tasks an episode at a time and scales each episode's contexts
together.  A frozen e2da or random reads only the task, so it decides the
whole episode there, as a replay does; only the learner and the oracles,
which read the system state, decide at each arrival.  Both rollouts take
a frozen policy or a learning agent and turn each episode's sums into one
metric row: a live rollout adds each outcome as its feedback arrives, a
replay books each episode whole.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, Union, get_type_hints,
)

import numpy as np

from .bandit import E2daAgent, RewardParams, compute_reward, efficiency
from .baselines import ORACLES
from .dataset import Dataset, generate_dataset  # noqa: F401  (the CLI imports both from here)
from .errors import ConfigError
from .ioutil import atomic_write_text
from .rng import Uniforms, substream
from .system import ChannelConfig, NodeConfig
from .workload import Task, WorkloadConfig, _features_of, arrivals, normalize_context

if TYPE_CHECKING:  # for annotations; only _live_rollout loads the simulator
    from .netsim import Simulator, TaskOutcome

# A frozen policy: choose(users, x, outcomes) -> actions, elementwise over
# decisions.  A replay episode, or a live episode decided ahead, passes
# (k,) users and (k, 3) scaled contexts; a live oracle decision passes its
# int user and 1-d context.  outcomes() returns the decisions' what-if
# (size, T, E), actions on the last axis.
Policy = Callable[[Any, np.ndarray, Callable[[], tuple]], Any]


def linear_percentile(values, q: float) -> float:
    """np.percentile(values, q) over every value, with numpy's default
    linear method, bit for bit: the order statistics either side of the
    virtual index (n - 1) * q / 100, then numpy's lerp.  Any NaN value
    gives NaN.  It partitions a flat copy and never imports numpy.ma,
    which np.percentile does on first use."""
    arr = np.array(values, dtype=np.float64).reshape(-1)
    n = arr.size
    virtual = (n - 1) * (q / 100)
    lo = math.floor(virtual) if virtual < n - 1 else -1  # past the end: the maximum
    hi = lo + 1 if lo >= 0 else -1
    # numpy's own kth list, so equal values (0.0 and -0.0) land where its
    # partition puts them; the last place gets the maximum, or a NaN
    arr.partition(sorted({0, -1, lo, hi}))
    if math.isnan(arr[-1]):
        return float(arr[-1])
    a, b, t = arr.item(lo), arr.item(hi), virtual - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def calibrate_efficiency_scale(dataset: Dataset, percentile: float = 99.0) -> float:
    """Efficiency normalizer: the given percentile of raw bits/(s*J) over
    every recorded (task, action) pair."""
    return linear_percentile(efficiency(*dataset.outcome_columns()), percentile)


# ------------------------------------------------------------------- metrics


class MetricsRow(NamedTuple):
    """One episode's metrics; the CSV writer, reader and average_rows go
    field by field, so the field list is written only here."""

    episode: int
    phase: str  # "train" or "test"
    reward: float
    deadline_frac: float
    energy_j: float
    response_s: float


# MetricsRow's fields as the metrics.csv header spells them
METRICS_COLUMNS = ("episode", "phase", "reward", "deadline_frac", "energy_J", "response_s")


def metrics_to_csv_text(rows: Sequence[MetricsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    writer.writerows(rows)  # a float's field is its repr, the shortest round trip
    return buf.getvalue()


def write_metrics(path: str, rows: Sequence[MetricsRow]) -> None:
    atomic_write_text(path, [metrics_to_csv_text(rows)])


def read_metrics(path: str) -> List[MetricsRow]:
    types = get_type_hints(MetricsRow).values()  # each field's type parses its column
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [MetricsRow._make(t(v) for t, v in zip(types, row)) for row in reader]


def summarize(
    series_by_name: Mapping[str, Sequence[MetricsRow]],
    tasks_per_episode: int,
) -> dict:
    """Per-name means over the test episodes."""
    per: Dict[str, dict] = {}
    for name, series in series_by_name.items():
        rows = [r for r in series if r.phase == "test"]
        if not rows:
            raise ValueError(f"series {name!r} has no 'test' rows")
        n_tasks = len(rows) * tasks_per_episode
        per[name] = {
            "episodes": len(rows),
            "mean_episode_reward": float(np.mean([r.reward for r in rows])),
            "mean_deadline_fraction": float(np.mean([r.deadline_frac for r in rows])),
            "mean_task_energy_j": float(sum(r.energy_j for r in rows) / n_tasks),
            "mean_task_response_s": float(sum(r.response_s for r in rows) / n_tasks),
        }
    return {"phase": "test", "tasks_per_episode": tasks_per_episode, "agents": per}


# ----------------------------------------------------------------- rollouts


def make_policy(
    name: str,
    agents: Sequence[E2daAgent] = (),
    rng: Optional[np.random.Generator] = None,
    n_actions: int = 0,
) -> Policy:
    """Frozen policy for one agent name, for replay and live rollouts alike.

    The learned agent acts greedily on the scaled context; with one agent
    per user, the decision's user picks the agent.  It takes arrays only
    (a replay episode, or a live episode decided ahead) and runs one
    batched forward per agent over their rows (see _greedy).  An oracle
    ranks the outcomes with its rule; random, which takes arrays only too,
    draws one action per row from rng.
    """
    if name == "e2da":
        if not agents:
            raise ValueError("e2da policy needs at least one agent")

        def choose(users, x, outcomes):
            if len(agents) == 1:
                return _greedy(agents[0], x)
            actions = np.empty(len(users), dtype=np.intp)
            for u in np.unique(users).tolist():
                rows = users == u
                actions[rows] = _greedy(agents[u], x[rows])
            return actions

        return choose
    if name in ORACLES:
        rule = ORACLES[name]
        return lambda users, x, outcomes: rule(*outcomes())
    if name == "random":
        if rng is None or n_actions < 1:
            raise ValueError("random policy needs rng and n_actions")
        return lambda users, x, outcomes: rng.integers(n_actions, size=len(users))
    raise ValueError(f"unknown policy {name!r}")


# a batched argmax whose top two values are closer than this is re-decided
# by act: far above the ~1e-15 that a batched forward's values differ by
# from one-row forwards, so every other row's argmax is act's
_CERTAIN_GAP = 1e-9


def _greedy(agent: E2daAgent, x: np.ndarray) -> np.ndarray:
    """agent.act(row, 0.0) for every row of x, from one batched forward.
    A row whose top two values differ by less than _CERTAIN_GAP, or that
    is not finite, goes through act itself, which draws no randomness at
    epsilon 0, so exact ties resolve to the lowest action as act does."""
    values = agent.model.forward(x)
    actions = values.argmax(axis=1)
    if values.shape[1] > 1:
        top = np.partition(values, -2, axis=1)
        unsure = ~(top[:, -1] - top[:, -2] >= _CERTAIN_GAP)  # NaN gaps included
        for i in np.flatnonzero(unsure).tolist():
            actions[i] = agent.act(x[i], 0.0)
    return actions


def _row(episode: int, phase: str, reward: float, met: int, energy: float,
         response: float, n: int) -> MetricsRow:
    """An episode's metric row from its sums over n decisions."""
    return MetricsRow(episode, phase, reward, met / n, energy, response)


def _check_counts(n_episodes: int, tasks_per_episode: int) -> None:
    """Reject a negative episode or task count; a count of 0 books nothing."""
    for name, count in (("n_episodes", n_episodes), ("tasks_per_episode", tasks_per_episode)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")


def _fold(values: np.ndarray) -> float:
    """Left-to-right float sum from +0.0, the order a live rollout books
    its outcomes in: an all -0.0 column sums to +0.0, and no pairwise or
    compensated summation changes the last bit."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _replay(
    decider: Union[Policy, E2daAgent],
    reward_params: RewardParams,
    dataset: Dataset,
    workload: WorkloadConfig,
    ep_rng: np.random.Generator,
    n_episodes: int,
    tasks_per_episode: int,
    start_episode: int,
    phase: str,
) -> List[MetricsRow]:
    """Each episode samples records uniformly with replacement, so one task
    can recur within an episode; every decision settles at once against
    the recorded outcome of the chosen action.  Contexts and rewards are
    computed once per call as arrays.

    A frozen policy is asked once per episode, with the sampled rows'
    users and contexts and their gathered outcome rows.  A learning agent
    acts and then observes once per decision, in decision order, so its
    random draws keep their order.  The episode is then booked whole from
    the chosen (record, action) cells of the reward, verdict, energy and
    response matrices."""
    _check_counts(n_episodes, tasks_per_episode)
    if tasks_per_episode == 0:
        return []  # nothing is decided, so no episode is booked
    outcomes = dataset.outcome_columns()
    contexts = normalize_context(np.column_stack(_features_of(dataset)), workload.context_scale())
    rewards = compute_reward(*outcomes, dataset.met_deadline, reward_params)
    users, met = dataset.user_id, dataset.met_deadline
    energy, response = dataset.e_total_j, dataset.total_s
    rows = []
    for e in range(n_episodes):
        episode = start_episode + e
        records = ep_rng.integers(0, len(dataset), size=tasks_per_episode)
        if isinstance(decider, E2daAgent):
            epsilon = decider.epsilon(episode)
            actions = []
            for i in records.tolist():
                x = contexts[i]
                a = decider.act(x, epsilon)
                decider.observe(x, a, rewards.item(i, a))
                actions.append(a)
        else:
            gathered = lambda: tuple(c[records] for c in outcomes)  # noqa: E731
            actions = decider(users[records], contexts[records], gathered)
        cells = (records, np.asarray(actions))
        rows.append(_row(
            episode, phase, _fold(rewards[cells]), int(np.count_nonzero(met[cells])),
            _fold(energy[cells]), _fold(response[cells]), tasks_per_episode,
        ))
    return rows


def run_training(
    agent: E2daAgent,
    dataset: Dataset,
    workload: WorkloadConfig,
    n_episodes: int,
    tasks_per_episode: int,
    seed: int,
    stream_salt: Tuple = (),
) -> List[MetricsRow]:
    """Replay-train the agent: it acts epsilon-greedily on sampled records
    and learns from the recorded outcome of the chosen action.  Episode
    numbering continues from the agent's count.  stream_salt separates the
    episode streams of sibling agents trained from one master seed."""
    ep_rng = substream(seed, "episodes", "train", *stream_salt)
    rows = _replay(
        agent, agent.reward_params, dataset, workload, ep_rng, n_episodes, tasks_per_episode,
        agent.episodes_trained, "train",
    )
    agent.episodes_trained += n_episodes
    return rows


def run_evaluation(
    choose: Policy,
    dataset: Dataset,
    workload: WorkloadConfig,
    reward_params: RewardParams,
    n_episodes: int,
    tasks_per_episode: int,
    seed: int,
    phase: str = "test",
) -> List[MetricsRow]:
    """Frozen-policy rollout over dataset episodes drawn from the phase's
    episode stream and numbered from 0; no learning happens."""
    ep_rng = substream(seed, "episodes", phase)
    return _replay(
        choose, reward_params, dataset, workload, ep_rng, n_episodes, tasks_per_episode, 0, phase,
    )


def split_by_user(dataset: Dataset, n_users: int) -> List[Dataset]:
    """Per-user views of a dataset, indexed by user id."""
    users = dataset.user_id
    foreign = np.flatnonzero((users < 0) | (users >= n_users))
    if foreign.size:
        i = foreign[0]
        raise ConfigError(
            f"record {dataset.record_id[i]} belongs to user {users[i]}, outside the "
            f"configured 0..{n_users - 1}"
        )
    owned = np.bincount(users, minlength=n_users)
    empty = np.flatnonzero(owned == 0).tolist()
    if empty:
        raise ConfigError(
            f"users {empty} own no dataset records; per-user training needs "
            f"records for every user"
        )
    return [dataset.subset(users == u) for u in range(n_users)]


def average_rows(rows_by_agent: Sequence[Sequence[MetricsRow]]) -> List[MetricsRow]:
    """Across-agent mean of aligned episode rows."""
    combined: List[MetricsRow] = []
    for group in zip(*rows_by_agent):
        first = group[0]
        if any(r.episode != first.episode or r.phase != first.phase for r in group):
            raise ValueError("metric series are not aligned on (episode, phase)")
        n = len(group)
        numbers = list(zip(*group))[2:]  # every field after (episode, phase)
        combined.append(MetricsRow(first.episode, first.phase, *(sum(c) / n for c in numbers)))
    return combined


def run_training_per_user(
    agents: Sequence[E2daAgent],
    dataset: Dataset,
    workload: WorkloadConfig,
    n_episodes: int,
    tasks_per_episode: int,
    seed: int,
) -> Tuple[List[MetricsRow], List[List[MetricsRow]]]:
    """Replay-train one agent per user, each on that user's records only
    (the shared-agent alternative trains a single model on everything).

    agents[u] handles user u.  Returns (combined, per_user): per_user[u]
    is agent u's episode series, combined averages them episode-wise so
    the result reads like a single-agent series."""
    parts = split_by_user(dataset, len(agents))
    per_user = [
        run_training(agent, part, workload, n_episodes, tasks_per_episode, seed, ("user", u))
        for u, (agent, part) in enumerate(zip(agents, parts))
    ]
    return average_rows(per_user), per_user


def _projected(sim: Simulator, task: Task) -> tuple:
    """A live task's what-if (size, T, E), one T and E per action."""
    outs = sim.projections(task)
    return task.size_bits, np.array([o.total_s for o in outs]), np.array([o.e_total_j for o in outs])


def _live_rollout(
    decider: Union[Policy, E2daAgent],
    reward_params: RewardParams,
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    seed: int,
    n_episodes: int,
    tasks_per_episode: int,
    start_episode: int = 0,
    phase: str = "test",
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ahead: bool = False,
) -> List[MetricsRow]:
    """Drive the live simulator over the first n_episodes *
    tasks_per_episode tasks of the workload's arrivals, which no decision
    changes.

    The feed is read one block of tasks_per_episode arrivals at a time.
    Before a block's first task arrives, the block's contexts are scaled in
    one call, its episode's book opens, and each task's context and episode
    are recorded.  Only the workload streams are read early, and nothing
    else draws from them, so no draw changes.  A run of no decisions reads
    no block and books no episode, as a replay does.

    ahead says that the frozen policy reads nothing but the task: it is
    then asked once per block, with the block's users and contexts as
    arrays, as in a replay.  Otherwise the arrival hook decides: a
    learning agent acts on the task's context, and a frozen policy (an
    oracle) is asked with the task's user and context, its outcomes()
    projecting the task's what-if (size, T, E) from the current snapshot.
    Each decision is booked in completion order against its episode
    (feedback is delayed, as in the real system), where a learning agent
    also observes the reward.  on_outcome, when given, sees each outcome
    after it is booked; no outcome is kept.
    """
    # imported here, not at the top: train and evaluate load this module
    # to replay a dataset, and a replay never runs the simulator
    from .netsim import Simulator

    _check_counts(n_episodes, tasks_per_episode)
    scale = workload.context_scale()
    learner = decider if isinstance(decider, E2daAgent) else None
    # task -> [x, action, episode]; the hook decides a task not decided
    # ahead from its x, which a learner also observes, so a block decided
    # ahead keeps no x
    pending: Dict[int, list] = {}
    books: Dict[int, list] = {}  # episode -> [reward, met, energy, response, n]

    def by_episode(feed: Iterator[Task]) -> Iterator[Task]:
        blocks = iter(lambda: list(itertools.islice(feed, tasks_per_episode)), [])
        for episode, block in enumerate(blocks, start_episode):
            x = normalize_context(np.array([_features_of(t) for t in block]), scale)
            rows, actions = x, itertools.repeat(None)
            if ahead:
                rows = itertools.repeat(None)
                actions = decider(np.array([t.user_id for t in block]), x, None).tolist()
            pending.update((t.task_id, [r, a, episode]) for t, r, a in zip(block, rows, actions))
            books[episode] = [0.0, 0, 0.0, 0.0, 0]
            yield from block

    def hook(sim: Simulator, task: Task) -> int:
        decision = pending[task.task_id]
        if decision[1] is None:
            x, _, episode = decision
            if learner is not None:
                decision[1] = learner.act(x, learner.epsilon(episode))
            else:
                decision[1] = int(decider(task.user_id, x, lambda: _projected(sim, task)))
        return decision[1]

    sim = Simulator(node, channels, Uniforms(substream(seed, "gains")), policy=hook)
    feed = itertools.islice(arrivals(workload, seed, node.n_users), n_episodes * tasks_per_episode)
    sim.add_arrivals(by_episode(feed))
    while sim.has_events:
        out = sim.advance()
        if out is not None:
            met = out.met_deadline
            r = float(compute_reward(out.size_bits, out.total_s, out.e_total_j, met, reward_params))
            x, action, episode = pending.pop(out.task_id)
            if learner is not None:
                learner.observe(x, action, r)
            book = books[episode]
            book[0] += r
            book[1] += met
            book[2] += out.e_total_j
            book[3] += out.total_s
            book[4] += 1
            if on_outcome is not None:
                on_outcome(out)
    return [_row(episode, phase, *book) for episode, book in books.items()]


def run_live_training(
    agent: E2daAgent,
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    n_episodes: int,
    tasks_per_episode: int,
    seed: int,
) -> List[MetricsRow]:
    """Live-mode training: the agent schedules real arrivals and observes
    each reward at the task's completion event."""
    rows = _live_rollout(
        agent, agent.reward_params, node, channels, workload, seed, n_episodes,
        tasks_per_episode, agent.episodes_trained, "train",
    )
    agent.episodes_trained += n_episodes
    return rows


def run_live_evaluation(
    name: str,
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    reward_params: RewardParams,
    n_episodes: int,
    tasks_per_episode: int,
    seed: int,
    agents: Sequence[E2daAgent] = (),
    phase: str = "test",
) -> List[MetricsRow]:
    """Live-mode frozen-policy rollout; an oracle ranks each task's
    projections from the system snapshot at its decision.  The learned
    policy and random read only the task, so their tasks are decided ahead
    of arrival, an episode at a time (see _live_rollout); random's one
    vector draw per episode equals a scalar draw per decision."""
    choose = make_policy(name, agents, substream(seed, "logging-policy"), node.n_channels + 1)
    return _live_rollout(
        choose, reward_params, node, channels, workload, seed, n_episodes, tasks_per_episode,
        phase=phase, ahead=name not in ORACLES,
    )


def calibrate_efficiency_scale_live(
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    seed: int,
    percentile: float = 99.0,
) -> float:
    """Live-mode analogue of the dataset calibration: a 2,000-task
    random-policy run whose realized efficiencies set the normalizer,
    decided ahead in 100-task blocks.  Its rewards are booked against a
    unit scale and discarded."""
    rng = substream(seed, "calibration-actions")
    choose = make_policy("random", rng=rng, n_actions=node.n_channels + 1)
    effs: List[float] = []

    def keep_efficiency(out: TaskOutcome) -> None:
        effs.append(efficiency(out.size_bits, out.total_s, out.e_total_j))

    _live_rollout(
        choose, RewardParams(), node, channels, workload, seed, 20, 100,
        on_outcome=keep_efficiency, ahead=True,
    )
    return linear_percentile(effs, percentile)
