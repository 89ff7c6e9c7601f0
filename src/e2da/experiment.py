"""Dataset generation, training and evaluation protocols, run metrics.

Dataset generation drives the live simulator under a logging policy and
records, at every arrival, the complete per-action what-if outcome set.
Replay rollouts then sample recorded tasks uniformly, so every action's
consequence is known without re-simulating; live rollouts instead submit
real tasks and settle each decision when its completion event fires.  Both
book decisions through one episode ledger, learning or frozen alike.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bandit import E2daAgent, RewardParams, compute_reward, efficiency
from .baselines import ORACLES
from .errors import ConfigError
from .ioutil import atomic_write_text, fmt
from .netsim import ChannelConfig, NodeConfig, Simulator, TaskOutcome
from .rng import substream
from .workload import Task, WorkloadConfig, normalize_context, task_stream

_ACTION_FIELDS = (
    ("d1_s", "d1_s"),
    ("d2_s", "d2_s"),
    ("d3_s", "d3_s"),
    ("d4_s", "d4_s"),
    ("t_exec_s", "t_exec_s"),
    ("t_up_s", "t_up_s"),
    ("t_down_s", "t_down_s"),
    ("T_s", "total_s"),
    ("e_cpu_J", "e_cpu_j"),
    ("e_tx_J", "e_tx_j"),
    ("e_rx_J", "e_rx_j"),
    ("e_total_J", "e_total_j"),
    ("met", "met_deadline"),
)
_TASK_COLUMNS = (
    "record_id",
    "task_id",
    "user_id",
    "arrival_s",
    "size_bits",
    "intensity_cpb",
    "deadline_s",
)
_ACTION_INDEX = {col: i for i, (col, _) in enumerate(_ACTION_FIELDS)}
# the total columns, which the reward divides by and so must be finite and
# positive, each with the run of action columns it must sum to (relative 1e-9)
_TOTALS = tuple(
    (_ACTION_INDEX[total], slice(_ACTION_INDEX[first], _ACTION_INDEX[last] + 1))
    for total, first, last in (("T_s", "d1_s", "t_down_s"), ("e_total_J", "e_cpu_J", "e_rx_J"))
)

# A policy: choose(task, x, projections) -> action, where x is the scaled
# context and projections() returns the task's action-indexed outcomes on
# demand.
Projections = Callable[[], Sequence[TaskOutcome]]
Policy = Callable[[Task, np.ndarray, Projections], int]


@dataclass(frozen=True)
class DatasetRecord:
    """One logged decision point: the task plus every action's projection."""

    record_id: int
    task: Task
    outcomes: Tuple[TaskOutcome, ...]


class Dataset:
    """Ordered collection of records with CSV round-tripping."""

    def __init__(self, records: Sequence[DatasetRecord]):
        self.records = list(records)
        if self.records:
            n = len(self.records[0].outcomes)
            for rec in self.records:
                if len(rec.outcomes) != n:
                    raise ValueError("records disagree on the number of actions")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_actions(self) -> int:
        if not self.records:
            raise ValueError("empty dataset has no action count")
        return len(self.records[0].outcomes)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_header(self.n_actions if self.records else 0))
        for rec in self.records:
            t = rec.task
            row = [
                fmt(rec.record_id),
                fmt(t.task_id),
                fmt(t.user_id),
                fmt(t.arrival_time),
                fmt(t.size_bits),
                fmt(t.intensity_cpb),
                fmt(t.deadline_s),
            ]
            for out in rec.outcomes:
                row.extend(fmt(getattr(out, attr)) for _, attr in _ACTION_FIELDS)
            writer.writerow(row)
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self.to_csv_text())

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        """Read records written by write_csv.  A malformed header raises
        ConfigError naming the path and the first wrong column, a malformed
        row naming the path and the row (rows count from 1 after the
        header)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            n_act = (len(header) - len(_TASK_COLUMNS)) // len(_ACTION_FIELDS)
            if len(_TASK_COLUMNS) + n_act * len(_ACTION_FIELDS) != len(header) or n_act < 2:
                raise ConfigError(f"{path}: unrecognized dataset header with {len(header)} columns")
            for i, (got, want) in enumerate(zip(header, _header(n_act)), 1):
                if got != want:
                    raise ConfigError(f"{path}: header column {i} is {got!r}, expected {want!r}")
            records = []
            for n, row in enumerate(reader, 1):
                try:
                    records.append(_parse_record(row, n_act, len(header)))
                except ValueError as exc:
                    raise ConfigError(f"{path} row {n}: {exc}") from None
        return cls(records)


def _header(n_act: int) -> List[str]:
    header = list(_TASK_COLUMNS)
    for a in range(n_act):
        header.extend(f"a{a}_{col}" for col, _ in _ACTION_FIELDS)
    return header


def _positive(value: float, name: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def _parse_record(row: Sequence[str], n_act: int, width: int) -> DatasetRecord:
    if len(row) != width:
        raise ValueError(f"has {len(row)} columns, the header has {width}")
    task = Task(
        task_id=int(row[1]),
        user_id=int(row[2]),
        arrival_time=float(row[3]),
        size_bits=_positive(float(row[4]), "size_bits"),
        intensity_cpb=_positive(float(row[5]), "intensity_cpb"),
        deadline_s=_positive(float(row[6]), "deadline_s"),
    )
    per_action = len(_ACTION_FIELDS)
    outcomes = []
    for a in range(n_act):
        off = len(_TASK_COLUMNS) + a * per_action
        vals = list(map(float, row[off : off + per_action - 1]))
        for i, parts in _TOTALS:
            name = f"a{a}_{_ACTION_FIELDS[i][0]}"
            _positive(vals[i], name)
            parts_sum = math.fsum(vals[parts])
            if not math.isclose(vals[i], parts_sum, rel_tol=1e-9):
                raise ValueError(f"{name} is {vals[i]!r} but its parts sum to {parts_sum!r}")
        met = row[off + per_action - 1]
        if met not in ("0", "1"):
            raise ValueError(f"a{a}_met must be 0 or 1, got {met!r}")
        total = vals[_ACTION_INDEX["T_s"]]
        if (met == "1") != (total <= task.deadline_s):
            raise ValueError(
                f"a{a}_met is {met}, disagreeing with a{a}_T_s {total!r} "
                f"and deadline_s {task.deadline_s!r}"
            )
        outcomes.append(
            TaskOutcome(
                task.task_id,
                task.user_id,
                a,
                task.arrival_time,
                task.size_bits,
                task.intensity_cpb,
                task.deadline_s,
                *vals,
                met_deadline=met == "1",
            )
        )
    return DatasetRecord(int(row[0]), task, tuple(outcomes))


def generate_dataset(
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    n_records: int,
    seed: int,
) -> Dataset:
    """Run the live system under uniform-random actions, logging every
    arrival's projection set until exactly n_records are collected."""
    if n_records < 1:
        raise ConfigError(f"n_records must be >= 1, got {n_records}")
    workload.validate()
    records: List[DatasetRecord] = []
    log_rng = substream(seed, "logging-policy")
    n_actions = node.n_channels + 1

    def logging_policy(sim: Simulator, task: Task) -> int:
        outs = sim.projections(task)
        records.append(DatasetRecord(len(records), task, outs))
        if len(records) >= n_records:
            sim.halt_arrivals()
        return int(log_rng.integers(n_actions))

    sim = Simulator(node, channels, substream(seed, "gains"), policy=logging_policy)
    for user in range(node.n_users):
        sim.add_stream(user, task_stream(workload, seed, user, node.n_users))
    while sim.has_events and len(records) < n_records:
        sim.advance()
    if len(records) < n_records:
        raise RuntimeError(
            f"arrival streams dried up after {len(records)} of {n_records} records"
        )
    return Dataset(records)


def calibrate_efficiency_scale(dataset: Dataset, percentile: float = 99.0) -> float:
    """Efficiency normalizer: the given percentile of raw bits/(s*J) over
    every recorded (task, action) pair."""
    effs = [
        efficiency(out.size_bits, out.total_s, out.e_total_j)
        for rec in dataset.records
        for out in rec.outcomes
    ]
    return float(np.percentile(np.asarray(effs), percentile))


# ------------------------------------------------------------------- metrics


@dataclass(frozen=True)
class MetricsRow:
    episode: int
    phase: str  # "train" or "test"
    reward: float
    deadline_frac: float
    energy_j: float
    response_s: float


METRICS_COLUMNS = ("episode", "phase", "reward", "deadline_frac", "energy_J", "response_s")


def metrics_to_csv_text(rows: Sequence[MetricsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for r in rows:
        writer.writerow(
            [fmt(r.episode), r.phase, fmt(r.reward), fmt(r.deadline_frac), fmt(r.energy_j), fmt(r.response_s)]
        )
    return buf.getvalue()


def write_metrics(path: str, rows: Sequence[MetricsRow]) -> None:
    atomic_write_text(path, metrics_to_csv_text(rows))


def read_metrics(path: str) -> List[MetricsRow]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out.append(
                MetricsRow(int(row[0]), row[1], float(row[2]), float(row[3]), float(row[4]), float(row[5]))
            )
    return out


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing mean over min(window, i + 1) points; output length matches."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty_like(arr)
    csum = np.cumsum(arr)
    for i in range(len(arr)):
        lo = max(0, i - window + 1)
        span = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = span / (i - lo + 1)
    return out


def summarize(
    series_by_name: Mapping[str, Sequence[MetricsRow]],
    tasks_per_episode: int,
    phase: str = "test",
) -> dict:
    """Per-name means over one phase."""
    per: Dict[str, dict] = {}
    for name, series in series_by_name.items():
        rows = [r for r in series if r.phase == phase]
        if not rows:
            raise ValueError(f"series {name!r} has no {phase!r} rows")
        n_tasks = len(rows) * tasks_per_episode
        per[name] = {
            "episodes": len(rows),
            "mean_episode_reward": float(np.mean([r.reward for r in rows])),
            "mean_deadline_fraction": float(np.mean([r.deadline_frac for r in rows])),
            "mean_task_energy_j": float(sum(r.energy_j for r in rows) / n_tasks),
            "mean_task_response_s": float(sum(r.response_s for r in rows) / n_tasks),
        }
    return {"phase": phase, "tasks_per_episode": tasks_per_episode, "agents": per}


# ----------------------------------------------------------------- rollouts


def make_policy(
    name: str,
    agents: Sequence[E2daAgent] = (),
    rng: Optional[np.random.Generator] = None,
    n_actions: int = 0,
) -> Policy:
    """Frozen decision function for one agent name.

    The learned agent sees only the scaled context and acts greedily; with
    one agent per user, the task's user picks the agent.  Oracles rank the
    projections, which only they request.  Random draws from rng.
    """
    if name == "e2da":
        if not agents:
            raise ValueError("e2da policy needs at least one agent")
        if len(agents) == 1:
            agent = agents[0]
            return lambda task, x, projections: agent.act(x, 0.0)
        return lambda task, x, projections: agents[task.user_id].act(x, 0.0)
    if name in ORACLES:
        rule = ORACLES[name]
        return lambda task, x, projections: rule(projections())
    if name == "random":
        if rng is None or n_actions < 1:
            raise ValueError("random policy needs rng and n_actions")
        return lambda task, x, projections: int(rng.integers(n_actions))
    raise ValueError(f"unknown policy {name!r}")


class _Ledger:
    """Books one rollout into per-episode metric rows.

    decide() records (task, x, action, episode); settle() takes the task's
    outcome, scores it, lets a learning agent observe the reward, and adds
    the outcome to the row of the episode the task was decided in.  A
    learning agent picks its own actions at its episode's epsilon; without
    one, `choose` decides.
    """

    def __init__(
        self,
        reward_params: RewardParams,
        choose: Optional[Policy] = None,
        learner: Optional[E2daAgent] = None,
    ):
        self.reward_params = reward_params
        self.choose = choose
        self.learner = learner
        self._pending: Dict[int, Tuple[np.ndarray, int, int]] = {}
        self._books: Dict[int, list] = {}  # episode -> [reward, met, energy, response, n]

    def decide(self, task: Task, x: np.ndarray, projections: Projections, episode: int) -> int:
        if self.learner is None:
            action = self.choose(task, x, projections)
        else:
            action = self.learner.act(x, self.learner.epsilon(episode))
        self._pending[task.task_id] = (x, action, episode)
        if episode not in self._books:
            self._books[episode] = [0.0, 0, 0.0, 0.0, 0]
        return action

    def settle(self, out: TaskOutcome) -> None:
        x, action, episode = self._pending.pop(out.task_id)
        r = compute_reward(out, self.reward_params)
        if self.learner is not None:
            self.learner.observe(x, action, r)
        book = self._books[episode]
        book[0] += r
        book[1] += out.met_deadline
        book[2] += out.e_total_j
        book[3] += out.total_s
        book[4] += 1

    def rows(self, phase: str) -> List[MetricsRow]:
        return [
            MetricsRow(ep, phase, b[0], b[1] / b[4], b[2], b[3]) for ep, b in self._books.items()
        ]


def _replay(
    ledger: _Ledger,
    dataset: Dataset,
    workload: WorkloadConfig,
    ep_rng: np.random.Generator,
    n_episodes: int,
    tasks_per_episode: int,
    start_episode: int,
) -> None:
    """Each episode samples records uniformly with replacement, so one task
    can recur within an episode; every decision settles at once against
    the recorded outcome of the chosen action."""
    for e in range(n_episodes):
        for i in ep_rng.integers(0, len(dataset), size=tasks_per_episode):
            rec = dataset.records[i]
            x = normalize_context(rec.task, workload)
            a = ledger.decide(rec.task, x, lambda: rec.outcomes, start_episode + e)
            ledger.settle(rec.outcomes[a])


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
    ledger = _Ledger(agent.reward_params, learner=agent)
    ep_rng = substream(seed, "episodes", "train", *stream_salt)
    start = agent.episodes_trained
    _replay(ledger, dataset, workload, ep_rng, n_episodes, tasks_per_episode, start)
    agent.episodes_trained += n_episodes
    return ledger.rows("train")


def run_evaluation(
    choose: Policy,
    dataset: Dataset,
    workload: WorkloadConfig,
    reward_params: RewardParams,
    n_episodes: int,
    tasks_per_episode: int,
    seed: int,
    phase: str = "test",
    stream: str = "test",
    start_episode: int = 0,
) -> List[MetricsRow]:
    """Frozen-policy rollout over dataset episodes; no learning happens."""
    ledger = _Ledger(reward_params, choose)
    ep_rng = substream(seed, "episodes", stream)
    _replay(ledger, dataset, workload, ep_rng, n_episodes, tasks_per_episode, start_episode)
    return ledger.rows(phase)


def split_by_user(dataset: Dataset, n_users: int) -> List[Dataset]:
    """Per-user views of a dataset, indexed by user id."""
    buckets: List[List[DatasetRecord]] = [[] for _ in range(n_users)]
    for rec in dataset.records:
        uid = rec.task.user_id
        if not 0 <= uid < n_users:
            raise ConfigError(
                f"record {rec.record_id} belongs to user {uid}, outside the "
                f"configured 0..{n_users - 1}"
            )
        buckets[uid].append(rec)
    empty = [u for u, b in enumerate(buckets) if not b]
    if empty:
        raise ConfigError(
            f"users {empty} own no dataset records; per-user training needs "
            f"records for every user"
        )
    return [Dataset(b) for b in buckets]


def average_rows(rows_by_agent: Sequence[Sequence[MetricsRow]]) -> List[MetricsRow]:
    """Across-agent mean of aligned episode rows."""
    combined: List[MetricsRow] = []
    for group in zip(*rows_by_agent):
        first = group[0]
        if any(r.episode != first.episode or r.phase != first.phase for r in group):
            raise ValueError("metric series are not aligned on (episode, phase)")
        n = len(group)
        combined.append(
            MetricsRow(
                first.episode,
                first.phase,
                sum(r.reward for r in group) / n,
                sum(r.deadline_frac for r in group) / n,
                sum(r.energy_j for r in group) / n,
                sum(r.response_s for r in group) / n,
            )
        )
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


def _live_rollout(
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    seed: int,
    n_episodes: int,
    tasks_per_episode: int,
    ledger: _Ledger,
    start_episode: int = 0,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> None:
    """Drive the live simulator for n_episodes * tasks_per_episode decisions.

    Tasks are decided at arrival and settled in completion order against
    the episode they were submitted in (feedback is delayed, as in the real
    system).  on_outcome, when given, sees each outcome after it settles;
    no outcome is kept.
    """
    total = n_episodes * tasks_per_episode
    decided = 0

    def hook(sim: Simulator, task: Task) -> int:
        nonlocal decided
        episode = start_episode + decided // tasks_per_episode
        decided += 1
        if decided >= total:
            sim.halt_arrivals()
        x = normalize_context(task, workload)
        return ledger.decide(task, x, lambda: sim.projections(task), episode)

    sim = Simulator(node, channels, substream(seed, "gains"), policy=hook)
    for user in range(node.n_users):
        sim.add_stream(user, task_stream(workload, seed, user, node.n_users))
    while sim.has_events:
        out = sim.advance()
        if out is not None:
            ledger.settle(out)
            if on_outcome is not None:
                on_outcome(out)
    if decided < total:
        raise RuntimeError(f"live run decided only {decided} of {total} tasks")


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
    ledger = _Ledger(agent.reward_params, learner=agent)
    start = agent.episodes_trained
    _live_rollout(node, channels, workload, seed, n_episodes, tasks_per_episode, ledger, start)
    agent.episodes_trained += n_episodes
    return ledger.rows("train")


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
    """Live-mode frozen-policy rollout; oracle policies project at decision
    time from the current system snapshot."""
    rng = substream(seed, "logging-policy")
    ledger = _Ledger(reward_params, make_policy(name, agents, rng, node.n_channels + 1))
    _live_rollout(node, channels, workload, seed, n_episodes, tasks_per_episode, ledger)
    return ledger.rows(phase)


def calibrate_efficiency_scale_live(
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    seed: int,
    n_tasks: int = 2000,
    percentile: float = 99.0,
) -> float:
    """Live-mode analogue of the dataset calibration: a short random-policy
    run whose realized efficiencies set the normalizer.  Its rewards are
    booked against a unit scale and discarded."""
    rng = substream(seed, "calibration-actions")
    ledger = _Ledger(RewardParams(), make_policy("random", rng=rng, n_actions=node.n_channels + 1))
    effs: List[float] = []

    def keep_efficiency(out: TaskOutcome) -> None:
        effs.append(efficiency(out.size_bits, out.total_s, out.e_total_j))

    _live_rollout(node, channels, workload, seed, 1, n_tasks, ledger, on_outcome=keep_efficiency)
    return float(np.percentile(np.asarray(effs), percentile))
