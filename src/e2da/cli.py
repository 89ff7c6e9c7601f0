"""Command line front end.

Subcommands:
  generate-dataset  run the live system under uniform random actions and log
                    every arrival's per-action projections to dataset.csv,
                    plus the same columns in dataset.csv.npy for fast reads
  train             fit the neural bandit (or log a random baseline) and write
                    metrics.csv plus a model.json checkpoint
  evaluate          run a frozen policy and write test metrics plus summary.json
  sweep             evaluate one policy across scenario variants of a workload
                    knob, writing per-scenario metrics and sweep_summary.json

Every command writes a manifest.json with the fully resolved configuration,
the effective seed, the numpy version, and a sha256 per output file, so runs
can be reproduced and compared byte for byte.  Exit codes: 0 ok, 2
configuration error, 3 I/O error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .bandit import E2daAgent, RewardParams, read_checkpoint, write_checkpoint
from .config import (
    MODES,
    SWEEP_AXES,
    ExperimentConfig,
    load_config,
    to_json,
    with_sweep_value,
)
from .dataset import column_path, load_dataset, save_dataset
from .errors import ConfigError
from .experiment import (
    Dataset,
    MetricsRow,
    calibrate_efficiency_scale,
    calibrate_efficiency_scale_live,
    generate_dataset,
    make_policy,
    run_evaluation,
    run_live_evaluation,
    run_live_training,
    run_training,
    run_training_per_user,
    summarize,
    write_metrics,
)
from .ioutil import sha256_file, write_json
from .rng import substream
from .workload import WorkloadConfig

TRAIN_AGENTS = ("e2da", "random")
EVAL_AGENTS = ("e2da", "eel", "ee", "r", "random")


# ------------------------------------------------------------------- helpers


def _context(args: argparse.Namespace) -> Tuple[ExperimentConfig, str, int]:
    """Config, effective mode and effective seed.  A flag the run would
    never read is rejected: --dataset outside dataset mode, and --model or
    --resume with an agent other than e2da."""
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.run.seed
    if seed < 0:  # load_config already rejects a negative run.seed
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    mode = getattr(args, "mode", None) or cfg.run.mode
    if getattr(args, "dataset", None) is not None and mode != "dataset":
        raise ConfigError(f"--dataset only applies in dataset mode, and this run is {mode}")
    for flag in ("model", "resume"):
        if getattr(args, flag, None) is not None and args.agent != "e2da":
            raise ConfigError(f"--{flag} only applies to the learned agent")
    return cfg, mode, seed


def _output(out_dir: str, name: str) -> str:
    """Path of the output file `name` under out_dir, creating the directory
    that holds it.  Commands call it only to write, so a run rejected
    before its first write leaves no directory behind."""
    path = os.path.join(out_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _write_manifest(
    out_dir: str, command: str, cfg: ExperimentConfig, seed: int, outputs: List[str], extra: dict
) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        # the pinned output digests hold for one numpy; a mismatch names its own
        "numpy_version": np.__version__,
        "seed": seed,
        "config": to_json(cfg),
        "outputs": {name: sha256_file(os.path.join(out_dir, name)) for name in outputs},
        **extra,
    }
    write_json(_output(out_dir, "manifest.json"), manifest)


def _load_dataset(path: Optional[str], cfg: ExperimentConfig, extra: dict) -> Dataset:
    """The dataset of a dataset-mode run, checked against the config;
    extra records the dataset file's hash."""
    if not path:
        raise ConfigError("dataset mode requires --dataset PATH")
    dataset, extra["dataset_sha256"] = load_dataset(path)
    if not len(dataset):
        raise ConfigError(f"{path} holds no records")
    n_actions, n_users = cfg.system.n_channels + 1, cfg.system.n_users
    if dataset.n_actions != n_actions:
        raise ConfigError(
            f"{path} has {dataset.n_actions} actions but the config implies {n_actions}"
        )
    foreign = np.flatnonzero((dataset.user_id < 0) | (dataset.user_id >= n_users))
    if foreign.size:
        row = foreign[0]
        raise ConfigError(
            f"{path} row {row + 1}: user_id {dataset.user_id[row]} is outside "
            f"0..{n_users - 1} (system.n_users is {n_users})"
        )
    return dataset


def _reward_params(
    cfg: ExperimentConfig, seed: int, dataset: Optional[Dataset], extra: dict
) -> RewardParams:
    """Reward constants of a run without a checkpoint.  The efficiency
    normalizer is configured or calibrated; extra records which."""
    scale, origin = cfg.reward.efficiency_scale_bits_per_j_s, "configured"
    percentile = cfg.reward.calibration_percentile
    if scale is None and dataset is not None:
        scale, origin = calibrate_efficiency_scale(dataset, percentile), "dataset_percentile"
    elif scale is None:
        scale = calibrate_efficiency_scale_live(
            cfg.system, cfg.channels, cfg.workload, seed, percentile=percentile
        )
        origin = "live_percentile"
    extra.update({"efficiency_scale": scale, "scale_origin": origin})
    return RewardParams(cfg.agent.penalty, scale)


def _policy_inputs(
    name: str,
    cfg: ExperimentConfig,
    mode: str,
    seed: int,
    dataset: Optional[Dataset],
    checkpoint: Optional[str],
    checkpoint_key: str,
    extra: dict,
) -> Tuple[List[E2daAgent], RewardParams, WorkloadConfig]:
    """Agents, reward constants and workload of the policy `name`.  The
    learned policy has one shared agent (stream salt ()) or one agent per
    user (salt ("user", u)), fresh or read from `checkpoint`; other
    policies have none.  extra records the reward normalizer and, under
    checkpoint_key, the checkpoint's hash."""
    if name != "e2da":
        return [], _reward_params(cfg, seed, dataset, extra), cfg.workload
    per_user = cfg.run.agent_scope == "per_user"
    if per_user and mode != "dataset":
        raise ConfigError("run.agent_scope 'per_user' requires dataset mode")
    salts = [("user", u) for u in range(cfg.system.n_users)] if per_user else [()]
    n_actions = cfg.system.n_channels + 1
    if checkpoint is None:
        params = _reward_params(cfg, seed, dataset, extra)
        agents = [E2daAgent.create(cfg.agent, n_actions, params, seed, salt) for salt in salts]
        return agents, params, cfg.workload
    agents, bounds = read_checkpoint(checkpoint, n_actions, per_user, salts, seed)
    try:  # the message starts with a key path in context_bounds
        workload = replace(cfg.workload, context_bounds=bounds)
    except ConfigError as exc:
        raise ConfigError(f"{checkpoint}: {exc}") from None
    # inputs go into the manifest by content hash, not path, so two runs of
    # the same experiment stay byte-identical
    extra.update(
        {
            checkpoint_key: sha256_file(checkpoint),
            "efficiency_scale": agents[0].reward_params.efficiency_scale,
            "scale_origin": "checkpoint",
        }
    )
    return agents, agents[0].reward_params, workload


def _evaluate(
    name: str,
    cfg: ExperimentConfig,
    seed: int,
    dataset: Optional[Dataset],
    workload: WorkloadConfig,
    params: RewardParams,
    agents: List[E2daAgent],
    phase: str = "test",
    salt: tuple = (),
) -> List[MetricsRow]:
    """Frozen-policy rollout over the run's test episodes, or over its
    train episodes for the random baseline log: a replay of dataset, or a
    live run when there is none.  A replay's random draws from the
    logging-policy substream, salted with salt; a live run's draws from
    the rollout's own stream."""
    run = cfg.run
    n_episodes = run.n_test_episodes if phase == "test" else run.n_train_episodes
    if dataset is not None:
        rng = substream(seed, "logging-policy", *salt)
        choose = make_policy(name, agents, rng, cfg.system.n_channels + 1)
        return run_evaluation(
            choose, dataset, workload, params, n_episodes, run.tasks_per_episode, seed, phase=phase,
        )
    return run_live_evaluation(
        name, cfg.system, cfg.channels, workload, params, n_episodes, run.tasks_per_episode,
        seed, agents=agents, phase=phase,
    )


# ------------------------------------------------------------------ commands


def cmd_generate_dataset(args: argparse.Namespace) -> int:
    cfg, _, seed = _context(args)
    dataset = generate_dataset(cfg.system, cfg.channels, cfg.workload, cfg.run.n_records, seed)
    path = _output(args.out, "dataset.csv")
    save_dataset(dataset, path)
    outputs = ["dataset.csv", os.path.basename(column_path(path))]
    extra = {"n_records": len(dataset)}
    _write_manifest(args.out, "generate-dataset", cfg, seed, outputs, extra)
    print(f"wrote {len(dataset)} records to {os.path.join(args.out, 'dataset.csv')}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg, mode, seed = _context(args)
    run = cfg.run
    outputs = ["metrics.csv"]
    extra: dict = {"agent": args.agent, "mode": mode}
    dataset = _load_dataset(args.dataset, cfg, extra) if mode == "dataset" else None

    agents, params, workload = _policy_inputs(
        args.agent, cfg, mode, seed, dataset, args.resume, "resumed_from_sha256", extra
    )
    if args.agent == "random":
        rows = _evaluate("random", cfg, seed, dataset, workload, params, [], "train")
    else:
        per_user = run.agent_scope == "per_user"
        episodes = (run.n_train_episodes, run.tasks_per_episode, seed)
        if per_user:
            rows, _ = run_training_per_user(agents, dataset, workload, *episodes)
        elif mode == "dataset":
            rows = run_training(agents[0], dataset, workload, *episodes)
        else:
            rows = run_live_training(agents[0], cfg.system, cfg.channels, workload, *episodes)
        write_checkpoint(_output(args.out, "model.json"), agents, per_user, workload.context_bounds)
        extra["episodes_trained"] = agents[0].episodes_trained
        outputs.append("model.json")

    write_metrics(_output(args.out, "metrics.csv"), rows)
    _write_manifest(args.out, "train", cfg, seed, outputs, extra)
    mean_reward = sum(r.reward for r in rows) / len(rows)
    print(
        f"trained {args.agent} for {len(rows)} episodes "
        f"(mean episode reward {mean_reward:.3f}); outputs in {args.out}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg, mode, seed = _context(args)
    extra: dict = {"agent": args.agent, "mode": mode}
    dataset = _load_dataset(args.dataset, cfg, extra) if mode == "dataset" else None
    if args.agent == "e2da" and not args.model:
        raise ConfigError("evaluating the learned agent requires --model PATH")
    agents, params, workload = _policy_inputs(
        args.agent, cfg, mode, seed, dataset, args.model, "model_sha256", extra
    )
    rows = _evaluate(args.agent, cfg, seed, dataset, workload, params, agents)

    write_metrics(_output(args.out, "metrics.csv"), rows)
    summary = summarize({args.agent: rows}, cfg.run.tasks_per_episode)
    summary["efficiency_scale"] = params.efficiency_scale
    write_json(_output(args.out, "summary.json"), summary)
    _write_manifest(args.out, "evaluate", cfg, seed, ["metrics.csv", "summary.json"], extra)
    stats = summary["agents"][args.agent]
    print(
        f"{args.agent}: reward {stats['mean_episode_reward']:.3f}, "
        f"deadline fraction {stats['mean_deadline_fraction']:.3f}, "
        f"task energy {stats['mean_task_energy_j']:.3e} J, "
        f"task response {stats['mean_task_response_s']:.3e} s"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, mode, seed = _context(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--values must list at least one mean")
    # a scenario's label names its directory; in dataset mode it also keys
    # the random policy's substream (live random draws from the rollout's)
    labels = [f"{args.vary}-{value:g}" for value in values]
    first_with: Dict[str, float] = {}
    for value, label in zip(values, labels):
        if label in first_with:
            raise ConfigError(
                f"--values {first_with[label]!r} and {value!r} share the scenario label {label!r}"
            )
        first_with[label] = value

    extra: dict = {"agent": args.agent, "mode": mode}
    agents: List[E2daAgent] = []
    bounds = None
    params: Optional[RewardParams] = None
    if args.agent == "e2da":
        if not args.model:
            raise ConfigError("sweeping the learned agent requires --model PATH")
        agents, params, workload = _policy_inputs(
            "e2da", cfg, mode, seed, None, args.model, "model_sha256", extra
        )
        bounds = workload.context_bounds

    scenarios = []
    outputs: List[str] = []
    scen_cfgs = [with_sweep_value(cfg, args.vary, value) for value in values]
    for value, label, scen_cfg in zip(values, labels, scen_cfgs):
        # Identical seeds across scenarios give common random numbers, so
        # scenario differences are the knob's effect rather than noise.
        ds = None
        if mode == "dataset":
            ds = generate_dataset(
                scen_cfg.system, scen_cfg.channels, scen_cfg.workload, scen_cfg.run.n_records, seed
            )
        if params is None:
            # One normalizer for the whole sweep keeps rewards comparable.
            params = _reward_params(scen_cfg, seed, ds, extra)
        # the learned agent scales contexts with its checkpoint's bounds
        workload = replace(scen_cfg.workload, context_bounds=bounds)
        rows = _evaluate(args.agent, scen_cfg, seed, ds, workload, params, agents, salt=(label,))
        rel_metrics = os.path.join(label, "metrics.csv")
        write_metrics(_output(args.out, rel_metrics), rows)
        outputs.append(rel_metrics)
        stats = summarize({args.agent: rows}, cfg.run.tasks_per_episode)["agents"][args.agent]
        scenarios.append({"value": value, "label": label, **stats})

    def ratio(key: str) -> Optional[float]:
        first = scenarios[0][key]
        return scenarios[-1][key] / first if first != 0 else None

    sweep_summary = {
        "axis": args.vary,
        "agent": args.agent,
        "mode": mode,
        "values": values,
        "efficiency_scale": params.efficiency_scale,
        "scenarios": scenarios,
        "last_over_first": {
            "energy": ratio("mean_task_energy_j"),
            "response": ratio("mean_task_response_s"),
            "reward": ratio("mean_episode_reward"),
            "deadline_fraction": ratio("mean_deadline_fraction"),
        },
    }
    write_json(_output(args.out, "sweep_summary.json"), sweep_summary)
    outputs.append("sweep_summary.json")
    _write_manifest(args.out, "sweep", cfg, seed, outputs, extra)
    lof = sweep_summary["last_over_first"]
    print(
        f"swept {args.vary} over {len(values)} values with {args.agent}: "
        f"energy x{lof['energy']:.2f}, response x{lof['response']:.2f} (last vs first)"
    )
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2da",
        description="Train and evaluate task offloading policies on a simulated edge system.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--seed", type=int, default=None, help="override run.seed")
        sp.add_argument("--out", required=True, help="output directory")

    g = sub.add_parser(
        "generate-dataset",
        help="log per-action projections under a uniform random policy",
    )
    common(g)
    g.set_defaults(func=cmd_generate_dataset)

    t = sub.add_parser("train", help="train the bandit or log a random baseline")
    common(t)
    t.add_argument("--agent", choices=TRAIN_AGENTS, default="e2da")
    t.add_argument("--mode", choices=MODES, default=None, help="override run.mode")
    t.add_argument("--dataset", default=None, help="dataset.csv for dataset mode")
    t.add_argument("--resume", default=None, help="model.json checkpoint to continue from")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="run a frozen policy and summarize test metrics")
    common(e)
    e.add_argument("--agent", choices=EVAL_AGENTS, required=True)
    e.add_argument("--mode", choices=MODES, default=None, help="override run.mode")
    e.add_argument("--dataset", default=None, help="dataset.csv for dataset mode")
    e.add_argument("--model", default=None, help="model.json for the learned agent")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("sweep", help="evaluate one policy across workload scenario variants")
    common(s)
    s.add_argument("--vary", choices=SWEEP_AXES, required=True)
    s.add_argument("--values", required=True, help="comma separated scenario means")
    s.add_argument("--agent", choices=EVAL_AGENTS, required=True)
    s.add_argument("--mode", choices=MODES, default=None, help="override run.mode")
    s.add_argument("--model", default=None, help="model.json for the learned agent")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # simulator or training faults
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 4
