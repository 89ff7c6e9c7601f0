"""Per-layer timings of the learner step, in process.

Times MlpModel.forward on one context; on one minibatch,
MlpModel.loss_and_grads, which fills the model's gradient buffer,
MlpModel.apply_grads, each call preceded by np.copyto(model._grad, g0),
which refills the buffer that apply_grads consumes with one fixed gradient
g0 (the copy is timed with it), and MlpModel.train_step, the step training
runs; ReplayBuffer.sample, E2daAgent.observe and one training decision
(E2daAgent.act at epsilon 0.9, then observe, as early replay training runs
them), at the agent sizes of configs/default.json (a 3-50-50-4 network,
minibatches of 64), and one frozen decision two ways: E2daAgent.act at
epsilon 0 on one context, and the batched greedy policy over a block of 40
contexts (a live-k50 user's first block: 2,000 decisions over 50 users) per
context.  It writes the results with the machine, the Python, numpy and
BLAS versions and the repeat count to a JSON file.

Run from the root of a checkout, with the package to measure on the path:

    PYTHONPATH=src python3 tools/bench_learner.py [--repeats 5] [--calls 2000] \
        [--warmup 2000] [--out BENCH_learner.json]

Only the stdlib and numpy are used.  The agent first observes --warmup
outcomes, so its replay buffer holds that many and its parameters have
moved off their initial values.  Every timing is --repeats rounds of --calls
calls, reported as the minimum and median over rounds, in microseconds per
call (per context for the block).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from bench_dataset import ROOT, machine
from e2da.bandit import E2daAgent, RewardParams, reward_to_target
from e2da.config import load_config
from e2da.experiment import _greedy
from e2da.rng import substream

CONFIG = os.path.join(ROOT, "configs", "default.json")
TRAIN_EPSILON = 0.9  # the default decay's rate after ~21 episodes
BLOCK_ROWS = 40  # contexts in one frozen block


def per_call_us(fn, calls: int, repeats: int, per: int = 1) -> dict:
    """Microseconds per call of fn, divided by per, over `repeats` rounds
    of `calls` calls."""
    rounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        rounds.append((time.perf_counter() - t0) * 1e6 / (calls * per))
    return {"min": min(rounds), "median": statistics.median(rounds), "samples": rounds}


def measure(calls: int, repeats: int, warmup: int) -> dict:
    cfg = load_config(CONFIG)
    seed = cfg.run.seed
    n_actions = cfg.system.n_channels + 1
    agent = E2daAgent.create(cfg.agent, n_actions, RewardParams(cfg.agent.penalty, 1.0), seed)
    data = substream(seed, "bench-learner")
    contexts = data.random((warmup, 3))
    actions = data.integers(0, n_actions, size=warmup).tolist()
    rewards = data.uniform(-cfg.agent.penalty, 1.0, size=warmup).tolist()
    for x, a, r in zip(contexts, actions, rewards):
        agent.observe(x, a, r)
    model, buffer = agent.model, agent.buffer
    batch = cfg.agent.minibatch_size
    x, a, r = buffer.sample(substream(seed, "bench-batch"), batch)
    targets = reward_to_target(r, cfg.agent.penalty)
    model.loss_and_grads(x, a, targets)
    g0 = model._grad.copy()
    sample_rng = substream(seed, "bench-sample")
    one = contexts[0]
    timed = {
        "forward_us": lambda: model.forward(one),
        "loss_and_grads_us": lambda: model.loss_and_grads(x, a, targets),
        "apply_grads_us": lambda: (np.copyto(model._grad, g0), model.apply_grads()),
        "train_step_us": lambda: model.train_step(x, a, targets),
        "sample_us": lambda: buffer.sample(sample_rng, batch),
        "observe_us": lambda: agent.observe(one, 1, 0.5),
        "train_decision_us": lambda: agent.observe(one, agent.act(one, TRAIN_EPSILON), 0.5),
    }
    result = {
        "layer_sizes": list(model.layer_sizes),
        "minibatch_size": batch,
        "buffer_size": buffer.size,
    }
    # first, while the parameters are the warmed-up ones: the timings
    # below keep stepping the model, which may saturate its heads into
    # ties that the block would send back through act
    block = contexts[:BLOCK_ROWS]
    result["frozen_decision_us"] = {
        "act": per_call_us(lambda: agent.act(one, 0.0), calls, repeats),
        "block": per_call_us(lambda: _greedy(agent, block), calls, repeats, BLOCK_ROWS),
        "block_rows": BLOCK_ROWS,
    }
    for name, fn in timed.items():
        result[name] = per_call_us(fn, calls, repeats)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=2000)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_learner.json"))
    args = parser.parse_args(argv)
    result = {
        "machine": machine(),
        "repeats": args.repeats,
        "calls": args.calls,
        "warmup": args.warmup,
        "learner": measure(args.calls, args.repeats, args.warmup),
    }
    row = dict(result["learner"])
    frozen = row.pop("frozen_decision_us")
    row.update((f"frozen_{kind}_us", frozen[kind]) for kind in ("act", "block"))
    names = [name for name in row if name.endswith("_us")]
    print(", ".join(f"{name[:-3]} {row[name]['median']:.1f} us" for name in names), file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
