"""Per-layer timings of the simulator, in process.

Times the event loop (microseconds per popped event, and events per
completed task) and the decision view (microseconds per
Simulator.projections call, and per decision of a column projection) on
live random-policy streams at K = 5, 50 and 500 users, and one whole live
decision (live_e2da_us, live_eel_us, live_random_us) and one task drawn from
the arrival feed (arrivals_us) at K = 50.  The results go to a JSON file
with the machine, the Python, numpy and BLAS versions and the repeat count.

Run from the root of a checkout, with the package to measure on the path:

    PYTHONPATH=src python3 tools/bench_netsim.py [--repeats 5] [--tasks 20000] \
        [--out BENCH_netsim.json]

Only the stdlib and numpy are used.  Each K runs 3 base stations and the 3
default channels with the default task distributions at 4 tasks/s per user,
the fixed per-user load of the ROADMAP's scaling curve.  The --tasks tasks
(split evenly over the users) and one uniformly random action per task are
drawn before timing, so a pass times the simulator alone.  Every round runs
two passes over the same tasks and actions, which take the same path: one
times the whole event loop, the other only the projections call that an
oracle policy makes per decision.  The snapshots of that second pass, taken
outside the timed call, are stacked into one column Snapshot, and each
round then times one project_outcome call per action on it, as dataset
generation projects; column_projection_us is that time over the decisions
projected.

The live section times the whole per-decision path of a live evaluation at
K = 50 users and 40 tasks/s each, as the benchmark's live-k50 workload runs
it: task streams, gains, context scaling, the policy, submit and the event
loop.  live_e2da_us is run_live_evaluation with make_policy's untrained
e2da agent (one batched greedy forward per episode, decided ahead of
arrival), live_eel_us with the eel oracle (one Simulator.projections call
and its ranking per decision) and live_random_us with the random policy
(one vector draw per episode, decided ahead of arrival), each timed per
decision over --tasks decisions in episodes of 100; arrivals_us is the
time per task to seed workload.arrivals, the one feed that merges the 50
users' task streams in arrival order as a live run reads them, and draw as
many tasks from it as the live runs decide.

Timings are reported as the minimum and median over --repeats rounds.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import sys
import time
from operator import attrgetter

import numpy as np

from bench_dataset import ROOT, machine, summary
from e2da.bandit import E2daAgent, RewardParams
from e2da.config import AgentConfig
from e2da.experiment import make_policy, run_live_evaluation
from e2da.netsim import Simulator, Snapshot, project_outcome
from e2da.rng import substream
from e2da.system import NodeConfig, default_channels
from e2da.workload import Task, WorkloadConfig, arrivals, task_stream

USERS = (5, 50, 500)
RATE_PER_USER = 4.0
SEED = 0
LIVE_USERS, LIVE_RATE_PER_USER, TASKS_PER_EPISODE = 50, 40.0, 100


def live_pass(node, channels, streams, actions, policy_hook=None):
    """One live run of the per-user task lists, merged in arrival order;
    returns (seconds in the event loop, events, outcomes)."""
    pick = iter(actions)

    def policy(sim, task):
        if policy_hook is not None:
            policy_hook(sim, task)
        return next(pick)

    sim = Simulator(node, channels, substream(SEED, "gains"), policy=policy)
    sim.add_arrivals(heapq.merge(*streams, key=attrgetter("arrival_time")))
    events = outcomes = 0
    t0 = time.perf_counter()
    while sim.has_events:
        events += 1
        outcomes += sim.advance() is not None
    return time.perf_counter() - t0, events, outcomes


def stack(snaps):
    """One column Snapshot of per-decision ones: the task's fields and the
    scalar fields as (R,) arrays, the per-channel fields as (C, R) arrays."""
    task = Task(*(np.array([getattr(s.task, name) for s in snaps]) for name in Task._fields))
    return Snapshot(
        task,
        *(np.array([getattr(s, name) for s in snaps]).T for name in Snapshot._fields[1:-2]),
        snaps[0].node, snaps[0].channels,
    )


def measure(n_users: int, n_tasks: int, repeats: int) -> dict:
    node = NodeConfig(n_users=n_users, n_base_stations=3, n_channels=3)
    channels = default_channels()
    workload = WorkloadConfig(arrival_rate_per_s=RATE_PER_USER)
    per_user = max(1, n_tasks // n_users)
    streams = [
        list(itertools.islice(task_stream(workload, SEED, u, n_users), per_user))
        for u in range(n_users)
    ]
    total = per_user * n_users
    actions = substream(SEED, "bench-actions").integers(0, node.n_channels + 1, total).tolist()
    spent = [0.0]
    snaps = []

    def timed_projections(sim, task):
        t0 = time.perf_counter()
        sim.projections(task)
        spent[0] += time.perf_counter() - t0
        snaps.append(sim.snapshot(task))

    loop_s, proj_s, column_s = [], [], []
    for _ in range(repeats):
        seconds, events, outcomes = live_pass(node, channels, streams, actions)
        loop_s.append(seconds)
        spent[0] = 0.0
        snaps.clear()
        live_pass(node, channels, streams, actions, timed_projections)
        proj_s.append(spent[0])
        column = stack(snaps)
        t0 = time.perf_counter()
        for action in range(node.n_channels + 1):
            project_outcome(column, action)
        column_s.append(time.perf_counter() - t0)
    return {
        "users": n_users,
        "tasks": total,
        "events": events,
        "events_per_task": events / outcomes,
        "event_us": summary(loop_s, 1e6 / events),
        "projections_us": summary(proj_s, 1e6 / total),
        "column_projection_us": summary(column_s, 1e6 / len(snaps)),
    }


def measure_live(n_tasks: int, repeats: int) -> dict:
    node = NodeConfig(n_users=LIVE_USERS, n_base_stations=3, n_channels=3)
    channels = default_channels()
    workload = WorkloadConfig(arrival_rate_per_s=LIVE_RATE_PER_USER)
    params = RewardParams(1.0, 1e6)
    agent = E2daAgent.create(AgentConfig(), node.n_channels + 1, params, SEED)
    n_episodes = max(1, n_tasks // TASKS_PER_EPISODE)
    decisions = n_episodes * TASKS_PER_EPISODE
    runs = {"live_e2da_us": [], "live_eel_us": [], "live_random_us": [], "arrivals_us": []}
    for _ in range(repeats):
        for name in ("e2da", "eel", "random"):
            rng = substream(SEED, "logging-policy")  # the stream a CLI run draws from
            choose = make_policy(name, [agent], rng, node.n_channels + 1)
            t0 = time.perf_counter()
            run_live_evaluation(choose, node, channels, workload, params, n_episodes,
                                TASKS_PER_EPISODE, SEED)
            runs[f"live_{name}_us"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _task in itertools.islice(arrivals(workload, SEED, LIVE_USERS), decisions):
            pass
        runs["arrivals_us"].append(time.perf_counter() - t0)
    return {
        "users": LIVE_USERS,
        "arrival_rate_per_s": LIVE_RATE_PER_USER,
        "decisions": decisions,
        "live_e2da_us": summary(runs["live_e2da_us"], 1e6 / decisions),
        "live_eel_us": summary(runs["live_eel_us"], 1e6 / decisions),
        "live_random_us": summary(runs["live_random_us"], 1e6 / decisions),
        "arrivals_us": summary(runs["arrivals_us"], 1e6 / decisions),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tasks", type=int, default=20_000)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_netsim.json"))
    args = parser.parse_args(argv)
    result = {
        "machine": machine(),
        "repeats": args.repeats,
        "tasks": args.tasks,
        "arrival_rate_per_s": RATE_PER_USER,
        "netsim": {f"k{k}": measure(k, args.tasks, args.repeats) for k in USERS},
        "live": measure_live(args.tasks, args.repeats),
    }
    for name, row in result["netsim"].items():
        print(
            f"{name}: {row['event_us']['median']:.2f} us/event, "
            f"{row['events_per_task']:.2f} events/task, "
            f"{row['projections_us']['median']:.2f} us/projections, "
            f"{row['column_projection_us']['median']:.2f} us/decision in a column",
            file=sys.stderr,
        )
    live = result["live"]
    print(
        f"live k{live['users']}: {live['live_e2da_us']['median']:.2f} us/decision e2da, "
        f"{live['live_eel_us']['median']:.2f} us/decision eel, "
        f"{live['live_random_us']['median']:.2f} us/decision random, "
        f"{live['arrivals_us']['median']:.2f} us/task from the arrival feed",
        file=sys.stderr,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
