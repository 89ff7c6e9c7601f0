#!/usr/bin/env python3
"""Benchmark of the e2da command line pipeline.

Run from the root of a checkout (the directory holding src/e2da):

    python3 benchmarks/run.py --workload replay-k5 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a fixed sequence of `python3 -m e2da` commands on a config
from benchmarks/workloads/, one process per command, one command at a time.
The sequence repeats until --seconds have been spent.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced repeats and
reports per-function timings plus the tracing overhead.  Every command's
outputs are checked; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  benchmarks/README.md documents
every metric and workload.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SPAWNS = 15
# A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0
HELD_OUT_SEED = 7919
# On a shared host the speed of a core swings by up to ~1.8x within seconds
# and its duty cycle drifts over minutes.  reference_seconds() is timed before
# every child; the gated host metrics are scaled to a machine on which the
# reference takes REF_NOMINAL_S, using the mean reference time of the run.
# The benchmark and its children are pinned to one CPU so that the reference
# runs where the commands run.
REF_NOMINAL_S = 0.05


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.  `args` may name the output directory
    of an earlier step as {label}; --config, --seed and --out are appended."""

    label: str
    kind: str  # "generate", "train" or "eval"
    args: Tuple[str, ...]
    agent: Optional[str] = None


GENERATE = Step("generate", "generate", ("generate-dataset",))
DATASET = ("--dataset", "{generate}/dataset.csv")
MODEL = ("--model", "{train}/model.json")

WORKLOADS: Dict[str, Tuple[str, Tuple[Step, ...]]] = {
    "replay-k5": (
        "the paper's dataset pipeline at K=5 (generate, train, evaluate e2da and eel): "
        "learner-bound training plus CSV write and reads",
        (
            GENERATE,
            Step("train", "train", ("train", "--agent", "e2da") + DATASET),
            Step("eval-e2da", "eval", ("evaluate", "--agent", "e2da") + DATASET + MODEL, "e2da"),
            Step("eval-eel", "eval", ("evaluate", "--agent", "eel") + DATASET, "eel"),
        ),
    ),
    "generate-k500": (
        "K=500 dataset generation plus eel evaluation: the K x C decision snapshot "
        "dominates and the learner never runs",
        (
            GENERATE,
            Step("eval-eel", "eval", ("evaluate", "--agent", "eel") + DATASET, "eel"),
        ),
    ),
    "live-k50": (
        "K=50 live train and evaluate: contended event loop with stale events and "
        "delayed feedback, and no snapshot call",
        (
            Step("train", "train", ("train", "--agent", "e2da")),
            Step("eval-e2da", "eval", ("evaluate", "--agent", "e2da") + MODEL, "e2da"),
        ),
    ),
}

# Metric name -> (unit, direction).  END_TO_END_CONTRACT is what the last
# line carries with --trace 0: the end-to-end metrics every workload has.
END_TO_END = {
    "generate_records_per_s": ("1/s", "higher"),
    "train_decisions_per_s": ("1/s", "higher"),
    "eval_decisions_per_s": ("1/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "deadline_frac": ("fraction", "higher"),
    "e2da_reward": ("reward", "higher"),
    "e2da_deadline_frac": ("fraction", "higher"),
    "eel_reward": ("reward", "higher"),
    "eel_deadline_frac": ("fraction", "higher"),
}
END_TO_END_CONTRACT = (
    "pipeline_s",
    "setup_s",
    "peak_rss_mb",
    "eval_decisions_per_s",
    "deadline_frac",
)
PER_LAYER = {
    "bandit.loss_and_grads_us": ("us", "lower"),
    "bandit.apply_grads_us": ("us", "lower"),
    "bandit.replay_sample_us": ("us", "lower"),
    "bandit.observe_us": ("us", "lower"),
    "bandit.train_steps": ("count", "higher"),
    "bandit.forward_us": ("us", "lower"),
    "bandit.compute_reward_us": ("us", "lower"),
    "netsim.snapshot_us": ("us", "lower"),
    "netsim.project_outcome_us": ("us", "lower"),
    "netsim.events": ("count", "lower"),
    "netsim.advance_self_us": ("us", "lower"),
    "netsim.outcomes_per_event": ("ratio", "higher"),
    "netsim.submit_us": ("us", "lower"),
    "workload.sample_task_us": ("us", "lower"),
    "workload.normalize_context_us": ("us", "lower"),
    "baselines.oracle_us": ("us", "lower"),
    "experiment.csv_write_mb_per_s": ("MB/s", "higher"),
    "experiment.csv_read_mb_per_s": ("MB/s", "higher"),
    "experiment.calibrate_ms": ("ms", "lower"),
    "experiment.replay_self_us": ("us", "lower"),
    "experiment.live_self_us": ("us", "lower"),
    "experiment.dataset_mb": ("MiB", "lower"),
    "config.load_config_ms": ("ms", "lower"),
    "ioutil.sha256_file_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Outputs whose bytes must repeat exactly across repeats of one commit.
DIGESTED = {"generate": ("dataset.csv",), "train": ("metrics.csv", "model.json"), "eval": ("metrics.csv",)}


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing or broken)."""


# ---------------------------------------------------------------- processes


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: Sequence[str], env: dict, log_path: str) -> Tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MiB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=log, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class _Record:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d


def reference_seconds() -> float:
    """Wall time of a fixed loop shaped like the program's hot paths (nested
    tuples from generator sums, many small objects and float text, small
    matmuls) that uses nothing from the repository."""
    t0 = time.perf_counter()
    queues = {(k, c): [float(k + c + i) for i in range(3)] for k in range(200) for c in range(3)}
    acc = 0.0
    for _ in range(30):
        view = tuple(tuple(sum(x for x in queues[(k, c)]) for c in range(3)) for k in range(200))
        acc += view[-1][-1]
    records = [_Record(i * 0.5, i * 0.25, i, i * 1.5) for i in range(9000)]
    text = ",".join(repr(r.a + r.d) for r in records)
    acc += sum(float(v) for v in text.split(","))
    w, x = np.full((50, 3), 0.1), np.full((64, 3), 0.2)
    for _ in range(450):
        acc += float((np.maximum(x @ w.T, 0.0).T @ x).sum())
    return time.perf_counter() - t0


# ------------------------------------------------------------------- checks


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


STAGE_COLUMNS = ("d1_s", "d2_s", "d3_s", "d4_s", "t_exec_s", "t_up_s", "t_down_s")
ENERGY_COLUMNS = ("e_cpu_J", "e_tx_J", "e_rx_J")


def check_dataset(path: str) -> List[str]:
    """Every action's projection must satisfy T = sum of stage times,
    E = sum of energy parts and met <=> T <= deadline, all finite."""
    problems = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        n_actions = sum(1 for name in col if name.endswith("_met"))
        for row in reader:
            deadline = float(row[col["deadline_s"]])
            for a in range(n_actions):
                stages = [float(row[col[f"a{a}_{c}"]]) for c in STAGE_COLUMNS]
                e_parts = [float(row[col[f"a{a}_{c}"]]) for c in ENERGY_COLUMNS]
                total = float(row[col[f"a{a}_T_s"]])
                e_total = float(row[col[f"a{a}_e_total_J"]])
                met = row[col[f"a{a}_met"]]
                where = f"{path} record {row[0]} action {a}"
                if not all(math.isfinite(v) for v in stages + e_parts + [total, e_total]):
                    problems.append(f"{where}: non-finite value")
                elif not _close(math.fsum(stages), total):
                    problems.append(f"{where}: T={total!r} but stages sum to {math.fsum(stages)!r}")
                elif not _close(math.fsum(e_parts), e_total):
                    problems.append(f"{where}: E={e_total!r} but parts sum to {math.fsum(e_parts)!r}")
                elif met not in ("0", "1") or (met == "1") != (total <= deadline):
                    problems.append(f"{where}: met={met} with T={total!r}, deadline={deadline!r}")
    return problems


def check_metrics(path: str) -> List[str]:
    """metrics.csv must hold at least one row and only finite numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if not rows:
        return [f"{path}: no rows"]
    numeric = [i for i, name in enumerate(header) if name != "phase"]
    for n, row in enumerate(rows, start=1):
        if not all(math.isfinite(float(row[i])) for i in numeric):
            return [f"{path} row {n}: non-finite value in {row}"]
    return []


# ---------------------------------------------------------------- statistics


def summary(samples: Sequence[float]) -> dict:
    """Median, plus the highest of the p50/p90/p95/p99/p99.9 nearest-rank
    percentiles that has at least ten samples beyond it (None if none has)."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "percentile": None, "percentile_value": None, "samples": s}
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            out["percentile"], out["percentile_value"] = p, s[rank - 1]
            break
    return out


# -------------------------------------------------------------------- runner


@dataclass
class Workload:
    name: str
    config_path: str
    steps: Tuple[Step, ...]
    sizes: dict

    def decisions(self, step: Step) -> int:
        s = self.sizes
        if step.kind == "generate":
            return s["n_records"]
        episodes = s["n_train_episodes"] if step.kind == "train" else s["n_test_episodes"]
        return episodes * s["tasks_per_episode"]


def load_workload(name: str, config_path: Optional[str] = None) -> Workload:
    path = config_path or os.path.join(BENCH_DIR, "workloads", f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    run = cfg["run"]
    sizes = {
        "n_users": cfg["system"]["n_users"],
        "arrival_rate_per_s": cfg["workload"]["arrival_rate_per_s"],
        "mode": run["mode"],
        "n_records": run["n_records"],
        "n_train_episodes": run["n_train_episodes"],
        "n_test_episodes": run["n_test_episodes"],
        "tasks_per_episode": run["tasks_per_episode"],
    }
    return Workload(name, os.path.abspath(path), WORKLOADS[name][1], sizes)


class Runner:
    """Runs one workload's command sequence repeatedly and checks outputs."""

    def __init__(self, root: str, wl: Workload, seed: int, work: str, log: str):
        self.root = root
        self.wl = wl
        self.seed = seed
        self.work = work
        self.env = child_env(root)
        self.log = log  # every child's stdout and stderr; kept after the run
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}  # "<step>/<file>" -> sha256 of the first repeat
        self.repeats: List[dict] = []
        self.reference: List[float] = []  # reference_seconds() before each child

    def measure_setup(self) -> List[float]:
        """Wall time of fresh interpreters that import the CLI (and with it
        e2da and numpy) and load the workload config, then exit."""
        argv = [sys.executable, "-c", "import sys, e2da.cli; e2da.cli.load_config(sys.argv[1])",
                self.wl.config_path]
        times = []
        for i in range(SETUP_SPAWNS + 1):  # the first spawn fills the bytecode cache
            self.reference.append(reference_seconds())
            wall, rc, _ = spawn(argv, self.env, self.log)
            if rc != 0:
                raise BenchError(f"importing e2da from {self.root}/src failed (exit {rc}); see {self.log}")
            if i:
                times.append(wall)
        return times

    def _argv(self, step: Step, rep_dir: str, traced: bool, spans: str) -> List[str]:
        dirs = {s.label: os.path.join(rep_dir, s.label) for s in self.wl.steps}
        args = [a.format(**dirs) for a in step.args]
        args += ["--config", self.wl.config_path, "--seed", str(self.seed), "--out", dirs[step.label]]
        if traced:
            return [sys.executable, os.path.join(BENCH_DIR, "trace_child.py"), spans] + args
        return [sys.executable, "-m", "e2da"] + args

    def _check(self, step: Step, out_dir: str) -> List[str]:
        problems = []
        for name in DIGESTED[step.kind]:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                return [f"{step.label}: {name} missing"]
            digest = sha256(path)
            key = f"{step.label}/{name}"
            first = self.digests.setdefault(key, digest)
            if digest != first:
                problems.append(f"{key}: bytes differ from the first repeat")
            elif len(self.repeats) == 0:  # contents checked once; later repeats match by digest
                if name == "dataset.csv":
                    problems += check_dataset(path)[:5]
                elif name == "metrics.csv":
                    problems += check_metrics(path)
        return problems

    def repeat(self, traced: bool) -> Optional[dict]:
        """One pass over the command sequence; None if a command failed."""
        rep_dir = os.path.join(self.work, f"rep{len(self.repeats)}")
        rep = {"traced": traced, "steps": {}, "spans": []}
        for step in self.wl.steps:
            out_dir = os.path.join(rep_dir, step.label)
            spans = os.path.join(rep_dir, f"{step.label}.spans.json")
            os.makedirs(out_dir, exist_ok=True)
            self.attempted += 1
            self.reference.append(reference_seconds())
            wall, rc, rss = spawn(self._argv(step, rep_dir, traced, spans), self.env, self.log)
            if rc != 0:
                self.failures.append(f"{step.label}: exit code {rc}; see {self.log}")
                return None
            problems = self._check(step, out_dir)
            if problems:
                self.failures.append("; ".join(problems))
            record = {"wall_s": wall, "peak_rss_mb": rss}
            if step.kind == "eval":
                with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
                    stats = json.load(fh)["agents"][step.agent]
                record["reward"] = stats["mean_episode_reward"]
                record["deadline_frac"] = stats["mean_deadline_fraction"]
            if traced:
                with open(spans, "r", encoding="utf-8") as fh:
                    rep["spans"].append(json.load(fh)["spans"])
            rep["steps"][step.label] = record
        rep["pipeline_s"] = sum(r["wall_s"] for r in rep["steps"].values())
        self.repeats.append(rep)
        shutil.rmtree(rep_dir)
        return rep

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat until `seconds` are spent (at least once; with tracing, at
        least one untraced and one traced repeat, alternating)."""
        deadline = time.perf_counter() + seconds
        last = 0.0
        while True:
            traced = trace and len(self.repeats) % 2 == 1
            t0 = time.perf_counter()
            if self.repeat(traced) is None:
                return
            last = max(last, time.perf_counter() - t0)
            enough = len(self.repeats) >= (2 if trace else 1)
            if enough and time.perf_counter() + last > deadline:
                return


# ------------------------------------------------------------------ metrics


def end_to_end(
    wl: Workload, reps: List[dict], setup: List[float], reference: List[float]
) -> Dict[str, dict]:
    """Full end-to-end report: each metric the workload's commands give.
    Host times and rates also carry a value scaled to reference speed."""
    steps = wl.steps
    out: Dict[str, dict] = {}

    def rate(kind: str) -> Optional[dict]:
        chosen = [s for s in steps if s.kind == kind]
        if not chosen:
            return None
        work = sum(wl.decisions(s) for s in chosen)
        walls = [sum(r["steps"][s.label]["wall_s"] for s in chosen) for r in reps]
        out = summary([work / w for w in walls])
        out["overall"] = work * len(walls) / sum(walls)
        return out

    out["generate_records_per_s"] = rate("generate")
    out["train_decisions_per_s"] = rate("train")
    out["eval_decisions_per_s"] = rate("eval")
    out["pipeline_s"] = summary([r["pipeline_s"] for r in reps])
    out["setup_s"] = summary(setup)
    out["peak_rss_mb"] = summary([max(s["peak_rss_mb"] for s in r["steps"].values()) for r in reps])
    speed = statistics.fmean(reference) / REF_NOMINAL_S  # > 1 on a slower machine
    for key in ("generate_records_per_s", "train_decisions_per_s", "eval_decisions_per_s"):
        if out[key] is not None:
            out[key]["scaled"] = out[key]["overall"] * speed
    for key in ("pipeline_s", "setup_s"):
        out[key]["scaled"] = out[key]["median"] / speed
    evals = [s for s in steps if s.kind == "eval"]
    first = reps[0]["steps"]
    out["deadline_frac"] = {"value": statistics.fmean(first[s.label]["deadline_frac"] for s in evals)}
    for agent in ("e2da", "eel"):
        step = next((s for s in evals if s.agent == agent), None)
        out[f"{agent}_reward"] = {"value": first[step.label]["reward"]} if step else None
        out[f"{agent}_deadline_frac"] = {"value": first[step.label]["deadline_frac"]} if step else None
    return {k: v for k, v in out.items() if v is not None}


def merge_spans(reps: List[dict]) -> Dict[str, dict]:
    merged: Dict[str, dict] = {}
    for rep in reps:
        for spans in rep["spans"]:
            for name, st in spans.items():
                m = merged.setdefault(
                    name,
                    {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0, "rss_growth_bytes": 0,
                     "durations_ns": [], "self_durations_ns": []},
                )
                for key in ("calls", "total_ns", "self_ns", "units"):
                    m[key] += st[key]
                m["rss_growth_bytes"] = max(m["rss_growth_bytes"], st["rss_growth_bytes"])
                m["durations_ns"] += st["durations_ns"]
                m["self_durations_ns"] += st["self_durations_ns"]
    return merged


def per_layer(reps: List[dict]) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Per-layer metrics from the traced repeats, plus per-span summaries.
    A metric whose function the workload never calls reads 0."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    sp = merge_spans(traced)

    def median_us(name: str, self_time: bool = False) -> float:
        d = sp[name]["self_durations_ns" if self_time else "durations_ns"]
        return statistics.median(d) / 1e3 if d else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_pipeline(name: str) -> float:
        return sp[name]["calls"] / len(traced)

    def mb_per_s(name: str) -> float:
        return ratio(sp[name]["units"] / 1e6, sp[name]["total_ns"] / 1e9)

    calibrations = (
        sp["experiment.calibrate_efficiency_scale"]["durations_ns"]
        + sp["experiment.calibrate_efficiency_scale_live"]["durations_ns"]
    )
    replay = ("experiment.run_training", "experiment.run_evaluation")
    live = ("experiment._live_rollout", "experiment.run_live_training", "experiment.run_live_evaluation")
    advance = sp["netsim.Simulator.advance"]
    m = {
        "bandit.loss_and_grads_us": median_us("bandit.MlpModel.loss_and_grads"),
        "bandit.apply_grads_us": median_us("bandit.MlpModel.apply_grads"),
        "bandit.replay_sample_us": median_us("bandit.ReplayBuffer.sample"),
        "bandit.observe_us": median_us("bandit.E2daAgent.observe"),
        "bandit.train_steps": per_pipeline("bandit.MlpModel.loss_and_grads"),
        "bandit.forward_us": median_us("bandit.MlpModel.forward"),
        "bandit.compute_reward_us": median_us("bandit.compute_reward"),
        "netsim.snapshot_us": median_us("netsim.Simulator.snapshot"),
        "netsim.project_outcome_us": median_us("netsim.project_outcome"),
        "netsim.events": per_pipeline("netsim.Simulator.advance"),
        "netsim.advance_self_us": median_us("netsim.Simulator.advance", self_time=True),
        "netsim.outcomes_per_event": ratio(advance["units"], advance["calls"]),
        "netsim.submit_us": median_us("netsim.Simulator.submit"),
        "workload.sample_task_us": median_us("workload.sample_task"),
        "workload.normalize_context_us": median_us("workload.normalize_context"),
        "baselines.oracle_us": median_us("baselines.eel_star"),
        "experiment.csv_write_mb_per_s": mb_per_s("experiment.Dataset.write_csv"),
        "experiment.csv_read_mb_per_s": mb_per_s("experiment.Dataset.from_csv"),
        "experiment.calibrate_ms": statistics.median(calibrations) / 1e6 if calibrations else 0.0,
        "experiment.replay_self_us": ratio(
            sum(sp[n]["self_ns"] for n in replay) / 1e3, sum(sp[n]["units"] for n in replay)
        ),
        "experiment.live_self_us": ratio(
            sum(sp[n]["self_ns"] for n in live) / 1e3, sp["experiment._live_rollout"]["units"]
        ),
        "experiment.dataset_mb": max(
            sp["experiment.Dataset.from_csv"]["rss_growth_bytes"],
            sp["experiment.generate_dataset"]["rss_growth_bytes"],
        )
        / 2**20,
        "config.load_config_ms": median_us("config.load_config") / 1e3,
        "ioutil.sha256_file_ms": median_us("ioutil.sha256_file") / 1e3,
        "trace.overhead": statistics.median(r["pipeline_s"] for r in traced)
        / statistics.median(r["pipeline_s"] for r in plain),
    }
    def span_summary(durations_ns: List[int]) -> Optional[dict]:
        if not durations_ns:
            return None
        out = summary([d / 1e3 for d in durations_ns])
        del out["samples"]
        return out

    spans = {
        name: {
            "calls_per_pipeline": st["calls"] / len(traced),
            "total_us": span_summary(st["durations_ns"]),
            "self_us": span_summary(st["self_durations_ns"]),
        }
        for name, st in sp.items()
    }
    return m, spans


# ----------------------------------------------------------------- metadata


def metadata(root: str, wl: Workload, seed: int, repeats: int, cpus: Sequence[int]) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = res.stdout.strip() if res.returncode == 0 else None
    src_digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "e2da")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src_digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                src_digest.update(fh.read())
    return {
        "cpu_model": cpu,
        "nproc": len(cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "source_sha256": src_digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "repeats": repeats,
        "sizes": wl.sizes,
    }


# --------------------------------------------------------------------- main


def run_workload(
    root: str, name: str, seed: int, seconds: float, trace: bool, config_path: Optional[str] = None
) -> dict:
    """Run one workload and return its full result, as `report` prints it.
    Pins this process, and so its children, to one CPU for the run."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    wl = load_workload(name, config_path)
    work = os.path.join(root, WORK_DIR, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(root, WORK_DIR, "results"), exist_ok=True)
    log = os.path.join(root, WORK_DIR, "results", f"{name}-seed{seed}-trace{int(trace)}.log")
    if os.path.exists(log):
        os.remove(log)
    try:
        runner = Runner(root, wl, seed, work, log)
        setup = runner.measure_setup()
        runner.run(seconds, trace)
        if not runner.repeats:
            raise BenchError("; ".join(runner.failures))
        result = {
            "workload": name,
            "why": WORKLOADS[name][0],
            "trace": trace,
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "failures": runner.failures,
            "digests": runner.digests,
            "reference_s": summary(runner.reference),
            "metadata": metadata(root, wl, seed, len(runner.repeats), cpus),
            "end_to_end": end_to_end(
                wl, [r for r in runner.repeats if not r["traced"]], setup, runner.reference
            ),
        }
        if trace:
            result["per_layer"], result["spans"] = per_layer(runner.repeats)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, cpus)


def headline(entry: dict) -> float:
    """The value a metric is judged by: a host time or rate scaled to
    reference speed, else the median over repeats, else the simulated value."""
    return next(entry[key] for key in ("scaled", "median", "value") if key in entry)


def contract_metrics(result: dict) -> Dict[str, dict]:
    if result["trace"]:
        return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in result["per_layer"].items()}
    e2e = result["end_to_end"]
    return {k: {"value": headline(e2e[k]), "unit": END_TO_END[k][0]} for k in END_TO_END_CONTRACT}


def report(result: dict) -> List[str]:
    """Human-readable lines: every metric by name and unit, then metadata."""
    lines = [f"== {result['workload']}: {result['why']}"]
    for k, v in result["end_to_end"].items():
        unit = END_TO_END[k][0]
        if "median" in v:
            pct = (
                f", p{v['percentile']:g} {v['percentile_value']:.6g}"
                if v["percentile"] is not None
                else ", no percentile has 10 samples beyond it"
            )
            overall = f"{v['overall']:.6g} {unit} over the run, per repeat " if "overall" in v else ""
            scaled = f"; {v['scaled']:.6g} {unit} at reference speed" if "scaled" in v else ""
            lines.append(f"  {k:<28} {overall}median {v['median']:.6g} {unit}{pct} (n={v['n']}){scaled}")
        else:
            lines.append(f"  {k:<28} {v['value']:.6g} {unit} (simulated)")
    for k, v in result.get("per_layer", {}).items():
        lines.append(f"  {k:<32} {v:.6g} {PER_LAYER[k][0]}")
    ref = result["reference_s"]
    lines.append(
        f"  reference loop mean {statistics.fmean(ref['samples']):.6g} s, median {ref['median']:.6g} s "
        f"(n={ref['n']}; reference speed is {REF_NOMINAL_S} s)"
    )
    lines.append(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    lines += [f"  FAILED: {f}" for f in result["failures"]]
    lines += [f"  sha256 {k} {v}" for k, v in sorted(result["digests"].items())]
    lines.append("  metadata " + json.dumps(result["metadata"], sort_keys=True))
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help=f"workload seed (held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "e2da", "__init__.py")):
        print(f"error: run from a checkout of e2da; {root}/src/e2da is missing", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            out_dir = os.path.join(root, WORK_DIR, "results")
            with open(os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            print("\n".join(report(result)), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = contract_metrics(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in contract_metrics(r).items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
