"""Per-layer timings of the dataset path, in process.

Times generate_dataset (microseconds per record), Dataset.write_csv,
Dataset.from_csv without a digest (the one text parser: csv.reader and the
scalar row parser, which every read without a usable column file takes),
load_dataset (hashing the CSV, then loading and checking the column file
beside it),
calibrate_efficiency_scale and replay evaluation (microseconds per
decision for the eel oracle, the random policy and an e2da agent) on the
datasets of configs/default.json and of the replay-k5 and generate-k500
benchmark workloads, records the tracemalloc peak (MiB) of one write_csv,
one from_csv and one load_dataset call on each, and writes the results with
the machine, the Python, numpy and BLAS versions and the repeat count to a
JSON file.

Run from the root of a checkout, with the package to measure on the path:

    PYTHONPATH=src python3 tools/bench_dataset.py [--repeats 5] [--out BENCH_dataset.json]

Only the stdlib and numpy are used.  Each dataset is generated with its
config's run.seed and saved (dataset.csv and its column file) to a
temporary directory; every timing is
repeated and reported as its minimum and median in seconds (microseconds
per record for generation, and per decision for replay, over the config's
test episodes).  The memory peaks come from one separate call each, since
tracemalloc slows the calls it watches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from e2da import __file__ as package_file
from e2da.bandit import E2daAgent, RewardParams
from e2da.config import load_config
from e2da.dataset import column_path, load_dataset, save_dataset
from e2da.experiment import (
    Dataset,
    calibrate_efficiency_scale,
    generate_dataset,
    make_policy,
    run_evaluation,
)
from e2da.rng import substream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATASETS = {
    "default": os.path.join(ROOT, "configs", "default.json"),
    "replay-k5": os.path.join(ROOT, "benchmarks", "workloads", "replay-k5.json"),
    "generate-k500": os.path.join(ROOT, "benchmarks", "workloads", "generate-k500.json"),
}


def timed(fn, repeats: int) -> list:
    """Wall seconds of `repeats` calls of fn."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def peak_mib(fn) -> float:
    """tracemalloc peak, in MiB, of one call of fn."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def summary(samples: list, scale: float = 1.0) -> dict:
    scaled = [s * scale for s in samples]
    return {"min": min(scaled), "median": statistics.median(scaled), "samples": scaled}


def measure(name: str, config_path: str, repeats: int, work_dir: str) -> dict:
    cfg = load_config(config_path)
    seed = cfg.run.seed

    def generate() -> Dataset:
        return generate_dataset(cfg.system, cfg.channels, cfg.workload, cfg.run.n_records, seed)

    dataset = generate()
    path = os.path.join(work_dir, f"{name}.csv")
    digest = save_dataset(dataset, path)
    loaded = Dataset.from_csv(path)
    scale = calibrate_efficiency_scale(loaded, cfg.reward.calibration_percentile)
    params = RewardParams(cfg.agent.penalty, scale)
    run = cfg.run
    decisions = run.n_test_episodes * run.tasks_per_episode
    n_actions = cfg.system.n_channels + 1
    agent = E2daAgent.create(cfg.agent, n_actions, params, seed)

    def replay(policy_name: str):
        def once():
            # a fresh stream per call, as each evaluate command draws its own
            rng = substream(seed, "logging-policy")
            return run_evaluation(
                make_policy(policy_name, [agent], rng, n_actions), loaded, cfg.workload,
                params, run.n_test_episodes, run.tasks_per_episode, seed,
            )

        return once

    out_path = os.path.join(work_dir, f"{name}-rewritten.csv")
    return {
        "seed": seed,
        "records": len(loaded),
        "csv_bytes": os.path.getsize(path),
        "csv_sha256": digest,
        "column_file_bytes": os.path.getsize(column_path(path)),
        "decisions": decisions,
        "generate_us_per_record": summary(timed(generate, repeats), 1e6 / len(dataset)),
        "write_csv_s": summary(timed(lambda: loaded.write_csv(out_path), repeats)),
        "from_csv_s": summary(timed(lambda: Dataset.from_csv(path), repeats)),
        "load_dataset_s": summary(timed(lambda: load_dataset(path), repeats)),
        "write_csv_peak_mib": peak_mib(lambda: loaded.write_csv(out_path)),
        "from_csv_peak_mib": peak_mib(lambda: Dataset.from_csv(path)),
        "load_dataset_peak_mib": peak_mib(lambda: load_dataset(path)),
        "calibrate_s": summary(timed(lambda: calibrate_efficiency_scale(loaded), repeats)),
        "replay_eel_us_per_decision": summary(timed(replay("eel"), repeats), 1e6 / decisions),
        "replay_random_us_per_decision": summary(timed(replay("random"), repeats), 1e6 / decisions),
        "replay_e2da_us_per_decision": summary(timed(replay("e2da"), repeats), 1e6 / decisions),
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: found.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """sha256 over the names and bytes of the measured package's modules."""
    digest = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(package_file))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_dataset.json"))
    args = parser.parse_args(argv)
    result = {"machine": machine(), "repeats": args.repeats, "datasets": {}}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, config_path in DATASETS.items():
            result["datasets"][name] = measure(name, config_path, args.repeats, work_dir)
            row = result["datasets"][name]
            print(
                f"{name}: {row['records']} records, "
                f"generate {row['generate_us_per_record']['median']:.1f} us per record, "
                f"write {row['write_csv_s']['median']:.3f} s, "
                f"read {row['from_csv_s']['median']:.3f} s, "
                f"load {row['load_dataset_s']['median']:.3f} s, "
                f"write peak {row['write_csv_peak_mib']:.2f} MiB, "
                f"read peak {row['from_csv_peak_mib']:.2f} MiB, "
                f"load peak {row['load_dataset_peak_mib']:.2f} MiB, "
                f"calibrate {row['calibrate_s']['median'] * 1e3:.1f} ms, "
                f"replay eel {row['replay_eel_us_per_decision']['median']:.2f} us, "
                f"random {row['replay_random_us_per_decision']['median']:.2f} us, "
                f"e2da {row['replay_e2da_us_per_decision']['median']:.1f} us per decision",
                file=sys.stderr,
            )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
