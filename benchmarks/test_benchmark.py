"""Self-test of the benchmark: each workload at tiny sizes, both modes.

Run from the root of a checkout: python3 -m pytest -q benchmarks/test_benchmark.py
Scratch files go under .bench_work/selftest in the checkout.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run as bench

ROOT = os.path.dirname(bench.BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
import trace_child  # noqa: E402  (imports e2da from src/)

SCRATCH = os.path.join(ROOT, bench.WORK_DIR, "selftest")
TINY_RUN = {"n_records": 40, "n_train_episodes": 2, "n_test_episodes": 2, "tasks_per_episode": 20}


def tiny_config(name: str) -> str:
    with open(os.path.join(bench.BENCH_DIR, "workloads", f"{name}.json")) as fh:
        cfg = json.load(fh)
    cfg["run"].update(TINY_RUN)
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture(scope="module")
def traced_results():
    return {
        name: bench.run_workload(ROOT, name, 3, 0.0, True, tiny_config(name))
        for name in sorted(bench.WORKLOADS)
    }


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = bench.run_workload(ROOT, name, 3, 0.0, False, tiny_config(name))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = bench.contract_metrics(result)
    assert list(metrics) == list(bench.END_TO_END_CONTRACT)
    for key, entry in metrics.items():
        assert entry["unit"] == bench.END_TO_END[key][0]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, key
    kinds = {step.kind for step in bench.WORKLOADS[name][1]}
    expected = {"pipeline_s", "setup_s", "peak_rss_mb", "eval_decisions_per_s", "deadline_frac"}
    expected |= {"generate_records_per_s"} if "generate" in kinds else set()
    expected |= {"train_decisions_per_s"} if "train" in kinds else set()
    for step in bench.WORKLOADS[name][1]:
        if step.agent:
            expected |= {f"{step.agent}_reward", f"{step.agent}_deadline_frac"}
    assert set(result["end_to_end"]) == expected
    assert set(result["digests"]) == {
        f"{step.label}/{f}" for step in bench.WORKLOADS[name][1] for f in bench.DIGESTED[step.kind]
    }


def test_traced_run_emits_every_per_layer_metric(traced_results):
    for result in traced_results.values():
        assert result["correct"] and result["failed"] == 0
        metrics = bench.contract_metrics(result)
        assert list(metrics) == list(bench.PER_LAYER)
        for key, entry in metrics.items():
            assert entry["unit"] == bench.PER_LAYER[key][0]
            assert math.isfinite(entry["value"]) and entry["value"] >= 0, key


def test_traced_mode_finds_every_wrapped_function(traced_results):
    called = {
        name
        for result in traced_results.values()
        for name, span in result["spans"].items()
        if span["calls_per_pipeline"] > 0
    }
    assert called == set(trace_child.SPAN_NAMES)


def test_workloads_bypass_the_layers_they_should(traced_results):
    live = traced_results["live-k50"]["per_layer"]
    assert live["netsim.snapshot_us"] == 0 and live["netsim.project_outcome_us"] == 0
    assert live["bandit.train_steps"] > 0
    generate = traced_results["generate-k500"]["per_layer"]
    assert generate["bandit.train_steps"] == 0 and generate["netsim.snapshot_us"] > 0


def test_benchmark_json_names_the_contract_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END_CONTRACT)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == bench.END_TO_END[m["name"]]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (why, _) in bench.WORKLOADS.items()
    }


def test_checks_catch_broken_outputs():
    path = os.path.join(SCRATCH, "data")
    env = bench.child_env(ROOT)
    cmd = [sys.executable, "-m", "e2da", "generate-dataset", "--config", tiny_config("replay-k5"),
           "--seed", "3", "--out", path]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    dataset = os.path.join(path, "dataset.csv")
    assert bench.check_dataset(dataset) == []
    with open(dataset) as fh:
        lines = fh.read().splitlines(keepends=True)
    header = lines[0].strip().split(",")
    row = lines[1].strip().split(",")
    t_col = header.index("a1_T_s")
    row[t_col] = repr(float(row[t_col]) * 1.5)
    with open(dataset, "w") as fh:
        fh.writelines([lines[0], ",".join(row) + "\n"] + lines[2:])
    assert any("stages sum" in p or "met=" in p for p in bench.check_dataset(dataset))

    metrics = os.path.join(path, "metrics.csv")
    with open(metrics, "w") as fh:
        fh.write("episode,phase,reward,deadline_frac,energy_J,response_s\n0,test,nan,1.0,0.1,0.1\n")
    assert bench.check_metrics(metrics)


def test_fails_without_a_checkout():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "replay-k5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
