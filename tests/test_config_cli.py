import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import csv_text
from e2da import cli
from e2da.config import (
    AgentConfig,
    RewardConfig,
    config_from_dict,
    load_config,
    to_json,
    with_sweep_value,
)
from e2da.errors import ConfigError
from e2da.ioutil import atomic_write_text, sha256_file, write_json
from e2da.system import ChannelConfig, NodeConfig
from e2da.workload import Uniform, WorkloadConfig


class TestIoUtil:
    def test_atomic_write(self, tmp_path):
        path = str(tmp_path / "a.txt")
        atomic_write_text(path, ["bo", "dy\n"])
        with open(path) as fh:
            assert fh.read() == "body\n"
        assert os.listdir(tmp_path) == ["a.txt"]  # no stray temp files

    def test_write_json_sorted_with_newline(self, tmp_path):
        path = str(tmp_path / "b.json")
        write_json(path, {"b": 1, "a": {"d": 2, "c": 3}})
        with open(path) as fh:
            text = fh.read()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"c"') < text.index('"d"')
        assert json.loads(text) == {"b": 1, "a": {"d": 2, "c": 3}}

    def test_sha256_matches_hashlib(self, tmp_path):
        path = str(tmp_path / "c.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01" * 4096)
        assert sha256_file(path) == hashlib.sha256(b"\x00\x01" * 4096).hexdigest()


class TestConfigParsing:
    def test_empty_object_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.system.n_users == 5
        assert cfg.system.n_channels == 3
        assert len(cfg.channels) == 3
        assert cfg.agent.hidden_sizes == (50, 50)
        assert cfg.reward.efficiency_scale_bits_per_j_s is None
        assert cfg.run.mode == "dataset"
        assert cfg.run.seed == 0
        assert cfg.run.n_records == 32_565
        assert (cfg.run.n_train_episodes, cfg.run.n_test_episodes, cfg.run.tasks_per_episode) == (
            1000, 100, 100,
        )

    def test_unknown_keys_are_rejected_with_path(self):
        with pytest.raises(ConfigError, match="config"):
            config_from_dict({"bogus": 1})
        with pytest.raises(ConfigError, match="system"):
            config_from_dict({"system": {"n_user": 4}})
        with pytest.raises(ConfigError, match="agent"):
            config_from_dict({"agent": {"hidden": [8]}})
        with pytest.raises(ConfigError, match="workload.size_bits"):
            config_from_dict({"workload": {"size_bits": {"kind": "normal"}}})

    def test_channel_count_mismatch(self):
        ch = {
            "uplink_rate_bps": 1e6, "downlink_rate_bps": 1e6,
            "uplink_power_w": 1.0, "downlink_power_w": 0.5,
        }
        with pytest.raises(ConfigError, match="channels"):
            config_from_dict({"system": {"n_channels": 3}, "channels": [ch, ch]})

    def test_channel_requires_rates_and_powers(self):
        with pytest.raises(ConfigError, match="uplink_rate_bps"):
            config_from_dict({"channels": [{"downlink_rate_bps": 1e6,
                                            "uplink_power_w": 1.0,
                                            "downlink_power_w": 0.5}] * 3})

    def test_association_and_bounds(self):
        cfg = config_from_dict(
            {
                "system": {"n_users": 4, "n_base_stations": 2, "association": [0, 0, 1, 1]},
                "workload": {"context_bounds": [[0, 1e6], [0, 2000], [0, 1]]},
            }
        )
        assert cfg.system.association == (0, 0, 1, 1)
        assert cfg.workload.context_bounds == ((0.0, 1e6), (0.0, 2000.0), (0.0, 1.0))
        with pytest.raises(ConfigError, match="context_bounds"):
            config_from_dict({"workload": {"context_bounds": [[0, 1]]}})

    def test_validation_failures_surface(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_dict({"run": {"mode": "offline"}})
        with pytest.raises(ConfigError, match="n_records"):
            config_from_dict({"run": {"n_records": 0}})
        with pytest.raises(ConfigError, match="association"):
            config_from_dict({"system": {"n_users": 3, "association": [0, 1]}})

    def test_agent_scope_parsing(self):
        assert config_from_dict({}).run.agent_scope == "shared"
        cfg = config_from_dict({"run": {"agent_scope": "per_user"}})
        assert cfg.run.agent_scope == "per_user"
        assert to_json(cfg)["run"]["agent_scope"] == "per_user"
        with pytest.raises(ConfigError, match="agent_scope"):
            config_from_dict({"run": {"agent_scope": "per-user"}})
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"run": {"agent_scope": "per_user", "mode": "live"}})

    def test_dict_form_is_a_fixed_point(self):
        cfg = config_from_dict(
            {
                "system": {"n_users": 4, "n_base_stations": 2},
                "workload": {"arrival_rate_per_s": 25.0},
                "agent": {"hidden_sizes": [8, 8]},
                "reward": {"efficiency_scale_bits_per_j_s": 2e6},
                "run": {"seed": 3, "n_records": 100},
            }
        )
        d1 = to_json(cfg)
        d2 = to_json(config_from_dict(d1))
        assert d1 == d2

    @pytest.mark.parametrize(
        "cls, args, kwargs, key",
        [
            (ChannelConfig, (math.nan, 1e6, 1, 1), {}, "uplink_rate_bps"),
            (ChannelConfig, (1e6, 1e6, math.inf, 1), {}, "uplink_power_w"),
            (NodeConfig, (), {"user_cpu_hz": math.nan}, "user_cpu_hz"),
            (NodeConfig, (), {"user_cpu_hz": math.inf}, "user_cpu_hz"),
            (NodeConfig, (), {"kappa_j_per_cycle_hz2": math.nan}, "kappa_j_per_cycle_hz2"),
            (NodeConfig, (), {"result_size_ratio": math.nan}, "result_size_ratio"),
            (RewardConfig, (), {"efficiency_scale_bits_per_j_s": math.nan},
             "efficiency_scale_bits_per_j_s"),
            (AgentConfig, (), {"init_scale": math.nan}, "init_scale"),
            (AgentConfig, (), {"learning_rate": math.inf}, "learning_rate"),
            (WorkloadConfig, (), {"arrival_rate_per_s": math.inf}, "arrival_rate_per_s"),
        ],
    )
    def test_a_non_finite_value_built_in_python_is_rejected(self, cls, args, kwargs, key):
        # a JSON config cannot hold these: its reader asks for a finite number
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            cls(*args, **kwargs)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


class TestSweepValue:
    def test_mean_preserving_rescale(self):
        cfg = config_from_dict({})
        swept = with_sweep_value(cfg, "intensity", 50_000.0)
        assert swept.workload.intensity_cpb == Uniform(10.0, 99_990.0)
        assert swept.workload.size_bits == cfg.workload.size_bits
        assert swept.workload.context_bounds == ((10.0, 75_000.0), (10.0, 99_990.0), (0.010, 0.018))
        sized = with_sweep_value(cfg, "size", 5000.0)
        assert sized.workload.size_bits == Uniform(10.0, 9990.0)
        assert sized.workload.intensity_cpb == cfg.workload.intensity_cpb

    def test_rejects_bad_axis_and_mean(self):
        cfg = config_from_dict({})
        with pytest.raises(ConfigError):
            with_sweep_value(cfg, "deadline", 100.0)
        with pytest.raises(ConfigError):
            with_sweep_value(cfg, "size", 10.0)

    @pytest.mark.parametrize("mean", [float("inf"), 1e308, float("nan")])
    def test_rejects_a_non_finite_distribution(self, mean):
        # 1e308 is finite, but its max 2 * mean - 10 overflows to infinity
        with pytest.raises(ConfigError, match="size_bits"):
            with_sweep_value(config_from_dict({}), "size", mean)

    @pytest.mark.parametrize("values", ["100,inf", "100,1e308"])
    def test_cli_exits_2_naming_the_feature(self, tmp_path, capsys, config_path, values):
        out = tmp_path / "sweep"
        rc, err = run_cli(
            ["sweep", "--config", config_path, "--out", str(out), "--vary", "size",
             "--values", values, "--agent", "ee"], capsys
        )
        assert rc == 2, err
        assert "size_bits" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, shown, label",
        [("1000000,1000001", ("1000000.0", "1000001.0"), "size-1e+06"),
         ("100,100", ("100.0", "100.0"), "size-100")],
    )
    def test_cli_rejects_values_that_share_a_label(self, tmp_path, capsys, config_path,
                                                   values, shown, label):
        out = tmp_path / "sweep"
        rc, err = run_cli(
            ["sweep", "--config", config_path, "--out", str(out), "--vary", "size",
             "--values", values, "--agent", "ee"], capsys
        )
        assert rc == 2, err
        assert f"{shown[0]} and {shown[1]}" in err and repr(label) in err
        assert not out.exists()


SMALL_CONFIG = {
    "system": {"n_users": 4, "n_base_stations": 2, "n_channels": 3},
    "workload": {"arrival_rate_per_s": 40.0},
    "agent": {"hidden_sizes": [8, 8], "minibatch_size": 8, "buffer_capacity": 256},
    "reward": {"efficiency_scale_bits_per_j_s": 2e6},
    "run": {
        "mode": "dataset",
        "seed": 7,
        "n_records": 150,
        "n_train_episodes": 5,
        "n_test_episodes": 3,
        "tasks_per_episode": 10,
    },
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_manifest(out_dir, command):
    manifest = read_json(os.path.join(out_dir, "manifest.json"))
    assert manifest["command"] == command
    assert manifest["numpy_version"] == np.__version__
    for name, digest in manifest["outputs"].items():
        assert sha256_file(os.path.join(out_dir, name)) == digest
    return manifest


class TestCliEndToEnd:
    def test_full_pipeline(self, tmp_path, config_path, capsys):
        data_dir = str(tmp_path / "data")
        train_dir = str(tmp_path / "train")
        eval_dir = str(tmp_path / "eval")
        dataset_csv = os.path.join(data_dir, "dataset.csv")
        model_json = os.path.join(train_dir, "model.json")

        rc = cli.main(["generate-dataset", "--config", config_path, "--out", data_dir])
        assert rc == 0
        manifest = check_manifest(data_dir, "generate-dataset")
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"dataset.csv", "dataset.csv.npy"}
        assert "wrote 150 records" in capsys.readouterr().out

        rc = cli.main(
            ["train", "--config", config_path, "--out", train_dir,
             "--dataset", dataset_csv]
        )
        assert rc == 0
        manifest = check_manifest(train_dir, "train")
        assert set(manifest["outputs"]) == {"metrics.csv", "model.json"}
        model = read_json(model_json)
        assert model["format"] == "e2da-agent"
        assert model["n_actions"] == 4
        assert model["agent"]["episodes_trained"] == 5

        rc = cli.main(
            ["evaluate", "--config", config_path, "--out", eval_dir,
             "--agent", "e2da", "--dataset", dataset_csv, "--model", model_json]
        )
        assert rc == 0
        manifest = check_manifest(eval_dir, "evaluate")
        assert manifest["scale_origin"] == "checkpoint"
        summary = read_json(os.path.join(eval_dir, "summary.json"))
        assert summary["agents"]["e2da"]["episodes"] == 3
        assert summary["efficiency_scale"] == 2e6

    def test_per_user_pipeline(self, tmp_path, config_path):
        per_user_cfg = json.loads(json.dumps(SMALL_CONFIG))
        per_user_cfg["run"]["agent_scope"] = "per_user"
        pu_config = tmp_path / "per-user.json"
        pu_config.write_text(json.dumps(per_user_cfg))

        data_dir = str(tmp_path / "data")
        assert cli.main(["generate-dataset", "--config", config_path, "--out", data_dir]) == 0
        dataset_csv = os.path.join(data_dir, "dataset.csv")

        train_dirs = [str(tmp_path / f"train{i}") for i in (1, 2)]
        for out in train_dirs:
            rc = cli.main(
                ["train", "--config", str(pu_config), "--out", out,
                 "--dataset", dataset_csv]
            )
            assert rc == 0
            check_manifest(out, "train")
        model_json = os.path.join(train_dirs[0], "model.json")
        model = read_json(model_json)
        assert model["format"] == "e2da-agent-set"
        assert len(model["agents"]) == 4
        assert all(a["episodes_trained"] == 5 for a in model["agents"])
        for name in ("model.json", "metrics.csv", "manifest.json"):
            with open(os.path.join(train_dirs[0], name), "rb") as f1, \
                    open(os.path.join(train_dirs[1], name), "rb") as f2:
                assert f1.read() == f2.read(), name

        eval_dir = str(tmp_path / "eval")
        rc = cli.main(
            ["evaluate", "--config", str(pu_config), "--out", eval_dir,
             "--agent", "e2da", "--dataset", dataset_csv, "--model", model_json]
        )
        assert rc == 0
        summary = read_json(os.path.join(eval_dir, "summary.json"))
        assert summary["agents"]["e2da"]["episodes"] == 3

        resume_dir = str(tmp_path / "resume")
        rc = cli.main(
            ["train", "--config", str(pu_config), "--out", resume_dir,
             "--dataset", dataset_csv, "--resume", model_json]
        )
        assert rc == 0
        resumed = read_json(os.path.join(resume_dir, "model.json"))
        assert all(a["episodes_trained"] == 10 for a in resumed["agents"])

    def test_per_user_checkpoint_mismatches_are_rejected(self, tmp_path, config_path):
        per_user_cfg = json.loads(json.dumps(SMALL_CONFIG))
        per_user_cfg["run"]["agent_scope"] = "per_user"
        pu_config = tmp_path / "per-user.json"
        pu_config.write_text(json.dumps(per_user_cfg))

        data_dir = str(tmp_path / "data")
        assert cli.main(["generate-dataset", "--config", config_path, "--out", data_dir]) == 0
        dataset_csv = os.path.join(data_dir, "dataset.csv")
        train_dir = str(tmp_path / "train")
        assert cli.main(
            ["train", "--config", str(pu_config), "--out", train_dir,
             "--dataset", dataset_csv]
        ) == 0
        model_json = os.path.join(train_dir, "model.json")

        # a set checkpoint cannot seed a shared-agent resume
        shared_resume = str(tmp_path / "resume-shared")
        rc = cli.main(
            ["train", "--config", config_path, "--out", shared_resume,
             "--dataset", dataset_csv, "--resume", model_json]
        )
        assert rc == 2

        # user count embedded in the set must match the config
        widened = json.loads(json.dumps(per_user_cfg))
        widened["system"]["n_users"] = 5
        wide_config = tmp_path / "wide.json"
        wide_config.write_text(json.dumps(widened))
        wide_eval = str(tmp_path / "eval-wide")
        rc = cli.main(
            ["evaluate", "--config", str(wide_config), "--out", wide_eval,
             "--agent", "e2da", "--dataset", dataset_csv, "--model", model_json]
        )
        assert rc == 2

    def test_oracle_evaluation_and_sweep(self, tmp_path, config_path):
        data_dir = str(tmp_path / "data")
        assert cli.main(["generate-dataset", "--config", config_path, "--out", data_dir]) == 0
        dataset_csv = os.path.join(data_dir, "dataset.csv")

        for agent in ("eel", "random"):
            out = str(tmp_path / f"eval-{agent}")
            rc = cli.main(
                ["evaluate", "--config", config_path, "--out", out,
                 "--agent", agent, "--dataset", dataset_csv]
            )
            assert rc == 0
            assert read_json(os.path.join(out, "manifest.json"))["scale_origin"] == "configured"

        sweep_dir = str(tmp_path / "sweep")
        rc = cli.main(
            ["sweep", "--config", config_path, "--out", sweep_dir,
             "--vary", "intensity", "--values", "5000,20000", "--agent", "ee"]
        )
        assert rc == 0
        manifest = check_manifest(sweep_dir, "sweep")
        assert manifest["scale_origin"] == "configured"
        summary = read_json(os.path.join(sweep_dir, "sweep_summary.json"))
        assert manifest["efficiency_scale"] == summary["efficiency_scale"]
        assert summary["axis"] == "intensity"
        assert [s["label"] for s in summary["scenarios"]] == [
            "intensity-5000", "intensity-20000",
        ]
        assert summary["last_over_first"]["energy"] is not None
        assert os.path.exists(os.path.join(sweep_dir, "intensity-5000", "metrics.csv"))

    def test_random_training_log(self, tmp_path, config_path):
        out = str(tmp_path / "rand")
        rc = cli.main(
            ["train", "--config", config_path, "--out", out, "--agent", "random",
             "--dataset", os.path.join(str(tmp_path), "missing.csv")]
        )
        assert rc == 3  # dataset file does not exist
        data_dir = str(tmp_path / "data")
        assert cli.main(["generate-dataset", "--config", config_path, "--out", data_dir]) == 0
        rc = cli.main(
            ["train", "--config", config_path, "--out", out, "--agent", "random",
             "--dataset", os.path.join(data_dir, "dataset.csv")]
        )
        assert rc == 0
        manifest = check_manifest(out, "train")
        assert list(manifest["outputs"]) == ["metrics.csv"]

    def test_seed_override_beats_config(self, tmp_path, config_path):
        out = str(tmp_path / "o")
        assert cli.main(
            ["generate-dataset", "--config", config_path, "--out", out, "--seed", "99"]
        ) == 0
        assert read_json(os.path.join(out, "manifest.json"))["seed"] == 99

    @pytest.mark.parametrize("command", ["generate-dataset", "train", "evaluate", "sweep"])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, trained, command):
        config, dataset, model = trained
        argv = {
            "generate-dataset": ["generate-dataset"],
            "train": ["train", "--dataset", dataset],
            "evaluate": ["evaluate", "--agent", "e2da", "--dataset", dataset, "--model", model],
            "sweep": ["sweep", "--vary", "size", "--values", "5000", "--agent", "ee"],
        }[command]
        out = tmp_path / "out"
        rc, err = run_cli(argv + ["--config", config, "--out", str(out), "--seed", "-1"], capsys)
        assert rc == 2, err
        assert "--seed" in err
        assert not out.exists()

    def test_exit_codes(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "x")
        bad = tmp_path / "bad.json"
        bad.write_text('{"run": {"mode": "offline"}}')
        assert cli.main(["generate-dataset", "--config", str(bad), "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

        missing = str(tmp_path / "nope.json")
        assert cli.main(["generate-dataset", "--config", missing, "--out", out]) == 3

        # train on dataset mode without --dataset is a usage error
        assert cli.main(["train", "--config", config_path, "--out", out]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--agent", "e2da"],
            ["train", "--agent", "random", "--mode", "live", "--resume", "model.json"],
            ["evaluate", "--agent", "e2da", "--mode", "live"],
        ],
    )
    def test_rejected_run_leaves_no_output_dir(self, tmp_path, config_path, capsys, argv):
        out = tmp_path / "emptyout"
        rc, err = run_cli(argv + ["--config", config_path, "--out", str(out)], capsys)
        assert rc == 2, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evaluate", "--agent", "eel", "--mode", "live", "--dataset", "missing.csv",
              "--model", "missing.json"], "--dataset"),
            (["evaluate", "--agent", "eel", "--dataset", "missing.csv", "--model", "missing.json"],
             "--model"),
            (["sweep", "--vary", "size", "--values", "5000", "--agent", "eel",
              "--model", "missing.json"], "--model"),
            (["train", "--agent", "random", "--mode", "live", "--dataset", "missing.csv"],
             "--dataset"),
        ],
    )
    def test_flag_the_run_never_reads_exits_2(self, tmp_path, config_path, capsys, argv, flag):
        """--dataset outside dataset mode and --model with an agent other
        than e2da would be ignored, so the run is refused instead."""
        out = tmp_path / "out"
        rc, err = run_cli(argv + ["--config", config_path, "--out", str(out)], capsys)
        assert rc == 2, err
        assert flag in err
        assert not out.exists()

    def test_help_and_bad_command_exit_codes(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()


class TestSweepKeepsConfig:
    def test_only_the_workload_changes(self):
        cfg = config_from_dict(
            {"run": {"agent_scope": "per_user", "seed": 5}, "agent": {"hidden_sizes": [4]}}
        )
        sized = with_sweep_value(cfg, "size", 5000.0)
        assert sized.workload != cfg.workload
        assert dataclasses.replace(sized, workload=cfg.workload) == cfg


def run_cli(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"system": {"n_users": "x"}}, "system.n_users"),
            ({"system": []}, "system"),
            ({"agent": {"hidden_sizes": 5}}, "agent.hidden_sizes"),
            ({"run": {"n_records": None}}, "run.n_records"),
            ({"channels": [5]}, "channels[0]"),
        ],
    )
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, raw, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        rc, err = run_cli(
            ["generate-dataset", "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert rc == 2, err
        assert key in err

    @pytest.mark.parametrize(
        "section, values, key",
        [
            ("system", {"n_users": 0}, "system.n_users"),
            ("system", {"user_cpu_hz": 0}, "system.user_cpu_hz"),
            ("system", {"kappa_j_per_cycle_hz2": 0}, "system.kappa_j_per_cycle_hz2"),
            ("agent", {"learning_rate": 0}, "agent.learning_rate"),
            ("agent", {"hidden_sizes": []}, "agent.hidden_sizes"),
            ("agent", {"epsilon0": 1.5}, "agent.epsilon0"),
            ("workload", {"arrival_rate_per_s": 0}, "workload.arrival_rate_per_s"),
            ("workload", {"context_bounds": [[0, 1]]}, "workload.context_bounds"),
            ("workload", {"size_bits": {"kind": "exponential", "mean": 1000}},
             "workload.context_bounds"),
            ("workload", {"size_bits": 5}, "workload.size_bits"),
            ("workload", {"size_bits": {"min": 1, "max": 2}}, "workload.size_bits.kind"),
            ("workload", {"size_bits": {"kind": "normal", "mean": 1}}, "workload.size_bits.kind"),
            ("workload", {"size_bits": {"kind": "uniform", "min": 1}}, "workload.size_bits:"),
            ("workload", {"size_bits": {"kind": "constant", "value": 1, "mean": 1}},
             "workload.size_bits:"),
            ("workload", {"size_bits": {"kind": "uniform", "min": 2, "max": 2}},
             "workload.size_bits.max"),
            ("workload", {"size_bits": {"kind": "exponential", "mean": 0}},
             "workload.size_bits.mean"),
            # integers no float can hold
            ("agent", {"learning_rate": 10**400}, "agent.learning_rate"),
            ("run", {"n_records": -10**400}, "run.n_records"),
        ],
    )
    def test_out_of_range_exits_2_naming_file_and_key(self, tmp_path, capsys, section,
                                                      values, key):
        path = write_config(tmp_path, "config.json", **{section: values})
        rc, err = run_cli(
            ["generate-dataset", "--config", path, "--out", str(tmp_path / "o")], capsys
        )
        assert rc == 2, err
        assert f"{path}: {key} " in err

    def test_json_error_names_the_path_once(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        rc, err = run_cli(
            ["generate-dataset", "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert rc == 2, err
        assert err.count(str(path)) == 1

    def test_integer_past_the_parser_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"  # int() parses at most 4,300 digits by default
        path.write_text('{"run": {"seed": ' + "1" * 5000 + "}}")
        rc, err = run_cli(
            ["generate-dataset", "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert rc == 2, err
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize(
        "argv",
        [["generate-dataset"], ["evaluate", "--mode", "live", "--agent", "eel"]],
    )
    def test_fair_share_rounding_to_zero_exits_2(self, tmp_path, capsys, argv):
        # 5e-324 * 1 bps shared by two users of one base station rounds to 0 bps
        raw = {
            "system": {"n_users": 5, "n_channels": 1},
            "channels": [{"uplink_rate_bps": 1.0, "downlink_rate_bps": 1e6,
                          "uplink_power_w": 1, "downlink_power_w": 1,
                          "gain": {"kind": "constant", "value": 5e-324}}],
            "run": {"n_records": 200},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        rc, err = run_cli(argv + ["--config", str(path), "--out", str(tmp_path / "o")], capsys)
        assert rc == 2, err
        assert f"{path}: channels[0]" in err


DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json")


def _key_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _scalar_leaves(node, keys=(), enclosing=""):
    """(key list, enclosing object's key path) of every scalar under node."""
    if not isinstance(node, (dict, list)):
        yield list(keys), enclosing
        return
    for k, value in node.items() if isinstance(node, dict) else enumerate(node):
        child = (*keys, k)
        yield from _scalar_leaves(
            value, child, _key_path(child) if isinstance(value, dict) else enclosing
        )


class TestMalformedConfigSweep:
    def test_every_leaf_returns_or_names_its_object(self):
        with open(DEFAULT_CONFIG) as fh:
            default = json.load(fh)
        leaves = list(_scalar_leaves(default))
        assert (["channels", 1, "gain", "min"], "channels[1].gain") in leaves
        assert (["system", "association", 0], "system") in leaves
        for keys, enclosing in leaves:
            for value in (0, -1, 0.5, 1e308, 5e-324, 10**400, -10**400, True, "x", None, [], {}):
                raw = json.loads(json.dumps(default))
                node = raw
                for k in keys[:-1]:
                    node = node[k]
                node[keys[-1]] = value
                try:
                    config_from_dict(raw)
                except ConfigError as exc:
                    assert enclosing in str(exc), (keys, value, str(exc))


def run_python(args):
    """A fresh interpreter run with `args`, the package under test on its path."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def write_config(tmp_path, name, **sections):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for section, values in sections.items():
        cfg[section].update(values)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# workload and system sections whose calibrated efficiency normalizer is
# 0.0 (every efficiency underflows) or NaN (every edge run takes forever)
HUGE_TASKS = {"size_bits": {"kind": "uniform", "min": 10.0, "max": 1e300}}
SLOW_EDGE = {"edge_vm_hz": 1e-300}
CALIBRATED = {"efficiency_scale_bits_per_j_s": None}
BAD_SCALE = "calibrated efficiency_scale must be finite and > 0, got"


class TestUncomputableNormalizer:
    def test_a_replay_names_its_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "config.json", workload=HUGE_TASKS, reward=CALIBRATED)
        data = str(tmp_path / "data")
        assert run_cli(["generate-dataset", "--config", cfg, "--out", data], capsys)[0] == 0
        dataset = os.path.join(data, "dataset.csv")
        # in a fresh interpreter: the suite turns numpy's overflow warning
        # in the calibration into an error
        done = run_python(["-m", "e2da", "train", "--config", cfg, "--dataset", dataset,
                           "--out", str(tmp_path / "o")])
        assert done.returncode == 2, done.stderr
        assert f"error: {dataset}: {BAD_SCALE} 0.0\n" in done.stderr

    @pytest.mark.parametrize(
        "sections, got",
        [({"workload": HUGE_TASKS}, "0.0"), ({"system": SLOW_EDGE}, "nan")],
    )
    def test_a_live_calibration_names_its_config_key(self, tmp_path, capsys, sections, got):
        cfg = write_config(tmp_path, "config.json", reward=CALIBRATED, **sections)
        rc, err = run_cli(["evaluate", "--mode", "live", "--agent", "eel", "--config", cfg,
                           "--out", str(tmp_path / "o")], capsys)
        assert rc == 2, err
        assert err == f"error: {cfg}: reward.efficiency_scale_bits_per_j_s: {BAD_SCALE} {got}\n"

    def test_a_sweep_names_its_config_and_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "config.json", reward=CALIBRATED)
        rc, err = run_cli(["sweep", "--mode", "live", "--vary", "size", "--values", "1e300",
                           "--agent", "eel", "--config", cfg, "--out", str(tmp_path / "o")],
                          capsys)
        assert rc == 2, err
        assert err == f"error: {cfg}: scenario size-1e+300: {BAD_SCALE} 0.0\n"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset and a shared-agent checkpoint from the small config."""
    root = tmp_path_factory.mktemp("trained")
    config = write_config(root, "config.json")
    assert cli.main(["generate-dataset", "--config", config, "--out", str(root / "data")]) == 0
    dataset = str(root / "data" / "dataset.csv")
    assert cli.main(
        ["train", "--config", config, "--out", str(root / "train"), "--dataset", dataset]
    ) == 0
    return config, dataset, str(root / "train" / "model.json")


class TestSweepManifest:
    def test_records_the_model(self, tmp_path, trained):
        config, _, model = trained
        out = str(tmp_path / "sweep")
        rc = cli.main(
            ["sweep", "--config", config, "--out", out, "--vary", "size", "--values", "5000",
             "--agent", "e2da", "--model", model]
        )
        assert rc == 0
        manifest = check_manifest(out, "sweep")
        assert manifest["model_sha256"] == sha256_file(model)
        assert manifest["scale_origin"] == "checkpoint"
        assert manifest["efficiency_scale"] == read_json(model)["agent"]["reward_params"][
            "efficiency_scale"
        ]


def _drop_agent(p):
    del p["agent"]


def _bad_episodes(p):
    p["agent"]["episodes_trained"] = "many"


def _short_bounds(p):
    p["context_bounds"] = [[0.0, 1.0]]


def _bad_format(p):
    p["format"] = "something-else"


def _more_actions(p):
    p["n_actions"] = 5


def _short_weight_rows(p):
    p["agent"]["model"]["weights"][1] = p["agent"]["model"]["weights"][1][:3]


def _nan_weight(p):
    p["agent"]["model"]["weights"][0][0][0] = float("nan")


def _huge_weight(p):
    p["agent"]["model"]["weights"][0][0][0] = 10**400  # an integer no float can hold


def _huge_episodes(p):
    p["agent"]["episodes_trained"] = 10**400


def _true_weight(p):
    p["agent"]["model"]["weights"][0][0][0] = True


def _false_acc_bias(p):
    p["agent"]["model"]["acc_biases"][0][0] = False


def _short_acc_bias(p):
    p["agent"]["model"]["acc_biases"][2] = [0.0]


def _one_layer(p):
    p["agent"]["model"]["layer_sizes"] = [3]


def _four_inputs(p):
    model = p["agent"]["model"]
    model["layer_sizes"][0] = 4
    for key in ("weights", "acc_weights"):
        model[key][0] = [row + [0.0] for row in model[key][0]]


def _infinite_initial_bias(p):
    model = p["agent"]["model"]
    biases = [list(b) for b in model["biases"]]
    biases[1] = [float("inf")] * len(biases[1])
    p["agent"]["initial_params"] = {"weights": model["weights"], "biases": biases}


def _bound(i, j, value):
    """Mutation setting context_bounds[i][j] to value."""

    def mutate(p):
        p["context_bounds"][i][j] = value

    mutate.__name__ = f"_bound_{i}_{j}_{value}"
    return mutate


def _anchor_missing(p):
    p["agent"]["config"]["retrain_from_scratch"] = True
    p["agent"]["initial_params"] = None


def _anchor_unwanted(p):
    model = p["agent"]["model"]
    p["agent"]["initial_params"] = {"weights": model["weights"], "biases": model["biases"]}


def _setter(section, key, value):
    """Mutation setting agent.<section>.<key> to value."""

    def mutate(p):
        p["agent"][section][key] = value

    mutate.__name__ = f"_{section}_{key}_{value}"
    return mutate


class TestMalformedCheckpoint:
    @pytest.mark.parametrize(
        "mutate, key",
        [
            (_drop_agent, "agent"),
            (_bad_episodes, "agent.episodes_trained"),
            (_short_bounds, "context_bounds"),
            (_bad_format, "format"),
            (_more_actions, "n_actions"),
            (_short_weight_rows, "agent.model.weights[1]"),
            (_nan_weight, "agent.model.weights[0]"),
            (_short_acc_bias, "agent.model.acc_biases[2]"),
            (_infinite_initial_bias, "agent.initial_params.biases[1]"),
            (_anchor_missing, "agent.initial_params"),
            (_anchor_unwanted, "agent.initial_params"),
            (_bound(0, 0, -math.inf), "context_bounds"),
            (_bound(0, 1, math.inf), "context_bounds"),
            (_bound(0, 0, "10.0"), "context_bounds[0][0] must be a finite number"),
            (_bound(1, 0, True), "context_bounds[1][0] must be a finite number"),
            (_one_layer, "agent.model.layer_sizes"),
            (_four_inputs, "agent.model.layer_sizes"),
            (_setter("config", "minibatch_size", 0), "agent.config.minibatch_size"),
            (_setter("config", "epsilon0", 5), "agent.config.epsilon0"),
            (_setter("reward_params", "efficiency_scale", 0), "agent.reward_params.efficiency_scale"),
            (_setter("reward_params", "efficiency_scale", -5), "agent.reward_params.efficiency_scale"),
            (_setter("reward_params", "efficiency_scale", float("nan")),
             "agent.reward_params.efficiency_scale"),
            (_setter("reward_params", "penalty", -1), "agent.reward_params.penalty"),
            (_setter("config", "penalty", float("nan")), "agent.config.penalty"),
            (_setter("config", "penalty", 0.5), "agent.config.penalty"),
            (_setter("model", "learning_rate", -1), "agent.model.learning_rate"),
            (_setter("model", "rmsprop_decay", 2), "agent.model.rmsprop_decay"),
            (_setter("model", "rmsprop_eps", 0), "agent.model.rmsprop_eps"),
            (_setter("model", "learning_rate", 0.5), "agent.model.learning_rate"),
            (_setter("model", "rmsprop_decay", 0.5), "agent.model.rmsprop_decay"),
            (_setter("config", "hidden_sizes", [8, 16]), "agent.model.layer_sizes"),
            (_setter("config", "minibatch_size", 8.5),
             "agent.config.minibatch_size must be an integer"),
            (_setter("config", "train_steps_per_observation", 1.5),
             "agent.config.train_steps_per_observation must be an integer"),
            (_setter("config", "hidden_sizes", [8.5]),
             "agent.config.hidden_sizes[0] must be an integer"),
            (_setter("config", "penalty", True), "agent.config.penalty must be a finite number"),
            (_setter("reward_params", "penalty", True),
             "agent.reward_params.penalty must be a finite number"),
            (_huge_weight, "agent.model.weights[0]"),
            (_huge_episodes, "agent.episodes_trained"),
            (_true_weight, "agent.model.weights[0]"),
            (_false_acc_bias, "agent.model.acc_biases[0]"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_exits_2_naming_file_and_key(self, tmp_path, capsys, trained, command, mutate, key):
        config, dataset, model = trained
        payload = read_json(model)
        mutate(payload)
        broken = str(tmp_path / "broken-model.json")
        write_json(broken, payload)
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", "--dataset", dataset, "--resume", broken],
            "evaluate": ["evaluate", "--agent", "e2da", "--dataset", dataset, "--model", broken],
            "sweep": ["sweep", "--vary", "size", "--values", "5000", "--agent", "e2da",
                      "--model", broken],
        }[command]
        rc, err = run_cli(argv + ["--config", config, "--out", out], capsys)
        assert rc == 2, err
        assert broken in err and key in err

    @pytest.mark.parametrize("mode", ["dataset", "live"])
    def test_action_count_is_checked_against_the_config(self, tmp_path, capsys, trained, mode):
        _, _, model = trained  # 4 actions: local plus 3 channels
        narrow = write_config(tmp_path, "narrow.json", system={"n_channels": 2}, run={"mode": mode})
        argv = ["evaluate", "--config", narrow, "--agent", "e2da", "--model", model]
        if mode == "dataset":
            data = str(tmp_path / "data")
            assert cli.main(["generate-dataset", "--config", narrow, "--out", data]) == 0
            argv += ["--dataset", os.path.join(data, "dataset.csv")]
        rc, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        assert rc == 2, err
        assert model in err and "n_actions" in err


@pytest.fixture(scope="module")
def trained_per_user(tmp_path_factory):
    """A dataset and a per-user checkpoint set from the small config."""
    root = tmp_path_factory.mktemp("trained-per-user")
    config = write_config(root, "config.json", run={"agent_scope": "per_user"})
    assert cli.main(["generate-dataset", "--config", config, "--out", str(root / "data")]) == 0
    dataset = str(root / "data" / "dataset.csv")
    assert cli.main(
        ["train", "--config", config, "--out", str(root / "train"), "--dataset", dataset]
    ) == 0
    return config, dataset, str(root / "train" / "model.json")


class TestMalformedCheckpointSet:
    @staticmethod
    def run_with(tmp_path, capsys, trained_per_user, command, key, value):
        """Run command on the per-user checkpoint with agents[1].config[key]
        set to value, or agents[1][key] when key is episodes_trained;
        returns the broken file's path and stderr."""
        config, dataset, model = trained_per_user
        payload = read_json(model)
        agent = payload["agents"][1]
        (agent if key == "episodes_trained" else agent["config"])[key] = value
        broken = str(tmp_path / "broken-model.json")
        write_json(broken, payload)
        argv = {
            "train": ["train", "--dataset", dataset, "--resume", broken],
            "evaluate": ["evaluate", "--agent", "e2da", "--dataset", dataset, "--model", broken],
            "sweep": ["sweep", "--vary", "size", "--values", "5000", "--agent", "e2da",
                      "--model", broken],
        }[command]
        rc, err = run_cli(argv + ["--config", config, "--out", str(tmp_path / "out")], capsys)
        assert rc == 2, err
        return broken, err

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_penalty_mismatch_exits_2_naming_the_agent(
        self, tmp_path, capsys, trained_per_user, command
    ):
        broken, err = self.run_with(tmp_path, capsys, trained_per_user, command, "penalty", 0.5)
        assert broken in err and "agents[1].config.penalty" in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_missing_anchor_exits_2_naming_the_agent(
        self, tmp_path, capsys, trained_per_user, command
    ):
        broken, err = self.run_with(
            tmp_path, capsys, trained_per_user, command, "retrain_from_scratch", True
        )
        assert broken in err and "agents[1].initial_params" in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    def test_unequal_episode_counts_exit_2_naming_the_agent(
        self, tmp_path, capsys, trained_per_user, command
    ):
        # a set's agents train together, so one count resumes them all
        broken, err = self.run_with(
            tmp_path, capsys, trained_per_user, command, "episodes_trained", 3
        )
        assert broken in err and "agents[1].episodes_trained" in err


class TestPerUserLiveOverride:
    """A per-user config is dataset mode, so --mode live cannot run its
    learned agents; the frozen baselines read no agent and still run."""

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_learned_agent_exits_2_and_writes_nothing(
        self, tmp_path, capsys, trained_per_user, command
    ):
        config, _, model = trained_per_user
        out = str(tmp_path / "out")
        argv = {
            "train": ["train"],
            "evaluate": ["evaluate", "--agent", "e2da", "--model", model],
        }[command]
        rc, err = run_cli(argv + ["--mode", "live", "--config", config, "--out", out], capsys)
        assert rc == 2, err
        assert "run.agent_scope 'per_user' requires dataset mode" in err
        assert not os.path.exists(out)

    def test_an_oracle_still_runs(self, tmp_path, capsys, trained_per_user):
        config, _, _ = trained_per_user
        out = str(tmp_path / "out")
        rc, err = run_cli(["evaluate", "--mode", "live", "--agent", "eel", "--config", config,
                           "--out", out], capsys)
        assert rc == 0, err
        assert read_json(os.path.join(out, "summary.json"))["agents"]["eel"]["episodes"] == 3


def _truncate(row):
    return row[:10]


def _nan_size(row):
    row[4] = "nan"
    return row


def _foreign_user(row):
    row[2] = "99"
    return row


# action 1's columns start after the 7 task columns and action 0's 13
def _stages_off_total(row):
    row[27] = repr(float(row[27]) * 1.001)  # a1_T_s
    return row


def _parts_off_energy(row):
    row[31] = repr(float(row[31]) * 1.001)  # a1_e_total_J
    return row


def _met_flipped(row):
    row[32] = "1" if row[32] == "0" else "0"  # a1_met
    return row


def _cancelling_stages(row):
    """a0's stages 1e16, 1, -1e16, 3 sum to 4 exactly, but to 3 left to right."""
    row[7:14] = ["1e+16", "1.0", "-1e+16", "3.0", "0.0", "0.0", "0.0"]
    row[14] = "3.0"  # a0_T_s
    return row


def _met_as_float(row):
    row[19] = "1.0"  # a0_met
    return row


def _task_id_as_float(row):
    row[1] = "0.0"
    return row


def _hash_prefixed(row):
    row[0] = "#" + row[0]
    return row


def _quoted_size(row):
    row[4] = '"' + row[4] + '"'
    return row


def _spaced_total(row):
    row[27] = " " + row[27]  # a1_T_s
    return row


def _swap_size_and_intensity(lines):
    """Header and data both swap size_bits and intensity_cpb."""
    for cells in lines:
        cells[4], cells[5] = cells[5], cells[4]
    return lines


def _rename_a2_total(lines):
    lines[0][40] = "a2_latency_s"
    return lines


class TestMalformedDataset:
    @pytest.mark.parametrize(
        "mutate, detail",
        [(_truncate, "columns"), (_nan_size, "size_bits"), (_foreign_user, "user_id"),
         (_stages_off_total, "a1_T_s"), (_parts_off_energy, "a1_e_total_J"),
         (_met_flipped, "a1_met"), (_met_as_float, "a0_met must be 0 or 1, got '1.0'"),
         (_task_id_as_float, "invalid literal for int()"),
         (_hash_prefixed, "invalid literal for int()"),
         (_cancelling_stages, "a0_T_s is 3.0 but its parts sum to 4.0")],
    )
    def test_eel_evaluation_exits_2_naming_file_and_row(
        self, tmp_path, capsys, trained, mutate, detail
    ):
        config, dataset, _ = trained
        with open(dataset) as fh:
            lines = fh.read().splitlines()
        lines[3] = ",".join(mutate(lines[3].split(",")))
        broken = str(tmp_path / "broken.csv")
        with open(broken, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rc, err = run_cli(
            ["evaluate", "--config", config, "--out", str(tmp_path / "out"),
             "--agent", "eel", "--dataset", broken],
            capsys,
        )
        assert rc == 2, err
        assert broken in err and "row 3" in err and detail in err

    @pytest.mark.parametrize(
        "mutate, detail",
        [(_swap_size_and_intensity, "column 5 is 'intensity_cpb', expected 'size_bits'"),
         (_rename_a2_total, "column 41 is 'a2_latency_s', expected 'a2_T_s'")],
    )
    def test_eel_evaluation_exits_2_naming_the_wrong_header_column(
        self, tmp_path, capsys, trained, mutate, detail
    ):
        config, dataset, _ = trained
        with open(dataset) as fh:
            lines = mutate([line.split(",") for line in fh.read().splitlines()])
        broken = str(tmp_path / "broken.csv")
        with open(broken, "w") as fh:
            fh.write("".join(",".join(cells) + "\n" for cells in lines))
        rc, err = run_cli(
            ["evaluate", "--config", config, "--out", str(tmp_path / "out"),
             "--agent", "eel", "--dataset", broken],
            capsys,
        )
        assert rc == 2, err
        assert broken in err and detail in err

    @pytest.mark.parametrize("where", ["middle", "end"])
    def test_blank_line_exits_2_naming_its_row(self, tmp_path, capsys, trained, where):
        config, dataset, _ = trained
        with open(dataset) as fh:
            lines = fh.read().splitlines()
        row = 4 if where == "middle" else len(lines)
        lines.insert(row, "")
        broken = str(tmp_path / "broken.csv")
        with open(broken, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rc, err = run_cli(
            ["evaluate", "--config", config, "--out", str(tmp_path / "out"),
             "--agent", "eel", "--dataset", broken],
            capsys,
        )
        assert rc == 2, err
        assert broken in err and f"row {row}: has 0 columns" in err

    @pytest.mark.parametrize("mutate", [_quoted_size, _spaced_total])
    def test_csv_quoting_and_padding_are_accepted(self, tmp_path, capsys, trained, mutate):
        config, dataset, _ = trained
        with open(dataset) as fh:
            lines = fh.read().splitlines()
        lines[3] = ",".join(mutate(lines[3].split(",")))
        padded = str(tmp_path / "padded.csv")
        with open(padded, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        metrics = []
        for name, path in (("plain", dataset), ("padded", padded)):
            out = str(tmp_path / name)
            rc, err = run_cli(
                ["evaluate", "--config", config, "--out", out, "--agent", "eel",
                 "--dataset", path],
                capsys,
            )
            assert rc == 0, err
            with open(os.path.join(out, "metrics.csv"), "rb") as fh:
                metrics.append(fh.read())
        assert metrics[0] == metrics[1]


class TestColumnFileBeside:
    """The column file generate-dataset writes beside dataset.csv is read
    only while it is bound to the CSV's bytes; errors come from the CSV."""

    @staticmethod
    def copy_dataset(dataset, tmp_path):
        """dataset.csv and its column file, copied to tmp_path/data."""
        data = tmp_path / "data"
        data.mkdir()
        for name in ("dataset.csv", "dataset.csv.npy"):
            with open(os.path.join(os.path.dirname(dataset), name), "rb") as fh:
                (data / name).write_bytes(fh.read())
        return str(data / "dataset.csv")

    def test_an_edited_cell_exits_2_naming_its_row(self, tmp_path, capsys, trained):
        config, dataset, _ = trained
        path = self.copy_dataset(dataset, tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[3] = ",".join(_met_flipped(lines[3].split(",")))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert os.path.exists(path + ".npy")
        rc, err = run_cli(
            ["evaluate", "--config", config, "--out", str(tmp_path / "out"),
             "--agent", "eel", "--dataset", path],
            capsys,
        )
        assert rc == 2, err
        assert f"{path} row 3: a1_met" in err

    def test_a_column_file_without_its_csv_fails_as_a_missing_csv(self, tmp_path, capsys, trained):
        config, dataset, _ = trained
        path = self.copy_dataset(dataset, tmp_path)
        argv = ["evaluate", "--config", config, "--out", str(tmp_path / "out"),
                "--agent", "eel", "--dataset", path]
        os.remove(path)
        with_columns = run_cli(argv, capsys)
        os.remove(path + ".npy")
        assert with_columns == run_cli(argv, capsys)
        assert with_columns[0] == 3 and path in with_columns[1]
        assert not os.path.exists(str(tmp_path / "out"))

    def test_train_and_evaluate_record_the_dataset_digest(self, tmp_path, trained):
        config, dataset, model = trained
        digest = sha256_file(dataset)
        assert check_manifest(os.path.dirname(model), "train")["dataset_sha256"] == digest
        for agent, extra in (("eel", []), ("e2da", ["--model", model])):
            out = str(tmp_path / agent)
            argv = ["evaluate", "--config", config, "--out", out, "--agent", agent,
                    "--dataset", dataset]
            assert cli.main(argv + extra) == 0
            assert check_manifest(out, "evaluate")["dataset_sha256"] == digest
        out = str(tmp_path / "live")
        argv = ["evaluate", "--config", config, "--out", out, "--agent", "eel", "--mode", "live"]
        assert cli.main(argv) == 0
        assert "dataset_sha256" not in check_manifest(out, "evaluate")

    def test_per_user_runs_record_the_dataset_digest(self, tmp_path, trained_per_user):
        config, dataset, model = trained_per_user
        digest = sha256_file(dataset)
        assert check_manifest(os.path.dirname(model), "train")["dataset_sha256"] == digest
        out = str(tmp_path / "eval")
        argv = ["evaluate", "--config", config, "--out", out, "--agent", "e2da",
                "--dataset", dataset, "--model", model]
        assert cli.main(argv) == 0
        assert check_manifest(out, "evaluate")["dataset_sha256"] == digest


class TestNonUtf8Input:
    @pytest.mark.parametrize("kind", ["dataset", "config", "model"])
    def test_evaluate_exits_2_naming_file_and_offset(self, tmp_path, capsys, trained, kind):
        config, dataset, model = trained
        inputs = {"config": config, "dataset": dataset, "model": model}
        with open(inputs[kind], "rb") as fh:
            data = fh.read()
        broken = str(tmp_path / f"broken-{os.path.basename(inputs[kind])}")
        with open(broken, "wb") as fh:
            fh.write(data[:100] + b"\xff" + data[100:])
        inputs[kind] = broken
        rc, err = run_cli(
            ["evaluate", "--config", inputs["config"], "--out", str(tmp_path / "out"),
             "--agent", "e2da", "--dataset", inputs["dataset"], "--model", inputs["model"]],
            capsys,
        )
        assert rc == 2, err
        assert broken in err and "byte 0xff at offset 100" in err


class TestDatasetModeDigests:
    """metrics.csv bytes of dataset-mode runs that never touch a matmul, so
    they do not depend on the BLAS build: any change to parsing, scoring,
    oracle ranking or episode booking changes a digest."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["evaluate", "--agent", "eel"],
             "74904f1c2cd023675723fca91e9d658b4958f19fa2a8adf810da2ec61d3319c2"),
            (["evaluate", "--agent", "ee"],
             "74904f1c2cd023675723fca91e9d658b4958f19fa2a8adf810da2ec61d3319c2"),
            (["evaluate", "--agent", "r"],
             "911793ef3f99b2f9c0fdef268ba0ab631fee3ef1e1274bf11e70e74a3e66819d"),
            (["evaluate", "--agent", "random"],
             "71ff87d2793f2707ea370df26d7875a904635892061292dbc8f197fcf47b652d"),
            (["train", "--agent", "random"],
             "b3bde78680243c9f30c4efd45aa4d54d2878456292369c105bc48235b800e375"),
        ],
    )
    def test_metrics_digest(self, tmp_path, trained, argv, digest):
        config, dataset, _ = trained
        out = str(tmp_path / "out")
        assert cli.main(argv + ["--config", config, "--out", out, "--dataset", dataset]) == 0
        assert sha256_file(os.path.join(out, "metrics.csv")) == digest

    @pytest.mark.parametrize(
        "agent, digest",
        [("eel", "2c4a1724af23dd0456a19a977d3106e9d918018d621bf087e86d7522975c5fd1"),
         ("ee", "5352a93125066b6501a12ef70e94885b70be48e6f3d7ebadade4763321fa10e1")],
    )
    def test_calibrated_summary_digest(self, tmp_path, trained, agent, digest):
        """With the normalizer calibrated from the dataset, summary.json pins
        the percentile and every scaled reward."""
        _, dataset, _ = trained
        config = write_config(tmp_path, "calibrated.json",
                              reward={"efficiency_scale_bits_per_j_s": None})
        out = str(tmp_path / "out")
        argv = ["evaluate", "--agent", agent, "--config", config, "--out", out,
                "--dataset", dataset]
        assert cli.main(argv) == 0
        assert sha256_file(os.path.join(out, "summary.json")) == digest

    def test_calibrating_evaluate_never_imports_numpy_ma(self, tmp_path, trained):
        """np.percentile imports numpy.ma on first use; the calibration's
        own percentile does not, so a calibrating command never loads it.
        A replay never loads the simulator either."""
        _, dataset, _ = trained
        config = write_config(tmp_path, "calibrated.json",
                              reward={"efficiency_scale_bits_per_j_s": None})
        argv = ["evaluate", "--agent", "eel", "--config", config, "--out",
                str(tmp_path / "out"), "--dataset", dataset]
        probe = ("import sys; from e2da import cli; rc = cli.main(sys.argv[1:]); "
                 "print(rc, 'numpy.ma' in sys.modules, 'e2da.netsim' in sys.modules)")
        done = run_python(["-c", probe, *argv])
        assert done.stdout.split()[-3:] == ["0", "False", "False"], done.stderr
        assert read_json(os.path.join(str(tmp_path / "out"), "manifest.json"))[
            "scale_origin"] == "dataset_percentile"

    def test_per_user_split_digest(self, trained):
        from e2da.experiment import Dataset, split_by_user

        _, dataset, _ = trained
        part = split_by_user(Dataset.from_csv(dataset), 4)[1]
        assert hashlib.sha256(csv_text(part).encode()).hexdigest() == (
            "7f08033aa576d9b24afe1a201305d51b9f15cfc0f6173bf4d9724de0e81ea69c"
        )


class TestProcessEntry:
    """`python -m e2da` and the console script run cli.main in one entry,
    which freezes the collector before exit.  The probes run a fresh
    interpreter, whose modules no earlier test has loaded."""

    def test_importing_the_package_loads_no_module(self):
        probe = "import sys, e2da; print(sorted(m for m in sys.modules if m.startswith('e2da.')))"
        done = run_python(["-c", probe])
        assert done.returncode == 0 and done.stdout.split() == ["[]"], done.stderr

    def test_version_exits_0(self):
        from e2da import __version__

        done = run_python(["-m", "e2da", "--version"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["e2da", __version__]

    def test_malformed_config_exits_2_naming_the_file(self, tmp_path):
        config = write_config(tmp_path, "bad.json", run={"n_records": "many"})
        done = run_python(["-m", "e2da", "evaluate", "--agent", "eel", "--config", config,
                           "--out", str(tmp_path / "out")])
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: {config}: run.n_records"), done.stderr

    def test_dataset_train_loads_no_simulator_and_freezes_nothing(self, tmp_path, trained):
        config, dataset, _ = trained
        argv = ["train", "--config", config, "--out", str(tmp_path / "out"), "--dataset", dataset]
        probe = ("import gc, sys; from e2da import cli; rc = cli.main(sys.argv[1:]); "
                 "print(rc, 'e2da.netsim' in sys.modules, gc.get_freeze_count())")
        done = run_python(["-c", probe, *argv])
        assert done.stdout.split()[-3:] == ["0", "False", "0"], done.stderr

    def test_entry_freezes_the_collector_after_main(self, monkeypatch):
        from e2da import __main__ as entry

        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        monkeypatch.setattr(entry.gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            entry.run()
        assert exc.value.code == 3 and calls == ["main", "freeze"]


class TestLiveModeDigests:
    """metrics.csv bytes of live runs on the small config whose policies do
    no matmul, so they do not depend on the BLAS build: they pin every
    realized stage time the simulator's event loop books."""

    @pytest.mark.parametrize(
        "agent, digest",
        [("eel", "61407e07ece9048c4eb3664c30fbebc327d9e2e25d7792a8dbfd91bbdbed54f1"),
         ("ee", "138639cbb69cac759e01a956c762ee145e36233cea330f383986a564a9dbf9d8"),
         ("r", "88b25a6ecbab7702b99c3bbdb6a8c0be48cc61531b9ca08fe66f25763825c6da"),
         ("random", "3e810c3fc03388dcd995349f33cf9e2aac40695de713e8f90bc632aec6bf1d96")],
    )
    def test_metrics_digest(self, tmp_path, agent, digest):
        config = write_config(tmp_path, "live.json", run={"mode": "live"})
        out = str(tmp_path / "out")
        assert cli.main(["evaluate", "--agent", agent, "--config", config, "--out", out]) == 0
        assert sha256_file(os.path.join(out, "metrics.csv")) == digest

    def test_random_train_digest(self, tmp_path):
        """The random baseline's train log books live outcomes as they settle."""
        config = write_config(tmp_path, "live.json", run={"mode": "live"})
        out = str(tmp_path / "out")
        assert cli.main(["train", "--agent", "random", "--config", config, "--out", out]) == 0
        assert sha256_file(os.path.join(out, "metrics.csv")) == (
            "c3b88bc0894bdfa0975c853a12250ca1f57d1ce24383d0f4e0a6e5ed86f6c5da"
        )
