import dataclasses
import hashlib
import json
import os

import pytest

from e2da import cli
from e2da.config import (
    config_from_dict,
    config_to_dict,
    load_config,
    with_sweep_value,
)
from e2da.errors import ConfigError
from e2da.ioutil import atomic_write_text, fmt, sha256_file, write_json


class TestIoUtil:
    def test_fmt_primitives(self):
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(0.1) == repr(0.1)
        assert fmt(1e-27) == "1e-27"
        assert fmt(3) == "3"
        assert fmt("x") == "x"

    def test_float_repr_round_trips(self):
        for v in (0.1 + 0.2, 1 / 3, 5e-324, 1.7976931348623157e308):
            assert float(fmt(v)) == v

    def test_atomic_write(self, tmp_path):
        path = str(tmp_path / "a.txt")
        atomic_write_text(path, "body\n")
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
        assert config_to_dict(cfg)["run"]["agent_scope"] == "per_user"
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
        d1 = config_to_dict(cfg)
        d2 = config_to_dict(config_from_dict(d1))
        assert d1 == d2

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


class TestSweepValue:
    def test_mean_preserving_rescale(self):
        cfg = config_from_dict({})
        swept = with_sweep_value(cfg, "intensity", 50_000.0)
        dist = swept.workload.intensity_cpb
        assert dist.kind == "uniform"
        assert (dist.minimum, dist.maximum) == (10.0, 99_990.0)
        assert swept.workload.size_bits == cfg.workload.size_bits
        assert swept.workload.context_bounds is None
        sized = with_sweep_value(cfg, "size", 5000.0)
        assert (sized.workload.size_bits.minimum, sized.workload.size_bits.maximum) == (
            10.0, 9990.0,
        )
        assert sized.workload.intensity_cpb == cfg.workload.intensity_cpb

    def test_rejects_bad_axis_and_mean(self):
        cfg = config_from_dict({})
        with pytest.raises(ConfigError):
            with_sweep_value(cfg, "deadline", 100.0)
        with pytest.raises(ConfigError):
            with_sweep_value(cfg, "size", 10.0)


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
        assert "dataset.csv" in manifest["outputs"]
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


def write_config(tmp_path, name, **sections):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for section, values in sections.items():
        cfg[section].update(values)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
            (_setter("model", "learning_rate", -1), "agent.model.learning_rate"),
            (_setter("model", "rmsprop_decay", 2), "agent.model.rmsprop_decay"),
            (_setter("model", "rmsprop_eps", 0), "agent.model.rmsprop_eps"),
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
         (_met_flipped, "a1_met")],
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
