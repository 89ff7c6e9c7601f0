import hashlib
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from conftest import MUTATIONS, csv_text, mutated, mutation_columns
from e2da import dataset as dataset_module
from e2da import workload as workload_module
from e2da import experiment, ioutil
from e2da.bandit import E2daAgent, RewardParams, compute_reward, efficiency
from e2da.config import AgentConfig
from e2da.errors import ConfigError
from e2da.experiment import (
    Dataset,
    MetricsRow,
    average_rows,
    calibrate_efficiency_scale,
    calibrate_efficiency_scale_live,
    generate_dataset,
    linear_percentile,
    make_policy,
    metrics_to_csv_text,
    run_evaluation,
    run_live_evaluation,
    run_live_training,
    run_training,
    run_training_per_user,
    split_by_user,
    summarize,
    write_metrics,
)
from e2da.baselines import r_star
from e2da.dataset import column_path, load_dataset, save_dataset
from e2da.ioutil import sha256_file
from e2da.netsim import Simulator
from e2da.rng import substream
from e2da.system import NodeConfig, default_channels
from e2da.workload import WorkloadConfig, arrivals, normalize_context, task_stream


def live_evaluation(name, node, channels, wl, params, n_episodes, tasks_per_episode, seed,
                    agents=()):
    """run_live_evaluation of the named policy, built as the CLI builds it:
    random draws from the run's logging-policy substream."""
    choose = make_policy(name, agents, substream(seed, "logging-policy"), node.n_channels + 1)
    return run_live_evaluation(choose, node, channels, wl, params, n_episodes, tasks_per_episode,
                               seed)


@pytest.fixture(scope="module")
def small_node():
    return NodeConfig(n_users=4, n_base_stations=2, n_channels=3)


@pytest.fixture(scope="module")
def small_dataset(small_node):
    return generate_dataset(
        small_node, default_channels(), WorkloadConfig(), n_records=200, seed=42
    )


def tiled(dataset, times):
    """The dataset's records repeated `times` times."""
    return Dataset({k: np.concatenate([c] * times) for k, c in dataset.columns().items()})


class TestGenerateDataset:
    def test_exact_count_and_contiguous_ids(self, small_dataset):
        assert len(small_dataset) == 200
        assert small_dataset.record_id.tolist() == list(range(200))

    def test_action_indexed_outcomes(self, small_dataset):
        """Column a of every action field holds action a's outcome: action 0
        runs locally (CPU energy, no radio), actions 1..3 offload (radio
        energy, no CPU)."""
        assert small_dataset.n_actions == 4
        assert small_dataset.total_s.shape == small_dataset.met_deadline.shape == (200, 4)
        assert (small_dataset.e_cpu_j[:, 0] > 0).all()
        assert (small_dataset.e_tx_j[:, 0] == 0).all() and (small_dataset.e_rx_j[:, 0] == 0).all()
        assert (small_dataset.e_cpu_j[:, 1:] == 0).all() and (small_dataset.e_tx_j[:, 1:] > 0).all()

    def test_arrivals_are_time_ordered(self, small_dataset):
        arrivals = small_dataset.arrival_s.tolist()
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_deterministic_regeneration(self, small_node, small_dataset):
        again = generate_dataset(
            small_node, default_channels(), WorkloadConfig(), n_records=200, seed=42
        )
        assert csv_text(again) == csv_text(small_dataset)

    def test_seed_changes_content(self, small_node, small_dataset):
        other = generate_dataset(
            small_node, default_channels(), WorkloadConfig(), n_records=200, seed=43
        )
        assert csv_text(other) != csv_text(small_dataset)

    def test_golden_digest(self, tmp_path):
        """The bytes of a loaded K=50 dataset, pinned: a simulator change that
        moves any logged outcome by one ulp changes this digest."""
        node = NodeConfig(n_users=50, n_base_stations=3, n_channels=3)
        wl = WorkloadConfig(arrival_rate_per_s=100.0)
        path = tmp_path / "dataset.csv"
        generate_dataset(node, default_channels(), wl, n_records=500, seed=2023).write_csv(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "14d7c46bad189db214df70b89604c469e8fa91e49b0f55f9111ab57d14473793"
        )

    def test_rejects_empty_request(self, small_node):
        with pytest.raises(ConfigError):
            generate_dataset(
                small_node, default_channels(), WorkloadConfig(), n_records=0, seed=1
            )


class TestDatasetCsv:
    def test_round_trip_is_exact(self, small_dataset, tmp_path):
        path = str(tmp_path / "records.csv")
        small_dataset.write_csv(path)
        back = Dataset.from_csv(path)
        assert len(back) == len(small_dataset)
        for name, column in small_dataset.columns().items():
            read = getattr(back, name)
            assert read.dtype == column.dtype and np.array_equal(read, column), name

    def test_array_checks_agree_with_the_scalar_parser(self, small_dataset):
        """The column file's gate is sound: of the rows mutated where its
        array checks are tight, every row whose cells have column values
        and that _valid_rows clears is a row the scalar parser accepts."""
        import random

        text = csv_text(small_dataset).splitlines()
        header, rows = text[0].split(","), text[1:41]
        columns = mutation_columns(header)
        n_act, met_cols = small_dataset.n_actions, set(columns["met"])

        def as_columns(cells):
            """The row as one-row Dataset columns, or None when a cell has
            no column value."""
            try:
                values = [int(c) for c in cells[:3]] + [
                    {"0": False, "1": True}[c] if i in met_cols else float(c)
                    for i, c in enumerate(cells[3:], 3)
                ]
                return dataset_module._rows_to_columns([values], n_act)
            except (KeyError, ValueError, OverflowError):
                return None

        rng = random.Random(5)
        verdicts = []
        for _ in range(150):
            cells = [row.split(",") for row in rows]
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(sorted(columns))
                row, col = rng.choice(cells), rng.choice(columns[kind])
                row[col] = mutated(row[col], rng.choice(MUTATIONS[kind]))
            for row, original in zip(cells, rows):
                converted = as_columns(row)
                if ",".join(row) == original or converted is None:
                    continue
                cleared = bool(dataset_module._valid_rows(converted)[0])
                verdicts.append(cleared)
                if cleared:
                    dataset_module._parse_record(row, n_act, len(header))  # raises if unsound
        assert True in verdicts and False in verdicts

    def test_round_trip_text_is_stable(self, small_dataset, tmp_path):
        path = str(tmp_path / "records.csv")
        small_dataset.write_csv(path)
        assert csv_text(Dataset.from_csv(path)) == csv_text(small_dataset)

    # Edge cases of the streamed reader, on files longer than two of
    # check_utf8's chunks.

    @staticmethod
    def read_or_error(path):
        """The text or error message of reading path."""
        try:
            return csv_text(Dataset.from_csv(path))
        except ConfigError as exc:
            return str(exc)

    @staticmethod
    def write_bytes(path, data):
        assert len(data) > 2 * ioutil._UTF8_CHUNK
        with open(path, "wb") as fh:
            fh.write(data)

    @pytest.fixture()
    def lines(self, small_dataset):
        """The lines of a file with 3 x 200 records, several chunks long."""
        return csv_text(tiled(small_dataset, 3)).splitlines()

    @pytest.mark.parametrize(
        "cell, value, detail",
        [(4, "nan", "size_bits must be finite and positive"),
         (4, "1e400", "size_bits must be finite and positive"),
         (19, "2", "a0_met must be 0 or 1"),
         (1, "1.0", "invalid literal for int()")],
    )
    def test_malformed_row_after_the_first_chunk_is_named(
        self, lines, tmp_path, cell, value, detail
    ):
        row = 400
        cells = lines[row].split(",")
        cells[cell] = value
        lines[row] = ",".join(cells)
        path = str(tmp_path / "broken.csv")
        self.write_bytes(path, ("\n".join(lines) + "\n").encode())
        message = self.read_or_error(path)
        assert message.startswith(f"{path} row {row}: ") and detail in message

    @pytest.mark.parametrize("start", [-1, -2])
    def test_bad_utf8_across_a_chunk_boundary_names_its_offset(self, lines, tmp_path, start):
        data = ("\n".join(lines) + "\n").encode()
        at = 2 * ioutil._UTF8_CHUNK + start  # a 3-byte sequence cut short
        path = str(tmp_path / "broken.csv")
        self.write_bytes(path, data[:at] + b"\xe2\x82" + data[at:])
        assert self.read_or_error(path) == (
            f"{path} is not UTF-8 text: byte 0xe2 at offset {at}"
        )

    def test_valid_utf8_across_a_chunk_boundary_names_its_row(self, lines, tmp_path):
        data = ("\n".join(lines) + "\n").encode()
        at = ioutil._UTF8_CHUNK - 1  # the two bytes of "é" straddle the chunk boundary
        row = data[:at].count(b"\n")  # the line it breaks, 0 being the header
        path = str(tmp_path / "broken.csv")
        self.write_bytes(path, data[:at] + "é".encode() + data[at:])
        assert self.read_or_error(path).startswith(f"{path} row {row}: ")

    def test_missing_final_newline_reads_the_same(self, lines, tmp_path):
        path = str(tmp_path / "records.csv")
        self.write_bytes(path, "\n".join(lines).encode())
        assert self.read_or_error(path) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("ending", ["", "\n"])
    def test_header_only_file_has_no_records(self, lines, tmp_path, ending):
        path = str(tmp_path / "empty.csv")
        with open(path, "w") as fh:
            fh.write(lines[0] + ending)
        assert self.read_or_error(path) == lines[0] + "\n"
        assert Dataset.from_csv(path).n_actions == 4

    @pytest.mark.parametrize("row", [1, 300, 600])
    def test_blank_line_is_named(self, lines, tmp_path, row):
        lines.insert(row, "")
        path = str(tmp_path / "blank.csv")
        self.write_bytes(path, ("\n".join(lines) + "\n").encode())
        assert self.read_or_error(path) == (
            f"{path} row {row}: has 0 columns, the header has 59"
        )

    def test_writer_failing_mid_stream_leaves_the_old_file(
        self, small_dataset, tmp_path, monkeypatch
    ):
        from e2da import dataset

        path = str(tmp_path / "records.csv")
        small_dataset.subset(np.arange(10)).write_csv(path)
        with open(path, "rb") as fh:
            before = fh.read()
        calls = []
        float_texts = dataset._float_texts

        def fail_third_chunk(values):
            calls.append(os.path.exists(path + ".tmp"))
            if len(calls) == 3:
                raise RuntimeError("render failed")
            return float_texts(values)

        monkeypatch.setattr(dataset, "_ROW_CHUNK", 16)
        monkeypatch.setattr(dataset, "_float_texts", fail_third_chunk)
        with pytest.raises(RuntimeError, match="render failed"):
            small_dataset.write_csv(path)
        assert calls == [True, True, True]  # rendering ran while the temp file was open
        assert os.listdir(tmp_path) == ["records.csv"]
        with open(path, "rb") as fh:
            assert fh.read() == before


class TestDatasetCsvMemory:
    """tracemalloc peaks of the codec, which are deterministic for one code
    path: reading holds the columns plus bounded buffers, and writing holds
    one chunk of rendered rows whatever the row count."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("quoted", [False, True])
    def test_reading_peaks_below_twice_the_file(self, small_dataset, tmp_path, quoted):
        """A file with one quoted cell streams too."""
        path = str(tmp_path / "records.csv")
        tiled(small_dataset, 10).write_csv(path)
        if quoted:
            with open(path) as fh:
                lines = fh.read().splitlines(keepends=True)
            cells = lines[3].split(",")
            cells[4] = f'"{cells[4]}"'  # size_bits
            lines[3] = ",".join(cells)
            with open(path, "w") as fh:
                fh.writelines(lines)
        size = os.path.getsize(path)
        assert size > 1_000_000
        assert self.peak_bytes(lambda: Dataset.from_csv(path)) < 2 * size

    def test_writing_peak_does_not_grow_with_the_rows(self, small_dataset, tmp_path):
        peaks = []
        for times in (5, 20):
            big = tiled(small_dataset, times)
            peaks.append(self.peak_bytes(lambda: big.write_csv(str(tmp_path / "records.csv"))))
        assert os.path.getsize(tmp_path / "records.csv") > 2_500_000
        assert peaks[1] < peaks[0] + 2**20


def column_bits(dataset):
    """Every column's dtype, shape and bytes, floats read as int64, so
    -0.0 and 0.0 differ."""
    return {
        name: (c.dtype.str, c.shape, (c.view(np.int64) if c.dtype == np.float64 else c).tobytes())
        for name, c in dataset.columns().items()
    }


def write_column_records(path, digest, columns):
    """A column file written record by record with np.save: the CSV's hex
    sha256 as a 0-d bytes array, then the given arrays."""
    with open(path, "wb") as fh:
        np.save(fh, np.array(digest.encode("ascii")))
        for column in columns:
            np.save(fh, column)


def _with_column(name, change):
    def mutate(columns):
        columns[name] = change(columns[name])
        return columns
    return mutate


def _flip_one_verdict(met):
    met = met.copy()
    met[7, 2] = not met[7, 2]
    return met


def _bump_one_total(total):
    total = total.copy()
    total[11, 1] *= 1.5
    return total


class TestColumnFile:
    """save_dataset's column file, and load_dataset, which reads it only
    when it is bound to the CSV's bytes and valid, and otherwise parses
    the CSV text."""

    @pytest.fixture
    def saved(self, small_dataset, tmp_path):
        path = str(tmp_path / "dataset.csv")
        digest = save_dataset(small_dataset, path)
        assert digest == sha256_file(path)
        return path, digest

    @pytest.fixture
    def text_parses(self, monkeypatch):
        """The paths whose CSV text is parsed (every parse is _read_rows)."""
        calls = []
        real = dataset_module._read_rows

        def spy(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(dataset_module, "_read_rows", spy)
        return calls

    def test_file_is_the_digest_then_every_column_as_npy_records(self, small_dataset, saved):
        path, digest = saved
        assert column_path(path) == path + ".npy"
        columns = small_dataset.columns()
        with open(column_path(path), "rb") as fh:
            records = [np.load(fh, allow_pickle=False) for _ in range(1 + len(columns))]
            assert fh.read() == b""
        assert records[0] == np.array(digest.encode("ascii"))
        assert list(columns) == list(dataset_module._COLUMNS)
        for record, column in zip(records[1:], columns.values()):
            assert record.dtype == column.dtype and np.array_equal(record, column)
        rewritten = path + ".copy"
        write_column_records(rewritten, digest, columns.values())
        with open(rewritten, "rb") as a, open(column_path(path), "rb") as b:
            assert a.read() == b.read()

    def test_loader_matches_from_csv_bit_for_bit(self, saved, text_parses):
        path, digest = saved
        want = column_bits(Dataset.from_csv(path))  # without a digest, always the text
        assert text_parses == [path]
        text_parses.clear()
        loaded, got_digest = load_dataset(path)
        assert (column_bits(loaded), got_digest, text_parses) == (want, digest, [])
        os.remove(column_path(path))
        loaded, got_digest = load_dataset(path)
        assert (column_bits(loaded), got_digest, text_parses) == (want, digest, [path])

    @pytest.mark.parametrize(
        "kind",
        ["missing", "empty", "truncated", "truncated head", "trailing bytes", "garbage",
         "pickled", "8 TiB header", "shape beyond int64", "float32 sizes", "int32 ids", "int8 verdicts", "extra action",
         "one row short", "two-d record ids", "one action", "another dataset",
         "flipped verdict", "total off its parts", "negative deadline", "nan intensity"],
    )
    def test_an_unusable_column_file_gives_the_csv_result(
        self, small_node, small_dataset, saved, text_parses, kind
    ):
        path, digest = saved
        target = column_path(path)
        with open(target, "rb") as fh:
            good = fh.read()
        columns = dict(small_dataset.columns())
        records = {
            "float32 sizes": _with_column("size_bits", lambda c: c.astype(np.float32)),
            "int32 ids": _with_column("user_id", lambda c: c.astype(np.int32)),
            "int8 verdicts": _with_column("met_deadline", lambda c: c.astype(np.int8)),
            "extra action": _with_column("total_s", lambda c: np.hstack([c, c[:, :1]])),
            "one row short": _with_column("e_tx_j", lambda c: c[:-1]),
            "two-d record ids": _with_column("record_id", lambda c: c[:, None]),
            "one action": lambda cols: {k: (v[:, :1] if v.ndim == 2 else v) for k, v in cols.items()},
            "flipped verdict": _with_column("met_deadline", _flip_one_verdict),
            "total off its parts": _with_column("e_total_j", _bump_one_total),
            "negative deadline": _with_column("deadline_s", lambda c: -c),
            "nan intensity": _with_column("intensity_cpb", lambda c: np.where(c > 0, np.nan, c)),
        }
        if kind == "missing":
            os.remove(target)
        elif kind in records:
            write_column_records(target, digest, records[kind](columns).values())
        else:
            content = {
                "empty": b"",
                "truncated": good[:-100],
                "truncated head": good[:50],
                "trailing bytes": good + b"\0",
                "garbage": substream(5, "garbage").bytes(len(good)),
            }.get(kind)
            if kind == "pickled":
                write_column_records(target, digest, [np.array([{"x": 1}], dtype=object)])
            elif kind in ("8 TiB header", "shape beyond int64"):
                # a header that asks read_array to allocate more than any host
                # has (MemoryError) or more elements than int64 counts (OverflowError)
                write_column_records(target, digest, [])
                shape = (2**40,) if kind == "8 TiB header" else (2**70,)
                with open(target, "ab") as fh:
                    np.lib.format.write_array_header_1_0(
                        fh, {"descr": "<f8", "fortran_order": False, "shape": shape}
                    )
                    fh.write(bytes(64))
            elif kind == "another dataset":
                other = generate_dataset(
                    small_node, default_channels(), WorkloadConfig(), n_records=200, seed=43
                )
                save_dataset(other, str(target) + ".csv")
                os.replace(str(target) + ".csv.npy", target)
            else:
                with open(target, "wb") as fh:
                    fh.write(content)
        want = column_bits(Dataset.from_csv(path))
        text_parses.clear()
        loaded, got_digest = load_dataset(path)
        assert (column_bits(loaded), got_digest, text_parses) == (want, digest, [path])
        assert want == column_bits(small_dataset)


class TestCalibration:
    def test_matches_numpy_percentile(self, small_dataset):
        effs = []
        totals, energies = small_dataset.total_s.tolist(), small_dataset.e_total_j.tolist()
        for size, total, energy in zip(small_dataset.size_bits.tolist(), totals, energies):
            for t, e in zip(total, energy):
                effs.append(size / (t * e))
        want = float(np.percentile(np.array(effs), 99.0))
        assert calibrate_efficiency_scale(small_dataset) == want
        want50 = float(np.percentile(np.array(effs), 50.0))
        assert calibrate_efficiency_scale(small_dataset, 50.0) == want50

    def test_linear_percentile_matches_numpy_bit_for_bit(self):
        """28,000 arrays of 1 to 3,000 values, with ties, at percentiles
        from 0 to 100, the ends and the calibration's 99 included."""
        rng = substream(43, "percentiles")
        for case in range(28_000):
            n = int(rng.integers(1, 3001)) if case % 4 else int(rng.integers(1, 12))
            kind = case % 4
            if kind == 0:
                values = rng.random(n)
            elif kind == 1:
                values = rng.integers(0, 5, n).astype(np.float64)  # many ties
            elif kind == 2:
                values = np.exp(rng.normal(0.0, 20.0, n))  # efficiencies span decades
            else:
                values = np.round(rng.normal(0.0, 1e6, n), -5)
            q = float(rng.choice([0.0, 1.0, 50.0, 99.0, 99.9, 100.0])) if case % 3 == 0 \
                else float(rng.uniform(0.0, 100.0))
            got = linear_percentile(values, q)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.percentile(values, q).tobytes(), (n, q)

    def test_linear_percentile_keeps_nan_and_infinities(self):
        with np.errstate(invalid="ignore"):  # numpy's own lerp makes inf - inf
            for values in ([np.nan, 1.0, 2.0], [3.0, np.nan], [1.0, np.inf], [np.inf],
                           [1.0, 2.0, -np.inf], [7.5]):
                for q in (0.0, 50.0, 99.0, 100.0):
                    want = np.percentile(np.array(values), q)
                    assert np.float64(linear_percentile(values, q)).tobytes() == want.tobytes()

    def test_live_calibration_deterministic_and_positive(self, small_node):
        a = calibrate_efficiency_scale_live(
            small_node, default_channels(), WorkloadConfig(), seed=5
        )
        b = calibrate_efficiency_scale_live(
            small_node, default_channels(), WorkloadConfig(), seed=5
        )
        assert a == b and a > 0.0

    @pytest.mark.parametrize("percentile", [99.0, 50.0])
    def test_live_calibration_matches_a_hand_driven_random_run(self, small_node, percentile):
        """The live calibration is the percentile of the realized
        efficiencies of the first 2,000 arrivals, each sent where one scalar
        draw from the calibration stream says."""
        wl, seed = WorkloadConfig(), 9
        rng = substream(seed, "calibration-actions")
        policy = lambda sim, task: int(rng.integers(small_node.n_channels + 1))  # noqa: E731
        sim = Simulator(small_node, default_channels(), substream(seed, "gains"), policy=policy)
        sim.add_arrivals(itertools.islice(arrivals(wl, seed, small_node.n_users), 2000))
        effs = []
        while sim.has_events:
            out = sim.advance()
            if out is not None:
                effs.append(efficiency(out.size_bits, out.total_s, out.e_total_j))
        assert len(effs) == 2000
        want = linear_percentile(effs, percentile)
        got = calibrate_efficiency_scale_live(
            small_node, default_channels(), wl, seed, percentile=percentile
        )
        assert got == want


class TestSummarize:
    def rows(self, phase, rewards, fracs, energies, responses):
        return [
            MetricsRow(i, phase, r, f, e, t)
            for i, (r, f, e, t) in enumerate(zip(rewards, fracs, energies, responses))
        ]

    def test_means_per_name(self):
        rows_a = self.rows("test", [1.0, 3.0], [0.5, 1.0], [2.0, 4.0], [1.0, 3.0])
        rows_b = self.rows("test", [2.0, 6.0], [1.0, 1.0], [1.0, 2.0], [0.5, 0.5])
        got = summarize({"a": rows_a, "b": rows_b}, tasks_per_episode=10)
        a, b = got["agents"]["a"], got["agents"]["b"]
        assert a["episodes"] == 2
        assert a["mean_episode_reward"] == 2.0
        assert a["mean_deadline_fraction"] == 0.75
        assert a["mean_task_energy_j"] == 6.0 / 20
        assert a["mean_task_response_s"] == 4.0 / 20
        assert b["mean_episode_reward"] == 4.0

    def test_filters_phase(self):
        rows_a = self.rows("test", [0.0], [0.0], [1.0], [1.0]) + self.rows(
            "train", [9.0], [1.0], [9.0], [9.0]
        )
        rows_b = self.rows("test", [5.0], [1.0], [2.0], [2.0])
        got = summarize({"a": rows_a, "b": rows_b}, tasks_per_episode=1)
        assert got["agents"]["a"]["mean_episode_reward"] == 0.0
        assert got["agents"]["a"]["episodes"] == 1
        assert got["agents"]["b"]["mean_task_energy_j"] == 2.0

    def test_missing_phase_rejected(self):
        with pytest.raises(ValueError):
            summarize({"a": self.rows("train", [1.0], [1.0], [1.0], [1.0])}, 1)


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            MetricsRow(0, "train", -1.25, 0.5, 1e-3, 0.125),
            MetricsRow(1, "test", 97.333333333333333, 1.0, 0.1 + 0.2, 3.0),
        ]
        path = str(tmp_path / "metrics.csv")
        write_metrics(path, rows)
        with open(path, encoding="utf-8", newline="") as fh:
            next(fh)  # the header
            cells = [line.rstrip("\n").split(",") for line in fh]
        types = (int, str, float, float, float, float)  # MetricsRow's field types
        assert [MetricsRow._make(t(v) for t, v in zip(types, row)) for row in cells] == rows

    def test_header(self):
        text = metrics_to_csv_text([])
        assert text == "episode,phase,reward,deadline_frac,energy_J,response_s\n"


class TestRunEvaluation:
    def test_constant_policy_matches_manual_replay(self, small_dataset):
        params = RewardParams(penalty=1.0, efficiency_scale=1e6)
        wl = WorkloadConfig()
        rows = run_evaluation(
            lambda users, x, outcomes: 2, small_dataset, wl, params,
            n_episodes=4, tasks_per_episode=7, seed=11,
        )
        mirror = substream(11, "episodes", "test")
        ds = small_dataset
        for e in range(4):
            idx = mirror.integers(0, len(small_dataset), size=7)
            reward = energy = response = 0.0
            met = 0
            for i in idx:
                out = (ds.size_bits[i], ds.total_s[i, 2], ds.e_total_j[i, 2], ds.met_deadline[i, 2])
                reward += float(compute_reward(*out, params))
                energy += float(out[2])
                response += float(out[1])
                met += bool(out[3])
            row = rows[e]
            assert row.episode == e and row.phase == "test"
            assert row.reward == reward
            assert row.deadline_frac == met / 7
            assert row.energy_j == energy
            assert row.response_s == response

    def test_oracle_policy_beats_random_on_its_criterion(self, small_dataset):
        params = RewardParams(penalty=1.0, efficiency_scale=1e6)
        wl = WorkloadConfig()
        kw = dict(n_episodes=10, tasks_per_episode=20, seed=3)
        r_rows = run_evaluation(
            make_policy("r"), small_dataset, wl, params, **kw
        )
        rand_rows = run_evaluation(
            make_policy("random", rng=substream(3, "pol"), n_actions=4),
            small_dataset, wl, params, **kw,
        )
        assert sum(r.response_s for r in r_rows) < sum(r.response_s for r in rand_rows)

    def test_phase_stream_and_offset(self, small_dataset):
        params = RewardParams(1.0, 1e6)
        rows = run_evaluation(
            lambda users, x, outcomes: 0, small_dataset, WorkloadConfig(), params,
            n_episodes=2, tasks_per_episode=3, seed=5, phase="train",
        )
        assert [r.episode for r in rows] == [0, 1]
        assert all(r.phase == "train" for r in rows)


def fresh_agent(seed, n_actions=4):
    cfg = AgentConfig(hidden_sizes=(8, 8), minibatch_size=8, buffer_capacity=512)
    return E2daAgent.create(cfg, n_actions, RewardParams(1.0, 1e6), seed)


class TestRunTraining:
    def test_deterministic_and_counts_episodes(self, small_dataset):
        wl = WorkloadConfig()
        a, b = fresh_agent(21), fresh_agent(21)
        rows_a = run_training(a, small_dataset, wl, 5, 10, seed=9)
        rows_b = run_training(b, small_dataset, wl, 5, 10, seed=9)
        assert rows_a == rows_b
        assert a.episodes_trained == 5
        assert [r.episode for r in rows_a] == list(range(5))
        assert all(r.phase == "train" for r in rows_a)

    def test_resumed_training_continues_numbering(self, small_dataset):
        wl = WorkloadConfig()
        agent = fresh_agent(22)
        run_training(agent, small_dataset, wl, 3, 5, seed=9)
        more = run_training(agent, small_dataset, wl, 2, 5, seed=9)
        assert [r.episode for r in more] == [3, 4]
        assert agent.episodes_trained == 5

    def test_training_improves_over_random(self, small_dataset):
        """After replay training with decayed epsilon, greedy evaluation should
        outscore the uniform-random logging policy."""
        wl = WorkloadConfig()
        scale = calibrate_efficiency_scale(small_dataset)
        params = RewardParams(1.0, scale)
        cfg = AgentConfig(hidden_sizes=(16, 16), minibatch_size=16,
                          buffer_capacity=4096, epsilon_decay=0.98)
        agent = E2daAgent.create(cfg, 4, params, 31)
        run_training(agent, small_dataset, wl, 150, 20, seed=7)
        kw = dict(n_episodes=20, tasks_per_episode=20, seed=13)
        greedy = run_evaluation(
            make_policy("e2da", [agent]), small_dataset, wl, params, **kw
        )
        rand = run_evaluation(
            make_policy("random", rng=substream(13, "pol"), n_actions=4),
            small_dataset, wl, params, **kw,
        )
        assert np.mean([r.reward for r in greedy]) > np.mean([r.reward for r in rand])


def per_user_agents(seed, n_users, n_actions=4):
    cfg = AgentConfig(hidden_sizes=(8, 8), minibatch_size=8, buffer_capacity=512)
    return [
        E2daAgent.create(cfg, n_actions, RewardParams(1.0, 1e6), seed, stream_salt=("user", u))
        for u in range(n_users)
    ]


class TestPerUserTraining:
    def test_split_partitions_by_owner(self, small_dataset, small_node):
        parts = split_by_user(small_dataset, small_node.n_users)
        assert len(parts) == small_node.n_users
        assert sum(len(p) for p in parts) == len(small_dataset)
        for u, part in enumerate(parts):
            assert (part.user_id == u).all()
        # original record order survives within each partition
        for part in parts:
            ids = part.record_id.tolist()
            assert ids == sorted(ids)

    def test_split_rejects_uncovered_user(self, small_dataset):
        without_user0 = small_dataset.subset(small_dataset.user_id != 0)
        with pytest.raises(ConfigError, match="own no dataset records"):
            split_by_user(without_user0, 4)

    def test_split_rejects_foreign_user_id(self, small_dataset):
        with pytest.raises(ConfigError, match="outside the configured"):
            split_by_user(small_dataset, 2)

    def test_average_rows_is_elementwise_mean(self):
        a = [MetricsRow(0, "train", 4.0, 0.5, 2.0, 1.0),
             MetricsRow(1, "train", 6.0, 1.0, 4.0, 3.0)]
        b = [MetricsRow(0, "train", 2.0, 0.0, 0.0, 1.0),
             MetricsRow(1, "train", 2.0, 0.5, 2.0, 1.0)]
        combined = average_rows([a, b])
        assert combined == [MetricsRow(0, "train", 3.0, 0.25, 1.0, 1.0),
                            MetricsRow(1, "train", 4.0, 0.75, 3.0, 2.0)]

    def test_average_rows_rejects_misaligned_series(self):
        a = [MetricsRow(0, "train", 1.0, 1.0, 1.0, 1.0)]
        b = [MetricsRow(3, "train", 1.0, 1.0, 1.0, 1.0)]
        with pytest.raises(ValueError, match="not aligned"):
            average_rows([a, b])

    def test_matches_manual_per_user_composition(self, small_dataset, small_node):
        """The wrapper must equal training each user's agent by hand on that
        user's partition with the same stream salt."""
        wl = WorkloadConfig()
        n = small_node.n_users
        combined, per_user = run_training_per_user(
            per_user_agents(33, n), small_dataset, wl, 4, 10, seed=11
        )
        parts = split_by_user(small_dataset, n)
        manual = [
            run_training(agent, parts[u], wl, 4, 10, seed=11, stream_salt=("user", u))
            for u, agent in enumerate(per_user_agents(33, n))
        ]
        assert per_user == manual
        assert combined == average_rows(manual)
        assert [r.episode for r in combined] == list(range(4))

    def test_deterministic_twin_runs(self, small_dataset, small_node):
        wl = WorkloadConfig()
        n = small_node.n_users
        first = run_training_per_user(
            per_user_agents(5, n), small_dataset, wl, 3, 10, seed=2
        )
        second = run_training_per_user(
            per_user_agents(5, n), small_dataset, wl, 3, 10, seed=2
        )
        assert first == second

    def test_sibling_agents_differ(self, small_dataset, small_node):
        """Per-user salts must give each agent its own weights and draws."""
        agents = per_user_agents(8, small_node.n_users)
        w0 = agents[0].model.weights[0]
        w1 = agents[1].model.weights[0]
        assert not np.array_equal(w0, w1)


class TestLiveRuns:
    def test_live_training_shape_and_determinism(self, small_node):
        wl = WorkloadConfig()
        a, b = fresh_agent(41), fresh_agent(41)
        rows_a = run_live_training(a, small_node, default_channels(), wl, 4, 25, seed=19)
        rows_b = run_live_training(b, small_node, default_channels(), wl, 4, 25, seed=19)
        assert rows_a == rows_b
        assert len(rows_a) == 4
        assert a.episodes_trained == 4
        assert all(r.phase == "train" for r in rows_a)
        assert all(np.isfinite(r.reward) for r in rows_a)
        assert all(0.0 <= r.deadline_frac <= 1.0 for r in rows_a)
        assert all(r.energy_j > 0 and r.response_s > 0 for r in rows_a)

    def test_live_evaluation_oracles_and_random(self, small_node):
        wl = WorkloadConfig()
        params = RewardParams(1.0, 1e6)
        for name in ("eel", "ee", "r", "random"):
            rows = live_evaluation(
                name, small_node, default_channels(), wl, params, 3, 20, seed=23
            )
            assert len(rows) == 3
            assert all(r.phase == "test" for r in rows)
            assert all(np.isfinite(r.reward) for r in rows)

    def test_live_evaluation_r_is_fastest(self, small_node):
        wl = WorkloadConfig()
        params = RewardParams(1.0, 1e6)
        kw = dict(n_episodes=5, tasks_per_episode=40, seed=29)
        by_name = {
            name: live_evaluation(
                name, small_node, default_channels(), wl, params, **kw
            )
            for name in ("r", "random")
        }
        total = {k: sum(r.response_s for r in v) for k, v in by_name.items()}
        assert total["r"] < total["random"]

    def test_live_agent_evaluation_uses_model(self, small_node):
        wl = WorkloadConfig()
        params = RewardParams(1.0, 1e6)
        agent = fresh_agent(51)
        rows = live_evaluation(
            "e2da", small_node, default_channels(), wl, params, 2, 15, seed=31,
            agents=[agent],
        )
        assert len(rows) == 2
        assert all(np.isfinite(r.reward) for r in rows)

    @pytest.mark.parametrize("n_episodes, tasks_per_episode", [(0, 10), (3, 0), (0, 0)])
    def test_no_decisions_book_no_episode(self, small_node, n_episodes, tasks_per_episode):
        """As a replay does, a live rollout asked for no decision returns
        no row, for every policy kind and for a learner."""
        wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)
        for name in ("eel", "random", "e2da"):
            rows = live_evaluation(
                name, small_node, default_channels(), wl, params, n_episodes, tasks_per_episode,
                seed=23, agents=[fresh_agent(51)],
            )
            assert rows == [], name
        agent = fresh_agent(51)
        rows = run_live_training(agent, small_node, default_channels(), wl, n_episodes,
                                 tasks_per_episode, seed=23)
        assert rows == [] and agent.episodes_trained == n_episodes


@pytest.mark.parametrize("live", [False, True], ids=["replay", "live"])
def test_negative_counts_are_rejected_by_name(small_node, small_dataset, live):
    """Both rollouts name a negative count; a count of 0 still books nothing."""
    wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)

    def rollout(n_episodes, tasks_per_episode):
        if live:
            return live_evaluation(
                "eel", small_node, default_channels(), wl, params, n_episodes,
                tasks_per_episode, seed=23,
            )
        return run_evaluation(
            make_policy("eel"), small_dataset, wl, params, n_episodes, tasks_per_episode, seed=23
        )

    for counts, name in [((-1, 10), "n_episodes"), ((3, -1), "tasks_per_episode"),
                         ((0, -1), "tasks_per_episode")]:
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
            rollout(*counts)
    assert rollout(0, 10) == rollout(3, 0) == []


class TestFrozenPolicyCallContract:
    """A replay asks a frozen policy once per episode with the episode's
    rows.  A live rollout scales each episode's contexts in one call and
    asks every frozen policy once per episode without outcomes, as a
    replay asks: the learned policy and random decide there, with one
    batched forward or one vector draw, never one per decision.  Only an
    oracle, which reads the system state, answers None and is asked again
    once per decision, with the task's int user and its row of the
    episode's contexts."""

    def test_replay_asks_once_per_episode_with_the_gathered_rows(self, small_dataset):
        ds, wl, calls = small_dataset, WorkloadConfig(), []

        def spy(users, x, outcomes):
            calls.append((users, x, outcomes()))
            return np.zeros(len(users), dtype=np.int64)

        run_evaluation(spy, ds, wl, RewardParams(1.0, 1e6), n_episodes=4, tasks_per_episode=7,
                       seed=11)
        assert len(calls) == 4
        mirror = substream(11, "episodes", "test")
        features = np.column_stack((ds.size_bits, ds.intensity_cpb, ds.deadline_s))
        contexts = normalize_context(features, wl.context_scale())
        for users, x, (size, total_s, e_total_j) in calls:
            records = mirror.integers(0, len(ds), size=7)
            assert users.shape == (7,) and np.array_equal(users, ds.user_id[records])
            assert x.shape == (7, 3) and np.array_equal(x, contexts[records])
            assert size.shape == (7, 1) and np.array_equal(size[:, 0], ds.size_bits[records])
            assert np.array_equal(total_s, ds.total_s[records])
            assert np.array_equal(e_total_j, ds.e_total_j[records])

    def test_live_asks_once_per_decision_with_scalars(self, small_node, monkeypatch):
        wl, projected, calls = WorkloadConfig(), [], []
        real = Simulator.projections

        def recording(sim, task):
            projected.append((task, real(sim, task)))
            return projected[-1][1]

        monkeypatch.setattr(Simulator, "projections", recording)

        def spy(user, x, outcomes):
            if outcomes is None:  # asked ahead for the episode: decide at arrival
                return None
            size, total_s, e_total_j = outcomes()
            task, outs = projected[-1]
            assert type(user) is int and user == task.user_id
            features = (task.size_bits, task.intensity_cpb, task.deadline_s)
            assert x.shape == (3,) and np.array_equal(x, normalize_context(features, wl.context_scale()))
            assert size == task.size_bits
            assert np.array_equal(total_s, [o.total_s for o in outs])
            assert np.array_equal(e_total_j, [o.e_total_j for o in outs])
            calls.append(user)
            return np.argmin(total_s)

        rows = experiment._live_rollout(
            spy, RewardParams(1.0, 1e6), small_node, default_channels(), wl, 23, 3, 20
        )
        assert len(calls) == len(projected) == 60 and len(rows) == 3

    def test_live_e2da_runs_one_forward_per_episode(self, small_node, monkeypatch):
        wl, agent, shapes = WorkloadConfig(), fresh_agent(91), []
        run_live_training(agent, small_node, default_channels(), wl, 3, 30, seed=5)
        forward = agent.model.forward

        def spy(x):
            shapes.append(np.shape(x))
            return forward(x)

        monkeypatch.setattr(agent.model, "forward", spy)
        drawn = counting_task_streams(monkeypatch)
        rows = live_evaluation(
            "e2da", small_node, default_channels(), wl, RewardParams(1.0, 1e6), 3, 20, seed=23,
            agents=[agent],
        )
        assert len(rows) == 3
        assert shapes == [(20, 3)] * 3  # no one-row forward
        # the feed holds one drawn task per user past the run's 60
        assert drawn[0] == 60 + small_node.n_users - 1

    def test_live_random_is_asked_once_per_episode(self, small_node, monkeypatch):
        """Random reads only the task, so a live run decides each episode
        ahead with one vector draw; TestLiveBookingReference pins that the
        rows are those of one scalar draw per decision."""
        wl, shapes = WorkloadConfig(), []
        choose = make_policy("random", rng=substream(23, "logging-policy"), n_actions=4)

        def spy(users, x, outcomes):
            shapes.append((np.shape(users), np.shape(x)))
            return choose(users, x, outcomes)

        rows = run_live_evaluation(spy, small_node, default_channels(), wl,
                                   RewardParams(1.0, 1e6), 3, 20, seed=23)
        assert len(rows) == 3 and shapes == [((20,), (20, 3))] * 3

    @pytest.mark.parametrize("name", ["eel", "random", "e2da", "learner"])
    def test_live_scales_each_episode_in_one_call(self, small_node, monkeypatch, name):
        wl, calls, real = WorkloadConfig(), [], experiment.normalize_context

        def spy(features, scale):
            calls.append(np.shape(features))
            return real(features, scale)

        monkeypatch.setattr(experiment, "normalize_context", spy)
        if name == "learner":
            run_live_training(fresh_agent(51), small_node, default_channels(), wl, 3, 20, seed=23)
        else:
            live_evaluation(name, small_node, default_channels(), wl, RewardParams(1.0, 1e6),
                                3, 20, seed=23, agents=[fresh_agent(51)])
        assert calls == [(20, 3)] * 3


def acting(agents):
    """The frozen learned policy one decision at a time: act at epsilon 0
    by the decision's user's agent, or by the one shared agent."""
    return lambda user, x, outcomes: agents[user if len(agents) > 1 else 0].act(x, 0.0)


def drawing(rng, n_actions):
    """The random policy one decision at a time: one scalar draw from rng,
    which make_policy's one vector draw per call must equal."""
    return lambda user, x, outcomes: rng.integers(n_actions)


def counting_task_streams(monkeypatch):
    """Make every arrival feed count the tasks its users' streams draw;
    returns the one-item list that holds the count."""
    drawn = [0]

    def counted(*args):
        for task in task_stream(*args):
            drawn[0] += 1
            yield task

    monkeypatch.setattr(workload_module, "task_stream", counted)
    return drawn


def batch_rows(monkeypatch, agent):
    """Make the agent's model record the row count of each batched
    forward; returns the list that holds them."""
    rows, forward = [], agent.model.forward

    def spy(x):
        if np.ndim(x) == 2:
            rows.append(len(x))
        return forward(x)

    monkeypatch.setattr(agent.model, "forward", spy)
    return rows


def hand_driven_live(node, wl, params, seed, n_episodes, tasks_per_episode, decide,
                     learn=None, start_episode=0, phase="test"):
    """Reference booking for the live loops: a Simulator driven by hand with
    the rollout's substreams.  decide(sim, task, episode) returns (action,
    context); each outcome is scored when its completion event fires and
    booked to the episode its task was decided in."""
    decided = [0]
    pending = {}

    def policy(sim, task):
        ep = decided[0] // tasks_per_episode
        decided[0] += 1
        action, x = decide(sim, task, start_episode + ep)
        pending[task.task_id] = (ep, x, action)
        return action

    sim = Simulator(node, default_channels(), substream(seed, "gains"), policy=policy)
    feed = arrivals(wl, seed, node.n_users)
    sim.add_arrivals(itertools.islice(feed, n_episodes * tasks_per_episode))
    books = [[0.0, 0, 0.0, 0.0, 0] for _ in range(n_episodes)]
    while sim.has_events:
        out = sim.advance()
        if out is None:
            continue
        ep, x, action = pending.pop(out.task_id)
        met = out.met_deadline
        r = float(compute_reward(out.size_bits, out.total_s, out.e_total_j, met, params))
        if learn is not None:
            learn(x, action, r)
        book = books[ep]
        book[0] += r
        book[1] += out.met_deadline
        book[2] += out.e_total_j
        book[3] += out.total_s
        book[4] += 1
    assert not pending and all(b[4] == tasks_per_episode for b in books)
    return [
        MetricsRow(start_episode + e, phase, b[0], b[1] / tasks_per_episode, b[2], b[3])
        for e, b in enumerate(books)
    ]


class TestLiveBookingReference:
    """Every MetricsRow field of the live loops, pinned against a hand-driven
    simulator: rewards, deadline fractions, energies and response times are
    booked to the submitting episode in completion order."""

    KW = dict(n_episodes=4, tasks_per_episode=25, seed=37)

    def test_oracle_evaluation(self, small_node):
        wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)
        rows = live_evaluation("r", small_node, default_channels(), wl, params, **self.KW)

        def decide(sim, task, ep):
            outs = sim.projections(task)
            total_s = np.array([o.total_s for o in outs])
            return int(r_star(task.size_bits, total_s, np.array([o.e_total_j for o in outs]))), None

        assert rows == hand_driven_live(small_node, wl, params, decide=decide, **self.KW)

    def test_random_evaluation(self, small_node):
        wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)
        rows = live_evaluation(
            "random", small_node, default_channels(), wl, params, **self.KW
        )
        rng = substream(self.KW["seed"], "logging-policy")

        def decide(sim, task, ep):
            return int(rng.integers(small_node.n_channels + 1)), None

        assert rows == hand_driven_live(small_node, wl, params, decide=decide, **self.KW)

    @pytest.mark.parametrize("case", ["trained", "tied", "per_user"])
    def test_frozen_e2da_evaluation(self, small_node, monkeypatch, case):
        """Deciding each episode's tasks ahead of arrival books the rows of
        one act(x, 0.0) per decision at arrival.  The feed holds one drawn
        task per user, so the run draws exactly K - 1 spare tasks.  With
        per-user agents, each episode's forward goes to every user's agent
        with that user's rows of the episode."""
        wl, params = WorkloadConfig(), RewardParams(1.0, 1e6)
        kw, K = dict(self.KW), small_node.n_users
        if case == "trained":
            agents = [fresh_agent(63)]
            run_live_training(agents[0], small_node, default_channels(), wl, 3, 30, seed=5)
        elif case == "tied":
            agents = [fresh_agent(64)]
            agents[0].model.weights[-1][...] = 0.0
            agents[0].model.biases[-1][...] = 0.0
        else:
            agents = per_user_agents(65, K)
            kw.update(n_episodes=6, tasks_per_episode=50)
        batches = [batch_rows(monkeypatch, agent) for agent in agents]
        drawn = counting_task_streams(monkeypatch)
        rows = live_evaluation(
            "e2da", small_node, default_channels(), wl, params, agents=agents, **kw
        )
        # the reference below draws through the same counted streams
        n_drawn, batches = drawn[0], [list(sizes) for sizes in batches]
        act_by_user = acting(agents)
        acted = []

        def decide(sim, task, ep):
            features = (task.size_bits, task.intensity_cpb, task.deadline_s)
            acted.append(act_by_user(task.user_id, normalize_context(features, wl.context_scale()), None))
            return acted[-1], None

        assert rows == hand_driven_live(small_node, wl, params, decide=decide, **kw)
        assert n_drawn == kw["n_episodes"] * kw["tasks_per_episode"] + K - 1
        if case == "tied":
            assert set(acted) == {0}
        if case == "per_user":
            assert all(len(sizes) == kw["n_episodes"] for sizes in batches)
            assert [sum(ep) for ep in zip(*batches)] == [kw["tasks_per_episode"]] * kw["n_episodes"]
        else:
            assert batches == [[kw["tasks_per_episode"]] * kw["n_episodes"]]

    def test_training_observes_in_completion_order(self, small_node):
        wl = WorkloadConfig()
        agent, mirror = fresh_agent(61), fresh_agent(61)
        agent.episodes_trained = mirror.episodes_trained = 3
        rows = run_live_training(agent, small_node, default_channels(), wl, **self.KW)

        def decide(sim, task, ep):
            features = (task.size_bits, task.intensity_cpb, task.deadline_s)
            x = normalize_context(features, wl.context_scale())
            return mirror.act(x, mirror.epsilon(ep)), x

        want = hand_driven_live(
            small_node, wl, mirror.reward_params, decide=decide, learn=mirror.observe,
            start_episode=3, phase="train", **self.KW,
        )
        assert rows == want
        assert agent.episodes_trained == 3 + self.KW["n_episodes"]
        for w, v in zip(agent.model.weights, mirror.model.weights):
            assert np.array_equal(w, v)


class TestReplayBookingReference:
    def test_training_matches_hand_loop(self, small_dataset):
        wl = WorkloadConfig()
        agent, mirror = fresh_agent(71), fresh_agent(71)
        rows = run_training(agent, small_dataset, wl, 3, 12, seed=17)
        ep_rng = substream(17, "episodes", "train")
        for e, row in enumerate(rows):
            reward = energy = response = 0.0
            met = 0
            ds = small_dataset
            for i in ep_rng.integers(0, len(small_dataset), size=12):
                features = (ds.size_bits[i], ds.intensity_cpb[i], ds.deadline_s[i])
                x = normalize_context(features, wl.context_scale())
                a = mirror.act(x, mirror.epsilon(e))
                out = (ds.size_bits[i], ds.total_s[i, a], ds.e_total_j[i, a], ds.met_deadline[i, a])
                r = float(compute_reward(*out, mirror.reward_params))
                mirror.observe(x, a, r)
                reward += r
                energy += float(out[2])
                response += float(out[1])
                met += bool(out[3])
            assert row == MetricsRow(e, "train", reward, met / 12, energy, response)


def per_decision_replay(
    decider, reward_params, dataset, workload, ep_rng, n_episodes, tasks_per_episode,
    start_episode, phase,
):
    """Reference replay, one decision at a time: it asks the learner (which
    then observes) or the policy, with the record's int user, 1-d context
    and scalar-size outcomes, as a live oracle decision does; it reads the chosen
    cell with .item() and adds it to its episode's sums with +=.
    experiment._replay must book the same rows from arrays."""
    outcomes = dataset.outcome_columns()
    features = (dataset.size_bits, dataset.intensity_cpb, dataset.deadline_s)
    contexts = normalize_context(np.column_stack(features), workload.context_scale())
    rewards = compute_reward(*outcomes, dataset.met_deadline, reward_params)
    users, met = dataset.user_id, dataset.met_deadline
    energy, response = dataset.e_total_j, dataset.total_s
    rows = []
    for e in range(n_episodes):
        episode = start_episode + e
        book = [0.0, 0, 0.0, 0.0, 0]
        for i in ep_rng.integers(0, len(dataset), size=tasks_per_episode).tolist():
            x = contexts[i]
            if isinstance(decider, E2daAgent):
                a = decider.act(x, decider.epsilon(episode))
            else:
                row = (dataset.size_bits.item(i), response[i], energy[i])
                a = int(decider(users.item(i), x, lambda: row))
            r = rewards.item(i, a)
            if isinstance(decider, E2daAgent):
                decider.observe(x, a, r)
            book[0] += r
            book[1] += met.item(i, a)
            book[2] += energy.item(i, a)
            book[3] += response.item(i, a)
            book[4] += 1
        if book[4]:
            rows.append(MetricsRow(episode, phase, book[0], book[1] / book[4], book[2], book[3]))
    return rows


@pytest.fixture
def per_decision(monkeypatch):
    """per_decision(fn, *args, **kw) calls fn with the reference replay."""

    def call(fn, *args, **kw):
        with monkeypatch.context() as m:
            m.setattr(experiment, "_replay", per_decision_replay)
            return fn(*args, **kw)

    return call


class TestReplayMatchesPerDecisionReference:
    """Every replay rollout writes the metrics.csv text of the per-decision
    reference replay, and a learner ends with the same parameters."""

    PARAMS = RewardParams(1.0, 1e6)
    KW = dict(n_episodes=6, tasks_per_episode=25, seed=19)

    def check_policy(self, per_decision, make, dataset, reference=None, **kw):
        """make() against per_decision, which asks reference() (by default
        make()) once per decision."""
        kw = {**self.KW, **kw}
        args = (dataset, WorkloadConfig(), self.PARAMS)
        got = run_evaluation(make(), *args, **kw)
        want = per_decision(run_evaluation, (reference or make)(), *args, **kw)
        assert metrics_to_csv_text(got) == metrics_to_csv_text(want)
        return got

    @pytest.mark.parametrize("name", ["eel", "ee", "r"])
    def test_oracles(self, name, small_dataset, per_decision):
        self.check_policy(per_decision, lambda: make_policy(name), small_dataset)
        self.check_policy(
            per_decision, lambda: make_policy(name), small_dataset, phase="train",
        )
        assert self.check_policy(
            per_decision, lambda: make_policy(name), small_dataset, tasks_per_episode=0
        ) == []

    def test_random(self, small_dataset, per_decision):
        def make():
            return make_policy("random", rng=substream(19, "pol"), n_actions=4)

        self.check_policy(per_decision, make, small_dataset,
                          reference=lambda: drawing(substream(19, "pol"), 4))

    def test_frozen_e2da(self, small_dataset, per_decision):
        shared = fresh_agent(81)
        run_training(shared, small_dataset, WorkloadConfig(), 3, 20, seed=5)
        self.check_policy(per_decision, lambda: make_policy("e2da", [shared]), small_dataset,
                          reference=lambda: acting([shared]))
        agents = per_user_agents(82, 4)
        self.check_policy(per_decision, lambda: make_policy("e2da", agents), small_dataset,
                          reference=lambda: acting(agents))

    def test_lambdas(self, small_dataset, per_decision):
        self.check_policy(per_decision, lambda: lambda users, x, outcomes: 2, small_dataset)
        # a policy whose action depends on the decision's user, elementwise
        by_user = lambda users, x, outcomes: np.where(users % 2, 3, users // 2)  # noqa: E731
        self.check_policy(per_decision, lambda: by_user, small_dataset)

    def test_training(self, small_dataset, per_decision):
        wl = WorkloadConfig()
        agent, mirror = fresh_agent(83), fresh_agent(83)
        agent.episodes_trained = mirror.episodes_trained = 2
        got = run_training(agent, small_dataset, wl, 4, 25, seed=23)
        want = per_decision(run_training, mirror, small_dataset, wl, 4, 25, seed=23)
        assert metrics_to_csv_text(got) == metrics_to_csv_text(want)
        assert agent.episodes_trained == mirror.episodes_trained == 6
        assert np.array_equal(agent.model.params, mirror.model.params)
        assert np.array_equal(agent.model.acc, mirror.model.acc)

    def test_training_per_user(self, small_dataset, per_decision):
        wl = WorkloadConfig()
        got, got_each = run_training_per_user(per_user_agents(84, 4), small_dataset, wl, 3, 10, seed=29)
        want, want_each = per_decision(
            run_training_per_user, per_user_agents(84, 4), small_dataset, wl, 3, 10, seed=29
        )
        assert metrics_to_csv_text(got) == metrics_to_csv_text(want)
        for g, w in zip(got_each, want_each):
            assert metrics_to_csv_text(g) == metrics_to_csv_text(w)

    def test_all_misses_at_zero_penalty_read_positive_zero(self, small_dataset, per_decision):
        """With no miss penalty every reward of an all-miss episode is -0.0;
        the sum starts at +0.0, so the row reads 0.0, as += from 0.0 books it."""
        columns = small_dataset.columns()
        missed = Dataset({**columns, "met_deadline": np.zeros_like(columns["met_deadline"])})
        params = RewardParams(0.0, 1e6)
        args = (missed, WorkloadConfig(), params)
        kw = dict(n_episodes=2, tasks_per_episode=5, seed=31)
        got = run_evaluation(make_policy("eel"), *args, **kw)
        want = per_decision(run_evaluation, make_policy("eel"), *args, **kw)
        assert metrics_to_csv_text(got) == metrics_to_csv_text(want)
        written = [line.split(",") for line in metrics_to_csv_text(got).splitlines()[1:]]
        assert [row[2] for row in written] == ["0.0", "0.0"]
        assert [r.deadline_frac for r in got] == [0.0, 0.0]

    def test_few_records_many_tasks(self, small_dataset, per_decision):
        """Three records drawn fifty times per episode: every record recurs."""
        tiny = small_dataset.subset(np.array([5, 17, 42]))
        agent = fresh_agent(85)
        for name in ("eel", "random", "e2da"):
            def make():
                return make_policy(name, [agent], substream(37, "pol"), 4)

            reference = {"e2da": lambda: acting([agent]),
                         "random": lambda: drawing(substream(37, "pol"), 4)}.get(name)
            self.check_policy(per_decision, make, tiny, reference, tasks_per_episode=50)
        trainee, mirror = fresh_agent(86), fresh_agent(86)
        got = run_training(trainee, tiny, WorkloadConfig(), 3, 50, seed=41)
        want = per_decision(run_training, mirror, tiny, WorkloadConfig(), 3, 50, seed=41)
        assert metrics_to_csv_text(got) == metrics_to_csv_text(want)
