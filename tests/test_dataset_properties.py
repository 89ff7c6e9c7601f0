"""Property tests of the dataset CSV codec.

write_csv then from_csv gives back every column bit for bit, for any
finite positive floats, subnormals and values near the top of the float
range included.  And a dataset.csv with one cell rewritten gives the same
evaluate verdict whether its column file is gone or left stale beside it.

The profiles are derandomized, keep no example database and bound the
number of examples, so the suite stays deterministic and quick.
"""

import contextlib
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import MUTATIONS, mutated, mutation_columns
from e2da import cli
from e2da.dataset import column_path
from e2da.experiment import Dataset

PROFILE = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

positive = st.floats(
    min_value=5e-324, max_value=1.7976931348623157e308, allow_nan=False, allow_infinity=False
)
# a part of a total: zero (a stage the action skips) or positive, small
# enough that seven of them cannot overflow
part = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=2.5e307))


@st.composite
def parts_with_total(draw, n_parts):
    """n_parts non-negative parts, at least one positive, and their exact sum."""
    parts = draw(st.lists(part, min_size=n_parts, max_size=n_parts))
    if not any(parts):
        parts[draw(st.integers(0, n_parts - 1))] = draw(positive.filter(lambda v: v <= 2.5e307))
    return parts + [math.fsum(parts)]


@st.composite
def datasets(draw):
    n_rows = draw(st.integers(1, 5))
    n_actions = draw(st.integers(2, 4))
    task = {
        name: draw(st.lists(positive, min_size=n_rows, max_size=n_rows))
        for name in ("arrival_s", "size_bits", "intensity_cpb", "deadline_s")
    }
    # per row and action: 7 stage times and T_s, then 3 energies and e_total_J
    fields = [
        [draw(parts_with_total(7)) + draw(parts_with_total(3)) for _ in range(n_actions)]
        for _ in range(n_rows)
    ]
    values = np.array(fields)  # rows x actions x 12
    names = ("d1_s", "d2_s", "d3_s", "d4_s", "t_exec_s", "t_up_s", "t_down_s", "total_s",
             "e_cpu_j", "e_tx_j", "e_rx_j", "e_total_j")
    columns = {name: values[:, :, k] for k, name in enumerate(names)}
    columns["met_deadline"] = columns["total_s"] <= np.array(task["deadline_s"])[:, None]
    columns.update(task)
    columns["record_id"] = np.arange(n_rows)
    columns["task_id"] = draw(st.lists(st.integers(0, 2**62), min_size=n_rows, max_size=n_rows))
    columns["user_id"] = draw(st.lists(st.integers(0, 500), min_size=n_rows, max_size=n_rows))
    return Dataset(columns)


@PROFILE
@given(dataset=datasets())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, dataset):
    path = str(tmp_path_factory.mktemp("csv") / "dataset.csv")
    dataset.write_csv(path)
    with open(path, encoding="utf-8") as fh:
        assert "np." not in fh.read()
    back = Dataset.from_csv(path)
    for name, column in dataset.columns().items():
        read = getattr(back, name)
        assert read.dtype == column.dtype and read.shape == column.shape, name
        assert read.tobytes() == column.tobytes(), name


EDIT_PROFILE = settings(PROFILE, max_examples=60)
EDIT_CONFIG = {
    "system": {"n_users": 4, "n_base_stations": 2, "n_channels": 3},
    "workload": {"arrival_rate_per_s": 40.0},
    "run": {"mode": "dataset", "seed": 7, "n_records": 30, "n_test_episodes": 3,
            "tasks_per_episode": 10},
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A config, the dataset.csv it generates (its column file beside it)
    and the CSV's lines."""
    root = tmp_path_factory.mktemp("saved")
    config = str(root / "config.json")
    with open(config, "w") as fh:
        json.dump(EDIT_CONFIG, fh)
    assert cli.main(["generate-dataset", "--config", config, "--out", str(root)]) == 0
    path = str(root / "dataset.csv")
    with open(path) as fh:
        return config, path, fh.read().splitlines()


def run_evaluate(config, path, out):
    """cli.main's exit code and stderr for an eel evaluation of path."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["evaluate", "--agent", "eel", "--config", config, "--dataset", path,
                       "--out", out])
    return rc, err.getvalue()


@EDIT_PROFILE
@given(data=st.data())
def test_an_edited_cell_reads_the_same_with_a_stale_column_file(
    tmp_path_factory, saved, data
):
    """One cell rewritten with a MUTATIONS value: evaluate gives the same
    exit code and stderr with the column file deleted as with the
    original left beside the edited CSV, and either accepts the file or
    exits 2 naming the edited row."""
    config, original, lines = saved
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)))
    column = data.draw(st.sampled_from(mutation_columns(lines[0].split(","))[kind]))
    row = data.draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    cells[column] = mutated(cells[column], data.draw(st.sampled_from(MUTATIONS[kind])))
    work = tmp_path_factory.mktemp("edited")
    path = str(work / "dataset.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1 :]) + "\n")
    without = run_evaluate(config, path, str(work / "without"))
    shutil.copy(column_path(original), column_path(path))
    stale = run_evaluate(config, path, str(work / "stale"))
    assert without == stale
    assert without[0] in (0, 2), without
    if without[0] == 2:
        assert f"{path} row {row}: " in without[1]
    else:
        metrics = [(work / out / "metrics.csv").read_bytes() for out in ("without", "stale")]
        assert metrics[0] == metrics[1]
