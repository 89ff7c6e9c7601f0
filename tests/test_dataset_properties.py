"""Property test of the dataset CSV codec: write_csv then from_csv gives back
every column bit for bit, for any finite positive floats, subnormals and
values near the top of the float range included.

The profile is derandomized, keeps no example database and bounds the
number of examples, so the suite stays deterministic and quick.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
