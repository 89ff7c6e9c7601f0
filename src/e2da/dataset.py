"""Logged datasets: columnar storage, generation and the CSV codec.

A dataset holds, for every task that arrived while the live system ran
under a uniform-random logging policy, the task and the complete
per-action what-if outcome set.  It is stored as columns, so replay
indexes arrays instead of walking records, and it round-trips through
dataset.csv byte for byte.

Saved, a dataset is dataset.csv plus a column file beside it,
dataset.csv.npy: consecutive NPY records, first the sha256 of the CSV's
bytes as a 0-d bytes array, then every column in _COLUMNS order.
load_dataset hashes the CSV once and hands the hash to Dataset.from_csv,
which takes the columns from the column file only when that file is
bound to those bytes, loads without pickles, holds exactly the columns
of _column_specs and has no row that _valid_rows, array checks that
clear only rows the scalar parser accepts, cannot clear; otherwise, and
whenever the column file is missing, it parses the text, which alone
reports errors.  Deleting the column file loses nothing but time.  A
column file whose digest record matches is trusted: its payload is not
compared with the CSV's cells, only checked for shape, dtype and the row
checks, so a column file edited by hand can change the data while the
CSV's hash stays the same.

The CSV codec streams: its memory is one bounded buffer plus the columns,
never the whole file as text.  write_csv renders rows in chunks of
_ROW_CHUNK and writes each chunk as it is rendered.  from_csv checks that
the file is UTF-8, then reads it with csv.reader and the scalar row
parser, _ROW_CHUNK rows at a time.  That parse takes ~1 s on the 24 MB
default dataset, against ~36 ms for hashing the CSV and loading its
column file (one pinned CPU), so the column file is what keeps train and
evaluate quick.

Generation projects no decision on its own.  While the live system runs,
each arrival's Simulator.snapshot, the task included, goes into
preallocated columns; afterwards one project_outcome call per action, on a
column Snapshot whose task is a column Task, fills that action's column of
the outcome set for every record at once, with the same floats as one call
per decision.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .ioutil import atomic_open, atomic_write_text, check_utf8, sha256_file
from .rng import Uniforms, substream
from .system import ChannelConfig, NodeConfig
from .workload import Task, WorkloadConfig, arrivals

_INT_COLUMNS = ("record_id", "task_id", "user_id")
_FLOAT_TASK_COLUMNS = ("arrival_s", "size_bits", "intensity_cpb", "deadline_s")
_TASK_COLUMNS = _INT_COLUMNS + _FLOAT_TASK_COLUMNS
# (CSV column suffix, TaskOutcome field) of every float column an action has;
# each action's columns end with its deadline verdict, a{a}_met
_ACTION_FIELDS = (
    ("d1_s", "d1_s"),
    ("d2_s", "d2_s"),
    ("d3_s", "d3_s"),
    ("d4_s", "d4_s"),
    ("t_exec_s", "t_exec_s"),
    ("t_up_s", "t_up_s"),
    ("t_down_s", "t_down_s"),
    ("T_s", "total_s"),
    ("e_cpu_J", "e_cpu_j"),
    ("e_tx_J", "e_tx_j"),
    ("e_rx_J", "e_rx_j"),
    ("e_total_J", "e_total_j"),
)
_ACTION_WIDTH = len(_ACTION_FIELDS) + 1
_ACTION_INDEX = {col: i for i, (col, _) in enumerate(_ACTION_FIELDS)}
# the total columns, which the reward divides by and so must be finite and
# positive, each with the run of action columns it must sum to (relative 1e-9)
_TOTALS = tuple(
    (_ACTION_INDEX[total], slice(_ACTION_INDEX[first], _ACTION_INDEX[last] + 1))
    for total, first, last in (("T_s", "d1_s", "t_down_s"), ("e_total_J", "e_cpu_J", "e_rx_J"))
)
# _TOTALS by Dataset column name: each total column with its part columns
_SUMS = tuple(
    (_ACTION_FIELDS[i][1], tuple(name for _, name in _ACTION_FIELDS[parts])) for i, parts in _TOTALS
)
_ROW_CHUNK = 256  # rows rendered to text, or read by csv.reader, at a time

class Dataset:
    """Logged decision points stored as columns, one row per record.

    Task columns have shape (R,): the int64 record_id, task_id and user_id,
    and the float arrival_s, size_bits, intensity_cpb and deadline_s.
    Action columns have shape (R, A), actions on the last axis: one float
    column per TaskOutcome timing and energy field (d1_s ... total_s,
    e_cpu_j ... e_total_j) and the bool met_deadline.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]):
        n_rows = len(columns["record_id"])
        shape = np.shape(columns["met_deadline"])
        if len(shape) != 2 or shape[0] != n_rows:
            raise ValueError(f"met_deadline has shape {shape}, expected ({n_rows}, n_actions)")
        for name, dtype, want in _column_specs(*shape):
            column = np.asarray(columns[name], dtype=dtype)
            if column.shape != want:
                raise ValueError(f"column {name} has shape {column.shape}, expected {want}")
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.record_id)

    @property
    def n_actions(self) -> int:
        return self.met_deadline.shape[1]

    def columns(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _COLUMNS}

    def outcome_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(size, T, E) with actions on the last axis, as the oracles and
        the reward take them."""
        return self.size_bits[:, None], self.total_s, self.e_total_j

    def subset(self, rows) -> "Dataset":
        """The records selected by an index array or boolean mask, in order."""
        return Dataset({name: column[rows] for name, column in self.columns().items()})

    def to_csv_text(self) -> str:
        return "".join(self._csv_chunks())

    def _csv_chunks(self) -> Iterator[str]:
        """dataset.csv as text pieces: the header line, then the lines of
        _ROW_CHUNK rows at a time, each line ending in a newline."""
        header = _header(self.n_actions)
        yield ",".join(header) + "\n"
        met_cols = [i for i, name in enumerate(header) if name.endswith("_met")]
        float_cols = [i for i in range(len(_INT_COLUMNS), len(header)) if i not in met_cols]
        for lo in range(0, len(self), _ROW_CHUNK):
            rows = slice(lo, lo + _ROW_CHUNK)
            n_rows = len(self.record_id[rows])
            floats = np.concatenate(
                [
                    np.column_stack([getattr(self, name)[rows] for name in _FLOAT_TASK_COLUMNS]),
                    np.stack(
                        [getattr(self, name)[rows] for _, name in _ACTION_FIELDS], axis=-1
                    ).reshape(n_rows, -1),
                ],
                axis=1,
            )
            cells = np.empty((n_rows, len(header)), dtype=object)
            cells[:, : len(_INT_COLUMNS)] = np.column_stack(
                [getattr(self, name)[rows] for name in _INT_COLUMNS]
            ).astype(str)
            cells[:, float_cols] = _float_texts(floats)
            cells[:, met_cols] = np.where(self.met_deadline[rows], "1", "0")
            yield "\n".join(map(",".join, cells.tolist())) + "\n"

    def write_csv(self, path: str) -> None:
        """Write dataset.csv one chunk of rows at a time, atomically."""
        atomic_write_text(path, self._csv_chunks())

    @classmethod
    def from_csv(cls, path: str, digest: Optional[str] = None) -> "Dataset":
        """Read records written by write_csv.  A malformed header raises
        ConfigError naming the path and the first wrong column, a malformed
        row naming the path and the row (rows count from 1 after the
        header), and bytes that are not UTF-8 naming the path and the byte
        offset.

        Given digest, the sha256 of the file's bytes, the columns come from
        the column file beside it when that file is bound to digest and
        valid (see _read_columns), and the text is not parsed.  Otherwise
        the text is read by _read_rows, csv.reader and the scalar row
        parser, which alone decide the verdict."""
        columns = None if digest is None else _read_columns(column_path(path), digest)
        return cls(_read_rows(path) if columns is None else columns)


def _read_rows(path: str) -> Dict[str, np.ndarray]:
    """Columns of a dataset file read by csv.reader and the scalar row
    parser, _ROW_CHUNK rows at a time.  Bytes that are not UTF-8 are
    reported first, wherever they are, as when the file was read whole.

    Each chunk is copied into columns that double their rows when full
    and are cut to the row count at the end, both in place (resize), so
    the parse never holds its columns twice."""
    check_utf8(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n_act = _check_header(path, header)
        rows = enumerate(reader, 1)
        columns = {name: np.empty(shape, dtype) for name, dtype, shape in _column_specs(0, n_act)}
        n = 0
        while True:
            batch = [
                _parse_row(path, k, row, n_act, len(header))
                for k, row in itertools.islice(rows, _ROW_CHUNK)
            ]
            if n + len(batch) > len(columns["record_id"]):
                _resize_rows(columns, max(_ROW_CHUNK, 2 * n))
            for name, chunk in _rows_to_columns(batch, n_act).items():
                columns[name][n : n + len(batch)] = chunk
            n += len(batch)
            if len(batch) < _ROW_CHUNK:
                break
    _resize_rows(columns, n)
    return columns


def _resize_rows(columns: Dict[str, np.ndarray], n_rows: int) -> None:
    """Give every column n_rows rows, in place: kept rows keep their
    values, new rows are zero.  No view of a column may exist."""
    for column in columns.values():
        column.resize((n_rows,) + column.shape[1:], refcheck=False)


def _float_texts(values: np.ndarray) -> np.ndarray:
    """repr of every value, as an object array of values' shape.  Each
    distinct bit pattern is rendered once: the zeros of the stages an
    action skips, and the times all offloading actions share."""
    bits, where = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[where].reshape(values.shape)


def _column_specs(n_rows: int, n_actions: int) -> Iterator[Tuple[str, type, tuple]]:
    """(name, dtype, shape) of every Dataset column."""
    for name in _TASK_COLUMNS:
        yield name, np.int64 if name in _INT_COLUMNS else np.float64, (n_rows,)
    for _, name in _ACTION_FIELDS:
        yield name, np.float64, (n_rows, n_actions)
    yield "met_deadline", np.bool_, (n_rows, n_actions)


_COLUMNS = tuple(name for name, _, _ in _column_specs(0, 0))


def _header(n_act: int) -> List[str]:
    header = list(_TASK_COLUMNS)
    for a in range(n_act):
        header.extend(f"a{a}_{col}" for col, _ in _ACTION_FIELDS)
        header.append(f"a{a}_met")
    return header


def _check_header(path: str, header: Sequence[str]) -> int:
    """Number of actions a dataset header names; ConfigError unless the
    header is exactly write_csv's."""
    n_act = (len(header) - len(_TASK_COLUMNS)) // _ACTION_WIDTH
    if len(_TASK_COLUMNS) + n_act * _ACTION_WIDTH != len(header) or n_act < 2:
        raise ConfigError(f"{path}: unrecognized dataset header with {len(header)} columns")
    for i, (got, want) in enumerate(zip(header, _header(n_act)), 1):
        if got != want:
            raise ConfigError(f"{path}: header column {i} is {got!r}, expected {want!r}")
    return n_act


def _positive(value: float, name: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def _parse_row(path: str, n: int, row: Sequence[str], n_act: int, width: int) -> list:
    """Values of data row n in column order, met cells as bools; a
    malformed row raises ConfigError naming the path and the row."""
    try:
        return _parse_record(row, n_act, width)
    except ValueError as exc:
        raise ConfigError(f"{path} row {n}: {exc}") from None


def _parse_record(row: Sequence[str], n_act: int, width: int) -> list:
    if len(row) != width:
        raise ValueError(f"has {len(row)} columns, the header has {width}")
    task_id, user_id = _int64(row[1], "task_id"), _int64(row[2], "user_id")
    task = [float(row[3])] + [_positive(float(row[i]), _TASK_COLUMNS[i]) for i in (4, 5, 6)]
    deadline = task[-1]
    values = []
    for a in range(n_act):
        off = len(_TASK_COLUMNS) + a * _ACTION_WIDTH
        vals = list(map(float, row[off : off + len(_ACTION_FIELDS)]))
        for i, parts in _TOTALS:
            name = f"a{a}_{_ACTION_FIELDS[i][0]}"
            _positive(vals[i], name)
            parts_sum = math.fsum(vals[parts])
            if not math.isclose(vals[i], parts_sum, rel_tol=1e-9):
                raise ValueError(f"{name} is {vals[i]!r} but its parts sum to {parts_sum!r}")
        met = row[off + len(_ACTION_FIELDS)]
        if met not in ("0", "1"):
            raise ValueError(f"a{a}_met must be 0 or 1, got {met!r}")
        total = vals[_ACTION_INDEX["T_s"]]
        if (met == "1") != (total <= deadline):
            raise ValueError(
                f"a{a}_met is {met}, disagreeing with a{a}_T_s {total!r} "
                f"and deadline_s {deadline!r}"
            )
        values += vals
        values.append(met == "1")
    return [_int64(row[0], "record_id"), task_id, user_id, *task, *values]


def _int64(text: str, name: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} {value} does not fit in 64 bits")
    return value


def _rows_to_columns(rows: Sequence[list], n_act: int) -> Dict[str, np.ndarray]:
    """Columns of rows that _parse_record returned."""
    n_ids, n_task = len(_INT_COLUMNS), len(_TASK_COLUMNS)
    ids = np.array([r[:n_ids] for r in rows], dtype=np.int64).reshape(-1, n_ids)
    tasks = np.array([r[n_ids:n_task] for r in rows], dtype=np.float64).reshape(-1, n_task - n_ids)
    actions = np.array([r[n_task:] for r in rows], dtype=np.float64)
    actions = actions.reshape(len(rows), n_act, _ACTION_WIDTH)
    columns = {name: ids[:, k] for k, name in enumerate(_INT_COLUMNS)}
    columns.update((name, tasks[:, k]) for k, name in enumerate(_FLOAT_TASK_COLUMNS))
    columns.update((name, actions[:, :, k]) for k, (_, name) in enumerate(_ACTION_FIELDS))
    columns["met_deadline"] = actions[:, :, -1] != 0.0
    return columns


def _valid_rows(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Where a row of Dataset columns certainly passes the scalar parser's
    value checks: finite and positive size_bits, intensity_cpb and
    deadline_s, met_deadline equal to total_s <= deadline_s, and both
    totals surely summing to their parts.  A row it does not clear may
    still pass; only the scalar parser decides that."""
    deadline = columns["deadline_s"]
    ok = _finite_positive(deadline)
    ok &= _finite_positive(columns["size_bits"]) & _finite_positive(columns["intensity_cpb"])
    ok &= (columns["met_deadline"] == (columns["total_s"] <= deadline[:, None])).all(axis=1)
    for total, parts in _SUMS:
        ok &= _surely_sums_to(columns[total], [columns[p] for p in parts]).all(axis=1)
    return ok


def _finite_positive(values: np.ndarray) -> np.ndarray:
    return (values > 0.0) & (values < math.inf)


def _surely_sums_to(total: np.ndarray, parts: Sequence[np.ndarray]) -> np.ndarray:
    """Where total certainly passes the scalar parser's checks: finite and
    positive, and within relative 1e-9 of the math.fsum of the part
    arrays.  The plain sum's error is bounded by n * 2**-52 * sum(|parts|),
    the tolerance is shrunk by that bound and by 0.1%, and totals far from
    1 are left to the exact check."""
    with np.errstate(over="ignore", invalid="ignore"):  # a malformed part may be inf or nan
        plain = sum(parts[1:], parts[0])
        bound = len(parts) * 2.0**-52 * sum(map(np.abs, parts))
        size = np.maximum(np.abs(total), np.abs(plain)) - bound
        close = np.abs(total - plain) + bound <= 0.999e-9 * size
    return close & _finite_positive(total) & (total > 1e-290) & (total < 1e290)


def column_path(csv_path: str) -> str:
    """Path of the column file that goes with the dataset file csv_path."""
    return csv_path + ".npy"


def save_dataset(dataset: Dataset, path: str) -> str:
    """Write dataset.csv to path, then its column file beside it, each
    atomically; return the CSV's sha256, which the column file holds."""
    dataset.write_csv(path)
    digest = sha256_file(path)
    with atomic_open(column_path(path), "wb") as fh:
        fh.write(_digest_record(digest))
        for column in dataset.columns().values():
            np.lib.format.write_array(fh, column, allow_pickle=False)
    return digest


def load_dataset(path: str) -> Tuple[Dataset, str]:
    """The dataset in the dataset file path, and the file's sha256.  The
    columns come from the column file beside it when that file is bound
    to these bytes and valid, and from the text otherwise.  The binding
    is the digest record alone: a bound column file is trusted to hold
    the CSV's values, which are not compared cell by cell."""
    digest = sha256_file(path)
    return Dataset.from_csv(path, digest), digest


def _digest_record(digest: str) -> bytes:
    """The first record of a column file: the CSV's sha256 in hex, as
    the NPY bytes of a 0-d bytes array."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array(digest.encode("ascii")), allow_pickle=False)
    return buf.getvalue()


def _read_columns(path: str, digest: str) -> Optional[Dict[str, np.ndarray]]:
    """The columns in the column file at path, or None unless the file
    starts with the record of digest and then holds, loaded without
    pickles and with nothing after them, the columns of _column_specs for
    some row count and at least two actions, with every row cleared by
    _valid_rows."""
    head = _digest_record(digest)
    try:
        with open(path, "rb") as fh:
            if fh.read(len(head)) != head:
                return None
            arrays = [np.lib.format.read_array(fh, allow_pickle=False) for _ in _COLUMNS]
            if fh.read(1):
                return None
    except (OSError, ValueError, OverflowError, MemoryError):
        return None
    columns = dict(zip(_COLUMNS, arrays))
    shape = columns["met_deadline"].shape
    if len(shape) != 2 or shape[1] < 2:
        return None
    for name, dtype, want in _column_specs(*shape):
        if columns[name].dtype != dtype or columns[name].shape != want:
            return None
    return columns if _valid_rows(columns).all() else None


def generate_dataset(
    node: NodeConfig,
    channels: Sequence[ChannelConfig],
    workload: WorkloadConfig,
    n_records: int,
    seed: int,
) -> Dataset:
    """Run the live system under uniform-random actions, logging every
    arrival's task and decision snapshot until exactly n_records are
    collected, then project every logged decision's what-if outcome set at
    once: one project_outcome call per action on a column of decisions."""
    # imported here, not at the top: train and evaluate load this module
    # to replay a dataset, and a replay never runs the simulator
    from .netsim import Simulator, Snapshot, project_outcome

    if n_records < 1:
        raise ConfigError(f"n_records must be >= 1, got {n_records}")
    C = node.n_channels
    n_actions = C + 1
    # the uniform logging policy reads no state and decides exactly
    # n_records tasks, so its actions are one vector draw, in arrival order
    actions = substream(seed, "logging-policy").integers(n_actions, size=n_records).tolist()
    # one column per record: the task's and the snapshot's floats, then the
    # task's ids and the snapshot's per-channel counts
    floats = np.empty((6 + 3 * C, n_records))
    ints = np.empty((2 + 2 * C, n_records), dtype=np.int64)
    logged = 0

    def logging_policy(sim: Simulator, task: Task) -> int:
        nonlocal logged
        snap = sim.snapshot(task)
        floats[:, logged] = (
            task.arrival_time, task.size_bits, task.intensity_cpb, task.deadline_s,
            snap.local_backlog_cycles, snap.edge_backlog_cycles,
            *snap.gains, *snap.uplink_backlog_bits, *snap.downlink_backlog_bits,
        )
        ints[:, logged] = (task.task_id, task.user_id, *snap.uplink_others, *snap.downlink_others)
        logged += 1
        return actions[logged - 1]

    sim = Simulator(node, channels, Uniforms(substream(seed, "gains")), policy=logging_policy)
    sim.add_arrivals(itertools.islice(arrivals(workload, seed, node.n_users), n_records))
    while logged < n_records:
        sim.advance()

    arrival, size, intensity, deadline, local, edge = floats[:6]
    snaps = Snapshot(
        Task(*ints[:2], arrival, size, intensity, deadline), floats[6 : 6 + C], local, edge,
        floats[6 + C : 6 + 2 * C], floats[6 + 2 * C :], ints[2 : 2 + C], ints[2 + C :],
        sim.node, sim.channels,
    )
    columns = dict(zip(_TASK_COLUMNS, (np.arange(n_records), *ints[:2], *floats[:4])))
    # the R x A outcome columns, filled one action at a time
    for name, dtype, shape in _column_specs(n_records, n_actions):
        columns.setdefault(name, np.empty(shape, dtype))
    for a in range(n_actions):
        out = project_outcome(snaps, a)
        for name in _COLUMNS[len(_TASK_COLUMNS) :]:
            columns[name][:, a] = getattr(out, name)
    return Dataset(columns)
