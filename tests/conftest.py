import numpy as np
import pytest

from e2da.system import ChannelConfig, NodeConfig
from e2da.workload import Constant, Task


def make_task(
    task_id=0,
    user_id=0,
    arrival_time=0.0,
    size_bits=1_000_000.0,
    intensity_cpb=1000.0,
    deadline_s=10.0,
):
    return Task(task_id, user_id, arrival_time, size_bits, intensity_cpb, deadline_s)


def fixed_gain_channel(rate_bps, power_w, gain=0.8, down_rate_bps=None, down_power_w=None):
    """Channel whose gain draw is a constant, so transfers are closed-form."""
    return ChannelConfig(
        uplink_rate_bps=rate_bps,
        downlink_rate_bps=down_rate_bps if down_rate_bps is not None else rate_bps,
        uplink_power_w=power_w,
        downlink_power_w=down_power_w if down_power_w is not None else power_w / 2,
        gain=Constant(gain),
    )


class StubRng:
    """Duck-typed stand-in for np.random.Generator feeding scripted draws."""

    def __init__(self, uniforms=(), integers=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)
        self.calls = []  # ("random",) or ("integers", *args), in call order

    def random(self):
        self.calls.append(("random",))
        return self._uniforms.pop(0)

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", *args))
        return self._integers.pop(0)


@pytest.fixture
def rng_pair():
    """Two generators with identical state, for mirrored-draw oracles."""

    def make():
        a = np.random.Generator(np.random.PCG64(12345))
        b = np.random.Generator(np.random.PCG64(12345))
        return a, b

    return make


def single_user_node(**overrides):
    defaults = dict(
        n_users=1,
        n_base_stations=1,
        n_channels=1,
        user_cpu_hz=1e9,
        edge_vm_hz=4e9,
        kappa_j_per_cycle_hz2=1e-27,
        result_size_ratio=0.1,
    )
    defaults.update(overrides)
    return NodeConfig(**defaults)


def csv_text(dataset):
    """The dataset.csv text that Dataset.write_csv writes."""
    return "".join(dataset._csv_chunks())


def finite_difference_grads(model, x, actions, targets, h=1e-5):
    """Central differences over every parameter, done in place and restored."""
    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]

    def loss_at():
        loss, _, _ = model.loss_and_grads(x, actions, targets)
        return loss

    for layer, w in enumerate(model.weights):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = w[idx]
            w[idx] = keep + h
            up = loss_at()
            w[idx] = keep - h
            dn = loss_at()
            w[idx] = keep
            gw[layer][idx] = (up - dn) / (2 * h)
    for layer, b in enumerate(model.biases):
        for i in range(b.size):
            keep = b[i]
            b[i] = keep + h
            up = loss_at()
            b[i] = keep - h
            dn = loss_at()
            b[i] = keep
            gb[layer][i] = (up - dn) / (2 * h)
    return gw, gb


def max_rel_err(analytic, numeric):
    """Worst elementwise relative disagreement between two gradient lists."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# Cell values that probe the dataset parser where its checks are tight, by
# the kind of dataset column they go in; "*r" scales the cell by 1 + r.
MUTATIONS = {
    "total": ["*0.9e-9", "*1e-9", "*1.1e-9", "*-0.999e-9", "*-1.001e-9"],
    "part": ["nan", "inf", "-1.0", "0.0", "5e-324", "1e300"],
    "met": ["0", "1", " 1", "1.0", "01", ""],
    "int": ["+3", " 4", "05", "1.0", "1e2", "-1", "99999999999999999999"],
    "task": [" 0.5", "0.5 ", "nan", "-1", "1e400", "1_0.0", "0x10", "5e-324"],
}


def mutation_columns(header):
    """The indices of the dataset.csv columns each kind of MUTATIONS goes in."""
    return {
        "total": [i for i, h in enumerate(header) if h.endswith(("_T_s", "_e_total_J"))],
        "part": [i for i, h in enumerate(header) if h.endswith(("d2_s", "t_up_s", "e_tx_J"))],
        "met": [i for i, h in enumerate(header) if h.endswith("_met")],
        "int": [0, 1, 2],
        "task": [3, 4, 5, 6],
    }


def mutated(cell, value):
    """The text a MUTATIONS value puts in place of cell."""
    if value.startswith("*"):
        return repr(float(cell) * (1 + float(value[1:])))
    return value
