"""Run one e2da CLI command with timing spans around its public functions.

Usage: python3 trace_child.py SPANS_JSON <e2da command and arguments>

The wrappers are installed at run time, so no file of the package changes.
Each span's parent is the innermost open span, and a span's self time is
its duration minus the time of its direct children.  Per-call durations are
kept in memory and written to SPANS_JSON when the command returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

from e2da import baselines, bandit, cli, config, experiment, ioutil, netsim, workload

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


# A units hook gets (function, args, kwargs, result) after a call returns and
# gives the work the call did, which the span accumulates beside its time.


def _decisions(fn, args, kwargs, result):
    """Decisions a loop is asked for, n_episodes * tasks_per_episode."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return bound["n_episodes"] * bound["tasks_per_episode"]


def _file_bytes(fn, args, kwargs, result):
    """Size of the file that Dataset.write_csv or Dataset.from_csv touched."""
    return os.path.getsize(args[1])


def _useful(fn, args, kwargs, result):
    """Hook for Simulator.advance: 1 when the event finished a task."""
    return result is not None


# (span name, owner, attribute, units hook, track resident-memory growth)
TARGETS = (
    ("config.load_config", config, "load_config", None, False),
    ("ioutil.sha256_file", ioutil, "sha256_file", None, False),
    ("workload.sample_task", workload, "sample_task", None, False),
    ("workload.normalize_context", workload, "normalize_context", None, False),
    ("netsim.Simulator.advance", netsim.Simulator, "advance", _useful, False),
    ("netsim.Simulator.snapshot", netsim.Simulator, "snapshot", None, False),
    ("netsim.Simulator.submit", netsim.Simulator, "submit", None, False),
    ("netsim.project_outcome", netsim, "project_outcome", None, False),
    ("bandit.MlpModel.forward", bandit.MlpModel, "forward", None, False),
    ("bandit.MlpModel.loss_and_grads", bandit.MlpModel, "loss_and_grads", None, False),
    ("bandit.MlpModel.apply_grads", bandit.MlpModel, "apply_grads", None, False),
    ("bandit.ReplayBuffer.sample", bandit.ReplayBuffer, "sample", None, False),
    ("bandit.E2daAgent.observe", bandit.E2daAgent, "observe", None, False),
    ("bandit.compute_reward", bandit, "compute_reward", None, False),
    ("baselines.eel_star", baselines, "eel_star", None, False),
    ("experiment.generate_dataset", experiment, "generate_dataset", None, True),
    ("experiment.Dataset.write_csv", experiment.Dataset, "write_csv", _file_bytes, False),
    ("experiment.Dataset.from_csv", experiment.Dataset, "from_csv", _file_bytes, True),
    ("experiment.calibrate_efficiency_scale", experiment, "calibrate_efficiency_scale", None, False),
    (
        "experiment.calibrate_efficiency_scale_live",
        experiment,
        "calibrate_efficiency_scale_live",
        None,
        False,
    ),
    ("experiment.run_training", experiment, "run_training", _decisions, False),
    ("experiment.run_evaluation", experiment, "run_evaluation", _decisions, False),
    ("experiment.run_live_training", experiment, "run_live_training", None, False),
    ("experiment.run_live_evaluation", experiment, "run_live_evaluation", None, False),
    ("experiment._live_rollout", experiment, "_live_rollout", _decisions, False),
)

# The policy callback the simulator invokes from advance(); wrapped per
# Simulator instance so that advance's self time excludes the decision.
POLICY_SPAN = "netsim.policy"

SPAN_NAMES = tuple(t[0] for t in TARGETS) + (POLICY_SPAN,)


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "units", "rss_growth", "durations", "self_durations")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.units = 0
        self.rss_growth = 0
        self.durations = array("q")
        self.self_durations = array("q")

    def to_json(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "units": self.units,
            "rss_growth_bytes": self.rss_growth,
            "durations_ns": self.durations.tolist(),
            "self_durations_ns": self.self_durations.tolist(),
        }


class Tracer:
    """Holds one process's spans; `install` wraps every target in TARGETS."""

    def __init__(self):
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self._open = []  # child time accumulated by each open span

    def wrap(self, name, fn, hook=None, track_rss=False):
        st = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = _rss_bytes() if track_rss else 0
            open_spans.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - child
                st.durations.append(dur)
                st.self_durations.append(dur - child)
            if hook is not None:
                st.units += hook(fn, args, kwargs, result)
            if track_rss:
                st.rss_growth = max(st.rss_growth, _rss_bytes() - rss0)
            return result

        return traced

    def install(self) -> None:
        """Rebind each target on its owner and in every e2da module or
        oracle table that imported it by name.  Raises if a target is gone."""
        for name, owner, attr, hook, track_rss in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, hook, track_rss)))
                continue
            wrapped = self.wrap(name, raw, hook, track_rss)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "e2da" or mod_name.startswith("e2da."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
            for key, value in list(baselines.ORACLES.items()):
                if value is raw:
                    baselines.ORACLES[key] = wrapped

        init = netsim.Simulator.__init__
        wrap = self.wrap

        @functools.wraps(init)
        def traced_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            if sim.policy is not None:
                sim.policy = wrap(POLICY_SPAN, sim.policy)

        netsim.Simulator.__init__ = traced_init

    def to_json(self) -> dict:
        return {name: st.to_json() for name, st in self.stats.items()}


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: trace_child.py SPANS_JSON <e2da command and arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    rc = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": rc, "spans": tracer.to_json()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
