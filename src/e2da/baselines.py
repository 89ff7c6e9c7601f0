"""Frozen-state oracle schedulers.

Each oracle ranks the what-if outcomes of a single task, a plain sequence
indexed by action (a dataset record's outcomes, or Simulator.projections
live), and is deliberately blind to everything its criterion ignores:
eel_star maximizes bits per second-joule, ee_star bits per joule, r_star
minimizes response time.  None of them looks at the deadline.  Ties go to
the lowest action index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bandit import efficiency
from .netsim import TaskOutcome


def _argbest(values: Sequence[float], maximize: bool) -> int:
    arr = np.asarray(values, dtype=np.float64)
    return int(np.argmax(arr)) if maximize else int(np.argmin(arr))


def eel_star(outcomes: Sequence[TaskOutcome]) -> int:
    """Action with the highest size / (T * E)."""
    return _argbest(
        [efficiency(o.size_bits, o.total_s, o.e_total_j) for o in outcomes], maximize=True
    )


def ee_star(outcomes: Sequence[TaskOutcome]) -> int:
    """Action with the highest size / E."""
    return _argbest([o.size_bits / o.e_total_j for o in outcomes], maximize=True)


def r_star(outcomes: Sequence[TaskOutcome]) -> int:
    """Action with the lowest response time."""
    return _argbest([o.total_s for o in outcomes], maximize=False)


ORACLES = {"eel": eel_star, "ee": ee_star, "r": r_star}
