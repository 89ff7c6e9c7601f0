"""Frozen-state oracle schedulers.

Each oracle ranks the per-action what-if outcomes of a single task and is
deliberately blind to everything its criterion ignores: eel_star maximizes
bits per second-joule, ee_star bits per joule, r_star minimizes response
time.  None of them looks at the deadline.  Ties go to the lowest action
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .netsim import TaskOutcome


@dataclass(frozen=True)
class ProjectionSet:
    """All per-action what-if outcomes of one task, action index aligned."""

    task_id: int
    outcomes: Tuple[TaskOutcome, ...]

    def __post_init__(self):
        for a, out in enumerate(self.outcomes):
            if out.action != a:
                raise ValueError(
                    f"outcome at position {a} has action {out.action}; "
                    "projections must be action-indexed"
                )


def _argbest(values: Sequence[float], maximize: bool) -> int:
    arr = np.asarray(values, dtype=np.float64)
    return int(np.argmax(arr)) if maximize else int(np.argmin(arr))


def eel_star(ps: ProjectionSet) -> int:
    """Action with the highest size / (T * E)."""
    return _argbest(
        [o.size_bits / (o.total_s * o.e_total_j) for o in ps.outcomes], maximize=True
    )


def ee_star(ps: ProjectionSet) -> int:
    """Action with the highest size / E."""
    return _argbest([o.size_bits / o.e_total_j for o in ps.outcomes], maximize=True)


def r_star(ps: ProjectionSet) -> int:
    """Action with the lowest response time."""
    return _argbest([o.total_s for o in ps.outcomes], maximize=False)


ORACLES = {"eel": eel_star, "ee": ee_star, "r": r_star}
