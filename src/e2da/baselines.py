"""Frozen-state oracle schedulers.

Each oracle ranks the what-if outcomes of tasks, given as arrays with the
actions on the last axis (a replay episode's gathered k x A dataset rows,
or one task's Simulator.projections live), and returns the best action
along that axis.
Each is deliberately blind to everything its criterion ignores: eel_star
maximizes bits per second-joule, ee_star bits per joule, r_star minimizes
response time.  None of them looks at the deadline.  Ties go to the lowest
action index.
"""

from __future__ import annotations

import numpy as np

from .bandit import efficiency


def eel_star(size_bits, total_s, e_total_j):
    """Action with the highest size / (T * E)."""
    return np.argmax(efficiency(size_bits, total_s, e_total_j), axis=-1)


def ee_star(size_bits, total_s, e_total_j):
    """Action with the highest size / E."""
    return np.argmax(np.divide(size_bits, e_total_j), axis=-1)


def r_star(size_bits, total_s, e_total_j):
    """Action with the lowest response time."""
    return np.argmin(total_s, axis=-1)


ORACLES = {"eel": eel_star, "ee": ee_star, "r": r_star}
