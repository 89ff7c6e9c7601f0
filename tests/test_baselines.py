import numpy as np
import pytest

from conftest import make_task
from e2da.baselines import ORACLES, ProjectionSet, ee_star, eel_star, r_star
from e2da.experiment import generate_dataset, make_policy
from e2da.netsim import NodeConfig, TaskOutcome, default_channels
from e2da.rng import substream
from e2da.workload import WorkloadConfig


def proj(task_id, rows):
    """rows: per-action (size, total, energy) triples."""
    outs = tuple(
        TaskOutcome(
            task_id=task_id, user_id=0, action=a, arrival_s=0.0, size_bits=s,
            intensity_cpb=100.0, deadline_s=1.0, d1_s=0.0, d2_s=0.0, d3_s=0.0,
            d4_s=0.0, t_exec_s=0.0, t_up_s=0.0, t_down_s=0.0, total_s=t,
            e_cpu_j=0.0, e_tx_j=0.0, e_rx_j=0.0, e_total_j=e, met_deadline=True,
        )
        for a, (s, t, e) in enumerate(rows)
    )
    return ProjectionSet(task_id=task_id, outcomes=outs)


class TestOracleRules:
    def test_each_criterion_picks_its_own_winner(self):
        # action 0: fastest; action 1: best bits/J; action 2: best bits/(s*J)
        ps = proj(0, [(1000.0, 0.1, 10.0), (1000.0, 5.0, 0.1), (1000.0, 0.5, 0.2)])
        assert r_star(ps) == 0
        assert ee_star(ps) == 1
        assert eel_star(ps) == 2

    def test_ties_go_to_lowest_index(self):
        ps = proj(0, [(1000.0, 1.0, 1.0), (1000.0, 1.0, 1.0), (1000.0, 2.0, 2.0)])
        assert eel_star(ps) == 0
        assert ee_star(ps) == 0
        assert r_star(ps) == 0

    def test_registry(self):
        assert set(ORACLES) == {"eel", "ee", "r"}
        assert ORACLES["eel"] is eel_star


class TestProjectionSet:
    def test_rejects_misaligned_actions(self):
        good = proj(3, [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            ProjectionSet(task_id=3, outcomes=(good.outcomes[1], good.outcomes[0]))


class TestBruteForceCrossCheck:
    """Replay the rules against plain python max/min with first-wins ties."""

    @staticmethod
    @pytest.fixture(scope="class")
    def dataset():
        node = NodeConfig(n_users=4, n_base_stations=2, n_channels=3)
        return generate_dataset(
            node, default_channels(), WorkloadConfig(), n_records=300, seed=77
        )

    def test_eel_matches_naive_scan(self, dataset):
        for rec in dataset.records:
            best, best_v = 0, -np.inf
            for a, o in enumerate(rec.outcomes):
                v = o.size_bits / (o.total_s * o.e_total_j)
                if v > best_v:
                    best, best_v = a, v
            assert eel_star(rec.projection_set()) == best

    def test_ee_matches_naive_scan(self, dataset):
        for rec in dataset.records:
            best, best_v = 0, -np.inf
            for a, o in enumerate(rec.outcomes):
                v = o.size_bits / o.e_total_j
                if v > best_v:
                    best, best_v = a, v
            assert ee_star(rec.projection_set()) == best

    def test_r_matches_naive_scan(self, dataset):
        for rec in dataset.records:
            best, best_v = 0, np.inf
            for a, o in enumerate(rec.outcomes):
                if o.total_s < best_v:
                    best, best_v = a, o.total_s
            assert r_star(rec.projection_set()) == best


class TestPolicyWrappers:
    """make_policy turns an agent name into choose(task, x, projections)."""

    def test_oracle_policy_dispatch(self):
        ps = proj(0, [(1000.0, 0.1, 10.0), (1000.0, 5.0, 0.1), (1000.0, 0.5, 0.2)])
        task, x = make_task(), np.zeros(3)
        assert make_policy("r")(task, x, lambda: ps) == 0
        assert make_policy("ee")(task, x, lambda: ps) == 1
        assert make_policy("eel")(task, x, lambda: ps) == 2

    def test_oracle_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("best")

    def test_random_policy_mirrors_generator(self):
        choose = make_policy("random", rng=substream(9, "actions"), n_actions=4)
        mirror = substream(9, "actions")

        def projections():
            raise AssertionError("random must not request projections")

        picks = [choose(make_task(), np.zeros(3), projections) for _ in range(20)]
        assert picks == [int(mirror.integers(4)) for _ in range(20)]
