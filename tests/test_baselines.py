import numpy as np
import pytest

from e2da.baselines import ORACLES, ee_star, eel_star, r_star
from e2da.experiment import generate_dataset, make_policy
from e2da.rng import substream
from e2da.system import NodeConfig, default_channels
from e2da.workload import WorkloadConfig


def proj(rows):
    """rows: per-action (size, total, energy) triples, as the oracles' three
    action-indexed arrays."""
    return tuple(np.array(column) for column in zip(*rows))


class TestOracleRules:
    def test_each_criterion_picks_its_own_winner(self):
        # action 0: fastest; action 1: best bits/J; action 2: best bits/(s*J)
        ps = proj([(1000.0, 0.1, 10.0), (1000.0, 5.0, 0.1), (1000.0, 0.5, 0.2)])
        assert r_star(*ps) == 0
        assert ee_star(*ps) == 1
        assert eel_star(*ps) == 2

    def test_ties_go_to_lowest_index(self):
        ps = proj([(1000.0, 1.0, 1.0), (1000.0, 1.0, 1.0), (1000.0, 2.0, 2.0)])
        assert eel_star(*ps) == 0
        assert ee_star(*ps) == 0
        assert r_star(*ps) == 0

    def test_registry(self):
        assert set(ORACLES) == {"eel", "ee", "r"}
        assert ORACLES["eel"] is eel_star


class TestBruteForceCrossCheck:
    """Replay the rules against plain python max/min with first-wins ties."""

    @staticmethod
    @pytest.fixture(scope="class")
    def dataset():
        node = NodeConfig(n_users=4, n_base_stations=2, n_channels=3)
        return generate_dataset(
            node, default_channels(), WorkloadConfig(), n_records=300, seed=77
        )

    @staticmethod
    def outcomes(dataset):
        """Per record, the action-indexed (size, T, E) triples as floats."""
        sizes, totals, energies = (
            dataset.size_bits.tolist(), dataset.total_s.tolist(), dataset.e_total_j.tolist()
        )
        for size, total, energy in zip(sizes, totals, energies):
            yield [(size, t, e) for t, e in zip(total, energy)]

    @staticmethod
    def picks(rule, dataset):
        """The rule's pick per record, over all records at once and record
        by record; both must agree."""
        size, total, energy = dataset.size_bits, dataset.total_s, dataset.e_total_j
        together = rule(size[:, None], total, energy).tolist()
        one_by_one = [int(rule(size[i], total[i], energy[i])) for i in range(len(dataset))]
        assert together == one_by_one
        return together

    def test_eel_matches_naive_scan(self, dataset):
        for outs, pick in zip(self.outcomes(dataset), self.picks(eel_star, dataset)):
            best, best_v = 0, -np.inf
            for a, (s, t, e) in enumerate(outs):
                v = s / (t * e)
                if v > best_v:
                    best, best_v = a, v
            assert pick == best

    def test_ee_matches_naive_scan(self, dataset):
        for outs, pick in zip(self.outcomes(dataset), self.picks(ee_star, dataset)):
            best, best_v = 0, -np.inf
            for a, (s, t, e) in enumerate(outs):
                v = s / e
                if v > best_v:
                    best, best_v = a, v
            assert pick == best

    def test_r_matches_naive_scan(self, dataset):
        for outs, pick in zip(self.outcomes(dataset), self.picks(r_star, dataset)):
            best, best_v = 0, np.inf
            for a, (s, t, e) in enumerate(outs):
                if t < best_v:
                    best, best_v = a, t
            assert pick == best


class TestPolicyWrappers:
    """make_policy turns an agent or oracle name into the elementwise
    choose(users, x, outcomes)."""

    def test_oracle_policy_dispatch(self):
        ps = proj([(1000.0, 0.1, 10.0), (1000.0, 5.0, 0.1), (1000.0, 0.5, 0.2)])
        assert int(make_policy("r")(0, np.zeros(3), lambda: ps)) == 0
        assert int(make_policy("ee")(0, np.zeros(3), lambda: ps)) == 1
        assert int(make_policy("eel")(0, np.zeros(3), lambda: ps)) == 2

    def test_oracle_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("best")

    def test_random_policy_mirrors_generator(self):
        choose = make_policy("random", rng=substream(9, "actions"), n_actions=4)
        mirror = substream(9, "actions")
        # one 20-row call draws what 20 scalar draws would, as live mode relies on
        picks = choose(np.arange(20) % 3, np.zeros((20, 3)), None)
        assert picks.tolist() == [int(mirror.integers(4)) for _ in range(20)]
