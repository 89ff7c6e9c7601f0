import itertools
import math

import numpy as np
import pytest

from conftest import StubRng, make_task
from e2da import workload
from e2da.errors import ConfigError
from e2da.rng import substream
from e2da.workload import (
    Constant,
    Exponential,
    Uniform,
    WorkloadConfig,
    arrivals,
    normalize_context,
    sample_interarrival,
    sample_task,
    task_stream,
)


class TestDistributionSpec:
    def test_uniform_inverse_cdf(self):
        dist = Uniform(10.0, 20.0)
        assert dist.sample(StubRng([0.5])) == 15.0
        assert dist.sample(StubRng([0.0])) == 10.0

    def test_uniform_single_draw(self):
        rng = substream(3, "t")
        mirror = substream(3, "t")
        dist = Uniform(0.0, 1.0)
        got = [dist.sample(rng) for _ in range(5)]
        want = [mirror.random() for _ in range(5)]
        assert got == want

    def test_constant_consumes_nothing(self):
        dist = Constant(42.0)
        assert dist.sample(StubRng([])) == 42.0

    def test_exponential_inverse_cdf(self):
        dist = Exponential(3.0)
        # u = 0.5 gives exactly mean * ln 2
        assert dist.sample(StubRng([0.5])) == 3.0 * math.log(2.0)

    def test_exponential_zero_draw_is_finite(self):
        dist = Exponential(1.0)
        v = dist.sample(StubRng([0.0]))
        assert math.isfinite(v) and v > 0

    def test_support(self):
        assert Uniform(1, 2).support() == (1, 2)
        assert Constant(5).support() == (5, 5)
        assert Exponential(1).support() is None

    @pytest.mark.parametrize(
        "dist",
        [
            lambda: Uniform(2.0, 2.0),
            lambda: Uniform(3.0, 1.0),
            lambda: Exponential(0.0),
            lambda: Exponential(-1.0),
            lambda: Uniform(1.0, math.inf),
            lambda: Constant(math.nan),
        ],
    )
    def test_validate_rejects(self, dist):
        with pytest.raises(ConfigError):
            dist()


class TestInterarrival:
    def test_inverse_cdf(self):
        # u = 0.5 -> ln 2 / rate, exact
        assert sample_interarrival(StubRng([0.5]), 4.0) == math.log(2.0) / 4.0

    def test_zero_draw_guard(self):
        v = sample_interarrival(StubRng([0.0]), 1.0)
        assert math.isfinite(v) and v > 0

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            sample_interarrival(StubRng([0.5]), 0.0)

    def test_mean_matches_rate(self):
        rng = substream(11, "ia")
        rate = 40.0
        gaps = [sample_interarrival(rng, rate) for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(1.0 / rate, rel=0.03)


class TestSampleTask:
    def test_field_order_is_size_intensity_deadline(self):
        cfg = WorkloadConfig()
        stub = StubRng([0.5, 0.25, 1.0 - 2**-53])
        task = sample_task(stub, cfg, arrival_time=1.5, user_id=2, task_id=9)
        assert task.size_bits == 10.0 + (75_000.0 - 10.0) * 0.5
        assert task.intensity_cpb == 10.0 + (1000.0 - 10.0) * 0.25
        assert task.deadline_s == pytest.approx(0.018, rel=1e-12)
        assert (task.task_id, task.user_id, task.arrival_time) == (9, 2, 1.5)


def reference_task_stream(cfg, master_seed, user_id, n_users):
    """The stream as one scalar Generator.random() call per draw:
    interarrival gap, then size, intensity and deadline.  task_stream must
    give the same tasks, float for float."""
    rng = substream(master_seed, "workload", user_id)
    t, seq = 0.0, 0
    while True:
        t += sample_interarrival(rng, cfg.arrival_rate_per_s)
        yield sample_task(rng, cfg, t, user_id, seq * n_users + user_id)
        seq += 1


class TestTaskStream:
    def test_deterministic(self):
        cfg = WorkloadConfig()
        a = list(itertools.islice(task_stream(cfg, 5, 1, 4), 20))
        b = list(itertools.islice(task_stream(cfg, 5, 1, 4), 20))
        assert a == b

    def test_users_independent(self):
        cfg = WorkloadConfig()
        alone = list(itertools.islice(task_stream(cfg, 5, 0, 4), 10))
        # drawing user 1 first must not shift user 0's stream
        list(itertools.islice(task_stream(cfg, 5, 1, 4), 10))
        again = list(itertools.islice(task_stream(cfg, 5, 0, 4), 10))
        assert alone == again

    def test_ids_unique_and_interleaved(self):
        cfg = WorkloadConfig()
        ids = [
            t.task_id
            for u in range(3)
            for t in itertools.islice(task_stream(cfg, 5, u, 3), 5)
        ]
        assert len(set(ids)) == 15
        user0_ids = [t.task_id for t in itertools.islice(task_stream(cfg, 5, 0, 3), 4)]
        assert user0_ids == [0, 3, 6, 9]

    def test_arrivals_increase(self):
        cfg = WorkloadConfig()
        times = [t.arrival_time for t in itertools.islice(task_stream(cfg, 5, 0, 1), 50)]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0.0

    @pytest.mark.parametrize(
        "cfg",
        [
            WorkloadConfig(),
            # 2, 3 and 4 draws per task, so tasks straddle block boundaries
            WorkloadConfig(
                arrival_rate_per_s=3.0,
                size_bits=Constant(5000.0),
                deadline_s=Exponential(0.02),
                context_bounds=((1.0, 9000.0), (10.0, 1000.0), (0.001, 0.1)),
            ),
            WorkloadConfig(intensity_cpb=Constant(100.0),
                           size_bits=Constant(10.0),
                           context_bounds=((1.0, 90.0), (10.0, 1000.0), (0.01, 0.018))),
        ],
    )
    def test_matches_scalar_draw_reference(self, cfg):
        for seed, user, n_users in ((5, 0, 1), (5, 3, 4), (11, 49, 50), (0, 2, 500)):
            got = itertools.islice(task_stream(cfg, seed, user, n_users), 2000)
            want = itertools.islice(reference_task_stream(cfg, seed, user, n_users), 2000)
            assert [repr(t) for t in got] == [repr(t) for t in want]


class TestArrivals:
    @pytest.mark.parametrize("n_users", [1, 3, 50])
    def test_merges_the_user_streams_in_time_order(self, n_users):
        """A prefix of the feed is the users' stream prefixes interleaved
        in non-decreasing arrival time."""
        cfg, n = WorkloadConfig(), 40 * n_users
        got = list(itertools.islice(arrivals(cfg, 5, n_users), n))
        streams = [itertools.islice(task_stream(cfg, 5, u, n_users), n) for u in range(n_users)]
        want = sorted(itertools.chain(*streams), key=lambda t: (t.arrival_time, t.user_id))
        assert got == want[:n]
        times = [t.arrival_time for t in got]
        assert times == sorted(times)

    def test_tied_arrivals_come_in_user_order(self, monkeypatch):
        """Users 0, 1 and 2 arrive every 1, 2 and 3 s, so they tie at
        every even second and every multiple of 3 s."""

        def grid(cfg, master_seed, user_id, n_users):
            for seq in itertools.count(1):
                yield make_task(task_id=seq * n_users + user_id, user_id=user_id,
                                arrival_time=float(seq * (user_id + 1)))

        monkeypatch.setattr(workload, "task_stream", grid)
        got = [(t.arrival_time, t.user_id) for t in itertools.islice(arrivals(None, 0, 3), 11)]
        assert got == [(1.0, 0), (2.0, 0), (2.0, 1), (3.0, 0), (3.0, 2), (4.0, 0), (4.0, 1),
                       (5.0, 0), (6.0, 0), (6.0, 1), (6.0, 2)]

    def test_holds_one_drawn_task_per_user(self, monkeypatch):
        drawn = []

        def counted(*args):
            for task in task_stream(*args):
                drawn.append(task)
                yield task

        monkeypatch.setattr(workload, "task_stream", counted)
        feed = arrivals(WorkloadConfig(), 5, 4)
        assert drawn == []  # nothing is drawn before the feed is asked
        list(itertools.islice(feed, 10))
        assert len(drawn) == 10 + 4 - 1


class TestWorkloadConfig:
    def test_default_bounds_from_supports(self):
        cfg = WorkloadConfig()
        assert cfg.context_bounds == (
            (10.0, 75_000.0),
            (10.0, 1000.0),
            (0.010, 0.018),
        )

    def test_unbounded_feature_needs_explicit_bounds(self):
        with pytest.raises(ConfigError, match="context_bounds"):
            WorkloadConfig(size_bits=Exponential(1000.0))
        ok = WorkloadConfig(
            size_bits=Exponential(1000.0),
            context_bounds=((1.0, 9000.0), (10.0, 1000.0), (0.01, 0.018)),
        )
        assert ok.context_bounds[0] == (1.0, 9000.0)

    def test_nonpositive_support_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(size_bits=Uniform(0.0, 10.0))

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(arrival_rate_per_s=0.0)


def features(task):
    return task.size_bits, task.intensity_cpb, task.deadline_s


class TestContextScaling:
    def test_midpoint_is_half(self):
        cfg = WorkloadConfig()
        task = make_task(size_bits=37_505.0, intensity_cpb=505.0, deadline_s=0.014)
        x = normalize_context(features(task), cfg.context_scale())
        # size and intensity midpoints are exact in binary; the deadline
        # bounds are decimal fractions, so that lane gets a tolerance
        assert x[0] == 0.5 and x[1] == 0.5
        assert x[2] == pytest.approx(0.5, rel=1e-12)

    def test_extremes_and_clamping(self):
        cfg = WorkloadConfig()
        lo = make_task(size_bits=10.0, intensity_cpb=10.0, deadline_s=0.010)
        scale = cfg.context_scale()
        assert normalize_context(features(lo), scale).tolist() == [0.0, 0.0, 0.0]
        wild = make_task(size_bits=1e9, intensity_cpb=1.0, deadline_s=100.0)
        assert normalize_context(features(wild), scale).tolist() == [1.0, 0.0, 1.0]

    def test_rows_scale_like_single_tasks(self):
        cfg = WorkloadConfig()
        rng = substream(4, "contexts")
        rows = np.column_stack(
            (rng.uniform(0.0, 9e4, 50), rng.uniform(1.0, 1100.0, 50), rng.uniform(0.005, 0.02, 50))
        )
        bounds, scale = cfg.context_bounds, cfg.context_scale()
        scaled = normalize_context(rows, scale)
        assert scaled.shape == (50, 3)
        for row, x in zip(rows.tolist(), scaled.tolist()):
            assert x == normalize_context(tuple(row), scale).tolist()
            # the scalar formula, float for float
            assert x == [
                min(max((v - lo) / (hi - lo), 0.0), 1.0) for v, (lo, hi) in zip(row, bounds)
            ]
