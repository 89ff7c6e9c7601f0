import numpy as np

from e2da.rng import Uniforms, substream


def test_same_labels_same_stream():
    a = substream(7, "workload", 3)
    b = substream(7, "workload", 3)
    assert np.array_equal(a.random(100), b.random(100))


def test_label_separation():
    draws = {
        name: substream(7, *labels).random(8).tolist()
        for name, labels in {
            "w0": ("workload", 0),
            "w1": ("workload", 1),
            "gains": ("gains",),
            "explore": ("explore",),
        }.items()
    }
    seen = [tuple(v) for v in draws.values()]
    assert len(set(seen)) == len(seen)


def test_seed_separation():
    a = substream(1, "gains").random(8)
    b = substream(2, "gains").random(8)
    assert not np.array_equal(a, b)


def test_generator_type():
    assert isinstance(substream(0, "x"), np.random.Generator)


def test_uniforms_serve_the_scalar_draws_across_blocks():
    # blocks of 4, 4, 8, ..., 256, 256: eleven boundaries in 1,500 draws
    blocked, scalar = Uniforms(substream(7, "workload", 2)), substream(7, "workload", 2)
    got = [blocked.random() for _ in range(1500)]
    want = [scalar.random() for _ in range(1500)]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert all(type(v) is float for v in got)


class CountingGenerator:
    """A generator that counts the doubles drawn from it in blocks."""

    def __init__(self, gen):
        self.gen, self.drawn = gen, 0

    def random(self, n):
        self.drawn += n
        return self.gen.random(n)


def test_uniforms_hold_at_most_max_4_n_undrawn_values():
    counting = CountingGenerator(substream(7, "gains"))
    blocked = Uniforms(counting)
    assert counting.drawn == 0
    for n in range(1, 3000):
        blocked.random()
        assert counting.drawn - n <= max(4, n)
    assert counting.drawn - n <= Uniforms.MOST
