import numpy as np
import pytest

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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 11])
@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_vector_draw_equals_scalar_draws(n, seed):
    """One integers(n, size=k) call draws what k scalar integers(n) calls
    draw, and so does any split of the k draws into chunks, and the
    generator ends in the same state.  A replay episode's random policy
    draws its actions as one vector, and so does generate_dataset's
    logging policy for all its records; a live decision draws one scalar."""
    k = 10_000
    scalar, vector, chunked = (substream(seed, "actions") for _ in range(3))
    want = [int(scalar.integers(n)) for _ in range(k)]
    assert vector.integers(n, size=k).tolist() == want
    got = []
    splits = np.random.default_rng(seed)
    while len(got) < k:
        size = min(int(splits.integers(1, 300)), k - len(got))
        got += chunked.integers(n, size=size).tolist()
    assert got == want
    assert scalar.bit_generator.state == vector.bit_generator.state == chunked.bit_generator.state
    assert scalar.random() == vector.random() == chunked.random()
