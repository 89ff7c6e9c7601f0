"""Named random substreams derived from one master seed.

Every source of randomness in a run (per-user workloads, channel gains,
weight init, exploration, minibatch sampling, ...) pulls from its own
generator so that adding draws to one stream never perturbs another.
"""

import hashlib

import numpy as np


def _label_entropy(label) -> int:
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Generator whose stream is a pure function of (master_seed, labels)."""
    entropy = [int(master_seed)] + [_label_entropy(lab) for lab in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class Uniforms:
    """A generator's random() doubles, served in order from blocks.

    random() returns exactly the values, as Python floats, that scalar
    gen.random() calls would return, but draws them with gen.random(n): the
    first block is one task's worth (4 draws) and each later one as large
    as all draws so far, up to 256.  A stream that has served n values
    therefore holds at most max(4, n) undrawn ones.

    Wrap only a generator that nothing but random() draws from: the
    per-user workload streams and the channel-gain stream.  Never wrap one
    that also calls integers(), such as the logging-policy, explore,
    minibatch or calibration-actions streams: a scalar integers() call
    keeps the spare 32-bit half of a draw that a vector call drops, so
    drawing ahead would change those streams.
    """

    __slots__ = ("_gen", "_next", "_drawn")

    FIRST, MOST = 4, 256

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._next = iter(()).__next__  # the current block's iterator
        self._drawn = 0

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            n = min(self.MOST, max(self.FIRST, self._drawn))
            self._drawn += n
            self._next = iter(self._gen.random(n).tolist()).__next__
            return self._next()
