"""The theorem suite's generator against numpy's, its oracle.

eprseq._rng.Rng replays numpy.random.default_rng(seed)'s stream, value for
value, for the draws the suite makes.  The golden check-theorems outputs were
written with numpy 2.4's generator, so this test pins that stream: a numpy
whose Generator.integers or choice draws differently fails it, while the
goldens, drawn from the replica, still hold.
"""

import numpy as np
import pytest

from eprseq._rng import Rng

SEEDS = [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 12345, 2**160 + 2**129 + 7]


def _draws(rng, numpy: bool):
    """Scalar, sized and without-replacement draws, interleaved so the high half
    of a 64-bit output carries from one call to the next."""

    def sized(low, high, size):
        got = rng.integers(low, high, size=size) if numpy else rng.integers(low, high, size)
        return got.tolist() if numpy else got

    def sample(n):
        return rng.choice(n, size=3, replace=False).tolist() if numpy else rng.sample(n, 3)

    out = []
    for k in range(40):
        out.append(int(rng.integers(2, 6)))
        out.append(int(rng.integers(k, k + 1)))  # one value: nothing drawn
        out.append(sized(0, 4, k % 7))  # size 0 included
        out.append(sample(3 + k % 3))
        out.append(int(rng.integers(0, 1 << 32)))
        out.append(sized(0, 2, 3))
        out.append(int(rng.integers(1, 5)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_draws_what_default_rng_draws(seed):
    assert _draws(Rng(seed), False) == _draws(np.random.default_rng(seed), True)

