"""numpy.random.default_rng(seed)'s stream in pure Python, for the draws the
theorem suite makes, so check-theorems never loads numpy.

The seed goes through numpy's SeedSequence into PCG64, whose XSL-RR output
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014) serves 32-bit draws, two per
64-bit output; Generator.integers bounds them by Lemire's method ("Fast Random
Integer Generation in an Interval", 2019).  tests/test_rng.py holds the
replica to numpy's generator value for value.
"""

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> tuple[int, int]:
    """(initial state, sequence) that PCG64 takes from SeedSequence(seed)."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return out ^ out >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words, joined little-endian into s0..s3
    const, state = 0x8B51F9DD, 0
    for i in range(8):
        word = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        word = word * const & _M32
        state |= (word ^ word >> 16) << 32 * i
    s0, s1, s2, s3 = (state >> 64 * k & _M64 for k in range(4))
    return s0 << 64 | s1, s2 << 64 | s3


class Rng:
    """numpy.random.default_rng(seed) for integers(low, high[, size]) with
    high - low <= 2^32, and choice(n, size=k, replace=False) as sample(n, k)."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        start, seq = _seed_sequence(seed)
        self._inc = (seq << 1 | 1) & _M128
        # from state 0: step, add the initial state, step
        self._state = ((self._inc + start) * _PCG_MULT + self._inc) & _M128
        self._half = None  # the high half of the last output, for the next 32-bit draw

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot, x = state >> 122, (state >> 64) ^ (state & _M64)
        out = (x >> rot | x << (64 - rot)) & _M64
        self._half = out >> 32
        return out & _M32

    def _upto(self, r: int) -> int:
        """A draw from 0..r, r < 2^32: none for r = 0, else Lemire's multiply and reject."""
        if not r:
            return 0
        m = self._next32() * (r + 1)
        if m & _M32 <= r:
            threshold = (_M32 - r) % (r + 1)
            while m & _M32 < threshold:
                m = self._next32() * (r + 1)
        return m >> 32

    def integers(self, low: int, high: int, size: int | None = None):
        """A draw from low..high-1, or a list of size of them."""
        r = high - 1 - low
        if size is None:
            return low + self._upto(r)
        return [low + self._upto(r) for _ in range(size)]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct draws from 0..n-1: Floyd's sample, then shuffled, which is numpy's
        way for n <= 10^4 or k <= n // 50 (and n <= 2^32)."""
        out: list[int] = []
        for j in range(n - k, n):
            v = self._upto(j)
            out.append(j if v in out else v)
        for i in range(k - 1, 0, -1):
            j = self._upto(i)
            out[i], out[j] = out[j], out[i]
        return out
