"""The seeded random stream behind SimPoint, owned in-repo.

A pure-Python ``SeedSequence`` -> ``PCG64`` generator that reproduces
``numpy.random.default_rng(seed)`` bit for bit for the draws the flow
makes: the projection's ``uniform``, k-means++'s ``integers`` and
``choice(p=...)``, and the random-sampling baseline's ``choice`` without
replacement.  The algorithms are pinned to numpy's ``Generator`` as of
numpy 2.4; owning them keeps the pinned SimPoint selections independent
of numpy releases (NEP 19 does not promise ``Generator`` streams stay
the same) and keeps ``numpy.random`` out of cold runs.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate
from typing import Sequence

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (O'Neill's seed_seq_fe)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's tolerance on sum(p) - 1 for float64 probabilities
_P_ATOL = math.sqrt(2.0 ** -52)

# choice without replacement runs Floyd's algorithm unless the population
# is above this size and the draw is dense (size > population // 50): then
# it shuffles the tail of an arange
_FLOYD_POPULATION = 10000
_FLOYD_CUTOFF = 50


def _seed_words(seed: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int seed."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            return words


def _pool(entropy: list[int]) -> list[int]:
    """``SeedSequence.mix_entropy``: the 4-word pool of ``entropy``."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[int], n_words: int) -> list[int]:
    """``SeedSequence.generate_state(n_words, np.uint64)``."""
    hash_const = _INIT_B
    halves = []
    for index in range(2 * n_words):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> _XSHIFT))
    return [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(n_words)]


class Generator:
    """The stream of ``numpy.random.default_rng(seed)``, for the draws
    SimPoint makes."""

    __slots__ = ("_state", "_inc", "_upper32")

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        w0, w1, w2, w3 = _generate_state(_pool(_seed_words(seed)), 4)
        # PCG's srandom: inc from initseq; from state 0, step (giving
        # inc), add initstate, step
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = (inc + (w0 << 64 | w1)) & _MASK128
        self._inc = inc
        self._state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        # the upper half of the last next64 split by next32, if unspent
        self._upper32: int | None = None

    def next64(self) -> int:
        """One 64-bit output: step the LCG, then XSL-RR."""
        state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._state = state
        value = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def next32(self) -> int:
        """One 32-bit output: the low half of a ``next64``, then its high
        half; ``next64`` calls in between leave the buffered half alone."""
        upper = self._upper32
        if upper is not None:
            self._upper32 = None
            return upper
        value = self.next64()
        self._upper32 = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of ``next64``."""
        return (self.next64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float, count: int) -> list[float]:
        """``count`` doubles in [low, high), in draw order."""
        span = high - low
        return [low + span * self.random() for _ in range(count)]

    def _bounded(self, bound: int) -> int:
        """Lemire's unbiased draw in [0, bound) on ``next32``;
        ``bound == 1`` draws nothing."""
        if bound == 1:
            return 0
        product = self.next32() * bound
        if product & _MASK32 < bound:
            threshold = (1 << 32) % bound
            while product & _MASK32 < threshold:
                product = self.next32() * bound
        return product >> 32

    def integers(self, n: int) -> int:
        """``integers(n)``: one int in [0, n)."""
        if not 1 <= n <= _MASK32:
            raise ValueError(f"integers supports 1 <= n < 2**32, not {n}")
        return self._bounded(n)

    def choice(self, n: int, p: Sequence[float]) -> int:
        """``choice(n, p=p)``: one index in [0, n) drawn with
        probabilities ``p`` by inverting their normalised running sum."""
        if n < 1:
            raise ValueError("a must be a positive integer")
        if len(p) != n:
            raise ValueError("a and p must have same size")
        _check_probabilities(p)
        cdf = list(accumulate(p))
        last = cdf[-1]
        return bisect_right(cdf, self.random(), key=lambda c: c / last)

    def sample(self, n: int, size: int) -> list[int]:
        """``choice(n, size, replace=False)``: ``size`` distinct ints in
        [0, n), in numpy's order."""
        if not 0 <= size <= n:
            raise ValueError("Cannot take a larger sample than population "
                             "when replace is False")
        if n > _MASK32:
            raise ValueError(f"sample supports n < 2**32, not {n}")
        if n > _FLOYD_POPULATION and size > n // _FLOYD_CUTOFF:
            # tail Fisher-Yates: shuffle the last ``size`` slots into place
            drawn = list(range(n))
            self._shuffle(drawn, n - size)
            return drawn[n - size:]
        # Floyd's algorithm, then a shuffle of the picks
        seen: set[int] = set()
        drawn = []
        for top in range(n - size, n):
            value = self._bounded(top + 1)
            if value in seen:
                value = top
            seen.add(value)
            drawn.append(value)
        self._shuffle(drawn, 1)
        return drawn

    def _shuffle(self, items: list[int], first: int) -> None:
        """Swap each slot from the end down to ``first`` with a slot at or
        below it."""
        for index in range(len(items) - 1, first - 1, -1):
            other = self._bounded(index + 1)
            items[index], items[other] = items[other], items[index]


def _check_probabilities(p: Sequence[float]) -> None:
    """numpy's checks of ``choice``'s ``p``, on its Kahan sum."""
    total = p[0]
    carry = 0.0
    for value in p[1:]:
        adjusted = value - carry
        step = total + adjusted
        carry = (step - total) - adjusted
        total = step
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if min(p) < 0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _P_ATOL:
        raise ValueError("Probabilities do not sum to 1")
