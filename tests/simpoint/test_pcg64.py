"""The in-repo PCG64 stream against ``numpy.random.default_rng``.

numpy is the oracle here: every draw the SimPoint flow makes must come
out bit for bit as numpy's ``Generator`` makes it, so the pinned
selections do not move when the stream changes hands.
"""

import numpy as np
import pytest

from repro.simpoint.pcg64 import Generator
from repro.simpoint.sampling import random_selection

SEEDS = [*range(24), 2**32 + 5, 2**40 + 3, 12345678901234567890]


def oracle(seed):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_match(seed):
    ours, theirs = Generator(seed), oracle(seed).bit_generator
    assert [ours.next64() for _ in range(8)] == \
        theirs.random_raw(8).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_fills_row_major(seed):
    drawn = Generator(seed).uniform(-1.0, 1.0, 7 * 15)
    assert drawn == oracle(seed).uniform(-1.0, 1.0, size=(7, 15)).ravel() \
        .tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_and_random_interleave(seed):
    """``integers`` spends the buffered upper half of a 64-bit output;
    ``random`` draws whole outputs and leaves that half for the next
    bounded draw."""
    ours, theirs = Generator(seed), oracle(seed)
    for n in (5, 1, 2, 622, 3, 10**9, 2**32 - 1, 7):
        assert ours.integers(n) == theirs.integers(n)
        assert ours.random() == theirs.random()
        assert ours.integers(n) == theirs.integers(n)
        assert ours.integers(n) == theirs.integers(n)
    assert ours.next32() == theirs.integers(2**32, dtype=np.uint32)
    assert ours.next64() == theirs.bit_generator.random_raw()


def test_one_way_integers_draws_nothing():
    ours, theirs = Generator(3), oracle(3)
    assert ours.integers(1) == theirs.integers(1) == 0
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_with_probabilities(seed):
    weights = oracle(seed + 1000).random(40)
    weights[[0, 7, 39]] = 0.0
    p = weights / weights.sum()
    ours, theirs = Generator(seed), oracle(seed)
    for _ in range(6):
        assert ours.choice(40, p.tolist()) == theirs.choice(40, p=p)


def test_choice_checks_its_probabilities_as_numpy_does():
    # a sum off 1 by less than numpy's tolerance still draws
    p = np.full(8, 1 / 8) * (1 + 1e-8)
    assert Generator(5).choice(8, p.tolist()) == oracle(5).choice(8, p=p)
    for bad in (np.full(8, 1 / 8) * (1 + 2e-8),
                np.array([0.5, -0.25, 0.75]),
                np.array([0.5, np.nan, 0.5])):
        with pytest.raises(ValueError) as ours:
            Generator(5).choice(len(bad), bad.tolist())
        with pytest.raises(ValueError) as theirs:
            oracle(5).choice(len(bad), p=bad)
        assert str(theirs.value).startswith(str(ours.value))


@pytest.mark.parametrize("n", [1, 2, 5, 622, 10000, 10001, 20000, 123456])
def test_choice_without_replacement(n):
    """Floyd's algorithm, or the tail shuffle once the population is
    above 10000 and the draw above 1/50 of it."""
    sizes = {0, 1, min(n, 3), n // 50, n // 50 + 1, min(n, 2500), n // 2}
    if n <= 20000:
        sizes.add(n)
    for seed in (0, 17, 2**40 + 3):
        for size in sorted(sizes):
            assert Generator(seed).sample(n, size) == \
                oracle(seed).choice(n, size=size, replace=False).tolist()


def test_negative_seed_is_rejected_like_seed_sequence():
    with pytest.raises(ValueError) as theirs:
        oracle(-1)
    with pytest.raises(ValueError) as ours:
        Generator(-1)
    assert str(ours.value) == str(theirs.value)


def test_random_selection_draws_numpys_intervals():
    class Profile:
        num_intervals = 622
        interval_size = 1000
        interval_lengths = [1000] * 622
        total_instructions = 622_000

        def interval_starts(self):
            return [i * 1000 for i in range(622)]

    for seed in (0, 9, 29):
        selection = random_selection(Profile(), 12, seed=seed)
        assert [p.interval_index for p in selection.points] == sorted(
            oracle(seed).choice(622, size=12, replace=False).tolist())
