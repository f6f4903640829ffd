"""The exact mean against ``statistics.mean``: same value, same type."""

import math
import random
import statistics
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.exact import mean

EDGES = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.5, -2.75, 0.1, 1e-300, 1e300]


def same(got, want):
    return type(got) is type(want) and (
        got == want or (math.isnan(got) and math.isnan(want)))


def random_value(rng: random.Random):
    kind = rng.random()
    if kind < 0.25:
        return rng.randint(-10**6, 10**6)
    if kind < 0.3:
        return rng.randint(-10**40, 10**40)
    if kind < 0.4:
        return rng.choice(EDGES)
    if kind < 0.7:
        return rng.uniform(-1e3, 1e3)
    return math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1023))


def test_matches_statistics_on_a_seeded_fuzz():
    rng = random.Random(2024)
    for _ in range(20000):
        data = [random_value(rng) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.3:
            data = [int(v) for v in data]
        try:
            want = statistics.mean(data)
        except OverflowError:
            with pytest.raises(OverflowError):
                mean(data)
            continue
        assert same(mean(data), want), data


@pytest.mark.parametrize("data", [
    [1, 2, 3, 4], [1, 2], [-7, 2], [-6, 2], [3], [0], [10**30, 1, 2],
    [1, 2.5], [0.0, -0.0], [-0.0], [-0.0, -0.0], [1e308, 1e308],
    [-1e308, 1e308, 5e-324], [5e-324, 5e-324, 5e-324], [0.1] * 10,
    [1e16, 1.0, -1e16], (x / 7 for x in range(10)),
])
def test_finite_ints_and_floats(data):
    data = list(data)
    assert same(mean(data), statistics.mean(data))


def test_int_overflow_raises_as_statistics_does():
    with pytest.raises(OverflowError):
        statistics.mean([10**400, 1])
    with pytest.raises(OverflowError):
        mean([10**400, 1])


@pytest.mark.parametrize("data", [
    [math.inf, 1.0], [1.0, -math.inf], [math.nan, 2], [math.inf, -math.inf],
    [True, False, True], [True, 2], [np.float64(1.5), 2.0],
    [np.int64(3), 4], [Fraction(1, 3), Fraction(1, 6)],
    [Decimal("0.5"), Decimal("0.75")], [Fraction(1, 3), 0.5],
])
def test_other_types_delegate_to_statistics(data):
    assert same(mean(data), statistics.mean(data))


def test_empty_input_raises_statistics_error():
    with pytest.raises(statistics.StatisticsError):
        mean([])
    with pytest.raises(statistics.StatisticsError):
        mean(iter(()))
