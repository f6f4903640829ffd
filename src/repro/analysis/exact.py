"""An exact arithmetic mean that returns what ``statistics.mean`` returns.

``statistics`` pulls in ``fractions`` and ``decimal`` to sum exactly; the
report and the analyses only ever average finite ints and floats, which
exact integer arithmetic covers on its own.  Anything else is handed to
``statistics.mean``, loaded only then.
"""

from __future__ import annotations

import math
from typing import Iterable


def mean(data: Iterable[int | float]) -> int | float:
    """``statistics.mean(data)``, equal in value and type.

    All ints: the int quotient when the count divides the sum, else the
    correctly rounded float.  Finite ints and floats: their exact sum over
    a common power-of-two denominator, divided once, correctly rounded as
    ``statistics`` rounds its ``Fraction`` (so ``-0.0`` averages to
    ``0.0``).  Empty input, inf/nan, bools, numpy scalars and every other
    type go to ``statistics.mean``.
    """
    values = list(data)
    floats = False
    for value in values:
        kind = type(value)
        if kind is float and math.isfinite(value):
            floats = True
        elif kind is not int:
            return _statistics_mean(values)
    if not values:
        return _statistics_mean(values)
    count = len(values)
    if not floats:
        total = sum(values)
        quotient, remainder = divmod(total, count)
        return total / count if remainder else quotient
    ratios = [value.as_integer_ratio() for value in values]
    denominator = max(d for _, d in ratios)
    total = sum(n * (denominator // d) for n, d in ratios)
    return total / (denominator * count)


def _statistics_mean(values: list) -> int | float:
    import statistics

    return statistics.mean(values)
