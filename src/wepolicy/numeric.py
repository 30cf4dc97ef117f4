"""Float sums whose result does not depend on the Python version.

Python 3.12 made the builtin `sum()` of floats compensated, so the same
inputs can sum to a different last bit than under 3.11. Every float sum
reaching an output adds left to right as `sum()` did up to 3.11: through
`left_sum` from 0.0, or, weighted, through `dot` from its offset or intercept.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable


def left_sum(xs: Iterable[float]) -> float:
    """Plain left-to-right sum from 0.0 (Python 3.11's `sum()` of floats)."""
    return reduce(operator.add, xs, 0.0)


def dot(weights: Iterable, xs: Iterable, start=0.0):
    """`start + w0 * x0 + w1 * x1 + ...`, added left to right, never in place."""
    return reduce(operator.add, map(operator.mul, weights, xs), start)
