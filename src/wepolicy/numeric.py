"""Float sums whose result does not depend on the Python version.

Python 3.12 made the builtin `sum()` of floats compensated, so the same
inputs can sum to a different last bit than under 3.11. Every float sum
that reaches an output goes through `left_sum`, which adds left to right
from 0.0 exactly as `sum()` did up to 3.11.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable


def left_sum(xs: Iterable[float]) -> float:
    """Plain left-to-right sum from 0.0 (Python 3.11's `sum()` of floats)."""
    return reduce(operator.add, xs, 0.0)
