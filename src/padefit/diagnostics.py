"""Scalar quality measures: RMS error and a derivative-based oscillation score.

The oscillation score is the RMS of the first derivative on a fixed grid
strictly inside an interval.  A fit that wiggles between data points picks
up large derivative values there even when its pointwise error is small,
so the score separates smooth fits from oscillating ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DenominatorZero, EmptyInput, LengthMismatch
from .rational import DENOM_TOL, RationalModel, _slopes, denominator_zero, require_interval

#: Relative step for the finite-difference fallback derivative.
FD_STEP = 1e-6

Placement = Literal["inside", "midpoint", "right"]


@dataclass(frozen=True)
class DerivativeGridSpec:
    """Uniform evaluation grid for the oscillation measure.

    placement selects how the count points are placed in (a, b]:

    - "right":    x_i = a + i*(b - a)/count, i = 1..count; includes b,
      excludes a.  This is the default: the open left end keeps clear of
      left-endpoint singularities (a square-root factor has an infinite
      derivative at 0) while still sampling the full interval.
    - "inside":   x_i = a + i*(b - a)/(count + 1); strictly interior with a
      margin at both ends.
    - "midpoint": x_i = a + (i - 0.5)*(b - a)/count; interval midpoints.
    """

    interval: tuple[float, float]
    count: int
    placement: Placement = "right"

    def __post_init__(self):
        a, b = self.interval
        require_interval(a, b)
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.placement not in ("inside", "midpoint", "right"):
            raise ValueError(f"unknown placement {self.placement!r}")

    def grid(self) -> np.ndarray:
        a, b = self.interval
        i = np.arange(1, self.count + 1, dtype=float)
        if self.placement == "inside":
            return a + i * (b - a) / (self.count + 1)
        if self.placement == "midpoint":
            return a + (i - 0.5) * (b - a) / self.count
        return a + i * (b - a) / self.count


def rmse(values: np.ndarray, targets: np.ndarray) -> float:
    """Root mean square difference between two equal-length sequences."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(targets, dtype=float)
    if v.shape != t.shape:
        raise LengthMismatch(f"shape {v.shape} vs {t.shape}")
    if v.size == 0:
        raise EmptyInput("rmse of empty sequences")
    return float(np.sqrt(np.mean((v - t) ** 2)))


def oscillation_measure(
    fn: RationalModel | Callable[[np.ndarray], np.ndarray],
    grid: DerivativeGridSpec,
    derivative: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """RMS of the first derivative of `fn` over the grid.

    Rational models use their analytic quotient-rule derivative.  For a
    plain callable, pass its derivative explicitly or fall back to central
    finite differences with a relative step of FD_STEP.
    """
    xs = grid.grid()
    if isinstance(fn, RationalModel):
        d = np.asarray(fn.derivative(xs), dtype=float)
    elif derivative is not None:
        d = np.asarray(derivative(xs), dtype=float)
    else:
        h = FD_STEP * np.maximum(1.0, np.abs(xs))
        d = (np.asarray(fn(xs + h), dtype=float) - np.asarray(fn(xs - h), dtype=float)) / (2.0 * h)
    return float(np.sqrt(np.mean(d * d)))


def _measures(c, exponents, grid: DerivativeGridSpec) -> list[float | DenominatorZero]:
    # oscillation_measure of each model of the (top, 4, K) stack c, from
    # one stacked quotient-rule pass; a model whose denominator vanishes on
    # the grid gets the DenominatorZero its own measure would raise.
    xs = grid.grid()
    d, den = _slopes(c, exponents, xs)
    vanishing = np.abs(den).min(axis=1) <= DENOM_TOL
    rms = iter(np.sqrt(np.mean(d[~vanishing] ** 2, axis=1)).tolist())
    return [denominator_zero(xs, q) if v else next(rms) for q, v in zip(den, vanishing.tolist())]
