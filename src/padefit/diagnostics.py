"""Scalar quality measures: RMS error and a derivative-based oscillation score.

The oscillation score is the RMS of the first derivative on a fixed grid
strictly inside an interval.  A fit that wiggles between data points picks
up large derivative values there even when its pointwise error is small,
so the score separates smooth fits from oscillating ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EmptyInput, EvaluationOverflow, LengthMismatch, PadefitError
from .rational import DENOM_TOL, RationalModel, _slopes, _stack, denominator_zero, require_count, require_interval

#: Relative step for the finite-difference fallback derivative.
FD_STEP = 1e-6


@dataclass(frozen=True)
class DerivativeGridSpec:
    """Uniform evaluation grid for the oscillation measure.

    The count points are x_i = a + i*(b - a)/count, i = 1..count: the grid
    includes b and excludes a.  The open left end keeps clear of
    left-endpoint singularities (a square-root factor has an infinite
    derivative at 0) while still sampling the full interval.

    A spec keeps its nodes once built, and for each exponent q that a fit
    measures on it the substituted nodes x**q and the chain-rule factor
    x**(q - 1): two count-length arrays per exponent, for as long as the
    spec lives.
    """

    interval: tuple[float, float]
    count: int

    def __post_init__(self):
        a, b = map(float, self.interval)  # the ends the nodes are built from, so equal specs have equal nodes
        require_interval(a, b)
        require_count(self.count, 1, "count must be positive")
        if not math.isfinite(a + self.count * (b - a) / self.count):  # _nodes' last, largest
            raise ValueError("interval and count put grid nodes out of float range")
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "_powers", {})  # exponent -> _nodes**exponent, filled by _slopes

    def grid(self) -> np.ndarray:
        return self._nodes.copy()

    @cached_property
    def _nodes(self) -> np.ndarray:
        a, b = self.interval
        xs = a + np.arange(1, self.count + 1, dtype=float) * (b - a) / self.count
        xs.setflags(write=False)
        return xs


def rmse(values: np.ndarray, targets: np.ndarray) -> float:
    """Root mean square difference between two equal-length sequences.
    Raises EvaluationOverflow where a difference, a square or their mean
    leaves the float range."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(targets, dtype=float)
    if v.shape != t.shape:
        raise LengthMismatch(f"shape {v.shape} vs {t.shape}")
    if v.size == 0:
        raise EmptyInput("rmse of empty sequences")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return float(np.sqrt(np.mean((v - t) ** 2)))
    except FloatingPointError as exc:
        raise EvaluationOverflow(f"the RMS difference is out of float range ({exc})") from None


def oscillation_measure(
    fn: RationalModel | Callable[[np.ndarray], np.ndarray],
    grid: DerivativeGridSpec,
    derivative: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """RMS of the first derivative of `fn` over the grid.

    Rational models use their analytic quotient-rule derivative.  For a
    plain callable, pass its derivative explicitly or fall back to central
    finite differences with a relative step of FD_STEP.  Raises
    EvaluationOverflow where the derivative is not finite on the grid or
    its mean square leaves the float range.
    """
    if isinstance(fn, RationalModel):
        (measure,) = _measures(*_stack((fn,)), grid)
        if isinstance(measure, PadefitError):
            raise measure
        return measure
    xs = grid.grid()
    if derivative is not None:
        d = np.asarray(derivative(xs), dtype=float)
    else:
        h = FD_STEP * np.maximum(1.0, np.abs(xs))
        up, down = np.asarray(fn(xs + h), dtype=float), np.asarray(fn(xs - h), dtype=float)
        with np.errstate(all="ignore"):  # a slope out of float range is checked below
            d = (up - down) / (2.0 * h)
    if not np.isfinite(d).all():
        raise EvaluationOverflow("the derivative is not finite on the grid")
    return rmse(d, np.zeros_like(d))


def _measures(c, exponents, grid: DerivativeGridSpec) -> list[float | PadefitError]:
    # oscillation_measure of each model of the (top, 2, K) stack c, from
    # one stacked quotient-rule pass.  A model's outcome is the error its own
    # measure raises: DenominatorZero where its denominator vanishes on the grid,
    # NegativeAbscissa or SingularDerivative from _slopes, EvaluationOverflow where
    # its slopes or their mean square overflow.  _slopes' errors depend only on the
    # exponents and the grid, so under one exponent they are every model's; any
    # other failed batch goes model by model.
    xs = grid._nodes
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            d, den = _slopes(c, exponents, xs, grid._powers)
            vanishing = np.abs(den).min(axis=1) <= DENOM_TOL
            rms = iter(np.sqrt(np.mean(d[~vanishing] ** 2, axis=1)).tolist())
    except (FloatingPointError, PadefitError) as exc:
        if isinstance(exc, PadefitError) and len(set(exponents)) == 1:
            return [exc] * len(exponents)
        if len(exponents) == 1:
            return [EvaluationOverflow(f"the oscillation measure is out of float range ({exc})")]
        return [out for k in range(len(exponents)) for out in _measures(c[:, :, k : k + 1], exponents[k : k + 1], grid)]
    return [denominator_zero(xs, q) if v else next(rms) for q, v in zip(den, vanishing.tolist())]
