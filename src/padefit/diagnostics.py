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
from .rational import _SMALLEST_NORMAL, DENOM_TOL, RationalModel, _slopes, denominator_zero, require_count, require_interval

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


def _rms(v: np.ndarray) -> np.ndarray:
    # The root mean square of each row of v; the caller turns the float traps
    # off.  A row of finite entries whose mean square is not finite, or below
    # the smallest normal float though an entry is nonzero, is scaled by its
    # largest |entry| first, as BLAS dnrm2 does: its RMS, at most that entry,
    # is then finite and not lost to underflow.  Every other row keeps the
    # plain formula's bits.
    ms = np.add.reduce(v * v, axis=-1) / v.shape[-1]  # np.mean's bits, without its Python-level cost
    out = np.sqrt(ms)
    if (redo := ~(np.isfinite(ms) & (ms >= _SMALLEST_NORMAL))).any():
        redo &= np.isfinite(v).all(axis=-1) & (v != 0.0).any(axis=-1)
        big = np.abs(v[redo]).max(axis=-1, keepdims=True)
        out[redo] = big[:, 0] * np.sqrt(np.mean((v[redo] / big) ** 2, axis=-1))
    return out


def rmse(values: np.ndarray, targets: np.ndarray) -> float:
    """Root mean square difference between two equal-length sequences.
    Raises EvaluationOverflow where a value or a difference is not finite;
    the RMS of finite differences is, even where their squares overflow."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(targets, dtype=float)
    if v.shape != t.shape:
        raise LengthMismatch(f"shape {v.shape} vs {t.shape}")
    if v.size == 0:
        raise EmptyInput("rmse of empty sequences")
    with np.errstate(all="ignore"):  # checked below
        out = float(_rms((v - t).reshape(1, -1))[0])
    if not math.isfinite(out):
        raise EvaluationOverflow("the RMS difference is out of float range")
    return out


def oscillation_measure(
    fn: RationalModel | Callable[[np.ndarray], np.ndarray],
    grid: DerivativeGridSpec,
    derivative: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """RMS of the first derivative of `fn` over the grid, as rmse against 0.

    A rational model given no `derivative` uses RationalModel.derivative and
    raises what that raises on the grid.  For a plain callable, pass its
    derivative explicitly or fall back to central finite differences with a
    relative step of FD_STEP.  Raises EvaluationOverflow where a slope is not
    finite.
    """
    if isinstance(fn, RationalModel) and derivative is None:
        derivative = fn.derivative
    xs = grid.grid()
    if derivative is not None:
        d = np.asarray(derivative(xs), dtype=float)
    else:
        h = FD_STEP * np.maximum(1.0, np.abs(xs))
        up, down = np.asarray(fn(xs + h), dtype=float), np.asarray(fn(xs - h), dtype=float)
        with np.errstate(all="ignore"):  # a slope out of float range: rmse raises
            d = (up - down) / (2.0 * h)
    return rmse(d, np.zeros_like(d))


def _measures(c, exponents, grid: DerivativeGridSpec) -> list[float | PadefitError]:
    # oscillation_measure of each model of the (top, 2, K) stack c, from one
    # stacked quotient-rule pass whatever overflows.  A model's outcome is the
    # error its own measure raises, message included, in derivative's order:
    # NegativeAbscissa or SingularDerivative from _slopes (every model's under
    # one exponent, else model by model), EvaluationOverflow where a slope is
    # not finite, DenominatorZero where its denominator vanishes on the grid.
    # The RMS is not finite exactly where a slope is not (see _rms).
    xs = grid._nodes
    try:
        with np.errstate(all="ignore"):  # checked below
            d, den = _slopes(c, exponents, xs, grid._powers)
            rms = _rms(d)
    except PadefitError as exc:
        if len(set(exponents)) == 1:
            return [exc] * len(exponents)
        return [out for k in range(len(exponents)) for out in _measures(c[:, :, k : k + 1], exponents[k : k + 1], grid)]
    out = []
    for k, (v, vanishes) in enumerate(zip(rms.tolist(), (np.abs(den).min(axis=1) <= DENOM_TOL).tolist())):
        if not math.isfinite(v):
            v = EvaluationOverflow("dR/dx is out of float range")
        elif vanishes:
            v = denominator_zero(xs, den[k])
        out.append(v)
    return out
