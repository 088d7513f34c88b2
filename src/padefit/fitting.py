"""Fitting rational models to point data.

Two routes to a model:

- least squares on the cross-multiplied residuals P(t_k) - F_k Q(t_k),
  with optional ridge penalties (fit_linearized, fit_regularized);
- exact pass-through interpolation of a small set of reference points,
  one condition per free coefficient (interpolate_reference), with
  build_reference_points condensing noisy data into such a set by
  subset averaging.

Both routes are one linear least-squares solve (linsys.solve_least_squares)
on the design matrix of the cross-multiplied form; ridge penalties add
rows to it and interpolation is its square case.

Reports carry both error measures: s0 is the minimized sum of squared
cross-multiplied residuals, while s is always recomputed from the actual
ratio R(x_k) = P/Q against the data.  The two coincide for polynomial
models (Q == 1) and differ otherwise, since the linearized objective
weighs each point by its denominator value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linsys
from .diagnostics import DerivativeGridSpec, oscillation_measures, rmse
from .errors import CountMismatch, DuplicateAbscissa, PadefitError
from .linsys import SolveDiagnostics
from .rational import DENOM_TOL, PoleReport, RationalModel, Tail, pole_scans, require_nonnegative, stacked_parts

#: Default number of nodes for the pole scan over the data interval.
SCAN_POINTS = 1001


@dataclass(frozen=True)
class Dataset:
    """Point data (x_k, f_k) in the order given, plus an optional reference
    to the exact underlying function when one is known (synthetic studies).

    With `underlying` present, fits also report how far the noisy data sits
    from the truth (d0) and how far the fitted model sits from the truth
    (d1); a fit that beats the noise has d1 < d0.
    """

    x: np.ndarray
    f: np.ndarray
    underlying: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        if x.ndim != 1 or f.ndim != 1:
            raise ValueError("coordinates must be one-dimensional")
        if len(x) != len(f):
            raise ValueError("x and f must have equal length")
        if len(x) < 1:
            raise ValueError("need at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise ValueError("coordinates must be finite")
        x.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)

    def __len__(self) -> int:
        return len(self.x)

    def interval(self) -> tuple[float, float]:
        return float(np.min(self.x)), float(np.max(self.x))

    def sorted_by_x(self) -> "Dataset":
        order = np.argsort(self.x, kind="stable")
        return Dataset(self.x[order], self.f[order], self.underlying)


@dataclass(frozen=True)
class FitConfig:
    """Model structure and penalty weights for one fit.

    Parameters
    ----------
    n, m : int
        Numerator and denominator degrees.  The denominator constant is
        fixed at 1 and never fitted.
    tail_power : int, optional
        Power of the shared tail coefficient (CDF form); must exceed n and m.
    x_power : float
        Abscissa substitution exponent; the fit runs on t = x**x_power.
    lam, lam1 : float
        Ridge weights on the numerator+tail and denominator coefficients.
    zero_powers : frozenset of int
        Numerator powers pinned to exactly zero.
    """

    n: int
    m: int
    tail_power: int | None = None
    x_power: float = 1.0
    lam: float = 0.0
    lam1: float = 0.0
    zero_powers: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "zero_powers", frozenset(map(int, self.zero_powers)))
        linsys.free_columns(self.n, self.m, self.tail_power, self.zero_powers)  # validates the structure
        if not (0 < self.x_power < math.inf):
            raise ValueError("x_power must be positive and finite")
        if not (0 <= self.lam < math.inf and 0 <= self.lam1 < math.inf):
            raise ValueError("penalty weights must be nonnegative and finite")

    @classmethod
    def cdf_form(cls, n: int, m: int, tail_power: int, **kwargs) -> "FitConfig":
        """Config for a CDF-shaped model: R(0) = 0 and R -> 1 at infinity.

        Pins the numerator constant to zero and shares the tail coefficient
        between numerator and denominator.
        """
        zp = frozenset(kwargs.pop("zero_powers", frozenset())) | {0}
        return cls(n=n, m=m, tail_power=tail_power, zero_powers=zp, **kwargs)

    def free_count(self) -> int:
        return len(linsys.free_columns(self.n, self.m, self.tail_power, self.zero_powers))


@dataclass(frozen=True)
class FitReport:
    """Everything one fit produced.

    Metrics (all RMS-style, lower is better):

    - s, s0: sums of squared residuals of the ratio and of the linearized
      form; d = sqrt(s / M).
    - d0, d1: RMS distances of data-to-truth and model-to-truth, present
      only when the dataset carries its underlying function.
    - d_der: oscillation measure over a diagnostic grid, present when one
      was requested.

    denominator_vanishes is set when Q is numerically zero at some data
    point; s, d (and d1) are then reported as +inf.
    """

    model: RationalModel
    s: float
    s0: float
    d: float
    d0: float | None
    d1: float | None
    d_der: float | None
    poles: PoleReport
    diagnostics: SolveDiagnostics
    denominator_vanishes: bool = False


def _substituted(data: Dataset, x_power: float) -> np.ndarray:
    require_nonnegative(data.x, x_power)
    return data.x**x_power


def _model_from_solution(config: FitConfig, theta: np.ndarray, columns) -> RationalModel:
    numer = [0.0] * (config.n + 1)
    denom = [0.0] * config.m
    tail = None
    for value, (kind, power) in zip(theta.tolist(), columns):
        if kind == "numer":
            numer[power] = value
        elif kind == "denom":
            denom[power - 1] = value
        else:
            tail = Tail(power, value)
    return RationalModel(
        numer=tuple(numer),
        denom=tuple(denom),
        tail=tail,
        x_power=config.x_power,
        zero_powers=config.zero_powers,
    )


def _build_reports(
    models: list[RationalModel],
    diagnostics: list[SolveDiagnostics],
    data: Dataset,
    der_grid: DerivativeGridSpec | None,
    scan_points: int,
) -> list[FitReport | PadefitError]:
    # Models share x_power: their values at the data, pole-scan grid and
    # derivative grid come from one stacked evaluation each.
    lo, hi = data.interval()
    try:
        num, den = stacked_parts(models, data.x)
        truth = d0 = None
        if data.underlying is not None:
            truth = np.asarray(data.underlying(data.x), dtype=float)
            d0 = rmse(data.f, truth)
        # Single-abscissa data has nothing to scan: a clean empty record.
        poles = pole_scans(models, (lo, hi), scan_points) if hi > lo else None
        d_ders = oscillation_measures(models, der_grid) if der_grid is not None else [None] * len(models)
    except PadefitError as exc:
        return [exc] * len(models)
    reports = []
    for k, model in enumerate(models):
        if isinstance(d_ders[k], PadefitError):
            reports.append(d_ders[k])
            continue
        rho = num[k] - data.f * den[k]
        s0 = float(np.dot(rho, rho))
        lowest = float(np.min(np.abs(den[k])))
        vanishes = lowest <= DENOM_TOL
        d1 = None
        if vanishes:
            s = d = math.inf
            if truth is not None:
                d1 = math.inf
        else:
            r = num[k] / den[k]
            res = r - data.f
            s = float(np.dot(res, res))
            d = math.sqrt(s / len(data))
            if truth is not None:
                d1 = rmse(r, truth)
        reports.append(
            FitReport(
                model=model,
                s=s,
                s0=s0,
                d=d,
                d0=d0,
                d1=d1,
                d_der=d_ders[k],
                poles=poles[k] if poles is not None else PoleReport((lo, hi), 0, lowest, ()),
                diagnostics=diagnostics[k],
                denominator_vanishes=vanishes,
            )
        )
    return reports


def _fit(
    data: Dataset,
    configs: list[FitConfig],
    der_grid: DerivativeGridSpec | None,
    scan_points: int,
    evaluate_on: Dataset | None = None,
) -> list[FitReport | PadefitError]:
    """Fit each of `configs`, which share `data` and x_power: one design
    matrix for the union of their columns, one stacked solve per column
    count, and one stacked evaluation, pole scan and derivative pass.
    Returns each config's report, or the PadefitError that ended its fit
    alone."""
    if not configs:
        return []
    try:
        t = _substituted(data, configs[0].x_power)
    except PadefitError as exc:
        return [exc] * len(configs)
    columns = [linsys.free_columns(c.n, c.m, c.tail_power, c.zero_powers) for c in configs]
    structures = dict.fromkeys(columns)
    union = tuple(dict.fromkeys(col for cols in structures for col in cols))
    g = linsys.design_matrix(t, data.f, union)
    where = {col: i for i, col in enumerate(union)}
    index = {cols: [where[col] for col in cols] for cols in structures}
    out: list = [None] * len(configs)
    by_count: dict[int, list[int]] = {}
    for k, cols in enumerate(columns):
        by_count.setdefault(len(cols), []).append(k)
    for ks in by_count.values():
        # (rows, K, p) from one gather, viewed as the (K, rows, p) stack
        stack = g[:, [index[columns[k]] for k in ks]].transpose(1, 0, 2)
        ridges = [linsys.ridge_weights(columns[k], configs[k].lam, configs[k].lam1) for k in ks]
        for k, result in zip(ks, linsys.solve_least_squares(stack, data.f, ridges)):
            out[k] = result
    solved = [k for k, result in enumerate(out) if not isinstance(result, PadefitError)]
    if solved:
        models = [_model_from_solution(configs[k], out[k][0], columns[k]) for k in solved]
        target = evaluate_on if evaluate_on is not None else data
        reports = _build_reports(models, [out[k][1] for k in solved], target, der_grid, scan_points)
        for k, report in zip(solved, reports):
            out[k] = report
    return out


def _one(results: list[FitReport | PadefitError]) -> FitReport:
    (result,) = results
    if isinstance(result, PadefitError):
        raise result
    return result


def fit_linearized(
    data: Dataset,
    config: FitConfig,
    *,
    scan_points: int = SCAN_POINTS,
) -> FitReport:
    """Least squares on the cross-multiplied residuals.

    Solves on t = x**x_power with the ridge penalties of the config, and
    evaluates the model against the data.  The report's pole scan covers
    [min x, max x].

    Identical inputs produce bit-identical reports; there is no random
    element anywhere in the pipeline.
    """
    return _one(_fit(data, [config], None, scan_points))


def fit_regularized(
    data: Dataset,
    config: FitConfig,
    der_grid: DerivativeGridSpec | None = None,
    *,
    scan_points: int = SCAN_POINTS,
) -> FitReport:
    """fit_linearized plus the oscillation measure d_der.

    The diagnostic grid defaults to 40 interior points over the data
    interval; pass der_grid to control interval, count and placement.
    With lam == lam1 == 0 the fitted model and error metrics match
    fit_linearized exactly.
    """
    if der_grid is None:
        der_grid = DerivativeGridSpec(data.interval(), 40)
    return _one(_fit(data, [config], der_grid, scan_points))


def interpolate_reference(
    refpoints: Dataset,
    n: int,
    m: int,
    zero_powers: frozenset[int] = frozenset(),
    *,
    evaluate_on: Dataset | None = None,
    scan_points: int = SCAN_POINTS,
) -> FitReport:
    """Fit by passing exactly through a set of reference points.

    With as many reference points as free coefficients the pass-through
    conditions form a square system and the model reproduces every
    reference value to machine-level accuracy.  With more points than
    free coefficients the conditions are enforced in the least-squares
    sense, which is still exact whenever the extra conditions are
    consistent (for instance when structural zeros make some of them
    redundant).  Fewer points than free coefficients is an error.

    s, d (and d0/d1) are evaluated against `evaluate_on` when given,
    otherwise against the reference points themselves.

    Raises
    ------
    CountMismatch
        If there are fewer reference points than free coefficients.
    DuplicateAbscissa
        If two reference points share an abscissa.
    """
    x = refpoints.x
    if len(np.unique(x)) != len(x):
        raise DuplicateAbscissa("reference abscissae must be distinct")
    config = FitConfig(n=n, m=m, zero_powers=zero_powers)
    free = config.free_count()
    if len(x) < free:
        raise CountMismatch(f"{len(x)} reference points for {free} free coefficients")
    return _one(_fit(refpoints, [config], None, scan_points, evaluate_on))


def build_reference_points(
    data: Dataset,
    group_size: int,
    anchors: tuple[tuple[float, float], ...] = (),
) -> Dataset:
    """Condense noisy data into reference points by subset averaging.

    Sorts the points by x, splits them into consecutive groups of
    group_size (the last group may be shorter), and emits the mean point
    of each group.  Anchor points, exact values known in advance such as
    fixed roots, are appended as-is; any data point sharing an anchor's
    abscissa is dropped in favor of the anchor.  The result is sorted
    by x and keeps the dataset's underlying function.
    """
    if group_size < 1:
        raise ValueError("group_size must be positive")
    anchor_x = {float(ax) for ax, _ay in anchors}
    keep = ~np.isin(data.x, sorted(anchor_x)) if anchor_x else np.ones(len(data), dtype=bool)
    xs = data.x[keep]
    fs = data.f[keep]
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    fs = fs[order]
    ref_x = [float(np.mean(xs[i : i + group_size])) for i in range(0, len(xs), group_size)]
    ref_f = [float(np.mean(fs[i : i + group_size])) for i in range(0, len(xs), group_size)]
    ref_x.extend(float(ax) for ax, _ay in anchors)
    ref_f.extend(float(ay) for _ax, ay in anchors)
    ref = np.argsort(ref_x, kind="stable")
    return Dataset(
        np.asarray(ref_x)[ref],
        np.asarray(ref_f)[ref],
        underlying=data.underlying,
    )
