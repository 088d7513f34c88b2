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
from .diagnostics import DerivativeGridSpec, _measures, rmse
from .errors import CountMismatch, DuplicateAbscissa, PadefitError
from .linsys import SolveDiagnostics
from .rational import DENOM_TOL, SCAN_POINTS, PoleReport, RationalModel, Tail, _horner, _scans, _substitutions


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
        x = np.atleast_1d(np.array(self.x, dtype=float))  # copies: the caller's arrays stay writeable
        f = np.atleast_1d(np.array(self.f, dtype=float))
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


def _members(config: FitConfig, name: str, values) -> list[FitConfig]:
    """Copies of `config` with field `name` set to each of `values`, which
    the caller has validated; replace() would check every member again."""
    members = [object.__new__(FitConfig) for _ in values]
    for member, value in zip(members, values):
        member.__dict__.update(config.__dict__, **{name: value})
    return members


def _models(configs: list[FitConfig], theta: np.ndarray, where: dict) -> tuple[list[RationalModel], np.ndarray]:
    # The models whose coefficients on the union columns (`where` maps each
    # to its index) are the rows of theta, and their RationalModel._rows as
    # one read-only (top, 4, K) stack; each model is handed its own slice.
    tops = [max(c.n, c.m) + 1 if c.tail_power is None else c.tail_power + 1 for c in configs]
    c = np.zeros((max(tops + [power + 1 for _kind, power in where]), 4, len(configs)))
    c[0, 1] = 1.0
    for (kind, power), u in sorted(where.items(), key=lambda item: item[0][0] == "tail"):
        if kind != "tail":
            c[power, 0 if kind == "numer" else 1] = theta[:, u]
        else:  # added to P and Q once their other columns are in
            rows = [config.tail_power == power for config in configs]
            c[power, :2, rows] += theta[rows, u][:, None]
    c[:-1, 2:] = c[1:, :2] * np.arange(1.0, len(c))[:, None, None]
    c[0, 2:, np.equal(tops, 1)] = c[0, :2, np.equal(tops, 1)] * 0.0  # polyder of a constant
    c.setflags(write=False)
    values, numer, denom = theta.tolist(), c[:, 0].T.tolist(), c[:, 1].T.tolist()
    models = []
    for k, (config, top) in enumerate(zip(configs, tops)):
        tail = None if config.tail_power is None else Tail(config.tail_power, values[k][where[("tail", config.tail_power)]])
        fields = (tuple(numer[k][: config.n + 1]), tuple(denom[k][1 : config.m + 1]), tail, config.x_power)
        models.append(RationalModel._trusted(*fields, config.zero_powers, c[:top, :, k].T))
    return models, c


def _build_reports(
    models: list[RationalModel],
    c: np.ndarray,
    diagnostics: list[SolveDiagnostics],
    data: Dataset,
    der_grid: DerivativeGridSpec | None,
) -> list[FitReport | PadefitError]:
    # One stacked evaluation at the data, pole scan and derivative pass for
    # the models, whose _rows are the (top, 4, K) stack c; then each error
    # measure as one reduction over the rows.
    exponents = [model.x_power for model in models]
    lo, hi = data.interval()
    try:
        num, den = _horner(c[:, :2], _substitutions(data.x, exponents))
        truth = d0 = None
        if data.underlying is not None:
            truth = np.asarray(data.underlying(data.x), dtype=float)
            d0 = rmse(data.f, truth)
        poles = _scans(c, exponents, (lo, hi), SCAN_POINTS) if hi > lo else None
        d_ders = _measures(c, exponents, der_grid) if der_grid is not None else [None] * len(models)
    except PadefitError as exc:
        if len(set(exponents)) == 1:
            return [exc] * len(models)
        # The error is one exponent's: build each exponent's reports apart.
        out: dict = {}
        for q in dict.fromkeys(exponents):
            ks = [k for k, e in enumerate(exponents) if e == q]
            part = [models[k] for k in ks], c[:, :, ks], [diagnostics[k] for k in ks]
            out.update(zip(ks, _build_reports(*part, data, der_grid)))
        return [out[k] for k in range(len(models))]
    lowest = np.abs(den).min(axis=1)
    if poles is None:  # single-abscissa data has nothing to scan: a clean empty record
        poles = [PoleReport((lo, hi), 0, low, ()) for low in lowest.tolist()]
    vanishes = lowest <= DENOM_TOL
    rho = num - data.f * den
    s0 = (rho[:, None] @ rho[..., None])[:, 0, 0]  # BLAS ddot per row, the bits of np.dot
    s, d1 = np.full(len(models), math.inf), np.full(len(models), math.inf)
    r = num[~vanishes] / den[~vanishes]
    res = r - data.f
    s[~vanishes] = (res[:, None] @ res[..., None])[:, 0, 0]
    if truth is not None:
        d1[~vanishes] = np.sqrt(np.mean((r - truth) ** 2, axis=1))  # rmse, row by row
    d1 = d1.tolist() if truth is not None else [None] * len(models)
    d = np.sqrt(s / len(data)).tolist()
    fields = zip(models, s.tolist(), s0.tolist(), d, [d0] * len(models), d1, d_ders, poles, diagnostics, vanishes.tolist())
    # row[6] is d_der: a DenominatorZero on the derivative grid is that member's outcome
    return [row[6] if isinstance(row[6], PadefitError) else FitReport(*row) for row in fields]


def _fit(
    data: Dataset,
    configs: list[FitConfig],
    der_grid: DerivativeGridSpec | None,
    evaluate_on: Dataset | None = None,
) -> list[FitReport | PadefitError]:
    """Fit each of `configs` on `data`: one design matrix per exponent for
    the union of their columns, one stacked solve per column count, and
    one stacked evaluation, pole scan and derivative pass.  Returns each
    config's report, or the PadefitError that ended its fit alone."""
    if not configs:
        return []
    columns = [linsys.free_columns(c.n, c.m, c.tail_power, c.zero_powers) for c in configs]
    where = {col: i for i, col in enumerate(dict.fromkeys(col for cols in columns for col in cols))}
    index = {cols: [where[col] for col in cols] for cols in dict.fromkeys(columns)}
    designs: dict = {}  # exponent -> slot in the design stack, or its error
    stack = []
    for q in dict.fromkeys(c.x_power for c in configs):
        try:
            stack.append(linsys.design_matrix(_substitutions(data.x, [q])[0], data.f, tuple(where)).T)
            designs[q] = len(stack) - 1
        except PadefitError as exc:
            designs[q] = exc
    out: list = [designs[c.x_power] if isinstance(designs[c.x_power], PadefitError) else None for c in configs]
    by_count: dict[int, list[int]] = {}
    for k, cols in enumerate(columns):
        if out[k] is None:
            by_count.setdefault(len(cols), []).append(k)
    theta = np.zeros((len(configs), len(where)))  # coefficients on the union columns
    stack = np.array(stack)  # (exponents, union columns, rows)
    for ks in by_count.values():
        # (K, p, rows) from one gather, viewed as the (K, rows, p) stack
        g = stack[[[designs[configs[k].x_power]] for k in ks], [index[columns[k]] for k in ks]]
        ridges = [linsys.ridge_weights(columns[k], configs[k].lam, configs[k].lam1) for k in ks]
        for k, result in zip(ks, linsys.solve_least_squares(g.transpose(0, 2, 1), data.f, ridges)):
            if isinstance(result, PadefitError):
                out[k] = result
            else:
                theta[k, index[columns[k]]], out[k] = result
    solved = [k for k, result in enumerate(out) if isinstance(result, SolveDiagnostics)]
    if solved:
        models, c = _models([configs[k] for k in solved], theta[solved], where)
        target = evaluate_on if evaluate_on is not None else data
        for k, report in zip(solved, _build_reports(models, c, [out[k] for k in solved], target, der_grid)):
            out[k] = report
    return out


def _one(results: list[FitReport | PadefitError]) -> FitReport:
    (result,) = results
    if isinstance(result, PadefitError):
        raise result
    return result


def fit_linearized(data: Dataset, config: FitConfig) -> FitReport:
    """Least squares on the cross-multiplied residuals.

    Solves on t = x**x_power with the ridge penalties of the config, and
    evaluates the model against the data.  The report's pole scan covers
    [min x, max x].

    Identical inputs produce bit-identical reports; there is no random
    element anywhere in the pipeline.
    """
    return _one(_fit(data, [config], None))


def fit_regularized(
    data: Dataset,
    config: FitConfig,
    der_grid: DerivativeGridSpec | None = None,
) -> FitReport:
    """fit_linearized plus the oscillation measure d_der.

    The diagnostic grid defaults to 40 interior points over the data
    interval; pass der_grid to control interval, count and placement.
    With lam == lam1 == 0 the fitted model and error metrics match
    fit_linearized exactly.
    """
    if der_grid is None:
        der_grid = DerivativeGridSpec(data.interval(), 40)
    return _one(_fit(data, [config], der_grid))


def interpolate_reference(
    refpoints: Dataset,
    n: int,
    m: int,
    zero_powers: frozenset[int] = frozenset(),
    *,
    evaluate_on: Dataset | None = None,
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
    return _one(_fit(refpoints, [config], None, evaluate_on))


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
