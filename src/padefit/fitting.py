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
from functools import cached_property
from typing import Callable

import numpy as np

from . import linsys
from .diagnostics import DerivativeGridSpec, _measures, rmse
from .errors import CountMismatch, DuplicateAbscissa, EvaluationOverflow, PadefitError
from .linsys import SolveDiagnostics
from .rational import DENOM_TOL, SCAN_POINTS, PoleReport, RationalModel, Tail, _horner, _scans, _substitutions
from .rational import require_count, require_power_range


@dataclass(frozen=True)
class Dataset:
    """Point data (x_k, f_k) in the order given, plus an optional reference
    to the exact underlying function when one is known (synthetic studies).

    With `underlying` present, fits also report how far the noisy data sits
    from the truth (d0) and how far the fitted model sits from the truth
    (d1); a fit that beats the noise has d1 < d0.

    A dataset keeps its interval (min x, max x) from construction, and
    underlying(x) and d0 from the first fit that needs them: one len(x)
    array per dataset with an underlying function.
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
        if not (np.isfinite(x).all() and np.isfinite(f).all()):
            raise ValueError("coordinates must be finite")
        lo, hi = float(x.min()), float(x.max())
        if not math.isfinite(hi - lo):
            raise ValueError("x must span a finite interval")
        x.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_interval", (lo, hi))

    def __len__(self) -> int:
        return len(self.x)

    def interval(self) -> tuple[float, float]:
        return self._interval

    @cached_property
    def _truth(self) -> tuple[np.ndarray, float] | tuple[None, None]:
        # underlying(x) and d0, the data's RMS distance from it
        if self.underlying is None:
            return None, None
        truth = np.asarray(self.underlying(self.x), dtype=float)
        return truth, rmse(self.f, truth)


@dataclass(frozen=True)
class FitConfig:
    """Model structure and penalty weights for one fit.  A config keeps its
    free columns (linsys.free_columns) as `_columns`, outside the fields.

    Parameters
    ----------
    n, m : int
        Numerator and denominator degrees.  The denominator constant is
        fixed at 1 and never fitted.
    tail_power : int, optional
        Power of the shared tail coefficient (CDF form); an int, not a bool,
        that exceeds n and m.
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
        object.__setattr__(self, "_columns", linsys.free_columns(self.n, self.m, self.tail_power, self.zero_powers))
        if not (0 < self.x_power < math.inf):
            raise ValueError("x_power must be positive and finite")
        object.__setattr__(self, "x_power", float(self.x_power))  # the model's, so equal configs fit alike
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
    point; s, d (and d1) are then reported as +inf.  poles scans the data
    interval, once for the fit's whole batch, on the first read of its
    count or values.
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
    # one read-only (top, 2, K) stack; each model is handed its own slice.
    tops = [max(c.n, c.m) + 1 if c.tail_power is None else c.tail_power + 1 for c in configs]
    c = np.zeros((max(tops + [power + 1 for _kind, power in where]), 2, len(configs)))
    c[0, 1] = 1.0
    for (kind, power), u in sorted(where.items(), key=lambda item: item[0][0] == "tail"):
        if kind != "tail":
            c[power, 0 if kind == "numer" else 1] = theta[:, u]
        else:  # added to P and Q once their other columns are in
            rows = [config.tail_power == power for config in configs]
            c[power, :, rows] += theta[rows, u][:, None]
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
    ts: dict,
) -> list[FitReport | PadefitError]:
    # One stacked evaluation at the data (x**q kept in ts, see _substitutions;
    # _fit has checked its domain and range) and derivative pass for the
    # models, whose _rows are the (top, 2, K) stack c, and one pole scan run
    # on its first read; then each error measure as one reduction over the rows.
    exponents = [model.x_power for model in models]
    lo, hi = data.interval()
    try:
        truth, d0 = data._truth
    except PadefitError as exc:  # from underlying, or d0 out of float range: every member's error
        return [exc] * len(models)
    poles = _scans(c, exponents, (lo, hi), SCAN_POINTS) if hi > lo else None
    d_ders = _measures(c, exponents, der_grid) if der_grid is not None else [None] * len(models)
    num, den = _horner(c, _substitutions(data.x, exponents, ts))
    lowest = np.abs(den).min(axis=1)
    vanishes = lowest <= DENOM_TOL
    rho = num - data.f * den
    s0 = (rho[:, None] @ rho[..., None])[:, 0, 0]  # BLAS ddot per row, the bits of np.dot
    s, d1 = np.full(len(models), math.inf), np.full(len(models), math.inf)
    r = num[~vanishes] / den[~vanishes]
    res = r - data.f
    s[~vanishes] = (res[:, None] @ res[..., None])[:, 0, 0]
    if truth is not None:
        d1[~vanishes] = np.sqrt(np.mean((r - truth) ** 2, axis=1))  # rmse, row by row
    # s and d1 are +inf where the denominator vanishes; elsewhere they, and s0, must be finite
    finite = (np.isfinite(s0) & (vanishes | np.isfinite(s) & (truth is None or np.isfinite(d1)))).tolist()
    if poles is None:  # single-abscissa data has nothing to scan: a clean empty record
        poles = [PoleReport((lo, hi), 0, low, ()) for low in lowest.tolist()]
    d1 = d1.tolist() if truth is not None else [None] * len(models)
    d = np.sqrt(s / len(data)).tolist()
    fields = zip(models, s.tolist(), s0.tolist(), d, [d0] * len(models), d1, d_ders, poles, diagnostics, vanishes.tolist())
    # row[6] is d_der: an error on the derivative grid is that member's outcome, then a non-finite sum
    overflow = EvaluationOverflow("s0, s or d1 is out of float range")
    return [row[6] if isinstance(row[6], PadefitError) else FitReport(*row) if ok else overflow for row, ok in zip(fields, finite)]


#: The last non-empty _fit batch, (data, der_grid, evaluate_on, configs,
#: results), for _lone; alive, with its reports, until the next batch.
_last_batch: tuple = (None, None, None, (), ())


@np.errstate(all="ignore")  # a batch's one float-trap context: its results are judged by finiteness
def _fit(
    data: Dataset,
    configs: list[FitConfig],
    der_grid: DerivativeGridSpec | None,
    evaluate_on: Dataset | None = None,
) -> list[FitReport | PadefitError]:
    """Fit each of `configs` on `data`: one x**q and one design matrix per
    exponent for the union of their columns, one stacked solve per column
    count, indexed per structure, and one stacked evaluation, deferred pole
    scan and derivative pass.  Returns each config's report, or the
    PadefitError that ended its fit alone."""
    if not configs:
        return []
    structures = dict.fromkeys(c._columns for c in configs)  # each distinct column tuple once
    where = {col: i for i, col in enumerate(dict.fromkeys(col for cols in structures for col in cols))}
    denominator = np.array([kind == "denom" for kind, _power in where])  # per union column
    designs: dict = {}  # exponent -> slot in the design stack, or its error
    stack = []
    ts: dict = {}  # exponent -> data.x**q, for the designs and the reports at the data
    for q in dict.fromkeys(c.x_power for c in configs):
        try:  # x**q for the designs and the reports, checked before either is taken
            for target in (data,) if evaluate_on is None else (data, evaluate_on):
                require_power_range(*target.interval(), q, "data interval")
            stack.append(linsys.design_matrix(_substitutions(data.x, [q], ts)[0], data.f, tuple(where)).T)
            designs[q] = len(stack) - 1
        except PadefitError as exc:
            designs[q] = exc
    out: list = [designs[c.x_power] if isinstance(designs[c.x_power], PadefitError) else None for c in configs]
    by_count: dict[int, dict] = {}  # column count -> column tuple -> its members to solve
    for k, config in enumerate(configs):
        if out[k] is None:
            by_count.setdefault(len(config._columns), {}).setdefault(config._columns, []).append(k)
    theta = np.zeros((len(configs), len(where)))  # coefficients on the union columns
    stack = np.array(stack)  # (exponents, union columns, rows)
    for members in by_count.values():
        ks, sizes = sum(members.values(), []), [len(group) for group in members.values()]
        index = np.array([[where[col] for col in cols] for cols in members]).repeat(sizes, axis=0)  # (K, p)
        g = stack[[[designs[configs[k].x_power]] for k in ks] if len(stack) > 1 else 0, index]  # (K, p, rows), solved as (K, rows, p)
        penalties = np.array([(configs[k].lam, configs[k].lam1) for k in ks], dtype=float)
        ridges = np.where(denominator[index], penalties[:, 1:], penalties[:, :1])  # lam1 on denominator columns
        # FitConfig has checked the weights; Dataset.f is C-contiguous, as Q'F needs for its bits
        for k, u, result in zip(ks, index, linsys._solve(g.transpose(0, 2, 1), data.f, ridges)):
            if isinstance(result, tuple):  # theta on the union columns u, and the solve's diagnostics
                theta[k, u], result = result
            out[k] = result
    solved = [k for k, result in enumerate(out) if isinstance(result, SolveDiagnostics)]
    if solved:
        models, c = _models([configs[k] for k in solved], theta[solved], where)
        target, ts = (data, ts) if evaluate_on is None else (evaluate_on, {})
        for k, report in zip(solved, _build_reports(models, c, [out[k] for k in solved], target, der_grid, ts)):
            out[k] = report
    global _last_batch
    _last_batch = (data, der_grid, evaluate_on, configs, out)
    return out


def _lone(data: Dataset, config: FitConfig, der_grid: DerivativeGridSpec | None, evaluate_on=None) -> FitReport:
    # The last batch's report of an equal config on this very data and
    # evaluate_on, with an equal grid; else a one-member batch's.  An error
    # is never reused: it is raised fresh.
    last, grid, on, configs, results = _last_batch
    if last is data and on is evaluate_on and grid == der_grid:
        for member, result in zip(configs, results):
            if member == config and isinstance(result, FitReport):
                return result
    (result,) = _fit(data, [config], der_grid, evaluate_on)
    if isinstance(result, PadefitError):
        raise result
    return result


def fit_linearized(data: Dataset, config: FitConfig) -> FitReport:
    """Least squares on the cross-multiplied residuals.

    Solves on t = x**x_power with the ridge penalties of the config, and
    evaluates the model against the data.  The report's pole scan covers
    [min x, max x].

    Identical inputs produce bit-identical reports; there is no random
    element anywhere in the pipeline.  A search that just fitted an equal
    config on this same dataset object hands back its report (README).
    """
    return _lone(data, config, None)


def fit_regularized(
    data: Dataset,
    config: FitConfig,
    der_grid: DerivativeGridSpec | None = None,
) -> FitReport:
    """fit_linearized plus the oscillation measure d_der.

    The diagnostic grid defaults to 40 interior points over the data
    interval; pass der_grid to control interval and count.
    With lam == lam1 == 0 the fitted model and error metrics match
    fit_linearized exactly.  A sweep that just fitted an equal config on
    this same dataset object and grid hands back its report (README).
    """
    if der_grid is None:
        der_grid = DerivativeGridSpec(data.interval(), 40)
    return _lone(data, config, der_grid)


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
    otherwise against the reference points themselves.  A batch that just
    fitted this structure on these same objects hands back its report (README).

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
    if len(x) < len(config._columns):
        raise CountMismatch(f"{len(x)} reference points for {len(config._columns)} free coefficients")
    return _lone(refpoints, config, None, evaluate_on)


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
    by x and keeps the dataset's underlying function.  Raises ValueError
    unless group_size is a positive integer, and DuplicateAbscissa if two
    anchors share an abscissa.
    """
    require_count(group_size, 1, "group_size must be positive")
    anchor_x = {float(ax) for ax, _ay in anchors}
    if len(anchor_x) < len(anchors):
        raise DuplicateAbscissa("anchor abscissae must be distinct")
    keep = ~np.isin(data.x, sorted(anchor_x))
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
