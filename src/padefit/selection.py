"""Model selection: structure search, penalty sweeps, substitution search.

Selection is plain enumeration.  Candidates are ranked by the recomputed
sum of squares s; any candidate whose denominator changes sign inside the
data interval is demoted behind every pole-free one, because a pole beats
a slightly larger s as a reason to reject a fit.  Ties prefer fewer total
coefficients, then a smaller denominator degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .diagnostics import DerivativeGridSpec
from .errors import EmptySweep, NoFeasibleModel, PadefitError
from .fitting import SCAN_POINTS, Dataset, FitConfig, FitReport, _fit, _members
from .rational import pole_scans, require_nonnegative

#: Relative d_der change between neighbouring sweep rows that marks the
#: onset of the plateau (LambdaSweep).
PLATEAU_TOL = 0.05

#: tune_lambda1's coarse grid of denominator penalties, 1.0 down to 0.1 in
#: steps of 0.1, then 0; the refinement pass steps REFINE_STEP on either
#: side of the coarse winner; admissible fits keep d_der within
#: D_DER_WINDOW of the baseline, relative.
COARSE_LAM1 = tuple(1.0 - 0.1 * i for i in range(10)) + (0.0,)
REFINE_STEP = 0.01
D_DER_WINDOW = 0.10


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive degree ranges and optional tail/substitution grids.

    l_candidates lists tail powers to try (None entry = no tail): a
    nonempty tuple of ints and None.
    q_grid lists substitution exponents; the default tries only the plain
    coordinate.
    """

    n_range: tuple[int, int]
    m_range: tuple[int, int]
    l_candidates: tuple[int, ...] | None = None
    q_grid: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if any(isinstance(d, bool) or not isinstance(d, int) for d in (*self.n_range, *self.m_range)):
            raise ValueError("degree ranges must be integers")
        if self.n_range[0] > self.n_range[1] or self.m_range[0] > self.m_range[1]:
            raise ValueError("degree ranges must be nondecreasing")
        if self.n_range[0] < 0 or self.m_range[0] < 0:
            raise ValueError("degrees must be nonnegative")
        if self.l_candidates is not None:
            if not self.l_candidates:
                raise ValueError("l_candidates must be nonempty")
            if any(l is not None and (isinstance(l, bool) or not isinstance(l, int)) for l in self.l_candidates):
                raise ValueError("tail powers must be None or integers")
        if not self.q_grid:
            raise ValueError("q_grid must be nonempty")
        if not all(0 < q < math.inf for q in self.q_grid):
            raise ValueError("substitution exponents must be positive and finite")


@dataclass(frozen=True)
class Candidate:
    """One search row.

    attempt is the raw (n, m, tail_power, x_power) tuple that was tried;
    config is its validated form, None when the structure itself is
    invalid (a tail power not clearing both degrees, or no free
    coefficient).  Exactly one of
    report and error is set.
    """

    attempt: tuple[int, int, int | None, float]
    config: FitConfig | None
    report: FitReport | None
    error: str | None


def _rank_key(candidate: Candidate):
    r = candidate.report
    return (r.poles.count > 0, r.s, candidate.config.n + candidate.config.m, candidate.config.m)


def grid_search(
    data: Dataset,
    space: SearchSpace,
    lam: float = 0.0,
    lam1: float = 0.0,
    zero_powers: frozenset[int] = frozenset(),
) -> tuple[FitReport, list[Candidate]]:
    """Fit every structure in the space and return the best report plus
    every attempted candidate.

    Combinations whose free-coefficient count exceeds the data size, whose
    tail power does not clear both degrees, or that leave no coefficient
    free, are recorded as failed candidates rather than silently skipped.
    The search is exhaustive and deterministic; candidates are enumerated
    in q, n, m, l order, and all valid structures are fitted as one batch.

    Raises
    ------
    ValueError
        If a penalty weight is negative or not finite.
    NoFeasibleModel
        If every candidate failed to produce a report.
    """
    if not (0 <= lam < math.inf and 0 <= lam1 < math.inf):
        raise ValueError("penalty weights must be nonnegative and finite")
    rows: list[Candidate] = []
    batch = []  # (row, attempt, config) of the valid structures: one fit batch
    tails = space.l_candidates if space.l_candidates is not None else (None,)
    degrees = product(range(space.n_range[0], space.n_range[1] + 1), range(space.m_range[0], space.m_range[1] + 1))
    for q, (n, m), l in product(space.q_grid, degrees, tails):
        attempt = (n, m, l, q)
        try:
            cfg = FitConfig(n=n, m=m, tail_power=l, x_power=q, lam=lam, lam1=lam1, zero_powers=zero_powers)
        except ValueError as exc:
            rows.append(Candidate(attempt, None, None, str(exc)))
            continue
        batch.append((len(rows), attempt, cfg))
        rows.append(None)
    for (i, attempt, cfg), fit in zip(batch, _fit(data, [cfg for _i, _a, cfg in batch], None)):
        failed = isinstance(fit, PadefitError)
        rows[i] = Candidate(attempt, cfg, None if failed else fit, str(fit) if failed else None)
    fitted = [c for c in rows if c.report is not None]
    if not fitted:
        raise NoFeasibleModel("every candidate in the search space failed")
    best = min(fitted, key=_rank_key)
    return best.report, rows


@dataclass(frozen=True)
class SweepRow:
    """One penalty value, its fit quality and its report; error text (and
    no report) when the fit failed."""

    lam: float
    d: float
    d_der: float
    pole_count: int
    error: str | None = None
    report: FitReport | None = None


@dataclass(frozen=True)
class LambdaSweep:
    """Rows of a numerator-penalty sweep, ascending in lam, and the index
    `chosen` of the smallest pole-free penalty at the onset of the d_der
    plateau.

    A row qualifies when its oscillation measure differs from the next
    larger penalty's by at most PLATEAU_TOL relative: past that point
    extra smoothing no longer changes the derivative picture, so the
    smallest such penalty distorts the data least.  Falls back to the
    largest pole-free penalty when no plateau exists (and to the last row
    if every row has poles).

    Raises
    ------
    EmptySweep
        If there are fewer than two rows.
    """

    rows: tuple[SweepRow, ...]
    chosen: int = field(init=False)

    def __post_init__(self):
        rows = self.rows
        if len(rows) < 2:
            raise EmptySweep("need at least two rows")
        plateau = (
            i for i, (row, nxt) in enumerate(zip(rows, rows[1:]))
            if row.error is None and nxt.error is None and row.pole_count == 0
            and abs(nxt.d_der - row.d_der) <= PLATEAU_TOL * abs(row.d_der)
        )
        clean = [i for i, r in enumerate(rows) if r.error is None and r.pole_count == 0]
        object.__setattr__(self, "chosen", next(plateau, clean[-1] if clean else len(rows) - 1))

    def chosen_lam(self) -> float:
        return self.rows[self.chosen].lam


def lambda_sweep(
    data: Dataset,
    config: FitConfig,
    grid,
    der_interval: tuple[float, float] | None = None,
    der_points: int = 40,
) -> LambdaSweep:
    """Fit every penalty value, as one batch, and tabulate d, d_der and
    pole count.

    Pole counting, by one stacked scan of every fitted model, and the
    oscillation measure both run over der_interval (default: the data
    interval), so the sweep judges smoothness on the same window
    throughout.  A failed fit becomes a row with NaN metrics and its error
    text; the sweep itself only fails if the grid is bad.
    """
    lams = [float(v) for v in grid]
    if len(lams) < 2:
        raise EmptySweep("need at least two penalty values")
    if not all(0 <= v < math.inf for v in lams):
        raise ValueError("penalty values must be nonnegative and finite")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("penalty grid must be strictly ascending")
    interval = der_interval if der_interval is not None else data.interval()
    der_grid = DerivativeGridSpec(interval, der_points)
    fits = _fit(data, _members(config, "lam", lams), der_grid)
    models = [r.model for r in fits if isinstance(r, FitReport)]
    try:  # one stacked scan counts every fit's poles; its failure is every fit's error
        counts = iter([p.count for p in pole_scans(models, interval, SCAN_POINTS)])
    except PadefitError as exc:
        fits = [r if isinstance(r, PadefitError) else exc for r in fits]
    rows = []
    for lam, fit in zip(lams, fits):
        if isinstance(fit, PadefitError):
            rows.append(SweepRow(lam, math.nan, math.nan, 0, str(fit)))
        else:
            rows.append(SweepRow(lam, fit.d, fit.d_der, next(counts), report=fit))
    return LambdaSweep(tuple(rows))


def q_search(
    data: Dataset,
    config: FitConfig,
    q_grid,
) -> tuple[float, FitReport]:
    """Fit the config at every substitution exponent, as one batch; best by
    s, first grid value wins ties.

    Raises
    ------
    NegativeAbscissa
        If the data has negative abscissae and the grid holds any
        non-integer exponent.
    NoFeasibleModel
        If every exponent fails.
    """
    qs = [float(q) for q in q_grid]
    if not qs:
        raise ValueError("q_grid must be nonempty")
    if not all(0 < q < math.inf for q in qs):
        raise ValueError("substitution exponents must be positive and finite")
    for q in qs:
        require_nonnegative(data.x, q)
    best: tuple[float, FitReport] | None = None
    for q, report in zip(qs, _fit(data, _members(config, "x_power", qs), None)):
        if isinstance(report, FitReport) and (best is None or report.s < best[1].s):
            best = (q, report)
    if best is None:
        raise NoFeasibleModel("every substitution exponent failed")
    return best


def tune_lambda1(
    data: Dataset,
    config: FitConfig,
    baseline_d_der: float,
    *,
    der_grid: DerivativeGridSpec,
) -> tuple[float, FitReport]:
    """Coarse-to-fine denominator-penalty pick against a smoothness anchor.

    Admissible penalties give a pole-free fit whose d_der stays within
    D_DER_WINDOW (10%) of baseline_d_der (typically the best polynomial's
    value, polynomials being immune to pole artifacts); among those the
    smallest s wins.  A coarse pass over COARSE_LAM1 (1.0 down to 0.1 in
    steps of 0.1, then 0) brackets the winner, and one refinement pass at
    REFINE_STEP (0.01) granularity finishes the job; each pass is one
    batch fit, and ties keep the earlier grid value (the coarse winner
    over the fine pass).  Poles are counted over der_grid's interval,
    which may reach past the data: a model meant for extrapolation should
    be scanned over the extrapolation range too, since a denominator root
    just outside the data window ruins predictions while leaving every
    in-window diagnostic clean.  A pass scans only the members that could
    still win, one at a time in order of s, up to the first pole-free one.

    Raises
    ------
    NoFeasibleModel
        If no penalty in the scanned grids is admissible.
    """
    if not (0 < baseline_d_der < math.inf):
        raise ValueError("baseline_d_der must be positive and finite")

    def best_of(lam1s, best):
        # The members in the window by (s, grid index), while they beat the
        # carried best: the first pole-free one wins; a failed scan skips one.
        fits = _fit(data, _members(config, "lam1", lam1s), der_grid)
        window = D_DER_WINDOW * baseline_d_der
        inside = sorted(
            (r.s, k) for k, r in enumerate(fits) if isinstance(r, FitReport) and abs(r.d_der - baseline_d_der) <= window
        )
        for s, k in inside:
            if best is not None and not s < best[1].s:
                break
            try:
                if pole_scans([fits[k].model], der_grid.interval, SCAN_POINTS)[0].count == 0:
                    return lam1s[k], fits[k]
            except PadefitError:
                pass
        return best

    best = best_of(COARSE_LAM1, None)
    if best is None:
        raise NoFeasibleModel("no admissible denominator penalty in the coarse grid")
    lo = max(0.0, best[0] - 5 * REFINE_STEP)
    hi = min(max(COARSE_LAM1), best[0] + 5 * REFINE_STEP)
    fine = [lo + REFINE_STEP * i for i in range(int(round((hi - lo) / REFINE_STEP)) + 1)]
    return best_of(fine, best)
