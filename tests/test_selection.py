"""Order search, penalty sweeps, and the plateau selection rule."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from padefit import (
    Dataset,
    DerivativeGridSpec,
    FitConfig,
    FitReport,
    LambdaSweep,
    NoiseSpec,
    RationalModel,
    SearchSpace,
    SweepRow,
    diagnostics,
    fit_linearized,
    fitting,
    fit_regularized,
    grid_search,
    lambda_sweep,
    mttf,
    oscillation_measure,
    q_search,
    rational,
    sample_noisy,
    selection,
    sqrt_exp,
    tune_lambda1,
    uniform_grid,
)
from padefit.errors import EmptySweep, NegativeAbscissa, NoFeasibleModel, PadefitError, PoleOnRange

GEN = RationalModel(numer=(1.0, -0.4, 0.2), denom=(0.25,))


def _exact_data(count=12):
    xs = np.linspace(0.4, 2.0, count)
    return Dataset(xs, GEN(xs))


# -- grid search ------------------------------------------------------------


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(n_range=(3, 1), m_range=(0, 2))
    with pytest.raises(ValueError):
        SearchSpace(n_range=(0, 2), m_range=(0, 2), q_grid=())
    with pytest.raises(ValueError):
        SearchSpace(n_range=(0, 2), m_range=(0, 2), q_grid=(0.0,))
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        SearchSpace(n_range=(-1, 2), m_range=(0, 1))
    with pytest.raises(ValueError, match="q_grid must be nonempty"):
        q_search(_exact_data(), FitConfig(1, 0), [])



@pytest.mark.parametrize("n_range, m_range", [((0.5, 1.5), (0, 0)), ((0, 2), (0.0, 1.0)), ((0, True), (0, 0)), ((0, 2), (0, 1.5))])
def test_search_space_rejects_degree_ranges_that_are_not_ints(n_range, m_range):
    # no range of integer degrees to enumerate: a ValueError here, not an
    # untyped TypeError from range() inside grid_search
    data = _exact_data()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid_search(data, SearchSpace(n_range=(0, 2), m_range=(0, 1)))
        with pytest.raises(ValueError, match="degree ranges must be integers"):
            grid_search(data, SearchSpace(n_range, m_range))

@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_exponents_and_penalties_raise(bad):
    data = _exact_data()
    der = DerivativeGridSpec((0.4, 2.0), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            SearchSpace(n_range=(0, 2), m_range=(0, 2), q_grid=(1.0, bad))
        with pytest.raises(ValueError):
            q_search(data, FitConfig(n=1, m=0), (1.0, bad))
        for penalties in (dict(lam=bad), dict(lam1=bad), dict(lam=-1.0)):
            with pytest.raises(ValueError, match="finite"):
                grid_search(data, SearchSpace(n_range=(0, 2), m_range=(0, 1)), **penalties)
        with pytest.raises(ValueError, match="finite"):
            lambda_sweep(data, FitConfig(n=2, m=1), (0.0, bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            lambda_sweep(data, FitConfig(n=2, m=1), (0.0, 1.0, bad))


def test_search_finds_exact_member():
    data = _exact_data()
    best, _ = grid_search(
        data, SearchSpace(n_range=(0, 3), m_range=(0, 3)), lam=0.0, lam1=0.0
    )
    assert best.s <= 1e-16 * float(np.dot(data.f, data.f))


def test_search_is_exhaustive():
    data = _exact_data()
    space = SearchSpace(n_range=(0, 2), m_range=(0, 1), l_candidates=(4, 5))
    best, rows = grid_search(data, space, lam=0.0, lam1=0.0)
    assert len(rows) == 3 * 2 * 2
    finite = [c.report.s for c in rows if c.report is not None]
    assert best.s <= min(finite)


def test_search_prefers_pole_free_models(table1):
    space = SearchSpace(n_range=(2, 8), m_range=(0, 0), l_candidates=(8, 10, 12))
    best, rows = grid_search(
        table1, space, lam=0.0, lam1=0.0, zero_powers=frozenset({0})
    )
    assert best.poles.count == 0
    assert best.d <= 0.032
    # pole-free never loses to a pole-carrying model, whatever its s
    for c in rows:
        if c.report is not None and c.report.poles.count == 0:
            assert best.s <= c.report.s


def test_search_records_failed_candidates():
    data = Dataset(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    # n=2, m=1 wants four coefficients from three points
    space = SearchSpace(n_range=(1, 2), m_range=(1, 1))
    best, rows = grid_search(data, space, lam=0.0, lam1=0.0)
    failed = [c for c in rows if c.report is None]
    assert len(failed) == 1
    assert failed[0].error is not None
    assert best.s < math.inf


def test_search_with_no_feasible_candidate():
    data = Dataset(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(NoFeasibleModel):
        grid_search(
            data, SearchSpace(n_range=(2, 3), m_range=(1, 2)), lam=0.0, lam1=0.0
        )


def test_search_is_deterministic():
    data = _exact_data()
    space = SearchSpace(n_range=(0, 3), m_range=(0, 2))
    a, _ = grid_search(data, space, lam=1e-8, lam1=1e-8)
    b, _ = grid_search(data, space, lam=1e-8, lam1=1e-8)
    assert a.model.numer == b.model.numer
    assert a.model.denom == b.model.denom
    assert a.s == b.s


def test_search_tie_break_prefers_small_order():
    # a line fits collinear data exactly; so do all its supersets
    xs = np.linspace(0.0, 2.0, 9)
    data = Dataset(xs, 2 * xs + 1)
    best, _ = grid_search(
        data, SearchSpace(n_range=(1, 3), m_range=(0, 2)), lam=0.0, lam1=0.0
    )
    assert best.model.degree_numer == 1
    assert best.model.degree_denom == 0


SIX_X = np.linspace(0.2, 2.0, 6)
SEARCH_CASES = {
    # ridged, with tails and a pinned power, over two exponents; six points
    # leave (4, 3) with a tail short of data
    "ridged": (
        Dataset(SIX_X, GEN(SIX_X) + 0.01 * np.sin(9.0 * SIX_X)),
        SearchSpace(n_range=(0, 4), m_range=(0, 3), l_candidates=(None, 5), q_grid=(1.0, 0.5)),
        dict(lam=1e-6, lam1=1e-3, zero_powers=frozenset({1})),
    ),
    # three distinct abscissae: rank deficient from four numerator columns
    # on; with power 0 pinned, (0, 0) has no free coefficient at all
    "rank_deficient": (
        Dataset(np.repeat([0.5, 1.0, 1.5], 3), np.repeat([1.0, 0.25, 2.0], 3)),
        SearchSpace(n_range=(0, 4), m_range=(0, 2), q_grid=(1.0, 2.0)),
        dict(zero_powers=frozenset({0})),
    ),
    "lam_only": (
        _exact_data(),
        SearchSpace(n_range=(0, 3), m_range=(0, 3), l_candidates=(None, 4)),
        dict(lam=1e-4),
    ),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_rows_equal_per_candidate_fits(case):
    data, space, penalties = SEARCH_CASES[case]
    best, rows = grid_search(data, space, **penalties)
    want = oracle.grid_search(data, space, **penalties)
    assert rows == want
    assert best == min((c for c in want if c.report is not None), key=selection._rank_key).report
    errors = [c.error for c in rows if c.error is not None]
    if case == "ridged":
        assert any("points for" in e for e in errors)
    if case == "rank_deficient":
        assert any(e.startswith("numerical rank") for e in errors)
        assert "model has no free coefficients" in errors


def test_search_records_structure_without_free_coefficients():
    data = _exact_data()
    _, rows = grid_search(data, SearchSpace(n_range=(0, 1), m_range=(0, 1)), zero_powers=frozenset({0}))
    assert rows[0].attempt == (0, 0, None, 1.0)
    assert rows[0].config is None and rows[0].error == "model has no free coefficients"
    assert all(c.report is not None for c in rows[1:])


def test_search_records_a_tail_power_that_is_not_an_int():
    data = _exact_data()
    _, rows = grid_search(data, SearchSpace(n_range=(1, 1), m_range=(0, 1), l_candidates=(3, 3.5, True)))
    assert [c.attempt[2] for c in rows] == [3, 3.5, True] * 2
    for c in rows:
        if c.attempt[2] == 3:
            assert c.report is not None
        else:
            assert c.config is None and c.error == "tail power must be an integer"


# -- penalty sweep ----------------------------------------------------------


def test_sweep_rows_match_single_fits():
    data = _exact_data()
    grid = (0.0, 1e-4, 1e-3)
    sweep = lambda_sweep(data, FitConfig(n=2, m=1), grid)
    der = DerivativeGridSpec(data.interval(), 40)
    for row in sweep.rows:
        (single,) = fitting._fit(data, [FitConfig(n=2, m=1, lam=row.lam)], der)
        assert row.d == single.d
        assert row.d_der == single.d_der
        assert row.pole_count == single.poles.count


def test_sweep_flat_case_selects_smallest_penalty():
    data = _exact_data()
    sweep = lambda_sweep(data, FitConfig(n=2, m=1), (0.0, 1e-10, 1e-9, 1e-8))
    d_ders = [r.d_der for r in sweep.rows]
    assert (max(d_ders) - min(d_ders)) / min(d_ders) < 0.01
    assert sweep.chosen_lam() == 0.0


def test_sweep_flags_failing_rows():
    # four copies of one abscissa: singular at zero penalty, fine with ridge
    data = Dataset(np.full(4, 1.0), np.array([1.0, 2.0, 3.0, 4.0]))
    sweep = lambda_sweep(
        data, FitConfig(n=2, m=0), (0.0, 0.1), der_interval=(0.0, 2.0)
    )
    assert sweep.rows[0].error is not None
    assert math.isnan(sweep.rows[0].d)
    assert sweep.rows[1].error is None
    assert math.isfinite(sweep.rows[1].d)


def test_sweep_rows_carry_their_reports(table1):
    config = FitConfig.cdf_form(6, 0, 12)
    grid = (0.0, 0.0005, 0.001, 0.002, 0.0025, 0.005, 0.01)
    sweep = lambda_sweep(table1, config, grid, (0.0, 2.0), 40)
    chosen = sweep.rows[sweep.chosen]
    # an equal copy of the data is fitted afresh, not served from the sweep
    fresh = fit_regularized(
        Dataset(table1.x, table1.f), FitConfig.cdf_form(6, 0, 12, lam=chosen.lam), DerivativeGridSpec((0.0, 2.0), 40)
    )
    assert chosen.report is not fresh and chosen.report == fresh
    failing = lambda_sweep(
        Dataset(np.full(4, 1.0), np.array([1.0, 2.0, 3.0, 4.0])),
        FitConfig(n=2, m=0),
        (0.0, 0.1),
        der_interval=(0.0, 2.0),
    )
    assert failing.rows[0].report is None
    assert failing.rows[1].report is not None


def test_sweep_grid_must_ascend():
    data = _exact_data()
    with pytest.raises(ValueError):
        lambda_sweep(data, FitConfig(n=1, m=0), (0.1, 0.0))
    with pytest.raises(EmptySweep):
        lambda_sweep(data, FitConfig(n=1, m=0), (0.1,))


# -- plateau rule -----------------------------------------------------------


def _rows(lams, d_ders, poles=None, errors=None):
    poles = poles or [0] * len(lams)
    errors = errors or [None] * len(lams)
    rows = tuple(
        SweepRow(lam=l, d=0.1, d_der=v, pole_count=p, error=e)
        for l, v, p, e in zip(lams, d_ders, poles, errors)
    )
    return LambdaSweep(rows)


def test_sweep_chooses_plateau_onset():
    sweep = _rows([0.0, 0.001, 0.002, 0.005], [10.0, 2.0, 1.0, 0.99])
    assert sweep.chosen_lam() == 0.002


def test_sweep_choice_skips_pole_rows():
    sweep = _rows([0.0, 0.001, 0.002], [1.0, 1.0, 1.0], poles=[1, 0, 0])
    assert sweep.chosen_lam() == 0.001


def test_sweep_without_plateau_chooses_largest():
    sweep = _rows([0.0, 0.1, 0.2], [10.0, 5.0, 2.0])
    assert sweep.chosen_lam() == 0.2


def test_sweep_needs_two_rows():
    with pytest.raises(EmptySweep):
        _rows([0.1], [1.0])


# -- substitution search ----------------------------------------------------


def test_q_search_single_exponent_is_a_plain_fit():
    data = _exact_data()
    q, report = q_search(data, FitConfig(n=2, m=1), (1.0,))
    single = oracle.fit(data, FitConfig(n=2, m=1))
    assert q == 1.0
    assert report.s == single.s
    assert report.model.numer == single.model.numer


def test_q_search_exact_membership_under_substitution():
    # sqrt(x)(1 - x/2) is a cubic in t = sqrt(x): t - t^3/2
    fn = lambda x: np.sqrt(x) * (1 - x / 2)
    xs = uniform_grid(0.0, 2.0, 10)
    data = Dataset(xs, fn(xs))
    q, report = q_search(data, FitConfig(n=3, m=0), (0.5, 1.0))
    assert q == 0.5
    assert report.s <= 1e-20 * max(1.0, float(np.dot(data.f, data.f)))


def test_q_search_linear_in_sqrt_coordinate():
    xs = uniform_grid(0.0, 2.0, 10)
    data = Dataset(xs, np.sqrt(xs))
    q, report = q_search(data, FitConfig(n=1, m=0), (0.5, 1.0))
    assert q == 0.5
    assert report.s == 0.0


def test_q_search_first_grid_value_wins_ties():
    # constant data: every exponent fits perfectly
    data = Dataset(np.linspace(0.5, 2.0, 6), np.full(6, 3.0))
    q, _ = q_search(data, FitConfig(n=0, m=0), (0.7, 0.5, 1.0))
    assert q == 0.7


Q_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(11)) + (1.0, 2.0, 3.0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "config",
    [FitConfig(n=3, m=0), FitConfig(n=3, m=6, zero_powers=frozenset({0}), lam1=0.3), FitConfig(n=2, m=2, lam=1e-3)],
)
def test_q_search_equals_per_exponent_loop(seed, config):
    data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, seed))
    assert q_search(data, config, Q_GRID) == oracle.q_search(data, config, Q_GRID)


def _counted_fits(monkeypatch):
    calls = []

    def counting(data, configs, *args, **kwargs):
        calls.append(len(configs))
        return fit(data, configs, *args, **kwargs)

    fit = selection._fit
    monkeypatch.setattr(selection, "_fit", counting)
    return calls


def test_q_search_is_one_batch(monkeypatch):
    data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, 5))
    calls = _counted_fits(monkeypatch)
    q_search(data, FitConfig(n=3, m=0), Q_GRID)
    assert calls == [len(Q_GRID)]


@pytest.mark.parametrize("q_grid", [(1.0,), (1.0, 0.5), (0.5, 0.65, 1.0, 2.0)])
def test_grid_search_is_one_batch(monkeypatch, q_grid):
    data = _exact_data()
    space = SearchSpace(n_range=(0, 3), m_range=(0, 2), l_candidates=(None, 4), q_grid=q_grid)
    want = oracle.grid_search(data, space)
    calls = _counted_fits(monkeypatch)
    _best, rows = grid_search(data, space)
    assert len(calls) == 1 and calls[0] == sum(c.config is not None for c in rows)
    assert rows == want


def test_q_search_rejects_negative_abscissae():
    data = Dataset(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(NegativeAbscissa):
        q_search(data, FitConfig(n=1, m=0), (0.5, 1.0))
    # integer exponents remain fine
    q, _ = q_search(data, FitConfig(n=1, m=0), (1.0, 2.0))
    assert q in (1.0, 2.0)


def test_an_exponent_past_the_float_range_fails_its_candidates_alone():
    # x**1e10 overflows on [0, 2]: its members fail before their solve,
    # without a warning, and the plain coordinate still fits; a q_search
    # with no other exponent has no fit left
    data = Dataset([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, rows = grid_search(data, SearchSpace(n_range=(0, 1), m_range=(0, 0), q_grid=(1.0, 1e10)))
        with pytest.raises(NoFeasibleModel, match="every substitution exponent failed"):
            q_search(data, FitConfig(n=1, m=0), [1e10])
    assert [row.error for row in rows[:2]] == [None, None] and best == rows[1].report
    assert all(row.error.startswith("x**1e+10 is out of float range") for row in rows[2:])


# -- denominator-penalty tuning ---------------------------------------------


def test_tune_lambda1_returns_admissible_fit():
    rng = np.random.default_rng(6)
    xs = np.linspace(0.1, 2.0, 25)
    data = Dataset(xs, GEN(xs) * (1 + 0.05 * rng.normal(size=25)))
    der = DerivativeGridSpec((0.1, 2.0), 40)
    baseline = fit_regularized(data, FitConfig(n=3, m=0), der).d_der
    lam1, report = tune_lambda1(data, FitConfig(n=2, m=2), baseline, der_grid=der)
    assert 0.0 <= lam1 <= 1.0
    assert report.poles.count == 0
    assert abs(report.d_der - baseline) <= 0.10 * baseline


def test_tune_lambda1_rejects_impossible_window():
    data = _exact_data()
    der = DerivativeGridSpec((0.4, 2.0), 40)
    with pytest.raises(NoFeasibleModel):
        tune_lambda1(data, FitConfig(n=2, m=1), 1e9, der_grid=der)


def test_selection_counts_poles_without_bisecting(monkeypatch, bisections, table1):
    # Each run below fits members with pole brackets, and rescans over a
    # wider interval in the sweep and the tuning pass; only counts are read.
    reports = []
    deferred = rational.PoleReport._deferred
    monkeypatch.setattr(rational.PoleReport, "_deferred", lambda *args: reports.append(deferred(*args)) or reports[-1])
    data, der, baseline = _tune_case((0.0, 2.5))
    runs = {
        "grid_search": lambda: grid_search(data, SearchSpace(n_range=(0, 4), m_range=(0, 4))),
        "lambda_sweep": lambda: lambda_sweep(table1, FitConfig.cdf_form(6, 0, 12), (0.0, 0.0025, 0.01), (0.0, 2.0), 40),
        "tune_lambda1": lambda: tune_lambda1(data, FitConfig(n=2, m=2), baseline, der_grid=der),
    }
    for name, run in runs.items():
        reports.clear()
        run()
        assert sum(report.count for report in reports) > 0, name
    assert bisections == []


def _tune_case(der_interval=(0.1, 2.0), seed=6):
    # data on [0.1, 2.0]; the derivative grid, and so the pole count, may reach past it
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.1, 2.0, 25)
    data = Dataset(xs, GEN(xs) * (1 + 0.05 * rng.normal(size=25)))
    der = DerivativeGridSpec(der_interval, 40)
    baseline = fit_regularized(data, FitConfig(n=3, m=0), der).d_der
    return data, der, baseline


def _tuning_passes(monkeypatch, baseline, calls) -> list:
    # One (members inside the d_der window, pole_scans calls made before the
    # pass) pair per tune_lambda1 pass, from its one selection._fit call.
    passes = []
    fit = selection._fit

    def recording(data, configs, der_grid):
        fits = fit(data, configs, der_grid)
        window = selection.D_DER_WINDOW * baseline
        inside = sum(isinstance(r, FitReport) and abs(r.d_der - baseline) <= window for r in fits)
        passes.append((inside, len(calls)))
        return fits

    monkeypatch.setattr(selection, "_fit", recording)
    return passes


@pytest.mark.parametrize("der_interval", [(0.1, 2.0), (0.0, 2.5)])
def test_tune_lambda1_scans_each_fit_once(monkeypatch, counted_scans, der_interval):
    # each pass counts poles with one-model scans over the derivative
    # grid's interval, at most one per member inside the window
    data, der, baseline = _tune_case(der_interval)
    config = FitConfig(n=2, m=2)
    want = oracle.tune_lambda1(data, config, baseline, der)
    passes = _tuning_passes(monkeypatch, baseline, counted_scans)
    assert tune_lambda1(data, config, baseline, der_grid=der) == want
    assert counted_scans and set(counted_scans) == {(der_interval, 1)}
    assert len(passes) == 2
    ends = [start for _inside, start in passes[1:]] + [len(counted_scans)]
    for (inside, start), end in zip(passes, ends):
        assert end - start <= inside


def test_reliability_route_evaluates_only_the_scans_it_reads(scan_evaluations, table1):
    # A sweep counting poles over (0, 2), wider than the data, a refit read
    # for d and d_der, then the MTTF scan: the fits' own scans of the data
    # interval are never evaluated.
    config = FitConfig.cdf_form(6, 0, 12)
    sweep = lambda_sweep(table1, config, (0.0, 0.0005, 0.001, 0.002, 0.0025, 0.005, 0.01), (0.0, 2.0), 40)
    refit = fit_regularized(table1, replace(config, lam=sweep.chosen_lam()), DerivativeGridSpec((0.0, 2.0), 40))
    assert math.isfinite(refit.d) and math.isfinite(refit.d_der)
    assert scan_evaluations == [((0.0, 2.0), 7)]
    x_max = 50.0 * float(table1.x.max())
    try:
        mttf(refit.model, x_max=x_max)
    except PoleOnRange:
        pass
    assert scan_evaluations == [((0.0, 2.0), 7), ((0.0, x_max), 1)]


def test_tune_lambda1_counts_past_members_with_poles(monkeypatch, counted_scans):
    # the coarse pass's lowest-s member inside the window has a pole, so the
    # pass counts the next one, and the fine pass finds a better pole-free fit
    data, der, _baseline = _tune_case(seed=1)
    config = FitConfig(n=3, m=4)
    want = oracle.tune_lambda1(data, config, 1.9, der)
    passes = _tuning_passes(monkeypatch, 1.9, counted_scans)
    assert tune_lambda1(data, config, 1.9, der_grid=der) == want
    assert [start for _inside, start in passes] == [0, 2]
    assert counted_scans == [((0.1, 2.0), 1)] * 3


def test_tune_lambda1_ties_keep_the_earliest_penalty(counted_scans):
    # lam1 weighs no coefficient of a polynomial, so every member is the
    # same fit: the coarse pass keeps its first penalty, 1.0, and the fine
    # pass, none of whose members beats it, counts no poles at all
    data, der, baseline = _tune_case()
    config = FitConfig(n=3, m=0)
    got = tune_lambda1(data, config, baseline, der_grid=der)
    assert got == oracle.tune_lambda1(data, config, baseline, der)
    assert got[0] == 1.0
    assert counted_scans == [((0.1, 2.0), 1)]


def test_tune_lambda1_skips_members_whose_scan_fails(counted_scans):
    # The one-node derivative grid at 2.0 is fine for x**0.5, but the pole
    # scan from -0.05 is not: every member the walk reaches raises
    # NegativeAbscissa and is skipped, and no penalty is admissible.
    data, _der, _baseline = _tune_case()
    der = DerivativeGridSpec((-0.05, 2.0), 1)
    config = FitConfig(n=2, m=2, x_power=0.5)
    with pytest.raises(NoFeasibleModel) as want:
        oracle.tune_lambda1(data, config, 0.047, der)
    with pytest.raises(NoFeasibleModel) as got:
        tune_lambda1(data, config, 0.047, der_grid=der)
    assert str(got.value) == str(want.value)
    assert len(counted_scans) > 1


@pytest.mark.parametrize("der_interval", [(0.1, 2.0), (0.0, 2.5)])
def test_tuning_evaluates_only_its_one_model_scans(scan_evaluations, counted_scans, der_interval):
    # q_search reads no scan at all, and a tuning pass evaluates only the
    # one-model scans it counts poles with, never its fits' own scans
    data, der, baseline = _tune_case(der_interval)
    q_search(data, FitConfig(n=3, m=0), (0.5, 0.75, 1.0))
    assert scan_evaluations == []
    tune_lambda1(data, FitConfig(n=2, m=2), baseline, der_grid=der)
    assert counted_scans and scan_evaluations == counted_scans


@pytest.mark.parametrize("der_interval", [None, (0.0, 2.0)])
def test_sweep_scans_each_fit_once(scan_evaluations, counted_scans, table1, der_interval):
    # one stacked scan of every fit over the derivative interval, evaluated
    # once; the fits' own scans of the data interval are never evaluated
    config = FitConfig.cdf_form(6, 0, 12)
    grid = (0.0, 0.0025, 0.01)
    interval = der_interval if der_interval is not None else table1.interval()
    sweep = lambda_sweep(table1, config, grid, der_interval)
    assert counted_scans == [(interval, len(grid))]
    assert scan_evaluations == [(interval, len(grid))]
    assert sweep.rows == oracle.sweep_rows(table1, config, grid, der_interval)


def test_sweep_scan_failure_is_every_fitted_rows_error(counted_scans):
    # The one-node derivative grid, x = 2, measures both fits, but their scan
    # of [-0.05, 2] starts where x**0.5 is undefined.  A sweep whose fits
    # all fail makes no scan.
    sweep = lambda_sweep(_exact_data(), FitConfig(n=1, m=1, x_power=0.5), (0.0, 0.1), (-0.05, 2.0), 1)
    assert [row.error for row in sweep.rows] == ["non-integer x_power needs x >= 0"] * 2
    assert counted_scans == [((-0.05, 2.0), 2)]
    sweep = lambda_sweep(Dataset(np.full(4, 1.0), np.arange(4.0)), FitConfig(n=5, m=0), (0.0, 0.1), (0.0, 2.0))
    assert all(row.error == "4 points for 6 free coefficients" for row in sweep.rows)
    assert len(counted_scans) == 1


def test_sweep_measures_an_exponents_error_once(monkeypatch):
    # x_power = 0.5 is undefined on the derivative grid's negative half: one
    # _slopes pass gives that error to all four rows.  A batch of mixed
    # exponents still measures each model alone after a failure.
    calls = []
    slopes = diagnostics._slopes
    monkeypatch.setattr(diagnostics, "_slopes", lambda *args: calls.append(len(args[1])) or slopes(*args))
    x = np.linspace(0.0, 1.0, 10)
    sweep = lambda_sweep(Dataset(x, 1.0 + x), FitConfig(1, 1, x_power=0.5, lam1=0.1), (0.0, 0.1, 0.2, 0.3), (-1.0, 1.0))
    assert [row.error for row in sweep.rows] == ["non-integer x_power needs x >= 0"] * 4
    assert calls == [4]
    calls.clear()
    models = [RationalModel((1.0, 1.0), x_power=q) for q in (0.5, 1.0)]
    grid = DerivativeGridSpec((-1.0, 1.0), 10)
    measures = diagnostics._measures(*rational._stack(models), grid)
    assert calls == [2, 1, 1]
    assert isinstance(measures[0], NegativeAbscissa)
    assert measures[1] == oscillation_measure(models[1], grid)


def test_sweep_equals_per_lambda_loop(table1):
    cases = [
        (table1, FitConfig.cdf_form(6, 0, 12), (0.0, 0.0005, 0.001, 0.002, 0.0025, 0.005, 0.01), (0.0, 2.0)),
        (table1, FitConfig.cdf_form(6, 0, 12, lam1=0.01), (0.0, 0.0025, 0.01), None),
        (Dataset(np.full(4, 1.0), np.array([1.0, 2.0, 3.0, 4.0])), FitConfig(n=2, m=0), (0.0, 0.1, 0.2), (0.0, 2.0)),
    ]
    for data, config, grid, der_interval in cases:
        sweep = lambda_sweep(data, config, grid, der_interval)
        want = oracle.sweep_rows(data, config, grid, der_interval)
        assert sweep.rows == want
        assert sweep.chosen_lam() == LambdaSweep(want).chosen_lam()


@pytest.mark.parametrize("q", [0.5, 0.65, 0.8, 1.0])
def test_tune_lambda1_equals_per_lambda_loop(q):
    data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, 5))
    der = DerivativeGridSpec((0.0, 2.0), 100)
    baseline = fit_regularized(data, FitConfig(n=3, m=0, x_power=0.65), der).d_der
    config = FitConfig(n=3, m=6, x_power=q, zero_powers=frozenset({0}))
    try:
        want = oracle.tune_lambda1(data, config, baseline, der)
    except NoFeasibleModel as exc:
        with pytest.raises(NoFeasibleModel, match=str(exc)):
            tune_lambda1(data, config, baseline, der_grid=der)
    else:
        assert tune_lambda1(data, config, baseline, der_grid=der) == want


STUDY_Q = tuple(round(0.5 + 0.05 * i, 2) for i in range(11))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from(STUDY_Q),
    window=st.sampled_from(["none", "some", "all"]),
    pick=st.integers(0, 10),
)
def test_tune_lambda1_equals_oracle_property(seed, q, window, pick):
    # The baseline puts the coarse members' d_der outside the window, one
    # member (and those near it) inside, or the largest and every member
    # within 0.9/1.05 of it: all of them when their spread allows.
    data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, seed))
    der = DerivativeGridSpec((0.0, 2.0), 100)
    config = FitConfig(n=3, m=6, x_power=q, zero_powers=frozenset({0}))
    d_ders = []
    for lam1 in selection.COARSE_LAM1:
        try:
            d_ders.append(fit_regularized(data, replace(config, lam1=lam1), der).d_der)
        except PadefitError:
            pass
    d_ders.sort()
    if window == "none" or not d_ders:
        baseline = 10.0 * (d_ders[-1] if d_ders else 1.0)
    elif window == "some":
        baseline = d_ders[pick % len(d_ders)]
    else:
        baseline = d_ders[-1] / 1.05
    try:
        want = oracle.tune_lambda1(data, config, baseline, der)
    except NoFeasibleModel as exc:
        with pytest.raises(NoFeasibleModel) as got:
            tune_lambda1(data, config, baseline, der_grid=der)
        assert str(got.value) == str(exc)
    else:
        assert tune_lambda1(data, config, baseline, der_grid=der) == want


def test_tune_lambda1_validates_baseline():
    data = _exact_data()
    der = DerivativeGridSpec((0.4, 2.0), 40)
    with pytest.raises(ValueError):
        tune_lambda1(data, FitConfig(n=2, m=1), 0.0, der_grid=der)


@pytest.mark.parametrize(
    "bad",
    [
        dict(baseline_d_der=0.0),
        dict(baseline_d_der=-1.0),
        dict(baseline_d_der=math.nan),
        dict(baseline_d_der=math.inf),
    ],
)
def test_tune_lambda1_validates_arguments(bad):
    # checked before any fit: NaNs failed late or ended in a misleading
    # NoFeasibleModel
    data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, 5))
    config = FitConfig(n=3, m=6, x_power=0.65, zero_powers=frozenset({0}))
    with pytest.raises(ValueError):
        tune_lambda1(data, config, bad["baseline_d_der"], der_grid=DerivativeGridSpec((0.0, 2.0), 100))
