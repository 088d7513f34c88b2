"""End-to-end fits, exact interpolation, and reference-point averaging."""

import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from padefit import (
    Dataset,
    DerivativeGridSpec,
    FitConfig,
    NoiseSpec,
    RationalModel,
    build_reference_points,
    fit_linearized,
    fit_regularized,
    fitting,
    free_columns,
    interpolate_reference,
    lambda_sweep,
    oscillation_measure,
    rmse,
    sample_noisy,
    sin2pi,
    solve_least_squares,
    sqrt_exp,
    uniform_grid,
)
from padefit.cli import read_points
from padefit.errors import (
    CountMismatch,
    DuplicateAbscissa,
    EvaluationOverflow,
    InsufficientData,
    PadefitError,
    SingularDerivative,
    SingularSystem,
)
from padefit.linsys import design_matrix
from padefit.selection import COARSE_LAM1

GEN = RationalModel(numer=(1.0, -0.4, 0.2), denom=(0.25,))


def _exact_dataset(model=GEN, lo=0.5, hi=2.0, count=10):
    xs = np.linspace(lo, hi, count)
    return Dataset(xs, model(xs))


# -- containers -------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, math.nan]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="one-dimensional"):
        Dataset([[0.0, 1.0]], [[1.0, 2.0]])


def test_dataset_rejects_an_x_span_beyond_the_float_range():
    # every abscissa is finite but max(x) - min(x) is not: rejected here,
    # before a fit meets it as a scan or grid interval, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must span a finite interval"):
            Dataset(np.array([-1e308, 0.0, 1e308]), np.array([1.0, 2.0, 3.0]))
        assert Dataset(np.array([-1e308, 0.0]), np.array([1.0, 2.0])).interval() == (-1e308, 0.0)



@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30))
def test_dataset_interval_is_the_min_and_max_of_x(xs):
    data = Dataset(xs, np.zeros(len(xs)))
    assert data.interval() == (float(np.min(data.x)), float(np.max(data.x)))
    assert [type(v) for v in data.interval()] == [float, float]


def test_dataset_evaluates_its_underlying_function_once():
    # underlying(x) and d0 are the dataset's, whatever the batch or fit
    calls = []
    xs = np.linspace(0.5, 2.0, 10)
    data = Dataset(xs, GEN(xs) + 1e-3 * np.cos(7.0 * xs), lambda x: calls.append(len(x)) or GEN(x))
    batch = fitting._fit(data, [FitConfig(n=2, m=1), FitConfig(n=1, m=0, x_power=0.5)], None)
    (alone,) = fitting._fit(data, [FitConfig(n=2, m=1)], DerivativeGridSpec(data.interval(), 40))
    assert calls == [10]
    assert batch[0].d0 == batch[1].d0 == alone.d0 == rmse(data.f, GEN(xs))
    assert batch[0].d1 == alone.d1

def test_dataset_copies_the_callers_arrays():
    x = np.linspace(0.0, 1.0, 5)
    f = x**2
    data = Dataset(x, f)
    assert x.flags.writeable and f.flags.writeable
    x[0] = 1.0
    f[:] = -1.0
    np.testing.assert_array_equal(data.x, np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(data.f, np.linspace(0.0, 1.0, 5) ** 2)
    assert not (data.x.flags.writeable or data.f.flags.writeable)


def test_dataset_interval_and_sort():
    d = Dataset(np.array([2.0, 0.5, 1.0]), np.array([4.0, 1.0, 2.0]))
    assert d.interval() == (0.5, 2.0)
    assert len(d) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n=-1, m=0)
    with pytest.raises(ValueError):
        FitConfig(n=2, m=0, tail_power=2)
    with pytest.raises(ValueError):
        FitConfig(n=1, m=0, lam=-0.1)
    with pytest.raises(ValueError):
        FitConfig(n=1, m=0, x_power=0.0)
    with pytest.raises(ValueError, match="no free coefficients"):
        FitConfig(n=0, m=0, zero_powers=frozenset({0}))


@pytest.mark.parametrize("field", ["lam", "lam1", "x_power"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_nonfinite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        FitConfig(n=1, m=1, **{field: value})


@pytest.mark.parametrize("power", [12.5, 12.0, True])
def test_config_rejects_a_tail_power_that_is_not_an_int(power):
    # 12.0 used to pass here and fail the fit with an untyped TypeError
    with pytest.raises(ValueError, match="integer"):
        FitConfig(n=6, m=0, tail_power=power)



@pytest.mark.parametrize(
    "valid, bad",
    [
        ({"n": 2, "m": 1}, {"n": 2.0, "m": 1}),
        ({"n": 2, "m": 1}, {"n": 2, "m": 1.0}),
        ({"n": 1, "m": 1}, {"n": True, "m": 1}),
        ({"n": 2, "m": 1}, {"n": 2, "m": True}),
        ({"n": 2, "m": 0}, {"n": 2.5, "m": 0}),
        ({"n": 0, "m": 0, "tail_power": 1}, {"n": 0, "m": 0, "tail_power": True}),
        ({"n": 6, "m": 0, "tail_power": 12}, {"n": 6, "m": 0, "tail_power": 12.0}),
    ],
)
def test_config_rejects_a_degree_that_is_not_an_int_after_a_valid_one(valid, bad):
    # an equal valid structure built just before must not let 2.0 or True pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = FitConfig(**valid)
        assert len(free_columns(cfg.n, cfg.m, cfg.tail_power, cfg.zero_powers)) > 0
        with pytest.raises(ValueError, match="must be integers|must be an integer"):
            FitConfig(**bad)
        with pytest.raises(ValueError, match="must be integers|must be an integer"):
            free_columns(bad["n"], bad["m"], bad.get("tail_power"))


def test_a_config_keeps_its_columns_outside_its_fields():
    cfg = FitConfig.cdf_form(6, 0, 12, lam=1e-3)
    assert cfg._columns == free_columns(6, 0, 12, frozenset({0}))
    # _members copies carry them, replace computes them again
    for copy in (*fitting._members(cfg, "lam1", [0.0, 0.5]), replace(cfg, lam1=0.5), replace(cfg, n=7), replace(cfg, tail_power=None)):
        assert copy._columns == free_columns(copy.n, copy.m, copy.tail_power, copy.zero_powers)
    assert replace(cfg, n=7)._columns != cfg._columns
    # equality, hash and repr ignore them
    other = FitConfig.cdf_form(6, 0, 12, lam=1e-3)
    object.__setattr__(other, "_columns", ())
    assert other == cfg and hash(other) == hash(cfg) and repr(other) == repr(cfg)
    assert "_columns" not in repr(cfg) and "_columns" not in [f.name for f in fields(FitConfig)]


def test_cdf_form_pins_origin_and_sets_tail():
    cfg = FitConfig.cdf_form(6, 0, 12)
    assert 0 in cfg.zero_powers
    assert cfg.tail_power == 12
    assert len(free_columns(cfg.n, cfg.m, cfg.tail_power, cfg.zero_powers)) == 7  # numer 1..6 plus the shared tail


# -- least-squares fits -----------------------------------------------------


def test_exact_membership_recovery():
    data = _exact_dataset()
    report = fit_linearized(data, FitConfig(n=2, m=1))
    assert report.s0 <= 1e-18 * float(np.dot(data.f, data.f))
    np.testing.assert_allclose(report.model.numer, GEN.numer, rtol=1e-8)
    np.testing.assert_allclose(report.model.denom, GEN.denom, rtol=1e-8)
    assert report.poles.count == 0


def test_polynomial_fit_has_identical_s_and_s0():
    rng = np.random.default_rng(2)
    data = Dataset(np.linspace(0.0, 2.0, 15), rng.normal(size=15))
    report = fit_linearized(data, FitConfig(n=4, m=0))
    assert report.s == report.s0  # same residuals, bit for bit
    assert report.d == math.sqrt(report.s / len(data))


def test_report_metric_relations():
    data = _exact_dataset()
    report = fit_linearized(data, FitConfig(n=1, m=0))
    assert report.s >= 0 and report.s0 >= 0
    assert report.d == pytest.approx(math.sqrt(report.s / len(data)), rel=1e-15)
    assert report.d0 is None and report.d1 is None  # no underlying truth
    assert report.d_der is None  # plain fit carries no derivative grid


def test_truth_metrics_present_when_underlying_known():
    xs = np.linspace(0.5, 2.0, 12)
    data = Dataset(xs, GEN(xs) + 0.01, underlying=GEN)
    report = fit_linearized(data, FitConfig(n=2, m=1))
    assert report.d0 == pytest.approx(0.01, rel=1e-9)
    # GEN + 0.01 is itself a (2, 1) rational, so d1 == d0 up to rounding
    assert report.d1 == pytest.approx(report.d0, rel=1e-12)


def test_insufficient_data_propagates():
    data = Dataset(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(InsufficientData):
        fit_linearized(data, FitConfig(n=2, m=1))


def test_zero_penalties_reduce_to_plain_fit():
    data = _exact_dataset()
    grid = DerivativeGridSpec((0.5, 2.0), 40)
    plain = fit_linearized(data, FitConfig(n=2, m=1))
    reg = fit_regularized(data, FitConfig(n=2, m=1), grid)
    assert reg.model.numer == plain.model.numer
    assert reg.model.denom == plain.model.denom
    assert reg.s == plain.s
    assert reg.d_der is not None


def test_huge_penalty_shrinks_all_coefficients():
    rng = np.random.default_rng(4)
    data = Dataset(np.linspace(0.2, 2.0, 20), rng.normal(size=20) + 3.0)
    report = fit_regularized(
        data, FitConfig(n=3, m=2, lam=1e6, lam1=1e6), DerivativeGridSpec((0.2, 2.0), 10)
    )
    for c in report.model.numer + report.model.denom:
        assert abs(c) < 1e-3


def test_d_der_equals_independent_measure():
    data = _exact_dataset()
    grid = DerivativeGridSpec((0.5, 2.0), 25)
    report = fit_regularized(data, FitConfig(n=2, m=1, lam=1e-6), grid)
    assert report.d_der == oscillation_measure(report.model, grid)


def test_overflowing_d_der_is_the_members_own_typed_error(table1):
    # On a derivative grid reaching 1e200 the slopes of (3, 2) and the mean
    # square of the quadratic's overflow; the line and the constant do not.
    grid = DerivativeGridSpec((0.0, 1e200), 5)
    configs = [FitConfig(n=3, m=2), FitConfig(n=1, m=0), FitConfig(n=2, m=0), FitConfig(n=0, m=0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = fitting._fit(table1, configs, grid)
        for config, fit in zip(configs, fits):
            if isinstance(fit, PadefitError):
                with pytest.raises(EvaluationOverflow) as own:
                    oscillation_measure(fit_linearized(table1, config).model, grid)
                assert (type(fit), str(fit)) == (EvaluationOverflow, str(own.value))
                with pytest.raises(EvaluationOverflow, match="out of float range"):
                    fit_regularized(table1, config, grid)
            else:
                assert fit == fit_regularized(table1, config, grid)
    assert [isinstance(fit, PadefitError) for fit in fits] == [True, False, True, False]


def test_regularized_default_grid_covers_data_interval():
    data = _exact_dataset(lo=0.3, hi=1.7)
    report = fit_regularized(data, FitConfig(n=2, m=1))
    assert report.d_der == oscillation_measure(
        report.model, DerivativeGridSpec((0.3, 1.7), 40)
    )


@pytest.mark.parametrize("n, m", [(8, 6), (10, 8)])
def test_ill_conditioned_sinusoid_fits_match_oracle(n, m):
    # cond(G) is about 1e10 and 1e14 here: solving through the normal
    # equations would square it past 1/eps, and the fit would fail as singular
    xs = uniform_grid(0.0, 1.0, 201)
    data = Dataset(xs, sin2pi(xs))
    report = fit_linearized(data, FitConfig(n=n, m=m))
    assert report.diagnostics.rank == n + m + 1
    assert report.diagnostics.condition_flag
    columns = free_columns(n, m)
    with mpmath.workdps(50):
        theta = oracle.solve(oracle.design(data.x, data.f, columns), data.f)
        want = np.array([float(v) for v in oracle.model_values(theta, columns, data.x)])
    np.testing.assert_allclose(report.model(data.x), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-40, 1e-20, 1e20, 1e40])
def test_fitted_values_do_not_depend_on_abscissa_scale(scale):
    xs = uniform_grid(0.0, 1.0, 30)
    base = fit_linearized(Dataset(xs, sin2pi(xs)), FitConfig(n=4, m=2))
    scaled = fit_linearized(Dataset(xs * scale, sin2pi(xs)), FitConfig(n=4, m=2))
    np.testing.assert_allclose(scaled.model(xs * scale), base.model(xs), rtol=0, atol=1e-12)


def test_overflowing_design_column_is_singular_without_warning():
    # (x * 1e80)**4 overflows: the inf column ends in SingularSystem, and
    # the overflow itself raises no RuntimeWarning
    xs = uniform_grid(0.0, 1.0, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            fit_linearized(Dataset(xs * 1e80, sin2pi(xs)), FitConfig(n=4, m=2))


@pytest.mark.parametrize("n", [0, 1])
def test_an_exponent_past_the_float_range_on_the_data_fails_before_its_solve(n):
    # (1e200)**2 overflows: x**q is checked on the data interval before the
    # design takes it, so the constant, whose only column t**0 stays finite,
    # and the line both end in EvaluationOverflow, while the plain coordinate
    # in the same batch fits; evaluate_on's interval is checked too
    data = Dataset([0.0, 1e200], [1.0, 2.0])
    squared, plain = FitConfig(n=n, m=0, x_power=2.0), FitConfig(n=n, m=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflow, match=r"x\*\*2 is out of float range on the data interval"):
            fit_linearized(data, squared)
        failed, fitted = fitting._fit(data, [squared, plain], None)
        assert isinstance(failed, EvaluationOverflow) and [fitted] == fitting._fit(data, [plain], None)
        (elsewhere,) = fitting._fit(Dataset([0.0, 1.0], [1.0, 2.0]), [squared], None, data)
        assert isinstance(elsewhere, EvaluationOverflow)


def test_ordinates_near_the_float_range_end_in_typed_errors():
    # f = 1e308 overflows Q'F in the solve, and alternating +-1e308 makes
    # it inf - inf: SingularSystem either way.  Ordinates near 1e160 fit,
    # but a member whose residuals stay near 1e160 overflows its sums of
    # squares (and here its oscillation measure): EvaluationOverflow, while
    # the exact line beside it keeps its report.  A truth 2e200 away from
    # the data overflows d0, every member's measure.
    xs = np.linspace(0.0, 1.0, 10)
    big = Dataset(xs, np.linspace(1e160, 2e160, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            fit_linearized(Dataset(xs, np.full(10, 1e308)), FitConfig(2, 1))
        with pytest.raises(SingularSystem):
            fit_linearized(Dataset(np.linspace(0.0, 1.0, 64), np.resize([-1e308, 1e308], 64)), FitConfig(0, 0))
        line, ridged = fitting._fit(big, [FitConfig(1, 0), FitConfig(1, 1, lam=1.0)], None)
        assert [line] == fitting._fit(big, [FitConfig(1, 0)], None) and math.isfinite(line.s)
        assert isinstance(ridged, EvaluationOverflow) and "s0, s or d1" in str(ridged)
        with pytest.raises(EvaluationOverflow):
            fit_regularized(big, FitConfig(1, 1, lam=1.0))
        far = Dataset([0.0, 1.0, 2.0], [1e200, -1e200, 1e200], underlying=lambda x: -np.array([1e200, -1e200, 1e200]))
        for fit in fitting._fit(far, [FitConfig(0, 0), FitConfig(1, 0)], None):
            assert isinstance(fit, EvaluationOverflow) and "RMS difference" in str(fit)


def test_substituted_fit_recovers_sqrt_shape():
    xs = np.linspace(0.0, 2.0, 9)
    data = Dataset(xs, np.sqrt(xs))
    report = fit_linearized(data, FitConfig(n=1, m=0, x_power=0.5))
    assert report.s <= 1e-20
    np.testing.assert_allclose(report.model.numer, (0.0, 1.0), atol=1e-10)


# -- batches ----------------------------------------------------------------


def _batch_cases():
    table1 = Dataset(*read_points(str(Path(__file__).resolve().parent.parent / "data" / "table1.csv")))
    sqrt_data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, 5))
    return [
        # the extrapolation study's tuned structure, with truth metrics
        (sqrt_data, FitConfig(n=3, m=6, x_power=0.65, zero_powers=frozenset({0})), DerivativeGridSpec((0.0, 2.0), 100)),
        (table1, FitConfig.cdf_form(6, 0, 12), DerivativeGridSpec((0.0, 2.0), 40)),
        # four copies of one abscissa: rank deficient unless ridged
        (Dataset(np.full(4, 1.0), np.array([1.0, 2.0, 3.0, 4.0])), FitConfig(n=2, m=0), DerivativeGridSpec((0.0, 2.0), 40)),
        # zero ordinates null the denominator column unless lam1 > 0
        (Dataset(np.linspace(0.5, 2.0, 6), np.zeros(6)), FitConfig(n=1, m=1), DerivativeGridSpec((0.5, 2.0), 40)),
    ]


BATCH_CASES = _batch_cases()
PENALTY = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-6, 2.0))


def _assert_same_outcome(got, want):
    if isinstance(want, PadefitError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(range(len(BATCH_CASES))),
    penalties=st.lists(st.tuples(PENALTY, PENALTY), min_size=1, max_size=12),
)
def test_batch_members_equal_lone_fits(case, penalties):
    data, config, der = BATCH_CASES[case]
    configs = [replace(config, lam=lam, lam1=lam1) for lam, lam1 in penalties]
    batch = fitting._fit(data, configs, der)
    assert len(batch) == len(configs)
    for cfg, got in zip(configs, batch):
        (lone,) = fitting._fit(data, [cfg], der)
        _assert_same_outcome(got, lone)


@pytest.mark.parametrize("case", [2, 3])
def test_failing_member_leaves_its_neighbours_alone(case):
    data, config, der = BATCH_CASES[case]
    penalties = [(0.0, 0.0), (0.1, 0.1), (0.0, 0.0), (0.2, 0.3)]
    batch = fitting._fit(data, [replace(config, lam=lam, lam1=lam1) for lam, lam1 in penalties], der)
    for (lam, lam1), got in zip(penalties, batch):
        (alone,) = fitting._fit(data, [FitConfig(config.n, config.m, lam=lam, lam1=lam1)], der)
        if lam == lam1 == 0.0:
            assert isinstance(got, SingularSystem) and type(alone) is SingularSystem and str(alone) == str(got)
        else:
            assert got == alone


#: Exponents of the mixed batches: numpy's scalar power has fast paths
#: for 0.5, 1 and 2, which round differently from its general power.
EXPONENTS = (0.5, 0.65, 1.0, 2.0, 1.5, 3.0)


def _configs(draws):
    configs = []
    for n, m, tail, q, lam, lam1, pinned in draws:
        try:
            configs.append(FitConfig(n, m, tail, q, lam, lam1, frozenset({0}) if pinned else frozenset()))
        except ValueError:  # a structure with no free coefficient
            pass
    return configs


def _assert_batch_matches_oracle(data, configs, der, evaluate_on=None):
    # Each member of a mixed batch: the outcome of its lone fit; for a
    # report, every field of the report oracle, and a model equal to its
    # public reconstruction down to the bits of its dense rows.
    target = evaluate_on if evaluate_on is not None else data
    batch = fitting._fit(data, configs, der, evaluate_on)
    assert len(batch) == len(configs)
    for cfg, got in zip(configs, batch):
        (lone,) = fitting._fit(data, [cfg], der, evaluate_on)
        if isinstance(lone, PadefitError):
            _assert_same_outcome(got, lone)
            continue
        assert repr(got) == repr(lone)
        want = oracle.report(got.model, target, der)
        assert repr({name: getattr(got, name) for name in want}) == repr(want)
        model = got.model
        public = RationalModel(model.numer, model.denom, model.tail, model.x_power, model.zero_powers)
        assert model == public and model.x_power == cfg.x_power
        assert np.array_equal(model._rows, public._rows)
        assert model._rows.shape == public._rows.shape and model._rows.tobytes() == public._rows.tobytes()


# Numerator degrees up to 5 put a numerator power of one member where
# another member's tail power 4 goes.
CONFIG_DRAW = st.tuples(
    st.integers(0, 5),
    st.integers(0, 3),
    st.sampled_from([None, 4, 6]),
    st.sampled_from(EXPONENTS),
    st.sampled_from([0.0, 1e-3]),
    st.sampled_from([0.0, 1e-3, 0.5]),
    st.booleans(),
)
DER_GRIDS = st.one_of(
    st.none(),
    st.builds(
        DerivativeGridSpec,
        st.sampled_from([(0.0, 2.0), (-0.5, 1.5), (-1.0, 1.0), (0.5, 1.0)]),
        st.integers(1, 12),
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    lo=st.sampled_from([0.0, 0.5, -1.0]),
    count=st.integers(2, 25),
    seed=st.integers(0, 2**16),
    truth=st.booleans(),
    draws=st.lists(CONFIG_DRAW, min_size=1, max_size=10),
    der=DER_GRIDS,
)
# a vanishing-free (3, 6) structure at all four fast-path and general exponents
@example(0.0, 10, 5, True, [(3, 6, None, q, 0.0, lam1, True) for q in (0.5, 0.65, 1.0, 2.0) for lam1 in (0.0, 0.5)], None)
# q < 1 with a derivative grid node at x = 0: SingularDerivative for those members only
@example(0.0, 12, 1, False, [(2, 1, None, q, 0.0, 0.0, False) for q in EXPONENTS], DerivativeGridSpec((-0.5, 1.5), 4))
# non-integer exponents on negative abscissae: NegativeAbscissa for those members only
@example(-1.0, 9, 2, True, [(2, 1, 4, q, 1e-3, 0.0, False) for q in EXPONENTS], DerivativeGridSpec((-1.0, 1.0), 7))
def test_mixed_batches_match_report_oracle(lo, count, seed, truth, draws, der):
    configs = _configs(draws)
    rng = np.random.default_rng(seed)
    x = np.linspace(lo, lo + 2.0, count)
    data = Dataset(x, np.cos(3.0 * x) + 0.1 * rng.normal(size=count), np.cos if truth else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_batch_matches_oracle(data, configs, der)


def test_constant_members_have_the_slopes_of_their_lone_fits():
    # A negative constant in a batch whose stack is six coefficients tall:
    # its slopes, from P' and Q' built out of its P and Q rows, are its lone
    # fit's to the bit, on both sides of x = 0.
    x = np.linspace(-1.0, 1.0, 7)
    data = Dataset(x, -2.0 - 0.1 * x)
    der = DerivativeGridSpec((-1.0, 1.0), 5)
    configs = [FitConfig(0, 0, x_power=q) for q in (1.0, 2.0)] + [FitConfig(1, 1), FitConfig(0, 0, 5)]
    _assert_batch_matches_oracle(data, configs, der)
    batch = fitting._fit(data, configs, der)
    for cfg, got in zip(configs[:2], batch):
        (lone,) = fitting._fit(data, [cfg], der)
        assert got.model.numer[0] < 0.0 and got.model._rows.shape == (2, 1)
        assert np.float64(got.d_der).tobytes() == np.float64(lone.d_der).tobytes()
        assert got.model.derivative(x).tobytes() == lone.model.derivative(x).tobytes()


def test_mixed_batch_with_vanishing_denominator_matches_report_oracle():
    # (0, 1) at q = 1 through these references is 1/(1 - x/2), whose
    # denominator vanishes at the evaluation abscissa x = 2; the other
    # members pass through the same references at other exponents.
    refs = Dataset(np.array([1.0, 3.0]), np.array([2.0, -2.0]))
    full = Dataset(np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.0, -2.0]), np.cos)
    configs = [FitConfig(0, 1, x_power=q) for q in (0.5, 1.0, 0.65, 2.0)] + [FitConfig(1, 0, x_power=0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for der in (None, DerivativeGridSpec((1.0, 3.0), 7), DerivativeGridSpec((1.0, 3.0), 4)):
            _assert_batch_matches_oracle(refs, configs, der, evaluate_on=full)
    (vanishing,) = [r for r in fitting._fit(refs, configs, None, full) if r.denominator_vanishes]
    assert vanishing.model.x_power == 1.0 and vanishing.s == vanishing.d == vanishing.d1 == math.inf
    # at x = 2 on the derivative grid it is that member's own DenominatorZero
    batch = fitting._fit(refs, configs, DerivativeGridSpec((1.0, 3.0), 4), full)
    assert [type(r).__name__ for r in batch].count("DenominatorZero") == 1


def test_fit_evaluates_its_pole_scan_on_the_first_read(scan_evaluations):
    data = _exact_dataset()
    reports = [fit_linearized(data, FitConfig(n=2, m=1)), fit_regularized(data, FitConfig(n=2, m=1))]
    assert all(r.model.denom and r.s < 1e-20 and r.d < 1e-10 for r in reports)
    assert reports[1].d_der > 0.0
    assert scan_evaluations == []
    assert [r.poles.count for r in reports] == [0, 0]
    assert scan_evaluations == [(data.interval(), 1)] * 2
    assert [r.poles.sign_changes for r in reports] == [(), ()]
    assert all(r.poles.min_abs_denominator >= 1.0 for r in reports)
    assert len(scan_evaluations) == 2
    # a mixed-exponent batch shares one scan, evaluated on its first read
    batch = fitting._fit(data, [FitConfig(n=2, m=1), FitConfig(n=1, m=1, x_power=0.5), FitConfig(n=3, m=0)], None)
    assert len(scan_evaluations) == 2
    assert [r.poles.count for r in batch] == [0, 1, 0]
    assert all(r.poles.min_abs_denominator > 0.0 for r in batch)
    assert scan_evaluations[2:] == [(data.interval(), 3)]



def _data_substitutions(calls, size):
    # the exponents substituted into abscissae of `size` points, in order
    return [q for q, shape in calls if shape == (size,)]


def test_a_batch_substitutes_each_exponent_of_its_data_once(substitutions):
    # the designs and the evaluation at the data share one x**q per
    # distinct exponent; data evaluated elsewhere takes one of its own
    data, full, refs = _exact_dataset(), _exact_dataset(count=25), _exact_dataset(count=3)
    substitutions.clear()  # GEN's own evaluations at the data
    configs = [
        FitConfig(n=2, m=1),
        FitConfig(n=1, m=1, x_power=0.5),
        FitConfig(n=2, m=0, x_power=0.5, lam=1e-3),
        FitConfig(n=3, m=0, x_power=0.75),
    ]
    reports = fitting._fit(data, configs, None)
    assert all(isinstance(r, fitting.FitReport) for r in reports)
    assert _data_substitutions(substitutions, 10) == [1.0, 0.5, 0.75]
    substitutions.clear()
    elsewhere = fitting._fit(data, configs, None, full)
    assert _data_substitutions(substitutions, 10) == [1.0, 0.5, 0.75]
    assert _data_substitutions(substitutions, 25) == [1.0, 0.5, 0.75]
    assert [r.model for r in elsewhere] == [r.model for r in reports]
    substitutions.clear()
    interpolate_reference(refs, 2, 0, evaluate_on=full)
    assert _data_substitutions(substitutions, 3) == _data_substitutions(substitutions, 25) == [1.0]


def test_a_grid_substitutes_its_nodes_once_per_exponent(substitutions):
    # a spec keeps x**q and the chain-rule factor's x**(q - 1) for every
    # exponent measured on it, across batches and fits
    data = _exact_dataset()
    grid = DerivativeGridSpec((0.5, 2.0), 7)
    configs = [FitConfig(n=2, m=1), FitConfig(n=1, m=1, x_power=0.5)]
    first = fitting._fit(data, configs, grid)
    assert _data_substitutions(substitutions, 7) == [1.0, 0.5, 0.0, -0.5]
    substitutions.clear()
    again = fitting._fit(data, configs + [FitConfig(n=2, m=0, x_power=0.5, lam=1e-3)], grid)
    (alone,) = fitting._fit(data, [configs[1]], grid)
    assert oscillation_measure(first[1].model, grid) == first[1].d_der
    assert _data_substitutions(substitutions, 7) == []
    assert [r.d_der for r in again[:2]] == [r.d_der for r in first] and alone.d_der == first[1].d_der
    fit_regularized(data, FitConfig(n=2, m=1, x_power=0.75), grid)
    assert _data_substitutions(substitutions, 7) == [0.75, -0.25]
    # grid() hands out a fresh, writeable copy of the nodes
    nodes = grid.grid()
    nodes[:] = 0.0
    assert grid.grid() is not grid.grid()
    np.testing.assert_array_equal(grid.grid(), 0.5 + np.arange(1.0, 8.0) * 1.5 / 7)
    assert fit_regularized(data, configs[1], grid).d_der == first[1].d_der


@pytest.mark.parametrize("interval, count", [((0.0, 5e-324), 2), ((-0.5, 1.5), 4)])
def test_a_grid_node_at_zero_is_singular_below_exponent_one(interval, count):
    # dR/dx at x = 0 is infinite for x_power < 1: SingularDerivative, raised
    # before the chain-rule factor x**(q - 1) divides by zero, on every use
    # of the spec; (0, 5e-324) in two steps has its first node at 0
    grid = DerivativeGridSpec(interval, count)
    assert 0.0 in grid.grid()
    data = _exact_dataset()
    config = FitConfig(n=2, m=1, x_power=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(SingularDerivative):
                fit_regularized(data, config, grid)
            with pytest.raises(SingularDerivative):
                oscillation_measure(fit_linearized(data, config).model, grid)
            root, plain = fitting._fit(data, [config, FitConfig(n=2, m=1)], grid)
            assert isinstance(root, SingularDerivative) and plain.d_der > 0.0


def test_a_batch_finishes_each_column_count_in_one_svd_and_one_solve(linalg_calls):
    # zero and positive penalties on three column counts: two QRs for a
    # count with both, one for a count with one kind, one svd and one solve
    # per count, and every member the bits of its own fit
    data = _exact_dataset(count=12)
    configs = [
        FitConfig(n=2, m=1),
        FitConfig(n=2, m=1, lam=1e-3),
        FitConfig(n=3, m=1, x_power=0.5, lam1=0.1),
        FitConfig(n=3, m=1, x_power=0.5),
        FitConfig(n=1, m=1, x_power=2.0, lam=1e-2),
    ]
    batch = fitting._fit(data, configs, None)
    assert linalg_calls == {"qr": 5, "svd": 3, "solve": 3}
    for report, config in zip(batch, configs):
        (alone,) = fitting._fit(data, [config], None)
        assert report.model == alone.model and report.diagnostics == alone.diagnostics


def _assert_members_are_lone_fits(data, configs, der):
    # each member's repr, or its error's type and text, is its one-member batch's
    for cfg, got in zip(configs, fitting._fit(data, configs, der), strict=True):
        (lone,) = fitting._fit(data, [cfg], der)
        if isinstance(lone, PadefitError):
            _assert_same_outcome(got, lone)
        else:
            assert repr(got) == repr(lone)


def test_a_tail_column_takes_the_numerator_weight():
    # columns (numer 0, numer 1, denom 1, tail 3): lam on all but the denominator's
    data = _exact_dataset(count=12)
    (report,) = fitting._fit(data, [FitConfig(1, 1, tail_power=3, lam=0.25, lam1=0.75)], None)
    g = design_matrix(data.x, data.f, free_columns(1, 1, 3))
    ((theta, diagnostics),) = solve_least_squares(g, data.f, np.array([[0.25, 0.25, 0.75, 0.25]]))
    model = report.model
    assert [*model.numer, *model.denom, model.tail.coeff] == theta.tolist()
    assert report.diagnostics == diagnostics


def test_structures_sharing_a_column_count_solve_as_one_stack(linalg_calls):
    # seven structures of four columns, one of three, plain and ridged members
    # interleaved: one svd per column count, and every member the bits of its
    # own solve with lam1 on its denominator columns and lam elsewhere
    data = _exact_dataset(count=12)
    structures = [
        {"n": 3, "m": 0},
        {"n": 2, "m": 1},
        {"n": 1, "m": 2},
        {"n": 0, "m": 3},
        {"n": 3, "m": 1, "zero_powers": frozenset({0})},
        {"n": 1, "m": 1, "tail_power": 3},
        {"n": 2, "m": 0, "tail_power": 3},
        {"n": 1, "m": 1},
    ]
    penalties = [(0.0, 0.0), (1e-3, 0.0), (0.0, 0.5), (1e-2, 0.1)]
    configs = [FitConfig(**s, lam=lam, lam1=lam1) for lam, lam1 in penalties for s in structures]
    batch = fitting._fit(data, configs, None)
    assert linalg_calls["svd"] == 2
    for cfg, report in zip(configs, batch):
        cols = free_columns(cfg.n, cfg.m, cfg.tail_power, cfg.zero_powers)
        ridges = np.array([[cfg.lam1 if kind == "denom" else cfg.lam for kind, _power in cols]])
        ((theta, diagnostics),) = solve_least_squares(design_matrix(data.x, data.f, cols), data.f, ridges)
        model = report.model
        values = {("numer", i): v for i, v in enumerate(model.numer)} | {("denom", j + 1): v for j, v in enumerate(model.denom)}
        if model.tail is not None:
            values["tail", model.tail.power] = model.tail.coeff
        assert [values[col] for col in cols] == theta.tolist()
        assert report.diagnostics == diagnostics
    _assert_members_are_lone_fits(data, configs + [replace(c, x_power=0.5) for c in configs[::3]], None)


def test_a_121_member_tuning_grid_is_its_members_lone_fits():
    # the sqrt-decay study's (3, 6, {0}) structure at its 11 exponents times
    # the coarse lambda1 grid, as one batch
    data = sample_noisy(sqrt_exp, uniform_grid(0.0, 2.0, 10), NoiseSpec(0.1, 5))
    qs = [round(0.5 + 0.05 * i, 2) for i in range(11)]
    configs = [FitConfig(3, 6, x_power=q, lam1=lam1, zero_powers=frozenset({0})) for q in qs for lam1 in COARSE_LAM1]
    assert len(configs) == 121
    _assert_members_are_lone_fits(data, configs, DerivativeGridSpec((0.0, 2.0), 100))


def test_a_lone_fit_served_by_an_equal_grid_has_the_bits_of_a_fresh_fit():
    # int ends past 2**53 round to the float ends of an equal spec: both
    # build their nodes from those floats, so serving one for the other
    # changes no bit
    x = np.linspace(0.0, 1.0, 11)
    data = Dataset(x, x**2 + 0.1 * x)
    ints = DerivativeGridSpec((2**53 + 1, 2**54 + 3), 3)
    floats = DerivativeGridSpec((float(2**53 + 1), float(2**54 + 3)), 3)
    (batch,) = fitting._fit(data, [FitConfig(2, 0)], floats)
    served = fit_regularized(data, FitConfig(2, 0), ints)
    (fresh,) = fitting._fit(data, [FitConfig(2, 0)], ints)
    assert served is batch and repr(served) == repr(fresh)
    assert ints == floats and hash(ints) == hash(floats) and ints._nodes.tobytes() == floats._nodes.tobytes()


# -- lone fits after a batch -------------------------------------------------


def test_a_refit_at_the_chosen_sweep_penalty_is_that_rows_report(table1, linalg_calls):
    # the reliability route: the refit at the sweep's chosen lambda solves nothing
    config = FitConfig.cdf_form(6, 0, 12)
    sweep = lambda_sweep(table1, config, (0.0, 0.0005, 0.001, 0.002, 0.0025, 0.005, 0.01), (0.0, 2.0), 40)
    linalg_calls.update(qr=0, svd=0, solve=0)
    refit = fit_regularized(table1, replace(config, lam=sweep.chosen_lam()), DerivativeGridSpec((0.0, 2.0), 40))
    assert linalg_calls == {"qr": 0, "svd": 0, "solve": 0}
    assert refit is sweep.rows[sweep.chosen].report


def test_each_lone_fit_serves_a_member_of_the_last_batch():
    # a grid matches by its float ends and count, whatever holds its interval
    data, full, refs = _exact_dataset(), _exact_dataset(count=25), _exact_dataset(count=3)
    configs = [FitConfig(n=2, m=1), FitConfig(n=1, m=1, lam=1e-3)]
    batch = fitting._fit(data, configs, None)
    assert fit_linearized(data, configs[1]) is batch[1] and fit_linearized(data, configs[0]) is batch[0]
    # an int exponent is stored as the float it equals, so the config that
    # matches also fits to the same model
    assert fit_linearized(data, FitConfig(n=2, m=1, x_power=1)) is batch[0]
    assert repr(fitting._fit(data, [FitConfig(n=2, m=1, x_power=1)], None)) == repr(batch[:1])
    batch = fitting._fit(data, configs, DerivativeGridSpec((0.5, 2.0), 7))
    for interval in ([0.5, 2.0], np.array([0.5, 2.0]), (0.5, 2)):
        assert fit_regularized(data, configs[1], DerivativeGridSpec(interval, 7)) is batch[1]
    batch = fitting._fit(data, configs, DerivativeGridSpec(data.interval(), 40))
    assert fit_regularized(data, configs[0]) is batch[0]
    (interpolated,) = fitting._fit(refs, [FitConfig(n=2, m=0)], None, full)
    assert interpolate_reference(refs, 2, 0, evaluate_on=full) is interpolated


def _misses(fit, *args, **kwargs):
    # fit(*args, **kwargs) runs a fresh one-member batch
    before = fitting._last_batch
    report = fit(*args, **kwargs)
    assert fitting._last_batch is not before and fitting._last_batch[4] == [report]
    return report


def test_a_lone_fit_misses_unless_data_grid_evaluate_on_and_config_match():
    data, full, refs = _exact_dataset(), _exact_dataset(count=25), _exact_dataset(count=3)
    grid = DerivativeGridSpec((0.5, 2.0), 7)
    configs = [FitConfig(n=2, m=1), FitConfig(n=1, m=1, lam=1e-3)]
    cases = [
        # an equal copy of the dataset
        (lambda: fitting._fit(data, configs, grid), lambda: fit_regularized(Dataset(data.x, data.f), configs[1], grid)),
        # another grid, or none
        (lambda: fitting._fit(data, configs, grid), lambda: fit_regularized(data, configs[1], DerivativeGridSpec((0.5, 2.0), 8))),
        (lambda: fitting._fit(data, configs, grid), lambda: fit_linearized(data, configs[1])),
        # a list or array interval with other ends: compared without raising
        (lambda: fitting._fit(data, configs, grid), lambda: fit_regularized(data, configs[1], DerivativeGridSpec([0.5, 1.5], 7))),
        (
            lambda: fitting._fit(data, configs, DerivativeGridSpec(np.array([0.5, 2.0]), 7)),
            lambda: fit_regularized(data, configs[1], DerivativeGridSpec(np.array([0.5, 1.5]), 7)),
        ),
        # a config outside the batch
        (lambda: fitting._fit(data, configs, None), lambda: fit_linearized(data, FitConfig(n=1, m=1, lam=2e-3))),
        # another batch since
        (
            lambda: fitting._fit(data, configs, None) + fitting._fit(full, configs, None),
            lambda: fit_linearized(data, configs[1]),
        ),
        # another evaluate_on, or none
        (lambda: fitting._fit(refs, [FitConfig(n=2, m=0)], None, full), lambda: interpolate_reference(refs, 2, 0, evaluate_on=Dataset(full.x, full.f))),
        (lambda: fitting._fit(refs, [FitConfig(n=2, m=0)], None, full), lambda: interpolate_reference(refs, 2, 0)),
    ]
    for batch, lone in cases:
        members = batch()
        report = _misses(lone)
        assert all(report is not member for member in members)
    # equal inputs still give equal reports
    fitting._fit(data, configs, grid)
    assert _misses(fit_regularized, Dataset(data.x, data.f), configs[1], grid) == fitting._fit(data, configs, grid)[1]


def test_an_errored_member_is_refit_and_raised_afresh():
    data, config, der = BATCH_CASES[2]
    failed, ridged = fitting._fit(data, [config, replace(config, lam=0.1)], der)
    assert isinstance(failed, SingularSystem)
    with pytest.raises(SingularSystem, match=str(failed)) as raised:
        fit_regularized(data, config, der)
    assert raised.value is not failed and fitting._last_batch[4] == [raised.value]


def _lone_outcome(fit, *args, **kwargs):
    try:
        return repr(fit(*args, **kwargs))
    except PadefitError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(
    lo=st.sampled_from([0.0, 0.5, -1.0]),
    count=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    draws=st.lists(CONFIG_DRAW, min_size=1, max_size=6),
    extra=CONFIG_DRAW,
    der=DER_GRIDS,
    refs=st.booleans(),
)
def test_a_lone_fit_after_a_batch_is_the_fit_of_a_fresh_state(lo, count, seed, draws, extra, der, refs):
    # Right after a random batch, each member and one structure the batch may
    # lack, fitted alone: the same repr, or the same error, as with no batch
    # behind the fit.  With refs the batch is evaluated elsewhere and the lone
    # fits are interpolations.
    rng = np.random.default_rng(seed)
    x = np.linspace(lo, lo + 2.0, count)
    data = Dataset(x, np.cos(3.0 * x) + 0.1 * rng.normal(size=count), np.cos)
    structures = [draws, [extra]]
    if refs:  # interpolation takes degrees and pinned powers only
        structures = [[(n, m, None, 1.0, 0.0, 0.0, pinned) for n, m, *_rest, pinned in d] for d in structures]
    configs, outside = map(_configs, structures)
    if refs:
        full = Dataset(np.linspace(lo, lo + 2.0, 2 * count + 1), np.cos(np.linspace(lo, lo + 2.0, 2 * count + 1)))
        batch = lambda: fitting._fit(data, configs, None, full)
        lone = lambda c: interpolate_reference(data, c.n, c.m, c.zero_powers, evaluate_on=full)
    else:
        batch = lambda: fitting._fit(data, configs, der)
        lone = lambda c: fit_linearized(data, c) if der is None else fit_regularized(data, c, der)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cfg in configs + outside:
            batch()
            after = _lone_outcome(lone, cfg)
            fitting._last_batch = (None, None, None, (), ())
            assert _lone_outcome(lone, cfg) == after


# -- exact interpolation ----------------------------------------------------


def test_two_point_line():
    refs = Dataset(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    report = interpolate_reference(refs, 1, 0)
    np.testing.assert_allclose(report.model.numer, (1.0, 2.0), rtol=1e-14)
    assert report.s <= 1e-24


def test_interpolation_passes_through_references():
    xs = np.linspace(0.5, 2.0, 4)
    refs = Dataset(xs, GEN(xs))
    report = interpolate_reference(refs, 2, 1)
    for x, f in zip(refs.x, refs.f):
        assert report.model(float(x)) == pytest.approx(f, rel=1e-9)


def test_overdetermined_consistent_references_stay_exact():
    # more references than free coefficients, but all on the same rational
    xs = np.linspace(0.5, 2.0, 8)
    refs = Dataset(xs, GEN(xs))
    report = interpolate_reference(refs, 2, 1)
    for x, f in zip(refs.x, refs.f):
        assert report.model(float(x)) == pytest.approx(f, rel=1e-9)


def test_too_few_references_raise():
    refs = Dataset(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    with pytest.raises(CountMismatch):
        interpolate_reference(refs, 2, 1)


def test_interpolation_duplicate_abscissa():
    refs = Dataset(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DuplicateAbscissa):
        interpolate_reference(refs, 1, 0)


def test_degenerate_reference_layout_raises():
    # all-zero ordinates null out the denominator column
    refs = Dataset(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(SingularSystem):
        interpolate_reference(refs, 0, 1)


def test_interpolation_metrics_use_evaluation_dataset():
    xs = np.linspace(0.5, 2.0, 4)
    refs = Dataset(xs, GEN(xs))
    full_x = np.linspace(0.5, 2.0, 20)
    full = Dataset(full_x, GEN(full_x))
    report = interpolate_reference(refs, 2, 1, evaluate_on=full)
    assert report.d <= 1e-9  # same generating rational everywhere


def test_interpolated_denominator_zero_marks_report():
    # the unique (0,1) model through these points is 1/(1 - x/2), which
    # blows up exactly at the evaluation abscissa x = 2
    refs = Dataset(np.array([1.0, 3.0]), np.array([2.0, -2.0]))
    full = Dataset(np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.0, -2.0]))
    report = interpolate_reference(refs, 0, 1, evaluate_on=full)
    assert report.denominator_vanishes
    assert report.s == math.inf
    assert report.d == math.inf
    assert report.s0 < math.inf  # the cross-multiplied form stays finite


# -- reference-point construction -------------------------------------------


def test_averaged_reference_count_with_anchors():
    rng = np.random.default_rng(9)
    xs = np.sort(rng.uniform(0.01, 0.99, 45))
    data = Dataset(xs, rng.normal(size=45))
    refs = build_reference_points(data, 5, anchors=((0.0, 0.0), (1.0, 0.0)))
    assert len(refs) == 11
    assert refs.x[0] == 0.0 and refs.x[-1] == 1.0
    assert np.all(np.diff(refs.x) > 0)


def test_group_size_one_is_sorted_identity():
    data = Dataset(np.array([2.0, 0.5, 1.0]), np.array([4.0, 1.0, 2.0]))
    refs = build_reference_points(data, 1)
    np.testing.assert_array_equal(refs.x, [0.5, 1.0, 2.0])
    np.testing.assert_array_equal(refs.f, [1.0, 2.0, 4.0])


def test_group_means_match_direct_summation():
    rng = np.random.default_rng(10)
    xs = np.sort(rng.uniform(0.0, 1.0, 12))
    fs = rng.normal(size=12)
    refs = build_reference_points(Dataset(xs, fs), 4)
    assert len(refs) == 3
    for g in range(3):
        sl = slice(4 * g, 4 * (g + 1))
        assert refs.x[g] == pytest.approx(sum(xs[sl]) / 4, rel=1e-15)
        assert refs.f[g] == pytest.approx(sum(fs[sl]) / 4, rel=1e-15)


def test_partial_final_group_is_averaged_as_is():
    xs = np.arange(7, dtype=float)
    fs = xs * 2
    refs = build_reference_points(Dataset(xs, fs), 3)
    assert len(refs) == 3
    assert refs.x[-1] == 6.0  # lone trailing point averages to itself
    assert refs.f[-1] == 12.0


def test_anchor_replaces_matching_abscissa():
    xs = np.linspace(0.0, 1.0, 47)
    fs = np.sin(2 * math.pi * xs) + 0.01
    refs = build_reference_points(
        Dataset(xs, fs), 5, anchors=((0.0, 0.0), (1.0, 0.0))
    )
    # 45 interior points -> 9 group means, plus the two anchors
    assert len(refs) == 11
    assert refs.f[0] == 0.0 and refs.f[-1] == 0.0


def test_anchors_sharing_an_abscissa_are_rejected():
    # two anchors at x = 0.5 would give reference abscissae [0, 0.5, 0.5, 1],
    # an error that interpolate_reference would raise only later
    data = Dataset(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    for anchors in (((0.5, 0.0), (0.5, 1.0)), ((0.5, 0.0), (0.5, 0.0)), ((0.0, 0.0), (-0.0, 0.0))):
        with pytest.raises(DuplicateAbscissa, match="anchor abscissae must be distinct"):
            build_reference_points(data, 2, anchors=anchors)
    refs = build_reference_points(data, 2, anchors=((0.5, 0.0), (1.0, 0.0)))
    np.testing.assert_array_equal(refs.x, [0.0, 0.5, 1.0])


def test_grouping_is_permutation_invariant():
    rng = np.random.default_rng(12)
    xs = rng.uniform(0.0, 1.0, 20)
    fs = rng.normal(size=20)
    a = build_reference_points(Dataset(xs, fs), 5)
    perm = rng.permutation(20)
    b = build_reference_points(Dataset(xs[perm], fs[perm]), 5)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.f, b.f)


def test_reference_points_keep_underlying():
    fn = np.sin
    data = Dataset(np.linspace(0.1, 1.0, 10), np.sin(np.linspace(0.1, 1.0, 10)), underlying=fn)
    refs = build_reference_points(data, 2)
    assert refs.underlying is fn
