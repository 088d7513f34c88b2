"""End-to-end fits, exact interpolation, and reference-point averaging."""

import math
import warnings
from dataclasses import replace
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
    oscillation_measure,
    sample_noisy,
    sin2pi,
    sqrt_exp,
    uniform_grid,
)
from padefit.cli import read_points
from padefit.errors import CountMismatch, DuplicateAbscissa, InsufficientData, PadefitError, SingularSystem

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
    s = d.sorted_by_x()
    np.testing.assert_array_equal(s.x, [0.5, 1.0, 2.0])
    np.testing.assert_array_equal(s.f, [1.0, 2.0, 4.0])
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


def test_cdf_form_pins_origin_and_sets_tail():
    cfg = FitConfig.cdf_form(6, 0, 12)
    assert 0 in cfg.zero_powers
    assert cfg.tail_power == 12
    assert cfg.free_count() == 7  # numer 1..6 plus the shared tail


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
        cfg = FitConfig(config.n, config.m, lam=lam, lam1=lam1)
        if lam == lam1 == 0.0:
            assert isinstance(got, SingularSystem)
            with pytest.raises(SingularSystem, match=str(got)):
                fit_regularized(data, cfg, der)
        else:
            assert got == fit_regularized(data, cfg, der)


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
        st.sampled_from(["right", "inside", "midpoint"]),
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


def test_constant_members_keep_the_signed_zero_slope_row():
    # polyder of a negative constant is -0.0, in a batch as on its own
    x = np.linspace(-1.0, 1.0, 7)
    data = Dataset(x, -2.0 - 0.1 * x)
    configs = [FitConfig(0, 0, x_power=q) for q in (1.0, 2.0)] + [FitConfig(1, 1), FitConfig(0, 0, 5)]
    _assert_batch_matches_oracle(data, configs, DerivativeGridSpec((-1.0, 1.0), 5))
    assert np.signbit(fitting._fit(data, configs, None)[0].model._rows[2, 0])


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
