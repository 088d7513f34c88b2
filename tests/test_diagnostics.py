"""RMS error metrics and the derivative-based oscillation measure."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from padefit import (
    Dataset,
    DerivativeGridSpec,
    NoiseSpec,
    RationalModel,
    Tail,
    WeibullParams,
    build_reference_points,
    diagnostics,
    median_ranks,
    normal_deviates,
    oscillation_measure,
    pole_scan,
    rational,
    rmse,
    simulate_weibull_failures,
    sqrt_exp,
    uniform_grid,
    weibull_cdf,
    weibull_pdf,
)
from padefit.errors import DenominatorZero, EmptyInput, EvaluationOverflow, LengthMismatch, PadefitError

EPS = np.finfo(float).eps


# -- derivative grids -------------------------------------------------------


def test_grid_hand_computed():
    spec = DerivativeGridSpec((0.0, 2.0), 4)
    np.testing.assert_allclose(spec.grid(), [0.5, 1.0, 1.5, 2.0], rtol=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError):
        DerivativeGridSpec((0.0, 2.0), 0)
    with pytest.raises(ValueError):
        DerivativeGridSpec((2.0, 2.0), 4)
    # (-1e308, 1e308) has finite endpoints, but its length overflows
    for interval in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError):
            DerivativeGridSpec(interval, 4)


def test_grid_whose_nodes_leave_the_float_range_is_rejected():
    # the nodes a + i * (b - a) / count take i * (b - a) first: 3 * 1.7e308
    # overflows, so the spec is refused instead of holding inf nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid nodes out of float range"):
            DerivativeGridSpec((0.0, 1.7e308), 3)
        nodes = DerivativeGridSpec((0.0, 5.9e307), 3).grid()
    np.testing.assert_array_equal(nodes, np.arange(1.0, 4.0) * 5.9e307 / 3)
    assert np.isfinite(nodes).all()


def test_a_grid_keeps_its_ends_as_floats():
    # the ends its nodes are built from: a spec from a list is hashable, and
    # equal specs have equal nodes
    spec = DerivativeGridSpec([0, 2], 40)
    assert spec.interval == (0.0, 2.0) and [type(v) for v in spec.interval] == [float, float]
    assert spec == DerivativeGridSpec((0.0, 2.0), 40) and hash(spec) == hash(DerivativeGridSpec((0.0, 2.0), 40))
    assert DerivativeGridSpec(np.array([0.5, 2.0]), 7).interval == (0.5, 2.0)


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, np.True_, "3"])
def test_a_count_that_is_not_an_integer_is_refused(count):
    # every public entry point that takes a count; 2.5 used to put a grid
    # node at 1.2, outside [0, 1], give 3 median ranks, or end in a bare
    # TypeError from numpy, and True used to count as 1
    model = RationalModel((1.0,), (0.5,))  # a pole at x = -2
    data = Dataset(np.linspace(0.0, 1.0, 7), np.linspace(1.0, 2.0, 7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (
            lambda n: DerivativeGridSpec((0.0, 1.0), n).grid(),
            lambda n: pole_scan(model, (-3.0, 1.0), n).sign_changes,
            lambda n: uniform_grid(0.0, 1.0, n),
            lambda n: normal_deviates(n, NoiseSpec(0.1, 1)),
            lambda n: normal_deviates(4, NoiseSpec(0.1, n)),  # the seed
            lambda n: simulate_weibull_failures(WeibullParams(2.0, 1.5), n, 1),
            lambda n: simulate_weibull_failures(WeibullParams(2.0, 1.5), 4, n),  # the seed
            lambda n: median_ranks(n),
            lambda n: build_reference_points(data, n).f,
            lambda n: model.taylor_coefficients(n),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                make(count)
            # numpy integers are counts
            assert np.array_equal(make(np.int64(3)), make(3)) and np.array_equal(make(np.int32(5)), make(5))


def test_grid_excludes_left_endpoint():
    # the left endpoint would blow up on functions like sqrt(x)exp(-x)
    g = DerivativeGridSpec((0.0, 2.0), 40).grid()
    assert g[0] > 0.0
    assert len(g) == 40


# -- rmse --------------------------------------------------------------------


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.0], [0.0]) == 1.0
    assert rmse([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(
        math.sqrt(14 / 3), rel=1e-15
    )


def test_rmse_errors():
    with pytest.raises(LengthMismatch):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(EmptyInput):
        rmse([], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # inf - inf is invalid; a NaN value used to give a NaN; the difference
        # 2e308 overflows
        for values, targets in (([math.inf], [math.inf]), ([math.nan], [0.0]), ([1e308], [-1e308])):
            with pytest.raises(EvaluationOverflow, match="out of float range"):
                rmse(values, targets)
        # the square of the difference 2e200 overflows, its RMS does not
        assert rmse([1e200, 0.0], [-1e200, 0.0]) == pytest.approx(oracle.rms([2e200, 0.0]), rel=2 * EPS)
        assert rmse([1e200], [0.0]) == 1e200


@given(
    values=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=20
    ),
    c=st.floats(-100, 100),
)
@example(values=[(999891.0, 999999.0)], c=17.501081837222173)  # cancellation in c*p - c*t
def test_rmse_symmetry_and_scaling(values, c):
    p = [v[0] for v in values]
    t = [v[1] for v in values]
    base = rmse(p, t)
    assert base >= 0.0
    assert rmse(t, p) == base
    scaled = rmse([c * v for v in p], [c * v for v in t])
    # Each product c*v is rounded, so c*p - c*t may sit 2 eps |c| max|v| from
    # c*(p - t); the two means round by a few ulps per term, and squares that
    # underflow lose at most sqrt(ulp(0)) of either root.
    eps = np.finfo(float).eps
    rounding = 2 * eps * abs(c) * max(abs(v) for pair in values for v in pair)
    underflow = math.sqrt(math.ulp(0.0)) * (1 + abs(c))
    assert scaled == pytest.approx(abs(c) * base, rel=(len(values) + 6) * eps, abs=rounding + underflow)


# -- oscillation measure ----------------------------------------------------


def test_constant_function_has_zero_oscillation():
    grid = DerivativeGridSpec((0.0, 2.0), 40)
    assert oscillation_measure(lambda x: 3.0, grid) == 0.0
    assert oscillation_measure(RationalModel(numer=(3.0,)), grid) == 0.0


def test_weibull_cdf_baseline():
    params = WeibullParams(1.0, 2.0)
    grid = DerivativeGridSpec((0.0, 2.0), 40)
    value = oscillation_measure(
        lambda x: weibull_cdf(params, x), grid, derivative=lambda x: weibull_pdf(params, x)
    )
    assert value == pytest.approx(0.5595, abs=0.01)


def test_sqrt_exp_baseline():
    grid = DerivativeGridSpec((0.0, 2.0), 100)
    assert oscillation_measure(sqrt_exp, grid) == pytest.approx(0.5268, abs=0.01)


def test_measure_matches_direct_rms_of_derivative():
    params = WeibullParams(1.0, 2.0)
    grid = DerivativeGridSpec((0.0, 2.0), 40)
    pts = grid.grid()
    want = math.sqrt(float(np.mean(weibull_pdf(params, pts) ** 2)))
    got = oscillation_measure(
        lambda x: weibull_cdf(params, x), grid, derivative=lambda x: weibull_pdf(params, x)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_measure_invariant_under_constant_shift():
    grid = DerivativeGridSpec((0.1, 2.0), 30)
    f = lambda x: x**2 / (1 + x)
    g = lambda x: f(x) + 5.0
    assert oscillation_measure(f, grid) == pytest.approx(
        oscillation_measure(g, grid), rel=1e-9
    )


def test_analytic_and_difference_derivatives_agree():
    model = RationalModel(numer=(0.0, 1.0, 0.3), denom=(0.5, 0.1))
    grid = DerivativeGridSpec((0.1, 2.0), 50)
    analytic = oscillation_measure(model, grid)
    finite = oscillation_measure(lambda x: model(x), grid)
    assert finite == pytest.approx(analytic, rel=1e-4)


def test_a_callable_whose_slope_is_not_finite_is_an_overflow():
    # a NaN slope used to give a NaN measure, and the difference quotient of
    # a jump of 2e305 at x = 1 overflows; slopes of 1e200, whose squares
    # overflow, have the RMS 1e200
    grid = DerivativeGridSpec((0.0, 2.0), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, derivative in (
            (lambda x: x, lambda x: np.full_like(x, np.nan)),
            (lambda x: np.where(x > 1.0, 1e305, -1e305), None),
        ):
            with pytest.raises(EvaluationOverflow):
                oscillation_measure(fn, grid, derivative)
        assert oscillation_measure(lambda x: x, grid, lambda x: 1e200 + 0 * x) == oracle.rms([1e200] * 40) == 1e200
        xs = grid.grid()
        h = diagnostics.FD_STEP * np.maximum(1.0, xs)
        quotients = (1e200 * (xs + h) - 1e200 * (xs - h)) / (2.0 * h)
        assert oscillation_measure(lambda x: 1e200 * x, grid) == pytest.approx(oracle.rms(quotients), rel=2 * EPS)


def test_a_batch_is_measured_in_one_pass_whatever_overflows(monkeypatch):
    # one _slopes pass for the batch, where an overflow in one member used to
    # re-run the pass model by model; each row's outcome is its lone measure's
    slopes = diagnostics._slopes
    calls = []
    monkeypatch.setattr(diagnostics, "_slopes", lambda *args: calls.append(len(args[1])) or slopes(*args))
    models = [RationalModel((1.0, 1.0)), RationalModel((1e300, 1e300)), RationalModel((2.0,), (0.5,))]
    grid = DerivativeGridSpec((0.0, 1e10), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measures = diagnostics._measures(*rational._stack(models), grid)
    assert calls == [3]
    assert measures[0] == 1.0 and measures[2] == oscillation_measure(models[2], grid)
    assert isinstance(measures[1], EvaluationOverflow)  # P = 1e300 (1 + x) overflows on the grid


def test_each_row_of_a_batch_keeps_the_order_of_its_errors():
    # on the nodes 1, 2, 3, 4: Q = 1 + 1e200 x, whose Q*Q overflows on the way
    # to slopes near -1e-200; Q = 1 - x/2 vanishing at 2; Q = 1 - x vanishing
    # at 1 with slopes near 1e300, whose squares overflow (DenominatorZero
    # first) and with P = 1e308 x**3 overflowing at 4 (EvaluationOverflow
    # first); slopes of 1e300, whose squares overflow.  The neighbours keep
    # the bits of their lone measures.
    models = [
        RationalModel((1.0, 2.0), (0.5,)),
        RationalModel((1.0,), (1e200,)),
        RationalModel((1.0,), (-0.5,)),
        RationalModel((0.0, 0.0, 1e300), (-1.0,)),
        RationalModel((0.0, 0.0, 0.0, 1e308), (-1.0,)),
        RationalModel((1e300, 1e300)),
        RationalModel((3.0, 1.0, 2.0), (0.3,)),
    ]
    grid = DerivativeGridSpec((0.0, 4.0), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measures = diagnostics._measures(*rational._stack(models), grid)
        for model, measure in zip(models, measures):
            if isinstance(measure, Exception):
                with pytest.raises(type(measure), match=re.escape(str(measure))):
                    oscillation_measure(model, grid)
            else:
                assert measure == oscillation_measure(model, grid)
    kinds = [type(m) for m in measures]
    assert kinds == [float, float, DenominatorZero, DenominatorZero, EvaluationOverflow, float, float]
    assert [m.x for m in measures[2:4]] == [2.0, 1.0]
    assert str(measures[4]) == "dR/dx is out of float range"
    # the slopes of row 1 are mpmath's to 2 ulps, but their squares, near
    # 1e-400, underflow to 0: its measure is 0.0, not mpmath's 5.19e-201
    want = [float(v) for v in oracle.slopes(models[1], grid.grid())]
    np.testing.assert_allclose(models[1].derivative(grid.grid()), want, rtol=2 * EPS, atol=0.0)
    assert measures[1] == 0.0 and oracle.rms(want) == pytest.approx(5.19e-201, rel=1e-3, abs=0.0)
    assert measures[5] == oracle.rms(oracle.slopes(models[5], grid.grid())) == 1e300


#: Coefficients of every size: Q*Q, P or a square of a slope overflows on
#: the larger ones, the smaller ones keep ordinary measures.
MEASURE_COEFFICIENT = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0, -1.0, 1e150, -1e200, 1e300])


@st.composite
def _measured_models(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    numer = draw(st.lists(MEASURE_COEFFICIENT, min_size=n + 1, max_size=n + 1))
    denom = draw(st.lists(MEASURE_COEFFICIENT, min_size=m, max_size=m))
    tail = draw(st.none() | st.builds(Tail, st.integers(max(n, m) + 1, 8), st.floats(-10.0, 10.0)))
    return RationalModel(tuple(numer), tuple(denom), tail, draw(st.sampled_from([0.5, 0.65, 1.0, 2.0])))


def _outcome(measure):
    # a measure's bits, or its error's class and message
    return (type(measure), str(measure)) if isinstance(measure, Exception) else float.hex(measure)


@settings(max_examples=200, deadline=None)
@given(
    models=st.lists(_measured_models(), min_size=1, max_size=5),
    # a negative end; a node at 0 for an even count on (-1, 1), and for 2 or
    # more on (0, 5e-324), whose first node rounds to 0; ends near 1e300
    interval=st.sampled_from(
        [(-1.0, 1.0), (-2.0, 1.0), (0.0, 5e-324), (0.0, 2.0), (0.5, 4.0), (0.0, 1e300), (1e299, 1e300), (-1e300, 1e300)]
    ),
    count=st.integers(1, 12),
)
# Q vanishes at the node 1, P overflows at 2: the overflow comes first
@example(models=[RationalModel((0.0, 1e308), (-1.0,))], interval=(0.0, 2.0), count=2)
def test_each_row_of_a_batch_is_its_lone_measure(models, interval, count):
    # one stacked pass gives each model the bits of oscillation_measure, or
    # the class and message of the error that it raises
    grid = DerivativeGridSpec(interval, count)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measures = diagnostics._measures(*rational._stack(models), grid)
        for model, measure in zip(models, measures, strict=True):
            try:
                lone = oscillation_measure(model, grid)
            except PadefitError as exc:
                lone = exc
            assert _outcome(measure) == _outcome(lone)


def test_pole_on_grid_raises():
    model = RationalModel(numer=(1.0,), denom=(-1.0,))  # pole at x = 1
    grid = DerivativeGridSpec((0.0, 2.0), 2)  # the grid hits 1.0 exactly
    with pytest.raises(DenominatorZero):
        oscillation_measure(model, grid)
