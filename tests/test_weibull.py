"""Weibull estimation, plotting positions, and mean time to failure."""

import functools
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from padefit import (
    DerivativeGridSpec,
    FitConfig,
    RationalModel,
    Tail,
    WeibullParams,
    fit_regularized,
    median_ranks,
    mle_fit,
    mttf,
    transform_fit,
    weibull_cdf,
    weibull_pdf,
)
from padefit.errors import (
    DegenerateAbscissae,
    EmptyInput,
    LengthMismatch,
    NoBracket,
    NonconvergentQuadrature,
    NonconvergentTail,
    PoleOnRange,
    SingularSystem,
)
from padefit.weibull import QUAD_ROUNDS, _graded_gauss

# The mpmath MTTF takes about half a second; each (model, cap) runs once.
oracle_mttf = functools.cache(oracle.mttf)


@pytest.fixture(scope="module")
def table1_cdf(table1):
    """The table-1 CDF fit, cdf_form(6, 0, 12) at lambda = 0.0025."""
    return fit_regularized(table1, FitConfig.cdf_form(6, 0, 12, lam=0.0025), DerivativeGridSpec((0.0, 2.0), 40)).model


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        WeibullParams(0.0, 2.0)
    with pytest.raises(ValueError):
        WeibullParams(1.0, -1.0)


# -- distribution functions -------------------------------------------------


def test_cdf_shape():
    p = WeibullParams(1.0, 2.0)
    assert weibull_cdf(p, 0.0) == 0.0
    assert weibull_cdf(p, -3.0) == 0.0
    assert weibull_cdf(p, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-15)
    xs = np.linspace(0.0, 5.0, 200)
    vals = weibull_cdf(p, xs)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 1.0


def test_pdf_is_cdf_derivative():
    p = WeibullParams(1.3, 2.7)
    for x in (0.2, 0.9, 1.7):
        h = 1e-6
        fd = (weibull_cdf(p, x + h) - weibull_cdf(p, x - h)) / (2 * h)
        assert weibull_pdf(p, x) == pytest.approx(fd, rel=1e-8)


# -- plotting positions -----------------------------------------------------


def test_benard_ranks_match_shipped_table():
    ranks = median_ranks(10, 0.3)
    assert round(ranks[0], 4) == 0.0673
    assert round(ranks[-1], 4) == 0.9327
    assert ranks[0] == pytest.approx(0.7 / 10.4, rel=1e-15)


def test_alternative_rank_conventions():
    assert median_ranks(10, 0.5)[4] == pytest.approx(0.45, rel=1e-15)
    assert median_ranks(10, 0.0)[0] == pytest.approx(1 / 11, rel=1e-15)


def test_ranks_validation():
    with pytest.raises(EmptyInput):
        median_ranks(0)
    with pytest.raises(ValueError):
        median_ranks(10, a=0.6)
    with pytest.raises(ValueError):
        median_ranks(10, a=-0.1)


@given(m=st.integers(1, 60), a=st.floats(0.0, 0.5))
def test_ranks_increase_and_mirror(m, a):
    ranks = median_ranks(m, a)
    assert len(ranks) == m
    assert np.all(ranks > 0) and np.all(ranks < 1)
    assert np.all(np.diff(ranks) > 0)
    np.testing.assert_allclose(ranks + ranks[::-1], 1.0, rtol=1e-12)


# -- log-log transform fit --------------------------------------------------


def test_transform_fit_recovers_exact_cdf():
    p = WeibullParams(2.0, 1.5)
    times = np.linspace(0.3, 5.0, 12)
    pars = transform_fit(times, weibull_cdf(p, times))
    assert pars.theta == pytest.approx(2.0, rel=1e-10)
    assert pars.shape == pytest.approx(1.5, rel=1e-10)


def test_transform_fit_matches_regression_oracle(table1):
    pars = transform_fit(table1.x, table1.f)
    u = np.log(table1.x)
    v = np.log(np.log(1 / (1 - table1.f)))
    slope = float(np.cov(u, v, bias=True)[0, 1] / np.var(u))
    intercept = float(np.mean(v) - slope * np.mean(u))
    assert pars.shape == pytest.approx(slope, rel=1e-12)
    assert pars.theta == pytest.approx(math.exp(-intercept / slope), rel=1e-12)


def test_transform_fit_validation():
    with pytest.raises(EmptyInput):
        transform_fit([1.0], [0.5])
    with pytest.raises(EmptyInput):
        mle_fit([1.0])
    with pytest.raises(LengthMismatch):
        transform_fit(np.array([1.0, 2.0]), np.array([0.5]))
    with pytest.raises(DegenerateAbscissae):
        transform_fit(np.array([1.0, 1.0]), np.array([0.3, 0.6]))
    with pytest.raises(ValueError):
        transform_fit(np.array([-1.0, 2.0]), np.array([0.3, 0.6]))
    with pytest.raises(ValueError):
        transform_fit(np.array([1.0, 2.0]), np.array([0.3, 1.0]))


NONFINITE_INPUTS = {
    "theta inf": (lambda: WeibullParams(math.inf, 2.0), "theta and shape must be finite"),
    "shape inf": (lambda: WeibullParams(1.0, math.inf), "theta and shape must be finite"),
    "mle time inf": (lambda: mle_fit(np.array([1.0, 2.0, np.inf])), "times must be positive and finite"),
    "mle time nan": (lambda: mle_fit(np.array([1.0, np.nan, 2.0])), "times must be positive and finite"),
    "transform time inf": (
        lambda: transform_fit(np.array([1.0, 2.0, np.inf]), np.array([0.2, 0.5, 0.8])),
        "times must be positive and finite",
    ),
    "transform rank nan": (
        lambda: transform_fit(np.array([1.0, 2.0, 3.0]), np.array([0.2, np.nan, 0.8])),
        r"ranks must lie strictly inside \(0, 1\)",
    ),
}


@pytest.mark.parametrize("case", NONFINITE_INPUTS)
def test_nonfinite_inputs_raise_value_error_quietly(case):
    call, message = NONFINITE_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


# times 1e-300 and 1e300: the log-log scale exp(-intercept / slope) overflows,
# and the MLE's max-scaled smallest time underflows to 0 before its log
SPANS_THE_FLOAT_RANGE = {
    "transform scale overflows": (
        lambda: transform_fit(np.array([1e-300, 1e300]), np.array([0.3, 0.6])),
        SingularSystem,
        "scale leaves the float range",
    ),
    "transform slope is zero": (
        lambda: transform_fit(np.array([1.0, 2.0]), np.array([0.5, 0.5])),
        SingularSystem,
        "scale leaves the float range",
    ),
    "mle scaled time underflows": (
        lambda: mle_fit(np.array([1e-300, 1e300])),
        NoBracket,
        "span more than the float range",
    ),
}


@pytest.mark.parametrize("case", SPANS_THE_FLOAT_RANGE)
def test_times_spanning_the_float_range_raise_typed_errors_quietly(case):
    call, error, message = SPANS_THE_FLOAT_RANGE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


# -- maximum likelihood -----------------------------------------------------


def test_mle_on_shipped_table(table1):
    pars = mle_fit(table1.x)
    assert pars.theta == pytest.approx(0.9488, abs=0.001)
    assert pars.shape == pytest.approx(2.252, abs=0.002)


def test_mle_satisfies_profile_equation(table1):
    pars = mle_fit(table1.x)
    x = np.asarray(table1.x, dtype=float)
    b = pars.shape
    resid = float(
        np.sum(x**b * np.log(x)) / np.sum(x**b) - 1.0 / b - np.mean(np.log(x))
    )
    assert abs(resid) < 1e-9
    # scale follows from the shape in closed form
    assert pars.theta == pytest.approx(
        float(np.mean(x**b) ** (1.0 / b)), rel=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30))
def test_mle_bisection_keeps_the_bits_of_a_product_sign_loop(times):
    try:
        want = oracle.mle_fit(times)
    except NoBracket:
        with pytest.raises(NoBracket):
            mle_fit(times)
        return
    assert mle_fit(times) == want


def test_mle_constructed_unit_shape_instance():
    # choose (1, t) so the profile equation's root is exactly shape = 1:
    # log(t) (t - 1) / (2 (t + 1)) = 1
    g = lambda t: math.log(t) * (t - 1) / (2 * (t + 1)) - 1
    lo, hi = 8.0, 14.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if g(mid) > 0 else (mid, hi)
    t_star = 0.5 * (lo + hi)
    pars = mle_fit(np.array([1.0, t_star]))
    assert pars.shape == pytest.approx(1.0, abs=1e-6)
    assert pars.theta == pytest.approx((1.0 + t_star) / 2, rel=1e-6)


def test_mle_scale_equivariance(table1):
    base = mle_fit(table1.x)
    scaled = mle_fit(np.asarray(table1.x) * 3.5)
    assert scaled.shape == pytest.approx(base.shape, rel=1e-8)
    assert scaled.theta == pytest.approx(3.5 * base.theta, rel=1e-8)


def test_mle_degenerate_sample():
    with pytest.raises(NoBracket):
        mle_fit(np.array([2.0, 2.0, 2.0]))


# -- mean time to failure ---------------------------------------------------


def test_mttf_weibull_closed_form():
    mpmath.mp.dps = 30
    want = float(mpmath.gamma(mpmath.mpf(3) / 2))
    assert mttf(WeibullParams(1.0, 2.0)) == pytest.approx(want, rel=1e-12)


def test_gamma_accuracy_against_mpmath():
    mpmath.mp.dps = 30
    for arg in (0.5, 1.0, 1.44, 2.25, 7.3, 26.0, 50.0):
        want = float(mpmath.gamma(arg))
        assert math.gamma(arg) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "theta, shape",
    [(1.0, 0.005), (1.0, 0.0058), (1e308, 0.5)],
    ids=["gamma overflows", "gamma overflows at the edge", "product overflows"],
)
def test_mttf_weibull_overflow_is_typed(theta, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonconvergentTail, match="does not fit in a float"):
            mttf(WeibullParams(theta, shape))
    # just inside the float range the closed form still answers
    assert mttf(WeibullParams(1.0, 0.0059)) == math.gamma(1.0 + 1.0 / 0.0059)


@given(theta=st.floats(0.01, 100.0), shape=st.floats(0.3, 10.0))
def test_mttf_scales_linearly_with_theta(theta, shape):
    unit = mttf(WeibullParams(1.0, shape))
    assert mttf(WeibullParams(theta, shape)) == pytest.approx(
        theta * unit, rel=1e-12
    )


def test_mttf_rational_quarter_circle_tail():
    # R = x^2/(1+x^2): 1 - R = 1/(1+x^2), whose integral is pi/2
    model = RationalModel(numer=(0.0,), tail=Tail(2, 1.0))
    assert mttf(model, x_max=2000.0) == pytest.approx(math.pi / 2, abs=1e-6)
    # a small cap just moves work from quadrature into the tail formula
    assert mttf(model, x_max=10.0) == pytest.approx(math.pi / 2, abs=1e-3)


def test_mttf_rational_validation():
    model = RationalModel(numer=(0.0,), tail=Tail(2, 1.0))
    with pytest.raises(ValueError):
        mttf(model)  # needs the cap
    with pytest.raises(ValueError):
        mttf(RationalModel(numer=(0.5,), tail=Tail(2, 1.0)), x_max=10.0)
    with pytest.raises(ValueError):
        mttf(RationalModel(numer=(0.0, 1.0)), x_max=10.0)  # no tail term


def test_mttf_pole_on_range():
    # denominator 1 + b1 x + x^2 changes sign twice on [0, 10]; the message
    # names the first bisected root: 0.5 for b1 = -2.5, and off the scan
    # grid (2.3 - sqrt(1.29)) / 2 for b1 = -2.3
    for b1, root in ((-2.5, "0.5"), (-2.3, "0.582109")):
        model = RationalModel(numer=(0.0,), denom=(b1,), tail=Tail(2, 1.0))
        with pytest.raises(PoleOnRange, match=f"^denominator changes sign at x ~ {root}$"):
            mttf(model, x_max=10.0)


@pytest.mark.parametrize(
    "x_power, x_max, decay", [(0.5, 100.0, "x**-1"), (0.5, 1e8, "x**-1"), (0.25, 1e8, "x**-0.5")]
)
def test_mttf_divergent_tail(x_power, x_max, decay):
    # 1 - R = 1/(1 + x**(2 x_power)) decays like 1/x or 1/sqrt(x): not
    # integrable.  The cutoff falls on x_max, where that decay already
    # holds, except for 1/x on [0, 1e8], where it falls inside.
    model = RationalModel(numer=(0.0,), tail=Tail(2, 1.0), x_power=x_power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonconvergentTail, match=f"^1 - R decays like {re.escape(decay)}, integral diverges$"):
            mttf(model, x_max=x_max)


def test_mttf_huge_cap_ends_in_typed_error(table1_cdf):
    # Past x ~ 1e25 the table-1 CDF fit's polynomials overflow to inf/inf:
    # the quadrature meets NaN and stops with a typed error, quietly.
    assert mttf(table1_cdf, x_max=100.0) == pytest.approx(oracle_mttf(table1_cdf, 100.0), rel=1e-12)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonconvergentQuadrature):
            mttf(table1_cdf, x_max=1e300)
    assert time.perf_counter() - start < 2.0


def test_mttf_far_caps_match_oracle(table1_cdf):
    # A cutoff near x_max/4096 puts the CDF's whole rise, near x = 1, in a
    # sliver of the range: the graded panels must still resolve it.
    for cap in (1e2, 1e15, 1e20):
        assert mttf(table1_cdf, x_max=cap) == pytest.approx(oracle_mttf(table1_cdf, cap), rel=1e-12)


def test_mttf_square_root_substitution():
    # 1 - R = (1 - sqrt(x)/2) / (1 + x**2) has a square-root kink at 0
    model = RationalModel((0.0, 0.5), tail=Tail(4, 1.0), x_power=0.5)
    value = mttf(model, x_max=1e3)
    assert math.isfinite(value)
    assert value == pytest.approx(oracle_mttf(model, 1e3), rel=1e-12)


def test_mttf_cap_before_the_tail_decays():
    # R = x^2 / (1 + x^2) is nowhere near 1 on [0, 1e-300]: the tail formula
    # would return 1e300 for a true MTTF of pi/2
    model = RationalModel(numer=(0.0,), tail=Tail(2, 1.0))
    with pytest.raises(NonconvergentTail):
        mttf(model, x_max=1e-300)
    assert mttf(model, x_max=1e7) == pytest.approx(math.pi / 2, rel=1e-6)


def test_quadrature_gives_up_in_bounded_rounds():
    assert _graded_gauss(lambda x: x * x, 3.0) == pytest.approx(9.0, rel=1e-14)
    calls = 0

    def oscillating(x):
        nonlocal calls
        calls += 1
        return np.sin(1.0 / x)

    with pytest.raises(NonconvergentQuadrature, match=f"after {QUAD_ROUNDS} panel halvings"):
        _graded_gauss(oscillating, 1.0)
    assert calls == QUAD_ROUNDS + 1
    with pytest.raises(NonconvergentQuadrature, match="integrand is nan"):
        _graded_gauss(lambda x: np.where(x > 0.5, math.nan, 1.0), 1.0)
