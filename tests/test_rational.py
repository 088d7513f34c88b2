"""Model evaluation, calculus, algebra, and pole scanning."""

import copy
import json
import math
import pickle
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import polynomial as npoly

import oracle
from padefit import DerivativeGridSpec, PoleReport, RationalModel, Tail, add, pole_scan, uniform_grid
from padefit import rational
from padefit.rational import _horner, _scan, _scan_grid, _stack, _substitutions, pole_scans
from padefit.errors import (
    DenominatorZero,
    EvaluationOverflow,
    NegativeAbscissa,
    SingularDerivative,
    UnsupportedSubstitution,
)

# The built-in two-peak resonance test function, written as two rational
# terms with unit denominator constants:
#   1/((x+0.5)^2+0.25)        = 2/(1 + 2x + 2x^2)
#   (1+0.2x)/((x-0.5)^2+0.09) = (1/0.34 + (0.2/0.34)x)/(1 - x/0.34 + x^2/0.34)
PEAK_LEFT = RationalModel(numer=(2.0,), denom=(2.0, 2.0))
PEAK_RIGHT = RationalModel(
    numer=(1 / 0.34, 0.2 / 0.34), denom=(-1 / 0.34, 1 / 0.34)
)


def canonical_peak_sum_fractions():
    """Exact single-ratio form of PEAK_LEFT + PEAK_RIGHT via Fraction math.

    Returns (numer, denom) coefficient tuples with the denominator constant
    normalized to 1; denom excludes that constant, matching RationalModel.
    """
    p1, q1 = [Fraction(1)], [Fraction(1, 2), Fraction(1), Fraction(1)]
    p2 = [Fraction(1), Fraction(1, 5)]
    q2 = [Fraction(34, 100), Fraction(-1), Fraction(1)]

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def padd(a, b):
        out = [Fraction(0)] * max(len(a), len(b))
        for i, ai in enumerate(a):
            out[i] += ai
        for j, bj in enumerate(b):
            out[j] += bj
        return out

    num = padd(mul(p1, q2), mul(p2, q1))
    den = mul(q1, q2)
    scale = den[0]
    num = [c / scale for c in num]
    den = [c / scale for c in den]
    return tuple(num), tuple(den[1:])


CANON_NUMER, CANON_DENOM = canonical_peak_sum_fractions()


# -- construction and validation -------------------------------------------


def test_empty_numerator_rejected():
    with pytest.raises(ValueError):
        RationalModel(numer=())


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError):
        RationalModel(numer=(1.0, math.nan))
    with pytest.raises(ValueError):
        RationalModel(numer=(1.0,), denom=(math.inf,))


def test_nonpositive_substitution_power_rejected():
    with pytest.raises(ValueError):
        RationalModel(numer=(1.0,), x_power=0.0)
    with pytest.raises(ValueError):
        RationalModel(numer=(1.0,), x_power=-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                RationalModel(numer=(1.0,), denom=(0.5,), x_power=bad)


def test_tail_power_must_clear_both_degrees():
    with pytest.raises(ValueError):
        RationalModel(numer=(0.0, 1.0, 2.0), tail=Tail(2, 1.0))
    with pytest.raises(ValueError):
        RationalModel(numer=(0.0,), denom=(0.1, 0.2, 0.3), tail=Tail(3, 1.0))
    RationalModel(numer=(0.0, 1.0), denom=(0.5,), tail=Tail(2, 1.0))


@pytest.mark.parametrize("power", [2.9, 3.0, True, 0])
def test_tail_power_must_be_a_positive_int(power):
    # a float power used to construct and fail on first use with a TypeError
    with pytest.raises(ValueError, match="positive integer"):
        Tail(power, 1.0)


def test_tail_coefficient_must_be_finite():
    with pytest.raises(ValueError, match="tail coefficient must be finite"):
        Tail(3, math.inf)


def test_masked_coefficient_must_be_zero():
    with pytest.raises(ValueError):
        RationalModel(numer=(1.0, 2.0), zero_powers=frozenset({0}))
    m = RationalModel(numer=(0.0, 2.0), zero_powers=frozenset({0}))
    assert m(1.0) == 2.0


# -- evaluation -------------------------------------------------------------


def test_constant_model_evaluates_to_constant():
    m = RationalModel(numer=(2.5,))
    for x in (-3.0, 0.0, 0.7, 100.0):
        assert m(x) == 2.5


def test_value_at_origin_is_numerator_constant():
    # no matter how wild the printed trailing digits are, R(0) = numer[0]
    m = RationalModel(
        numer=(4.941, 0.5882, 12.94, 4.176), denom=(-1.0, -1.0, 0.0, 5.882)
    )
    assert m(0.0) == pytest.approx(4.941, rel=1e-15)


def test_eval_matches_term_by_term_extended_precision():
    import mpmath

    mpmath.mp.dps = 50
    m = RationalModel(numer=CANON_NUMER, denom=CANON_DENOM)
    for x in (0.5, -0.25, 1.75):
        num = sum(mpmath.mpf(c) * mpmath.mpf(x) ** i for i, c in enumerate(m.numer))
        den = 1 + sum(
            mpmath.mpf(c) * mpmath.mpf(x) ** (j + 1) for j, c in enumerate(m.denom)
        )
        assert m(x) == pytest.approx(float(num / den), rel=1e-13)


def test_eval_with_substitution_power():
    m = RationalModel(numer=(0.0, 1.0), x_power=0.5)
    assert m(4.0) == pytest.approx(2.0, rel=1e-15)


def test_eval_raises_on_vanishing_denominator():
    m = RationalModel(numer=(1.0,), denom=(-1.0,))  # 1/(1-x)
    for call in (m, m.derivative):
        with pytest.raises(DenominatorZero) as exc:
            call(1.0)
        assert exc.value.x == 1.0 and str(exc.value) == "denominator vanishes at x = 1.0"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
def test_denominator_zero_survives_copy_and_pickle(clone):
    # Exception's own reduction would pass the message back as x
    back = clone(DenominatorZero(1.0))
    assert type(back) is DenominatorZero
    assert back.x == 1.0 and str(back) == "denominator vanishes at x = 1.0"


def test_eval_scalar_in_scalar_out_and_vectorized():
    m = RationalModel(numer=(1.0, 1.0), denom=(0.5,))
    assert isinstance(m(0.5), float)
    xs = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(m(xs), [m(0.0), m(1.0), m(2.0)], rtol=1e-15)
    # an empty x gives an empty array of its shape, as np.polyval does
    tailed = RationalModel(numer=(0.0, 1.0), denom=(0.5,), tail=Tail(3, 2.0), x_power=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (m, tailed):
            for empty in ([], np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))):
                for f in (model, model.derivative):
                    got = f(empty)
                    assert isinstance(got, np.ndarray) and got.dtype == float
                    assert got.shape == np.shape(empty) == np.polyval([1.0, 2.0], np.asarray(empty, dtype=float)).shape


# -- derivative -------------------------------------------------------------


def test_derivative_of_constant_is_zero():
    m = RationalModel(numer=(2.5,))
    assert m.derivative(0.3) == 0.0


def test_derivative_at_origin_equals_linear_coefficient():
    # with numer = (0, c, ...) and unit denominator constant, R'(0) = c
    m = RationalModel(numer=(0.0, 6.285, -1.0), denom=(0.2, 0.1))
    assert m.derivative(0.0) == pytest.approx(6.285, rel=1e-15)


def _central_difference(m, x):
    h = 1e-6 * max(1.0, abs(x))
    return (m(x + h) - m(x - h)) / (2 * h)


def test_derivative_matches_central_differences():
    models = [
        RationalModel(numer=CANON_NUMER, denom=CANON_DENOM),
        RationalModel(numer=(1.0, -0.4, 0.2), denom=(0.25,)),
        RationalModel(numer=(0.0, 1.0), denom=(0.5,), tail=Tail(3, 0.2)),
    ]
    rng = np.random.default_rng(7)
    for m in models:
        for x in rng.uniform(0.05, 1.9, 100):
            x = float(x)
            want = _central_difference(m, x)
            got = m.derivative(x)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_derivative_chain_rule_through_substitution():
    # R(x) = sqrt(x) has derivative 1/(2 sqrt(x))
    m = RationalModel(numer=(0.0, 1.0), x_power=0.5)
    assert m.derivative(4.0) == pytest.approx(0.25, rel=1e-12)
    assert m.derivative(0.25) == pytest.approx(1.0, rel=1e-12)


def test_a_slope_in_t_below_the_float_range_keeps_its_chain_rule_factor():
    # dR/dt of these models underflows (1.3e-345 and -1e-350) while
    # dR/dx = dR/dt * q x**(q - 1) is a normal float: the slope is taken with
    # the factor before the divisions by Q, as mpmath's, not 0.0.  The first
    # Q*Q overflows, the second does not; with x_power 1 there is no factor.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, x in (
            (RationalModel((1.0850032386649475e50,), (-0.6991140403826994,), x_power=2.0), 5.882352941176471e98),
            (RationalModel((1e-150,), (1.0,), x_power=2.0), 1e50),
            (RationalModel((1e-170,), (1e220,), x_power=2.0), 1e-30),
        ):
            want = float(oracle.slopes(model, x)[0])
            assert abs(want) > 1e-300
            assert model.derivative(x) == pytest.approx(want, rel=1e-15, abs=0.0)
            assert model.derivative(np.array([x, x])).tolist() == [model.derivative(x)] * 2
        assert RationalModel((1e-150,), (1.0,)).derivative(1e100) == float(oracle.slopes(RationalModel((1e-150,), (1.0,)), 1e100)[0]) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-150.0, 150.0),
    st.floats(-150.0, 150.0),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.5, 0.65, 2.0, 3.0]),
    st.floats(-300.0, 300.0),
)
def test_slopes_of_a_over_1_plus_bt_match_mpmath(a_exp, b_exp, sign, q, x_exp):
    # R = a / (1 + b t), t = x**q: P'Q - PQ' = -ab cancels nothing, so where
    # no intermediate leaves the float range but dR/dt may underflow, dR/dx
    # is mpmath's to a few roundings whenever that is a normal float
    # in decades: t, b t and the chain-rule factor q x**(q - 1) are normal floats, |b t| is not near 1
    assume(abs(q * x_exp) < 300.0 and 0.7 < abs(b_exp + q * x_exp) < 300.0 and abs((q - 1.0) * x_exp) < 299.0)
    a, b, x = 10.0**a_exp, sign * 10.0**b_exp, 10.0**x_exp
    model = RationalModel((a,), (b,), x_power=q)
    want = float(oracle.slopes(model, x)[0])
    assume(1e-300 < abs(want) < 1e300)
    assert model.derivative(x) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_negative_abscissa_with_fractional_power_raises():
    m = RationalModel(numer=(1.0, 2.0), denom=(0.5,), x_power=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (-1.0, np.array([0.5, -1e-300, 1.0])):
            with pytest.raises(NegativeAbscissa):
                m(x)
            with pytest.raises(NegativeAbscissa):
                m.derivative(x)
        # integer powers are defined everywhere
        squared = RationalModel(numer=(1.0, 2.0), denom=(0.5,), x_power=2.0)
        assert squared(-1.0) == 3.0 / 1.5
        assert math.isfinite(squared.derivative(-1.0))


def test_derivative_at_origin_needs_unit_power():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0.5, 0.9):
            m = RationalModel(numer=(1.0, 2.0), denom=(0.5,), x_power=q)
            assert math.isfinite(m(0.0))
            for x in (0.0, np.array([0.5, 0.0])):
                with pytest.raises(SingularDerivative):
                    m.derivative(x)
        # from x_power = 1 up the chain-rule factor is finite at 0
        assert RationalModel(numer=(0.0, 1.0), x_power=1.5).derivative(0.0) == 0.0


# -- Maclaurin coefficients -------------------------------------------------


def test_taylor_of_polynomial_is_its_own_coefficients():
    m = RationalModel(numer=(3.0, -2.0, 0.5))
    assert m.taylor_coefficients(5) == (3.0, -2.0, 0.5, 0.0, 0.0)


def test_taylor_geometric_series():
    m = RationalModel(numer=(1.0,), denom=(1.0,))  # 1/(1+x)
    assert m.taylor_coefficients(5) == (1.0, -1.0, 1.0, -1.0, 1.0)


def test_taylor_matches_long_division_oracle():
    # c_i = a_i - sum b_j c_{i-j}, checked with exact fractions
    m = RationalModel(numer=(1.0, 0.5), denom=(0.25, -0.5))
    a = [Fraction(1), Fraction(1, 2)]
    b = [Fraction(1), Fraction(1, 4), Fraction(-1, 2)]
    c = []
    for i in range(6):
        acc = a[i] if i < len(a) else Fraction(0)
        for j in range(1, min(i, 2) + 1):
            acc -= b[j] * c[i - j]
        c.append(acc)
    assert m.taylor_coefficients(6) == pytest.approx([float(v) for v in c], rel=1e-14)


def test_taylor_of_sinusoid_interpolant():
    # (8,2) interpolant of sin(2*pi*x); leading expansion terms should be
    # close to 2*pi*x - 41.34x^3
    m = RationalModel(
        numer=(0.0, 6.285, -3.396, -37.28, 17.36, 76.98, -83.92, 23.98, 0.0),
        denom=(-0.5305, 0.5305),
    )
    c = m.taylor_coefficients(4)
    assert c[0] == 0.0
    assert c[1] == pytest.approx(6.285, rel=0.005)
    assert c[2] == pytest.approx(-0.06186, rel=0.005)
    assert c[3] == pytest.approx(-40.64, rel=0.005)


def test_taylor_coefficient_past_the_float_range_is_a_typed_error():
    # 1 / (1 + 1e200 x) = sum (-1e200 x)**i: the x**2 coefficient overflows
    m = RationalModel((1.0,), (1e200,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert m.taylor_coefficients(2) == (1.0, -1e200)
        with pytest.raises(EvaluationOverflow, match="Maclaurin coefficient 2 is out of float range"):
            m.taylor_coefficients(5)


def test_taylor_requires_unit_substitution_power():
    m = RationalModel(numer=(0.0, 1.0), x_power=0.5)
    with pytest.raises(UnsupportedSubstitution):
        m.taylor_coefficients(3)


# -- addition ---------------------------------------------------------------


def test_add_zero_function_is_identity():
    f = RationalModel(numer=(1.5, -0.3), denom=(0.2,))
    zero = RationalModel(numer=(0.0,))
    g = add(f, zero)
    assert g.numer == pytest.approx(f.numer, rel=1e-15)
    assert g.denom == pytest.approx(f.denom, rel=1e-15)


def test_add_geometric_pair():
    # 1/(1+x) + 1/(1-x) = 2/(1-x^2)
    f = RationalModel(numer=(1.0,), denom=(1.0,))
    g = RationalModel(numer=(1.0,), denom=(-1.0,))
    h = add(f, g)
    assert h.numer == pytest.approx((2.0,), abs=1e-15)
    assert h.denom == pytest.approx((0.0, -1.0), abs=1e-15)


def test_add_two_peak_sum_matches_fraction_oracle():
    h = add(PEAK_LEFT, PEAK_RIGHT)
    np.testing.assert_allclose(h.numer, [float(c) for c in CANON_NUMER], rtol=1e-12)
    np.testing.assert_allclose(
        h.denom, [float(c) for c in CANON_DENOM], rtol=1e-12, atol=1e-12
    )


def test_add_of_a_model_and_its_negation_keeps_one_zero_numerator_entry():
    # every numerator coefficient of f + (-f) cancels to +0.0; trailing zeros
    # go, except the constant, and the product denominator stays whole
    f = RationalModel(numer=(1.0, -2.0, 0.5), denom=(0.25, 3.0))
    h = add(f, RationalModel(numer=tuple(-c for c in f.numer), denom=f.denom))
    assert h.numer == (0.0,) and not math.copysign(1.0, h.numer[0]) < 0.0
    assert h.denom == (0.5, 6.0625, 1.5, 9.0)
    assert h(0.7) == 0.0


def test_add_with_coefficients_past_the_float_range_is_a_typed_error():
    # the sum's numerator 2e200 (1 + 1e200 x) and denominator (1 + 1e200 x)**2
    # overflow: EvaluationOverflow, not the constructor's bare ValueError
    big = RationalModel((1e200,), (1e200,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflow, match="coefficients of the sum are out of float range"):
            add(big, big)
        with pytest.raises(EvaluationOverflow):  # a numerator sum past the range, as well
            add(RationalModel((1e308,)), RationalModel((1e308,)))


# zeros of both signs, and magnitudes whose products underflow to zero or
# whose sums overflow
ADD_COEFFICIENTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 3e-170, -1e-200, 1e154, -2e154])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ADD_COEFFICIENTS, min_size=1, max_size=5),
    st.lists(ADD_COEFFICIENTS, max_size=4),
    st.lists(ADD_COEFFICIENTS, min_size=1, max_size=5),
    st.lists(ADD_COEFFICIENTS, max_size=4),
)
def test_add_is_numpys_polyadd_of_polymuls_to_the_bit(pf, qf, pg, qg):
    # the rows of both models end in zeros up to their common height
    f, g = RationalModel(tuple(pf), tuple(qf)), RationalModel(tuple(pg), tuple(qg))
    (p1, q1), (p2, q2) = f._rows, g._rows
    with np.errstate(all="ignore"):
        num = npoly.polyadd(npoly.polymul(p1, q2), npoly.polymul(p2, q1))
        den = np.trim_zeros(npoly.polymul(q1, q2), "b")
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        with pytest.raises(EvaluationOverflow):
            add(f, g)
        return
    h = add(f, g)
    assert np.array(h.numer).tobytes() == num[: len(np.trim_zeros(num, "b")) or 1].tobytes()
    assert np.array(h.denom).tobytes() == den[1:].tobytes()


def test_add_rejects_substitution_and_tails():
    plain = RationalModel(numer=(1.0,))
    with pytest.raises(UnsupportedSubstitution):
        add(plain, RationalModel(numer=(0.0, 1.0), x_power=0.5))
    with pytest.raises(UnsupportedSubstitution):
        add(plain, RationalModel(numer=(0.0,), tail=Tail(2, 1.0)))


def test_add_linearity_at_safe_points():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = RationalModel(
            numer=tuple(rng.normal(size=3)), denom=(float(rng.uniform(-0.3, 0.3)),)
        )
        g = RationalModel(
            numer=tuple(rng.normal(size=2)),
            denom=(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.1, 0.1))),
        )
        h = add(f, g)
        for x in rng.uniform(-1.5, 1.5, 20):
            x = float(x)
            try:
                want = f(x) + g(x)
            except DenominatorZero:
                continue
            if abs(want) > 1e-9:
                assert h(x) == pytest.approx(want, rel=1e-10)


# -- pole scanning ----------------------------------------------------------


def test_pole_scan_polynomial_has_no_sign_changes():
    report = pole_scan(RationalModel(numer=(1.0, 2.0, 3.0)), (0.0, 2.0), 100)
    assert report.count == 0
    assert report.min_abs_denominator == 1.0


def test_pole_scan_brackets_known_root():
    # denominator 1 - 1.03 x^12 vanishes at (1/1.03)^(1/12)
    m = RationalModel(numer=(0.0,), tail=Tail(12, -1.03))
    report = pole_scan(m, (0.0, 2.0), 1000)
    assert report.count == 1
    lo, hi, root = report.sign_changes[0]
    want = (1 / 1.03) ** (1 / 12)
    assert lo <= root <= hi
    assert root == pytest.approx(want, abs=1e-10)


def test_pole_scan_simple_root_refinement():
    m = RationalModel(numer=(1.0,), denom=(-1.0,))  # root at 1
    report = pole_scan(m, (0.0, 2.0), 101)
    assert report.count == 1
    assert report.sign_changes[0][2] == pytest.approx(1.0, abs=1e-10)


def test_pole_scan_root_on_grid_node():
    # 3-point scan of [0, 2] puts a sample exactly on the root at x = 1
    m = RationalModel(numer=(1.0,), denom=(-1.0,))
    report = pole_scan(m, (0.0, 2.0), 3)
    assert report.count == 1
    assert report.min_abs_denominator == 0.0


def test_pole_scan_brackets_are_ordered_and_disjoint():
    # denominator (1 - x/0.4)(1 - x/1.6) has roots at 0.4 and 1.6
    b1, b2 = -1 / 0.4 - 1 / 1.6, 1 / (0.4 * 1.6)
    m = RationalModel(numer=(1.0,), denom=(b1, b2))
    report = pole_scan(m, (0.0, 2.0), 500)
    assert report.count == 2
    (lo1, hi1, r1), (lo2, hi2, r2) = report.sign_changes
    assert hi1 <= lo2
    assert r1 == pytest.approx(0.4, abs=1e-9)
    assert r2 == pytest.approx(1.6, abs=1e-9)


def test_pole_scan_validates_arguments():
    m = RationalModel(numer=(1.0,))
    with pytest.raises(ValueError):
        pole_scan(m, (0.0, 2.0), 1)
    with pytest.raises(ValueError):
        pole_scan(m, (2.0, 2.0), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for interval in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (-1e308, 1e308)):
            with pytest.raises(ValueError):
                pole_scan(m, interval)


@pytest.mark.parametrize(
    "check, name",
    [
        (lambda a, b: uniform_grid(a, b, 4), "interval"),
        (lambda a, b: DerivativeGridSpec((a, b), 4), "interval"),
        (lambda a, b: pole_scan(RationalModel((1.0,), (0.5,)), (a, b)), "scan interval"),
    ],
)
@pytest.mark.parametrize(
    "a, b, message",
    [
        (1.0, 1.0, "must have positive length"),
        (2.0, 1.0, "must have positive length"),
        (0.0, math.nan, "must have positive length"),
        (0.0, math.inf, "must be finite, and so must its length"),
        (-1e308, 1e308, "must be finite, and so must its length"),
    ],
)
def test_interval_checks_give_one_message_each(check, name, a, b, message):
    # the grid, the smoothness grid and the pole scan share one interval check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            check(a, b)
    assert str(exc.value) == f"{name} {message}"


def test_pole_scan_rejects_negative_interval_for_fractional_power():
    m = RationalModel(numer=(1.0,), denom=(0.5,), x_power=0.5)
    with pytest.raises(NegativeAbscissa):
        pole_scan(m, (-1.0, 1.0))
    # integer powers are defined for negative x
    squared = RationalModel(numer=(1.0,), denom=(0.5,), x_power=2.0)
    assert pole_scan(squared, (-1.0, 1.0)).count == 0


def test_pole_scan_exact_zeros():
    # 1 - x vanishes exactly at x = 1, and the grid nodes of an interval a
    # few ulps wide round onto 1.0: one bracket per run of zero nodes among
    # nodes 0..points-2, plus one for a zero last node.
    m = RationalModel(numer=(1.0,), denom=(-1.0,))
    ulp = float(np.spacing(1.0))
    start = pole_scan(m, (1.0, 1.0 + 4 * ulp), 101)
    assert start.sign_changes == ((1.0, 1.0, 1.0),)
    end = pole_scan(m, (1.0 - 2 * ulp, 1.0), 101)
    assert end.sign_changes == ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    # the first bisection midpoint of [0, 2] is the root itself
    midpoint = pole_scan(m, (0.0, 2.0), 2)
    assert midpoint.sign_changes == ((1.0, 1.0, 1.0),)
    for report in (start, end, midpoint):
        assert report == oracle.pole_scan(m, report.scan_interval, report.scan_points)


SCAN_POINTS = (2, 3, 101, 1001, 4097)
#: Substitution exponents of the property tests, including the
#: extrapolation study's 0.65 and 0.85.
X_POWERS = (0.5, 0.65, 0.85, 1.0, 1.5, 2.0, 2.5, 3.0)


@settings(max_examples=150, deadline=None)
@given(
    denom=st.lists(st.floats(-8.0, 8.0), max_size=6),
    x_power=st.sampled_from(X_POWERS),
    lo=st.floats(0.0, 1.0),
    width=st.floats(0.01, 3.0),
    points=st.sampled_from(SCAN_POINTS),
)
def test_pole_scan_matches_per_interval_loop(denom, x_power, lo, width, points):
    model = RationalModel(numer=(1.0,), denom=tuple(denom), x_power=x_power)
    interval = (lo, lo + width)
    assert pole_scan(model, interval, points) == oracle.pole_scan(model, interval, points)


# one model's denominator: its coefficients, and a tail (power above the
# degree, coefficient) or none
DENOMINATOR = st.tuples(
    st.lists(st.floats(-8.0, 8.0), max_size=6),
    st.one_of(st.none(), st.tuples(st.integers(1, 3), st.floats(-8.0, 8.0))),
)


@settings(max_examples=100, deadline=None)
@given(
    denominators=st.lists(DENOMINATOR, min_size=1, max_size=5),
    x_power=st.sampled_from(X_POWERS),
    lo=st.floats(0.0, 1.0),
    width=st.floats(0.01, 3.0),
    points=st.sampled_from(SCAN_POINTS),
)
def test_pole_scans_of_mixed_degrees_match_single_scans(denominators, x_power, lo, width, points):
    models = [
        RationalModel(
            numer=(1.0,),
            denom=tuple(denom),
            tail=None if tail is None else Tail(len(denom) + tail[0], tail[1]),
            x_power=x_power,
        )
        for denom, tail in denominators
    ]
    interval = (lo, lo + width)
    reports = pole_scans(models, interval, points)
    wants = [oracle.pole_scan(model, interval, points) for model in models]
    # count first: it comes from the brackets, before any bisection
    assert [report.count for report in reports] == [want.count for want in wants]
    for model, report, want in zip(models, reports, wants):
        assert report == pole_scan(model, interval, points)
        assert report == want


# one denominator of a stack that mixes lengths: 0..6 coefficients with exact
# zeros among them, its top one set to exactly 0.0 (a fitted zero) or not,
# and a tail (Q zero between its degree and the tail power) or none
MIXED_DENOMINATOR = st.tuples(
    st.lists(st.one_of(st.just(0.0), st.floats(-8.0, 8.0)), max_size=6),
    st.booleans(),
    st.one_of(st.none(), st.tuples(st.integers(1, 4), st.one_of(st.just(0.0), st.floats(-8.0, 8.0)))),
)


@settings(max_examples=200, deadline=None)
@given(
    denominators=st.lists(MIXED_DENOMINATOR, min_size=1, max_size=6),
    negative=st.booleans(),
    root_zeros=st.one_of(st.none(), st.integers(0, 3)),
    k=st.integers(2, 9),
    data=st.data(),
)
def test_one_scan_of_mixed_lengths_gives_each_model_its_lone_scan(denominators, negative, root_zeros, k, data):
    # A stack's scan runs each Q only up to its last nonzero coefficient.  Each
    # model must keep the count, smallest |Q| and sign changes of its lone
    # scan, and the smallest |Q| of one Horner pass over the zero-padded stack.
    # Integer exponents on [-1, 1], fractional ones on [0, 1]; with 2**k + 1
    # points, x0 = -0.5 or 0.25 is a node where Q(t) = 1 - t / x0**q is
    # exactly 0 (every factor a power of two), padded with exact zeros on top.
    interval, powers, x0 = ((-1.0, 1.0), (1.0, 2.0, 3.0), -0.5) if negative else ((0.0, 1.0), (0.5, 0.75, 1.0, 2.0), 0.25)
    models = []
    for denom, zero_top, tail in denominators:
        denom = denom[:-1] + [0.0] if zero_top and denom else denom
        tail = None if tail is None else Tail(len(denom) + tail[0], tail[1])
        models.append(RationalModel((1.0,), tuple(denom), tail=tail, x_power=data.draw(st.sampled_from(powers))))
    if root_zeros is not None:
        q = data.draw(st.sampled_from(powers if negative else (0.5, 1.0, 2.0)))
        models.insert(data.draw(st.integers(0, len(models))), RationalModel((1.0,), (-1.0 / x0**q,) + (0.0,) * root_zeros, x_power=q))
    points = 2**k + 1
    reports = pole_scans(models, interval, points)
    c, exponents = _stack(models)
    padded = np.abs(_horner(c[:, 1], _substitutions(_scan_grid(*interval, points), exponents))).min(axis=1)
    hexes = lambda report: [tuple(map(float.hex, bracket)) for bracket in report.sign_changes]
    for model, report, low in zip(models, reports, padded.tolist()):
        lone = pole_scan(model, interval, points)
        assert report.count == lone.count
        assert report.min_abs_denominator.hex() == lone.min_abs_denominator.hex() == low.hex()
        assert hexes(report) == hexes(lone)
    if root_zeros is not None:
        assert min(report.min_abs_denominator for report in reports) == 0.0


def test_a_scan_runs_one_horner_per_denominator_length(monkeypatch):
    calls = []
    horner = rational._horner
    monkeypatch.setattr(rational, "_horner", lambda c, t: calls.append(c.shape) or horner(c, t))
    # Q of lengths 3 and 2 under a numerator of length 4; then one structure
    two = RationalModel((1.0, 0.0, 0.0, 1.0), (-2.3, 1.0))
    one = RationalModel((1.0, 2.0, 3.0, 4.0), (-1.0,))
    assert [r.count for r in pole_scans([one, two, one], (0.0, 2.0), 3)] == [1, 2, 1]
    assert sorted(calls) == [(2, 2), (3, 1)]
    calls.clear()
    assert [r.count for r in pole_scans([one, one], (0.0, 2.0), 3)] == [1, 1]
    assert calls == [(2, 2)]


def test_pole_scans_of_no_models_is_empty(scan_evaluations):
    assert pole_scans([], (0.0, 1.0)) == []
    assert scan_evaluations == []
    with pytest.raises(ValueError):
        pole_scans([], (1.0, 0.0))


@settings(max_examples=150, deadline=None)
@given(
    root=st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
    x_power=st.sampled_from((1.0, 2.0, 3.0)),
    where=st.sampled_from(("first", "last", "run_start", "run_end", "run_middle", "midpoint")),
    ulps=st.integers(1, 6),
    points=st.sampled_from(SCAN_POINTS),
)
def test_pole_scan_matches_per_interval_loop_on_zero_nodes(root, x_power, where, ulps, points):
    # Q(t) = 1 - t / root**x_power is exactly 0 at x = root: every factor
    # is a power of two.  Intervals a few ulps wide put runs of nodes on it;
    # on [0, 2 root] it is the middle node or the first bisection midpoint.
    model = RationalModel(numer=(1.0,), denom=(-(root**-x_power),), x_power=x_power)
    ulp = float(np.spacing(root))
    interval = {
        "first": (root, 1.5 * root),
        "last": (0.5 * root, root),
        "run_start": (root, root + ulps * ulp),
        "run_end": (root - ulps * ulp, root),
        "run_middle": (root - ulps * ulp, root + ulps * ulp),
        "midpoint": (0.0, 2.0 * root),
    }[where]
    want = oracle.pole_scan(model, interval, points)
    pair = pole_scans([model, model], interval, points)
    assert [report.count for report in pair] == [want.count] * 2
    assert pair == [want, want]
    new = pair[0]
    if where != "run_middle":
        assert root in new.sign_changes[0] or new.min_abs_denominator == 0.0


# finite coefficients, exact zeros among them; abscissae of any kind, the
# signed zeros, infinities and NaN often
COEFFICIENT = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
ABSCISSA = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(
    top=st.integers(1, 14),
    parts=st.sampled_from(((), (2,), (4,))),
    k=st.integers(1, 5),
    shared=st.booleans(),
    x_shape=st.sampled_from(((), (7,), (3, 5))),
    data=st.data(),
)
def test_horner_is_polyval_to_the_bit(top, parts, k, shared, x_shape, data):
    # (top, K), (top, 2, K) and (top, 4, K) stacks, at a shared or a
    # per-model row of scalar, 1-D or 2-D substituted abscissae.  _horner
    # skips a row that is zero across the stack, so rows, the constant one
    # included, are often zero in every polynomial, and constants often -0.0.
    c = data.draw(arrays(np.float64, (top,) + parts + (k,), elements=COEFFICIENT))
    c[data.draw(arrays(bool, top))] = 0.0
    c[0][data.draw(arrays(bool, parts + (k,)))] = -0.0
    t = data.draw(arrays(np.float64, (1 if shared else k,) + x_shape, elements=ABSCISSA))
    with np.errstate(all="ignore"):
        got, want = _horner(c, t), oracle.horner(c, t)
    assert got.shape == want.shape == parts + (k,) + x_shape
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("coefficients", [(0.0, 5.0), (-0.0, 0.0, 5.0)])
def test_horner_keeps_polyvals_signed_zeros(coefficients):
    # ascending; at t = -0.0 the value before the constant is -0.0 or +0.0, and
    # a +0.0 constant makes it +0.0 (so it is added though its row is zero)
    # where a -0.0 one keeps it (so a stack with one adds every row)
    c = np.array(coefficients)[:, None]
    t = np.array([[-0.0, 0.0, 1.0, -math.inf, math.nan]])
    with np.errstate(all="ignore"):
        assert _horner(c, t).tobytes() == oracle.horner(c, t).tobytes()


# a tail-form Q: 1, then up to 5 coefficients with exact zeros among them,
# then zeros up to a tail power of up to 14
SPARSE_Q = st.tuples(
    st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-8.0, 8.0)), max_size=5),
    st.one_of(st.none(), st.tuples(st.integers(1, 9), st.floats(-8.0, 8.0))),
)


@settings(max_examples=300, deadline=None)
@given(
    q=SPARSE_Q,
    x_power=st.sampled_from((0.5, 0.65, 1.0, 2.0, 3.0)),
    xs=st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e30, 1e30), st.sampled_from([0.0, -0.0])), min_size=1, max_size=8),
)
def test_scalar_denominator_is_horner_to_the_bit(q, x_power, xs):
    # pole bisection's scalar Q, which skips zero coefficients, against one
    # _horner pass of the same Q at the same x, x = 0 included
    denom, tail = q
    tail = None if tail is None else Tail(len(denom) + tail[0], tail[1])
    model = RationalModel((1.0,), tuple(denom), tail=tail, x_power=x_power)
    if not float(x_power).is_integer():
        xs = [abs(x) for x in xs]
    xs = [0.0] + xs
    c, exponents = _stack((model,))
    with np.errstate(all="ignore"):
        want = _horner(c[:, 1], _substitutions(np.array(xs), exponents))[0].tolist()
        value = rational._denominator(c[:, 1, 0], x_power)
        got = [value(x) for x in xs]
    assert list(map(float.hex, got)) == list(map(float.hex, want))


@pytest.mark.parametrize("x_power, root", [(0.65, 1.1875), (0.85, 1.1328125), (1.5, 1.04296875)])
def test_pole_bisection_substitutes_with_numpy_power(x_power, root):
    # Q(t) = 1 - t / c with c = root**x_power as numpy computes it is
    # exactly 0 at x = root, the first bisection midpoint of [0, 2 root].
    # At these roots Python's ** and math.pow are one ulp off numpy's power,
    # so a bisection substituting with them misses the exact zero.
    c = float(np.asarray(root) ** x_power)
    assert c != root**x_power
    model = RationalModel(numer=(1.0,), denom=(-1.0 / c,), x_power=x_power)
    report = pole_scan(model, (0.0, 2.0 * root), 2)
    assert report.sign_changes == ((root, root, root),)
    assert report == oracle.pole_scan(model, (0.0, 2.0 * root), 2)


# -- deferred bisection -----------------------------------------------------

# 1 - 2.3x + x^2 changes sign twice on a 3-point scan of [0, 2], 1 - x is
# exactly 0 on its middle node
DEFERRED = (
    RationalModel(numer=(0.0,), denom=(-2.3,), tail=Tail(2, 1.0)),
    RationalModel(numer=(1.0,), denom=(-1.0,)),
)


def test_scans_bisect_on_the_first_read_of_sign_changes(bisections):
    two, node = pole_scans(DEFERRED, (0.0, 2.0), 3)
    assert (two.count, node.count) == (2, 1)
    assert bisections == []
    assert len(two.sign_changes) == 2 and len(bisections) == 2  # one per sign change
    assert node.sign_changes == ((1.0, 1.0, 1.0),) and len(bisections) == 2  # an exact zero needs none
    assert two.sign_changes is two.sign_changes and len(bisections) == 2
    assert [two, node] == [oracle.pole_scan(m, (0.0, 2.0), 3) for m in DEFERRED]
    with pytest.raises(AttributeError, match="'PoleReport' object has no attribute 'roots'"):
        two.roots


def test_scans_evaluate_once_per_batch_on_the_first_read(scan_evaluations, bisections):
    two, node = pole_scans(DEFERRED, (0.0, 2.0), 3)
    assert scan_evaluations == []
    assert two.count == 2 and scan_evaluations == [((0.0, 2.0), 2)]
    # the batch's other member and the other fields read the same evaluation
    assert node.min_abs_denominator == 0.0 and node.count == 1
    assert two.min_abs_denominator == oracle.pole_scan(DEFERRED[0], (0.0, 2.0), 3).min_abs_denominator
    assert len(two.sign_changes) == 2 and node.sign_changes == ((1.0, 1.0, 1.0),)
    assert scan_evaluations == [((0.0, 2.0), 2)] and len(bisections) == 2
    # a second batch of the same models evaluates anew, on its own first read
    assert pole_scans(DEFERRED, (0.0, 2.0), 3)[1].min_abs_denominator == 0.0
    assert len(scan_evaluations) == 2


def test_scans_check_their_arguments_at_call_time(scan_evaluations):
    fractional = RationalModel(numer=(1.0,), denom=(0.5,), x_power=0.5)
    for interval, points in (((2.0, 2.0), 10), ((0.0, math.inf), 10), ((0.0, 2.0), 1)):
        with pytest.raises(ValueError):
            pole_scan(fractional, interval, points)
    with pytest.raises(NegativeAbscissa):  # the integer power alone would scan
        pole_scans([PEAK_LEFT, fractional], (-1.0, 1.0))
    assert scan_evaluations == []


REPORT_VIEWS = {
    "eq": lambda r: r,
    "hash": hash,
    "repr": repr,
    "replace": lambda r: replace(r, scan_points=7),
    "pickle": pickle.dumps,
    "unpickled": lambda r: vars(pickle.loads(pickle.dumps(r))),
    "deepcopy": lambda r: vars(copy.deepcopy(r)),
}


@pytest.mark.parametrize("view", REPORT_VIEWS)
def test_deferred_report_behaves_as_an_eager_one(view):
    # each view of a report whose roots no one has read yet
    show = REPORT_VIEWS[view]
    for model in DEFERRED:
        first = pole_scan(model, (0.0, 2.0), 3)
        eager = PoleReport(*(getattr(first, f.name) for f in fields(PoleReport)))
        assert show(pole_scan(model, (0.0, 2.0), 3)) == show(eager)


@pytest.mark.parametrize("view", REPORT_VIEWS)
def test_deferred_report_read_for_its_smallest_denominator_behaves_as_an_eager_one(view):
    # each view of a report whose first read was min_abs_denominator
    show = REPORT_VIEWS[view]
    for model in DEFERRED:
        first = pole_scan(model, (0.0, 2.0), 3)
        eager = PoleReport(*(getattr(first, f.name) for f in fields(PoleReport)))
        report = pole_scan(model, (0.0, 2.0), 3)
        assert report.min_abs_denominator == eager.min_abs_denominator
        assert show(report) == show(eager)


def test_overflowing_evaluation_is_a_typed_error():
    # R = (1 + 2x)/(1 + 0.5x) is about 4 at x = 1e308, where 2x overflows.
    # A non-finite x has no value.  Q*Q overflowing is no error: at 1e200 the
    # slope is 6e-400 by mpmath, 0.0 in floats, and 1/(1 + 1e200 x) has the
    # slopes -1e-200 and -2.5e-201 at 1 and 2.
    m = RationalModel((1.0, 2.0), (0.5,))
    errstate = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, [2.0, 1e308]):
            with pytest.raises(EvaluationOverflow, match="out of float range"):
                m(x)
        for model, x in ((m, 1e200), (m, np.array([1e200])), (RationalModel((1.0,), (1e200,)), np.array([1.0, 2.0]))):
            want = [float(v) for v in oracle.slopes(model, x)]
            assert np.atleast_1d(model.derivative(x)).tolist() == want
        assert want == [-1e-200, -2.5e-201]
        # where Q itself overflows, P'/Q would come out 0: the slope near 1e-8
        # of 1e300 x**2 / (1 + 1e308 x) at 10 is out of reach
        with pytest.raises(EvaluationOverflow, match="out of float range"):
            RationalModel((0.0, 0.0, 1e300), (1e308,)).derivative(10.0)
        for x in (math.inf, -math.inf, math.nan):
            for call in (m, m.derivative):
                with pytest.raises(EvaluationOverflow):
                    call(x)
        # a NaN beside a zero of Q: the non-finite slope is checked first
        pole = RationalModel((1.0,), (-1.0,))
        for call in (pole, pole.derivative):
            with pytest.raises(EvaluationOverflow, match="out of float range"):
                call(np.array([math.nan, 1.0]))
        assert m(1e300) == pytest.approx(4.0, rel=1e-15)
        assert (m(2.0), m.derivative(2.0)) == (2.5, 0.375)
        # P and Q are finite next to the pole of 1e300 / (1 - x), their quotient is not
        with pytest.raises(EvaluationOverflow, match=r"R\(x\) is out of float range"):
            RationalModel((1e300,), (-1.0,))(1.0 - 1e-10)
    assert np.geterr() == errstate



def test_overflowing_p_or_q_is_a_typed_error():
    # P = 1 + 2x overflows at x = 1e308 while Q = 1 + 0.5x does not; a
    # non-finite x has no P or Q either; either is checked before a zero of Q
    m = RationalModel((1.0, 2.0), (0.5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, [2.0, 1e308], np.array([[1e308]]), math.inf, -math.inf, math.nan, [2.0, math.nan]):
            with pytest.raises(EvaluationOverflow, match=r"P\(t\) and Q\(t\) are out of float range"):
                m(x)
        with pytest.raises(EvaluationOverflow, match=r"P\(t\) and Q\(t\)"):
            RationalModel((0.0, 2.0), (-1.0,))([1.0, 1e308])
        assert m(2.0) == 5.0 / 2.0
        assert m(1e300) == (2e300 + 1.0) / (5e299 + 1.0)


def test_pole_scan_of_huge_values_decides_sign_changes_by_sign():
    # Q values near 1e300 on either side of a root: their product overflows
    # but their signs bracket the root, and bisection stops at adjacent
    # floats, which lie farther apart than POLE_REFINE_TOL there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pole_scan(RationalModel((1.0, 2.0), (0.5,)), (0.0, 1e308))
        assert (report.count, report.min_abs_denominator) == (0, 1.0)
        report = pole_scan(RationalModel((1.0,), (1.0, -3e-301)), (0.0, 1e303))
        assert report.count == 1
        ((lo, hi, root),) = report.sign_changes
        assert lo < hi == np.nextafter(lo, math.inf) and root == pytest.approx(1.0 / 3e-301, rel=1e-15)
        ((lo, hi, root),) = pole_scan(RationalModel((1.0,), (-3e-9,)), (0.0, 1e9)).sign_changes
        assert hi == np.nextafter(lo, math.inf) and root == pytest.approx(1.0 / 3e-9, rel=1e-15)


def test_pole_scan_of_a_substitution_past_the_float_range_is_a_typed_error(scan_evaluations):
    # Q = 1 - x**2 changes sign at x = 1, but x**2 overflows at 1e200: the
    # call raises, before any evaluation, instead of counting no pole; a
    # numpy exponent, whose ** would overflow to inf, raises too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in [RationalModel((1.0,), (-1.0,), x_power=q) for q in (2.0, np.float64(2.0))]:
            for interval in ((0.0, 1e200), (-1e200, 0.0)):
                with pytest.raises(EvaluationOverflow, match="out of float range"):
                    pole_scan(model, interval)
            assert pole_scan(model, (0.0, 1e150)).count == 1
    assert scan_evaluations == [((0.0, 1e150), 1)] * 2


def test_pole_scan_counts_overflowing_denominators_by_their_sign():
    # Q = 1 + 1e300 (t - t**2 + t**3) overflows to +-inf on [0, 1e10] with t
    # finite: the infinite values keep their sign, and Q > 0 there
    model = RationalModel((1.0,), (1e300, -1e300, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pole_scan(model, (0.0, 1e10))
        assert (report.count, report.min_abs_denominator, report.sign_changes) == (0, 1.0, ())
        flipped = pole_scan(RationalModel((1.0,), (1e300, -1e300, -1e300)), (0.0, 1e10))
        assert flipped.count == 1 and 0.0 < flipped.sign_changes[0][2] < 1e10


def test_scan_keeps_a_sign_change_whose_product_underflows():
    # Q(t) = 1e-170 (1 - t) changes sign between nodes 2/3 and 4/3 of the
    # grid, where |Q| is about 3e-171 and the product of the two values
    # underflows to -0.0.  A model's own Q cannot get that close to 0 off a
    # root (its constant is 1), so the stack is built by hand.
    c = np.zeros((2, 2, 1))
    c[:, 1, 0] = (1e-170, -1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        brackets, lows = _scan(c, [1.0], 0.0, 2.0, 4)
    ((lo, hi, vlo),) = brackets[0]
    assert (lo, hi) == (2.0 / 3.0, 4.0 / 3.0) and vlo == pytest.approx(1e-170 / 3.0, rel=1e-15)
    assert lows == [pytest.approx(1e-170 / 3.0, rel=1e-15)]

# -- serialization ----------------------------------------------------------


def test_dict_round_trip_is_coefficient_identical():
    m = RationalModel(
        numer=(0.0, 1.2345678901234567, -0.5),
        denom=(0.1, 0.0, 0.3),
        tail=Tail(5, -0.25),
        x_power=0.6,
        zero_powers=frozenset({0}),
    )
    back = RationalModel.from_dict(m.to_dict())
    assert back.numer == m.numer
    assert back.denom == m.denom
    assert back.tail == m.tail
    assert back.x_power == m.x_power
    assert back.zero_powers == m.zero_powers


def test_json_round_trip_through_text():
    m = RationalModel(numer=(1 / 3, 2 / 7), denom=(-1 / 9,))
    text = json.dumps(m.to_dict(), indent=2)
    back = RationalModel.from_dict(json.loads(text))
    assert back.numer == m.numer
    assert back.denom == m.denom


@pytest.mark.parametrize(
    "change",
    [
        {"numer": "35"},
        {"numer": [1.0, "2"]},
        {"numer": [True, 1.0]},
        {"denom": "1"},
        {"denom": {"1": 0.5}},
        {"x_power": "0.5"},
        {"tail": {"power": 2.9, "coeff": 0.5}},
        {"numer": [1.0], "denom": [], "tail": {"power": True, "coeff": 0.5}},
        {"tail": {"power": 3, "coeff": "0.5"}},
        {"zero_powers": [0.5]},
        {"zero_powers": "0"},
    ],
)
def test_from_dict_rejects_malformed_fields(change):
    rec = RationalModel((0.0, 1.0), (0.5,)).to_dict() | change
    with pytest.raises(ValueError):
        RationalModel.from_dict(rec)


@settings(max_examples=50)
@given(
    numer=st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=5
    ),
    denom=st.lists(
        st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False), max_size=4
    ),
    tail=st.one_of(st.none(), st.tuples(st.integers(6, 9), st.floats(-2, 2, allow_nan=False))),
    x_power=st.sampled_from([1, 1.0, 0.5, 2.0]),
    zero_mask=st.booleans(),
)
def test_serialization_round_trip_property(numer, denom, tail, x_power, zero_mask):
    if zero_mask:
        numer[0] = 0.0
    m = RationalModel(
        numer=tuple(numer),
        denom=tuple(denom),
        tail=None if tail is None else Tail(*tail),
        x_power=x_power,
        zero_powers=frozenset({0} if zero_mask else ()),
    )
    assert RationalModel.from_dict(m.to_dict()) == m
    assert RationalModel.from_dict(json.loads(json.dumps(m.to_dict(), indent=2))) == m


def test_scan_grid_is_built_once_and_read_only():
    from padefit.rational import _scan_grid

    grid = _scan_grid(0.0, 2.0, 101)
    assert grid is _scan_grid(0.0, 2.0, 101)
    np.testing.assert_array_equal(grid, np.linspace(0.0, 2.0, 101))
    with pytest.raises(ValueError):
        grid[0] = 1.0
