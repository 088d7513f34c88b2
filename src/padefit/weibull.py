"""Weibull reliability toolkit: plotting positions, parameter fits, MTTF.

The two-parameter Weibull CDF used throughout is

    W(x) = 1 - exp(-(x / theta)**shape),    x >= 0,

with scale theta > 0 and shape > 0.  Failure-time samples are paired with
median-rank plotting positions to form empirical CDF points, which can be
fitted either in the classical log-log coordinates or by any of the
rational-model routes in the fitting module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateAbscissae,
    EmptyInput,
    LengthMismatch,
    NoBracket,
    NonconvergentQuadrature,
    NonconvergentTail,
    PoleOnRange,
    SingularSystem,
)
from .rational import RationalModel, _bisect, _horner, _scan_grid, _stack, _substitutions, pole_scan, require_count

#: Bisection bracket for the MLE shape parameter.
SHAPE_BRACKET = (0.01, 100.0)

#: Absolute tolerance on the MLE shape bisection.
SHAPE_TOL = 1e-10

#: A model CDF must come within this of 1 for the MTTF integral to close.
TAIL_EPS = 1e-6

#: A cutoff at x_max where |1 - R| >= TAIL_EPS still needs 1 - R within
#: this relative distance of its leading power law there.
TAIL_MATCH = 0.1

#: Bound on the MTTF quadrature's error estimate, relative to the integral.
QUAD_TOL = 1e-8

#: Rounds of panel halving the MTTF quadrature may make.
QUAD_ROUNDS = 6

#: Nodes of the MTTF pole scan over [0, x_max]; past 0 they are the candidate cutoffs.
MTTF_SCAN_POINTS = 4097


@dataclass(frozen=True)
class WeibullParams:
    """Scale and shape of a two-parameter Weibull distribution."""

    theta: float
    shape: float

    def __post_init__(self):
        if not (self.theta > 0 and self.shape > 0):
            raise ValueError("theta and shape must be positive")
        if not (math.isfinite(self.theta) and math.isfinite(self.shape)):
            raise ValueError("theta and shape must be finite")


def weibull_cdf(params: WeibullParams, x):
    """W(x) = 1 - exp(-(x/theta)**shape), clamped to 0 for x < 0."""
    xs = np.asarray(x, dtype=float)
    out = np.where(xs > 0.0, -np.expm1(-((np.maximum(xs, 0.0) / params.theta) ** params.shape)), 0.0)
    return out if np.ndim(x) else float(out)


def weibull_pdf(params: WeibullParams, x):
    """Density of the two-parameter Weibull, 0 for x <= 0."""
    xs = np.asarray(x, dtype=float)
    t = np.maximum(xs, 0.0) / params.theta
    k = params.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(xs > 0.0, (k / params.theta) * t ** (k - 1.0) * np.exp(-(t**k)), 0.0)
    return out if np.ndim(x) else float(out)


def median_ranks(m: int, a: float = 0.3) -> np.ndarray:
    """Plotting positions (k - a) / (m + 1 - 2a) for k = 1..m.

    a = 0.3 gives the usual median-rank approximation; a = 0.5 gives
    Hazen positions, a = 0 the expected ranks k/(m + 1).  Positions are
    strictly increasing and symmetric: F_k + F_{m+1-k} = 1.  Raises
    EmptyInput for an integer m < 1, ValueError for any other bad m or a.
    """
    require_count(m, 1, "need at least one rank", EmptyInput)
    if not (0.0 <= a <= 0.5):
        raise ValueError("a must lie in [0, 0.5]")
    k = np.arange(1, m + 1, dtype=float)
    return (k - a) / (m + 1.0 - 2.0 * a)


def transform_fit(times: np.ndarray, ranks: np.ndarray) -> WeibullParams:
    """Fit by simple regression in log-log coordinates.

    Taking logarithms of the CDF twice turns it into a straight line:

        ln(ln(1 / (1 - F))) = shape * ln(x) - shape * ln(theta),

    so the slope of the regression line is the shape and the intercept
    recovers the scale.  Exact for data generated from a Weibull CDF.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(ranks, dtype=float)
    if t.shape != f.shape:
        raise LengthMismatch(f"shape {t.shape} vs {f.shape}")
    if t.size < 2:
        raise EmptyInput("need at least two points")
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError("times must be positive and finite")
    if not np.all((f > 0.0) & (f < 1.0)):
        raise ValueError("ranks must lie strictly inside (0, 1)")
    if np.all(t == t[0]):
        raise DegenerateAbscissae("all times equal")
    z = np.log(t)
    y = np.log(np.log(1.0 / (1.0 - f)))
    zbar = float(np.mean(z))
    ybar = float(np.mean(y))
    slope = float(np.dot(z - zbar, y - ybar) / np.dot(z - zbar, z - zbar))
    intercept = ybar - slope * zbar
    try:
        theta = math.exp(-intercept / slope)
    except (OverflowError, ZeroDivisionError):
        raise SingularSystem(f"the fitted Weibull scale leaves the float range (shape {slope:g})") from None
    return WeibullParams(theta=theta, shape=slope)


def mle_fit(times: np.ndarray) -> WeibullParams:
    """Maximum likelihood fit of (theta, shape) to raw failure times.

    The shape solves the profile likelihood equation

        sum(x**k ln x) / sum(x**k) - 1/k - mean(ln x) = 0,

    found by bisection on SHAPE_BRACKET to SHAPE_TOL; the scale then
    follows in closed form as theta = (mean(x**k))**(1/k).  Times are
    pre-scaled by their maximum for overflow safety; the profile equation
    is exactly scale-invariant, so this does not move the root.
    """
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise EmptyInput("need at least two times")
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError("times must be positive and finite")
    scale = float(np.max(t))
    u = t / scale
    if not np.min(u) > 0.0:
        raise NoBracket(f"times span more than the float range ({np.min(t):g} to {scale:g})")
    log_u = np.log(u)
    mean_log = float(np.mean(log_u))

    def profile(k: float) -> float:
        w = u**k
        return float(np.dot(w, log_u) / np.add.reduce(w)) - 1.0 / k - mean_log  # np.sum's bits, without its wrapper

    lo, hi = SHAPE_BRACKET
    flo, fhi = profile(lo), profile(hi)
    if flo == 0.0:
        shape = lo
    elif fhi == 0.0:
        shape = hi
    elif flo * fhi > 0.0:
        raise NoBracket(f"profile equation has no sign change on {SHAPE_BRACKET}")
    else:
        lo, hi = _bisect(profile, lo, hi, flo, SHAPE_TOL)
        shape = 0.5 * (lo + hi)
    theta = scale * float(np.mean(u**shape)) ** (1.0 / shape)
    return WeibullParams(theta=theta, shape=shape)


def _graded_gauss(fn, b: float) -> float:
    """Integral of fn over [0, b] by the 20-point Gauss-Legendre rule on
    panels that start with [0, 1e-12] and grow by the ratio 1.5 up to b,
    so a kink at 0 or a rise far below b gets panels of its own size.  The
    10-point rule on the same panels estimates the error from above; while
    that estimate exceeds QUAD_TOL times the integral of |fn|, every panel
    is halved.  `fn` takes the array of all nodes of a round.  Raises
    NonconvergentQuadrature on a non-finite integrand value and when the
    estimate is still off after QUAD_ROUNDS halvings (Davis & Rabinowitz,
    "Methods of Numerical Integration", 1984).
    """
    first, ratio = 1e-12, 1.5
    # The panel count is taken in logs: b / first overflows for b near 1e300.
    k = max(0, math.ceil((math.log(b) - math.log(first)) / math.log(ratio)))
    edges = np.concatenate(([0.0], np.geomspace(min(first, b), b, k + 1)))
    (x20, w20), (x10, w10) = _gauss_rules()
    for _ in range(QUAD_ROUNDS + 1):
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        x = mid[:, None] + half[:, None] * np.concatenate((x20, x10))
        f = fn(x)
        if not np.all(np.isfinite(f)):
            i = np.argmin(np.isfinite(f))
            raise NonconvergentQuadrature(f"integrand is {f.flat[i]} at x = {x.flat[i]:g}")
        fine = half * (f[:, :20] @ w20)
        if np.sum(np.abs(fine - half * (f[:, 20:] @ w10))) <= QUAD_TOL * (half @ (np.abs(f[:, :20]) @ w20)):
            return float(np.sum(fine))
        edges = np.insert(edges, np.arange(1, edges.size), mid)
    raise NonconvergentQuadrature(f"no convergence on [0, {b:g}] after {QUAD_ROUNDS} panel halvings")


@lru_cache(maxsize=1)  # leggauss takes about 0.7 ms a call
def _gauss_rules():
    from numpy.polynomial.legendre import leggauss  # not at import: numpy.polynomial costs a cold start ~4 ms
    return leggauss(20), leggauss(10)


def _tail_power_law(model: RationalModel) -> tuple[float, float]:
    """(c, k) with 1 - R ~ c * x**-k for large x, where R(0) = 0 keeps 1 - R off 0.

    With the shared tail coefficient, the numerator of 1 - R loses its top
    power exactly, so 1 - R decays like (c_n / c_d) * x**(dn - dd) in the
    substituted coordinate.
    """
    p, q = model._rows
    diff = q - p
    dn = int(np.max(np.nonzero(diff)[0]))
    dd = int(np.max(np.nonzero(q)[0]))
    return diff[dn] / q[dd], model.x_power * (dd - dn)


# Far enough out both polynomials overflow and R = P / Q is inf/inf: the
# cutoff search passes over that NaN and the quadrature turns it into
# NonconvergentQuadrature, so the warnings are noise.  R is therefore taken
# from the stacked evaluation of P and Q: the model would raise
# EvaluationOverflow.
@np.errstate(over="ignore", invalid="ignore")
def mttf(obj: WeibullParams | RationalModel, *, x_max: float | None = None) -> float:
    """Mean time to failure of a CDF.

    For Weibull parameters this is the closed form theta * Gamma(1 + 1/shape)
    (stdlib Gamma; accurate to better than 1e-10 relative over the arguments
    that arise here).  For a rational CDF model it is the integral of
    1 - R(x) from 0, carried out by graded Gauss-Legendre quadrature up to
    the point past which |1 - R| stays below TAIL_EPS, plus the closed-form
    value of the remaining leading-order tail.  The cutoff must sit in the
    decayed regime: a model that overshoots 1 crosses 1 - R = 0 transiently
    long before the leading power dominates, and cutting there would
    evaluate the tail formula far outside its range of validity.  `x_max`
    caps the cutoff search; pass about 50 times the largest data abscissa.

    Raises
    ------
    PoleOnRange
        If the model denominator changes sign inside the integration range.
    EvaluationOverflow
        If x_max**x_power is out of float range (see pole_scan).
    NonconvergentTail
        If 1 - R decays too slowly for a finite integral, or is still at
        least TAIL_EPS at x_max without following its leading power law
        there (to within TAIL_MATCH); or if the Weibull mean overflows.
    NonconvergentQuadrature
        If R is not finite below the cutoff (it overflows for a huge
        x_max), or the quadrature's error estimate stays above QUAD_TOL
        through QUAD_ROUNDS panel halvings (see _graded_gauss).
    """
    if isinstance(obj, WeibullParams):
        try:
            mean = obj.theta * math.gamma(1.0 + 1.0 / obj.shape)
        except OverflowError:
            mean = math.inf
        if mean < math.inf:
            return mean
        raise NonconvergentTail(f"the Weibull mean does not fit in a float (theta {obj.theta:g}, shape {obj.shape:g})")
    model = obj
    if x_max is None or not (x_max > 0):
        raise ValueError("rational MTTF needs a positive x_max search cap")
    if abs(model.numer[0]) > 1e-12:  # R(0) = P(0) / Q(0) = numer[0] / 1, bit for bit
        raise ValueError("model CDF must start at R(0) = 0")
    if model.tail is None:
        raise ValueError("model CDF must carry a tail term so R -> 1 at infinity")
    scan = pole_scan(model, (0.0, x_max), MTTF_SCAN_POINTS)
    if scan.count:
        raise PoleOnRange(f"denominator changes sign at x ~ {scan.sign_changes[0][2]:.6g}")
    stack, exponents = _stack((model,))
    ratio = lambda x: np.divide(*_horner(stack, _substitutions(x, exponents))[:, 0])
    xs = _scan_grid(0.0, float(x_max), MTTF_SCAN_POINTS)[1:]
    shortfall = 1.0 - ratio(xs)
    loud = np.nonzero(np.abs(shortfall) >= TAIL_EPS)[0]
    c, k = _tail_power_law(model)
    if loud.size == 0:
        x_cut = float(xs[0])
    elif loud[-1] == xs.size - 1:
        # The cutoff falls on x_max itself: the tail formula holds there only
        # if 1 - R already follows its leading power law.
        x_cut = float(xs[-1])
        if not abs(c * np.float64(x_cut) ** -k - shortfall[-1]) <= TAIL_MATCH * abs(shortfall[-1]):
            raise NonconvergentTail(f"1 - R has not reached its leading-order decay by x_max = {x_max:g}")
    else:
        x_cut = float(xs[loud[-1] + 1])

    # The remaining integral of 1 - R past x_cut, in closed form from its
    # leading power law: c * x_cut**(1 - k) / (k - 1), finite only for k > 1.
    expo = k - 1.0
    if expo <= 0.0:
        raise NonconvergentTail(f"1 - R decays like x**{-k:g}, integral diverges")
    tail = float(c * x_cut ** (-expo) / expo)
    return _graded_gauss(lambda x: 1.0 - ratio(x), x_cut) + tail
