"""Reference implementations the tests compare the library against.

The least-squares oracle solves the normal equations
(G'G + diag ridge) theta = G'F by LU in mpmath at the working precision of
the caller (mpmath.workdps), so squaring the condition number costs it
nothing at 50 digits and more.  The pole-scan oracle is the plain
per-interval loop that padefit.rational.pole_scan vectorizes; the report
oracle recomputes a fit report's fields for one model, from numpy's polyval
and the public single-model API, as padefit.fitting._fit does for a whole
batch at once; and the search, sweep, tuning and substitution oracles are
the per-candidate, per-penalty and per-exponent loops of single fits that
padefit.selection runs as batches; the stacked Horner oracle is numpy's
polyval model by model.  The slope and RMS oracles work in mpmath.  The MTTF
oracle integrates 1 - R in mpmath to the cutoff padefit.weibull.mttf
chooses and adds the same closed-form tail.  The maximum-likelihood oracle
is padefit.weibull.mle_fit's profile equation bisected by a loop of its own.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly

from padefit import (
    Candidate,
    DerivativeGridSpec,
    FitConfig,
    RationalModel,
    SweepRow,
    fitting,
    oscillation_measure,
    rmse,
)
from padefit.errors import NegativeAbscissa, NoBracket, NoFeasibleModel, PadefitError
from padefit.rational import DENOM_TOL, POLE_REFINE_TOL, PoleReport
from padefit.weibull import SHAPE_BRACKET, SHAPE_TOL, TAIL_EPS, WeibullParams


def design(x, f, columns):
    """The design matrix of padefit.linsys.design_matrix, built in mpmath
    from the exact binary values of x and f."""
    rows = []
    for xk, fk in zip(x, f):
        xk, fk = mp.mpf(float(xk)), mp.mpf(float(fk))
        row = []
        for kind, power in columns:
            xp = xk**power
            row.append(xp if kind == "numer" else (-fk * xp if kind == "denom" else (1 - fk) * xp))
        rows.append(row)
    return mp.matrix(rows)


def solve(g, f, ridge=None):
    """theta minimizing ||G theta - F||^2 + sum ridge_c theta_c^2, as a list of mpf."""
    g = g if isinstance(g, mp.matrix) else mp.matrix([[float(v) for v in row] for row in g])
    rhs = mp.matrix([mp.mpf(float(v)) for v in f])
    a = g.T * g
    if ridge is not None:
        for c, lam in enumerate(ridge):
            a[c, c] += mp.mpf(float(lam))
    theta = mp.lu_solve(a, g.T * rhs)
    return [theta[c] for c in range(theta.rows)]


def model_values(theta, columns, x):
    """R = P/Q at each x for the coefficients theta on the given columns;
    the denominator constant is 1 and a tail coefficient enters both parts."""
    out = []
    for xk in x:
        xk = mp.mpf(float(xk))
        p, q = mp.mpf(0), mp.mpf(1)
        for value, (kind, power) in zip(theta, columns):
            term = value * xk**power
            if kind != "denom":
                p += term
            if kind != "numer":
                q += term
        out.append(p / q)
    return out


def slopes(model, x, dps=1000):
    """dR/dx of `model` at each float of x, by the quotient and chain rules
    in mpmath at `dps` digits from the exact binary coefficients: enough
    that P'Q - PQ' keeps its digits where its terms near 1e400 cancel."""
    p, q = ([mp.mpf(float(c)) for c in row] for row in model._rows)
    dp, dq = ([k * c for k, c in enumerate(row)][1:] or [mp.mpf(0)] for row in (p, q))
    out = []
    with mp.workdps(dps):
        power = mp.mpf(model.x_power)
        for xk in np.atleast_1d(x):
            xk = mp.mpf(float(xk))
            t = xk**power
            value, den, dvalue, dden = (mp.polyval(c[::-1], t) for c in (p, q, dp, dq))
            out.append((dvalue * den - value * dden) / den**2 * power * xk ** (power - 1))
    return out


def rms(values, dps=50):
    """The root mean square of `values` (floats or mpf) in mpmath at `dps`
    digits, rounded once to a float."""
    with mp.workdps(dps):
        return float(mp.sqrt(mp.fsum(mp.mpf(v) ** 2 for v in values) / len(values)))


def horner(c, t):
    """padefit.rational._horner as one npoly.polyval per model: column k of
    the (top, ..., K) coefficient stack c at row k of t, or at its only row
    when t is shared."""
    rows = [npoly.polyval(t[k if len(t) > 1 else 0], c[..., k]) for k in range(c.shape[-1])]
    return np.stack(rows, axis=c.ndim - 2)


def pole_scan(model, interval, points=1001):
    """padefit.rational.pole_scan as one Python loop over the grid intervals."""
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise ValueError("scan interval must have positive length")
    if points < 2:
        raise ValueError("need at least two scan points")
    if a < 0.0 and not float(model.x_power).is_integer():
        raise NegativeAbscissa("non-integer x_power needs x >= 0")
    q = model._rows[1]

    def den(x):
        return npoly.polyval(np.asarray(x, dtype=float) ** model.x_power, q)

    xs = np.linspace(a, b, points)
    vals = den(xs)
    min_abs = float(np.min(np.abs(vals)))
    changes = []
    for i in range(points - 1):
        lo, hi = xs[i], xs[i + 1]
        vlo, vhi = vals[i], vals[i + 1]
        if vlo == 0.0:
            if i == 0 or vals[i - 1] != 0.0:
                changes.append((float(lo), float(lo), float(lo)))
            continue
        if vlo * vhi < 0.0:
            while hi - lo > POLE_REFINE_TOL:
                mid = 0.5 * (lo + hi)
                vmid = den(mid)
                if vmid == 0.0:
                    lo = hi = mid
                    break
                if vlo * vmid < 0.0:
                    hi = mid
                else:
                    lo, vlo = mid, vmid
            changes.append((float(lo), float(hi), float(0.5 * (lo + hi))))
    if vals[-1] == 0.0:
        changes.append((float(xs[-1]), float(xs[-1]), float(xs[-1])))
    return PoleReport(
        scan_interval=(a, b),
        scan_points=points,
        min_abs_denominator=min_abs,
        sign_changes=tuple(changes),
    )


def report(model, data, der_grid=None):
    """Every field of the FitReport that padefit.fitting._fit gives `model`
    on `data`, except the solve's diagnostics, as a dict: one model at a
    time, on a model rebuilt from its fields, with P and Q from np.polyval
    at t = x**x_power and the rest from the public single-model API.
    Raises the PadefitError that ends such a fit."""
    model = RationalModel(model.numer, model.denom, model.tail, model.x_power, model.zero_powers)
    num, den = (np.polyval(row[::-1], data.x**model.x_power) for row in model._rows)
    rho = num - data.f * den
    lowest = float(np.min(np.abs(den)))
    truth = None if data.underlying is None else np.asarray(data.underlying(data.x), dtype=float)
    d1 = None if truth is None else math.inf
    s = d = math.inf
    if lowest > DENOM_TOL:
        r = num / den
        s = float(np.dot(r - data.f, r - data.f))
        d = math.sqrt(s / len(data))
        d1 = None if truth is None else rmse(r, truth)
    lo, hi = data.interval()
    return {
        "s": s,
        "s0": float(np.dot(rho, rho)),
        "d": d,
        "d0": None if truth is None else rmse(data.f, truth),
        "d1": d1,
        "d_der": None if der_grid is None else oscillation_measure(model, der_grid),
        "poles": pole_scan(model, (lo, hi)) if hi > lo else PoleReport((lo, hi), 0, lowest, ()),
        "denominator_vanishes": lowest <= DENOM_TOL,
    }


def fit(data, config, der_grid=None):
    """fit_regularized (fit_linearized without a grid) of `config` alone, as
    a one-member batch: the public fits may hand back the report of the batch
    that the code under test has just run, so an oracle built on them would
    compare that report with itself."""
    (result,) = fitting._fit(data, [config], der_grid)
    if isinstance(result, PadefitError):
        raise result
    return result


def q_search(data, config, q_grid):
    """padefit.q_search from one lone fit per exponent."""
    best = None
    for q in q_grid:
        try:
            report = fit(data, replace(config, x_power=float(q)))
        except PadefitError:
            continue
        if best is None or report.s < best[1].s:
            best = (float(q), report)
    if best is None:
        raise NoFeasibleModel("every substitution exponent failed")
    return best


def grid_search(data, space, lam=0.0, lam1=0.0, zero_powers=frozenset()):
    """padefit.grid_search's candidate rows from one lone fit per
    structure."""
    rows = []
    for q in space.q_grid:
        for n in range(space.n_range[0], space.n_range[1] + 1):
            for m in range(space.m_range[0], space.m_range[1] + 1):
                for l in space.l_candidates if space.l_candidates is not None else (None,):
                    attempt = (n, m, l, q)
                    try:
                        cfg = FitConfig(n, m, l, q, lam, lam1, zero_powers)
                    except ValueError as exc:
                        rows.append(Candidate(attempt, None, None, str(exc)))
                        continue
                    try:
                        report = fit(data, cfg)
                    except PadefitError as exc:
                        rows.append(Candidate(attempt, cfg, None, str(exc)))
                        continue
                    rows.append(Candidate(attempt, cfg, report, None))
    return rows


def sweep_rows(data, config, grid, der_interval=None, der_points=40):
    """padefit.lambda_sweep's rows from one lone fit per penalty,
    each counted by a fresh pole scan over the derivative interval."""
    interval = der_interval if der_interval is not None else data.interval()
    der_grid = DerivativeGridSpec(interval, der_points)
    rows = []
    for lam in grid:
        try:
            report = fit(data, replace(config, lam=lam), der_grid)
            count = pole_scan(report.model, interval).count
        except PadefitError as exc:
            rows.append(SweepRow(lam, math.nan, math.nan, 0, str(exc)))
            continue
        rows.append(SweepRow(lam, report.d, report.d_der, count, report=report))
    return tuple(rows)


def tune_lambda1(data, config, baseline, der_grid):
    """padefit.tune_lambda1 from one lone fit per penalty, each
    counted by a fresh pole scan over the derivative grid's interval."""
    grid = [1.0 - 0.1 * i for i in range(10)] + [0.0]

    def best_of(lam1s, best):
        for lam1 in lam1s:
            try:
                report = fit(data, replace(config, lam1=lam1), der_grid)
                count = pole_scan(report.model, der_grid.interval).count
            except PadefitError:
                continue
            ok = count == 0 and abs(report.d_der - baseline) <= 0.10 * baseline
            if ok and (best is None or report.s < best[1].s):
                best = (lam1, report)
        return best

    best = best_of(grid, None)
    if best is None:
        raise NoFeasibleModel("no admissible denominator penalty in the coarse grid")
    lo = max(0.0, best[0] - 0.05)
    hi = min(max(grid), best[0] + 0.05)
    return best_of([lo + 0.01 * i for i in range(int(round((hi - lo) / 0.01)) + 1)], best)


def mttf(model, x_max, dps=35):
    """padefit.weibull.mttf of a rational CDF model: tanh-sinh quadrature of
    1 - R at `dps` digits from 0 to the same cutoff, split at the powers
    of ten, plus the tail integral of the leading power law of 1 - R."""
    xs = np.linspace(0.0, x_max, 4097)[1:]
    loud = np.flatnonzero(np.abs(1.0 - model(xs)) >= TAIL_EPS)
    x_cut = float(xs[0] if loud.size == 0 else xs[min(loud[-1] + 1, xs.size - 1)])
    p, q = ([mp.mpf(float(c)) for c in a] for a in model._rows[:2])
    with mp.workdps(dps):
        power = mp.mpf(model.x_power)
        cut = mp.mpf(x_cut)

        def shortfall(x):
            t = x**power
            return 1 - mp.polyval(p[::-1], t) / mp.polyval(q[::-1], t)

        decades = [mp.mpf(10) ** k for k in range(-12, math.ceil(math.log10(x_cut)))]
        body = mp.quad(shortfall, [0, *decades, cut])
        diff = [b - a for a, b in zip(p, q)]
        if not any(diff):
            return float(body)
        dn = max(i for i, d in enumerate(diff) if d)
        dd = max(i for i, c in enumerate(q) if c)
        k = power * (dd - dn)
        return float(body + diff[dn] / q[dd] * cut ** (1 - k) / (k - 1))


def mle_fit(times):
    """padefit.weibull.mle_fit for positive finite times, bisecting on the
    sign of the product f(lo) * f(mid), which differs from comparing the
    two signs only where that product underflows."""
    u = np.asarray(times, dtype=float) / float(np.max(times))
    log_u = np.log(u)
    mean_log = float(np.mean(log_u))

    def profile(k):
        w = u**k
        return float(np.dot(w, log_u) / np.sum(w)) - 1.0 / k - mean_log

    lo, hi = SHAPE_BRACKET
    flo, fhi = profile(lo), profile(hi)
    if flo * fhi > 0.0:
        raise NoBracket("no sign change")
    if flo == 0.0 or fhi == 0.0:
        lo = hi = lo if flo == 0.0 else hi
    while hi - lo > SHAPE_TOL:
        mid = 0.5 * (lo + hi)
        fmid = profile(mid)
        if fmid == 0.0:
            lo = hi = mid
        elif flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    shape = 0.5 * (lo + hi)
    return WeibullParams(float(np.max(times)) * float(np.mean(u**shape)) ** (1.0 / shape), shape)
