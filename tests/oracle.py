"""Reference implementations the tests compare the library against.

The least-squares oracle solves the normal equations
(G'G + diag ridge) theta = G'F by LU in mpmath at the working precision of
the caller (mpmath.workdps), so squaring the condition number costs it
nothing at 50 digits and more.  The pole-scan oracle is the plain
per-interval loop that padefit.rational.pole_scan vectorizes.
"""

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly

from padefit.rational import POLE_REFINE_TOL, PoleReport


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


def pole_scan(model, interval, points=1001):
    """padefit.rational.pole_scan as one Python loop over the grid intervals."""
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise ValueError("scan interval must have positive length")
    if points < 2:
        raise ValueError("need at least two scan points")
    _, q = model._dense

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
