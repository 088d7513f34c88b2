"""High-precision reference solves for the least-squares tests.

The oracle solves the normal equations (G'G + diag ridge) theta = G'F by
LU in mpmath at the working precision of the caller (mpmath.workdps), so
squaring the condition number costs it nothing at 50 digits and more.
"""

import mpmath as mp


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
