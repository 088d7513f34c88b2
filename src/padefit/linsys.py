"""Design matrices and the one least-squares solve behind every fit.

The fits work on the cross-multiplied residuals

    rho_k = P(t_k) - F_k * Q(t_k),

which are linear in the unknown coefficients, so each fit is the linear
least-squares problem G theta ~ F with one design column per free
coefficient:

    t_k**i            for a free numerator coefficient,
    -F_k * t_k**j     for a free denominator coefficient,
    (1 - F_k) * t_k**l for the shared tail coefficient.

A ridge penalty lambda_c theta_c**2 adds the row sqrt(lambda_c) e_c with
right-hand side 0; exact interpolation is the square case.  The problem
is solved directly (Householder QR, or LU when square) rather than
through the normal equations G'G theta = G'F, which have the same
minimizer in exact arithmetic but square the condition number (Golub &
Van Loan, Matrix Computations, section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NegativeWeight, SingularSystem

#: A condition estimate above this sets the ill-conditioning flag: the
#: coefficients then carry fewer than about eight significant digits.
CONDITION_FLAG_LIMIT = 1e8

#: Column identities: ("numer", power), ("denom", power) or ("tail", power).
Column = tuple[str, int]


@dataclass(frozen=True)
class SolveDiagnostics:
    """Conditioning of one solve, read from the singular values of the
    column-equilibrated system: their ratio (condition), the numerical
    rank, and a flag set when the condition exceeds CONDITION_FLAG_LIMIT."""

    condition: float
    rank: int
    condition_flag: bool


def free_columns(
    n: int,
    m: int,
    tail_power: int | None = None,
    zero_powers: frozenset[int] = frozenset(),
) -> tuple[Column, ...]:
    """Ordered free-coefficient identities for the given model structure."""
    if n < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    if tail_power is not None and (tail_power <= n or tail_power <= m):
        raise ValueError("tail power must exceed both degrees")
    cols: list[Column] = [("numer", i) for i in range(n + 1) if i not in zero_powers]
    cols += [("denom", j) for j in range(1, m + 1)]
    if tail_power is not None:
        cols.append(("tail", int(tail_power)))
    if not cols:
        raise ValueError("model has no free coefficients")
    return tuple(cols)


@np.errstate(over="ignore")  # an overflowing power is an inf column: SingularSystem
def design_matrix(x: np.ndarray, f: np.ndarray, columns: tuple[Column, ...]) -> np.ndarray:
    """One row per point, one column per free coefficient (see module doc)."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.empty((len(x), len(columns)))
    for c, (kind, power) in enumerate(columns):
        xp = x**power
        if kind == "numer":
            g[:, c] = xp
        elif kind == "denom":
            g[:, c] = -f * xp
        else:
            g[:, c] = (1.0 - f) * xp
    return g


def ridge_weights(columns: tuple[Column, ...], lam: float, lam1: float) -> np.ndarray:
    """Per-column ridge weights: lam1 on denominator columns, lam on
    numerator and tail columns."""
    return np.array([lam1 if kind == "denom" else lam for kind, _power in columns])


def solve_least_squares(
    g: np.ndarray,
    f: np.ndarray,
    ridge: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Minimize ||G theta - F||**2 + sum_c ridge_c * theta_c**2.

    Columns are equilibrated by exact powers of two, so the scaling adds
    no rounding.  A system with more rows than columns (after the ridge
    rows, stacked only when some weight is nonzero) is solved by
    Householder QR; a square one by LU.

    Raises
    ------
    InsufficientData
        If G has fewer rows than columns.
    NegativeWeight
        If a ridge weight is negative.
    SingularSystem
        If a column is zero or not finite, the system is numerically rank
        deficient, or a coefficient overflows.
    """
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    rows, p = g.shape
    if rows < p:
        raise InsufficientData(f"{rows} points for {p} free coefficients")
    if ridge is not None:
        ridge = np.asarray(ridge, dtype=float)
        if np.any(ridge < 0.0):
            raise NegativeWeight("penalty weights must be nonnegative")
        if np.any(ridge > 0.0):
            g = np.vstack([g, np.diag(np.sqrt(ridge))])
            f = np.concatenate([f, np.zeros(p)])
    # max-abs rather than 2-norm: squaring entries would underflow for tiny x
    peaks = np.max(np.abs(g), axis=0)
    if not np.all(np.isfinite(peaks) & (peaks > 0.0)):
        raise SingularSystem("a design column is zero or not finite")
    scale = np.ldexp(1.0, np.frexp(peaks)[1] - 1)  # column maxima land in [1, 2)
    g = g / scale
    try:
        if g.shape[0] == p:
            r, rhs = g, f
        else:
            q, r = np.linalg.qr(g)
            rhs = q.T @ f
        sv = np.linalg.svd(r, compute_uv=False)
        rank = int(np.count_nonzero(sv > sv[0] * p * np.finfo(float).eps))
        if rank < p:
            raise SingularSystem(f"numerical rank {rank} of {p} columns")
        y = np.linalg.solve(r, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    with np.errstate(over="ignore"):
        theta = y / scale
    if not np.all(np.isfinite(theta)):
        raise SingularSystem("coefficients overflow at this abscissa scale")
    condition = float(sv[0] / sv[-1])
    return theta, SolveDiagnostics(condition, rank, condition > CONDITION_FLAG_LIMIT)
