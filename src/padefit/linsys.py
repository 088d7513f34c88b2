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
from functools import lru_cache

import numpy as np

from .errors import InsufficientData, NegativeWeight, PadefitError, SingularSystem

#: A condition estimate above this sets the ill-conditioning flag: the
#: coefficients then carry fewer than about eight significant digits.
CONDITION_FLAG_LIMIT = 1e8

#: Machine epsilon; the rank tolerance is p * EPS * (largest singular value).
EPS = np.finfo(float).eps

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


@lru_cache(maxsize=64)  # batches ask for the same few structures again and again
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
    ridges: np.ndarray,
) -> list[tuple[np.ndarray, SolveDiagnostics] | PadefitError]:
    """Minimize ||G theta - F||**2 + sum_c ridge_c * theta_c**2 for each row
    of `ridges`, a (K, p) stack of per-column weights.

    G is one (rows, p) matrix shared by the K problems, or a (K, rows, p)
    stack with one matrix per problem; F is shared.  Columns are
    equilibrated by exact powers of two, so the scaling adds no rounding.
    Problems with some positive weight get sqrt(ridge) rows stacked under
    their G; the others are solved without them, in their own stack.  A
    system with more rows than columns is solved by Householder QR, a
    square one by LU; each stack takes one batched call of each
    factorization, so a problem's solution does not depend on the others
    in its batch.

    Returns, per row of `ridges`, theta and its SolveDiagnostics, or the
    PadefitError that problem raised:

    InsufficientData
        If G has fewer rows than columns.
    NegativeWeight
        If a ridge weight is negative.
    SingularSystem
        If a column is zero or not finite, the system is numerically rank
        deficient, or a coefficient overflows.
    """
    g = np.asarray(g, dtype=float)
    f = np.ascontiguousarray(f, dtype=float)  # a strided F takes another BLAS path in Q'F
    ridges = np.asarray(ridges, dtype=float)
    rows, p = g.shape[-2:]
    if ridges.shape[1:] != (p,) or g.shape[:-2] not in ((), ridges.shape[:1]):
        raise ValueError(f"ridges must be a (K, {p}) stack of weights, one per matrix of G")
    if rows < p:
        return [InsufficientData(f"{rows} points for {p} free coefficients") for _ in ridges]
    signs = zip((ridges < 0.0).any(axis=1).tolist(), (ridges > 0.0).any(axis=1).tolist())
    kinds = ["negative" if negative else "ridged" if positive else "plain" for negative, positive in signs]
    g = np.broadcast_to(g, (len(ridges), rows, p))
    plain = iter(_solve_stack(g[[kind == "plain" for kind in kinds]], f) if "plain" in kinds else ())
    ridged = iter(())
    if "ridged" in kinds:
        # each G with the diagonal rows sqrt(ridge) under it
        chosen = [kind == "ridged" for kind in kinds]
        weights = np.sqrt(ridges[chosen])
        stack = np.zeros((len(weights), rows + p, p))
        stack[:, :rows] = g[chosen]
        stack[:, rows + np.arange(p), np.arange(p)] = weights
        ridged = iter(_solve_stack(stack, np.concatenate([f, np.zeros(p)])))
    return [
        next(plain) if kind == "plain" else next(ridged) if kind == "ridged" else NegativeWeight("penalty weights must be nonnegative")
        for kind in kinds
    ]


def _solve_stack(g: np.ndarray, f: np.ndarray) -> list[tuple[np.ndarray, SolveDiagnostics] | SingularSystem]:
    # solve_least_squares for a (K, rows, p) stack of systems sharing F.
    k, rows, p = g.shape
    # max-abs rather than 2-norm: squaring entries would underflow for tiny x
    peaks = np.abs(g).max(axis=1)
    usable = (peaks > 0.0) & (peaks < np.inf)
    if not usable.all():
        usable = usable.all(axis=1)
        out: list = [SingularSystem("a design column is zero or not finite") for _ in range(k)]
        for i, result in zip(np.flatnonzero(usable), _solve_stack(g[usable], f) if usable.any() else ()):
            out[i] = result
        return out
    scale = np.ldexp(1.0, np.frexp(peaks)[1] - 1)  # column maxima land in [1, 2)
    a = g / scale[:, None, :]
    try:
        if rows == p:
            r, rhs = a, np.broadcast_to(f[:, None], (k, p, 1))
        else:
            q, r = np.linalg.qr(a)
            rhs = np.swapaxes(q, 1, 2) @ f[:, None]
        sv = np.linalg.svd(r, compute_uv=False)
        rank = (sv > sv[:, :1] * p * EPS).sum(axis=1)
        full = rank == p
        if not full.all():  # solve only the full-rank problems
            r, rhs, scale = r[full], rhs[full], scale[full]
        y = np.linalg.solve(r, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        if k == 1:
            return [SingularSystem(str(exc))]
        # A failure in a batched call: find its problem, keep the others.
        return [_solve_stack(g[i : i + 1], f)[0] for i in range(k)]
    with np.errstate(over="ignore"):
        theta = y / scale
    solved = zip(theta, (sv[full, 0] / sv[full, -1]).tolist(), np.isfinite(theta).all(axis=1).tolist())
    out = []
    for ok, rk in zip(full.tolist(), rank.tolist()):
        if not ok:
            out.append(SingularSystem(f"numerical rank {rk} of {p} columns"))
            continue
        coefficients, condition, finite = next(solved)
        if not finite:
            out.append(SingularSystem("coefficients overflow at this abscissa scale"))
            continue
        out.append((coefficients, SolveDiagnostics(condition, p, condition > CONDITION_FLAG_LIMIT)))
    return out
