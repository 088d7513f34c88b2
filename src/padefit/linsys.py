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

from .errors import InsufficientData, PadefitError, SingularSystem

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


def free_columns(
    n: int,
    m: int,
    tail_power: int | None = None,
    zero_powers: frozenset[int] = frozenset(),
) -> tuple[Column, ...]:
    """Ordered free-coefficient identities for the given model structure.
    Raises ValueError for a degree or tail power that is not an int (or is
    a bool), a negative degree, a tail power not above both degrees, or a
    structure with no free coefficient.  A FitConfig keeps its structure's
    columns from construction (FitConfig._columns)."""
    if any(isinstance(d, bool) or not isinstance(d, int) for d in (n, m)):
        raise ValueError("degrees must be integers")
    if n < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    if tail_power is not None and (isinstance(tail_power, bool) or not isinstance(tail_power, int)):
        raise ValueError("tail power must be an integer")
    if tail_power is not None and (tail_power <= n or tail_power <= m):
        raise ValueError("tail power must exceed both degrees")
    cols: list[Column] = [("numer", i) for i in range(n + 1) if i not in zero_powers]
    cols += [("denom", j) for j in range(1, m + 1)]
    if tail_power is not None:
        cols.append(("tail", tail_power))
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
    system with more rows than columns is reduced to a triangular one by
    Householder QR, one batched call per stack; a square one goes to LU as
    it is.  Both stacks then share one batched SVD (condition and rank)
    and one batched solve.  The batched calls factor each matrix alone,
    so a problem's solution does not depend on the others in its batch.

    Raises ValueError for ridges of the wrong shape or a weight that is
    negative or not finite.  Returns, per row of `ridges`, theta and its
    SolveDiagnostics, or the PadefitError that problem raised:

    InsufficientData
        If G has fewer rows than columns.
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
    if not ((ridges >= 0.0) & (ridges < np.inf)).all():  # NaN fails both
        raise ValueError("penalty weights must be nonnegative and finite")
    with np.errstate(all="ignore"):  # a Q'F or theta out of float range: no finite theta, SingularSystem
        return _solve(np.broadcast_to(g, (len(ridges), rows, p)), f, ridges)


def _solve(g: np.ndarray, f: np.ndarray, ridges: np.ndarray) -> list:
    # solve_least_squares past its checks, under the caller's float-trap context, of a
    # (K, rows, p) stack g and a C-contiguous F; one stack is neither gathered nor joined.
    k, rows, p = g.shape
    if rows < p:
        return [InsufficientData(f"{rows} points for {p} free coefficients") for _ in range(k)]
    some = (ridges > 0.0).any(axis=1)
    out: list = [None] * k
    if some.all() or not some.any():
        systems = [_triangularize(range(k), g, f, ridges if some.any() else None, out)]
    else:  # the zero-penalty stack first
        plain, ridged = np.flatnonzero(~some), np.flatnonzero(some)
        systems = [_triangularize(plain.tolist(), g[plain], f, None, out)]
        systems.append(_triangularize(ridged.tolist(), g[ridged], f, ridges[ridged], out))
    systems = [system for system in systems if system is not None]
    if len(systems) == 2:  # both stacks finished by one SVD and one solve
        systems = [(systems[0][0] + systems[1][0], *map(np.concatenate, zip(*(system[1:] for system in systems))))]
    for ks, *parts in systems:
        for i, result in zip(ks, _finish(*parts)):
            out[i] = result
    return out


def _triangularize(ks, g: np.ndarray, f: np.ndarray, ridges: np.ndarray | None, out: list):
    # Problems ks, the (K, rows, p) stack g sharing F, as square systems
    # R y = Q'F (by QR, or as they are when square) of the equilibrated
    # columns, with their column scales; a problem with a zero or non-finite
    # column gets its SingularSystem in `out` instead (None if all do).
    if ridges is not None:  # each G with the rows sqrt(ridge_c) e_c under it, F with zeros
        g = np.concatenate([g, np.sqrt(ridges)[:, :, None] * np.eye(g.shape[2])], axis=1)
        f = np.concatenate([f, np.zeros(g.shape[2])])
    # max-abs rather than 2-norm: squaring entries would underflow for tiny x
    peaks = np.abs(g).max(axis=1)
    usable = ((peaks > 0.0) & (peaks < np.inf)).all(axis=1).tolist()
    for k in (k for k, ok in zip(ks, usable) if not ok):
        out[k] = SingularSystem("a design column is zero or not finite")
    if not any(usable):
        return None
    if not all(usable):
        ks, g, peaks = [k for k, ok in zip(ks, usable) if ok], g[usable], peaks[usable]
    scale = np.ldexp(1.0, np.frexp(peaks)[1] - 1)  # column maxima land in [1, 2)
    a = g / scale[:, None, :]
    k, rows, p = a.shape
    if rows == p:
        return ks, a, np.broadcast_to(f[:, None], (k, p, 1)), scale
    q, r = np.linalg.qr(a)
    return ks, r, np.swapaxes(q, 1, 2) @ f[:, None], scale


def _finish(r: np.ndarray, rhs: np.ndarray, scale: np.ndarray) -> list[tuple[np.ndarray, SolveDiagnostics] | SingularSystem]:
    # Singular values, rank and theta = y / scale of the (K, p, p) systems
    # R y = rhs, one batched call each: the gufuncs factor each matrix alone.
    k, p = scale.shape
    try:
        sv = np.linalg.svd(r, compute_uv=False)
        rank = (sv > sv[:, :1] * p * EPS).sum(axis=1)
        full = rank == p
        y = np.linalg.solve(*((r, rhs) if full.all() else (r[full], rhs[full])))[..., 0]  # the full-rank problems
    except np.linalg.LinAlgError as exc:
        if k == 1:
            return [SingularSystem(str(exc))]
        # A failure in a batched call: find its problem, keep the others.
        return [_finish(r[i : i + 1], rhs[i : i + 1], scale[i : i + 1])[0] for i in range(k)]
    scale, sv = (scale, sv) if full.all() else (scale[full], sv[full])  # the full-rank problems
    theta = y / scale
    solved = zip(theta, (sv[:, 0] / sv[:, -1]).tolist(), np.isfinite(theta).all(axis=1).tolist())
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
