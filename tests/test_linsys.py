"""Design columns and the least-squares solve with its ridge rows, checked
against exact (Fraction) and 50-digit (mpmath) oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracle
from padefit import Dataset, FitConfig, free_columns, linsys, solve_least_squares
from padefit.datagen import sin2pi, uniform_grid
from padefit.errors import InsufficientData, SingularSystem
from padefit.fitting import _fit
from padefit.linsys import design_matrix


# -- column layout ----------------------------------------------------------


def test_free_columns_order_and_mask():
    cols = free_columns(2, 2, tail_power=5, zero_powers=frozenset({0}))
    assert cols == (
        ("numer", 1),
        ("numer", 2),
        ("denom", 1),
        ("denom", 2),
        ("tail", 5),
    )


def test_free_columns_rejects_bad_structure():
    with pytest.raises(ValueError):
        free_columns(-1, 0)
    with pytest.raises(ValueError):
        free_columns(2, 0, tail_power=2)
    with pytest.raises(ValueError):
        free_columns(0, 0, zero_powers=frozenset({0}))


def test_design_matrix_column_content():
    x = np.array([0.5, 2.0])
    f = np.array([3.0, -1.0])
    cols = (("numer", 0), ("numer", 2), ("denom", 1), ("tail", 3))
    g = design_matrix(x, f, cols)
    np.testing.assert_array_equal(g[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(g[:, 1], x**2)
    np.testing.assert_array_equal(g[:, 2], -f * x)
    np.testing.assert_array_equal(g[:, 3], (1.0 - f) * x**3)


# -- least squares ----------------------------------------------------------


def _oracle_solve(g, f, ridge=None):
    with mpmath.workdps(50):
        return np.array([float(v) for v in oracle.solve(g, f, ridge)])


def _solve(g, f, ridge=None):
    """One problem through the stacked solve, raising its error."""
    p = np.shape(g)[1]
    ridges = np.zeros((1, p)) if ridge is None else np.asarray(ridge)[None]
    (result,) = solve_least_squares(g, f, ridges)
    if isinstance(result, Exception):
        raise result
    return result


def test_single_point_constant_system():
    g = design_matrix(np.array([2.0]), np.array([3.0]), free_columns(0, 0))
    np.testing.assert_array_equal(g, [[1.0]])
    theta, _ = _solve(g, np.array([3.0]))
    assert theta[0] == 3.0


def test_polynomial_case_is_classical_least_squares():
    x = np.arange(8, dtype=float)
    f = np.array([1.0, 2.0, 0.0, -1.0, 3.0, 5.0, 2.0, 4.0])
    g = design_matrix(x, f, free_columns(3, 0))
    np.testing.assert_array_equal(g, np.vander(x, 4, increasing=True))
    theta, diag = _solve(g, f)
    np.testing.assert_allclose(theta, _oracle_solve(g, f), rtol=1e-12)
    assert diag.rank == 4


def test_three_point_system_matches_fraction_oracle():
    xs = [Fraction(0), Fraction(1), Fraction(2)]
    fs = [Fraction(1), Fraction(2), Fraction(5)]
    # columns: numer 0, numer 1, denom 1 -> row (1, x, -F x); square, so
    # the least-squares solution passes through all three points
    rows = [[Fraction(1), x, -F * x] for x, F in zip(xs, fs)]

    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    exact = [
        det([[F if j == c else r[j] for j in range(3)] for r, F in zip(rows, fs)]) / det(rows)
        for c in range(3)
    ]
    x = np.array([0.0, 1.0, 2.0])
    f = np.array([1.0, 2.0, 5.0])
    theta, _ = _solve(design_matrix(x, f, free_columns(1, 1)), f)
    np.testing.assert_allclose(theta, [float(v) for v in exact], rtol=1e-14)


def test_overdetermined_matches_normal_equation_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 2.0, 30)
    f = rng.normal(size=30)
    g = design_matrix(x, f, free_columns(3, 2, tail_power=7))
    theta, diag = _solve(g, f)
    np.testing.assert_allclose(theta, _oracle_solve(g, f), rtol=1e-10)
    assert diag.rank == g.shape[1]


def test_insufficient_data_raises():
    with pytest.raises(InsufficientData):
        _solve(np.ones((2, 3)), np.ones(2))


def test_system_arrays_are_immutable():
    x = np.array([0.5, 1.0, 1.5, 2.0])
    f = np.array([1.0, 0.5, 2.0, 1.5])
    g = design_matrix(x, f, free_columns(1, 1))
    ridge = np.array([0.1, 0.1, 0.2])
    before = (g.copy(), f.copy(), ridge.copy())
    for a in (g, f, ridge):
        a.setflags(write=False)
    _solve(g, f, ridge)
    for a, b in zip((g, f, ridge), before):
        np.testing.assert_array_equal(a, b)


# -- ridge ------------------------------------------------------------------


def _toy_problem():
    x = np.array([0.5, 1.0, 1.5, 2.0])
    f = np.array([1.0, 0.5, 2.0, 1.5])
    return design_matrix(x, f, free_columns(0, 1)), f


def test_zero_weights_leave_system_identical():
    # a zero-weight problem gets no ridge rows, even batched with a ridged one
    g, f = _toy_problem()
    plain = _solve(g, f)
    zero, ridged = solve_least_squares(g, f, np.array([[0.0, 0.0], [0.1, 0.4]]))
    np.testing.assert_array_equal(zero[0], plain[0])
    assert zero[1] == plain[1]
    np.testing.assert_array_equal(ridged[0], _solve(g, f, np.array([0.1, 0.4]))[0])


def test_stack_of_matrices_solves_each_alone():
    # one G per problem: plain, ridged and rank-deficient members of one
    # stack each get the result of their lone solve
    g, f = _toy_problem()
    stack = np.stack([g, g[:, ::-1], np.column_stack([g[:, 0], 2.0 * g[:, 0]])])
    ridges = np.array([[0.0, 0.0], [0.1, 0.4], [0.0, 0.0]])
    got = solve_least_squares(stack, f, ridges)
    for gk, ridge, result in zip(stack[:2], ridges, got):
        want = _solve(gk, f, ridge)
        np.testing.assert_array_equal(result[0], want[0])
        assert result[1] == want[1]
    assert isinstance(got[2], SingularSystem)
    with pytest.raises(SingularSystem, match=str(got[2])):
        _solve(stack[2], f)
    for bad in (ridges[:2], ridges[:, :1], ridges[0]):
        with pytest.raises(ValueError):
            solve_least_squares(stack, f, bad)


def _assert_same_outcome(got, want):
    # the same theta bytes and diagnostics, or the same error
    if isinstance(want, SingularSystem):
        assert type(got) is SingularSystem and str(got) == str(want)
    else:
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


@pytest.mark.parametrize("rows", [8, 3])
def test_mixed_penalties_finish_in_one_svd_and_one_solve(linalg_calls, rows):
    # the zero-penalty and the ridged stacks are triangularized apart (a
    # square plain stack by no QR at all), then finished together by one
    # svd and one solve call; every member keeps the bits or the error of
    # its own solve
    rng = np.random.default_rng(3)
    g = rng.normal(size=(6, rows, 3))
    g[2, :, 2] = g[2, :, 0] + g[2, :, 1]  # rank deficient
    g[3, :, 1] = 0.0  # a zero column
    g[4, :, 1] = 0.0  # a zero column that no ridge row covers
    g[5, :, 2] = g[5, :, 0] - g[5, :, 1]  # rank deficient, made full rank by its ridge
    f = rng.normal(size=rows)
    ridges = np.array([[0.0] * 3, [0.1, 0.2, 0.3], [0.0] * 3, [0.0] * 3, [0.5, 0.0, 0.5], [1e-2] * 3])
    alone = [solve_least_squares(gk, f, ridge[None])[0] for gk, ridge in zip(g, ridges)]
    for name in linalg_calls:
        linalg_calls[name] = 0
    got = solve_least_squares(g, f, ridges)
    assert linalg_calls == {"qr": 1 if rows == 3 else 2, "svd": 1, "solve": 1}
    assert [isinstance(r, SingularSystem) for r in got] == [False, False, True, True, True, False]
    for result, want in zip(got, alone):
        _assert_same_outcome(result, want)


def test_a_failed_batched_solve_falls_back_to_each_problem(monkeypatch):
    # a LinAlgError in the shared call is found problem by problem: the
    # failing one gets its SingularSystem, the others their lone results
    rng = np.random.default_rng(4)
    g = rng.normal(size=(4, 8, 3))
    f = rng.normal(size=8)
    ridges = np.array([[0.0] * 3, [0.1] * 3, [0.0] * 3, [0.2] * 3])
    alone = [solve_least_squares(gk, f, ridge[None])[0] for gk, ridge in zip(g, ridges)]
    solve, singles = np.linalg.solve, []

    def failing(a, b):
        if len(a) > 1:
            raise np.linalg.LinAlgError("batched")
        singles.append(len(a))
        if len(singles) == 2:  # the plain stack comes first: problem 2
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    got = solve_least_squares(g, f, ridges)
    assert singles == [1, 1, 1, 1]
    assert type(got[2]) is SingularSystem and str(got[2]) == "Singular matrix"
    for k in (0, 1, 3):
        _assert_same_outcome(got[k], alone[k])


# ridges of five problems: all plain, all ridged (one with a zero weight on
# a column), mixed, a lone problem, none
PRIVATE_RIDGES = {
    "plain": np.zeros((5, 3)),
    "ridged": np.array([[0.1, 0.2, 0.3], [1e-2] * 3, [0.5, 0.0, 0.5], [0.1] * 3, [2.0] * 3]),
    "mixed": np.array([[0.0] * 3, [0.1, 0.2, 0.3], [0.0] * 3, [0.5, 0.0, 0.5], [0.0] * 3]),
    "lone": np.array([[0.0, 0.3, 0.0]]),
    "none": np.zeros((0, 3)),
}


@pytest.mark.parametrize("rows", [8, 3, 2])
@pytest.mark.parametrize("kind", PRIVATE_RIDGES)
def test_the_private_solve_entry_matches_the_public_one(linalg_calls, rows, kind):
    # linsys._solve, the entry a fit batch calls with its checked weights and
    # a C-contiguous F, gives the theta bytes, diagnostics and errors of
    # solve_least_squares, batched and problem by problem, here with a strided
    # F; one qr per non-square, nonempty stack, one svd and one solve
    ridges = PRIVATE_RIDGES[kind]
    rng = np.random.default_rng(5)
    g = rng.normal(size=(len(ridges), rows, 3))
    if len(ridges) > 1:
        g[1, :, 2] = g[1, :, 0] + g[1, :, 1]  # rank deficient
        g[3, :, 1] = 0.0  # a zero column
    f = rng.normal(size=2 * rows)[::2]
    assert not f.flags.c_contiguous
    batched = solve_least_squares(g, f, ridges)
    alone = [solve_least_squares(gk, f, ridge[None])[0] for gk, ridge in zip(g, ridges)]
    for name in linalg_calls:
        linalg_calls[name] = 0
    got = linsys._solve(g, np.ascontiguousarray(f), ridges)
    assert len(got) == len(batched) == len(ridges)
    for result, want, lone in zip(got, batched, alone):
        if isinstance(want, InsufficientData):
            assert type(result) is InsufficientData and str(result) == str(want) == str(lone)
            continue
        _assert_same_outcome(result, want)
        _assert_same_outcome(result, lone)
    some = (ridges > 0.0).any(axis=1)
    stacks = [(rows, ~some), (rows + 3, some)]  # (row count, members) of the plain and the ridged stack
    qr = sum(n > 3 and bool(members.any()) for n, members in stacks) if rows >= 3 else 0
    solved = int(rows >= 3 and len(ridges) > 0)
    assert linalg_calls == {"qr": qr, "svd": solved, "solve": solved}


def test_a_fit_batch_solves_once_per_column_count(monkeypatch):
    # _fit takes the private entry, one stacked call per column count, and
    # never the public solve
    calls = []
    solve = linsys._solve
    monkeypatch.setattr(linsys, "_solve", lambda g, f, ridges: calls.append(g.shape) or solve(g, f, ridges))
    monkeypatch.setattr(linsys, "solve_least_squares", None)
    x = uniform_grid(0.0, 1.0, 20)
    configs = [FitConfig(2, 1), FitConfig(1, 2), FitConfig(3, 1, lam=0.1), FitConfig(1, 0), FitConfig(2, 1, lam1=0.5)]
    reports = _fit(Dataset(x, sin2pi(x)), configs, None)
    assert calls == [(3, len(x), 4), (1, len(x), 5), (1, len(x), 2)]
    assert all(not isinstance(report, Exception) for report in reports)


def test_strided_rhs_solves_like_a_contiguous_copy():
    # a strided F must not take another BLAS path in Q'F
    x = uniform_grid(0.0, 1.0, 20)[::2]
    f = sin2pi(uniform_grid(0.0, 1.0, 20))[::2]
    assert not f.flags.c_contiguous
    g = design_matrix(x, f, free_columns(8, 2, None, frozenset({0, 8})))
    ridges = np.zeros((1, g.shape[1]))
    (strided,), (copied,) = solve_least_squares(g, f, ridges), solve_least_squares(g, f.copy(), ridges)
    assert strided[0].tobytes() == copied[0].tobytes()


def test_diagonal_increments_are_exact():
    # the ridge rows add exactly lam_c to the diagonal of G'G: the solve
    # matches (G'G + diag lam) theta = G'F from the 50-digit oracle
    g, f = _toy_problem()  # columns (numer 0, denom 1)
    ridge = np.array([0.1, 0.4])
    theta, _ = _solve(g, f, ridge)
    np.testing.assert_allclose(theta, _oracle_solve(g, f, ridge), rtol=1e-13)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 2.0, 25)
    f = rng.normal(size=25)
    g = design_matrix(x, f, free_columns(4, 2, tail_power=6, zero_powers=frozenset({0})))
    ridge = np.array([1e-3] * 4 + [0.5] * 2 + [1e-3])  # numerator 1..4, denominator 1..2, tail 6
    theta, _ = _solve(g, f, ridge)
    np.testing.assert_allclose(theta, _oracle_solve(g, f, ridge), rtol=1e-10)


def test_negative_weight_rejected():
    # the FitConfig rule: a negative or non-finite weight fails the whole
    # call, next to the shape check, whatever the other rows hold (a NaN
    # weight solved unpenalized, an inf one gave SingularSystem)
    g, f = _toy_problem()
    with pytest.raises(ValueError, match="penalty weights must be nonnegative and finite"):
        _solve(g, f, np.array([-0.1, 0.0]))
    with pytest.raises(ValueError, match="penalty weights must be nonnegative and finite"):
        _solve(g, f, np.array([0.0, -1e-9]))
    x = np.linspace(0.0, 1.0, 6)
    g = np.vander(x, 3)
    for bad in (math.nan, math.inf, -1.0):
        for ridges in ([[bad, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, bad, 1e-3]]):
            with pytest.raises(ValueError, match="penalty weights must be nonnegative and finite"):
                solve_least_squares(g, x**2, np.array(ridges))


# -- square systems and conditioning ----------------------------------------


def test_identity_solve():
    theta, diag = _solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(theta, [1.0, 2.0, 3.0])
    assert diag.condition == 1.0
    assert diag.rank == 3
    assert not diag.condition_flag


def test_diagonal_solve():
    theta, _ = _solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    np.testing.assert_array_equal(theta, [1.0, 2.0])


def test_spd_multiply_back():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8))
    a = m.T @ m + np.eye(8)
    b = rng.normal(size=8)
    theta, _ = _solve(a, b)
    resid = np.max(np.abs(a @ theta - b))
    assert resid / np.max(np.abs(b)) <= 1e-10


def test_matches_library_solver_on_random_systems():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        theta, _ = _solve(a, b)
        np.testing.assert_allclose(theta, np.linalg.solve(a, b), rtol=1e-10)
        tall = rng.normal(size=(15, 6))
        rhs = rng.normal(size=15)
        theta, _ = _solve(tall, rhs)
        np.testing.assert_allclose(theta, np.linalg.lstsq(tall, rhs)[0], rtol=1e-10)


def test_singular_matrix_raises():
    with pytest.raises(SingularSystem):
        _solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    # rank deficient least squares: the third column is the sum of the others
    g = np.random.default_rng(2).normal(size=(10, 3))
    g[:, 2] = g[:, 0] + g[:, 1]
    with pytest.raises(SingularSystem):
        _solve(g, np.ones(10))
    # a zero column (all-zero ordinates null the denominator column)
    with pytest.raises(SingularSystem):
        _solve(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), np.ones(3))


def test_overflowing_coefficients_raise():
    # a well-conditioned system whose exact solution (1e320) is not a float
    with pytest.raises(SingularSystem):
        _solve(np.array([[1e-310], [1e-310]]), np.array([1e10, 1e10]))


def test_condition_flag_on_tiny_pivot_ratio():
    # LU pivots 1 and 1e-13: nearly collinear columns
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    theta, diag = _solve(a, a @ np.array([1.0, 1.0]))
    np.testing.assert_allclose(theta, [1.0, 1.0], rtol=1e-2)
    assert diag.condition_flag
    assert diag.condition > 1e12
    # badly scaled but independent columns are not ill-conditioned
    theta, diag = _solve(np.diag([1.0, 1e-13]), np.array([1.0, 1e-13]))
    np.testing.assert_array_equal(theta, [1.0, 1.0])
    assert diag.condition < 2.0  # equilibrated column maxima lie in [1, 2)
    assert not diag.condition_flag


def test_partial_pivoting_handles_zero_leading_entry():
    theta, _ = _solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([2.0, 3.0]))
    np.testing.assert_array_equal(theta, [3.0, 2.0])


# -- interpolation rows -----------------------------------------------------


def test_two_point_line_interpolation():
    x = np.array([0.0, 1.0])
    f = np.array([1.0, 3.0])
    theta, _ = _solve(design_matrix(x, f, free_columns(1, 0)), f)
    np.testing.assert_allclose(theta, [1.0, 2.0], rtol=1e-14)


def test_interpolation_row_form():
    x = np.array([0.5, 1.0, 2.0])
    f = np.array([0.2, 0.4, 0.8])
    g = design_matrix(x, f, free_columns(1, 1))
    # row k: alpha_0 + alpha_1 x_k - F_k x_k beta_1 = F_k
    for k in range(3):
        np.testing.assert_array_equal(g[k], [1.0, x[k], -f[k] * x[k]])
