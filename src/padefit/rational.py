"""Rational-function models: evaluation, calculus, algebra and pole scanning.

A model is the ratio of two polynomials in t = x**x_power,

    R(x) = P(t) / Q(t),    Q(0) = 1,

stored by its coefficient arrays in ascending power order.  The denominator
constant term is always exactly 1 and is therefore not stored.  An optional
shared tail term adds the same coefficient to a single high power of both
polynomials, which pins the value at infinity to 1 (the form used for
cumulative distribution curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DenominatorZero,
    EvaluationOverflow,
    NegativeAbscissa,
    SingularDerivative,
    UnsupportedSubstitution,
)

#: Denominator magnitudes at or below this count as an exact zero.
DENOM_TOL = 1e-300

# The smallest positive normal float: a result below it has lost bits.
_SMALLEST_NORMAL = float(np.finfo(float).smallest_normal)

#: Absolute bracket width at which pole bisection stops.
POLE_REFINE_TOL = 1e-12

#: Number of nodes of a pole scan; every fit scans its data interval with it.
SCAN_POINTS = 1001


def denominator_zero(x, den) -> DenominatorZero | None:
    """The DenominatorZero at the first x where |Q| <= DENOM_TOL, or None
    when the denominator values `den` at `x`, of x's shape, do not vanish
    (as for an empty x)."""
    ds = np.atleast_1d(den)
    if not (ds.size and np.min(np.abs(ds)) <= DENOM_TOL):
        return None
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return DenominatorZero(float(xs[np.abs(ds) <= DENOM_TOL][0]))


@dataclass(frozen=True)
class Tail:
    """Shared coefficient on x**power added to numerator and denominator.

    power is an int, not a bool, and must exceed the degree of both
    polynomials; because the same coefficient multiplies the highest power
    on both sides of the ratio, the model tends to 1 as x grows.
    """

    power: int
    coeff: float

    def __post_init__(self):
        if isinstance(self.power, bool) or not isinstance(self.power, int) or self.power < 1:
            raise ValueError("tail power must be a positive integer")
        if not math.isfinite(self.coeff):
            raise ValueError("tail coefficient must be finite")


@dataclass(frozen=True)
class RationalModel:
    """Immutable rational function with an optional abscissa power substitution.

    Parameters
    ----------
    numer : sequence of float
        Numerator coefficients, constant term first.  Length n + 1 for a
        degree-n numerator.
    denom : sequence of float
        Denominator coefficients for powers 1..m.  The constant term is 1
        and implicit.  May be empty (polynomial model).
    tail : Tail, optional
        Shared high-power coefficient, see :class:`Tail`.
    x_power : float
        The abscissa substitution exponent: the polynomials are evaluated
        at t = x**x_power.  Must be positive.  Non-integer values restrict
        the domain to x >= 0.
    zero_powers : frozenset of int
        Numerator powers pinned to exactly zero (recorded so a fit's
        structural constraints survive serialization).
    """

    numer: tuple[float, ...]
    denom: tuple[float, ...] = ()
    tail: Tail | None = None
    x_power: float = 1.0
    zero_powers: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "numer", tuple(float(c) for c in self.numer))
        object.__setattr__(self, "denom", tuple(float(c) for c in self.denom))
        object.__setattr__(self, "zero_powers", frozenset(int(i) for i in self.zero_powers))
        if len(self.numer) < 1:
            raise ValueError("numerator needs at least the constant coefficient")
        if not all(math.isfinite(c) for c in self.numer + self.denom):
            raise ValueError("coefficients must be finite")
        if not (0 < self.x_power < math.inf):
            raise ValueError("x_power must be positive and finite")
        if self.tail is not None:
            if self.tail.power <= self.degree_numer or self.tail.power <= self.degree_denom:
                raise ValueError("tail power must exceed both polynomial degrees")
        for i in self.zero_powers:
            if i < len(self.numer) and self.numer[i] != 0.0:
                raise ValueError(f"numerator power {i} is masked to zero but is {self.numer[i]!r}")

    @property
    def degree_numer(self) -> int:
        return len(self.numer) - 1

    @property
    def degree_denom(self) -> int:
        return len(self.denom)

    @cached_property
    def _rows(self) -> np.ndarray:
        # Dense ascending coefficients of P and Q, including the implicit 1
        # and the tail: one read-only (2, top) array.
        top = self.tail.power + 1 if self.tail is not None else max(len(self.numer), len(self.denom) + 1)
        c = np.zeros((2, top))
        c[0, : len(self.numer)] = self.numer
        c[1, 0] = 1.0
        c[1, 1 : len(self.denom) + 1] = self.denom
        if self.tail is not None:
            c[:, self.tail.power] += self.tail.coeff
        c.setflags(write=False)
        return c

    @classmethod
    def _trusted(cls, numer, denom, tail, x_power, zero_powers, rows) -> "RationalModel":
        # A model from fields a fit has already checked, seeded with its read-only _rows.
        model = object.__new__(cls)
        model.__dict__.update(numer=numer, denom=denom, tail=tail, x_power=x_power, zero_powers=zero_powers, _rows=rows)
        return model

    def __call__(self, x):
        """Evaluate the model; scalar in, scalar out; array in, array out.

        Raises NegativeAbscissa for x < 0 with a non-integer x_power, then in
        this order EvaluationOverflow where x is not finite or P or Q overflows,
        DenominatorZero where |Q| <= DENOM_TOL, EvaluationOverflow where P/Q does.
        """
        c, exponents = _stack((self,))
        with np.errstate(all="ignore"):  # an overflow stays inf or NaN through Horner: checked below
            values = _horner(c, _substitutions(x, exponents))[:, 0]
            out = values[0] / values[1]
        if not np.isfinite(values).all():
            raise EvaluationOverflow("P(t) and Q(t) are out of float range")
        if (err := denominator_zero(x, values[1])) is not None:
            raise err
        if not np.isfinite(out).all():
            raise EvaluationOverflow("R(x) is out of float range")
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        """First derivative dR/dx by the quotient rule.

        The chain rule contributes x_power * x**(x_power - 1) from the
        substitution; for x_power == 1 that factor is exactly 1.

        Raises
        ------
        NegativeAbscissa
            For x < 0 with a non-integer x_power.
        SingularDerivative
            For x = 0 with x_power < 1, where the chain-rule factor is infinite.
        EvaluationOverflow
            Where x is not finite or the slope overflows (not Q*Q alone);
            checked before the denominator.
        DenominatorZero
            Where |Q| <= DENOM_TOL.
        """
        with np.errstate(all="ignore"):  # _slopes leaves every overflow non-finite: checked below
            (out,), (den,) = _slopes(*_stack((self,)), x)
        if not np.isfinite(out).all():
            raise EvaluationOverflow("dR/dx is out of float range")
        if (err := denominator_zero(x, den)) is not None:
            raise err
        return out if np.ndim(x) else float(out)

    def taylor_coefficients(self, count: int) -> tuple[float, ...]:
        """First `count` Maclaurin coefficients of the model.

        Computed by power-series long division: with dense numerator a_i
        and denominator b_j (b_0 = 1),

            c_i = a_i - sum_{j=1..i} b_j * c_{i-j}.

        Requires x_power == 1, since for other powers the model is not a
        power series in x.  Raises UnsupportedSubstitution for another
        x_power, ValueError unless count is a nonnegative integer, and
        EvaluationOverflow where a coefficient leaves the float range.
        """
        if self.x_power != 1.0:
            raise UnsupportedSubstitution("Maclaurin expansion needs x_power == 1")
        require_count(count, 0, "count must be nonnegative")
        p, q = self._rows.tolist()  # Python floats: an overflow is an inf, checked below, not a warning
        c = []
        for i in range(count):
            a_i = p[i] if i < len(p) else 0.0
            acc = a_i
            for j in range(1, i + 1):
                b_j = q[j] if j < len(q) else 0.0
                if b_j != 0.0:
                    acc -= b_j * c[i - j]
            if not math.isfinite(acc):
                raise EvaluationOverflow(f"Maclaurin coefficient {i} is out of float range")
            c.append(acc)
        return tuple(c)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible record; floats round-trip exactly via repr."""
        return {
            "x_power": self.x_power,
            "n": self.degree_numer,
            "m": self.degree_denom,
            "numer": list(self.numer),
            "denom": list(self.denom),
            "tail": None if self.tail is None else {"power": self.tail.power, "coeff": self.tail.coeff},
            "zero_powers": sorted(self.zero_powers),
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "RationalModel":
        """The model of a to_dict record.  Raises ValueError unless the
        coefficients are JSON arrays of numbers and the tail and zero
        powers are integers."""
        tail = rec.get("tail")
        numbers = [rec["numer"], rec.get("denom", []), [rec.get("x_power", 1.0)]]
        integers = [rec.get("zero_powers", [])]
        if tail is not None:
            numbers.append([tail["coeff"]])
            integers.append([tail["power"]])
        for arrays, kinds in ((numbers, (int, float)), (integers, int)):
            for a in arrays:
                if not isinstance(a, list) or any(isinstance(v, bool) or not isinstance(v, kinds) for v in a):
                    raise ValueError("coefficients must be arrays of numbers, and tail and zero powers integers")
        return cls(
            numer=tuple(rec["numer"]),
            denom=tuple(rec.get("denom", ())),
            tail=None if tail is None else Tail(tail["power"], float(tail["coeff"])),
            x_power=float(rec.get("x_power", 1.0)),
            zero_powers=frozenset(rec.get("zero_powers", ())),
        )


def add(f: RationalModel, g: RationalModel) -> RationalModel:
    """Exact sum of two rational models over the common denominator.

    Both operands must use the plain coordinate (x_power == 1) and carry
    no tail term.  Their denominator constants are both 1, so the product
    denominator's is exactly 1 too.

    Raises
    ------
    UnsupportedSubstitution
        If either operand has x_power != 1 or a tail term.
    EvaluationOverflow
        If a coefficient of the sum leaves the float range.
    """
    from numpy.polynomial.polynomial import polyadd, polymul  # not at import: numpy.polynomial costs a cold start ~4 ms
    for operand in (f, g):
        if operand.x_power != 1.0 or operand.tail is not None:
            raise UnsupportedSubstitution("add needs plain-coordinate models without tails")
    pf, qf = f._rows
    pg, qg = g._rows
    with np.errstate(all="ignore"):  # checked below
        num = polyadd(polymul(pf, qg), polymul(pg, qf))  # exact trailing zeros go, the constant stays
        den = polymul(qf, qg)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise EvaluationOverflow("the coefficients of the sum are out of float range")
    return RationalModel(numer=tuple(num), denom=tuple(den[1:]))


@dataclass(frozen=True)
class PoleReport:
    """Result of a denominator sign-change scan.

    sign_changes holds one (lo, hi, root) triple per bracketed real zero of
    the denominator, refined by bisection to POLE_REFINE_TOL in x, and
    min_abs_denominator is the smallest |Q| seen on the scan grid.  A scan
    evaluates its grid once for its whole batch, on the first read of any
    member's count or of these two fields; only sign_changes bisects.
    """

    scan_interval: tuple[float, float]
    scan_points: int
    min_abs_denominator: float
    sign_changes: tuple[tuple[float, float, float], ...]

    @classmethod
    def _deferred(cls, scan_interval, scan_points, scan, k, q, x_power) -> "PoleReport":
        # Member k of a scan batch: the batch's evaluation, its Q row and exponent stand in for the last two fields.
        report = object.__new__(cls)
        report.__dict__.update(scan_interval=scan_interval, scan_points=scan_points, _pending=(scan, k, q, x_power))
        return report

    def __getattr__(self, name):
        # Only a name missing from __dict__ lands here: a deferred field, read
        # from the batch's evaluation (sign_changes bisected) once and stored.
        # Q(lo) == 0.0 marks an exact-zero node, a degenerate bracket.
        pending = self.__dict__.get("_pending")
        if name not in ("min_abs_denominator", "sign_changes") or pending is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        scan, k, q, x_power = pending
        if name == "min_abs_denominator":
            self.__dict__[name] = low = scan()[1][k]
            return low
        found, den = [], _denominator(q, x_power)
        for lo, hi, vlo in scan()[0][k]:
            if vlo == 0.0:
                found.append((lo,) * 3)
                continue
            lo, hi = _bisect(den, lo, hi, vlo, POLE_REFINE_TOL)
            found.append((lo, hi, 0.5 * (lo + hi)))
        self.__dict__[name] = found = tuple(found)
        return found

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def count(self) -> int:
        pending = self.__dict__.get("_pending")
        return len(self.sign_changes if pending is None else pending[0]()[0][pending[1]])


def require_interval(a, b, name: str = "interval") -> None:
    """An interval [a, b] must have positive and finite length b - a."""
    if not (b > a):
        raise ValueError(f"{name} must have positive length")
    if not math.isfinite(float(b) - float(a)):  # inf or NaN for an infinite endpoint too
        raise ValueError(f"{name} must be finite, and so must its length")


def require_count(n, least: int, message: str, too_small: type[Exception] = ValueError) -> None:
    """A count must be an int or a numpy integer, not a bool, else
    ValueError; and at least `least`, else `too_small` with `message`."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"a count must be an integer, not {n!r}")
    if n < least:
        raise too_small(message)


def require_nonnegative(x, x_power: float) -> None:
    """Non-integer substitution powers are defined only for x >= 0."""
    if not float(x_power).is_integer() and (np.asarray(x) < 0.0).any():
        raise NegativeAbscissa("non-integer x_power needs x >= 0")


def require_power_range(a: float, b: float, q: float, name: str) -> None:
    """x**q must be defined on [a, b], checked at a, and finite, checked at the
    larger |end| by math.pow: else NegativeAbscissa or EvaluationOverflow."""
    require_nonnegative(a, q)
    try:
        math.pow(max(-a, b), q)
    except OverflowError:
        raise EvaluationOverflow(f"x**{q:g} is out of float range on the {name} [{a:g}, {b:g}]") from None


def _substitutions(x, exponents, ts=None) -> np.ndarray:
    # t = x**q for each of `exponents`, one row each, or one row for all
    # when they agree.  Each distinct exponent takes its own domain check and
    # scalar power (numpy's fast paths for 0.5, 1 and 2 round differently
    # from pow), once per `ts`: a caller's dict, exponent -> x**q, that keeps
    # them for its next call on the same x.
    xs = np.asarray(x, dtype=float)
    ts = {} if ts is None else ts
    distinct = dict.fromkeys(exponents)
    for q in distinct:
        if q not in ts:
            require_nonnegative(xs, q)
            ts[q] = xs**q
    return ts[q][None] if len(distinct) == 1 else np.stack([ts[q] for q in exponents])


def _stack(models) -> tuple[np.ndarray, list]:
    # The models' _rows as one (top, 2, K) stack of P and Q, coefficient first for
    # _horner and padded with top zeros (Horner's values unchanged); their exponents.
    c = np.zeros((max((m._rows.shape[1] for m in models), default=1), 2, len(models)))
    for k, m in enumerate(models):
        c[: m._rows.shape[1], :, k] = m._rows.T
    return c, [m.x_power for m in models]


def _horner(c, t) -> np.ndarray:
    # The polynomials of the (top, ..., K) coefficient stack c, each at its own
    # row of t, a (K, ...) or shared (1, ...) stack of substituted abscissae.
    # numpy's polyval in place, where it makes two stack-sized temporaries per
    # coefficient: IEEE products and sums commute, so every value keeps its bits.
    # A row that is zero across the stack is not added, except the constant:
    # adding +-0 can only turn a -0.0 into +0.0, and the next nonzero add, or
    # the constant's, gives the same value from either zero.  A -0.0 constant
    # keeps the sign of a zero before it, so such a stack adds every row.
    c = c.reshape(c.shape + (1,) * (t.ndim - 1))
    rows = c.reshape(len(c), -1)
    adds = rows.any(axis=1).tolist()
    adds[0] = True
    if not all(adds) and any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in rows[0].tolist()):
        adds = [True] * len(c)
    v = c[-1] + t * 0.0
    for i in range(len(c) - 2, -1, -1):
        v *= t
        if adds[i]:
            v += c[i]
    return v


def _slopes(c, exponents, x, ts=None):
    # dR/dx of each model of the (top, 2, K) stack c of P and Q by the quotient
    # rule, and its denominator values, one row per model.  P' and Q' in t, read
    # nowhere else, are built here with a top zero (Horner's values unchanged).
    # Entries where |Q| <= DENOM_TOL hold no slope: callers check the denominator
    # row before using a slope row.  Where Q*Q overflows and Q does not, the slope
    # is (P' - R*Q')/Q, R = P/Q; any other overflow leaves its entry inf or NaN
    # (with Q not finite, P'/Q would be 0).  A slope in t that underflowed from
    # a numerator in the normal range is taken again with the chain-rule factor
    # applied before the divisions by Q.  `ts` keeps x**q and the factor's
    # x**(q - 1), as for _substitutions; the factor is taken only past the
    # x = 0 check, where it would divide by 0.
    xs = np.asarray(x, dtype=float)
    t = _substitutions(xs, exponents, ts)
    if np.any(xs == 0.0) and (low := min(exponents)) < 1.0:
        raise SingularDerivative(f"dR/dx at x = 0 needs x_power >= 1, not {low:g}")
    rows = np.zeros((len(c), 4, c.shape[2]))
    rows[:, :2] = c
    rows[:-1, 2:] = c[1:] * np.arange(1.0, len(c))[:, None, None]
    num, den, dnum, dden = _horner(rows, t)
    square = den * den
    numer = dnum * den - num * dden
    out = numer / np.where(np.abs(den) <= DENOM_TOL, 1.0, square)
    if (big := np.isinf(square)).any():
        big &= np.isfinite(den)
        out[big] = (dnum[big] - num[big] / den[big] * dden[big]) / den[big]
    if any(q != 1.0 for q in exponents):
        factors = _substitutions(xs, [q - 1.0 for q in exponents], ts)
        powers = np.reshape(exponents, (-1,) + (1,) * xs.ndim)
        lost = np.abs(out) < _SMALLEST_NORMAL  # a slope in t that may have underflowed
        out = out * powers * factors
        if lost.any():  # again where its numerator is normal, the factor taken before the divisions by Q
            lost &= ~(np.abs(numer) < _SMALLEST_NORMAL) & (np.abs(den) > DENOM_TOL) & (powers != 1.0)
            chain, d, top = np.broadcast_to(powers * factors, out.shape)[lost], den[lost], numer[lost]
            again = np.where(np.isfinite(top), top * chain / d / d, (dnum[lost] - num[lost] / d * dden[lost]) * chain / d)
            out[lost] = np.where(np.isfinite(again), again, out[lost])  # a factor past 1/Q: the first result stands
    return out, den


def pole_scan(model: RationalModel, interval: tuple[float, float], points: int = SCAN_POINTS) -> PoleReport:
    """Scan the denominator for sign changes on a uniform abscissa grid.

    The denominator is evaluated in the substituted coordinate t = x**x_power;
    brackets are refined by bisection on x.  An exact zero on a grid node is
    reported as a degenerate bracket, once per run of zero nodes.  Raises
    NegativeAbscissa for an interval below 0 with a non-integer x_power, and
    EvaluationOverflow where x**x_power at an end of the interval is out of
    float range.
    """
    return pole_scans((model,), interval, points)[0]


def pole_scans(models, interval: tuple[float, float], points: int = SCAN_POINTS) -> list[PoleReport]:
    """pole_scan of each model, [] for none: one stacked evaluation of the
    denominators on the grid, run on the first read of any report's values;
    each report bisects its own brackets, in grid order, when its
    sign_changes are first read."""
    return _scans(*_stack(models), interval, points)


def _scans(c, exponents, interval, points) -> list[PoleReport]:
    # The reports of one batch, sharing one _scan run on the first read; the
    # interval and, per exponent, the domain and range of t are checked now.
    a, b = float(interval[0]), float(interval[1])
    require_interval(a, b, "scan interval")
    require_count(points, 2, "need at least two scan points")
    for q in dict.fromkeys(exponents):
        require_power_range(a, b, q, "scan interval")
    memo: dict = {}  # the batch's one _scan, run on the first read of any member
    scan = lambda: memo.get(0) or memo.setdefault(0, _scan(c, exponents, a, b, points))
    return [PoleReport._deferred((a, b), points, scan, k, c[:, 1, k], q) for k, q in enumerate(exponents)]


def _scan(c, exponents, a, b, points) -> tuple[list, list]:
    # One stacked evaluation of the denominators on the grid: each model's
    # brackets and smallest |Q|.  The brackets, in grid order, are the sign
    # changes (never at a zero node) and the first nodes of zero runs among
    # nodes 0..points-2, as (lo, hi, Q(lo)), then a zero last node as (x, x, 0.0).
    # With every t finite (checked by _scans) a value may overflow to +-inf,
    # which keeps its sign, but never becomes NaN.  Each Q runs to its last nonzero
    # coefficient, one _horner per length: the zero rows above only add +-0 to it.
    xs = _scan_grid(a, b, points)
    q, t = c[:, 1], _substitutions(xs, exponents)
    lengths = (len(q) - (q[::-1] != 0.0).argmax(axis=0)).tolist()
    with np.errstate(over="ignore"):
        vals = np.empty((len(lengths), points))
        for n in (distinct := set(lengths)):
            ks = [k for k, length in enumerate(lengths) if length == n] if len(distinct) > 1 else slice(None)
            vals[ks] = _horner(q[:n, ks], t if len(t) == 1 else t[ks])
    zero = vals == 0.0
    opens = zero.copy()
    opens[:, 1:-1] &= ~zero[:, :-2]
    neg, pos = vals < 0.0, vals > 0.0  # signs, not a product that can underflow to 0 or overflow
    opens[:, :-1] |= (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
    ks, nodes = np.divmod(np.flatnonzero(opens), points)  # np.nonzero of a 2-d mask is several times slower
    ends = zip(xs[nodes].tolist(), xs[np.minimum(nodes + 1, points - 1)].tolist(), vals[ks, nodes].tolist())
    brackets: list = [[] for _ in exponents]
    for k, bracket in zip(ks.tolist(), ends):
        brackets[k].append(bracket)
    return brackets, np.abs(vals).min(axis=1).tolist()


@lru_cache(maxsize=8)
def _scan_grid(a: float, b: float, points: int) -> np.ndarray:
    # Searches and batches scan the same interval fit after fit: build each
    # grid once.  Read-only, since every caller shares it.
    xs = np.linspace(a, b, points)
    xs.setflags(write=False)
    return xs


def _denominator(q: np.ndarray, x_power: float):
    # Q(x**x_power) of a Python float, Q's coefficients q, for _bisect: Horner in
    # _horner's operation order and bits, and numpy's power (Python's ** and
    # math.pow differ from it in the last bit for some x; x**1.0 is x exactly).
    # Zero coefficients are not added, as in _horner: Q's constant is 1.
    top, *rest = q.tolist()[::-1]

    def value(x: float) -> float:
        t = x if x_power == 1.0 else float(np.asarray(x, dtype=float) ** x_power)
        v = top + t * 0.0
        for c in rest:
            v = c + v * t if c else v * t
        return v

    return value


def _bisect(f, lo: float, hi: float, flo: float, tol: float) -> tuple[float, float]:
    # Narrow a sign change of the scalar function f on [lo, hi], where
    # f(lo) = flo != 0, to a width of tol, or to two adjacent floats where
    # those lie farther apart, or to an exact zero (mid, mid).
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid, mid
        if (flo < 0.0) != (fmid < 0.0):  # neither is 0; their product can underflow
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi
