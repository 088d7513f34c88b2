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

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DenominatorZero,
    NegativeAbscissa,
    NormalizationImpossible,
    SingularDerivative,
    UnsupportedSubstitution,
)

#: Denominator magnitudes at or below this count as an exact zero.
DENOM_TOL = 1e-300

#: Absolute bracket width at which pole bisection stops.
POLE_REFINE_TOL = 1e-12

#: Number of nodes of a pole scan; every fit scans its data interval with it.
SCAN_POINTS = 1001


def denominator_zero(x, den) -> DenominatorZero | None:
    """The DenominatorZero at the first x where |Q| <= DENOM_TOL, or None
    when the denominator values `den` at `x` do not vanish."""
    ds = np.atleast_1d(den)
    if not np.min(np.abs(ds)) <= DENOM_TOL:
        return None
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    hit = xs[np.abs(ds) <= DENOM_TOL]
    return DenominatorZero(float(hit[0]) if hit.size else float(xs[0]))


@dataclass(frozen=True)
class Tail:
    """Shared coefficient on x**power added to numerator and denominator.

    power must exceed the degree of both polynomials; because the same
    coefficient multiplies the highest power on both sides of the ratio,
    the model tends to 1 as x grows.
    """

    power: int
    coeff: float

    def __post_init__(self):
        if self.power < 1:
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
        # and the tail, then of their derivatives in t for the quotient rule
        # (npoly.polyder's values, padded with a top zero, which leaves
        # Horner's values unchanged): one read-only (4, top) array.
        top = self.tail.power + 1 if self.tail is not None else max(len(self.numer), len(self.denom) + 1)
        c = np.zeros((4, top))
        c[0, : len(self.numer)] = self.numer
        c[1, 0] = 1.0
        c[1, 1 : len(self.denom) + 1] = self.denom
        if self.tail is not None:
            c[:2, self.tail.power] += self.tail.coeff
        c[2:, :-1] = c[:2, 1:] * np.arange(1.0, top)
        c[2:, -1] = c[:2, -1] * 0.0 if top == 1 else 0.0  # polyder of a constant
        c.setflags(write=False)
        return c

    @classmethod
    def _trusted(cls, numer, denom, tail, x_power, zero_powers, rows) -> "RationalModel":
        # A model from fields a fit has already checked, seeded with its read-only _rows.
        model = object.__new__(cls)
        model.__dict__.update(numer=numer, denom=denom, tail=tail, x_power=x_power, zero_powers=zero_powers, _rows=rows)
        return model

    def parts(self, x):
        """Numerator and denominator values P(t), Q(t) at t = x**x_power.

        Raises NegativeAbscissa for x < 0 with a non-integer x_power.
        """
        (num,), (den,) = stacked_parts((self,), x)
        return num, den

    def __call__(self, x):
        """Evaluate the model; scalar in, scalar out; array in, array out."""
        num, den = self.parts(x)
        if (err := denominator_zero(x, den)) is not None:
            raise err
        out = num / den
        return out if np.ndim(x) else float(out)

    def derivative(self, x):
        """First derivative dR/dx by the quotient rule (see `slopes`)."""
        (out,), (den,) = slopes((self,), x)
        if (err := denominator_zero(x, den)) is not None:
            raise err
        return out if np.ndim(x) else float(out)

    def taylor_coefficients(self, count: int) -> tuple[float, ...]:
        """First `count` Maclaurin coefficients of the model.

        Computed by power-series long division: with dense numerator a_i
        and denominator b_j (b_0 = 1),

            c_i = a_i - sum_{j=1..i} b_j * c_{i-j}.

        Requires x_power == 1, since for other powers the model is not a
        power series in x.
        """
        if self.x_power != 1.0:
            raise UnsupportedSubstitution("Maclaurin expansion needs x_power == 1")
        if count < 0:
            raise ValueError("count must be nonnegative")
        p, q = self._rows[:2]
        c = []
        for i in range(count):
            a_i = p[i] if i < len(p) else 0.0
            acc = a_i
            for j in range(1, i + 1):
                b_j = q[j] if j < len(q) else 0.0
                if b_j != 0.0:
                    acc -= b_j * c[i - j]
            c.append(float(acc))
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
        tail = rec.get("tail")
        return cls(
            numer=tuple(rec["numer"]),
            denom=tuple(rec.get("denom", ())),
            tail=None if tail is None else Tail(int(tail["power"]), float(tail["coeff"])),
            x_power=float(rec.get("x_power", 1.0)),
            zero_powers=frozenset(rec.get("zero_powers", ())),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "RationalModel":
        return cls.from_dict(json.loads(text))

    def __add__(self, other):
        if isinstance(other, RationalModel):
            return add(self, other)
        return NotImplemented


def _trim_trailing_zeros(c: np.ndarray, keep: int) -> np.ndarray:
    """Drop exact trailing zeros, keeping at least `keep` leading entries."""
    n = len(c)
    while n > keep and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def add(f: RationalModel, g: RationalModel) -> RationalModel:
    """Exact sum of two rational models over the common denominator.

    Both operands must use the plain coordinate (x_power == 1) and carry
    no tail term.  The result is renormalized so its denominator constant
    is exactly 1.

    Raises
    ------
    UnsupportedSubstitution
        If either operand has x_power != 1 or a tail term.
    NormalizationImpossible
        If the product denominator's constant term is zero.
    """
    for operand in (f, g):
        if operand.x_power != 1.0 or operand.tail is not None:
            raise UnsupportedSubstitution("add needs plain-coordinate models without tails")
    pf, qf = f._rows[:2]
    pg, qg = g._rows[:2]
    num = npoly.polyadd(npoly.polymul(pf, qg), npoly.polymul(pg, qf))
    den = npoly.polymul(qf, qg)
    c0 = den[0]
    if abs(c0) <= DENOM_TOL:
        raise NormalizationImpossible("sum denominator has zero constant term")
    num = np.atleast_1d(num) / c0
    den = np.atleast_1d(den) / c0
    num = _trim_trailing_zeros(num, keep=1)
    den = _trim_trailing_zeros(den, keep=1)
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
        found = []
        for lo, hi, vlo in scan()[0][k]:
            if vlo == 0.0:
                found.append((lo,) * 3)
                continue
            lo, hi = _bisect(q, x_power, lo, hi, vlo)
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


def require_nonnegative(x, x_power: float) -> None:
    """Non-integer substitution powers are defined only for x >= 0."""
    if not float(x_power).is_integer() and (np.asarray(x) < 0.0).any():
        raise NegativeAbscissa("non-integer x_power needs x >= 0")


def _substitutions(x, exponents) -> np.ndarray:
    # t = x**q for each of `exponents`, one row each, or one row for all
    # when they agree.  Each distinct exponent takes its own scalar power:
    # numpy's fast paths for 0.5, 1 and 2 round differently from pow.
    xs = np.asarray(x, dtype=float)
    ts = dict.fromkeys(exponents)
    for q in ts:
        require_nonnegative(xs, q)
        ts[q] = xs**q
    return ts[q][None] if len(ts) == 1 else np.stack([ts[q] for q in exponents])


def _stack(models) -> tuple[np.ndarray, list]:
    # The models' _rows as one (top, 4, K) stack, coefficient first for _horner
    # and padded with top zeros (Horner's values unchanged); their exponents.
    c = np.zeros((max(m._rows.shape[1] for m in models), 4, len(models)))
    for k, m in enumerate(models):
        c[: m._rows.shape[1], :, k] = m._rows.T
    return c, [m.x_power for m in models]


def _horner(c, t) -> np.ndarray:
    # The polynomials of the (top, ..., K) coefficient stack c, each at its own
    # row of t, a (K, ...) or shared (1, ...) stack of substituted abscissae.
    # numpy's polyval in place, where it makes two stack-sized temporaries per
    # coefficient: IEEE products and sums commute, so every value keeps its bits.
    c = c.reshape(c.shape + (1,) * (t.ndim - 1))
    v = c[-1] + t * 0.0
    for ci in c[-2::-1]:
        v *= t
        v += ci
    return v


def stacked_parts(models, x) -> tuple[np.ndarray, np.ndarray]:
    """P(t) and Q(t) at t = x**x_power of each model, one row per model."""
    c, exponents = _stack(models)
    return tuple(_horner(c[:, :2], _substitutions(x, exponents)))


def slopes(models, x) -> tuple[np.ndarray, np.ndarray]:
    """dR/dx of each model by the quotient rule, with its denominator
    values; one row per model.

    The chain rule contributes x_power * x**(x_power - 1) from the
    substitution; for x_power == 1 that factor is exactly 1.  Entries
    where |Q| <= DENOM_TOL hold no derivative: callers check the
    denominator row before using a slope row.

    Raises
    ------
    NegativeAbscissa
        For x < 0 with a non-integer x_power.
    SingularDerivative
        For x = 0 with x_power < 1, where the chain-rule factor is infinite.
    """
    return _slopes(*_stack(models), x)


def _slopes(c, exponents, x):
    xs = np.asarray(x, dtype=float)
    t = _substitutions(xs, exponents)
    if np.any(xs == 0.0) and (low := min(exponents)) < 1.0:
        raise SingularDerivative(f"dR/dx at x = 0 needs x_power >= 1, not {low:g}")
    num, den, dnum, dden = _horner(c, t)
    out = (dnum * den - num * dden) / np.where(np.abs(den) <= DENOM_TOL, 1.0, den * den)
    if any(q != 1.0 for q in exponents):
        out = out * np.reshape(exponents, (-1,) + (1,) * xs.ndim) * _substitutions(xs, [q - 1.0 for q in exponents])
    return out, den


def pole_scan(model: RationalModel, interval: tuple[float, float], points: int = SCAN_POINTS) -> PoleReport:
    """Scan the denominator for sign changes on a uniform abscissa grid.

    The denominator is evaluated in the substituted coordinate t = x**x_power;
    brackets are refined by bisection on x.  An exact zero on a grid node is
    reported as a degenerate bracket, once per run of zero nodes.  Raises
    NegativeAbscissa for an interval below 0 with a non-integer x_power.
    """
    return pole_scans((model,), interval, points)[0]


def pole_scans(models, interval: tuple[float, float], points: int = SCAN_POINTS) -> list[PoleReport]:
    """pole_scan of each model: one stacked evaluation of the denominators
    on the grid, run on the first read of any report's values; each report
    bisects its own brackets, in grid order, when its sign_changes are first
    read."""
    return _scans(*_stack(models), interval, points)


def _scans(c, exponents, interval, points) -> list[PoleReport]:
    # The reports of one batch, sharing one _scan run on the first read; the
    # interval and the domain (the grid's lowest node is a) are checked now.
    a, b = float(interval[0]), float(interval[1])
    require_interval(a, b, "scan interval")
    if points < 2:
        raise ValueError("need at least two scan points")
    for q in dict.fromkeys(exponents):
        require_nonnegative(a, q)
    memo: dict = {}  # the batch's one _scan, run on the first read of any member
    scan = lambda: memo.get(0) or memo.setdefault(0, _scan(c, exponents, a, b, points))
    return [PoleReport._deferred((a, b), points, scan, k, c[:, 1, k], q) for k, q in enumerate(exponents)]


def _scan(c, exponents, a, b, points) -> tuple[list, list]:
    # One stacked evaluation of the denominators on the grid: each model's
    # brackets and smallest |Q|.  The brackets, in grid order, are the sign
    # changes (never at a zero node) and the first nodes of zero runs among
    # nodes 0..points-2, as (lo, hi, Q(lo)), then a zero last node as (x, x, 0.0).
    xs = _scan_grid(a, b, points)
    vals = _horner(c[:, 1], _substitutions(xs, exponents))
    zero = vals == 0.0
    opens = zero.copy()
    opens[:, 1:-1] &= ~zero[:, :-2]
    opens[:, :-1] |= vals[:, :-1] * vals[:, 1:] < 0.0
    ks, nodes = np.nonzero(opens)
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


def _bisect(q: np.ndarray, x_power: float, lo: float, hi: float, vlo: float):
    # Narrow a sign change of the denominator Q(x**x_power) on [lo, hi],
    # where Q(lo) = vlo, to POLE_REFINE_TOL (or to an exact zero).  Horner
    # runs in Python floats with _horner's operation order, so the
    # values are its bits.  The power stays numpy's: Python's ** and
    # math.pow differ from it in the last bit for some arguments, and
    # x**1.0 is x exactly.
    top, *rest = q.tolist()[::-1]
    while hi - lo > POLE_REFINE_TOL:
        mid = 0.5 * (lo + hi)
        t = mid if x_power == 1.0 else float(np.asarray(mid, dtype=float) ** x_power)
        vmid = top + t * 0.0
        for c in rest:
            vmid = c + vmid * t
        if vmid == 0.0:
            return mid, mid
        if vlo * vmid < 0.0:
            hi = mid
        else:
            lo, vlo = mid, vmid
    return lo, hi
