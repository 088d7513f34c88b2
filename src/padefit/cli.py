"""Command-line front end: fit, interpolate, search, sweep, eval, generate.

Every command reads point data from a small CSV dialect (header line
exactly ``x,y``, one decimal pair per line) and writes a JSON run report
or CSV table to stdout or ``--out``.  Reports echo the full fit
configuration, so any reported result can be reproduced by feeding the
echoed values back through the same command.

Exit codes: 0 success, 1 usage or input-format error, 2 fit failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import suppress
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .datagen import FUNCTIONS, NoiseSpec, sample_noisy, simulate_weibull_failures, uniform_grid
from .diagnostics import DerivativeGridSpec
from .errors import CountMismatch, DuplicateAbscissa, NoFeasibleModel, PadefitError
from .fitting import (
    Dataset,
    FitConfig,
    FitReport,
    build_reference_points,
    fit_regularized,
    interpolate_reference,
)
from .rational import RationalModel, require_count
from .selection import SearchSpace, grid_search, lambda_sweep
from .weibull import WeibullParams, median_ranks, weibull_cdf


class UsageError(Exception):
    """Bad flags, missing files, or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # instead so that 2 stays reserved for fit failures.
    def error(self, message):
        raise UsageError(f"{self.format_usage().strip()}\n{self.prog}: {message}")


# ---------------------------------------------------------------------------
# point files

_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def read_points(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a point file: header exactly ``x,y``, then decimal pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    if not lines or lines[0] != "x,y":
        raise UsageError(f"{path}: first line must be exactly 'x,y'")
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2 or not _FLOAT_RE.match(parts[0]) or not _FLOAT_RE.match(parts[1]):
            raise UsageError(f"{path}:{lineno}: expected '<decimal>,<decimal>', got {line!r}")
        xs.append(float(parts[0]))
        ys.append(float(parts[1]))
    if not xs:
        raise UsageError(f"{path}: no data rows")
    return np.asarray(xs), np.asarray(ys)


def format_points(x, y) -> str:
    """Render a point file.  repr of a Python float is the shortest string
    that parses back to the identical double, so rows round-trip exactly."""
    rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    return "x,y\n" + "\n".join(rows) + "\n"


def _write_output(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# flag values

def _split(form: str, sep: str, *kinds: Callable) -> Callable:
    """An argparse type for FORM values (``LO:HI``, ``I,J,...``): the text
    split on `sep`, part i converted by kinds[i], or each part of a list of
    any length by a lone kind.  A malformed value fails in the parser, which
    names the flag."""

    def convert(text: str) -> tuple:
        parts = text.split(sep)
        each = kinds if len(kinds) > 1 else kinds * len(parts)
        if len(parts) == len(each):
            with suppress(ValueError):
                return tuple(kind(part) for kind, part in zip(each, parts))
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")

    return convert


def _split_flag(form: str, sep: str, *kinds: Callable, required: bool = False, **kw) -> dict:
    """add_argument keywords for a flag with a FORM value.  An empty value of
    an optional flag is None, as if the flag were left out."""
    convert = _split(form, sep, *kinds)
    return dict(kw, required=required, metavar=form,
                type=lambda text: convert(text) if text or required else None)


def _exact_fn(spec: str) -> Callable | None:
    """--exact-fn: a FUNCTIONS name or weibull:THETA:SHAPE; empty is None."""
    if not spec or spec in FUNCTIONS:
        return FUNCTIONS.get(spec)
    if not spec.startswith("weibull:"):
        known = ", ".join(sorted(FUNCTIONS))
        raise argparse.ArgumentTypeError(f"unknown function {spec!r} (choose from {known}, weibull:THETA:SHAPE)")
    _, theta, shape = _split("weibull:THETA:SHAPE", ":", str, float, float)(spec)
    try:
        params = WeibullParams(theta, shape)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return lambda x: weibull_cdf(params, x)


def _load_dataset(args) -> Dataset:
    return Dataset(*read_points(args.data), underlying=args.exact_fn)


def _build_config(args) -> FitConfig:
    kwargs = dict(
        x_power=args.q,
        lam=args.lam,
        lam1=args.lam1,
        zero_powers=args.zero_mask or (),
    )
    if args.form == "cdf":
        if args.l is None:
            raise UsageError("--form cdf requires --l (the shared tail power)")
        return FitConfig.cdf_form(args.n, args.m, args.l, **kwargs)
    return FitConfig(n=args.n, m=args.m, tail_power=args.l, **kwargs)


# ---------------------------------------------------------------------------
# report rendering

def _num(value):
    """JSON-safe number: None for missing/NaN, strings for infinities."""
    if value is None:
        return None
    v = float(value)
    if math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _config_echo(config: FitConfig, form: str) -> dict:
    return {
        "form": form,
        "n": config.n,
        "m": config.m,
        "l": config.tail_power,
        "q": config.x_power,
        "lambda": config.lam,
        "lambda1": config.lam1,
        "zero_mask": sorted(config.zero_powers),
    }


def _report_body(report: FitReport) -> dict:
    poles = report.poles
    return {
        "model": report.model.to_dict(),
        "metrics": {
            "s": _num(report.s),
            "s0": _num(report.s0),
            "d": _num(report.d),
            "d0": _num(report.d0),
            "d1": _num(report.d1),
            "d_der": _num(report.d_der),
        },
        "denominator_vanishes": report.denominator_vanishes,
        "poles": {
            "count": poles.count,
            "scan_interval": [poles.scan_interval[0], poles.scan_interval[1]],
            "scan_points": poles.scan_points,
            "min_abs_denominator": _num(poles.min_abs_denominator),
            "sign_changes": [[_num(a), _num(b), _num(r)] for a, b, r in poles.sign_changes],
        },
        "solve": {
            "condition": _num(report.diagnostics.condition),
            "rank": report.diagnostics.rank,
            "condition_flag": report.diagnostics.condition_flag,
        },
    }


def _emit_report(args, data: Dataset, config: dict, report: FitReport, **extra) -> int:
    """Write a command's JSON report: the command, the data file, the
    config echo, the command's own blocks `extra`, then the report body."""
    doc = {
        "command": args.command,
        "data": {"file": args.data, "count": len(data)},
        "config": config,
        **extra,
        **_report_body(report),
    }
    _write_output(args.out, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


# ---------------------------------------------------------------------------
# commands

def cmd_fit(args) -> int:
    data = _load_dataset(args)
    config = _build_config(args)
    der_grid = DerivativeGridSpec(args.der_interval or data.interval(), args.der_points)
    report = fit_regularized(data, config, der_grid)
    return _emit_report(args, data, _config_echo(config, args.form), report)


def cmd_interpolate(args) -> int:
    data = _load_dataset(args)
    mask = frozenset(args.zero_mask or ())
    if (args.refs is None) == (args.group_size is None):
        raise UsageError("interpolate needs exactly one of --refs and --group-size")
    if args.refs == "every-second-point":
        order = np.argsort(data.x, kind="stable")[::2]
        refs = Dataset(data.x[order], data.f[order], underlying=data.underlying)
    elif args.refs is not None:
        rx, ry = read_points(args.refs)
        refs = Dataset(rx, ry, underlying=data.underlying)
    else:
        refs = build_reference_points(data, args.group_size, args.anchors or ())
    report = interpolate_reference(refs, args.n, args.m, mask, evaluate_on=data)
    config = {"n": args.n, "m": args.m, "zero_mask": sorted(mask)}
    points = [[float(a), float(b)] for a, b in zip(refs.x, refs.f)]
    return _emit_report(args, data, config, report, reference_points=points)


def cmd_search(args) -> int:
    data = _load_dataset(args)
    mask = frozenset(args.zero_mask or ())
    if args.form == "cdf":
        if args.l_list is None:
            raise UsageError("--form cdf requires --l-list (tail powers to try)")
        mask = mask | {0}
    space = SearchSpace(args.n_range, args.m_range, args.l_list, args.q_grid or (1.0,))
    best, rows = grid_search(data, space, lam=args.lam, lam1=args.lam1, zero_powers=mask)
    table = []
    for cand in rows:
        n, m, l, q = cand.attempt
        entry = {
            "n": n,
            "m": m,
            "l": l,
            "q": q,
            "s": _num(cand.report.s) if cand.report else None,
            "d": _num(cand.report.d) if cand.report else None,
            "pole_count": cand.report.poles.count if cand.report else None,
            "error": cand.error,
        }
        table.append(entry)
    config = {
        "form": args.form,
        "n_range": list(space.n_range),
        "m_range": list(space.m_range),
        "l_list": list(space.l_candidates) if space.l_candidates else None,
        "q_grid": list(space.q_grid),
        "lambda": args.lam,
        "lambda1": args.lam1,
        "zero_mask": sorted(mask),
    }
    return _emit_report(args, data, config, best, candidates=table)


def cmd_sweep(args) -> int:
    data = _load_dataset(args)
    config = _build_config(args)
    sweep = lambda_sweep(data, config, args.lambda_grid, args.der_interval, args.der_points)
    chosen = sweep.chosen_lam()
    row = sweep.rows[sweep.chosen]
    if row.report is None:
        raise NoFeasibleModel(f"the fit at the chosen lambda failed: {row.error}")
    block = {
        "rows": [
            {
                "lambda": row.lam,
                "d": _num(row.d),
                "d_der": _num(row.d_der),
                "pole_count": row.pole_count,
                "error": row.error,
            }
            for row in sweep.rows
        ],
        "chosen_index": sweep.chosen,
        "chosen_lambda": chosen,
    }
    return _emit_report(args, data, _config_echo(replace(config, lam=chosen), args.form), row.report, sweep=block)


def cmd_eval(args) -> int:
    try:
        with open(args.model, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.model}: not valid JSON ({exc})") from exc
    block = doc.get("model", doc) if isinstance(doc, dict) else None
    try:
        model = RationalModel.from_dict(block)
    except (TypeError, KeyError, ValueError) as exc:
        raise UsageError(f"{args.model}: not a model document ({exc})") from exc
    if (args.points is None) == (args.points_file is None):
        raise UsageError("eval needs exactly one of --points and --points-file")
    if args.points is not None:
        a, b, count = args.points
        require_count(count, 1, "--points: COUNT must be positive")
        if not math.isfinite(b - a):  # inf or NaN for a non-finite end too
            raise UsageError("--points: B - A must be finite")
        xs = np.linspace(a, b, count)
    else:
        xs, _ = read_points(args.points_file)
    values = np.asarray(model(xs), dtype=float)
    slopes = np.asarray(model.derivative(xs), dtype=float)
    rows = [f"{float(x)!r},{float(r)!r},{float(dr)!r}" for x, r, dr in zip(xs, values, slopes)]
    _write_output(args.out, "x,r,dr\n" + "\n".join(rows) + "\n")
    return 0


def cmd_generate(args) -> int:
    if args.fn == "weibull":
        if args.count is None:
            raise UsageError("generate --fn weibull requires --count")
        params = WeibullParams(args.theta, args.beta)
        times = simulate_weibull_failures(params, args.count, args.seed)
        ranks = median_ranks(args.count, args.rank_a)
        return_text = format_points(times, ranks)
    else:
        if args.grid is None:
            raise UsageError("generate with a function needs --grid A:B:SUBINTERVALS")
        xs = uniform_grid(*args.grid)
        data = sample_noisy(FUNCTIONS[args.fn], xs, NoiseSpec(args.sigma, args.seed))
        return_text = format_points(data.x, data.f)
    _write_output(args.out, return_text)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

# The flags that several commands take, each declared once; a command lists
# the ones it takes, in the order its help shows them.
_SHARED_FLAGS = {
    "data": dict(help="input point file (CSV with header 'x,y')"),
    "--exact-fn": dict(type=_exact_fn, metavar="NAME",
                       help="underlying exact function for d0/d1 metrics: "
                            "sin, resonance, sqrtexp, or weibull:THETA:SHAPE"),
    "--out": dict(metavar="PATH", help="write output here instead of stdout"),
    "--form": dict(choices=("free", "cdf"), default="free",
                   help="free: plain ratio; cdf: R(0)=0 and R(inf)=1 via a shared tail term"),
    "--n": dict(type=int, required=True, help="numerator degree"),
    "--m": dict(type=int, required=True, help="denominator degree"),
    "--l": dict(type=int, help="shared tail power (required for --form cdf)"),
    "--q": dict(type=float, default=1.0, help="abscissa substitution exponent (fit on x**q)"),
    "--lambda": dict(dest="lam", type=float, default=0.0, help="ridge weight on numerator and tail coefficients"),
    "--lambda1": dict(dest="lam1", type=float, default=0.0, help="ridge weight on denominator coefficients"),
    "--zero-mask": _split_flag("I,J,...", ",", int, help="numerator powers pinned to zero"),
    "--der-interval": _split_flag("A:B", ":", float, float,
                                  help="interval for the derivative-smoothness metric (default: data interval)"),
    "--der-points": dict(type=int, default=40, metavar="N", help="grid size for the derivative-smoothness metric"),
}
_FIT_FLAGS = ("data", "--exact-fn", "--out", "--form", "--n", "--m", "--l", "--q",
              "--lambda", "--lambda1", "--zero-mask", "--der-interval", "--der-points")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_SHARED_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="padefit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    fit = sub.add_parser("fit", help="least-squares rational fit",
                         description="Fit a rational function to a point file.")
    _add_flags(fit, *_FIT_FLAGS)
    fit.set_defaults(func=cmd_fit)

    interp = sub.add_parser("interpolate", help="fit passing exactly through reference points",
                            description="Interpolate through reference points, either given "
                                        "or condensed from the data by subset averaging.")
    _add_flags(interp, "data", "--exact-fn", "--out", "--n", "--m", "--zero-mask")
    interp.add_argument("--refs", metavar="PATH", help="reference point file, or 'every-second-point'")
    interp.add_argument("--group-size", type=int, metavar="K",
                        help="average consecutive groups of K data points into reference points")
    interp.add_argument("--anchors", **_split_flag("X,Y;X,Y", ";", _split("X,Y", ",", float, float),
                                                   help="exact extra reference points appended to the "
                                                        "averaged ones"))
    interp.set_defaults(func=cmd_interpolate)

    search = sub.add_parser("search", help="exhaustive structure search",
                            description="Fit every structure in the given ranges and rank them.")
    _add_flags(search, "data", "--exact-fn", "--out", "--form")
    search.add_argument("--n-range", **_split_flag("LO:HI", ":", int, int, required=True,
                                                   help="numerator degree range"))
    search.add_argument("--m-range", **_split_flag("LO:HI", ":", int, int, required=True,
                                                   help="denominator degree range"))
    search.add_argument("--l-list", **_split_flag("L1,L2,...", ",", int, help="tail powers to try"))
    search.add_argument("--q-grid", **_split_flag("Q1,Q2,...", ",", float,
                                                  help="substitution exponents to try (default: 1)"))
    _add_flags(search, "--lambda", "--lambda1", "--zero-mask")
    search.set_defaults(func=cmd_search)

    sweep = sub.add_parser("sweep", help="ridge-weight sweep with automatic choice",
                           description="Refit over a grid of numerator ridge weights, tabulate "
                                       "error and smoothness, and report the chosen weight.")
    _add_flags(sweep, *_FIT_FLAGS)
    sweep.add_argument("--lambda-grid", **_split_flag("L1,L2,...", ",", float, required=True,
                                                      help="ascending ridge weights to sweep"))
    sweep.set_defaults(func=cmd_sweep)

    ev = sub.add_parser("eval", help="tabulate a fitted model",
                        description="Evaluate a model (from a fit report or bare model JSON) "
                                    "on a grid; emits CSV columns x, r, dr.")
    ev.add_argument("--model", required=True, metavar="PATH",
                    help="JSON file: a fit report or a bare model block")
    ev.add_argument("--points", **_split_flag("A:B:COUNT", ":", float, float, int, help="uniform evaluation grid"))
    ev.add_argument("--points-file", metavar="PATH", help="point file whose x column is the evaluation grid")
    _add_flags(ev, "--out")
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("generate", help="synthetic datasets",
                         description="Generate noisy function samples or simulated failure data.")
    gen.add_argument("--fn", required=True, choices=tuple(sorted(FUNCTIONS)) + ("weibull",),
                     help="function to sample, or 'weibull' for failure times with median ranks")
    gen.add_argument("--sigma", type=float, default=0.0, help="relative noise level")
    gen.add_argument("--seed", type=int, default=0, help="PRNG seed")
    gen.add_argument("--grid", **_split_flag("A:B:SUBINTERVALS", ":", float, float, int,
                                             help="sampling grid for function targets"))
    gen.add_argument("--count", type=int, help="number of failure times (weibull)")
    gen.add_argument("--theta", type=float, default=1.0, help="scale (weibull)")
    gen.add_argument("--beta", type=float, default=1.0, help="shape (weibull)")
    gen.add_argument("--rank-a", type=float, default=0.3, help="plotting-position constant (weibull)")
    _add_flags(gen, "--out")
    gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PadefitError as exc:  # input-format errors of the reference points exit 1, fit failures 2
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (CountMismatch, DuplicateAbscissa)) else 2


if __name__ == "__main__":
    sys.exit(main())
