"""Workload inputs, tasks and correctness anchors.

Each library workload builds a pool of task inputs from the seed and runs
one task per input through the public padefit API.  A task returns its
outcome as a flat list of values: result floats, structure integers, or
the class name of a PadefitError that ended a step, which is a valid
typed outcome.  The outcome is what the determinism digest is taken over.

The cli_cold workload runs ``python -m padefit.cli`` on the shipped
failure-time table; its in-process references are built here too.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import padefit as pf
from padefit import FitConfig
from padefit.errors import PadefitError

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = "data/table1.csv"

#: Pool sizes: about 1.5 times the tasks one 25 s run completes at the
#: seed commit on the nominal host, so a timed run sees distinct inputs.
POOL_SIZE = {"extrapolation": 96, "structure_search": 384, "reliability": 2048}

# -- extrapolation: one replicate of the sqrt-decay study --------------------

Q_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(11))
SQRT_DER = pf.DerivativeGridSpec((0.0, 2.0), 100)


def _sqrt_data(seed: int) -> pf.Dataset:
    return pf.sample_noisy(pf.sqrt_exp, pf.uniform_grid(0.0, 2.0, 10), pf.NoiseSpec(0.1, seed))


def extrapolation_run(data: pf.Dataset) -> dict:
    """q_search for (3, 0), the base regularized fit, then tune_lambda1 for
    (3, 6, zero_powers={0}) at every q; returns the study's quantities."""
    q_star, poly = pf.q_search(data, FitConfig(n=3, m=0), Q_GRID)
    base = pf.fit_regularized(data, FitConfig(n=3, m=0, x_power=q_star), SQRT_DER)
    tuned = []
    best = None
    for q in Q_GRID:
        config = FitConfig(n=3, m=6, x_power=q, zero_powers=frozenset({0}))
        try:
            lam1, report = pf.tune_lambda1(data, config, base.d_der, der_grid=SQRT_DER)
        except PadefitError as exc:
            tuned.append(type(exc).__name__)
            continue
        tuned.extend((lam1, report.s))
        if best is None or report.s < best[2].s:
            best = (q, lam1, report)
    return {
        "q_star": q_star,
        "poly": poly,
        "base": base,
        "tuned": tuned,
        "best": best,
        "r4": float(best[2].model(4.0)) if best else None,
        "p4": float(base.model(4.0)),
    }


def extrapolation_task(data: pf.Dataset) -> list:
    run = extrapolation_run(data)
    best = run["best"]
    out = [run["q_star"], run["poly"].s, run["poly"].d1, run["base"].d_der, run["p4"]]
    out += run["tuned"]
    out += ["NoFeasibleModel"] if best is None else [best[0], best[1], run["r4"]]
    return out


# -- structure_search: grid search plus the reference-point route ------------

GRID_X = pf.uniform_grid(0.0, 1.0, 200)
REF_X = pf.uniform_grid(0.0, 1.0, 46)
GRID_SPACE = pf.SearchSpace(n_range=(0, 8), m_range=(0, 6))
ANCHORS = ((0.0, 0.0), (1.0, 0.0))


def _report_outcome(report) -> list:
    # A report whose denominator vanishes at a data point flags it and
    # carries +inf errors by contract; the flag is the outcome.
    if report.denominator_vanishes:
        return ["DenominatorVanishes"]
    return [report.s, report.d, report.poles.count]


def structure_task(inputs) -> list:
    grid_data, ref_data = inputs
    best, rows = pf.grid_search(grid_data, GRID_SPACE)
    out = [best.model.degree_numer, best.model.degree_denom, best.s, best.d]
    for cand in rows:
        out += _report_outcome(cand.report) if cand.report is not None else [cand.error]
    refs = pf.build_reference_points(ref_data, 5, anchors=ANCHORS)
    for n in range(11):
        try:
            report = pf.interpolate_reference(refs, n, 10 - n, evaluate_on=ref_data)
        except PadefitError as exc:
            out.append(type(exc).__name__)
            continue
        out += _report_outcome(report)
    return out


# -- reliability: the README's CDF route on one simulated sample -------------

LAMBDA_GRID = (0.0, 0.0005, 0.001, 0.002, 0.0025, 0.005, 0.01)
CDF_DER = pf.DerivativeGridSpec((0.0, 2.0), 40)


def reliability_task(data: pf.Dataset) -> list:
    times, ranks = data.x, data.f
    mle = pf.mle_fit(times)
    loglog = pf.transform_fit(times, ranks)
    out = [mle.theta, mle.shape, loglog.theta, loglog.shape, pf.mttf(mle)]
    config = FitConfig.cdf_form(6, 0, 12)
    sweep = pf.lambda_sweep(data, config, LAMBDA_GRID, (0.0, 2.0), 40)
    for row in sweep.rows:
        out += [row.lam, row.error] if row.error else [row.d, row.d_der, row.pole_count]
    lam = sweep.chosen_lam()
    refit = pf.fit_regularized(data, replace(config, lam=lam), CDF_DER)
    out += [lam, refit.d, refit.d_der]
    try:
        out.append(pf.mttf(refit.model, x_max=50.0 * float(times.max())))
    except PadefitError as exc:
        out.append(type(exc).__name__)
    return out


# -- pools -------------------------------------------------------------------


def _task_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def build_pool(workload: str, seed: int) -> list:
    """Task inputs for a library workload, all derived from the seed."""
    pool = []
    for i in range(POOL_SIZE[workload]):
        s = _task_seed(seed, i)
        if workload == "extrapolation":
            pool.append(_sqrt_data(s))
        elif workload == "structure_search":
            pool.append(
                (
                    pf.sample_noisy(pf.sin2pi, GRID_X, pf.NoiseSpec(0.01, s)),
                    pf.sample_noisy(pf.sin2pi, REF_X, pf.NoiseSpec(0.1, s + 500_000)),
                )
            )
        else:
            times = pf.simulate_weibull_failures(pf.WeibullParams(1.0, 2.0), 20, s)
            pool.append(pf.Dataset(times, pf.median_ranks(20)))
    return pool


TASKS = {
    "extrapolation": extrapolation_task,
    "structure_search": structure_task,
    "reliability": reliability_task,
}

# -- cli_cold ----------------------------------------------------------------

CDF_FLAGS = ["--form", "cdf", "--n", "6", "--m", "0", "--l", "12"]
CLI_COMMANDS = (
    ["fit", TABLE1, *CDF_FLAGS, "--lambda", "0.0025"],
    ["sweep", TABLE1, *CDF_FLAGS, "--lambda-grid", "0.0025,0.005,0.01", "--der-interval", "0:2"],
    ["search", TABLE1, "--form", "cdf", "--n-range", "1:6", "--m-range", "0:2", "--l-list", "8,12"],
)


def read_table1() -> pf.Dataset:
    lines = (ROOT / TABLE1).read_text(encoding="utf-8").splitlines()[1:]
    pairs = [tuple(float(v) for v in line.split(",")) for line in lines]
    return pf.Dataset([p[0] for p in pairs], [p[1] for p in pairs])


def cli_rotation(seed: int) -> list[list[str]]:
    """The three commands, starting at a seed-chosen offset."""
    k = seed % len(CLI_COMMANDS)
    return list(CLI_COMMANDS[k:] + CLI_COMMANDS[:k])


def cli_reference_d() -> dict[str, float]:
    """metrics.d of each CLI command, computed in process."""
    data = read_table1()
    config = FitConfig.cdf_form(6, 0, 12)
    fit = pf.fit_regularized(data, replace(config, lam=0.0025))
    sweep = pf.lambda_sweep(data, config, (0.0025, 0.005, 0.01), (0.0, 2.0), 40)
    chosen = pf.fit_regularized(data, replace(config, lam=sweep.chosen_lam()), CDF_DER)
    space = pf.SearchSpace(n_range=(1, 6), m_range=(0, 2), l_candidates=(8, 12))
    best, _rows = pf.grid_search(data, space, zero_powers=frozenset({0}))
    return {"fit": fit.d, "sweep": chosen.d, "search": best.d}


def build_inputs(workload: str, seed: int):
    """Everything a workload needs before its first task."""
    if workload == "cli_cold":
        return cli_rotation(seed), cli_reference_d()
    return build_pool(workload, seed)


# -- correctness anchors, on fixed inputs ------------------------------------

CANON = (84 / 17, 10 / 17, 220 / 17, 20 / 17, -16 / 17, -16 / 17, 0.0, 100 / 17)


def _rel(got, want, rel) -> bool:
    return abs(got - want) <= rel * abs(want)


def anchors(workload: str) -> list[tuple[str, object, bool]]:
    """(name, value, passed) for each acceptance anchor of a library workload."""
    if workload == "extrapolation":
        run = extrapolation_run(_sqrt_data(5))
        q, lam1, _report = run["best"] or (None, None, None)
        r4, p4 = run["r4"], run["p4"]
        return [
            ("q_star=0.65", run["q_star"], run["q_star"] == 0.65),
            ("tuned_q=0.65", q, q == 0.65),
            ("lambda1=0.25", lam1, lam1 is not None and abs(lam1 - 0.25) <= 1e-9),
            ("R(4)", r4, r4 is not None and _rel(r4, 0.02062149062136089, 1e-9)),
            ("P(4)", p4, _rel(p4, 0.5058019798996343, 1e-9)),
        ]
    if workload == "structure_search":
        xs = pf.uniform_grid(-1.0, 1.0, 20)
        report = pf.fit_linearized(pf.Dataset(xs, pf.resonance(xs)), FitConfig(n=3, m=4))
        got = report.model.numer + report.model.denom
        ok = len(got) == len(CANON) and all(
            abs(g) <= 1e-8 if w == 0.0 else _rel(g, w, 0.005) for g, w in zip(got, CANON)
        )
        return [("resonance(3,4) at 0.5%", list(got), ok)]
    if workload == "reliability":
        data = read_table1()
        config = FitConfig.cdf_form(6, 0, 12)
        fit = pf.fit_regularized(data, replace(config, lam=0.0025), CDF_DER)
        chosen = pf.lambda_sweep(data, config, LAMBDA_GRID, (0.0, 2.0), 40).chosen_lam()
        rational = pf.mttf(fit.model, x_max=100.0)
        mle = pf.mle_fit(data.x)
        return [
            ("D=0.03213", fit.d, abs(fit.d - 0.03213) <= 0.001),
            ("sweep choice in [0.002, 0.005]", chosen, 0.002 <= chosen <= 0.005),
            ("rational MTTF=0.8327", rational, abs(rational - 0.8327) <= 0.005),
            ("MLE theta=0.9488", mle.theta, abs(mle.theta - 0.9488) <= 0.001),
            ("MLE shape=2.252", mle.shape, abs(mle.shape - 2.252) <= 0.002),
        ]
    raise ValueError(f"no in-process anchors for {workload!r}")


def nonfinite(outcome: list) -> bool:
    """True when any float in the outcome is NaN or infinite."""
    return any(isinstance(v, float) and not math.isfinite(v) for v in outcome)
