"""Command-line surface: exit codes, report documents, and file formats."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import padefit
from padefit import Dataset, DerivativeGridSpec, FitConfig, fit_regularized, rmse
from padefit.cli import _num, format_points, main, read_points
from padefit.datagen import sin2pi, uniform_grid
from padefit.rational import RationalModel
from padefit.weibull import WeibullParams, median_ranks, weibull_cdf

DATA = Path(__file__).resolve().parent.parent / "data"
TABLE1 = str(DATA / "table1.csv")


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # a cold start skips numpy.polynomial: only the MTTF quadrature's Gauss
    # rules import it, on first use
    src = str(Path(padefit.__file__).resolve().parent.parent)
    code = "import sys, padefit.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sin21(tmp_path):
    x = uniform_grid(0.0, 1.0, 20)
    path = tmp_path / "sin21.csv"
    path.write_text(format_points(x, sin2pi(x)))
    return str(path)


@pytest.fixture
def collinear(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text(format_points([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]))
    return str(path)


# -- fit ---------------------------------------------------------------------


def test_fit_collinear_line_is_exact(capsys, collinear):
    code, out, _ = run(capsys, ["fit", collinear, "--n", "1", "--m", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["s"] <= 1e-18
    assert doc["config"]["n"] == 1 and doc["config"]["m"] == 0
    assert doc["poles"]["count"] == 0


def test_fit_table1_cdf_unregularized(capsys):
    code, out, _ = run(
        capsys,
        ["fit", TABLE1, "--form", "cdf", "--n", "6", "--m", "0", "--l", "12"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["d"] == pytest.approx(0.0236606728852017748, rel=1e-9)
    assert doc["poles"]["count"] >= 1
    assert doc["config"]["form"] == "cdf"


def test_fit_der_points_apply_over_the_data_interval(capsys):
    # --der-points sizes the smoothness grid without --der-interval too
    argv = ["fit", TABLE1, "--form", "cdf", "--n", "6", "--m", "0", "--l", "12", "--lambda", "0.0025"]
    code, out, _ = run(capsys, argv + ["--der-points", "100"])
    assert code == 0
    data = Dataset(*read_points(TABLE1))
    config = FitConfig.cdf_form(6, 0, 12, lam=0.0025)
    want = fit_regularized(data, config, DerivativeGridSpec(data.interval(), 100)).d_der
    assert json.loads(out)["metrics"]["d_der"] == want
    assert want != fit_regularized(data, config).d_der


def test_fit_overflowing_d_der_exits_2(capsys):
    # the (3, 2) slopes overflow on a derivative grid reaching 1e200: a
    # typed error, not d_der = null with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["fit", TABLE1, "--n", "3", "--m", "2", "--der-interval", "0:1e200"])
    assert (code, out) == (2, "")
    assert "EvaluationOverflow" in err and "out of float range" in err


def test_fit_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["fit", str(tmp_path / "nope.csv"), "--n", "1", "--m", "0"])
    assert code == 1
    assert out == ""
    assert err != ""


def test_fit_bad_header(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    code, out, _ = run(capsys, ["fit", str(path), "--n", "1", "--m", "0"])
    assert code == 1
    assert out == ""


def test_fit_rejects_an_x_span_beyond_the_float_range(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(format_points([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["fit", str(path), "--n", "0", "--m", "0"])
    assert code == 1
    assert out == ""
    assert err == "error: x must span a finite interval\n"


def test_fit_too_few_points_is_fit_failure(capsys, collinear):
    code, out, err = run(capsys, ["fit", collinear, "--n", "5", "--m", "0"])
    assert code == 2
    assert out == ""
    assert "InsufficientData" in err


def test_fit_cdf_requires_tail_power(capsys, collinear):
    code, _, err = run(capsys, ["fit", collinear, "--form", "cdf", "--n", "2", "--m", "0"])
    assert code == 1
    assert "--l" in err


def test_fit_exact_fn_enables_truth_metrics(capsys, sin21):
    code, out, _ = run(
        capsys,
        ["fit", sin21, "--n", "5", "--m", "2", "--exact-fn", "sin"],
    )
    assert code == 0
    doc = json.loads(out)
    # noiseless samples: data-to-truth error is exactly zero
    assert doc["metrics"]["d0"] == 0.0
    assert doc["metrics"]["d1"] is not None


def test_fit_exact_fn_weibull_parameters(capsys):
    code, out, _ = run(capsys, ["fit", TABLE1, "--n", "2", "--m", "0", "--exact-fn", "weibull:1:2"])
    assert code == 0
    x, f = read_points(TABLE1)
    assert json.loads(out)["metrics"]["d0"] == rmse(f, weibull_cdf(WeibullParams(1.0, 2.0), x))


def test_fit_unknown_exact_fn(capsys, sin21):
    code, _, err = run(capsys, ["fit", sin21, "--n", "2", "--m", "0", "--exact-fn", "cosine"])
    assert code == 1
    assert "cosine" in err


# -- interpolate ---------------------------------------------------------------


def test_interpolate_every_second_point(capsys, sin21):
    code, out, _ = run(
        capsys,
        ["interpolate", sin21, "--n", "8", "--m", "2",
         "--zero-mask", "0,8", "--refs", "every-second-point"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reference_points"]) == 11
    assert doc["metrics"]["d"] <= 1e-4


def test_interpolate_every_second_point_sorts_the_rows_stably(capsys, tmp_path):
    # the references are every second row in x order, whatever the file's
    # row order, and of two rows with one x the earlier one in the file
    x = uniform_grid(0.0, 1.0, 20)
    order = np.random.default_rng(7).permutation(len(x))
    xs = np.concatenate([[1.0], x[order]])
    fs = np.concatenate([[0.0], sin2pi(x)[order]])
    assert not np.all(np.diff(xs) >= 0.0)
    argv = ["--n", "8", "--m", "2", "--zero-mask", "0,8", "--refs", "every-second-point"]
    docs = []
    for name, rows in (("shuffled.csv", slice(None)), ("sorted.csv", np.argsort(xs, kind="stable"))):
        path = tmp_path / name
        path.write_text(format_points(xs[rows], fs[rows]))
        code, out, _ = run(capsys, ["interpolate", str(path)] + argv)
        assert code == 0
        docs.append(json.loads(out))
    want = [[float(a), float(b)] for a, b in zip(x[0:20:2], sin2pi(x[0:20:2]))] + [[1.0, 0.0]]
    assert docs[0]["reference_points"] == docs[1]["reference_points"] == want
    assert docs[0]["model"] == docs[1]["model"]


def test_interpolate_group_size_and_anchors(capsys, tmp_path):
    x = np.linspace(0.0, 1.0, 47)
    path = tmp_path / "sin47.csv"
    path.write_text(format_points(x, sin2pi(x)))
    code, out, _ = run(
        capsys,
        ["interpolate", str(path), "--n", "8", "--m", "2", "--zero-mask", "0,8",
         "--group-size", "5", "--anchors", "0,0;1,0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reference_points"]) == 11
    refs_x = [p[0] for p in doc["reference_points"]]
    assert refs_x == sorted(refs_x)
    assert 0.0 in refs_x and 1.0 in refs_x


def test_interpolate_ref_count_mismatch(capsys, sin21, tmp_path):
    refs = tmp_path / "refs3.csv"
    refs.write_text(format_points([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
    code, out, err = run(
        capsys, ["interpolate", sin21, "--n", "8", "--m", "2", "--refs", str(refs)]
    )
    assert code == 1
    assert out == ""
    assert "CountMismatch" in err


def test_interpolate_needs_one_ref_source(capsys, sin21):
    code, _, _ = run(capsys, ["interpolate", sin21, "--n", "2", "--m", "0"])
    assert code == 1
    code, _, _ = run(
        capsys,
        ["interpolate", sin21, "--n", "2", "--m", "0",
         "--refs", "every-second-point", "--group-size", "3"],
    )
    assert code == 1


# -- search --------------------------------------------------------------------


def test_search_single_cell_matches_fit(capsys):
    code_s, out_s, _ = run(
        capsys,
        ["search", TABLE1, "--form", "cdf", "--n-range", "6:6",
         "--m-range", "0:0", "--l-list", "12"],
    )
    code_f, out_f, _ = run(
        capsys,
        ["fit", TABLE1, "--form", "cdf", "--n", "6", "--m", "0", "--l", "12"],
    )
    assert code_s == 0 and code_f == 0
    doc_s, doc_f = json.loads(out_s), json.loads(out_f)
    assert len(doc_s["candidates"]) == 1
    assert doc_s["model"] == doc_f["model"]
    # fit fills d_der from its default grid; search ranks on s and leaves it unset
    assert doc_s["metrics"] == dict(doc_f["metrics"], d_der=None)


def test_search_table_covers_all_cells(capsys):
    code, out, _ = run(
        capsys,
        ["search", TABLE1, "--form", "cdf", "--n-range", "2:8",
         "--m-range", "0:0", "--l-list", "8,10,12"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 7 * 1 * 3
    assert doc["metrics"]["d"] <= 0.032
    assert doc["poles"]["count"] == 0


def test_search_cdf_requires_tail_powers(capsys):
    # an empty --l-list is no list, as if the flag were left out
    for extra in ([], ["--l-list="]):
        argv = ["search", TABLE1, "--form", "cdf", "--n-range", "1:2", "--m-range", "0:0", *extra]
        assert run(capsys, argv) == (1, "", "error: --form cdf requires --l-list (tail powers to try)\n")


def test_fit_solve_block_reports_conditioning(capsys, collinear):
    code, out, _ = run(capsys, ["fit", collinear, "--n", "1", "--m", "0"])
    assert code == 0
    solve = json.loads(out)["solve"]
    assert set(solve) == {"condition", "rank", "condition_flag"}
    assert solve["rank"] == 2
    assert 1.0 <= solve["condition"] < 1e3
    assert solve["condition_flag"] is False


# -- sweep ---------------------------------------------------------------------


def test_sweep_whose_chosen_row_failed_exits_2(capsys, tmp_path):
    # two points for four coefficients: every row fails, and the sweep
    # falls back to the last one, which has no report to emit
    path = tmp_path / "two.csv"
    path.write_text("x,y\n0,1\n1,2")
    code, out, err = run(capsys, ["sweep", str(path), "--n", "3", "--m", "0", "--lambda-grid", "0,1"])
    assert (code, out) == (2, "")
    assert err.startswith("NoFeasibleModel: the fit at the chosen lambda failed")


def test_sweep_reports_rows_and_choice(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", TABLE1, "--form", "cdf", "--n", "6", "--m", "0", "--l", "12",
         "--lambda-grid", "0,0.0005,0.001,0.002,0.0025,0.005,0.01",
         "--der-interval", "0:2", "--der-points", "40"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["sweep"]["rows"]) == 7
    assert 0.002 <= doc["sweep"]["chosen_lambda"] <= 0.005
    # the echoed config carries the chosen weight, so the report re-runs as-is
    assert doc["config"]["lambda"] == doc["sweep"]["chosen_lambda"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", TABLE1, "--n", "2", "--m", "1", "--lambda", "nan"],
        ["fit", TABLE1, "--n", "2", "--m", "1", "--lambda", "inf"],
        ["fit", TABLE1, "--n", "2", "--m", "1", "--lambda1", "nan"],
        ["fit", TABLE1, "--n", "2", "--m", "1", "--q", "inf"],
        ["fit", TABLE1, "--n", "2", "--m", "1", "--der-interval", "0:inf"],
        ["sweep", TABLE1, "--n", "2", "--m", "1", "--lambda-grid", "0,nan,1"],
        ["search", TABLE1, "--n-range", "0:2", "--m-range", "0:1", "--q-grid", "1,inf"],
        ["search", TABLE1, "--n-range", "0:2", "--m-range", "0:1", "--lambda", "nan"],
    ],
)
def test_nonfinite_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", TABLE1, "--n", "-1", "--m", "0"], "degrees must be nonnegative"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--der-interval", "2:1"], "interval must have positive length"),
        (["interpolate", TABLE1, "--n", "2", "--m", "1", "--group-size", "0"], "group_size must be positive"),
        (["search", TABLE1, "--n-range", "3:1", "--m-range", "0:1"], "degree ranges must be nondecreasing"),
        (["sweep", TABLE1, "--n", "2", "--m", "1", "--lambda-grid", "0.01,0.001"], "penalty grid must be strictly ascending"),
        (["generate", "--fn", "weibull", "--theta", "-1", "--count", "5"], "theta and shape must be positive"),
        (["generate", "--fn", "sin", "--grid", "0:1:0"], "need at least one subinterval"),
        (["generate", "--fn", "sin", "--grid", "0:1:4", "--sigma", "-1"], "sigma must be nonnegative"),
        (["generate", "--fn", "sin", "--grid", "0:1:4", "--sigma", "inf"], "sigma must be nonnegative and finite"),
        (["generate", "--fn", "sin", "--grid", "0:1:4", "--seed", "-1"], "seed must be nonnegative"),
        (["generate", "--fn", "weibull", "--count", "5", "--seed", "-1"], "seed must be nonnegative"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--der-interval", "0:1.7e308", "--der-points", "3"],
         "interval and count put grid nodes out of float range"),
    ],
)
def test_library_value_errors_are_usage_errors(capsys, argv, message):
    # a ValueError from the library reaches stderr with its own text, exit 1
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


# -- eval ----------------------------------------------------------------------


def test_eval_constant_model(capsys, tmp_path):
    model = RationalModel(numer=(3.0,), denom=())
    path = tmp_path / "const.json"
    path.write_text(json.dumps(model.to_dict()))
    code, out, _ = run(capsys, ["eval", "--model", str(path), "--points", "0:1:5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,r,dr"
    assert len(lines) == 6
    for line in lines[1:]:
        _, r, dr = line.split(",")
        assert float(r) == 3.0
        assert float(dr) == 0.0


def test_eval_regularized_fit_is_monotone(capsys, tmp_path):
    report = tmp_path / "fit.json"
    code, _, _ = run(
        capsys,
        ["fit", TABLE1, "--form", "cdf", "--n", "6", "--m", "0", "--l", "12",
         "--lambda", "0.0025", "--out", str(report)],
    )
    assert code == 0
    code, out, _ = run(capsys, ["eval", "--model", str(report), "--points", "0:2:200"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 201
    r = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.diff(r) >= 0.0)


def test_eval_round_trip_reproduces_s(capsys, tmp_path):
    report_path = tmp_path / "fit.json"
    run(
        capsys,
        ["fit", TABLE1, "--form", "cdf", "--n", "6", "--m", "0", "--l", "12",
         "--lambda", "0.0025", "--out", str(report_path)],
    )
    code, out, _ = run(capsys, ["eval", "--model", str(report_path), "--points-file", TABLE1])
    assert code == 0
    x, f = read_points(TABLE1)
    r = np.array([float(line.split(",")[1]) for line in out.strip().splitlines()[1:]])
    s_again = float(np.sum((r - f) ** 2))
    s_reported = json.loads(report_path.read_text())["metrics"]["s"]
    assert abs(s_again - s_reported) <= 1e-12 * max(1.0, s_reported)


@pytest.mark.parametrize(
    "text, points, message",
    [
        (None, "0:1:5", "No such file"),
        ("{", "0:1:5", "not valid JSON"),
        ('{"numer": [1.0]}', "0:1:0", "--points: COUNT must be positive"),
    ],
)
def test_eval_rejects_a_missing_or_broken_model_file_and_an_empty_grid(capsys, tmp_path, text, points, message):
    path = tmp_path / "model.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, ["eval", "--model", str(path), "--points", points])
    assert (code, out) == (1, "")
    assert message in err


def test_eval_needs_one_grid_source(capsys, tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(RationalModel(numer=(1.0,), denom=()).to_dict()))
    code, _, _ = run(capsys, ["eval", "--model", str(model)])
    assert code == 1
    code, _, _ = run(
        capsys,
        ["eval", "--model", str(model), "--points", "0:1:5", "--points-file", TABLE1],
    )
    assert code == 1


def test_eval_fractional_power_at_origin_exits_2(capsys, tmp_path):
    # dR/dx of a sqrt-substituted model is unbounded at x = 0: a typed error
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps(RationalModel(numer=(0.0, 1.0), x_power=0.5).to_dict()))
    code, out, err = run(capsys, ["eval", "--model", str(path), "--points", "0:1:11"])
    assert code == 2
    assert out == ""
    assert "x_power" in err
    code, _, _ = run(capsys, ["eval", "--model", str(path), "--points", "0.1:1:10"])
    assert code == 0


@pytest.mark.parametrize("points", ["nan:1:3", "0:inf:5", "-1e308:1e308:3"])
def test_eval_rejects_a_grid_of_nonfinite_length(capsys, tmp_path, points):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(RationalModel(numer=(3.0,), denom=()).to_dict()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["eval", "--model", str(path), f"--points={points}"])
    assert (code, out) == (1, "")
    assert "--points" in err


def test_eval_overflow_exits_2(capsys, tmp_path):
    # R = (1 + 2x)/(1 + 0.5x) at x = 1e308: 2x overflows
    path = tmp_path / "m.json"
    path.write_text(json.dumps(RationalModel((1.0, 2.0), (0.5,)).to_dict()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["eval", "--model", str(path), "--points", "1e308:1e308:1"])
    assert (code, out) == (2, "")
    assert "out of float range" in err


def test_eval_descending_and_one_point_grids(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps(RationalModel(numer=(3.0,), denom=()).to_dict()))
    for points, xs in (("1:0:3", [1.0, 0.5, 0.0]), ("0:1:1", [0.0])):
        code, out, _ = run(capsys, ["eval", "--model", str(path), "--points", points])
        assert code == 0
        assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == xs


@pytest.mark.parametrize(
    "doc",
    [
        '{"hello": "world"}',
        '{"numer": "35", "denom": "1"}',  # no coefficient arrays: not (3 + 5x)/(1 + x)
        '{"numer": [1.0], "tail": {"power": 2.9, "coeff": 1.0}}',  # not a tail power of 2
    ],
)
def test_eval_rejects_non_model_file(capsys, tmp_path, doc):
    path = tmp_path / "junk.json"
    path.write_text(doc)
    code, out, err = run(capsys, ["eval", "--model", str(path), "--points", "0:1:5"])
    assert (code, out) == (1, "")
    assert "not a model document" in err


# -- generate ------------------------------------------------------------------


def test_generate_weibull_ranks_are_median_ranks(capsys):
    code, out, _ = run(
        capsys,
        ["generate", "--fn", "weibull", "--theta", "1", "--beta", "2",
         "--count", "10", "--seed", "5"],
    )
    assert code == 0
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    times = np.array([r[0] for r in rows])
    ranks = np.array([r[1] for r in rows])
    np.testing.assert_array_equal(ranks, median_ranks(10, 0.3))
    assert np.all(np.diff(times) > 0.0)


def test_generate_sigma_zero_is_exact(capsys):
    code, out, _ = run(capsys, ["generate", "--fn", "sin", "--grid", "0:1:10", "--sigma", "0"])
    assert code == 0
    x, y = zip(*[tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]])
    np.testing.assert_array_equal(np.array(y), sin2pi(np.array(x)))


def test_generate_same_seed_byte_identical(capsys):
    argv = ["generate", "--fn", "sqrtexp", "--grid", "0:2:10", "--sigma", "0.1", "--seed", "42"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_generate_flag_validation(capsys):
    code, _, _ = run(capsys, ["generate", "--fn", "weibull"])
    assert code == 1
    code, _, _ = run(capsys, ["generate", "--fn", "sin"])
    assert code == 1


# -- shared plumbing -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", TABLE1, "--n-range", "1", "--m-range", "0:1"], "--n-range"),
        (["search", TABLE1, "--n-range", "1:x", "--m-range", "0:1"], "--n-range"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--der-interval", "0:1:2"], "--der-interval"),
        (["search", TABLE1, "--n-range", "1:2", "--m-range", "0:1", "--q-grid", "1,,2"], "--q-grid"),
        (["sweep", TABLE1, "--n", "2", "--m", "1", "--lambda-grid", "a"], "--lambda-grid"),
        (["search", TABLE1, "--n-range", "1:2", "--m-range", "0:1", "--l-list", "8,x"], "--l-list"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--zero-mask", "0,x"], "--zero-mask"),
        (["interpolate", TABLE1, "--n", "2", "--m", "1", "--group-size", "2", "--anchors", "0,0;1"], "--anchors"),
        (["eval", "--model", "MODEL", "--points", "0:1"], "--points"),
        (["generate", "--fn", "sin", "--grid", "0:1:x"], "--grid"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--exact-fn", "weibull:1"], "--exact-fn"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--exact-fn", "nope"], "--exact-fn"),
        (["fit", TABLE1, "--n", "2", "--m", "1", "--exact-fn", "weibull:0:1"], "--exact-fn"),
    ],
)
def test_malformed_flag_values_are_usage_errors(capsys, tmp_path, argv, flag):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(RationalModel(numer=(1.0,)).to_dict()))
    code, out, err = run(capsys, [str(model) if a == "MODEL" else a for a in argv])
    assert (code, out) == (1, "")
    # the last line is the message; a usage line above it lists every flag
    assert flag in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, empty",
    [
        (["fit", TABLE1, "--n", "2", "--m", "1"], "--zero-mask="),
        (["fit", TABLE1, "--n", "2", "--m", "1"], "--der-interval="),
        (["fit", TABLE1, "--n", "2", "--m", "1"], "--exact-fn="),
        (["interpolate", TABLE1, "--n", "2", "--m", "1", "--group-size", "3"], "--anchors="),
        (["search", TABLE1, "--n-range", "1:2", "--m-range", "0:1"], "--l-list="),
        (["search", TABLE1, "--n-range", "1:2", "--m-range", "0:1"], "--q-grid="),
        (["sweep", TABLE1, "--n", "2", "--m", "1", "--lambda-grid", "0,0.01"], "--der-interval="),
    ],
)
def test_an_empty_flag_value_is_the_flag_left_out(capsys, argv, empty):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv + [empty]) == (0, out, "")


def test_version_and_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    helps = {}
    for command in ("fit", "interpolate", "search", "sweep", "eval", "generate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        helps[command] = capsys.readouterr().out
    # search declares --lambda1 through the same table as fit, help text included
    assert "ridge weight on denominator coefficients" in helps["search"]


def test_point_file_round_trip(tmp_path):
    x = [1.0 / 3.0, 1e-17, 6.02e23, -0.1]
    y = [math.pi, -1e-300, 2.0 ** -52, 0.0]
    path = tmp_path / "rt.csv"
    path.write_text(format_points(x, y))
    rx, ry = read_points(str(path))
    np.testing.assert_array_equal(rx, np.array(x))
    np.testing.assert_array_equal(ry, np.array(y))


@pytest.mark.parametrize(
    "text, message",
    [("x,y\n0,1\n1;2\n", ":3: expected '<decimal>,<decimal>', got '1;2'"), ("x,y\n", ": no data rows")],
)
def test_point_file_with_a_malformed_row_or_no_rows(capsys, tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run(capsys, ["fit", str(path), "--n", "0", "--m", "0"]) == (1, "", f"error: {path}{message}\n")


@pytest.mark.parametrize("value, rendered", [(None, None), (math.nan, None), (math.inf, "inf"), (-math.inf, "-inf"), (2.5, 2.5)])
def test_report_numbers_render_nan_as_null_and_infinities_as_strings(value, rendered):
    assert _num(value) == rendered


def test_point_file_crlf(capsys, tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"x,y\r\n0.0,1.0\r\n1.0,3.0\r\n2.0,5.0\r\n")
    code, out, _ = run(capsys, ["fit", str(path), "--n", "1", "--m", "0"])
    assert code == 0
    assert json.loads(out)["metrics"]["s"] <= 1e-18
