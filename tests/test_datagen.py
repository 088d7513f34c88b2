"""Noise pipeline: fixed PRNG contract, grids, and bundled functions."""

import math
import warnings

import numpy as np
import pytest

from padefit import datagen
from padefit.datagen import (
    FUNCTIONS,
    NoiseSpec,
    normal_deviates,
    resonance,
    sample_noisy,
    simulate_weibull_failures,
    sin2pi,
    sqrt_exp,
    uniform_grid,
)
from padefit.weibull import WeibullParams, weibull_cdf


def test_noise_spec_rejects_a_bad_sigma_or_seed():
    # a non-finite sigma used to give NaN or infinite deviates
    for sigma in (-0.1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            NoiseSpec(sigma=sigma, seed=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        NoiseSpec(sigma=0.1, seed=-1)


# -- uniform_grid -----------------------------------------------------------


def test_uniform_grid_unit_interval():
    g = uniform_grid(0.0, 1.0, 20)
    assert len(g) == 21
    assert g[0] == 0.0 and g[-1] == 1.0
    np.testing.assert_allclose(np.diff(g), 0.05, rtol=1e-12)


def test_uniform_grid_symmetric_interval():
    g = uniform_grid(-1.0, 1.0, 20)
    assert len(g) == 21
    assert g[10] == 0.0


def test_uniform_grid_single_subinterval():
    np.testing.assert_array_equal(uniform_grid(0.0, 1.0, 1), [0.0, 1.0])


@pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0)])
def test_uniform_grid_validation(a, b, n):
    with pytest.raises(ValueError):
        uniform_grid(a, b, n)


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
def test_uniform_grid_rejects_infinite_endpoints(a, b):
    # finite endpoints whose difference overflows count as infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="interval must be finite"):
            uniform_grid(a, b, 5)


# -- normal_deviates --------------------------------------------------------


def test_normal_deviates_golden_contract():
    # Recompute the documented pipeline from scratch: PCG64 uniforms in
    # pairs, Box-Muller cosine branch.  Must match bit for bit.
    count, seed = 257, 42
    got = normal_deviates(count, NoiseSpec(sigma=1.0, seed=seed))
    u = np.random.Generator(np.random.PCG64(seed)).random(2 * count)
    u1, u2 = u[0::2], u[1::2]
    want = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
    np.testing.assert_array_equal(got, want)


def test_normal_deviates_scale_with_sigma():
    z = normal_deviates(64, NoiseSpec(sigma=1.0, seed=9))
    scaled = normal_deviates(64, NoiseSpec(sigma=2.0, seed=9))
    np.testing.assert_array_equal(scaled, 2.0 * z)


def test_normal_deviates_empty_and_negative():
    assert normal_deviates(0, NoiseSpec(sigma=1.0, seed=0)).shape == (0,)
    with pytest.raises(ValueError):
        normal_deviates(-1, NoiseSpec(sigma=1.0, seed=0))


def test_normal_deviates_moments():
    z = normal_deviates(10**5, NoiseSpec(sigma=0.1, seed=2024))
    assert abs(z.mean()) < 1e-3
    assert 0.099 < z.std() < 0.101


# -- sample_noisy -----------------------------------------------------------


def test_sample_noisy_zero_sigma_is_exact():
    x = uniform_grid(0.0, 1.0, 10)
    data = sample_noisy(sin2pi, x, NoiseSpec(sigma=0.0, seed=5))
    np.testing.assert_array_equal(data.f, sin2pi(x))
    assert data.underlying is sin2pi


def test_sample_noisy_reproducible():
    x = uniform_grid(0.0, 2.0, 10)
    spec = NoiseSpec(sigma=0.1, seed=123)
    a = sample_noisy(sqrt_exp, x, spec)
    b = sample_noisy(sqrt_exp, x, spec)
    np.testing.assert_array_equal(a.f, b.f)


def test_sample_noisy_is_multiplicative():
    x = np.linspace(0.0, 1.0, 10**5)
    spec = NoiseSpec(sigma=0.1, seed=2024)
    data = sample_noisy(lambda t: np.full_like(t, 2.0), x, spec)
    ratio = data.f / 2.0
    assert 0.999 < ratio.mean() < 1.001
    # the relative scatter is sigma, not an absolute offset
    assert 0.099 < ratio.std() < 0.101


# -- simulate_weibull_failures ----------------------------------------------


def test_failures_sorted_ascending():
    t = simulate_weibull_failures(WeibullParams(1.0, 2.0), 50, 3)
    assert np.all(np.diff(t) >= 0.0)
    assert np.all(t > 0.0)


def test_failures_inverse_cdf_hits_theta(monkeypatch):
    # P = 1 - 1/e maps to x = theta under the inverse CDF, exactly.
    monkeypatch.setattr(datagen, "_uniforms", lambda seed, count: np.array([1.0 - math.exp(-1.0)]))
    t = simulate_weibull_failures(WeibullParams(3.7, 2.0), 1, 0)
    assert t[0] == 3.7


def test_failures_uniform_hook_validation():
    params = WeibullParams(1.0, 2.0)
    with pytest.raises(ValueError):
        simulate_weibull_failures(params, 0, 0)
    # the seed follows NoiseSpec's rule: -1 passed to numpy's SeedSequence,
    # 2.5 ended there in a bare TypeError, and True counted as 1
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        simulate_weibull_failures(params, 5, -1)
    for seed in (2.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            simulate_weibull_failures(params, 5, seed)


def test_failures_sample_mean_near_mttf():
    params = WeibullParams(1.0, 2.0)
    t = simulate_weibull_failures(params, 10**5, 7)
    target = math.gamma(1.5)
    assert abs(t.mean() - target) / target < 0.01


def test_failures_ks_statistic_small():
    m = 10**4
    params = WeibullParams(1.0, 2.0)
    t = simulate_weibull_failures(params, m, 11)
    cdf = weibull_cdf(params, t)
    i = np.arange(1, m + 1)
    ks = max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m))
    assert ks < 0.02


def test_failures_deterministic():
    a = simulate_weibull_failures(WeibullParams(2.0, 1.5), 100, 77)
    b = simulate_weibull_failures(WeibullParams(2.0, 1.5), 100, 77)
    np.testing.assert_array_equal(a, b)


# -- bundled functions ------------------------------------------------------


def test_sin2pi_quarter_period():
    assert sin2pi(0.25) == 1.0
    assert abs(sin2pi(0.5)) < 1e-15


def test_resonance_value_at_origin():
    assert resonance(0.0) == 84.0 / 17.0


def test_sqrt_exp_at_one():
    assert sqrt_exp(1.0) == math.exp(-1.0)
    assert sqrt_exp(0.0) == 0.0


def test_function_registry():
    assert set(FUNCTIONS) == {"sin", "resonance", "sqrtexp"}
    assert FUNCTIONS["sin"] is sin2pi
