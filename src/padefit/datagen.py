"""Synthetic data generation with a fixed, documented noise pipeline.

Pseudorandom contract (do not change silently; golden tests depend on it):

- Uniform stream: numpy's PCG64 bit generator wrapped in
  numpy.random.Generator, seeded directly with the given integer seed.
  numpy guarantees stream stability for a fixed seed across platforms
  and releases.
- Normal deviates: Box-Muller transform, cosine branch only.  Each
  deviate consumes one pair (u1, u2) of consecutive uniforms from the
  stream and is

      z = sqrt(-2 ln(1 - u1)) * cos(2 pi u2),

  using 1 - u1 in (0, 1] so the logarithm never sees zero.
- Weibull failure times: inverse CDF applied to one uniform each,
  x = theta * (-ln(1 - P))**(1/shape), then sorted ascending.

Noisy samples are multiplicative: F_k = f(x_k) * (1 + z_k) with z drawn
as above, so sigma is a relative noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import Dataset
from .rational import require_count, require_interval
from .weibull import WeibullParams

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and stream seed for sample_noisy."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative" + ("" if self.sigma < 0.0 else " and finite"))
        require_count(self.seed, 0, "seed must be nonnegative")


def _uniforms(seed: int, count: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).random(count)


def normal_deviates(count: int, spec: NoiseSpec) -> np.ndarray:
    """`count` Box-Muller normals with mean 0 and deviation sigma.
    Raises ValueError unless count is a nonnegative integer."""
    require_count(count, 0, "count must be nonnegative")
    u = _uniforms(spec.seed, 2 * count)
    u1 = u[0::2]
    u2 = u[1::2]
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(TWO_PI * u2)
    return spec.sigma * z


def uniform_grid(a: float, b: float, subintervals: int) -> np.ndarray:
    """Endpoints of `subintervals` equal pieces of [a, b]; length is
    subintervals + 1."""
    require_interval(a, b)
    require_count(subintervals, 1, "need at least one subinterval")
    return np.linspace(a, b, subintervals + 1)


def sample_noisy(fn, xs: np.ndarray, spec: NoiseSpec) -> Dataset:
    """Sample fn on the given abscissae with multiplicative noise.

    Returns a Dataset whose values are fn(x) * (1 + z) with z from
    normal_deviates, and whose `underlying` is fn itself so downstream
    fits can report data-to-truth and model-to-truth errors.
    """
    x = np.asarray(xs, dtype=float)
    truth = np.asarray(fn(x), dtype=float)
    z = normal_deviates(len(x), spec)
    return Dataset(x, truth * (1.0 + z), underlying=fn)


def simulate_weibull_failures(
    params: WeibullParams,
    count: int,
    seed: int,
) -> np.ndarray:
    """Draw `count` failure times by inverting the Weibull CDF.

    Each time is theta * (-ln(1 - P))**(1/shape) for one uniform P; the
    result is sorted ascending, ready to pair with median ranks.  Raises
    ValueError unless count is a positive integer and seed a nonnegative one.
    """
    require_count(count, 1, "count must be positive")
    require_count(seed, 0, "seed must be nonnegative")
    u = _uniforms(seed, count)
    x = params.theta * (-np.log1p(-u)) ** (1.0 / params.shape)
    return np.sort(x)


# Underlying functions of the bundled case studies.


def sin2pi(x):
    """One full sine period over [0, 1]: sin(2 pi x)."""
    return np.sin(TWO_PI * np.asarray(x, dtype=float))


def resonance(x):
    """Two-peak resonance curve: 1/((x + 0.5)^2 + 0.25) + (1 + 0.2x)/((x - 0.5)^2 + 0.09)."""
    xs = np.asarray(x, dtype=float)
    return 1.0 / ((xs + 0.5) ** 2 + 0.25) + (1.0 + 0.2 * xs) / ((xs - 0.5) ** 2 + 0.09)


def sqrt_exp(x):
    """sqrt(x) * exp(-x); infinite slope at 0, slow decay to the right."""
    xs = np.asarray(x, dtype=float)
    return np.sqrt(xs) * np.exp(-xs)


#: Named functions accepted by the command line generator.
FUNCTIONS = {
    "sin": sin2pi,
    "resonance": resonance,
    "sqrtexp": sqrt_exp,
}
