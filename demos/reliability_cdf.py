"""Failure-time analysis: Weibull parameter fits and a rational CDF model.

Ten sorted failure times with median-rank plotting positions.  The
Weibull fits give mean time to failure through the gamma function; the
rational CDF fit gets there by direct integration of 1 - R(x) and needs
a little ridge regularization to stay pole-free.
"""

from pathlib import Path

from padefit import (
    Dataset,
    DerivativeGridSpec,
    FitConfig,
    fit_regularized,
    lambda_sweep,
    median_ranks,
    mle_fit,
    mttf,
    transform_fit,
)
from padefit.cli import read_points

times, ranks = read_points(str(Path(__file__).resolve().parent.parent / "data" / "table1.csv"))
data = Dataset(times, ranks)

# the file's ordinates are Benard plotting positions (k - 0.3)/(m + 0.4)
assert abs(ranks - median_ranks(len(times))).max() < 1e-12

lsq = transform_fit(times, ranks)
mle = mle_fit(times)
print("               scale    shape    MTTF")
print(f"log-log fit    {lsq.theta:.4f}   {lsq.shape:.4f}   {mttf(lsq):.4f}")
print(f"max likelihood {mle.theta:.4f}   {mle.shape:.4f}   {mttf(mle):.4f}")

# rational CDF model: R(0) = 0, R -> 1 as x -> infinity, shared tail
# coefficient at power 12
config = FitConfig.cdf_form(6, 0, 12)
grid = DerivativeGridSpec((0.0, 2.0), 40)

plain = fit_regularized(data, config, grid)
print(f"\nunregularized CDF fit: D = {plain.d:.5f}, poles on [0,2]: {plain.poles.count}")
print("the pole sits inside the data range, so the model is unusable as a CDF")

# sweep the ridge weight and keep the smallest one whose oscillation
# measure has settled
sweep = lambda_sweep(data, config, (0.0025, 0.005, 0.01), der_interval=(0.0, 2.0))
for row in sweep.rows:
    print(f"  lambda = {row.lam:.4f}  D = {row.d:.5f}  D_der = {row.d_der:.5f}  poles = {row.pole_count}")
lam = sweep.chosen_lam()
print(f"chosen lambda: {lam}")

# the sweep fitted this lambda on this data and grid already: this hands
# back its row's report, with no second fit
smooth = fit_regularized(data, FitConfig.cdf_form(6, 0, 12, lam=lam), grid)
print(f"\nregularized fit: D = {smooth.d:.5f}, poles: {smooth.poles.count}")
print(f"MTTF by integrating 1 - R: {mttf(smooth.model, x_max=100.0):.4f}")
print("all three MTTF figures agree to about one percent")
