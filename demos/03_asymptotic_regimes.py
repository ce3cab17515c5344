"""The three asymptotic regimes of beta_n, with measured remainder orders.

Each expansion is compared against the Hankel oracle at two scales; the
ratio of the errors reveals the order of the first neglected term:

  s -> 0           remainder O(s^4)      -> ratio ~ 10^4 between s=1e-2, 1e-3
  n -> infinity    remainder O(n^{-7/2}) -> ratio ~ 128 between n=16, 64
  n = N -> infty   remainder O(N^{-3})   -> ratio ~ 8 between N=20, 40
"""
from mpmath import mp, mpf, nstr, sqrt

from dfreud import (NumericContext, WeightParams, beta_from_moments,
                    beta_small_s, beta_large_n, beta_double_scaling, fluid_endpoint)

ctx = NumericContext(digits=120)

print("== regime 1: s -> 0 at (n, alpha, N) = (6, 5/4, 1)")
with mp.workdps(130):
    errs = {}
    for k in (2, 3):
        params = WeightParams(f"1e-{k}", "1.25", 1)
        exact = beta_from_moments(params, 6, ctx)[6]
        errs[k] = abs(beta_small_s(6, params) - exact)
        print(f"  s = 1e-{k}:  |series - exact| = {nstr(errs[k], 4)}")
    print(f"  ratio = {nstr(errs[2] / errs[3], 6)}   (s^4 remainder predicts 1e4)\n")

print("== regime 2: n -> infinity at (s, alpha, N) = (1/4, 1, 1)")
with mp.workdps(130):
    params = WeightParams("0.25", 1, 1)
    oracle = beta_from_moments(params, 64, ctx)
    errs = {n: abs(beta_large_n(n, params) - oracle[n]) for n in (16, 64)}
    for n in (16, 64):
        print(f"  n = {n}:  |expansion - exact| = {nstr(errs[n], 4)}")
    print(f"  ratio = {nstr(errs[16] / errs[64], 6)}   (n^-7/2 predicts 4^3.5 = 128)\n")

print("== regime 3: n = N -> infinity at (s, alpha) = (1/2, 3/2), r = 1")
with mp.workdps(130):
    errs = {}
    for n in (20, 40):
        params = WeightParams("0.5", "1.5", n)
        exact = beta_from_moments(params, n, ctx)[n]
        errs[n] = abs(beta_double_scaling(n, n, mpf("0.5"), mpf("1.5")) - exact)
        print(f"  N = {n}:  |expansion - exact| = {nstr(errs[n], 4)}")
    print(f"  ratio = {nstr(errs[20] / errs[40], 6)}   (N^-3 predicts 8)\n")

print("== Coulomb-fluid endpoint and the quarter law")
with mp.workdps(60):
    params = WeightParams("0.5", "1.5", 1)
    for n in (50, 100, 200):
        fe = fluid_endpoint(n, params)
        beta = beta_large_n(n, params)
        print(f"  n = {n:>3}:  b^2 = {nstr(fe.b_squared, 8)},  "
              f"beta_n / a_mu^2 = {nstr(beta / fe.a_mu ** 2, 8)}  (-> 1/4)")
