"""Ladder operators, compatibility conditions, the polynomial ODE, and the
biconfluent-Heun limit.

With exact (Hankel-route) recurrence coefficients, the lowering relation, the
three supplementary conditions and the second-order ODE in z are identities;
their residuals sit at the round-off floor of the working precision.  In the
double limit N s -> 0, n -> infinity with kappa = (Ns)^(1/3) n fixed, the ODE
becomes a biconfluent Heun equation after x = sqrt(2) z^2; the operator-level
identity behind that substitution is checked exactly at sample points.
"""
from mpmath import mp, mpf, mpmathify, nstr, exp

from dfreud import (NumericContext, WeightParams, beta_from_moments,
                    build_polynomials, lowering_residual, compatibility_residuals,
                    pn_ode_residual, heun_parameters, heun_operator_residual,
                    orthogonality_check)

ctx = NumericContext(digits=80)
params = WeightParams("0.5", "2", 1)
betas = beta_from_moments(params, 10, ctx)
polys = build_polynomials(betas, 9)

print("residuals at z = 0.9 with exact betas (80 digits):\n")
with mp.workdps(betas.digits_used):
    z = mpf("0.9")
    for n in (4, 7, 8):
        low = abs(lowering_residual(n, z, params, betas, polys))
        r1, r2, r2p = (abs(r) for r in compatibility_residuals(n, z, params, betas))
        ode = pn_ode_residual(n, z, params, betas, polys, ctx)
        print(f"  n={n}: lowering {nstr(low, 3)}, S1 {nstr(r1, 3)}, "
              f"S2 {nstr(r2, 3)}, S2' {nstr(r2p, 3)}, ODE(rel) {nstr(ode, 3)}")

print("\northogonality against quadrature moments, j,k <= 4 (max |G_jk|, j != k):")
gram = orthogonality_check(4, params, NumericContext(digits=50))
with mp.workdps(50):
    worst = max(abs(gram[j][k]) for j in range(5) for k in range(5) if j != k)
    print(f"  {nstr(worst, 3)}")

print("\nbiconfluent-Heun limit parameters at (alpha, N, s, n) = (1.3, 2, 0.7, 37):")
hp = heun_parameters("1.3", 2, "0.7", 37)
with mp.workdps(50):
    print(f"  kappa = {nstr(hp.kappa, 10)}, gamma = {nstr(hp.gamma_h, 10)}, "
          f"delta = {nstr(hp.delta_h, 10)}, eta = {nstr(hp.eta_h, 3)}, "
          f"rho = {nstr(hp.rho_h, 10)}")
    u = lambda x: exp(-x / 3) * (1 + x * x)
    du = lambda x: exp(-x / 3) * (2 * x - (1 + x * x) / 3)
    d2u = lambda x: exp(-x / 3) * (2 - 2 * x / 3 - (2 * x - (1 + x * x) / 3) / 3)
    print("  operator identity residual at five z points:")
    for zs in ("0.31", "1.1", "2.7", "-0.6", "0.05"):
        res = heun_operator_residual(hp, WeightParams("0.7", "1.3", 2),
                                     u, du, d2u, mpmathify(zs))
        print(f"    z = {zs:>5}: {nstr(abs(res), 3)}")
