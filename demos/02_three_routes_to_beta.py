"""Three independent routes to the recurrence coefficients beta_n.

1. Hankel route: Gautschi's Chebyshev algorithm turns the moments into the
   squared norms h_j without forming the moment matrix, and
   beta_n = h_n / h_{n-1}.  Slow, stable, the oracle.
2. Discrete Painleve I: forward iteration of the string equation from
   beta_1 = mu_2 / mu_0.  Fast but exponentially sensitive to beta_1.
3. Closed form at s = 0: beta_n = (n + alpha Delta_n)/(2N).

The first two are the sequence routes of the library's route table; they
agree to roughly the working precision minus the instability growth, and the
cross-route difference is printed per n.
"""
from mpmath import mp, mpf, nstr

from dfreud import NumericContext, WeightParams, beta_at_s0, dpi_residual
from dfreud.asymptotics import SEQUENCE_ROUTES

ctx = NumericContext(digits=60)
params = WeightParams("0.5", "1.5", 1)

hankel_route = SEQUENCE_ROUTES["hankel"](params, 15, ctx)
dpi_route = SEQUENCE_ROUTES["dpi"](params, 15, ctx)

print(f"(s, alpha, N) = (1/2, 3/2, 1), 60 digits\n")
print(f"{'n':>3} {'beta_n (Hankel)':>30} {'|Hankel - dP_I|':>16}")
with mp.workdps(70):
    for n in range(1, 16):
        diff = abs(hankel_route[n] - dpi_route[n])
        print(f"{n:>3} {nstr(hankel_route[n], 25):>30} {nstr(diff, 3):>16}")

with mp.workdps(70):
    res = dpi_residual(hankel_route, params)
    print(f"\nmax |string-equation residual| of the Hankel betas: "
          f"{nstr(max(abs(r) for r in res), 3)}")

print("\nat s = 0 the closed form takes over:")
for n in range(1, 6):
    print(f"  beta_{n}(0; 3/2, 1) = {beta_at_s0(n, '1.5', 1)}")
