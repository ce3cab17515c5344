"""The weight family and its moments, computed two independent ways.

The deformed Freud weight |x|^a exp(-N [x^2 + s (x^4 - x^2)]) interpolates
between a generalized Hermite weight at s = 0 and the quartic Freud weight at
s = 1.  All even moments reduce to the zeroth moment at a shifted exponent,
and that single number has both a quadrature route and a parabolic-cylinder
closed form.  This demo prints the two side by side.
"""
from mpmath import mp, nstr

from dfreud import NumericContext, WeightParams, mu0, moment_table

ctx = NumericContext(digits=50)

print("mu_0 by quadrature vs closed form (50 digits requested)\n")
for s, a, N in [("0.1", "-0.5", 4), ("0.5", "1", 2), ("1", "0", 1)]:
    params = WeightParams(s, a, N)
    with mp.workdps(60):
        q = moment_table(params, 0, ctx, source="quadrature").mu(0)
        c = mu0(params, ctx)
        print(f"  s={s:>4}  alpha={a:>4}  N={N}:")
        print(f"    quadrature  {nstr(q, 40)}")
        print(f"    closed form {nstr(c, 40)}")
        print(f"    |difference| = {nstr(abs(q - c), 3)}\n")

print("moment table at (s, alpha, N) = (1/2, 1, 1): odd entries are exact zeros\n")
table = moment_table(WeightParams("0.5", 1, 1), 8, ctx)
with mp.workdps(50):
    for j in range(9):
        print(f"  mu_{j} = {nstr(table.mu(j), 30)}")
