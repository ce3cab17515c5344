"""Slow reference implementations that the fast library routes are tested against.

* ``ldlt_pivots`` -- the O(n^3) LDL^T factorisation of the Hankel matrix
  (mu_{j+k}); its pivots are h_0..h_{n-1}.
* ``per_entry_table`` -- one closed-form ``mu0`` (pcfd) call per even moment,
  mu_{2k} = mu_0 at alpha + 2k, with no recurrence between entries.
* ``parabolic_cylinder_D_integral`` -- D_nu(z) by exp-exp quadrature of its
  integral representation, against mpmath's ``pcfd``.
* ``exp_exp_moments_fresh`` -- the exp-exp moments with every node formed afresh
  in mpf arithmetic, in place of the library's per-precision node store.
* ``dpi_forward_mpf`` / ``beta_large_n_mpf`` -- the dP_I forward map and the
  large-n evaluation with an mpf per operation, in place of the library's loops
  on libmp values.
* ``ladder_pair_compatibility_residuals`` -- (S1), (S2), (S2') from one
  ``LadderPair`` per index j <= n+1, each converting (s, alpha, N) again.
* ``barnes_block_four_calls`` -- the Barnes-G block of the log D_n displays
  from four ``barnes_g_log`` calls, without the functional equation.
* ``string_coefficients_lu`` -- the large-n pairs (a_k, b_k) without the
  library's solver: the dP_I residual as series of pairs x + y sigma,
  sigma = (-1)^n, carried to t^9, every binomial of (1 + eps t^2)^(h/2) from
  mpmath's ``binomial``, and a 2x2 LU solve per order, its Jacobian taken
  from two perturbed residuals.
* ``beta_large_n_fsum`` -- beta_n as an ``fsum`` of fractional powers
  n^{-k/2} in place of Horner.
* ``log_d1_display`` -- the coefficients of the log D_n(1) display as printed,
  in place of their assembly from the ratio_10 and D0 displays.
* ``d_coefficient_transcribed`` -- the 1/N coefficient D(s) of d/ds log D_n as
  transcribed polynomials per parity, not derived from the log-derivative slices.
* ``coefficient_polynomials`` / ``horner`` -- P_0..P_{n_max} as coefficient
  vectors and Horner's rule over them (with 0..2 derivatives), in place of the
  one recurrence pass per point.
"""
from typing import Callable

from mpmath import (mp, mpf, mpmathify, exp, gamma, fsum, matrix, lu_solve, polyval,
                    binomial, log, pi, sqrt, isfinite)

from dfreud import (BetaSequence, DomainError, IntegrationError, MomentTable, NumericContext,
                    PoleError, WeightParams, barnes_g_log, exp_exp_moments, ladder_pair,
                    large_n_coefficients, mu0)
from dfreud.numerics import _DEFAULT_CTX
from dfreud.recurrence import delta_parity
from dfreud.numerics import fraction_to_mpf


def ldlt_pivots(mus, n: int):
    """LDL^T pivots of the Hankel matrix (mu_{j+k}); None marks a failed index."""
    M = [[mus[j + k] for k in range(n)] for j in range(n)]
    L = [[mp.zero] * n for _ in range(n)]
    d = [mp.zero] * n
    for j in range(n):
        acc = M[j][j]
        for k in range(j):
            acc -= L[j][k] ** 2 * d[k]
        d[j] = acc
        if not (acc > 0):
            return d[: j + 1], j
        inv = 1 / acc
        for i in range(j + 1, n):
            acc2 = M[i][j]
            for k in range(j):
                acc2 -= L[i][k] * L[j][k] * d[k]
            L[i][j] = acc2 * inv
    return d, None


def per_entry_table(params, max_order: int, ctx) -> MomentTable:
    """mu_0..mu_{max_order}, each even entry by its own ``mu0`` call."""
    with mp.workdps(ctx.digits + 10):
        values = tuple(mu0(params.shifted(j), ctx) if j % 2 == 0 else mp.zero
                       for j in range(max_order + 1))
        return MomentTable(values=values)


def parabolic_cylinder_D_integral(nu, z, ctx):
    """D_nu(z) = exp(-z^2/4)/Gamma(-nu) int_0^inf t^(-nu-1) exp(-t^2/2 - t z) dt, nu < 0."""
    with mp.workdps(ctx.digits + 10):
        nu, z = mpmathify(nu), mpmathify(z)
        if nu >= 0:
            raise DomainError("representation requires nu < 0")
        integral = exp_exp_moments(-nu - 1, lambda t: t * t / 2 + t * z, 1, ctx)[0]
        return exp(-z * z / 4) / gamma(-nu) * integral


# ``exp_exp_moments`` as it was before its nodes were stored: every node formed
# afresh with mpf arithmetic.  The bit oracle of the node store.
def exp_exp_moments_fresh(p, g: Callable, count: int, ctx: NumericContext) -> list:
    """[int_0^inf y^(p+k) exp(-g(y)) dy for k < count] from one exp-exp trapezoid.

    Nodes y = exp(u), u = t - exp(-t), dy = y (1 + exp(-t)) dt: the double-exponential
    map for integrands that decay exponentially (Takahasi & Mori, Publ. RIMS 9, 1974;
    Mori & Sugihara, J. Comput. Appl. Math. 127, 2001).  One value per node serves
    every moment; the nodes +-t share e = exp(t).  Level 0 walks h = 1 out from t = 0
    until a node adds less than the working epsilon to every moment.  Each level then
    halves h and adds the odd nodes, per side, out to one coarse step 2h past the
    outermost node that added more than that at any coarser level (the centre can be
    negligible before the mass, so a negligible node ends no side), until two levels
    agree to ``ctx.quad_tol`` in every moment; the level cap grows with log2(digits).
    Raises DomainError for p <= -1, and IntegrationError when the levels disagree at
    the cap or a tail still adds past its bound (D the working digits): y^(p+1) < 10^-D
    on the left once (p+1)(|t| + e^|t|) > D ln 10; the right tail decays only through
    g and is walked to y = 10^(8D), which for g = N y covers N down to 10^(2 - 8D).
    """
    with mp.workdps(ctx.digits + 10):
        p = mpmathify(p)
        if p <= -1:
            raise DomainError(f"y^p is integrable at 0 only for p > -1, got p = {p}")
        sums, d_ln10, p1, eps = [mp.zero] * count, mp.dps * log(10), p + 1, mp.eps
        t_max = {1: int(8 * d_ln10) + 2, -1: int(log(max(d_ln10 / p1, 1))) + 2}

        def add(t, e, sign, test=True) -> bool:
            """Add the node sign t, e = exp(t), to ``sums``; with ``test``, whether it added."""
            w = 1 / e if sign > 0 else e
            u, du = sign * t - w, 1 + w
            y, added = exp(u), False
            b = exp(p1 * u - g(y)) * du
            for k in range(count):
                sums[k] += b
                added = added or (test and b > eps * sums[k])
                b *= y
            return added

        add(mp.zero, mp.one, 1)
        reach = {1: 0, -1: 0}       # the outermost node that added, in units of h
        for sign in reach:
            for j in range(1, t_max[sign] + 1):
                if not add(mpf(j), exp(j), sign):
                    break
                reach[sign] = j
            else:
                raise IntegrationError(f"integrand does not decay by t = {sign * t_max[sign]}")

        h, estimate, tol = mp.one, list(sums), fraction_to_mpf(ctx.quad_tol)
        for _ in range(1, ctx.digits.bit_length() + 5):
            h /= 2
            reach = {sign: 2 * r for sign, r in reach.items()}
            e, step = exp(h), exp(2 * h)
            for m in range(1, max(reach.values()) + 2, 2):    # odd m, m h <= reach + 2h
                for sign, r in reach.items():
                    if m <= r + 1 and add(m * h, e, sign, m > r):
                        reach[sign] = m
                e *= step
            previous, estimate = estimate, [h * a for a in sums]
            if all(abs(a - b) <= tol * abs(a) for a, b in zip(estimate, previous)):
                return estimate
        raise IntegrationError(f"exp-exp levels disagree by more than {ctx.quad_tol}")



# ``dpi_forward`` and ``beta_large_n`` as they were before their loops ran on libmp
# values: an mpf per operation.  The bit oracles of those loops.
def dpi_forward_mpf(params: WeightParams, beta1, n_max: int,
                    ctx: NumericContext) -> BetaSequence:
    """Iterate the dP_I forward from (beta_0, beta_1) = (0, beta1) up to beta_{n_max}.

    Solves beta_{n+1} = (n + alpha Delta_n)/(4 N s beta_n) - beta_n - beta_{n-1} - u.
    Halts early when some beta_n <= 0 or stops being finite, recording the
    first failing index in the returned sequence.
    """
    if params.s == 0:
        raise DomainError("dP_I iteration needs s > 0; use beta_at_s0 instead")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    with mp.workdps(ctx.digits):
        s, a, N = params.mpfs()
        u = (1 - s) / (2 * s)
        betas = [mp.zero, mpmathify(beta1)]
        failure = None
        if not (betas[1] > 0):
            failure = 1
        else:
            for n in range(1, n_max):
                ell = (n + a * delta_parity(n)) / (4 * N * s)
                nxt = ell / betas[n] - betas[n] - betas[n - 1] - u
                betas.append(nxt)
                if not isfinite(nxt) or nxt <= 0:
                    failure = n + 1
                    break
        return BetaSequence(params=params, route="dpi", betas=tuple(betas),
                            digits_used=ctx.digits, failure_index=failure)


def beta_large_n_mpf(n: int, params: WeightParams,
                     ctx: NumericContext = _DEFAULT_CTX) -> mpf:
    """Large-n evaluation of beta_n through the n^{-3} term (O(n^{-7/2}) remainder)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    data = large_n_coefficients(params, "even" if n % 2 == 0 else "odd", ctx)
    with mp.workdps(ctx.digits + 10):
        t = 1 / sqrt(mpf(n))
        total = mp.zero
        for dk in reversed(data.d):  # Horner in t for 1 + sum_k d_k t^k
            total = (total + dk) * t
        return data.scale / t * (1 + total)

def ladder_pair_compatibility_residuals(n: int, z, params, betas) -> tuple:
    """(r_S1, r_S2, r_S2prime) with every A_j, B_j taken from ``ladder_pair``."""
    with mp.workdps(max(mp.dps, betas.digits_used)):
        z = mpmathify(z)
        if z == 0:
            raise PoleError("the conditions carry alpha/z terms; z = 0 excluded")
        a = params.mpfs()[1]
        pairs = {m: ladder_pair(m, z, params, betas) for m in range(n + 2)}
        v0p = pairs[n].v0_prime
        r_s1 = (pairs[n + 1].b_n + pairs[n].b_n) - (z * pairs[n].a_n - v0p + a / z)
        r_s2 = (1 + z * (pairs[n + 1].b_n - pairs[n].b_n)
                - (betas[n + 1] * pairs[n + 1].a_n - betas[n] * pairs[n - 1].a_n))
        r_s2p = (pairs[n].b_n ** 2 + (v0p - a / z) * pairs[n].b_n
                 + fsum(pairs[j].a_n for j in range(n))
                 - betas[n] * pairs[n].a_n * pairs[n - 1].a_n)
        return r_s1, r_s2, r_s2p


def barnes_block_four_calls(alpha, ctx):
    """log[ G(3/2) G(1/2) / (G((alpha+3)/2) G((alpha+1)/2)) ]."""
    return (barnes_g_log(mpf(3) / 2, ctx) + barnes_g_log(mpf(1) / 2, ctx)
            - barnes_g_log((alpha + 3) / 2, ctx) - barnes_g_log((alpha + 1) / 2, ctx))


def log_d1_display(r, alpha, even: bool, ctx) -> tuple:
    """(n^2, n, log n, 1, 1/n) coefficients of the log D_n(1) display as printed,
    not assembled from the ratio_10 and D0 displays, at the caller's precision."""
    lr = log(r)
    return ((2 * lr - log(mpf(144)) - 3) / 8,
            (alpha * lr + 4 * log(2 * pi) - alpha * (1 + log(mpf(12)))) / 4,
            (3 * alpha ** 2 - 1) / mpf(12),
            ((1 - log(mpf(2)) + 6 * alpha * log(2 * pi) - 3 * alpha ** 2 * log(mpf(3))) / 12
             - log(mp.glaisher) + barnes_block_four_calls(alpha, ctx)),
            alpha * (5 * alpha ** 2 + 7) / 48 if even else alpha * (5 * alpha ** 2 - 11) / 48)


def _sigma_mul(x, y):
    """Product of two series of pairs [x, y] = x + y sigma, sigma^2 = 1, truncated
    at the length of x."""
    order = len(x) - 1
    out = [[mp.zero, mp.zero] for _ in range(order + 1)]
    for i, (x0, x1) in enumerate(x):
        for j in range(order + 1 - i):
            y0, y1 = y[j]
            out[i + j][0] += x0 * y0 + x1 * y1
            out[i + j][1] += x0 * y1 + x1 * y0
    return out


def _sigma_beta(eps: int, coeffs):
    """beta_{n+eps} / (C sqrt(n)) in t = n^{-1/2} to t^len(coeffs), sigma = (-1)^n
    flipping at n +- 1: (1 + eps t^2)^(1/2) (1 + sum_k (a_k + b_k sigma) t^k
    (1 + eps t^2)^(-k/2))."""
    order = len(coeffs)

    def binom(h):  # (1 + eps t^2)^(h/2), from mpmath's binomial
        return [[binomial(mpf(h) / 2, i // 2) * eps ** (i // 2) if i % 2 == 0 else mp.zero,
                 mp.zero] for i in range(order + 1)]
    sign = -1 if eps else 1
    acc = [[mp.zero, mp.zero] for _ in range(order + 1)]
    acc[0][0] = mp.one
    for k, (a, b) in enumerate(coeffs, start=1):
        for i, (c, _) in enumerate(binom(-k)[:order + 1 - k]):
            acc[i + k][0] += a * c
            acc[i + k][1] += b * sign * c
    return _sigma_mul(binom(1), acc)


def _sigma_residual(coeffs, s, alpha, N):
    """dP_I residual series, times t^2/C^2 with C^2 = 1/(12 N s), in sigma pairs."""
    C2 = 1 / (12 * N * s)
    u = (1 - s) / (2 * s)
    center = _sigma_beta(0, coeffs)
    up, dn = _sigma_beta(1, coeffs), _sigma_beta(-1, coeffs)
    res = _sigma_mul(center, [[c[0] + p[0] + q[0], c[1] + p[1] + q[1]]
                              for c, p, q in zip(center, up, dn)])
    for i in range(len(coeffs)):
        res[i + 1][0] += u / sqrt(C2) * center[i][0]
        res[i + 1][1] += u / sqrt(C2) * center[i][1]
    res[0][0] -= 3
    res[2][0] -= alpha / (8 * N * s) / C2   # alpha Delta_n, Delta_n = (1 - sigma)/2
    res[2][1] += alpha / (8 * N * s) / C2
    return res


def string_coefficients_lu(s, alpha, N):
    """(a_k, b_k) for k = 1..7 of beta_n ~ C sqrt(n) (1 + sum_k (a_k + b_k (-1)^n)
    n^{-k/2}), independent of the library: sigma-pair series carried to t^9,
    binomials from mpmath, and a 2x2 LU solve per order whose Jacobian comes from
    the residual at (a_k, b_k) = (0, 0), (1, 0) and (0, 1)."""
    coeffs = [(mp.zero, mp.zero)] * 9
    for k in range(1, 8):
        base = _sigma_residual(coeffs, s, alpha, N)[k]
        M = matrix(2, 2)
        for col, unit in enumerate(((mp.one, mp.zero), (mp.zero, mp.one))):
            res = _sigma_residual(coeffs[:k - 1] + [unit] + coeffs[k:], s, alpha, N)[k]
            M[0, col], M[1, col] = res[0] - base[0], res[1] - base[1]
        sol = lu_solve(M, matrix([-base[0], -base[1]]))
        coeffs[k - 1] = (sol[0], sol[1])
    return coeffs[:7]


def beta_large_n_fsum(n: int, params, pairs):
    """sqrt(n)/(2 sqrt(3 N s)) (1 + sum_k (a_k + b_k (-1)^n) n^{-k/2}), the sum
    an ``fsum`` of fractional powers, at the caller's working precision."""
    s, _, N = params.mpfs()
    sign = 1 if n % 2 == 0 else -1
    total = mp.one + fsum((a + b * sign) * mpf(n) ** (-mpf(k) / 2)
                          for k, (a, b) in enumerate(pairs, start=1))
    return sqrt(mpf(n)) / (2 * sqrt(3 * N * s)) * total


def d_coefficient_transcribed(s, r, alpha, parity: str):
    """D(s) from the explicit polynomial/surd forms per parity, at the caller's
    working precision; the odd form divides by f(s)^2, f(s) = 1 - 2s - 4rs + s^2."""
    # g~ = 12 s a0 from the fluid root a0 of 6 s a0^2 + (1-s) a0 = r/2, formed as
    # r/((1-s) + sqrt((1-s)^2 + 12 s r)) so that nothing cancels as s -> 0
    gt = 12 * s * r / (1 - s + sqrt((1 - s) ** 2 + 12 * s * r))
    g = 1 - s + gt
    if parity == "even":
        bracket = 1 + 2 * g - 2 * s * (1 - 6 * r + g) + s * s
        d0 = -(1 + s) * alpha / (g * gt * gt * bracket ** 3)
        d1 = g * (-3 + 15 * s - 15 * r * s - 30 * s ** 2 + 45 * r * s ** 2
                  - 36 * r ** 2 * s ** 2 + 30 * s ** 3 - 45 * r * s ** 3
                  + 36 * r ** 2 * s ** 3 - 15 * s ** 4 + 15 * r * s ** 4 + 3 * s ** 5
                  + alpha ** 2 * (-1 + 5 * s - 15 * r * s - 10 * s ** 2
                                  + 45 * r * s ** 2 + 36 * r ** 2 * s ** 2
                                  + 10 * s ** 3 - 45 * r * s ** 3
                                  - 36 * r ** 2 * s ** 3 - 5 * s ** 4
                                  + 15 * r * s ** 4 + s ** 5))
        d2 = (3 - 18 * s + 33 * r * s + 45 * s ** 2 - 132 * r * s ** 2
              + 72 * r ** 2 * s ** 2 - 60 * s ** 3 + 198 * r * s ** 3
              - 144 * r ** 2 * s ** 3 - 2160 * r ** 3 * s ** 3 + 45 * s ** 4
              - 132 * r * s ** 4 + 72 * r ** 2 * s ** 4 - 18 * s ** 5
              + 33 * r * s ** 5 + 3 * s ** 6
              + alpha ** 2 * (1 - 6 * s + 21 * r * s + 15 * s ** 2
                              - 84 * r * s ** 2 + 36 * r ** 2 * s ** 2
                              - 20 * s ** 3 + 126 * r * s ** 3
                              - 72 * r ** 2 * s ** 3 - 864 * r ** 3 * s ** 3
                              + 15 * s ** 4 - 84 * r * s ** 4
                              + 36 * r ** 2 * s ** 4 - 6 * s ** 5
                              + 21 * r * s ** 5 + s ** 6))
        return d0 * (d1 + d2)
    f = 1 - 2 * s - 4 * r * s + s * s
    d0 = alpha / (4 * f * f * g ** 5)
    d1 = g * (1 - 4 * s + 56 * r * s + 5 * s ** 2 - 112 * r * s ** 2
              + 272 * r ** 2 * s ** 2 - 5 * s ** 4 + 112 * r * s ** 4
              - 272 * r ** 2 * s ** 4 + 4 * s ** 5 - 56 * r * s ** 5 - s ** 6
              + alpha ** 2 * (-1 + 4 * s - 24 * r * s - 5 * s ** 2
                              + 48 * r * s ** 2 - 144 * r ** 2 * s ** 2
                              + 5 * s ** 4 - 48 * r * s ** 4
                              + 144 * r ** 2 * s ** 4 - 4 * s ** 5
                              + 24 * r * s ** 5 + s ** 6))
    d2 = (-2 + 10 * s - 64 * r * s - 18 * s ** 2 + 192 * r * s ** 2
          - 544 * r ** 2 * s ** 2 + 10 * s ** 3 - 128 * r * s ** 3
          + 544 * r ** 2 * s ** 3 - 768 * r ** 3 * s ** 3 + 10 * s ** 4
          - 128 * r * s ** 4 + 544 * r ** 2 * s ** 4 - 768 * r ** 3 * s ** 4
          - 18 * s ** 5 + 192 * r * s ** 5 - 544 * r ** 2 * s ** 5
          + 10 * s ** 6 - 64 * r * s ** 6 - 2 * s ** 7
          + alpha ** 2 * (1 - 5 * s + 32 * r * s + 9 * s ** 2 - 96 * r * s ** 2
                          + 272 * r ** 2 * s ** 2 - 5 * s ** 3 + 64 * r * s ** 3
                          - 272 * r ** 2 * s ** 3 + 384 * r ** 3 * s ** 3
                          - 5 * s ** 4 + 64 * r * s ** 4
                          - 272 * r ** 2 * s ** 4 + 384 * r ** 3 * s ** 4
                          + 9 * s ** 5 - 96 * r * s ** 5
                          + 272 * r ** 2 * s ** 5 - 5 * s ** 6
                          + 32 * r * s ** 6 + s ** 7))
    return d0 * (d1 + d2)


def coefficient_polynomials(betas, n_max: int) -> list:
    """Coefficient vectors of P_0..P_{n_max} (entry k multiplies z^k) from
    P_{n+1} = z P_n - beta_n P_{n-1}, at the caller's working precision."""
    polys = [[mp.one], [mp.zero, mp.one]]
    for n in range(1, n_max):
        shifted = [mp.zero] + polys[n]               # z * P_n
        for i, c in enumerate(polys[n - 1]):         # - beta_n * P_{n-1}
            shifted[i] -= betas[n] * c
        polys.append(shifted)
    return polys[: n_max + 1]


def horner(coeffs, z, derivative_order: int = 0):
    """The ``derivative_order``-th derivative of sum_k coeffs[k] z^k by Horner's rule."""
    for _ in range(derivative_order):
        coeffs = [i * coeffs[i] for i in range(1, len(coeffs))]
    return polyval(coeffs[::-1], mpmathify(z))
