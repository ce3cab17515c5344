"""Slow reference implementations that the fast library routes are tested against.

* ``ldlt_pivots`` -- the O(n^3) LDL^T factorisation of the Hankel matrix
  (mu_{j+k}); its pivots are h_0..h_{n-1}.
* ``per_entry_table`` -- one closed-form ``mu0`` (pcfd) call per even moment,
  mu_{2k} = mu_0 at alpha + 2k, with no recurrence between entries.
* ``parabolic_cylinder_D_integral`` -- D_nu(z) by exp-exp quadrature of its
  integral representation, against mpmath's ``pcfd``.
* ``ladder_pair_compatibility_residuals`` -- (S1), (S2), (S2') from one
  ``LadderPair`` per index j <= n+1, each converting (s, alpha, N) again.
* ``barnes_block_four_calls`` -- the Barnes-G block of the log D_n displays
  from four ``barnes_g_log`` calls, without the functional equation.
* ``string_coefficients_lu`` -- the large-n pairs (a_k, b_k) from a 2x2 LU
  solve per order, its Jacobian taken from two perturbed residuals.
* ``d_coefficient_transcribed`` -- the 1/N coefficient D(s) of d/ds log D_n as
  transcribed polynomials per parity, not derived from the log-derivative slices.
* ``coefficient_polynomials`` / ``horner`` -- P_0..P_{n_max} as coefficient
  vectors and Horner's rule over them (with 0..2 derivatives), in place of the
  one recurrence pass per point.
"""
from mpmath import mp, mpf, mpmathify, exp, gamma, fsum, matrix, lu_solve, polyval

from dfreud import (DomainError, MomentTable, PoleError, barnes_g_log, exp_exp_moments,
                    ladder_pair, mu0)
from dfreud.asymptotics import _K_SERIES, _dpi_series_residual, g_and_g_tilde


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
        return MomentTable(params=params, values=values, source="closed_form",
                           digits_used=ctx.digits)


def parabolic_cylinder_D_integral(nu, z, ctx):
    """D_nu(z) = exp(-z^2/4)/Gamma(-nu) int_0^inf t^(-nu-1) exp(-t^2/2 - t z) dt, nu < 0."""
    with mp.workdps(ctx.digits + 10):
        nu, z = mpmathify(nu), mpmathify(z)
        if nu >= 0:
            raise DomainError("representation requires nu < 0")
        integral = exp_exp_moments(-nu - 1, lambda t: t * t / 2 + t * z, 1, ctx)[0]
        return exp(-z * z / 4) / gamma(-nu) * integral


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


def string_coefficients_lu(s, alpha, N, kmax: int = 7):
    """(a_k, b_k) for k = 1..kmax; each order is a 2x2 system in the newest pair,
    built from the residual at (a_k, b_k) = (0, 0), (1, 0) and (0, 1)."""
    coeffs = [(mp.zero, mp.zero) for _ in range(_K_SERIES)]
    for k in range(1, kmax + 1):
        base = _dpi_series_residual(coeffs, s, alpha, N)
        with_a = list(coeffs)
        with_a[k - 1] = (mp.one, mp.zero)
        res_a = _dpi_series_residual(with_a, s, alpha, N)
        with_b = list(coeffs)
        with_b[k - 1] = (mp.zero, mp.one)
        res_b = _dpi_series_residual(with_b, s, alpha, N)
        M = matrix(2, 2)
        rhs = matrix(2, 1)
        M[0, 0] = res_a[k][0] - base[k][0]
        M[0, 1] = res_b[k][0] - base[k][0]
        M[1, 0] = res_a[k][1] - base[k][1]
        M[1, 1] = res_b[k][1] - base[k][1]
        rhs[0] = -base[k][0]
        rhs[1] = -base[k][1]
        sol = lu_solve(M, rhs)
        coeffs[k - 1] = (sol[0], sol[1])
    return coeffs[:kmax]


def d_coefficient_transcribed(s, r, alpha, parity: str):
    """D(s) from the explicit polynomial/surd forms per parity, at the caller's
    working precision; the odd form divides by f(s)^2, f(s) = 1 - 2s - 4rs + s^2."""
    g, gt = g_and_g_tilde(s, r)
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
