"""Slow reference implementations that the fast library routes are tested against.

* ``ldlt_pivots`` -- the O(n^3) LDL^T factorisation of the Hankel matrix
  (mu_{j+k}); its pivots are h_0..h_{n-1}.
* ``per_entry_table`` -- one closed-form ``mu0`` (pcfd) call per even moment,
  mu_{2k} = mu_0 at alpha + 2k, with no recurrence between entries.
* ``parabolic_cylinder_D_integral`` -- D_nu(z) by exp-sinh quadrature of its
  integral representation, against mpmath's ``pcfd``.
"""
from mpmath import mp, mpmathify, exp, gamma

from dfreud import DomainError, MomentTable, exp_sinh_moments, mu0


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
        integral = exp_sinh_moments(-nu - 1, lambda t: t * t / 2 + t * z, 1, ctx)[0]
        return exp(-z * z / 4) / gamma(-nu) * integral
