"""The discrete Painleve I route to the recurrence coefficients.

With u = (1-s)/(2s) and Delta_n = (1 - (-1)^n)/2, the recurrence coefficients
of the deformed Freud weight satisfy the nonlinear string equation (dP_I)

    beta_n ( beta_{n+1} + beta_n + beta_{n-1} + u ) = (n + alpha Delta_n)/(4 N s),

the differential-difference equation

    beta_n'(s) = beta_n/(2s) [ N (s+1) (beta_{n+1} - beta_{n-1}) - 1 ],

and a second-order nonlinear ODE in s whose parity constants are

    p_n = n + 2 alpha (n even) | n - alpha (n odd),
    q_n = n^2        (n even)  | (n + alpha)^2 (n odd).

At s = 0 everything degenerates to the generalized Hermite closed form
beta_n = (n + alpha Delta_n)/(2N) (``beta_at_s0``), which ``beta1_initial`` meets
through the Gaussian mu_0; the s-equations carry 1/s factors and raise DomainError
there, and ``dpi_residual`` checks the s-multiplied form instead.

Forward iteration of the dP_I is exponentially unstable: only the initial
value beta_1 = mu_2/mu_0 continues to a positive solution, and any
perturbation eventually throws some beta_n out of the positive cone.
``dpi_forward`` therefore halts gracefully on a positivity failure (recording
the index), and ``sensitivity_run`` measures where perturbed runs die --
failure is data here, not an error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpf, mpmathify, fsum, sqrt
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_sub

from .numerics import NumericContext, DomainError, to_fraction, _DEFAULT_CTX, _check_n
from .moments import WeightParams, mu0
from .hankel import BetaSequence, beta_from_moments, _check_index, _sequence_digits


def delta_parity(n: int) -> int:
    """Delta_n = (1 - (-1)^n)/2: 0 for even n, 1 for odd n."""
    return n % 2


def beta_at_s0(n: int, alpha, big_n) -> Fraction:
    """Exact closed form at s = 0: beta_n = (n + alpha Delta_n)/(2N), beta_0 = 0."""
    _check_n(n, 0)
    a, N = to_fraction(alpha), to_fraction(big_n)
    return (n + a * delta_parity(n)) / (2 * N)


def beta1_initial(params: WeightParams, ctx: NumericContext) -> mpf:
    """The unique admissible initial value beta_1 = mu_2/mu_0."""
    with mp.workdps(ctx.digits + 10):
        return mu0(params.shifted(2), ctx) / mu0(params, ctx)


def dpi_forward(params: WeightParams, beta1, n_max: int,
                ctx: NumericContext) -> BetaSequence:
    """Iterate the dP_I forward from (beta_0, beta_1) = (0, beta1) up to beta_{n_max}.

    Solves beta_{n+1} = (n + alpha Delta_n)/(4 N s beta_n) - beta_n - beta_{n-1} - u.
    Halts early when some beta_n <= 0 or stops being finite, recording the
    first failing index in the returned sequence.

    The steps run on libmp values at the context's precision and rounding, with the
    operations of that formula in the same order (4 N s formed once), so every beta
    has the bits of the mpf form.
    """
    if params.s == 0:
        raise DomainError("dP_I iteration needs s > 0; use beta_at_s0 instead")
    _check_n(n_max, 1, "n_max")
    with mp.workdps(ctx.digits):
        s, a, N = params.mpfs()
        b1 = mpmathify(beta1)
        trajectory, failure = [], None
        if not (b1 > 0):
            failure = 1
        else:
            prec, rnd = mp._prec_rounding
            u, four_ns = ((1 - s) / (2 * s))._mpf_, (4 * N * s)._mpf_
            a_delta = ((a * 0)._mpf_, (a * 1)._mpf_)    # a Delta_n: n even, n odd
            old, cur = fzero, b1._mpf_
            for n in range(1, n_max):
                ell = mpf_div(mpf_add(a_delta[n % 2], from_int(n), prec, rnd), four_ns,
                              prec, rnd)
                nxt = mpf_sub(mpf_sub(mpf_sub(mpf_div(ell, cur, prec, rnd), cur, prec, rnd),
                                      old, prec, rnd), u, prec, rnd)
                trajectory.append(nxt)
                if nxt[0] or not nxt[1]:    # negative, or zero, infinite or nan
                    failure = n + 1
                    break
                old, cur = cur, nxt
        betas = (mp.zero, b1) + tuple(map(mp.make_mpf, trajectory))
        return BetaSequence(params=params, route="dpi", betas=betas,
                            digits_used=ctx.digits, failure_index=failure)


def dpi_residual(betas: BetaSequence | Sequence, params: WeightParams) -> list:
    """Residuals r_n of the dP_I for n = 1 .. len(betas)-2.

    For s > 0:  r_n = beta_n (beta_{n+1}+beta_n+beta_{n-1} + u) - (n+alpha Delta_n)/(4Ns).
    At s = 0 the s-multiplied form is used (the equation times s), which the
    closed-form coefficients satisfy exactly:
                r_n = beta_n (1-s)/2 - (n + alpha Delta_n)/(4N)   (s terms absent).
    """
    if len(betas) < 3:
        raise DomainError("need at least beta_0, beta_1, beta_2")
    with mp.workdps(_sequence_digits(betas)):
        s, a, N = params.mpfs()
        out = []
        for n in range(1, len(betas) - 1):
            ell4N = (n + a * delta_parity(n)) / (4 * N)
            triple = betas[n + 1] + betas[n] + betas[n - 1]
            if s == 0:
                out.append(betas[n] * (1 - s) / 2 - ell4N)
            else:
                out.append(betas[n] * (triple + (1 - s) / (2 * s)) - ell4N / s)
        return out


def beta_prime(n: int, betas, params: WeightParams) -> mpf:
    """beta_n'(s) from the differential-difference equation (needs beta_{n+-1})."""
    _check_n(n, 0)
    _check_index(n, betas, lowest=0)
    if params.s == 0:
        raise DomainError("beta_prime formula is singular at s = 0")
    with mp.workdps(_sequence_digits(betas)):
        s, a, N = params.mpfs()
        return betas[n] / (2 * s) * (N * (s + 1) * (betas[n + 1] - betas[n - 1]) - 1)


def beta_second(n: int, betas, params: WeightParams) -> mpf:
    """beta_n''(s) by differentiating the differential-difference equation.

    Chains beta'_{n+-1} (each again from the first-order equation, using
    beta_{n+-2}) through E = N(1+s)(beta_{n+1}-beta_{n-1}) - 1:

        beta_n'' = (beta_n' E + beta_n E')/(2s) - beta_n E/(2 s^2).

    Never uses second differences; this is the analytic route.
    """
    if params.s == 0:
        raise DomainError("beta_second formula is singular at s = 0")
    with mp.workdps(_sequence_digits(betas)):
        s, a, N = params.mpfs()
        bp_n = beta_prime(n, betas, params)
        bp_up = beta_prime(n + 1, betas, params)
        bp_dn = beta_prime(n - 1, betas, params)
        E = N * (1 + s) * (betas[n + 1] - betas[n - 1]) - 1
        Ep = N * (betas[n + 1] - betas[n - 1]) + N * (1 + s) * (bp_up - bp_dn)
        return (bp_n * E + betas[n] * Ep) / (2 * s) - betas[n] * E / (2 * s * s)


def _laurent(terms, x, d: int = 0) -> mpf:
    """sum c x^k over the (k, c) pairs of a Laurent polynomial in x, or its
    d-th x-derivative for d = 1, 2 or 3."""
    return fsum(c * (1, k, k * (k - 1), k * (k - 1) * (k - 2))[d] * x ** (k - d)
                for k, c in terms)


def _ode_slices(s, r, alpha, dn: int) -> tuple:
    """The N^2, N^1 and N^0 parts of the ``ode25_residual`` beta-terms at
    n = r N, as Laurent polynomials in beta (pairs for ``_laurent``)."""
    c1 = (1 + s) ** 2
    s2 = ((3, -3 * c1 / (8 * s ** 2)), (2, -c1 * (1 - s) / (4 * s ** 3)),
          (1, -c1 * ((1 - s) ** 2 + 2 * r * s) / (32 * s ** 4)),
          (-1, c1 * r * r / (128 * s ** 4)))
    s1 = ((1, -alpha * (2 - 3 * dn) * c1 / (16 * s ** 3)),
          (-1, r * alpha * dn * c1 / (64 * s ** 4)))
    s0 = ((1, (3 - s) / (8 * s * s * (1 + s))),
          (-1, alpha ** 2 * dn * c1 / (128 * s ** 4)))
    return s2, s1, s0


def _ode_beta_prime_term(s, b, bp, bpp) -> mpf:
    """The part of the ODE residual that carries beta' and beta''."""
    return bpp - bp ** 2 / (2 * b) + (2 + s) / (s * (1 + s)) * bp


def ode25_residual(n: int, params: WeightParams, ctx: NumericContext,
                   betas: Optional[BetaSequence] = None) -> mpf:
    """Signed residual of the second-order ODE in s,

        beta'' = beta'^2/(2 beta) - (2+s)/(s(1+s)) beta'
                 + 3 N^2 (1+s)^2/(8 s^2) beta^3 + N^2 (1+s)^2 (1-s)/(4 s^3) beta^2
                 + [(N^2 (1-s)^2 (1+s)^3 - 4 s^2 (3-s))/(32 s^4 (1+s))
                    + N (1+s)^2 p_n/(16 s^3)] beta - (1+s)^2 q_n/(128 s^4 beta),

    as N^2 S2 + N S1 + S0 (``_ode_slices`` at r = n/N) plus the beta'-terms
    (``_ode_beta_prime_term``).  All inputs are
    analytic: beta_{n-2}..beta_{n+2} from the Hankel route, beta_n' from the
    differential-difference equation, beta_n'' from its analytic derivative.
    The residual is pure round-off when the printed equation is consistent.
    """
    if params.s == 0:
        raise DomainError("the ODE is singular at s = 0")
    if n < 2:
        raise DomainError("need n >= 2 (the window uses beta_{n-2})")
    if betas is None:
        betas = beta_from_moments(params, n + 2, ctx)
    with mp.workdps(_sequence_digits(betas)):
        s, a, N = params.mpfs()
        bn = betas[n]
        s2, s1, s0 = _ode_slices(s, n / N, a, delta_parity(n))
        return +(N ** 2 * _laurent(s2, bn) + N * _laurent(s1, bn) + _laurent(s0, bn)
                 + _ode_beta_prime_term(s, bn, beta_prime(n, betas, params),
                                        beta_second(n, betas, params)))


def _positive_root(a, b, c) -> mpf:
    """The root x >= 0 of a x^2 + b x = c for a, b, c >= 0, formed as
    2c/(b + sqrt(b^2 + 4ac)): nothing cancels, and at a = 0 it is c/b exactly."""
    return 2 * c / (b + sqrt(b * b + 4 * a * c))


def upper_bound(n: int, params: WeightParams, ctx: NumericContext = _DEFAULT_CTX) -> mpf:
    """Closed-form upper bound 0 < beta_n < -(1-s)/(4s) + sqrt((...)^2 + l_n/(4Ns)):
    the dP_I without beta_{n+-1}, the positive root of
    4Ns x^2 + 2N(1-s) x = n + alpha Delta_n (``_positive_root``)."""
    _check_n(n, 0)
    if params.s == 0:
        raise DomainError("the bound is stated for s > 0")
    with mp.workdps(ctx.digits):
        s, a, N = params.mpfs()
        return _positive_root(4 * N * s, 2 * N * (1 - s), n + a * delta_parity(n))


@dataclass(frozen=True)
class SensitivityRun:
    """One perturbed dP_I trajectory: where (if at all) positivity first failed."""

    first_failure_index: Optional[int]
    trajectory: tuple


def sensitivity_run(params: WeightParams, epsilon, n_max: int,
                    ctx: Optional[NumericContext] = None) -> SensitivityRun:
    """Run the dP_I from beta_1 + epsilon and record the first positivity failure.

    Default precision is 500 digits, which keeps the unperturbed run positive
    far beyond n = 100; perturbed runs fail at a finite index that moves
    earlier as |epsilon| grows.
    """
    ctx = ctx or NumericContext(digits=500)
    with mp.workdps(ctx.digits + 20):
        b1 = beta1_initial(params, NumericContext(digits=ctx.digits + 20)) + mpmathify(epsilon)
    seq = dpi_forward(params, b1, n_max, ctx)
    return SensitivityRun(first_failure_index=seq.failure_index, trajectory=seq.betas)
