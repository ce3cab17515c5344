"""Asymptotic regimes of the recurrence coefficients, plus fluid endpoints.

Three expansions are implemented, each checkable against the Hankel oracle at
its predicted remainder order:

1. s -> 0 with n, N fixed (``beta_small_s``): a series in s with prefactor
   sqrt(q_n)/(2N) and coefficients rational in (p_n, q_n, N).  The c2 and c3
   used here are the series solution of the verified second-order ODE; the
   remainder is O(s^4).

2. n -> infinity with N fixed (``beta_large_n``): the string-equation
   expansion in n^{-1/2} with prefactor sqrt(n)/(2 sqrt(3 N s)).  For
   alpha != 0 the coefficients carry parity-alternating parts, so they are
   produced by an order-by-order series solver applied to the dP_I with the
   substitution beta_m ~ pref(m) (1 + sum_k (a_k + b_k (-1)^m) m^{-k/2});
   the solver reduces to the classical coefficient table at alpha = 0.
   The Jacobian of order k in its newest pair (a_k, b_k) is exactly
   diag(6, 2), so each order costs one residual evaluation, and one cached
   solve per point serves both parities.  Truncation after k = 7 leaves an
   O(n^{-7/2}) remainder.

3. n, N -> infinity with r = n/N fixed (``beta_double_scaling``):
   beta = a0(s) + a1(s)/N + a2(s)/N^2 + O(N^{-3}) where a0 solves the
   Coulomb-fluid cubic, and a1 (the standard parity-dependent correction) and
   a2 come from substituting the expansion into the N-slices of the
   second-order ODE, written once in ``recurrence`` next to
   ``ode25_residual``; the Hankel data confirms a2 at the O(N^{-3}) rate.

The fluid endpoint b^2 (support edge of the equilibrium density) and the
Mhaskar-Rakhmanov-Saff number a_mu share one quadratic-in-the-square
normalisation (3/2) N s a^4 + N (1-s) a^2 = mu; the endpoint for n particles
corresponds to mu = 2n + alpha, and beta_n / a_mu^2 -> 1/4.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Optional

from mpmath import mp, mpf, mpmathify, sqrt

from .numerics import NumericContext, DomainError, fraction_to_mpf
from .moments import WeightParams
from .recurrence import ParityData, _laurent, _ode_slices, _ode_beta_prime_term

_DEFAULT_DIGITS = 50


# ---------------------------------------------------------------------------
# regime 1: s -> 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallSCoefficients:
    """Prefactor sqrt(q_n)/(2N) and series coefficients c_0..c_3 (c_0 = 1)."""

    n: int
    prefactor: mpf
    c: tuple  # (c0, c1, c2, c3)


def small_s_coefficients(n: int, params: WeightParams,
                         ctx: Optional[NumericContext] = None) -> SmallSCoefficients:
    """Series data for beta_n(s) = pref * (1 + c1 s + c2 s^2 + c3 s^3 + O(s^4)).

    c1 matches the theorem statement; c2 and c3 are the series solution of the
    second-order ODE in terms of p_n, q_n:

      c1 = (N - p - 2 Q)/N,
      c2 = (2N^2 - 12NQ - 6Np + 17Q^2 + 16Qp + 3p^2 + 12) / (2N^2),
      c3 = (2N^3 + 60N - 100p - 12N^2 p + 15N p^2 - 5p^3 - 224Q - 24N^2 Q
            + 80NpQ - 48p^2 Q + 85NQ^2 - 125pQ^2 - 92Q^3) / (2N^3),

    with Q = sqrt(q_n) = n + alpha Delta_n.
    """
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    with mp.workdps(digits + 10):
        par = ParityData.for_index(n, params.alpha)
        N = fraction_to_mpf(params.big_n)
        p = fraction_to_mpf(par.p_n)
        Q = fraction_to_mpf(params.alpha) * par.delta_n + n  # sqrt(q_n) exactly
        c1 = (N - p - 2 * Q) / N
        c2 = (2 * N ** 2 - 12 * N * Q - 6 * N * p + 17 * Q ** 2 + 16 * Q * p
              + 3 * p ** 2 + 12) / (2 * N ** 2)
        c3 = (2 * N ** 3 + 60 * N - 100 * p - 12 * N ** 2 * p + 15 * N * p ** 2
              - 5 * p ** 3 - 224 * Q - 24 * N ** 2 * Q + 80 * N * p * Q
              - 48 * p ** 2 * Q + 85 * N * Q ** 2 - 125 * p * Q ** 2
              - 92 * Q ** 3) / (2 * N ** 3)
        return SmallSCoefficients(n=n, prefactor=Q / (2 * N),
                                  c=(mp.one, +c1, +c2, +c3))


def beta_small_s(n: int, params: WeightParams,
                 ctx: Optional[NumericContext] = None) -> mpf:
    """Small-s evaluation of beta_n; meaningful accuracy needs s <~ 0.05."""
    if n == 0:
        return mp.zero
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    data = small_s_coefficients(n, params, ctx)
    with mp.workdps(digits + 10):
        s = fraction_to_mpf(params.s)
        c0, c1, c2, c3 = data.c
        return data.prefactor * (c0 + c1 * s + c2 * s * s + c3 * s ** 3)


# ---------------------------------------------------------------------------
# regime 2: n -> infinity, N fixed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeNCoefficients:
    """Coefficients of the n^{-1/2}-expansion at given parameters and parity.

    ``d`` holds the seven coefficients multiplying n^{-k/2} for this parity,
    d_k = a_k + b_k (-1)^n; ``symmetric``/``alternating`` expose the (a_k, b_k)
    split, one pair of tuples shared by both parities.  The alternating parts
    vanish identically at alpha = 0, where the symmetric parts reduce to the
    classical closed-form table (in particular the symmetric n^{-3/2}
    coefficient is exactly zero).
    """

    params: WeightParams
    parity: str
    d: tuple
    symmetric: tuple
    alternating: tuple
    prefactor: Callable


_K_SERIES = 9  # internal truncation order in t = n^{-1/2}


def _series_mul(x, y):
    out = [[mp.zero, mp.zero] for _ in range(_K_SERIES + 1)]
    for i in range(_K_SERIES + 1):
        xi0, xi1 = x[i]
        if xi0 == 0 and xi1 == 0:
            continue
        for j in range(_K_SERIES + 1 - i):
            yj0, yj1 = y[j]
            out[i + j][0] += xi0 * yj0 + xi1 * yj1  # sigma^2 = 1
            out[i + j][1] += xi0 * yj1 + xi1 * yj0
    return out


# binomial(h/2, m) eps^m = eps^m prod_{i<m} (h - 2i) / (2^m m!), exactly, for every
# (eps, h) that ``_beta_series`` asks for: eps = -1, 0, 1 and h = 1, -1, ..., -_K_SERIES.
_BINOMIALS = {(eps, h): tuple(Fraction(eps ** m * prod(h - 2 * i for i in range(m)),
                                       2 ** m * factorial(m))
                              for m in range(_K_SERIES // 2 + 1))
              for eps in (-1, 0, 1) for h in (1, *range(-1, -_K_SERIES - 1, -1))}


def _binom_series(eps: int, half_power: int):
    # (1 + eps t^2)^(half_power/2) at the working precision, no sigma part
    out = [[mp.zero, mp.zero] for _ in range(_K_SERIES + 1)]
    for m, c in enumerate(_BINOMIALS[eps, half_power]):
        if c:
            out[2 * m][0] = fraction_to_mpf(c)
    return out


def _beta_series(eps: int, coeffs):
    """Series of beta_{n+eps} / (C t^{-1}); sigma tracks (-1)^n, flipped at n+-1."""
    sign = -1 if eps else 1
    acc = [[mp.zero, mp.zero] for _ in range(_K_SERIES + 1)]
    acc[0][0] = mp.one
    for k in range(1, _K_SERIES + 1):
        ak, bk = coeffs[k - 1]
        scaled = _binom_series(eps, -k)
        for i in range(_K_SERIES + 1 - k):
            c = scaled[i][0]
            if c == 0:
                continue
            acc[i + k][0] += ak * c
            acc[i + k][1] += bk * sign * c
    return _series_mul(_binom_series(eps, 1), acc)


def _dpi_series_residual(coeffs, s, alpha, N):
    """Residual series of the dP_I under the expansion ansatz (times t^2/C^2)."""
    C2 = 1 / (12 * N * s)
    C = sqrt(C2)
    u = (1 - s) / (2 * s)
    center = _beta_series(0, coeffs)
    upseq = _beta_series(1, coeffs)
    dnseq = _beta_series(-1, coeffs)
    triple = [[upseq[i][0] + center[i][0] + dnseq[i][0],
               upseq[i][1] + center[i][1] + dnseq[i][1]] for i in range(_K_SERIES + 1)]
    res = _series_mul(center, triple)
    for i in range(_K_SERIES):
        res[i + 1][0] += (u / C) * center[i][0]
        res[i + 1][1] += (u / C) * center[i][1]
    res[0][0] -= 3
    res[2][0] -= alpha / (8 * N * s) / C2
    res[2][1] += alpha / (8 * N * s) / C2
    return res


def _solve_string_coefficients(s, alpha, N, kmax: int = 7):
    """(a_k, b_k) for k = 1..kmax by matching orders of the dP_I residual.

    The order-k residual is (6 a_k, 2 b_k) plus terms in the lower pairs, so
    with (a_k, b_k) still zero one residual gives the pair exactly.
    """
    coeffs = [(mp.zero, mp.zero) for _ in range(_K_SERIES)]
    for k in range(1, kmax + 1):
        res_a, res_b = _dpi_series_residual(coeffs, s, alpha, N)[k]
        coeffs[k - 1] = (-res_a / 6, -res_b / 2)
    return coeffs[:kmax]


def large_n_coefficients(params: WeightParams, parity: str,
                         ctx: Optional[NumericContext] = None) -> LargeNCoefficients:
    """Expansion coefficients d_1..d_7 for the requested parity (cached)."""
    if params.s == 0:
        raise DomainError("the large-n expansion needs s > 0")
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    even, odd = _large_n_parities(params, digits)
    return even if parity == "even" else odd


# Bounded so that long parameter sweeps cannot grow it without limit.
@functools.lru_cache(maxsize=256)
def _large_n_parities(params: WeightParams, digits: int) -> tuple:
    """The even and odd coefficients at one point, from one string solve."""
    with mp.workdps(digits + 10):
        s, a, N = params.mpfs()
        pairs = _solve_string_coefficients(s, a, N)
        sym = tuple(+ak for ak, _ in pairs)
        alt = tuple(+bk for _, bk in pairs)
        scale = 1 / (2 * sqrt(3 * N * s))

        def prefactor(n, _scale=scale):
            return sqrt(mpf(n)) * _scale

        return tuple(LargeNCoefficients(params=params, parity=parity,
                                        d=tuple(+(ak + bk * sign) for ak, bk in pairs),
                                        symmetric=sym, alternating=alt, prefactor=prefactor)
                     for parity, sign in (("even", 1), ("odd", -1)))


def beta_large_n(n: int, params: WeightParams,
                 ctx: Optional[NumericContext] = None) -> mpf:
    """Large-n evaluation of beta_n through the n^{-3} term (O(n^{-7/2}) remainder)."""
    if params.s == 0:
        raise DomainError("the large-n expansion needs s > 0")
    if n < 1:
        raise DomainError("n must be >= 1")
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    parity = "even" if n % 2 == 0 else "odd"
    data = large_n_coefficients(params, parity, ctx)
    with mp.workdps(digits + 10):
        t = 1 / sqrt(mpf(n))
        total = mp.zero
        for dk in reversed(data.d):  # Horner in t for 1 + sum_k d_k t^k
            total = (total + dk) * t
        return data.prefactor(n) * (1 + total)


# ---------------------------------------------------------------------------
# regime 3: n, N -> infinity with r = n/N fixed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleScalingData:
    """r = n/N, the auxiliary g(s), g~(s) = s - 1 + g(s) and f(s), and the
    expansion coefficients a0, a0' = da0/ds, a1, a2."""

    r: mpf
    g_s: mpf
    g_tilde: mpf
    f_s: mpf
    a0: mpf
    a0p: mpf
    a1: mpf
    a2: mpf


def g_and_g_tilde(s, r) -> tuple:
    """g(s) = sqrt(1 - 2s + 12rs + s^2) and g~(s) = s - 1 + g(s) at n = r N.

    g~ is formed as s (g + s + 12r - 1)/(1 + g), free of the cancellation in
    s - 1 + g as s -> 0.
    """
    g = sqrt(1 - 2 * s + 12 * r * s + s * s)
    return g, s * (g + s + 12 * r - 1) / (1 + g)


def double_scaling_coefficients(s, r, alpha, parity: str) -> DoubleScalingData:
    """a0, a1, a2 for beta_n = a0 + a1/N + a2/N^2 + O(N^{-3}) at n = r N.

    s, r and alpha are mpf; the work runs at the caller's working precision.
    a0 = (s - 1 + g)/(12 s) solves the fluid cubic, with
    g = sqrt(1 - 2s + 12rs + s^2).  Substituting the expansion into the ODE
    residual N^2 S2 + N S1 + S0 + T (``recurrence._ode_slices`` and the
    beta'-bearing term T) and collecting powers of N gives
    a1 = -S1(a0)/S2'(a0), which agrees with the closed parity-dependent forms,
    and at the next order

        a2 = -[ S2''(a0) a1^2/2 + S1'(a0) a1 + S0(a0) + T(a0, a0', a0'') ] / S2'(a0).

    Nothing here divides by f(s) = 1 - 2s - 4rs + s^2, so a1 and a2 stay
    finite where it vanishes.
    """
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    if s <= 0:
        raise DomainError("double-scaling regime needs s > 0")
    f_s = 1 - 2 * s - 4 * r * s + s * s
    g, gt = g_and_g_tilde(s, r)
    a0 = gt / (12 * s)
    gp = (s + 6 * r - 1) / g
    gpp = (g * g - (s + 6 * r - 1) ** 2) / g ** 3
    a0p = (s * (1 + gp) - gt) / (12 * s ** 2)
    a0pp = (s * s * gpp - 2 * s * (1 + gp) + 2 * gt) / (12 * s ** 3)
    s2, s1, s0 = _ode_slices(s, r, alpha, 0 if parity == "even" else 1)
    s2_d1 = _laurent(s2, a0, 1)
    a1 = -_laurent(s1, a0) / s2_d1
    c_val = _laurent(s0, a0) + _ode_beta_prime_term(s, a0, a0p, a0pp)
    a2 = -(_laurent(s2, a0, 2) * a1 ** 2 / 2 + _laurent(s1, a0, 1) * a1 + c_val) / s2_d1
    return DoubleScalingData(r=r, g_s=g, g_tilde=gt, f_s=f_s, a0=a0, a0p=a0p,
                             a1=a1, a2=a2)


def double_scaling_data(n: int, big_n, s, alpha,
                        ctx: Optional[NumericContext] = None) -> DoubleScalingData:
    """``double_scaling_coefficients`` at r = n/N for the parity of n."""
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    with mp.workdps(digits + 10):
        r = mpf(n) / mpmathify(big_n)
        if not (0 < r <= 1):
            raise DomainError(f"r = n/N must lie in (0, 1], got {r}")
        return double_scaling_coefficients(mpmathify(s), r, mpmathify(alpha),
                                           "even" if n % 2 == 0 else "odd")


def beta_double_scaling(n: int, big_n, s, alpha,
                        ctx: Optional[NumericContext] = None) -> mpf:
    """Double-scaling evaluation a0 + a1/N + a2/N^2 with parity-correct a1, a2."""
    data = double_scaling_data(n, big_n, s, alpha, ctx)
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    with mp.workdps(digits + 10):
        Nv = mpmathify(big_n)
        return data.a0 + data.a1 / Nv + data.a2 / Nv ** 2


# ---------------------------------------------------------------------------
# Coulomb-fluid endpoint and MRS number
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidEndpoint:
    """Support endpoint data for n particles: b^2 and the matching MRS number.

    a_mu is taken at the fluid normalisation mu = 2n + alpha, so a_mu^2 = b^2
    exactly and beta_n / a_mu^2 -> 1/4.
    """

    n: int
    b_squared: mpf
    a_mu: mpf


def _fluid_root(mu, params: WeightParams) -> mpf:
    """Positive root x = a^2 of (3/2) N s x^2 + N (1-s) x = mu; mu/N at s = 0."""
    s, _, N = params.mpfs()
    if s == 0:
        return mu / N
    disc = N * N * (1 - s) ** 2 + 6 * N * s * mu
    # -N(1-s) + sqrt(disc), stabilised against cancellation as s -> 0
    return ((disc - N * N * (1 - s) ** 2) / (sqrt(disc) + N * (1 - s))) / (3 * N * s)


def coulomb_b_squared(n: int, params: WeightParams,
                      ctx: Optional[NumericContext] = None) -> mpf:
    """b^2 = [s - 1 + sqrt((1-s)^2 + 6 s (2n+alpha)/N)]/(3s): the squared MRS
    number at mu = 2n + alpha, with the limit (2n + alpha)/N at s = 0."""
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    with mp.workdps(digits + 10):
        return _fluid_root(2 * n + fraction_to_mpf(params.alpha), params)


def mrs_number(mu, params: WeightParams,
               ctx: Optional[NumericContext] = None) -> mpf:
    """Unique positive root a of (3/2) N s a^4 + N (1-s) a^2 = mu."""
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    with mp.workdps(digits + 10):
        mu = mpmathify(mu)
        if mu <= 0:
            raise DomainError("mu must be positive")
        return sqrt(_fluid_root(mu, params))


def fluid_endpoint(n: int, params: WeightParams,
                   ctx: Optional[NumericContext] = None) -> FluidEndpoint:
    """b^2 and the MRS number at the particle-number normalisation mu = 2n + alpha."""
    digits = ctx.digits if ctx is not None else _DEFAULT_DIGITS
    with mp.workdps(digits + 10):
        _, a, _ = params.mpfs()
        return FluidEndpoint(n=n,
                             b_squared=coulomb_b_squared(n, params, ctx),
                             a_mu=mrs_number(2 * n + a, params, ctx))
