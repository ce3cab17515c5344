"""Asymptotic regimes of the recurrence coefficients, plus fluid endpoints.

Three expansions are implemented, each checkable against the Hankel oracle at
its predicted remainder order:

1. s -> 0 with n, N fixed (``beta_small_s``): a series in s with prefactor
   sqrt(q_n)/(2N) and coefficients rational in (p_n, q_n, N).  The c2 and c3
   used here are the series solution of the verified second-order ODE; the
   remainder is O(s^4).  The coefficients do not depend on s, so one cached
   evaluation per (n, alpha, N, digits) serves every s.

2. n -> infinity with N fixed (``beta_large_n``): the string-equation
   expansion beta_m ~ C sqrt(m) (1 + sum_k d_k m^{-k/2}), C = 1/(2 sqrt(3 N s)),
   where d_k = a_k + b_k (-1)^m takes one value for even m and another for
   odd m (Van Assche, Orthogonal Polynomials and Painleve Equations, CUP
   2018, ch. 2).  The dP_I is solved order by order as two plain series in
   t = n^{-1/2}, one at an even n and one at an odd n, since the neighbours
   n +- 1 of either carry the other parity's coefficients.  At order k the
   two residuals are 6 a_k +- 2 b_k plus terms in the lower orders, already
   final, so only the t^k coefficient of each residual is formed and the
   solve costs O(7^2) products; it reduces to the classical coefficient
   table at alpha = 0, and one cached solve per point serves both parities.
   Truncation after k = 7 leaves an O(n^{-7/2}) remainder.

3. n, N -> infinity with r = n/N fixed (``beta_double_scaling``):
   beta = a0(s) + a1(s)/N + a2(s)/N^2 + O(N^{-3}) where a0 solves the
   Coulomb-fluid quadratic, and a1 (the standard parity-dependent correction) and
   a2 come from substituting the expansion into the N-slices of the
   second-order ODE, written once in ``recurrence`` next to
   ``ode25_residual``; the Hankel data confirms a2 at the O(N^{-3}) rate.

``fluid_endpoint`` gives the support edge b^2 of the equilibrium density for
n particles and the Mhaskar-Rakhmanov-Saff number a_mu = sqrt(b^2), the
positive root a of (3/2) N s a^4 + N (1-s) a^2 = mu at mu = 2n + alpha, so
that beta_n / a_mu^2 -> 1/4.  This is the reduction of the dP_I that gives
a0: with beta_{n+-1} = beta_n it reads 12 N s x^2 + 2 N (1-s) x = n + alpha Delta_n,
whose root is a0 to leading order at r = n/N, and is exactly b^2/4 at
n + alpha/2.  One root, ``recurrence._positive_root``, serves both reductions
(the upper bound drops beta_{n+-1} instead) and is free of cancellation as s -> 0.

The route table at the end is the one way from a route name to betas; it sits
here, the lowest module that sees all five routes without an import cycle.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpmathify, sqrt
from mpmath.libmp import (dps_to_prec, fone, from_int, fzero, mpf_add, mpf_div, mpf_mul,
                          mpf_pos, mpf_rdiv_int, mpf_sqrt)

from .numerics import NumericContext, DomainError, fraction_to_mpf, _DEFAULT_CTX, _check_n
from .moments import WeightParams
from . import hankel, recurrence
from .recurrence import (delta_parity, _laurent, _ode_slices, _ode_beta_prime_term,
                         _positive_root)

# ---------------------------------------------------------------------------
# regime 1: s -> 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallSCoefficients:
    """Prefactor sqrt(q_n)/(2N) and series coefficients c_0..c_3 (c_0 = 1)."""

    prefactor: mpf
    c: tuple  # (c0, c1, c2, c3)


def small_s_coefficients(n: int, params: WeightParams,
                         ctx: NumericContext = _DEFAULT_CTX) -> SmallSCoefficients:
    """Series data for beta_n(s) = pref * (1 + c1 s + c2 s^2 + c3 s^3 + O(s^4)).

    c1 matches the theorem statement; c2 and c3 are the series solution of the
    second-order ODE in terms of p_n, q_n:

      c1 = (N - p - 2 Q)/N,
      c2 = (2N^2 - 12NQ - 6Np + 17Q^2 + 16Qp + 3p^2 + 12) / (2N^2),
      c3 = (2N^3 + 60N - 100p - 12N^2 p + 15N p^2 - 5p^3 - 224Q - 24N^2 Q
            + 80NpQ - 48p^2 Q + 85NQ^2 - 125pQ^2 - 92Q^3) / (2N^3),

    with p = p_n = n + alpha (2 - 3 Delta_n) and Q = sqrt(q_n) = n + alpha Delta_n.
    None of them reads s, so one cached evaluation per (n, alpha, N, digits)
    serves every s.
    """
    _check_n(n, 0)
    return _small_s_series(n, params.alpha, params.big_n, ctx.digits)


# Bounded so that long parameter sweeps cannot grow it without limit.
@functools.lru_cache(maxsize=256)
def _small_s_series(n: int, alpha: Fraction, big_n: Fraction,
                    digits: int) -> SmallSCoefficients:
    """The ``small_s_coefficients`` data, keyed by all it reads."""
    with mp.workdps(digits + 10):
        a, N = fraction_to_mpf(alpha), fraction_to_mpf(big_n)
        dn = delta_parity(n)
        p, Q = n + a * (2 - 3 * dn), n + a * dn
        c1 = (N - p - 2 * Q) / N
        c2 = (2 * N ** 2 - 12 * N * Q - 6 * N * p + 17 * Q ** 2 + 16 * Q * p
              + 3 * p ** 2 + 12) / (2 * N ** 2)
        c3 = (2 * N ** 3 + 60 * N - 100 * p - 12 * N ** 2 * p + 15 * N * p ** 2
              - 5 * p ** 3 - 224 * Q - 24 * N ** 2 * Q + 80 * N * p * Q
              - 48 * p ** 2 * Q + 85 * N * Q ** 2 - 125 * p * Q ** 2
              - 92 * Q ** 3) / (2 * N ** 3)
        return SmallSCoefficients(prefactor=Q / (2 * N), c=(mp.one, +c1, +c2, +c3))


def beta_small_s(n: int, params: WeightParams,
                 ctx: NumericContext = _DEFAULT_CTX) -> mpf:
    """Small-s evaluation of beta_n; meaningful accuracy needs s <~ 0.05."""
    if n == 0:  # a negative n reaches small_s_coefficients, which rejects it
        return mp.zero
    data = small_s_coefficients(n, params, ctx)
    with mp.workdps(ctx.digits + 10):
        s = fraction_to_mpf(params.s)
        c0, c1, c2, c3 = data.c
        return data.prefactor * (c0 + c1 * s + c2 * s * s + c3 * s ** 3)


# ---------------------------------------------------------------------------
# regime 2: n -> infinity, N fixed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeNCoefficients:
    """Coefficients of the n^{-1/2}-expansion at given parameters and parity.

    beta_n = scale sqrt(n) (1 + sum_k d_k n^{-k/2}) with scale = 1/(2 sqrt(3 N s)).
    ``d`` holds the seven coefficients for this parity, d_k = a_k + b_k (-1)^n;
    ``symmetric``/``alternating`` expose the (a_k, b_k) split, one pair of
    tuples shared by both parities.  The alternating parts vanish identically
    at alpha = 0, where the symmetric parts reduce to the classical
    closed-form table (in particular the symmetric n^{-3/2} coefficient is
    exactly zero).
    """

    d: tuple
    symmetric: tuple
    alternating: tuple
    scale: mpf


_ORDER = 7  # truncation order in t = n^{-1/2}

# binomial(h/2, 2) = h (h - 2)/8, exactly, for the h = 1 - (k - 4), k = 4.._ORDER,
# of the neighbour sum: m = 2 is the only even m >= 2 with 2m <= k <= _ORDER = 7
# (an eighth order would add binomial(1/2, 4)).
_BINOMIALS = {h: Fraction(h * (h - 2), 8) for h in range(1, 4 - _ORDER, -1)}


def _solve_string_coefficients(s, alpha, N) -> list:
    """(a_k, b_k) for k = 1.._ORDER by matching orders of the dP_I residual.

    beta_n / (C sqrt(n)) = sum_j own_j t^j in t = n^{-1/2}, own_0 = 1, own_j the
    d_j of n's parity; the neighbours n +- 1 carry the other parity's d_j with
    (1 +- t^2)^{(1-j)/2} folded in, and in their sum the odd powers of +-t^2
    cancel, so the neighbour sum is the series ``triple`` with
    triple_k = own_k + 2 sum_{m even} binomial((1 - (k - 2m))/2, m) other_{k-2m},
    where only m = 2 reaches t^7.  The residual times t^2/C^2, C^2 = 1/(12 N s),
    is own * triple + u t own - 3 - 3 alpha Delta_n t^2 with u = (1-s)/(2s) / C.
    Its t^k coefficient is 4 own_k + 2 other_k plus terms in the orders below k,
    which are final:
    r_e = 6 a_k + 2 b_k + (lower) at an even n and r_o = 6 a_k - 2 b_k + (lower)
    at an odd n, so order k costs O(k) work and the pair follows exactly.
    """
    u = (1 - s) / (2 * s) * sqrt(12 * N * s)
    alpha_terms = (0, 3 * alpha)  # index 0 is an even n, index 1 an odd n
    own, triple, pairs = ([mp.one], [mp.one]), ([3 * mp.one], [3 * mp.one]), []
    for k in range(1, _ORDER + 1):
        c = fraction_to_mpf(_BINOMIALS[5 - k]) if k >= 4 else 0
        tails = [2 * (c * own[1 - p][k - 4]) if k >= 4 else 0 for p in (0, 1)]
        lower = [tails[p] + u * own[p][k - 1] - (alpha_terms[p] if k == 2 else 0)
                 + sum(own[p][i] * triple[p][k - i] for i in range(1, k)) for p in (0, 1)]
        a, b = -(lower[0] + lower[1]) / 12, -(lower[0] - lower[1]) / 4
        own[0].append(a + b)
        own[1].append(a - b)
        for p in (0, 1):
            triple[p].append(own[p][k] + 2 * own[1 - p][k] + tails[p])
        pairs.append((a, b))
    return pairs


def large_n_coefficients(params: WeightParams, parity: str,
                         ctx: NumericContext = _DEFAULT_CTX) -> LargeNCoefficients:
    """Expansion coefficients d_1..d_7 for the requested parity (cached)."""
    if params.s == 0:
        raise DomainError("the large-n expansion needs s > 0")
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    even, odd = _large_n_parities(params, ctx.digits)
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
        return tuple(LargeNCoefficients(d=tuple(+(ak + bk * sign) for ak, bk in pairs),
                                        symmetric=sym, alternating=alt, scale=scale)
                     for sign in (1, -1))


def beta_large_n(n: int, params: WeightParams,
                 ctx: NumericContext = _DEFAULT_CTX) -> mpf:
    """Large-n evaluation of beta_n through the n^{-3} term (O(n^{-7/2}) remainder):
    t = 1/sqrt(n), Horner in t for 1 + sum_k d_k t^k, then scale/t (1 + sum).

    Runs on libmp values at ctx.digits + 10 and the working rounding, with the
    operations of that mpf form in the same order, so the result has its bits.
    """
    _check_n(n, 1)
    data = large_n_coefficients(params, "even" if n % 2 == 0 else "odd", ctx)
    prec, rnd = dps_to_prec(ctx.digits + 10), mp._prec_rounding[1]
    t = mpf_rdiv_int(1, mpf_sqrt(mpf_pos(from_int(n), prec, rnd), prec, rnd), prec, rnd)
    total = fzero
    for dk in reversed(data.d):
        total = mpf_mul(mpf_add(total, dk._mpf_, prec, rnd), t, prec, rnd)
    return mp.make_mpf(mpf_mul(mpf_div(data.scale._mpf_, t, prec, rnd),
                               mpf_add(total, fone, prec, rnd), prec, rnd))


# ---------------------------------------------------------------------------
# regime 3: n, N -> infinity with r = n/N fixed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleScalingData:
    """The expansion coefficients a0, a0' = da0/ds, a1 and a2 of beta_n at one
    r = n/N and parity."""

    a0: mpf
    a0p: mpf
    a1: mpf
    a2: mpf


def double_scaling_coefficients(s, r, alpha, parity: str) -> DoubleScalingData:
    """a0, a1, a2 for beta_n = a0 + a1/N + a2/N^2 + O(N^{-3}) at n = r N.

    s, r and alpha are mpf; the work runs at the caller's working precision.
    a0 is the positive root of 6 s a0^2 + (1-s) a0 = r/2, the dP_I with
    beta_{n+-1} = beta_n at leading order, and differentiating that quadratic
    at fixed r gives, with g = 1 - s + 12 s a0,

        a0' = a0 (1 - 6 a0)/g,   a0'' = a0' (2 - 24 a0 - 12 s a0')/g,

    none of which cancels as s -> 0.  Substituting the expansion into the ODE
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
    a0 = _positive_root(6 * s, 1 - s, r / 2)
    g = 1 - s + 12 * s * a0
    a0p = a0 * (1 - 6 * a0) / g
    a0pp = a0p * (2 - 24 * a0 - 12 * s * a0p) / g
    s2, s1, s0 = _ode_slices(s, r, alpha, 0 if parity == "even" else 1)
    s2_d1 = _laurent(s2, a0, 1)
    a1 = -_laurent(s1, a0) / s2_d1
    c_val = _laurent(s0, a0) + _ode_beta_prime_term(s, a0, a0p, a0pp)
    a2 = -(_laurent(s2, a0, 2) * a1 ** 2 / 2 + _laurent(s1, a0, 1) * a1 + c_val) / s2_d1
    return DoubleScalingData(a0=a0, a0p=a0p, a1=a1, a2=a2)


def beta_double_scaling(n: int, big_n, s, alpha,
                        ctx: NumericContext = _DEFAULT_CTX) -> mpf:
    """a0 + a1/N + a2/N^2 from ``double_scaling_coefficients`` at r = n/N, which
    must lie in (0, 1], and at the parity of n."""
    _check_n(n, 0)      # r > 0 rules out n = 0
    with mp.workdps(ctx.digits + 10):
        Nv = mpmathify(big_n)
        r = mpf(n) / Nv
        if not (0 < r <= 1):
            raise DomainError(f"r = n/N must lie in (0, 1], got {r}")
        data = double_scaling_coefficients(mpmathify(s), r, mpmathify(alpha),
                                           "even" if n % 2 == 0 else "odd")
        return data.a0 + data.a1 / Nv + data.a2 / Nv ** 2


# ---------------------------------------------------------------------------
# Coulomb-fluid endpoint
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidEndpoint:
    """Support endpoint data for n particles: b^2 and the matching MRS number.

    a_mu is taken at the fluid normalisation mu = 2n + alpha, so a_mu^2 = b^2
    exactly and beta_n / a_mu^2 -> 1/4.
    """

    b_squared: mpf
    a_mu: mpf


def fluid_endpoint(n: int, params: WeightParams,
                   ctx: NumericContext = _DEFAULT_CTX) -> FluidEndpoint:
    """b^2 = [s - 1 + sqrt((1-s)^2 + 6 s mu/N)]/(3s) at mu = 2n + alpha, taken as
    the positive root of (3/2) N s x^2 + N (1-s) x = mu (``recurrence._positive_root``),
    which keeps every digit as s -> 0 and is mu/N at s = 0; a_mu = sqrt(b^2)."""
    _check_n(n, 0)
    if 2 * n + params.alpha <= 0:
        raise DomainError(f"mu = 2n + alpha must be positive, got {2 * n + params.alpha}")
    with mp.workdps(ctx.digits + 10):
        s, a, N = params.mpfs()
        b_squared = _positive_root(3 * N * s / 2, N * (1 - s), 2 * n + a)
        return FluidEndpoint(b_squared=b_squared, a_mu=sqrt(b_squared))


# ---------------------------------------------------------------------------
# the route table
# ---------------------------------------------------------------------------

#: routes run once to the largest n: (params, n, ctx) -> BetaSequence.  Each entry
#: looks its function up at call time, so a patched module attribute sees every call.
SEQUENCE_ROUTES = {
    "hankel": lambda params, n, ctx: hankel.beta_from_moments(params, n, ctx),
    "dpi": lambda params, n, ctx: recurrence.dpi_forward(
        params, recurrence.beta1_initial(params, ctx), n, ctx),
}
#: routes evaluated at each n >= 1: (n, params, ctx) -> mpf
EXPANSION_ROUTES = {
    "smalls": lambda n, params, ctx: beta_small_s(n, params, ctx),
    "largen": lambda n, params, ctx: beta_large_n(n, params, ctx),
    "double": lambda n, params, ctx: beta_double_scaling(n, params.big_n, params.s,
                                                         params.alpha, ctx),
}


def beta_values(route: str, params: WeightParams, ns, ctx: NumericContext) -> dict:
    """{n: beta_n} for n in ns by ``route``, rejecting a negative n before any route
    runs.  Sequence routes run once to the largest n, with nan past a cone exit;
    beta_0 = 0, with no call when 0 is the only n.  The routes own s = 0."""
    if route not in SEQUENCE_ROUTES and route not in EXPANSION_ROUTES:
        raise DomainError(f"unknown route {route!r}; choose from "
                          f"{[*SEQUENCE_ROUTES, *EXPANSION_ROUTES]}")
    if min(ns, default=-1) < 0:
        raise DomainError("need at least one n, and every n >= 0")
    if max(ns) == 0:
        return dict.fromkeys(ns, mp.zero)
    if route in SEQUENCE_ROUTES:
        seq = SEQUENCE_ROUTES[route](params, max(ns), ctx)
        return {n: seq[n] if n < len(seq) else mp.nan for n in ns}
    return {n: EXPANSION_ROUTES[route](n, params, ctx) if n else mp.zero for n in ns}
