"""Large-n asymptotics of the Hankel determinant.

Exact side.  The logarithmic s-derivative of D_n(s) has a closed form in
beta_n and beta_n' alone (``logdet_derivative_exact``); the intermediate sum
formula

    D_n'/D_n = N(1+s)/(2s) sum_{j<n} (beta_{j+1}+beta_j) - n^2/(4s) - n alpha/(4s)

is kept as ``logdet_derivative_sum`` for cross-checking.  Both are verified
against central differences of log D_n(s).

Asymptotic side.  With n = r N and N -> infinity,

    D_n'/D_n = A(s) N^2 + B(s) N + C(s) + D(s)/N + O(N^-2),

and integrating over s in [0, 1] connects D_n(1) to the exactly known D_n(0).
``appendix_b_coefficients`` evaluates the four coefficient functions:

* All four come from the generating construction itself: the exact
  log-derivative is written once, as N-slices t2, t1, t0 (Laurent
  polynomials in beta_n) plus its beta_n' term, and substituting
  beta = a0 + a1/N + a2/N^2 (``asymptotics.double_scaling_coefficients``)
  and collecting powers of N gives A = t2(a0), B = t1(a0), C and D; t2'(a0)
  vanishes because t2' is proportional to the ODE's N^2 slice, so the N^-3
  term of beta never enters D.
* The printed closed forms for B and C fail the N-fit cross-check that
  ``fit_abc`` performs against exact data.  B(s) comes out
  parity-independent with integral -r alpha (log 3 + log r - 1)/4.
* Nothing divides by f(s) = 1 - 2s - 4rs + s^2: at f(s) = 0, e.g.
  (s, r, alpha) = (1/2, 1/8, 1), D(s) is 69/128 for even n and -39/128 for odd n.

``logdet_expansion`` evaluates the large-n displays for log(D_n(1)/D_n(0)),
log D_n(0) and log D_n(1) through their 1/n terms, with Barnes-G constant
blocks; Barnes G and the Glaisher constant A come from mpmath (``barnesg``,
``mp.glaisher``).  The block depends on alpha and the precision alone, so one
cached value per (alpha, ctx), bounded to 256 keys, serves every n and both
displays that read it.  alpha <= -1 raises DomainError.  The n-linear coefficients of the ratio and of log D_n(1) are
parity-independent (the even-parity variants confirmed against exact
determinant data), while the 1/n terms do alternate with parity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal, Optional

from mpmath import mp, mpf, mpmathify, log, loggamma, pi, matrix, lu_solve, fsum, diff

from .numerics import NumericContext, DomainError, barnes_g_log, _DEFAULT_CTX, _check_n
from .moments import WeightParams
from .hankel import BetaSequence, beta_from_moments, _sequence_digits
from .recurrence import beta_prime, delta_parity, _laurent, _positive_root
from .asymptotics import double_scaling_coefficients


# ---------------------------------------------------------------------------
# exact logarithmic derivative
# ---------------------------------------------------------------------------

def _logdet_slices(s, r, alpha, dn: int) -> tuple:
    """The N^2, N^1 and N^0 parts t2, t1, t0 of the ``logdet_derivative_exact``
    beta_n-terms at n = r N, as Laurent polynomials (pairs for ``_laurent``)."""
    t2 = ((-1, (1 + s) * r * r / (32 * s * s)),
          (0, r * (s * s - 1) / (8 * s * s) - r * r / (4 * s)),
          (1, ((1 - s * s) ** 2 + 2 * r * s * (1 + s) ** 2) / (8 * s * s * (1 + s))),
          (2, (1 - s * s) / (2 * s)), (3, (1 + s) / 2))
    t1 = ((-1, r * alpha * dn * (1 + s) / (16 * s * s)),
          (0, alpha * dn * (s * s - 1) / (8 * s * s) - r * alpha / (4 * s)),
          (1, alpha * (2 - 3 * dn) * (1 + s) / (4 * s)))
    t0 = ((-1, alpha * alpha * dn * (1 + s) / (32 * s * s)), (1, -1 / (2 * (1 + s))))
    return t2, t1, t0


def _logdet_beta_prime_term(s, b, bp) -> mpf:
    """The part of d/ds log D_n that carries beta_n'."""
    return -2 * s / (1 + s) * (s * bp ** 2 / b + bp)


def logdet_derivative_exact(n: int, params: WeightParams, ctx: NumericContext,
                            betas: Optional[BetaSequence] = None) -> mpf:
    """d/ds log D_n(s) in closed form from beta_n and beta_n'(s):

        [N (s^2-1)(n + alpha Delta_n) - 2 s n (n + alpha)]/(8 s^2)
        + (1+s)(n + alpha Delta_n)^2/(32 s^2 beta_n)
        + [N^2 (1-s^2)^2 + 2 N s (1+s)^2 (n + 2 alpha - 3 alpha Delta_n) - 4 s^2]
          / (8 s^2 (1+s)) beta_n
        + N^2 (1-s^2)/(2s) beta_n^2 + N^2 (1+s)/2 beta_n^3
        - 2s/(1+s) (s beta_n'^2/beta_n + beta_n'),

    as N^2 t2 + N t1 + t0 (``_logdet_slices`` at r = n/N) plus the
    beta_n'-terms (``_logdet_beta_prime_term``).  Requires
    s > 0; beta_n and its neighbours come from the Hankel route and beta_n'
    from the differential-difference equation.  D_0 = 1, so n = 0 gives 0.
    """
    _check_n(n, 0)
    if params.s == 0:
        raise DomainError("the closed form is singular at s = 0")
    if n == 0:
        return mp.zero
    if betas is None:
        betas = beta_from_moments(params, n + 1, ctx)
    with mp.workdps(_sequence_digits(betas)):
        s, a, N = params.mpfs()
        bn = betas[n]
        t2, t1, t0 = _logdet_slices(s, n / N, a, delta_parity(n))
        return +(N ** 2 * _laurent(t2, bn) + N * _laurent(t1, bn) + _laurent(t0, bn)
                 + _logdet_beta_prime_term(s, bn, beta_prime(n, betas, params)))


def logdet_derivative_sum(n: int, params: WeightParams, ctx: NumericContext,
                          betas: Optional[BetaSequence] = None) -> mpf:
    """The direct-summation form of D_n'/D_n (independent cross-check); 0 at n = 0."""
    _check_n(n, 0)
    if params.s == 0:
        raise DomainError("singular at s = 0")
    if n == 0:
        return mp.zero
    if betas is None:
        betas = beta_from_moments(params, n, ctx)
    with mp.workdps(_sequence_digits(betas)):
        s, a, N = params.mpfs()
        total = N * (1 + s) / (2 * s) * fsum(betas[j + 1] + betas[j] for j in range(n))
        return +(total - mpf(n) ** 2 / (4 * s) - n * a / (4 * s))


# ---------------------------------------------------------------------------
# coefficient functions of the N-expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppendixBCoefficients:
    """A(s), B(s), C(s), D(s) at one (s, r, alpha) for n of one parity."""

    a_s: mpf
    b_s: mpf
    c_s: mpf
    d_s: mpf


def _a_coefficient(s, r) -> mpf:
    """A(s) = t2(a0): the N^2 slice of d/ds log D_n at the fluid solution a0."""
    return _laurent(_logdet_slices(s, r, 0, 0)[0], _positive_root(6 * s, 1 - s, r / 2))


def appendix_b_coefficients(s, r, alpha, parity: str,
                            ctx: NumericContext = _DEFAULT_CTX) -> AppendixBCoefficients:
    """Evaluate A(s), B(s), C(s), D(s) for n of the given parity at n = r N.

    Substituting beta = a0 + a1/N + a2/N^2 + a3/N^3 into N^2 t2 + N t1 + t0 + T
    (the slices and the beta'-term T of ``logdet_derivative_exact``) and
    collecting powers of N gives all four; t2'(a0) = 0, so a1 never enters B,
    a2 never enters C and a3 never enters

        D = t2''(a0) a1 a2 + t2'''(a0) a1^3/6 + t1'(a0) a2 + t1''(a0) a1^2/2
            + t0'(a0) a1 + T_beta a1 + T_beta' a1',

    where a1' = da1/ds at fixed r comes from mpmath's ``diff``.  Nothing
    divides by f(s) = 1 - 2s - 4rs + s^2, so f(s) = 0 is a regular point.

    A(s), and B(s), C(s), D(s) for one parity or the other, lose about three
    digits per decade of 1/s to cancellation, so the working precision grows
    by one digit per bit of 1/s on top of 15 guard digits.
    """
    digits = ctx.digits + 15
    s_in = mpmathify(s)
    with mp.workdps(digits - mp.mag(s_in) if 0 < s_in < 1 else digits):
        s, r, alpha = mpmathify(s), mpmathify(r), mpmathify(alpha)
        if not (0 < s <= 1):
            raise DomainError("s must lie in (0, 1]")
        ds = double_scaling_coefficients(s, r, alpha, parity)
        a0, a0p, a1, a2 = ds.a0, ds.a0p, ds.a1, ds.a2
        # a central difference at 2(prec + 20) bits with step 2^-(prec + 10):
        # its error lies far below the working precision
        a1p = diff(lambda x: double_scaling_coefficients(x, r, alpha, parity).a1, s)
        t2, t1, t0 = _logdet_slices(s, r, alpha, 0 if parity == "even" else 1)
        # t2'(x) = -4 s^2 S2(x)/((1+s) x) with S2 the ODE's N^2 slice, so
        # t2'(a0) = 0 and neither a1 enters B, a2 enters C nor a3 enters D
        a_s = _laurent(t2, a0)
        b_s = _laurent(t1, a0)
        c_s = (_laurent(t2, a0, 2) * a1 ** 2 / 2 + _laurent(t1, a0, 1) * a1
               + _laurent(t0, a0) + _logdet_beta_prime_term(s, a0, a0p))
        # T_beta a1 + T_beta' a1': the change of T along (a1, a1')
        dt = -2 * s / (1 + s) * (s * a0p * (2 * a1p - a0p * a1 / a0) / a0 + a1p)
        d_s = (_laurent(t2, a0, 2) * a1 * a2 + _laurent(t2, a0, 3) * a1 ** 3 / 6
               + _laurent(t1, a0, 1) * a2 + _laurent(t1, a0, 2) * a1 ** 2 / 2
               + _laurent(t0, a0, 1) * a1 + dt)
        return AppendixBCoefficients(a_s=+a_s, b_s=+b_s, c_s=+c_s, d_s=+d_s)


def fit_abc(s, r, alpha, big_ns, ctx: NumericContext) -> tuple:
    """Recover (A, B, C) at fixed s by fitting exact d/ds log D_n over N values.

    Each N in ``big_ns`` must give an integer n = r N of one common parity.
    The known D(s)/N term is removed first, leaving an O(N^-2) model error;
    the recovered triple is the N-expansion cross-check for the coefficient
    functions.
    """
    ns = []
    for Nv in big_ns:
        n = mpmathify(r) * Nv
        if n != int(n):
            raise DomainError(f"r*N = {n} is not an integer")
        ns.append(int(n))
    if len({n % 2 for n in ns}) != 1:
        raise DomainError("all fitted n must share one parity")
    parity = "even" if ns[0] % 2 == 0 else "odd"
    with mp.workdps(ctx.digits + 10):
        d_s = appendix_b_coefficients(s, r, alpha, parity, ctx).d_s
        rows = matrix(len(big_ns), 3)
        rhs = matrix(len(big_ns), 1)
        for i, (Nv, n) in enumerate(zip(big_ns, ns)):
            Nm = mpmathify(Nv)
            rhs[i] = logdet_derivative_exact(n, WeightParams(s, alpha, Nv), ctx) - d_s / Nm
            rows[i, 0], rows[i, 1], rows[i, 2] = Nm ** 2, Nm, 1
        sol = lu_solve(rows, rhs)
        return +sol[0], +sol[1], +sol[2]


# ---------------------------------------------------------------------------
# large-n displays for log D_n
# ---------------------------------------------------------------------------

Quantity = Literal["ratio_10", "D0", "D1"]


@dataclass(frozen=True)
class LogDetExpansion:
    """One evaluated display: coefficients of n^2, n, log n, 1, 1/n and their
    sum ``value``, all carrying the digits of the context that evaluated them."""

    parity: str
    n2: mpf
    n1: mpf
    logn: mpf
    const: mpf
    invn: mpf
    value: mpf

    def terms(self) -> dict:
        return {"n^2": self.n2, "n": self.n1, "log n": self.logn,
                "1": self.const, "1/n": self.invn}


@functools.lru_cache(maxsize=256)
def _barnes_block(alpha, ctx: NumericContext) -> mpf:
    """log[ G(3/2) G(1/2) / (G((alpha+3)/2) G((alpha+1)/2)) ] by one Barnes G call, from
    G(z+1) = Gamma(z) G(z) and G(1/2) = 2^(1/24) e^(1/8) pi^(-1/4) A^(-3/2), A = Glaisher.

    Evaluated at ctx.digits + 10, the precision of the displays, so one cached
    value per (alpha, ctx) serves the D0 and D1 displays at every n.
    """
    with mp.workdps(ctx.digits + 10):
        z = (alpha + 1) / 2
        return (log(mpf(2)) / 12 + mpf(1) / 4 - 3 * log(mp.glaisher)
                - 2 * barnes_g_log(z, ctx) - loggamma(z))


def _display_terms(quantity: Quantity, lr, alpha, even: bool, ctx: NumericContext) -> tuple:
    """(n^2, n, log n, 1, 1/n) coefficients of one display at lr = log r; D1 is
    assembled as ratio_10 + D0 term by term."""
    if quantity == "ratio_10":
        return ((3 - 2 * log(mpf(3)) - 2 * lr) / 8,
                -alpha * (-1 + log(mpf(3)) + lr) / 4,  # parity independent
                mp.zero,
                (3 * alpha ** 2 - 1) * log(mpf(2)) / 12 - alpha ** 2 * log(mpf(3)) / 4,
                alpha * (alpha ** 2 + 3) / 48 if even else alpha * (alpha ** 2 - 3) / 48)
    if quantity == "D0":
        return ((2 * lr - 2 * log(mpf(2)) - 3) / 4,
                log(2 * pi) - alpha * (1 + log(mpf(2)) - lr) / 2,
                (3 * alpha ** 2 - 1) / mpf(12),
                (-log(mp.glaisher)
                 + (1 + 6 * alpha * log(2 * pi) - 3 * alpha ** 2 * log(mpf(2))) / 12
                 + _barnes_block(alpha, ctx)),
                (alpha ** 3 + alpha) / 12 if even else (alpha ** 3 - 2 * alpha) / 12)
    if quantity == "D1":
        return tuple(x + y for x, y in zip(_display_terms("ratio_10", lr, alpha, even, ctx),
                                           _display_terms("D0", lr, alpha, even, ctx)))
    raise DomainError(f"unknown quantity {quantity!r}")


def logdet_expansion(quantity: Quantity, n: int, r, alpha,
                     parity: Optional[str] = None,
                     ctx: NumericContext = _DEFAULT_CTX) -> LogDetExpansion:
    """Evaluate the cited large-n display through its 1/n term (n = r N).

    quantity = "ratio_10": log(D_n(1)/D_n(0));  "D0": log D_n(0);
    "D1": log D_n(1).  The three assemble exactly: D1 = ratio_10 + D0
    term by term, for either parity.
    """
    _check_n(n, 1)
    if parity is None:
        parity = "even" if n % 2 == 0 else "odd"
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    with mp.workdps(ctx.digits + 10):
        r, alpha = mpmathify(r), mpmathify(alpha)
        if not (0 < r <= 1):
            raise DomainError("r must lie in (0, 1]")
        if not (alpha > -1):
            raise DomainError(f"alpha must exceed -1, got {alpha}")
        n2, n1, lgn, const, invn = _display_terms(quantity, log(r), alpha,
                                                  parity == "even", ctx)
        nm = mpf(n)
        value = n2 * nm * nm + n1 * nm + lgn * log(nm) + const + invn / nm
        return LogDetExpansion(parity=parity, n2=+n2, n1=+n1, logn=+lgn,
                               const=+const, invn=+invn, value=+value)
