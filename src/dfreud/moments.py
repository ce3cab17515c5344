"""Moments of the deformed Freud weight |x|^a exp(-N [x^2 + s (x^4 - x^2)]).

The weight is even, so odd moments vanish identically and every even moment is
the zeroth moment at a shifted exponent:

    mu_{2k}(s; a, N) = mu_0(s; a + 2k, N),      mu_{2k+1} = 0.

mu_0 itself is computed two independent ways and cross-checked in the tests:

* ``mu0_quadrature``  -- tanh-sinh quadrature of the substituted integral
  int_0^inf y^((a-1)/2) exp(-N [y + s (y^2 - y)]) dy  (y = x^2 absorbs |x|^a).
* ``mu0_closed_form`` -- the parabolic-cylinder closed form

      (2 N s)^(-(a+1)/4) Gamma((a+1)/2) exp(N (1-s)^2 / (8 s))
          * D_{-(a+1)/2}( N (1-s) / sqrt(2 N s) ),

  valid for s > 0; at s = 0 the weight is generalized Gaussian and
  mu_0 = N^(-(a+1)/2) Gamma((a+1)/2) instead (``mu0_gaussian``).

``moment_table`` takes mu_0 and mu_2 from ``mu0`` and runs the recurrence from
integrating d/dx [x^(2k+1) w(x)] forward: A - B = 4N s mu_{2k+4} with
A = (a + 2k + 1) mu_{2k} and B = 2N (1-s) mu_{2k+2}.  It is exact at s = 0 and
free of cancellation at s = 1; for 0 < s < 1 a step loses log10(A / (A - B))
digits, more as s falls.  Seeds and run carry the loss predicted from 53-bit
ratios mu_{2k+2}/mu_{2k}, and a run that measures a larger loss is repeated
with that guard.  ``source="quadrature"`` integrates each even entry on its own
as the independent check.  Odd entries are exact zeros.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Literal

from mpmath import mp, mpf, mpmathify, gamma, exp, sqrt, log10, pcfd

from .numerics import (NumericContext, DomainError, to_fraction, fraction_to_mpf,
                       integrate_semi_infinite)


@dataclass(frozen=True)
class WeightParams:
    """The triple (s, alpha, N) defining the deformed Freud weight.

    Parameters are stored as exact rationals so that every computational route
    (quadrature, closed form, recursions at different precisions) sees the
    identical numbers.  Constraints: alpha > -1, N > 0, 0 <= s <= 1.
    """

    s: Fraction
    alpha: Fraction
    big_n: Fraction

    def __init__(self, s, alpha, big_n):
        object.__setattr__(self, "s", to_fraction(s))
        object.__setattr__(self, "alpha", to_fraction(alpha))
        object.__setattr__(self, "big_n", to_fraction(big_n))
        if not (self.alpha > -1):
            raise DomainError(f"alpha must exceed -1, got {self.alpha}")
        if not (self.big_n > 0):
            raise DomainError(f"N must be positive, got {self.big_n}")
        if not (0 <= self.s <= 1):
            raise DomainError(f"s must lie in [0, 1], got {self.s}")

    @property
    def is_gaussian(self) -> bool:
        return self.s == 0

    def mpfs(self) -> tuple[mpf, mpf, mpf]:
        """(s, alpha, N) as mpf at the current working precision."""
        return (fraction_to_mpf(self.s), fraction_to_mpf(self.alpha),
                fraction_to_mpf(self.big_n))

    def weight(self, x) -> mpf:
        """Evaluate the weight w(x) at the current working precision."""
        s, a, n = self.mpfs()
        x = mpmathify(x)
        return abs(x) ** a * exp(-n * (x * x + s * (x ** 4 - x * x)))

    def shifted(self, delta_alpha: int) -> "WeightParams":
        return WeightParams(self.s, self.alpha + delta_alpha, self.big_n)


Source = Literal["quadrature", "closed_form"]


@dataclass(frozen=True)
class MomentTable:
    """mu_0..mu_max at fixed parameters; odd entries are exact zeros."""

    params: WeightParams
    values: tuple
    source: Source
    digits_used: int

    def mu(self, j: int) -> mpf:
        return self.values[j]


def mu0_quadrature(params: WeightParams, ctx: NumericContext) -> mpf:
    """mu_0 by double-exponential quadrature of the substituted integral."""
    with mp.workdps(ctx.digits + 10):
        s, a, n = params.mpfs()
        p = (a - 1) / 2

        def integrand(y):
            return y ** p * exp(-n * (y + s * (y * y - y)))

        return integrate_semi_infinite(integrand, ctx, singularity_power=float(p))


def parabolic_cylinder_D(nu, z, ctx: NumericContext) -> mpf:
    """Parabolic cylinder function D_nu(z) for nu < 0.

    The restriction nu < 0 matches the integral representation

        D_nu(z) = exp(-z^2/4)/Gamma(-nu) * int_0^inf t^(-nu-1) exp(-t^2/2 - t z) dt

    which is the form the moment closed form rests on (here nu = -(a+1)/2 < 0
    always).  Evaluation itself uses mpmath's hypergeometric implementation;
    the tests check it against the integral representation.
    """
    with mp.workdps(ctx.digits + 10):
        nu, z = mpmathify(nu), mpmathify(z)
        if nu >= 0:
            raise DomainError("representation requires nu < 0")
        return +pcfd(nu, z)


def mu0_gaussian(alpha, big_n, ctx: NumericContext) -> mpf:
    """mu_0 at s = 0: N^(-(a+1)/2) Gamma((a+1)/2)."""
    with mp.workdps(ctx.digits + 10):
        a, n = mpmathify(alpha), mpmathify(big_n)
        return n ** (-(a + 1) / 2) * gamma((a + 1) / 2)


def mu0_closed_form(params: WeightParams, ctx: NumericContext) -> mpf:
    """mu_0 via the parabolic-cylinder closed form; requires s > 0 strictly."""
    if params.is_gaussian:
        raise DomainError("closed form has 1/s; use mu0_gaussian at s = 0")
    with mp.workdps(ctx.digits + 10):
        s, a, n = params.mpfs()
        z = n * (1 - s) / sqrt(2 * n * s)
        return ((2 * n * s) ** (-(a + 1) / 4) * gamma((a + 1) / 2)
                * exp(n * (1 - s) ** 2 / (8 * s))
                * parabolic_cylinder_D(-(a + 1) / 2, z, ctx))


def mu0(params: WeightParams, ctx: NumericContext) -> mpf:
    """mu_0 by the fastest reliable route (Gaussian form at s=0, else closed form)."""
    if params.is_gaussian:
        return mu0_gaussian(fraction_to_mpf(params.alpha), fraction_to_mpf(params.big_n), ctx)
    return mu0_closed_form(params, ctx)


def _recurrence_loss(params: WeightParams, count: int) -> float:
    """Digits lost computing mu_4..mu_{2(count-1)}, from the backward continued fraction
    r_k = mu_{2k+2}/mu_{2k} = (a + 2k + 1) / (2N(1-s) + 4Ns r_{k+1}) at 53 bits."""
    with mp.workprec(53):
        s, a, n = params.mpfs()
        c1, c2, top = 2 * n * (1 - s), 4 * n * s, a + 2 * count - 1
        r = 2 * top / (c1 + sqrt(c1 * c1 + 4 * c2 * top))    # fixed point of the last step
        amplification = mp.one
        for k in reversed(range(count - 2)):
            r, r_next = (a + 2 * k + 1) / (c1 + c2 * r), r
            amplification *= (a + 2 * k + 1) / (c2 * r * r_next)    # A / (A - B)
        return float(log10(amplification))


def _even_moments(params: WeightParams, count: int, ctx: NumericContext) -> list:
    """mu_0, mu_2, ..., mu_{2(count-1)} to ctx.digits + 10 digits."""
    lost = 0.0 if params.is_gaussian else _recurrence_loss(params, count)
    while True:
        seed_ctx = NumericContext(digits=ctx.digits + ceil(lost))
        with mp.workdps(seed_ctx.digits + 10):
            s, a, n = params.mpfs()
            mus = [mu0(params.shifted(2 * k), seed_ctx) for k in range(min(count, 2))]
            amplification = mp.one
            for k in range(count - 2):
                if s == 0:      # 2N mu_{2k+4} = (a + 2k + 3) mu_{2k+2}
                    mus.append((a + 2 * k + 3) * mus[k + 1] / (2 * n))
                    continue
                big, small = (a + 2 * k + 1) * mus[k], 2 * n * (1 - s) * mus[k + 1]
                diff = max(big - small, mp.eps * big)    # a lost sign is total loss
                mus.append(diff / (4 * n * s))
                amplification *= big / diff
            measured = float(log10(amplification))
        if measured <= lost + 1:
            with mp.workdps(ctx.digits + 10):
                return [+mu for mu in mus]
        lost = measured


def moment_table(params: WeightParams, max_order: int, ctx: NumericContext,
                 source: Source = "closed_form") -> MomentTable:
    """mu_0..mu_{max_order}: even entries by the recurrence or each by quadrature."""
    if max_order < 0:
        raise DomainError("max_order must be nonnegative")
    count = max_order // 2 + 1
    if source == "quadrature":
        evens = [mu0_quadrature(params.shifted(2 * k), ctx) for k in range(count)]
    else:
        evens = _even_moments(params, count, ctx)
    values = tuple(evens[j // 2] if j % 2 == 0 else mp.zero for j in range(max_order + 1))
    return MomentTable(params=params, values=values, source=source, digits_used=ctx.digits)
