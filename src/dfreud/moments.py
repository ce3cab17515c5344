"""Moments of the deformed Freud weight |x|^a exp(-N [x^2 + s (x^4 - x^2)]).

The weight is even, so odd moments vanish identically and every even moment is
the zeroth moment at a shifted exponent:

    mu_{2k}(s; a, N) = mu_0(s; a + 2k, N),      mu_{2k+1} = 0.

``mu0`` is the one entry point for mu_0.  For s > 0 it is the parabolic-cylinder
closed form

    (2 N s)^(-(a+1)/4) Gamma((a+1)/2) exp(N (1-s)^2 / (8 s))
        * D_{-(a+1)/2}( N (1-s) / sqrt(2 N s) ),

and at s = 0, where the weight is generalized Gaussian, it is
N^(-(a+1)/2) Gamma((a+1)/2).  The independent check is exp-exp quadrature
(Takahasi & Mori 1974) of int_0^inf y^((a-1)/2) exp(-N [y + s (y^2 - y)]) dy
(y = x^2 absorbs |x|^a): ``moment_table(..., source="quadrature")``.

``moment_table`` takes its top two entries mu_{2K} and mu_{2K-2} from ``mu0``
and fills the rest downward with the recurrence from integrating
d/dx [x^(2k+1) w(x)]: (a + 2k + 1) mu_{2k} = 2N (1-s) mu_{2k+2} + 4N s mu_{2k+4}.
For 0 <= s <= 1 every term on the right is non-negative, so downward the moments
are the dominant solution (Gautschi, SIAM Rev. 9, 1967) and no step cancels: the
table keeps the seeds' digits less a few ulps per step, with no guard to predict.
``source="quadrature"`` takes every even entry from one exp-exp rule (y^k more in
the integral above).  Odd entries are exact zeros.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Literal, get_args

from mpmath import mp, mpf, mpmathify, gamma, exp, sqrt, pcfd

from .numerics import (NumericContext, DomainError, to_fraction, fraction_to_mpf,
                       exp_exp_moments, _check_n)


#: working precisions whose (s, alpha, N) triple one ``WeightParams`` keeps.
_MPFS_KEPT = 8


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

    # Fraction hashes take a modular inverse each; the caches key on these params
    # many times over, so the dataclass hash of (s, alpha, big_n) is kept once made.
    @cached_property
    def _hash(self) -> int:
        return hash((self.s, self.alpha, self.big_n))

    def __hash__(self) -> int:
        return self._hash

    # The identity oracles ask for the same triple at every node and index, and
    # each conversion divides three pairs of integers, so the triple is kept per
    # precision in bits: at most _MPFS_KEPT of them, the oldest dropped first.
    @cached_property
    def _mpfs_by_prec(self) -> dict:
        return {}

    def mpfs(self) -> tuple[mpf, mpf, mpf]:
        """(s, alpha, N) as mpf at the current working precision."""
        memo, prec = self._mpfs_by_prec, mp.prec
        if prec not in memo:
            if len(memo) >= _MPFS_KEPT:
                del memo[next(iter(memo))]
            memo[prec] = tuple(fraction_to_mpf(x) for x in (self.s, self.alpha, self.big_n))
        return memo[prec]

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

    values: tuple

    def mu(self, j: int) -> mpf:
        return self.values[j]


def mu0(params: WeightParams, ctx: NumericContext) -> mpf:
    """mu_0: the generalized Gaussian form at s = 0, else the parabolic-cylinder
    closed form (module docstring), both at ctx.digits + 10."""
    with mp.workdps(ctx.digits + 10):
        s, a, n = params.mpfs()
        if s == 0:
            return n ** (-(a + 1) / 2) * gamma((a + 1) / 2)
        z = n * (1 - s) / sqrt(2 * n * s)
        return ((2 * n * s) ** (-(a + 1) / 4) * gamma((a + 1) / 2)
                * exp(n * (1 - s) ** 2 / (8 * s))
                * pcfd(-(a + 1) / 2, z))


def _even_moments(params: WeightParams, count: int, ctx: NumericContext) -> list:
    """mu_0, mu_2, ..., mu_{2(count-1)} to ctx.digits + 10 digits, downward from the top two."""
    with mp.workdps(ctx.digits + 10):
        s, a, n = params.mpfs()
        c1, c2 = 2 * n * (1 - s), 4 * n * s
        seeds = range(max(count - 2, 0), count)     # K - 1 and K, K = count - 1
        mus = [mu0(params.shifted(2 * k), ctx) for k in reversed(seeds)]
        for k in reversed(range(count - 2)):    # (a + 2k + 1) mu_{2k} = c1 mu_{2k+2} + c2 mu_{2k+4}
            mus.append((c1 * mus[-1] + c2 * mus[-2]) / (a + 2 * k + 1))
        return mus[::-1]


def moment_table(params: WeightParams, max_order: int, ctx: NumericContext,
                 source: Source = "closed_form") -> MomentTable:
    """mu_0..mu_{max_order}: even entries by the recurrence or by one exp-exp rule."""
    _check_n(max_order, 0, "max_order")
    if source not in get_args(Source):
        raise DomainError(f"source must be one of {get_args(Source)}, got {source!r}")
    count = max_order // 2 + 1
    if source == "quadrature":
        with mp.workdps(ctx.digits + 10):
            s, a, n = params.mpfs()
            evens = exp_exp_moments((a - 1) / 2, lambda y: n * (y + s * (y * y - y)), count, ctx)
    else:
        evens = _even_moments(params, count, ctx)
    values = tuple(evens[j // 2] if j % 2 == 0 else mp.zero for j in range(max_order + 1))
    return MomentTable(values=values)
