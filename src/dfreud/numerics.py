"""Arbitrary-precision scaffolding shared by every other module.

Everything downstream (moments, Hankel pivots, recurrence iterations, determinant
asymptotics) is computed with mpmath multiprecision floats.  The working precision
is never set globally by library code: each operation receives a NumericContext
and runs inside a scoped ``mp.workdps`` block, so callers see no precision state
leak.  Values returned are ordinary ``mpf`` numbers carrying the precision they
were created with.

Provided here:

* ``NumericContext`` -- decimal working precision plus quadrature / finite
  difference policy, threaded explicitly through every numeric operation.
* ``gamma_log`` / ``barnes_g_log`` -- log Gamma and log of the Barnes G-function,
  normalised by G(1) = G(2) = 1 with G(z+1) = Gamma(z) G(z).  Both come from
  mpmath (``loggamma``, ``barnesg``) evaluated with guard digits; so does the
  Glaisher constant ``mp.glaisher`` used by the determinant asymptotics.
* ``integrate_semi_infinite`` -- double-exponential quadrature on (0, inf) with
  an optional algebraic endpoint singularity y**p, p > -1, removed by the
  substitution y = u**m before the quadrature sees it.
* ``central_difference`` -- fourth-order central stencils, used only as an
  independent oracle for analytic derivative formulas elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpf, mpmathify, quad, inf, loggamma, log, barnesg


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class IntegrationError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class PrecisionExhaustedError(ArithmeticError):
    """A computation ran out of precision; ``index`` is the failing position."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class PoleError(ValueError):
    """Evaluation requested too close to a pole of a rational coefficient."""


class SingularCoefficientError(ValueError):
    """An expansion coefficient is singular at the requested parameters."""


def to_fraction(value) -> Fraction:
    """Coerce a parameter to an exact rational.

    Strings are parsed as exact decimals ("0.1" -> 1/10), floats keep their
    exact binary value, ints and Fractions pass through.  Storing parameters
    as rationals makes every route see the identical number no matter what
    working precision it later converts at.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, mpf):
        sign, man, exp, bc = value._mpf_
        if bc < 0:
            raise TypeError(f"cannot interpret non-finite {value!r} as a parameter")
        if not man:
            return Fraction(0)
        return Fraction((-1) ** sign * int(man), 1) * Fraction(2) ** exp
    raise TypeError(f"cannot interpret {value!r} as an exact parameter")


def fraction_to_mpf(x: Fraction) -> mpf:
    """Convert an exact rational to mpf at the current working precision."""
    return mpf(x.numerator) / mpf(x.denominator)


@dataclass(frozen=True)
class NumericContext:
    """Working precision and the tolerance policy derived from it.

    digits     : decimal working precision (>= 30).
    quad_tol   : relative tolerance for adaptive quadrature, 10**(-digits+10).
    diff_step  : relative step for central differences, 10**(-max(2, digits//5)),
                 which balances the h**4 truncation error of the fourth-order
                 stencils against roundoff at ``digits``.
    """

    digits: int = 60

    def __post_init__(self):
        if self.digits < 30:
            raise DomainError(f"digits must be >= 30, got {self.digits}")

    @property
    def quad_tol(self) -> Fraction:
        return Fraction(1, 10 ** (self.digits - 10))

    @property
    def diff_step(self) -> Fraction:
        return Fraction(1, 10 ** max(2, self.digits // 5))


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def gamma_log(x, ctx: NumericContext) -> mpf:
    """log Gamma(x) for real x > 0.

    Backed by mpmath's precision-parameterised Gamma; the extra ten working
    digits keep the relative error of exp(result) below 10**(-digits+5).
    """
    with mp.workdps(ctx.digits + 10):
        x = mpmathify(x)
        if x <= 0:
            raise DomainError(f"gamma_log requires x > 0, got {x}")
        return +loggamma(x).real


def barnes_g_log(z, ctx: NumericContext) -> mpf:
    """log G(z) for real z > 0, with G(1) = G(2) = 1 and G(z+1) = Gamma(z) G(z).

    Backed by mpmath's Barnes G, evaluated with fifteen guard digits.
    """
    with mp.workdps(ctx.digits + 15):
        z = mpmathify(z)
        if z <= 0:
            raise DomainError(f"barnes_g_log requires z > 0, got {z}")
        return +log(barnesg(z))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate_semi_infinite(f: Callable, ctx: NumericContext,
                            singularity_power: float = 0.0) -> mpf:
    """Integrate f over (0, inf) to relative tolerance ``ctx.quad_tol``.

    ``singularity_power`` declares an algebraic endpoint singularity
    f(y) ~ y**p as y -> 0 with p > -1.  For p < 0 the substitution y = u**m,
    m = ceil(1/(p+1)), turns the integrand into something smooth at 0, which
    tanh-sinh quadrature then resolves at full precision; without it the
    semi-infinite transform loses digits near the endpoint.

    Raises IntegrationError when the internal error estimate will not drop
    below the tolerance (non-shrinking tail).
    """
    p = float(singularity_power)
    if p <= -1:
        raise DomainError("endpoint singularity must be integrable (p > -1)")
    m = 1 if p >= 0 else math.ceil(1.0 / (p + 1.0))

    tol_num, tol_den = ctx.quad_tol.numerator, ctx.quad_tol.denominator

    def attempt(dps: int, maxdegree: int):
        with mp.workdps(dps):
            if m == 1:
                g = f
            else:
                def g(u, _m=m):
                    return f(u ** _m) * _m * u ** (_m - 1)
            value, err = quad(g, [0, 1, inf], error=True, maxdegree=maxdegree)
            tol = mpf(tol_num) / tol_den
            scale = max(abs(value), mpf(10) ** (-dps))
            return value, err, bool(err <= tol * scale)

    base = ctx.digits + 10
    maxdeg = 8 + ctx.digits // 60
    value, err, ok = attempt(base, maxdeg)
    if not ok:
        value, err, ok = attempt(base + 20, maxdeg + 2)
    if not ok:
        raise IntegrationError(
            f"quadrature error estimate {err} exceeds tolerance {ctx.quad_tol}")
    return value


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_difference(f: Callable, s0, order: int, ctx: NumericContext) -> mpf:
    """Fourth-order central difference of f at s0 (order = 1 or 2).

    The step h = diff_step * max(|s0|, 1) balances the O(h^4) truncation error
    against roundoff at ``ctx.digits``; f must be evaluable on [s0-2h, s0+2h]
    and is responsible for its own internal precision.
    """
    if order not in (1, 2):
        raise DomainError("derivative order must be 1 or 2")
    with mp.workdps(ctx.digits + 10):
        s0 = mpmathify(s0)
        h = fraction_to_mpf(ctx.diff_step) * max(abs(s0), mpf(1))
        fm2, fm1 = f(s0 - 2 * h), f(s0 - h)
        fp1, fp2 = f(s0 + h), f(s0 + 2 * h)
        if order == 1:
            return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
        f0 = f(s0)
        return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
