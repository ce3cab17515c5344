"""Arbitrary-precision scaffolding shared by every other module.

Everything downstream (moments, Hankel pivots, recurrence iterations, determinant
asymptotics) is computed with mpmath multiprecision floats.  The working precision
is never set globally by library code: each operation receives a NumericContext
or a BetaSequence, whose ``digits_used`` it works at whatever the caller's
mp.dps, and runs inside a scoped ``mp.workdps`` block, so no precision state
leaks.  Returned ``mpf`` values carry the precision they were created with.

Provided here:

* ``NumericContext`` -- decimal working precision plus quadrature / finite
  difference policy, threaded explicitly through every numeric operation.
* ``barnes_g_log`` -- log of the Barnes G-function, normalised by
  G(1) = G(2) = 1 with G(z+1) = Gamma(z) G(z).  It comes from mpmath
  (``barnesg``) evaluated with guard digits; so does the Glaisher constant
  ``mp.glaisher`` used by the determinant asymptotics.
* ``exp_exp_moments`` -- the moments int_0^inf y^(p+k) exp(-g(y)) dy, k < count,
  p > -1, from one exp-exp (double-exponential, Takahasi & Mori 1974) trapezoid
  whose nodes all the moments share; the endpoint behaviour y^p needs no substitution.
  The map half of each node, (u, du, y), depends on the working precision alone and
  is kept in a bounded store per precision in bits (``_node_store``: the last four
  precisions, ``_NODE_BUDGET`` nodes each), filled only by rules that succeed; the
  results keep the bits of forming every node afresh.
* ``central_difference`` -- fourth-order central stencils, used only as an
  independent oracle for analytic derivative formulas elsewhere.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Callable

from mpmath import mp, mpf, mpmathify, log, barnesg
from mpmath.libmp import (fone, fzero, from_man_exp, mpf_add, mpf_div, mpf_exp, mpf_gt,
                         mpf_mul, mpf_neg, mpf_shift, mpf_sub)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class IntegrationError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""


class PrecisionExhaustedError(ArithmeticError):
    """A computation ran out of precision; ``index`` is the failing position."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class PoleError(ValueError):
    """Evaluation requested too close to a pole of a rational coefficient."""


def _check_n(n, lowest: int, name: str = "n") -> None:
    """DomainError naming ``n`` unless it is an integer >= ``lowest``."""
    if not isinstance(n, (int, Integral)):     # int first: the ABC check is ten times slower
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < lowest:
        raise DomainError(f"{name} must be >= {lowest}")


def to_fraction(value) -> Fraction:
    """Coerce a parameter to an exact rational.

    Strings are parsed as exact decimals ("0.1" -> 1/10), floats keep their
    exact binary value, ints and Fractions pass through.  Storing parameters
    as rationals makes every route see the identical number no matter what
    working precision it later converts at.
    """
    if isinstance(value, (Fraction, int, float, str)):
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

    digits     : decimal working precision, an integer >= 30.
    quad_tol   : relative agreement of successive quadrature levels, 10**(-digits+10).
    diff_step  : relative step for central differences, 10**(-max(2, digits//5)),
                 which balances the h**4 truncation error of the fourth-order
                 stencils against roundoff at ``digits``.
    """

    digits: int = 60

    def __post_init__(self):
        if not isinstance(self.digits, int):
            raise DomainError(f"digits must be an integer, got {self.digits!r}")
        if self.digits < 30:
            raise DomainError(f"digits must be >= 30, got {self.digits}")

    @property
    def quad_tol(self) -> Fraction:
        return Fraction(1, 10 ** (self.digits - 10))

    @property
    def diff_step(self) -> Fraction:
        return Fraction(1, 10 ** max(2, self.digits // 5))


#: the context of every routine whose ``ctx`` argument may be left out.
_DEFAULT_CTX = NumericContext(digits=50)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

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

#: nodes kept per working precision, the first formed (coarse levels come first)
_NODE_BUDGET = 2048


@functools.lru_cache(maxsize=4)
def _node_store(prec: int) -> dict:
    """{(level, index, sign): (u, du, y)}: the exp-exp nodes formed at ``prec`` bits,
    for the four precisions used last."""
    return {}


def _node(level: int, index: int, sign: int, e=None, formed=None) -> tuple:
    """(u, du, y) of the exp-exp node sign t, t = index 2^-level, at the working precision.

    u = sign t - w, du = 1 + w and y = exp(u), w = e^-sign, from e = exp(t) (None: formed
    here), as libmp tuples.  They depend on the precision alone, never on the integrand:
    a node is read from ``_node_store`` when it is there, and otherwise formed and
    appended to ``formed`` as (key, node), for the rule to store if it succeeds.
    """
    prec, rnd = mp._prec_rounding
    key = level, index, sign
    node = _node_store(prec).get(key)
    if node is None:
        t = from_man_exp(index, -level)
        if e is None:
            e = mpf_exp(t, prec, rnd)
        w = mpf_div(fone, e, prec, rnd) if sign > 0 else e
        u = mpf_sub(t if sign > 0 else mpf_neg(t), w, prec, rnd)
        node = u, mpf_add(w, fone, prec, rnd), mpf_exp(u, prec, rnd)
        if formed is not None:
            formed.append((key, node))
    return node


def exp_exp_moments(p, g: Callable, count: int, ctx: NumericContext) -> list:
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
    Raises DomainError for p <= -1 or count < 1, and IntegrationError when the levels
    disagree at the cap or a tail still adds past its bound (D the working digits):
    y^(p+1) < 10^-D on the left once (p+1)(|t| + e^|t|) > D ln 10; the right tail
    decays only through g and is walked to y = 10^(8D), which for g = N y covers N
    down to 10^(2 - 8D).

    The map half of a node, (u, du, y), depends on the working precision alone, so
    it comes from ``_node_store`` when formed before; the sums run on libmp values
    at the context's precision and rounding, with the same operations in the same
    order, so every result has the bits of forming each node afresh.  A rule that
    returns stores the nodes it formed, in the order it formed them, while the
    budget lasts; a rule that raises stores none.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    with mp.workdps(ctx.digits + 10):
        p = mpmathify(p)
        if p <= -1:
            raise DomainError(f"y^p is integrable at 0 only for p > -1, got p = {p}")
        d_ln10, p1 = mp.dps * log(10), p + 1
        t_max = {1: int(8 * d_ln10) + 2, -1: int(log(max(d_ln10 / p1, 1))) + 2}
        prec, rnd = mp._prec_rounding
        make, p1, eps, sums = mp.make_mpf, p1._mpf_, mp.eps._mpf_, [fzero] * count
        formed = []

        def add(level, index, sign, e=None, test=True) -> bool:
            """Add the node of ``_node(level, index, sign, e)`` to ``sums``; with ``test``,
            whether it added."""
            u, du, y = _node(level, index, sign, e, formed)
            x = (make(mpf_mul(p1, u, prec, rnd)) - g(make(y)))._mpf_
            b, added = mpf_mul(mpf_exp(x, prec, rnd), du, prec, rnd), False
            for k in range(count):
                sums[k] = mpf_add(sums[k], b, prec, rnd)
                added = added or (test and mpf_gt(b, mpf_mul(eps, sums[k], prec, rnd)))
                b = mpf_mul(b, y, prec, rnd)
            return added

        add(0, 0, 1)
        reach = {1: 0, -1: 0}       # the outermost node that added, in units of h
        for sign in reach:
            for j in range(1, t_max[sign] + 1):
                if not add(0, j, sign):
                    break
                reach[sign] = j
            else:
                raise IntegrationError(f"integrand does not decay by t = {sign * t_max[sign]}")

        estimate, tol = [make(a) for a in sums], fraction_to_mpf(ctx.quad_tol)
        for level in range(1, ctx.digits.bit_length() + 5):
            reach = {sign: 2 * r for sign, r in reach.items()}
            h = from_man_exp(1, -level)
            e, step = mpf_exp(h, prec, rnd), mpf_exp(mpf_shift(h, 1), prec, rnd)
            for m in range(1, max(reach.values()) + 2, 2):    # odd m, m h <= reach + 2h
                for sign, r in reach.items():
                    if m <= r + 1 and add(level, m, sign, e, m > r):
                        reach[sign] = m
                e = mpf_mul(e, step, prec, rnd)
            previous, estimate = estimate, [make(mpf_mul(h, a, prec, rnd)) for a in sums]
            if all(abs(a - b) <= tol * abs(a) for a, b in zip(estimate, previous)):
                store = _node_store(prec)
                store.update(formed[:_NODE_BUDGET - len(store)])
                return estimate
        raise IntegrationError(f"exp-exp levels disagree by more than {ctx.quad_tol}")


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
