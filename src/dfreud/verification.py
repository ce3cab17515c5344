"""Verification suites: every quantitative claim as a reproducible check.

Each acceptance criterion is a function returning a list of ``Check`` rows
with the convention  pass  <=>  measured <= threshold  (a window lo <= x <= hi
is rewritten as max(lo - x, x - hi) <= 0).  The CLI ``verify`` subcommand and
the acceptance test module both call these functions, so there is exactly one
implementation of each check.

A check's precision is set in one place: ``@_criterion(default_digits)`` turns
its ``digits`` (the default, or ``verify --digits``) into the ``NumericContext``
the check receives and runs it at digits + 20 working digits.  Two sub-steps
keep their own: criterion 10's Gauss-Legendre integral runs at ``digits``, and
``ode_invariants``' central difference at 80 digits (comments give the reasons).

Criteria (tolerances are fixed here, not calibrated later):

 1. Gaussian closure of the Hankel route at s = 0.
 2. Cross-route agreement of every sequence route with Hankel, n <= 30.
 3. Lew-Quarles limit and dP_I at n = 300 against the large-n expansion.
 4. Remainder orders of the three expansions (s^4, n^{-7/2}, N^{-3}).
 5. The closed-form upper bound dominates beta_n on a fixed 14-point grid.
 6. beta_n / a_mu^2 -> 1/4 at the fluid normalisation mu = 2n + alpha.
 7. Ladder, compatibility and z-ODE residuals.
 8. Orthogonality of the constructed polynomials against quadrature moments.
 9. Exact log-derivative of D_n vs central differences.
10. Coefficient-function integral and the N-fit recovery of A, B, C.
11. Large-n displays for log D_n(0) against the exact Gamma product.
12. dP_I sensitivity: perturbed initial data leave the positive cone.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, Optional

from mpmath import mp, mpf, mpmathify, sqrt, log, nstr, quad

from .numerics import NumericContext, central_difference, fraction_to_mpf
from .moments import WeightParams
from . import hankel, recurrence, asymptotics, polynomials, detasympt


@dataclass(frozen=True)
class Check:
    """One verified inequality: pass <=> measured <= threshold."""

    id: str
    description: str
    measured: str
    threshold: str
    passed: bool

    @classmethod
    def build(cls, cid: str, description: str, measured, threshold) -> "Check":
        with mp.workdps(40):
            ok = bool(mpmathify(measured) <= mpmathify(threshold))
        return cls(id=cid, description=description, measured=nstr(mpmathify(measured), 30),
                   threshold=nstr(mpmathify(threshold), 30), passed=ok)


@dataclass
class VerificationReport:
    """Structured result of a suite run; serializes losslessly to JSON."""

    suite: str
    checks: list
    params_grid: list = field(default_factory=list)
    digits: int = 0
    wall_time: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "all_passed": self.all_passed}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        data = json.loads(text)
        data["checks"] = [Check(**c) for c in data["checks"]]
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _order_check(cid: str, description: str, ratio, lo, hi) -> Check:
    """A remainder order as a window: passes iff the error ratio lies in [lo, hi]."""
    return Check.build(cid, description, max(mpf(lo) - ratio, ratio - mpf(hi)), mpf(0))


def _criterion(default_digits: int):
    """``criterion(digits=default_digits)`` runs the body on NumericContext(digits)
    at digits + 20; a plain wrapper with no ``__wrapped__``, so its signature is its own."""
    def wrap(body: Callable[[NumericContext], list]) -> Callable[..., list]:
        def criterion(digits: int = default_digits) -> list[Check]:
            ctx = NumericContext(digits=digits)
            with mp.workdps(digits + 20):
                return body(ctx)
        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        return criterion
    return wrap


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@_criterion(120)
def criterion_1(ctx: NumericContext) -> list[Check]:
    """Gaussian closure: Hankel betas at s=0 equal (n + alpha Delta_n)/(2N)."""
    worst = mp.zero
    for alpha in ("0", "1", "2.5"):
        for big_n in (1, 3):
            params = WeightParams(0, alpha, big_n)
            seq = hankel.beta_from_moments(params, 20, ctx)
            for n in range(1, 21):
                exact = recurrence.beta_at_s0(n, params.alpha, params.big_n)
                worst = max(worst, abs(seq[n] - fraction_to_mpf(exact)))
    return [Check.build(
        "1.gauss-closure",
        "max |beta_n(0) - (n+alpha Delta)/(2N)|, n<=20, alpha in {0,1,2.5}, N in {1,3}",
        worst, mpf(10) ** -(ctx.digits - 20))]


@_criterion(150)
def criterion_2(ctx: NumericContext) -> list[Check]:
    """Cross-route: every sequence route vs Hankel, relative difference below 1e-50."""
    n_max = 30
    worst = mp.zero
    for s in ("0.25", "0.5", "1"):
        for alpha in ("0", "1.5", "3"):
            params = WeightParams(s, alpha, 1)
            ref = hankel.beta_from_moments(params, n_max, ctx)
            for route, run in asymptotics.SEQUENCE_ROUTES.items():
                if route != "hankel":
                    seq = run(params, n_max, ctx)
                    rel = max(abs(seq[n] - ref[n]) / ref[n] for n in range(1, n_max + 1))
                    worst = max(worst, rel)
    return [Check.build(
        "2.cross-route",
        "max rel |beta^dpi - beta^hankel|, n<=30, s in {1/4,1/2,1}, alpha in {0,1.5,3}",
        worst, mpf(10) ** -50)]


@_criterion(300)
def criterion_3(ctx: NumericContext) -> list[Check]:
    """Lew-Quarles limit and dP_I at n=300 vs the large-n expansion."""
    params = WeightParams(1, 0, 1)
    val = asymptotics.beta_large_n(10_000, params, ctx)
    dev = abs(val / 100 - 1 / (2 * sqrt(mpf(3))))
    dpi = asymptotics.SEQUENCE_ROUTES["dpi"](params, 300, ctx)
    approx = asymptotics.beta_large_n(300, params, ctx)
    # too few digits let the run leave the positive cone before n = 300
    err = mp.inf if dpi.failure_index is not None else abs(dpi[300] - approx)
    scale = sqrt(mpf(300)) / (2 * sqrt(mpf(3))) * mpf(300) ** mpf("-3.5")
    return [
        Check.build("3.lew-quarles", "|beta_{10^4}(1;0,1)/sqrt(n) - 1/(2 sqrt 3)|",
                    dev, mpf(10) ** -3),
        Check.build("3.dpi-vs-expansion",
                    "|beta_300^dpi - expansion| within the n^{-7/2} remainder scale",
                    err, scale),
    ]


@_criterion(150)
def criterion_4(ctx: NumericContext) -> list[Check]:
    """Remainder orders of the three asymptotic regimes."""
    checks = []
    # (a) s -> 0: error ratio between s=1e-2 and s=1e-3 ~ 10^4
    for n in (6, 7):
        errs = {}
        for k in (2, 3):
            params = WeightParams(f"1e-{k}", "1.25", 1)
            exact = hankel.beta_from_moments(params, n, ctx)[n]
            errs[k] = abs(asymptotics.beta_small_s(n, params, ctx) - exact)
        checks.append(_order_check(
            f"4a.small-s-order.n{n}",
            f"error ratio e(s=1e-2)/e(s=1e-3) at n={n} inside [3e3, 3e4]",
            errs[2] / errs[3], 3000, 30000))
    # (b) n -> infinity: ratio e(16)/e(64) ~ 4^{7/2} = 128
    params = WeightParams("0.25", 1, 1)
    ref = hankel.beta_from_moments(params, 64, ctx)
    errs = {n: abs(asymptotics.beta_large_n(n, params, ctx) - ref[n])
            for n in (16, 17, 63, 64)}
    for (lo, hi, tag) in ((16, 64, "even"), (17, 63, "odd")):
        checks.append(_order_check(f"4b.large-n-order.{tag}",
                                   f"error ratio e({lo})/e({hi}) inside [40, 400]",
                                   errs[lo] / errs[hi], 40, 400))
    # (c) N -> infinity at r = 1: ratio e(N)/e(2N) ~ 8
    errs = {}
    for n in (20, 40, 21, 41):
        exact = hankel.beta_from_moments(WeightParams("0.5", "1.5", n), n, ctx)[n]
        approx = asymptotics.beta_double_scaling(n, n, mpf("0.5"), mpf("1.5"), ctx)
        errs[n] = abs(approx - exact)
    for (lo, hi, tag) in ((20, 40, "even"), (21, 41, "odd")):
        checks.append(_order_check(f"4c.double-scaling-order.{tag}",
                                   f"error ratio e(N={lo})/e(N={hi}) inside [4, 16]",
                                   errs[lo] / errs[hi], 4, 16))
    return checks


#: the fixed 14-point grid of criterion 5; other criteria compute Hankel betas
#: elsewhere too (4c, 8, 10, ode_invariants), and those points are not swept.
_SUITE_BETA_POINTS = [
    ("0.25", "0", 1), ("0.25", "1.5", 1), ("0.25", "3", 1),
    ("0.5", "0", 1), ("0.5", "1.5", 1), ("0.5", "3", 1),
    ("1", "0", 1), ("1", "1.5", 1), ("1", "3", 1),
    ("1e-2", "1.25", 1), ("1e-3", "1.25", 1), ("0.25", "1", 1),
    ("0.5", "2", 1), ("0.5", "1", 2),
]


@_criterion(60)
def criterion_5(ctx: NumericContext) -> list[Check]:
    """beta_n, n <= 30, stays below the closed-form bound on the fixed grid
    ``_SUITE_BETA_POINTS``."""
    n_max = 30
    worst = mpf("-inf")
    for (s, alpha, big_n) in _SUITE_BETA_POINTS:
        params = WeightParams(s, alpha, big_n)
        seq = hankel.beta_from_moments(params, n_max, ctx)
        for n in range(1, n_max + 1):
            worst = max(worst, seq[n] - recurrence.upper_bound(n, params, ctx))
    return [Check.build(
        "5.upper-bound",
        "max(beta_n - bound) over the suite grid, n <= 30 (negative = strictly below)",
        worst, mpf(0))]


@_criterion(60)
def criterion_6(ctx: NumericContext) -> list[Check]:
    """|beta_n / a_mu^2 - 1/4| < 2/n at mu = 2n + alpha for n in {100, 200}."""
    worst = mpf("-inf")
    for (s, alpha) in (("0.5", "1.5"), ("1", "0"), ("1", "1.5")):
        params = WeightParams(s, alpha, 1)
        for n in (100, 200):
            beta = asymptotics.beta_large_n(n, params, ctx)
            a_mu = asymptotics.fluid_endpoint(n, params, ctx).a_mu
            worst = max(worst, abs(beta / a_mu ** 2 - mpf(1) / 4) - mpf(2) / n)
    return [Check.build(
        "6.mrs-quarter",
        "max(|beta_n/a_mu^2 - 1/4| - 2/n), n in {100,200} (negative = inside)",
        worst, mpf(0))]


@_criterion(100)
def criterion_7(ctx: NumericContext) -> list[Check]:
    """Ladder, compatibility and z-ODE residuals, all relative, n <= 15."""
    n_max = 15
    params = WeightParams("0.5", "2", 1)
    zgrid = ("-0.3", "0.3", "-1.1", "1.1", "2.7")
    betas = hankel.beta_from_moments(params, n_max + 2, ctx)
    table = [polynomials.identity_residuals(n, mpmathify(z), params, betas, ctx)
             for n in range(1, n_max + 1) for z in zgrid]
    worst = {key: max(row[key] for row in table) for key in table[0]}
    return [Check.build(f"7.{key}",
                        f"max relative {key} residual, n <= {n_max}, z-grid {zgrid}",
                        val, mpf(10) ** -20)
            for key, val in worst.items()]


@_criterion(80)
def criterion_8(ctx: NumericContext) -> list[Check]:
    """Normalized inner products within 1e-30 of the identity, from quadrature moments."""
    n_max = 8
    gram = polynomials.orthogonality_check(n_max, WeightParams("0.5", "0.5", 1), ctx)
    off = max(abs(gram[j][k]) for j in range(n_max + 1) for k in range(n_max + 1)
              if j != k)
    diag = max(abs(gram[j][j] - 1) for j in range(n_max + 1))
    tol = mpf(10) ** -30
    return [Check.build("8.orthogonality-off", f"max |G_jk|, j != k <= {n_max}", off, tol),
            Check.build("8.orthogonality-diag", f"max |G_jj - 1|, j <= {n_max}", diag, tol)]


@_criterion(100)
def criterion_9(ctx: NumericContext) -> list[Check]:
    """Exact log-derivative of D_n vs fourth-order central differences."""
    params = WeightParams("0.5", "1", 2)
    n = 8
    exact = detasympt.logdet_derivative_exact(n, params, ctx)

    def logdet_at(sv):
        return hankel.logdet(WeightParams(sv, params.alpha, params.big_n), n, ctx)

    fd = central_difference(logdet_at, fraction_to_mpf(params.s), 1, ctx)
    summed = detasympt.logdet_derivative_sum(n, params, ctx)
    return [
        Check.build("9.logdet-vs-fd",
                    "|exact d/ds log D_8 - central difference| at (s=1/2, a=1, N=2)",
                    abs(exact - fd), mpf(10) ** -20),
        Check.build("9.logdet-vs-sum", "|exact - direct summation form|",
                    abs(exact - summed), mpf(10) ** -20),
    ]


@_criterion(60)
def criterion_10(ctx: NumericContext) -> list[Check]:
    """Coefficient-function checks: the A-integral and the N-fit recovery."""
    checks = []
    for r in ("0.9", "1"):
        # at ctx.digits itself: the Gauss-Legendre levels, and so the measured
        # errors, follow the working precision, and a guard here would move them
        with mp.workdps(ctx.digits):
            rv = mpmathify(r)
            integral = quad(lambda x, _r=rv: detasympt._a_coefficient(x, _r), [0, 1],
                            method="gauss-legendre")
            closed = rv ** 2 * (3 - 2 * log(mpf(3)) - 2 * log(rv)) / 8
            checks.append(Check.build(
                f"10.intA.r{r}", f"|int_0^1 A(s) ds - closed form| at r={r}",
                abs(integral - closed), mpf(10) ** -8))
    # N-fit at s = 1/2 with N in {20, 30, 40}, n = N (even parity), alpha = 1
    a_fit, b_fit, c_fit = detasympt.fit_abc("0.5", 1, 1, (20, 30, 40), ctx)
    coeff = detasympt.appendix_b_coefficients("0.5", 1, 1, "even", ctx)
    for tag, fit, true in (("A", a_fit, coeff.a_s), ("B", b_fit, coeff.b_s),
                           ("C", c_fit, coeff.c_s)):
        # 2 % relative, with an absolute floor for coefficients near zero
        tol = max(mpf("0.02") * abs(true), mpf(10) ** -3)
        checks.append(Check.build(
            f"10.fit{tag}", f"|fitted {tag}(1/2) - implemented| within 2%",
            abs(fit - true), tol))
    return checks


@_criterion(60)
def criterion_11(ctx: NumericContext) -> list[Check]:
    """log D_n(0) display vs the exact Gamma product: O(n^-2) error decay."""
    checks = []
    for alpha in (0, 1):
        for (n1, n2, parity) in ((20, 40, "even"), (21, 41, "odd")):
            errs = {}
            for n in (n1, n2):
                display = detasympt.logdet_expansion("D0", n, 1, alpha, parity, ctx).value
                errs[n] = abs(display - hankel.mehta_normand_logD0(n, alpha, n, ctx))
            checks.append(_order_check(
                f"11.d0-order.a{alpha}.{parity}",
                f"e({n1})/e({n2}) within factor 2 of (n2/n1)^2, alpha={alpha}",
                errs[n1] / errs[n2] / (mpf(n2) / n1) ** 2, "0.5", 2))
    return checks


@_criterion(500)
def criterion_12(ctx: NumericContext) -> list[Check]:
    """Sensitivity of the dP_I to its initial value at (s=1/2, alpha=3, N=1)."""
    n_max = 100
    params = WeightParams("0.5", "3", 1)
    clean = recurrence.sensitivity_run(params, 0, n_max, ctx)
    checks = [Check.build(
        "12.unperturbed",
        f"epsilon=0 stays positive through n={n_max} (0 = no failure)",
        mpf(0 if clean.first_failure_index is None else 1), mpf(0))]
    for sign in ("", "-"):
        indices = [recurrence.sensitivity_run(params, f"{sign}{eps}", n_max, ctx)
                   .first_failure_index for eps in ("1e-1", "1e-3", "1e-5")]
        finite = all(i is not None for i in indices)
        ordered = finite and indices[0] <= indices[1] <= indices[2]
        checks.append(Check.build(
            f"12.perturbed{sign or '+'}",
            f"failure indices {indices} finite and weakly decreasing in |eps|",
            mpf(0 if (finite and ordered) else 1), mpf(0)))
    return checks


@_criterion(100)
def ode_invariants(ctx: NumericContext) -> list[Check]:
    """Non-acceptance extras: the s-ODE residual and beta' vs finite differences."""
    params = WeightParams("0.5", "1", 1)
    checks = [Check.build(f"ode.residual-2nd-order.n{n}",
                          f"|second-order ODE residual| at n={n}, (s,a,N)=(1/2,1,1)",
                          abs(recurrence.ode25_residual(n, params, ctx)), mpf(10) ** -20)
              for n in (6, 7)]
    analytic = recurrence.beta_prime(5, hankel.beta_from_moments(params, 6, ctx), params)

    def beta5(sv):
        return hankel.beta_from_moments(
            WeightParams(sv, params.alpha, params.big_n), 6, ctx)[5]

    # a fixed 80 digits: at 30 the step 10^-6 leaves a truncation error near
    # 1e-24, above this check's 1e-25 threshold
    fd = central_difference(beta5, mpf("0.5"), 1, NumericContext(digits=80))
    checks.append(Check.build(
        "ode.beta-prime-vs-fd", "|analytic beta_5' - central difference|",
        abs(analytic - fd), mpf(10) ** -25))
    return checks


SUITES: dict[str, tuple[Callable, ...]] = {
    "dpi": (criterion_1, criterion_2, criterion_12),
    "ode": (ode_invariants,),
    "poly": (criterion_7, criterion_8),
    "logdet": (criterion_9, criterion_10, criterion_11),
    "asympt": (criterion_3, criterion_4, criterion_5, criterion_6),
}
SUITES["all"] = tuple(fn for suite in ("dpi", "ode", "poly", "logdet", "asympt")
                      for fn in SUITES[suite])


def run_suite(suite: str, digits: Optional[int] = None) -> VerificationReport:
    """Run one named suite; ``digits`` overrides each check's default precision."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    start = time.time()
    checks: list[Check] = []
    for fn in SUITES[suite]:
        checks.extend(fn() if digits is None else fn(digits=digits))
    return VerificationReport(suite=suite, checks=checks,
                              params_grid=[list(p) for p in _SUITE_BETA_POINTS],
                              digits=digits or 0, wall_time=time.time() - start)
