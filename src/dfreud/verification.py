"""Verification suites: every quantitative claim as a reproducible check.

Each acceptance criterion is a function returning a list of ``Check`` rows
with the convention  pass  <=>  measured <= threshold  (window conditions are
rewritten as max(lo - x, x - hi) <= 0, ratios as |ratio/predicted - 1| style
margins).  The CLI ``verify`` subcommand and the acceptance test module both
call these functions, so there is exactly one implementation of each check.

Criteria (digits and tolerances are fixed here, not calibrated later):

 1. Gaussian closure of the Hankel route at s = 0.
 2. Hankel vs dP_I cross-route agreement, n <= 30 at 150 digits.
 3. Lew-Quarles limit and dP_I at n = 300 against the large-n expansion.
 4. Remainder orders of the three expansions (s^4, n^{-7/2}, N^{-3}).
 5. The closed-form upper bound dominates every computed beta_n.
 6. beta_n / a_mu^2 -> 1/4 at the fluid normalisation mu = 2n + alpha.
 7. Ladder, compatibility and z-ODE residuals at 100 digits.
 8. Orthogonality of the constructed polynomials against quadrature moments.
 9. Exact log-derivative of D_n vs central differences.
10. Coefficient-function integral and the N-fit recovery of A, B, C.
11. Large-n displays for log D_n(0) against the exact Gamma product.
12. dP_I sensitivity: perturbed initial data leave the positive cone.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

from mpmath import mp, mpf, mpmathify, sqrt, log, nstr

from .numerics import NumericContext, central_difference, fraction_to_mpf
from .moments import WeightParams
from . import hankel, recurrence, asymptotics, polynomials, detasympt


def _fmt(x, digits: int = 30) -> str:
    return nstr(mpmathify(x), digits)


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
        return cls(id=cid, description=description, measured=_fmt(measured),
                   threshold=_fmt(threshold), passed=ok)


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
        payload = {
            "suite": self.suite,
            "checks": [asdict(c) for c in self.checks],
            "params_grid": self.params_grid,
            "digits": self.digits,
            "wall_time": self.wall_time,
            "all_passed": self.all_passed,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        data = json.loads(text)
        checks = [Check(**c) for c in data["checks"]]
        return cls(suite=data["suite"], checks=checks,
                   params_grid=data["params_grid"], digits=data["digits"],
                   wall_time=data["wall_time"])


def _window_margin(value, lo, hi):
    """<= 0 iff value lies in [lo, hi]."""
    return max(lo - value, value - hi)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1(digits: int = 120) -> list[Check]:
    """Gaussian closure: Hankel betas at s=0 equal (n + alpha Delta_n)/(2N)."""
    checks = []
    with mp.workdps(digits + 20):
        worst = mp.zero
        for alpha in ("0", "1", "2.5"):
            for big_n in (1, 3):
                params = WeightParams(0, alpha, big_n)
                seq = hankel.beta_from_moments(params, 20, NumericContext(digits=digits))
                for n in range(1, 21):
                    exact = recurrence.beta_at_s0(n, params.alpha, params.big_n)
                    diff = abs(seq[n] - fraction_to_mpf(exact))
                    worst = max(worst, diff)
        checks.append(Check.build(
            "1.gauss-closure",
            "max |beta_n(0) - (n+alpha Delta)/(2N)|, n<=20, alpha in {0,1,2.5}, N in {1,3}",
            worst, mpf(10) ** -(digits - 20)))
    return checks


def criterion_2(digits: int = 150) -> list[Check]:
    """Cross-route: Hankel vs dP_I relative difference below 1e-50."""
    n_max = 30
    ctx = NumericContext(digits=digits)
    checks = []
    with mp.workdps(digits + 20):
        worst = mp.zero
        for s in ("0.25", "0.5", "1"):
            for alpha in ("0", "1.5", "3"):
                params = WeightParams(s, alpha, 1)
                ref = hankel.beta_from_moments(params, n_max, ctx)
                b1 = recurrence.beta1_initial(params, ctx)
                dpi = recurrence.dpi_forward(params, b1, n_max, ctx)
                rel = max(abs(dpi[n] - ref[n]) / ref[n] for n in range(1, n_max + 1))
                worst = max(worst, rel)
        checks.append(Check.build(
            "2.cross-route",
            "max rel |beta^dpi - beta^hankel|, n<=30, s in {1/4,1/2,1}, alpha in {0,1.5,3}",
            worst, mpf(10) ** -50))
    return checks


def criterion_3(digits: int = 300) -> list[Check]:
    """Lew-Quarles limit and dP_I at n=300 vs the large-n expansion."""
    checks = []
    params = WeightParams(1, 0, 1)
    with mp.workdps(60):
        val = asymptotics.beta_large_n(10_000, params)
        dev = abs(val / 100 - 1 / (2 * sqrt(mpf(3))))
        checks.append(Check.build(
            "3.lew-quarles", "|beta_{10^4}(1;0,1)/sqrt(n) - 1/(2 sqrt 3)|",
            dev, mpf(10) ** -3))
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 20):
        b1 = recurrence.beta1_initial(params, ctx)
        dpi = recurrence.dpi_forward(params, b1, 300, ctx)
        approx = asymptotics.beta_large_n(300, params, NumericContext(digits=60))
        # too few digits let the run leave the positive cone before n = 300
        err = mp.inf if dpi.failure_index is not None else abs(dpi[300] - approx)
        scale = sqrt(mpf(300)) / (2 * sqrt(mpf(3))) * mpf(300) ** mpf("-3.5")
        checks.append(Check.build(
            "3.dpi-vs-expansion",
            "|beta_300^dpi - expansion| within the n^{-7/2} remainder scale",
            err, scale))
    return checks


def criterion_4(digits: int = 150) -> list[Check]:
    """Remainder orders of the three asymptotic regimes."""
    checks = []
    ctx = NumericContext(digits=digits)
    # (a) s -> 0: error ratio between s=1e-2 and s=1e-3 ~ 10^4
    with mp.workdps(digits + 20):
        for n in (6, 7):
            errs = {}
            for k in (2, 3):
                params = WeightParams(f"1e-{k}", "1.25", 1)
                exact = hankel.beta_from_moments(params, n, ctx)[n]
                errs[k] = abs(asymptotics.beta_small_s(n, params) - exact)
            ratio = errs[2] / errs[3]
            checks.append(Check.build(
                f"4a.small-s-order.n{n}",
                f"error ratio e(s=1e-2)/e(s=1e-3) at n={n} inside [3e3, 3e4]",
                _window_margin(ratio, mpf(3000), mpf(30000)), mpf(0)))
    # (b) n -> infinity: ratio e(16)/e(64) ~ 4^{7/2} = 128
    with mp.workdps(digits + 20):
        params = WeightParams("0.25", 1, 1)
        ref = hankel.beta_from_moments(params, 64, ctx)
        errs = {n: abs(asymptotics.beta_large_n(n, params, NumericContext(digits=60))
                       - ref[n]) for n in (16, 17, 63, 64)}
        for (lo, hi, tag) in ((16, 64, "even"), (17, 63, "odd")):
            ratio = errs[lo] / errs[hi]
            checks.append(Check.build(
                f"4b.large-n-order.{tag}",
                f"error ratio e({lo})/e({hi}) inside [40, 400]",
                _window_margin(ratio, mpf(40), mpf(400)), mpf(0)))
    # (c) N -> infinity at r = 1: ratio e(N)/e(2N) ~ 8
    with mp.workdps(digits + 20):
        errs = {}
        for n in (20, 40, 21, 41):
            params = WeightParams("0.5", "1.5", n)
            exact = hankel.beta_from_moments(params, n, ctx)[n]
            approx = asymptotics.beta_double_scaling(n, n, mpf("0.5"), mpf("1.5"))
            errs[n] = abs(approx - exact)
        for (lo, hi, tag) in ((20, 40, "even"), (21, 41, "odd")):
            ratio = errs[lo] / errs[hi]
            checks.append(Check.build(
                f"4c.double-scaling-order.{tag}",
                f"error ratio e(N={lo})/e(N={hi}) inside [4, 16]",
                _window_margin(ratio, mpf(4), mpf(16)), mpf(0)))
    return checks


#: parameter points whose Hankel betas the suite computes; criterion 5 sweeps them.
_SUITE_BETA_POINTS = [
    ("0.25", "0", 1), ("0.25", "1.5", 1), ("0.25", "3", 1),
    ("0.5", "0", 1), ("0.5", "1.5", 1), ("0.5", "3", 1),
    ("1", "0", 1), ("1", "1.5", 1), ("1", "3", 1),
    ("1e-2", "1.25", 1), ("1e-3", "1.25", 1), ("0.25", "1", 1),
    ("0.5", "2", 1), ("0.5", "1", 2),
]


def criterion_5(digits: int = 60) -> list[Check]:
    """beta_n stays below the closed-form bound on every suite parameter point."""
    n_max = 30
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 20):
        worst = mpf("-inf")
        for (s, alpha, big_n) in _SUITE_BETA_POINTS:
            params = WeightParams(s, alpha, big_n)
            seq = hankel.beta_from_moments(params, n_max, ctx)
            for n in range(1, n_max + 1):
                bound = recurrence.upper_bound(n, params, ctx)
                worst = max(worst, seq[n] - bound)
        return [Check.build(
            "5.upper-bound",
            "max(beta_n - bound) over the suite grid, n <= 30 (negative = strictly below)",
            worst, mpf(0))]


def criterion_6(digits: int = 60) -> list[Check]:
    """|beta_n / a_mu^2 - 1/4| < 2/n at mu = 2n + alpha for n in {100, 200}."""
    checks = []
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits):
        worst = mpf("-inf")
        for (s, alpha) in (("0.5", "1.5"), ("1", "0"), ("1", "1.5")):
            params = WeightParams(s, alpha, 1)
            for n in (100, 200):
                beta = asymptotics.beta_large_n(n, params, ctx)
                a_mu = asymptotics.fluid_endpoint(n, params, ctx).a_mu
                dev = abs(beta / a_mu ** 2 - mpf(1) / 4) - mpf(2) / n
                worst = max(worst, dev)
        checks.append(Check.build(
            "6.mrs-quarter",
            "max(|beta_n/a_mu^2 - 1/4| - 2/n), n in {100,200} (negative = inside)",
            worst, mpf(0)))
    return checks


def criterion_7(digits: int = 100) -> list[Check]:
    """Ladder, compatibility and z-ODE residuals, all relative, n <= 15."""
    n_max = 15
    ctx = NumericContext(digits=digits)
    params = WeightParams("0.5", "2", 1)
    zgrid = ("-0.3", "0.3", "-1.1", "1.1", "2.7")
    with mp.workdps(digits + 20):
        betas = hankel.beta_from_moments(params, n_max + 2, ctx)
        table = [polynomials.identity_residuals(n, mpmathify(z), params, betas, ctx)
                 for n in range(1, n_max + 1) for z in zgrid]
        worst = {key: max(row[key] for row in table) for key in table[0]}
        return [Check.build(f"7.{key}",
                            f"max relative {key} residual, n <= {n_max}, z-grid {zgrid}",
                            val, mpf(10) ** -20)
                for key, val in worst.items()]


def criterion_8(digits: int = 80) -> list[Check]:
    """Normalized inner products within 1e-30 of the identity, from quadrature moments."""
    n_max = 8
    ctx = NumericContext(digits=digits)
    params = WeightParams("0.5", "0.5", 1)
    with mp.workdps(digits + 20):
        gram = polynomials.orthogonality_check(n_max, params, ctx)
        off = max(abs(gram[j][k]) for j in range(n_max + 1) for k in range(n_max + 1)
                  if j != k)
        diag = max(abs(gram[j][j] - 1) for j in range(n_max + 1))
        return [
            Check.build("8.orthogonality-off",
                        f"max |G_jk|, j != k <= {n_max}", off, mpf(10) ** -30),
            Check.build("8.orthogonality-diag",
                        f"max |G_jj - 1|, j <= {n_max}", diag, mpf(10) ** -30),
        ]


def criterion_9(digits: int = 100) -> list[Check]:
    """Exact log-derivative of D_n vs fourth-order central differences."""
    ctx = NumericContext(digits=digits)
    params = WeightParams("0.5", "1", 2)
    n = 8
    with mp.workdps(digits + 30):
        exact = detasympt.logdet_derivative_exact(n, params, ctx)

        def logdet_at(sv):
            return hankel.logdet(WeightParams(sv, params.alpha, params.big_n), n, ctx)

        fd = central_difference(logdet_at, fraction_to_mpf(params.s), 1, ctx)
        summed = detasympt.logdet_derivative_sum(n, params, ctx)
        return [
            Check.build("9.logdet-vs-fd",
                        "|exact d/ds log D_8 - central difference| at (s=1/2, a=1, N=2)",
                        abs(exact - fd), mpf(10) ** -20),
            Check.build("9.logdet-vs-sum",
                        "|exact - direct summation form|",
                        abs(exact - summed), mpf(10) ** -20),
        ]


def criterion_10(digits: int = 60) -> list[Check]:
    """Coefficient-function checks: the A-integral and the N-fit recovery."""
    from mpmath import quad
    checks = []
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits):
        for r in ("0.9", "1"):
            rv = mpmathify(r)
            integral = quad(lambda x, _r=rv: detasympt._a_coefficient(x, _r), [0, 1],
                            method="gauss-legendre")
            closed = rv ** 2 * (3 - 2 * log(mpf(3)) - 2 * log(rv)) / 8
            checks.append(Check.build(
                f"10.intA.r{r}", f"|int_0^1 A(s) ds - closed form| at r={r}",
                abs(integral - closed), mpf(10) ** -8))
    # N-fit at s = 1/2 with N in {20, 30, 40}, n = N (even parity), alpha = 1
    fit_ctx = NumericContext(digits=80)
    with mp.workdps(100):
        a_fit, b_fit, c_fit = detasympt.fit_abc("0.5", 1, 1, (20, 30, 40), fit_ctx)
        coeff = detasympt.appendix_b_coefficients("0.5", 1, 1, "even", fit_ctx)
        for tag, fit, true in (("A", a_fit, coeff.a_s), ("B", b_fit, coeff.b_s),
                               ("C", c_fit, coeff.c_s)):
            # 2 % relative, with an absolute floor for coefficients near zero
            tol = max(mpf("0.02") * abs(true), mpf(10) ** -3)
            checks.append(Check.build(
                f"10.fit{tag}", f"|fitted {tag}(1/2) - implemented| within 2%",
                abs(fit - true), tol))
    return checks


def criterion_11(digits: int = 60) -> list[Check]:
    """log D_n(0) display vs the exact Gamma product: O(n^-2) error decay."""
    checks = []
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 10):
        for alpha in (0, 1):
            for (n1, n2, parity) in ((20, 40, "even"), (21, 41, "odd")):
                errs = {}
                for n in (n1, n2):
                    display = detasympt.logdet_expansion("D0", n, 1, alpha,
                                                         parity, ctx).value
                    exact = hankel.mehta_normand_logD0(n, alpha, n, ctx)
                    errs[n] = abs(display - exact)
                ratio = errs[n1] / errs[n2]
                predicted = (mpf(n2) / n1) ** 2
                checks.append(Check.build(
                    f"11.d0-order.a{alpha}.{parity}",
                    f"e({n1})/e({n2}) within factor 2 of (n2/n1)^2, alpha={alpha}",
                    _window_margin(ratio / predicted, mpf("0.5"), mpf(2)), mpf(0)))
    return checks


def criterion_12(digits: int = 500) -> list[Check]:
    """Sensitivity of the dP_I to its initial value at (s=1/2, alpha=3, N=1)."""
    n_max = 100
    params = WeightParams("0.5", "3", 1)
    ctx = NumericContext(digits=digits)
    checks = []
    clean = recurrence.sensitivity_run(params, 0, n_max, ctx)
    checks.append(Check.build(
        "12.unperturbed",
        f"epsilon=0 stays positive through n={n_max} (0 = no failure)",
        mpf(0 if clean.first_failure_index is None else 1), mpf(0)))
    for sign in ("", "-"):
        indices = []
        for eps in ("1e-1", "1e-3", "1e-5"):
            run = recurrence.sensitivity_run(params, f"{sign}{eps}", n_max, ctx)
            indices.append(run.first_failure_index)
        finite = all(i is not None for i in indices)
        ordered = finite and indices[0] <= indices[1] <= indices[2]
        checks.append(Check.build(
            f"12.perturbed{sign or '+'}",
            f"failure indices {indices} finite and weakly decreasing in |eps|",
            mpf(0 if (finite and ordered) else 1), mpf(0)))
    return checks


def ode_invariants(digits: int = 100) -> list[Check]:
    """Non-acceptance extras: the s-ODE residual and beta' vs finite differences."""
    ctx = NumericContext(digits=digits)
    checks = []
    params = WeightParams("0.5", "1", 1)
    with mp.workdps(digits + 20):
        for n in (6, 7):
            res = recurrence.ode25_residual(n, params, ctx)
            checks.append(Check.build(
                f"ode.residual-2nd-order.n{n}",
                f"|second-order ODE residual| at n={n}, (s,a,N)=(1/2,1,1)",
                abs(res), mpf(10) ** -20))
        betas = hankel.beta_from_moments(params, 6, ctx)
        analytic = recurrence.beta_prime(5, betas, params)

        def beta5(sv):
            return hankel.beta_from_moments(
                WeightParams(sv, params.alpha, params.big_n), 6, ctx)[5]

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
