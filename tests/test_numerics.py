import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpmathify, log, sqrt, pi, exp, sin, cos, gamma, besselk, loggamma

from dfreud import (NumericContext, DomainError, IntegrationError, barnes_g_log,
                    exp_exp_moments, central_difference)
from dfreud.numerics import _NODE_BUDGET, _node, _node_store
from conftest import assert_close


class TestNumericContext:
    def test_defaults(self):
        ctx = NumericContext(digits=60)
        assert ctx.quad_tol == Fraction(1, 10 ** 50)
        assert 0 < ctx.diff_step <= Fraction(1, 100)

    def test_digits_floor(self):
        with pytest.raises(DomainError):
            NumericContext(digits=10)

    @pytest.mark.parametrize("digits", [40.5, 40.0, Fraction(81, 2), "60", mpf(40)])
    def test_digits_must_be_an_integer(self, digits):
        # 40.5 used to run betas at fractional working digits while the quadrature
        # raised TypeError from quad_tol
        with pytest.raises(DomainError, match="digits must be an integer"):
            NumericContext(digits=digits)


class TestBarnesGLog:
    def test_g2_is_zero(self, ctx60):
        assert_close(barnes_g_log(2, ctx60), 0, mpf(10) ** -50)

    def test_g4_is_log2(self, ctx60):
        # G(4) = Gamma(3) G(3) = 2 * Gamma(2) G(2) = 2
        with mp.workdps(70):
            assert_close(barnes_g_log(4, ctx60), log(2), mpf(10) ** -50, dps=70)

    def test_z11_matches_pure_recursion(self, ctx60):
        # recursion oracle seeded at G(1) = 1
        with mp.workdps(80):
            rec = mp.fsum(loggamma(k).real for k in range(1, 11))
            assert abs(barnes_g_log(11, ctx60) - rec) < mpf(10) ** -10

    def test_functional_equation_half_integers(self):
        ctx = NumericContext(digits=60)
        with mp.workdps(80):
            for i in range(15):
                z = 1 + i * mpf("0.5")
                resid = (barnes_g_log(z + 1, ctx) - loggamma(z).real
                         - barnes_g_log(z, ctx))
                assert abs(resid) < mpf(10) ** -20

    def test_against_independent_implementation(self):
        # closed form: log G(1/2) = log 2/24 + 1/8 - (log pi)/4 - (3/2) log A
        for digits in (60, 250):
            ctx = NumericContext(digits=digits)
            with mp.workdps(digits + 20):
                ref = log(2) / 24 + mpf(1) / 8 - log(pi) / 4 - 3 * log(mp.glaisher) / 2
                err = abs(barnes_g_log(mpf(1) / 2, ctx) - ref)
                assert err < mpf(10) ** -(digits - 5), (digits, err)

    def test_domain(self, ctx60):
        with pytest.raises(DomainError):
            barnes_g_log(-1, ctx60)


class TestIntegrateSemiInfinite:
    """Integrals over (0, inf), all from ``exp_exp_moments``."""

    def test_exponential(self, ctx60):
        assert_close(exp_exp_moments(0, lambda y: y, 1, ctx60)[0], 1, mpf(10) ** -48)

    def test_sqrt_singularity(self, ctx60):
        # int y^{-1/2} e^{-y} = Gamma(1/2) = sqrt(pi)
        with mp.workdps(70):
            val = exp_exp_moments(mpf("-0.5"), lambda y: y, 1, ctx60)[0]
            assert_close(val, sqrt(pi), mpf(10) ** -48, dps=70)

    def test_half_gaussian(self, ctx60):
        with mp.workdps(70):
            val = exp_exp_moments(0, lambda y: y * y, 1, ctx60)[0]
            assert_close(val, sqrt(pi) / 2, mpf(10) ** -48, dps=70)

    @pytest.mark.parametrize("a", ["0.25", "0.5", "1.5", "3"])
    def test_gamma_family(self, a, ctx60):
        # int y^{a-1+k} e^{-y} = Gamma(a+k): six moments from the shared nodes
        with mp.workdps(70):
            av = mpmathify(a)
            vals = exp_exp_moments(av - 1, lambda y: y, 6, ctx60)
            for k, val in enumerate(vals):
                assert abs(val - gamma(av + k)) / gamma(av + k) < mpf(10) ** -50, k

    def test_finer_levels_stop_at_the_tails_reach(self, ctx60):
        # mu_0 at (s, alpha, N) = (1/2, 0, 1) = e^(1/16) K_{1/4}(1/16) / 2: finer
        # levels stop one coarse step past the tails' reach
        calls = []

        def g(y):
            calls.append(None)
            return (y + y * y) / 2

        with mp.workdps(70):
            val = exp_exp_moments(mpf("-0.5"), g, 1, ctx60)[0]
            ref = exp(mpf(1) / 16) * besselk(mpf(1) / 4, mpf(1) / 16) / 2
            assert abs(val - ref) <= mpf(10) ** -50 * ref
        assert len(calls) <= 600

    def test_right_tail_reaches_the_smallest_supported_n(self):
        # int y^(p+k) e^(-N y) = Gamma(p+1+k) / N^(p+1+k); the right walk stops at
        # y = 10^(8D), D = digits + 10, which covers N down to 10^(2 - 8D)
        ctx = NumericContext(digits=30)
        with mp.workdps(40):
            p, big_n = mpf("-0.5"), mpf(10) ** -318
            vals = exp_exp_moments(p, lambda y: big_n * y, 2, ctx)
            for k, val in enumerate(vals):
                ref = gamma(p + 1 + k) / big_n ** (p + 1 + k)
                assert abs(val - ref) <= mpf(10) ** -30 * ref, k
            with pytest.raises(IntegrationError):
                exp_exp_moments(p, lambda y: mpf(10) ** -320 * y, 1, ctx)

    def test_rejects_nonintegrable(self, ctx60):
        with pytest.raises(DomainError):
            exp_exp_moments(-1, lambda y: y, 1, ctx60)

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_count_below_one(self, count, ctx60):
        # it used to run level 0 and one finer level, then return []
        with pytest.raises(DomainError, match="count must be >= 1"):
            exp_exp_moments(0, lambda y: y, count, ctx60)

    @pytest.mark.parametrize("p", [0, "-0.5", 3, "-0.99"])
    def test_non_decaying_integrand_raises_quickly(self, p, ctx60):
        start = time.perf_counter()
        with pytest.raises(IntegrationError):
            exp_exp_moments(mpmathify(p), lambda y: 0, 1, ctx60)
        assert time.perf_counter() - start < 1


class TestNodeStore:
    """The exp-exp nodes (u, du, y), kept per working precision in bits."""

    @staticmethod
    def fresh(level: int, index: int, sign: int, e):
        """(u, du, y) by mpf arithmetic at the working precision, as the rule had them."""
        t = index * mpf(2) ** -level
        w = 1 / e if sign > 0 else e
        u = sign * t - w
        return tuple(x._mpf_ for x in (u, 1 + w, exp(u)))

    @pytest.mark.parametrize("precs", [(53, 54), (54, 53), (106, 107), (107, 106)])
    def test_precisions_sharing_a_decimal_precision(self, precs):
        # each pair shares one mp.dps, so a store keyed on it would hand the
        # first precision's nodes to the second
        _node_store.cache_clear()
        for prec in precs:
            with mp.workprec(prec):
                for sign in (1, -1):
                    for j in range(4):
                        assert _node(0, j, sign) == self.fresh(0, j, sign, exp(j))
                    for level in (1, 2):
                        h = mpf(2) ** -level
                        e, step = exp(h), exp(2 * h)
                        for m in range(1, 9, 2):
                            assert _node(level, m, sign, e._mpf_) == self.fresh(level, m, sign, e)
                            e *= step
        assert _node_store.cache_info().currsize == 2

    def test_store_stays_bounded(self):
        _node_store.cache_clear()
        ctx30 = NumericContext(digits=30)
        with mp.workdps(40):
            p, big_n = mpf("-0.5"), mpf(10) ** -318
            prec = mp.prec
        exp_exp_moments(p, lambda y: big_n * y, 2, ctx30)     # walks the right tail to 10^320
        assert len(_node_store(prec)) == _NODE_BUDGET
        with pytest.raises(IntegrationError):
            exp_exp_moments(0, lambda y: 0, 1, NumericContext(digits=60))
        precs = []
        for digits in (31, 45, 60, 75, 100):
            exp_exp_moments(0, lambda y: y, 3, NumericContext(digits=digits))
            with mp.workdps(digits + 10):
                precs.append(mp.prec)
        info = _node_store.cache_info()
        assert info.currsize == info.maxsize == 4
        # the store holds the latest precisions; reading them adds none
        assert all(0 < len(_node_store(p)) <= _NODE_BUDGET for p in precs[-4:])
        assert _node_store.cache_info().misses == info.misses

    def test_failed_rule_stores_no_node(self):
        # g = 0 never decays: the rule walks 1,291 level-0 nodes on the right before
        # it raises, and used to leave them in the store
        ctx60 = NumericContext(digits=60)
        _node_store.cache_clear()
        exp_exp_moments(0, lambda y: y, 2, ctx60)
        with mp.workdps(70):
            store = _node_store(mp.prec)
        before = list(store)
        with pytest.raises(IntegrationError):
            exp_exp_moments(0, lambda y: 0, 1, ctx60)
        assert list(store) == before


class TestCentralDifference:
    def test_square(self, ctx60):
        assert_close(central_difference(lambda s: s * s, 1, 1, ctx60), 2,
                     mpf(10) ** -40)

    def test_exp_at_zero(self, ctx60):
        assert_close(central_difference(exp, 0, 1, ctx60), 1, mpf(10) ** -40)

    def test_second_derivative(self, ctx60):
        assert_close(central_difference(exp, 0, 2, ctx60), 1, mpf(10) ** -30)

    def test_convergence_order(self):
        # the 50- and 55-digit contexts step by 1e-10 and 1e-11; a tenth of
        # the step cuts the error of a fourth-order stencil by ~10^4 on sin at 0.3
        with mp.workdps(60):
            x0 = mpf("0.3")
            errs = []
            for digits in (50, 55):
                ctx = NumericContext(digits=digits)
                errs.append(abs(central_difference(sin, x0, 1, ctx) - cos(x0)))
            ratio = errs[0] / errs[1]
            assert 6e3 <= ratio <= 1.6e4

    def test_order_validation(self, ctx60):
        with pytest.raises(DomainError):
            central_difference(exp, 0, 3, ctx60)
