import pytest
from mpmath import mp, mpf, mpmathify, log, sqrt, pi, quad

from dfreud import (NumericContext, WeightParams, DomainError, logdet_derivative_exact,
                    logdet_derivative_sum, appendix_b_coefficients, fit_abc,
                    logdet_expansion, mehta_normand_logD0, central_difference,
                    beta_from_moments)
from dfreud import hankel as hk
from oracles import log_d1_display


class TestLogDetDerivative:
    @pytest.mark.parametrize("n", [8, 9])
    def test_exact_vs_sum_and_fd(self, n):
        # parity flips between n = 8 and n = 9; both match both oracles
        ctx = NumericContext(digits=100)
        params = WeightParams("0.5", 1, 2)
        with mp.workdps(130):
            exact = logdet_derivative_exact(n, params, ctx)
            summed = logdet_derivative_sum(n, params, ctx)
            assert abs(exact - summed) < mpf(10) ** -50

            def logdet_at(sv):
                return hk.logdet(WeightParams(sv, 1, 2), n, ctx)

            fd = central_difference(logdet_at, mpf("0.5"), 1, ctx)
            assert abs(exact - fd) < mpf(10) ** -20

    def test_s0_rejected(self):
        with pytest.raises(DomainError):
            logdet_derivative_exact(4, WeightParams(0, 1, 1), NumericContext(digits=60))

    @pytest.mark.parametrize("with_betas", [False, True])
    @pytest.mark.parametrize("route", [logdet_derivative_exact, logdet_derivative_sum],
                             ids=["exact", "sum"])
    def test_n_zero_is_zero(self, route, with_betas):
        # D_0 = 1 for every s, so d/ds log D_0 = 0; the closed form used to divide
        # 0 by beta_0 = 0, and the sum to ask for a Hankel table of order 0
        params, ctx = WeightParams("0.5", 1, 1), NumericContext(digits=30)
        betas = beta_from_moments(params, 2, ctx) if with_betas else None
        assert route(0, params, ctx, betas) == 0

    @pytest.mark.parametrize("route", [logdet_derivative_exact, logdet_derivative_sum],
                             ids=["exact", "sum"])
    def test_negative_n_rejected_without_betas(self, route):
        with pytest.raises(DomainError, match="n must be >= 0"):
            route(-1, WeightParams("0.5", 1, 1), NumericContext(digits=30))


class TestAppendixB:
    def test_a_integral_closed_form(self):
        # int_0^1 A(s) ds = r^2 (3 - 2 log 3 - 2 log r)/8 at r in {0.9, 1}
        from dfreud.detasympt import _a_coefficient
        with mp.workdps(50):
            for r in ("1", "0.9"):
                rv = mpmathify(r)
                got = quad(lambda x: _a_coefficient(x, rv), [0, 1],
                           method="gauss-legendre")
                want = rv ** 2 * (3 - 2 * log(mpf(3)) - 2 * log(rv)) / 8
                assert abs(got - want) < mpf(10) ** -8

    def test_a_value_at_r1(self):
        # int A at r=1 is 0.1003471...
        with mp.workdps(50):
            from dfreud.detasympt import _a_coefficient
            got = quad(lambda x: _a_coefficient(x, mpf(1)), [0, 1],
                       method="gauss-legendre")
            assert abs(got - mpf("0.1003469")) < mpf("1e-6")

    def test_b_vanishes_for_zero_alpha(self):
        with mp.workdps(50):
            for parity in ("even", "odd"):
                co = appendix_b_coefficients("0.5", 1, 0, parity)
                assert abs(co.b_s) < mpf(10) ** -40

    def test_b_parity_independent(self):
        # the N-linear coefficient carries no parity dependence
        with mp.workdps(50):
            for s, r, al in (("0.3", "0.8", "1.5"), ("0.9", "1", "2")):
                even = appendix_b_coefficients(s, r, al, "even")
                odd = appendix_b_coefficients(s, r, al, "odd")
                assert abs(even.b_s - odd.b_s) < mpf(10) ** -35
                assert abs(even.c_s - odd.c_s) < mpf(10) ** -35

    def test_bcd_integrals_match_ratio_coefficients(self):
        # term-wise integrals over s in [0,1] reproduce the n-, const- and
        # 1/n-coefficients of the log-ratio display (B and C parity free,
        # D parity dependent)
        ctx = NumericContext(digits=40)
        with mp.workdps(45):
            r, al = mpf(1), mpf(1)
            for parity in ("even", "odd"):
                nodes = {}  # one evaluation per quadrature node serves b, c and d

                def coeffs(x):
                    if x not in nodes:
                        nodes[x] = appendix_b_coefficients(x, r, al, parity, ctx)
                    return nodes[x]

                ib = quad(lambda x: coeffs(x).b_s, [0, 1], method="gauss-legendre")
                want_b = -r * al * (-1 + log(mpf(3)) + log(r)) / 4
                assert abs(ib - want_b) < mpf(10) ** -8
                ic = quad(lambda x: coeffs(x).c_s, [0, 1], method="gauss-legendre")
                want_c = (3 * al ** 2 - 1) * log(mpf(2)) / 12 - al ** 2 * log(mpf(3)) / 4
                assert abs(ic - want_c) < mpf(10) ** -8
                idd = quad(lambda x: coeffs(x).d_s, [0, 1], method="gauss-legendre")
                want_d = (al * (al ** 2 + 3) / (48 * r) if parity == "even"
                          else al * (al ** 2 - 3) / (48 * r))
                assert abs(idd - want_d) < mpf(10) ** -8

    def test_frozen_values_at_midpoint(self):
        # spot values at (s, r, alpha) = (1/2, 1, 1); D matches the explicit
        # printed polynomials, B is exactly zero there, A = 1/9
        with mp.workdps(50):
            even = appendix_b_coefficients("0.5", 1, 1, "even")
            odd = appendix_b_coefficients("0.5", 1, 1, "odd")
            assert abs(even.a_s - mpf(1) / 9) < mpf(10) ** -40
            assert abs(even.b_s) < mpf(10) ** -40
            assert abs(even.c_s + mpf("0.1257142857142857")) < mpf("1e-15")
            assert abs(even.d_s - mpf("0.08385306122448979")) < mpf("1e-15")
            assert abs(odd.d_s + mpf("0.02635102041")) < mpf("1e-10")

    def test_t2_derivative_is_proportional_to_ode_slice(self):
        # t2'(x) = -4 s^2 S2(x)/((1+s) x): the reason B and C need no t2'(a0)
        from dfreud.detasympt import _logdet_slices
        from dfreud.recurrence import _laurent, _ode_slices
        with mp.workdps(60):
            for s, r, x in (("0.01", "0.3", "0.2"), ("0.5", "1", "3"), ("1", "0.8", "0.05")):
                s, r, x = mpf(s), mpf(r), mpf(x)
                t2_d1 = _laurent(_logdet_slices(s, r, 1, 1)[0], x, 1)
                s2 = _laurent(_ode_slices(s, r, 1, 1)[0], x)
                assert abs(t2_d1 + 4 * s * s * s2 / ((1 + s) * x)) <= mpf(10) ** -50 * abs(t2_d1)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("s", ["1e-8", "1e-12"])
    def test_small_s_keeps_digits(self, s, parity):
        # A(s), and B, C, D for one parity or the other, cancel about three
        # digits per decade of 1/s; the context's digits must survive
        digits = 50
        lo = appendix_b_coefficients(s, 1, 1, parity, NumericContext(digits=digits))
        hi = appendix_b_coefficients(s, 1, 1, parity, NumericContext(digits=digits + 150))
        with mp.workdps(digits + 150):
            for name in ("a_s", "b_s", "c_s", "d_s"):
                ref = getattr(hi, name)
                assert abs(getattr(lo, name) - ref) <= mpf(10) ** -digits * abs(ref), name

    def test_singularities_raise(self):
        with pytest.raises(DomainError):
            appendix_b_coefficients(0, 1, 1, "even")  # the slices divide by s
        with pytest.raises(DomainError):
            appendix_b_coefficients("1.5", 1, 1, "even")

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_f_zero_is_regular(self, parity):
        # f(s) = 1 - 2s - 4rs + s^2 vanishes at (s, r) = (1/2, 1/8): D(s) is
        # finite there, and the exact log-derivative approaches the expansion
        # with an O(1/N) remainder after the D/N term (N = 8n)
        want, ns = {"even": (69, (22, 42)), "odd": (-39, (21, 41))}[parity]
        digits = 40
        ctx = NumericContext(digits=digits)
        co = appendix_b_coefficients("0.5", "0.125", 1, parity, ctx)
        with mp.workdps(digits + 10):
            assert abs(co.d_s - mpf(want) / 128) <= mpf(10) ** -digits
            errs = []
            for n in ns:
                N = 8 * n
                exact = logdet_derivative_exact(n, WeightParams("0.5", 1, N), ctx)
                errs.append(abs(N * (exact - co.a_s * N ** 2 - co.b_s * N - co.c_s) - co.d_s))
            rate = mpf(ns[1]) / ns[0]
            assert rate / 2 <= errs[0] / errs[1] <= 2 * rate

    def test_fit_recovers_coefficients(self):
        # the N-expansion cross-check at s = 1/2 (acceptance-scale grid)
        ctx = NumericContext(digits=80)
        with mp.workdps(100):
            a_fit, b_fit, c_fit = fit_abc("0.5", 1, 1, (20, 30, 40), ctx)
            co = appendix_b_coefficients("0.5", 1, 1, "even", ctx)
            assert abs(a_fit - co.a_s) <= mpf("0.02") * abs(co.a_s)
            assert abs(b_fit - co.b_s) <= mpf("1e-3")
            assert abs(c_fit - co.c_s) <= mpf("0.02") * abs(co.c_s)

    def test_fit_rejects_mixed_parity(self):
        ctx = NumericContext(digits=60)
        with pytest.raises(DomainError):
            fit_abc("0.5", "0.9", 1, (20, 30), ctx)


class TestLogDetExpansion:
    def test_ratio_constant_term(self):
        # constant term of the ratio display: (3a^2-1) log2/12 - a^2 log3/4
        with mp.workdps(50):
            al = mpf("1.5")
            exp_data = logdet_expansion("ratio_10", 20, 1, al)
            want = (3 * al ** 2 - 1) * log(mpf(2)) / 12 - al ** 2 * log(mpf(3)) / 4
            assert abs(exp_data.const - want) < mpf(10) ** -40

    def test_d1_invn_coefficients(self):
        # 1/n coefficients of log D_n(1): alpha(5 alpha^2+7)/48 even,
        # alpha(5 alpha^2-11)/48 odd
        with mp.workdps(50):
            al = mpf("1.3")
            even = logdet_expansion("D1", 20, 1, al)
            odd = logdet_expansion("D1", 21, 1, al)
            assert abs(even.invn - al * (5 * al ** 2 + 7) / 48) < mpf(10) ** -40
            assert abs(odd.invn - al * (5 * al ** 2 - 11) / 48) < mpf(10) ** -40

    @pytest.mark.parametrize("alpha", ["0", "1.7"])
    @pytest.mark.parametrize("n", [20, 21])
    def test_assembled_consistency(self, alpha, n):
        # D1 = ratio_10 + D0 termwise (n^2, n, log n, const, 1/n), and the assembled
        # D1 matches the display's printed coefficients
        ctx = NumericContext(digits=60)
        with mp.workdps(70):
            r = mpf("0.9")
            ratio = logdet_expansion("ratio_10", n, r, alpha, ctx=ctx)
            d0 = logdet_expansion("D0", n, r, alpha, ctx=ctx)
            d1 = logdet_expansion("D1", n, r, alpha, ctx=ctx)
            printed = log_d1_display(r, mpmathify(alpha), n % 2 == 0, ctx)
            for attr, want in zip(("n2", "n1", "logn", "const", "invn"), printed):
                lhs = getattr(ratio, attr) + getattr(d0, attr)
                rhs = getattr(d1, attr)
                assert abs(lhs - rhs) < mpf(10) ** -40, attr
                assert abs(rhs - want) < mpf(10) ** -40, attr

    def test_d0_against_exact(self):
        # |display - Mehta-Normand| is already small at n = 24, r = 1
        ctx = NumericContext(digits=60)
        with mp.workdps(70):
            for n in (24, 25):
                disp = logdet_expansion("D0", n, 1, 1, ctx=ctx).value
                exact = mehta_normand_logD0(n, 1, n, ctx)
                assert abs(disp - exact) < mpf("1e-3")

    def test_ratio_against_exact_determinants(self):
        # log(D_n(1)/D_n(0)) from Hankel pivots + the exact Gamma product,
        # against the display: O(n^{-2}) accuracy at n = 24
        ctx = NumericContext(digits=60)
        n = 24
        with mp.workdps(80):
            exact = (hk.logdet(WeightParams(1, 1, n), n, ctx)
                     - mehta_normand_logD0(n, 1, n, ctx))
            disp = logdet_expansion("ratio_10", n, 1, 1, ctx=ctx).value
            assert abs(disp - exact) < mpf("1e-2")

    def test_value_assembles_terms(self):
        # value carries the context's digits, not the caller's 15-digit precision
        ctx = NumericContext(digits=60)
        for quantity in ("ratio_10", "D0", "D1"):
            with mp.workdps(15):
                e = logdet_expansion(quantity, 20, 1, 0, ctx=ctx)
            with mp.workdps(80):
                n = mpf(20)
                manual = (e.n2 * n * n + e.n1 * n + e.logn * log(n)
                          + e.const + e.invn / n)
                assert abs(e.value - manual) < mpf(10) ** -55, quantity

    def test_domain(self):
        with pytest.raises(DomainError):
            logdet_expansion("D0", 10, "1.5", 1)
        with pytest.raises(DomainError):
            logdet_expansion("bogus", 10, 1, 1)

    @pytest.mark.parametrize("quantity", ["ratio_10", "D0", "D1"])
    @pytest.mark.parametrize("alpha", [-1, -3, "-1.5"])
    def test_alpha_at_or_below_minus_one(self, quantity, alpha):
        # ratio_10 returned a value (10.11... at alpha = -1, 9.729... at -3); D0
        # and D1 failed inside barnes_g_log with "requires z > 0", naming no alpha
        with pytest.raises(DomainError, match="alpha must exceed -1"):
            logdet_expansion(quantity, 10, 1, alpha)
