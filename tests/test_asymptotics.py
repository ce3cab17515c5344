from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpmathify, sqrt, fsum, binomial

import dfreud.asymptotics as asymptotics
from dfreud.numerics import fraction_to_mpf
from dfreud import (NumericContext, WeightParams, DomainError,
                    beta_at_s0, beta_from_moments,
                    small_s_coefficients, beta_small_s, large_n_coefficients,
                    beta_large_n, double_scaling_data, beta_double_scaling,
                    coulomb_b_squared, mrs_number, fluid_endpoint)


class TestSmallS:
    def test_s0_reduces_to_closed_form(self):
        # the series truncates to its prefactor sqrt(q_n)/(2N) = (n+alpha Delta)/(2N)
        with mp.workdps(60):
            for n in (4, 7):
                params = WeightParams(0, "1.5", 2)
                exact = beta_at_s0(n, params.alpha, params.big_n)
                got = beta_small_s(n, params)
                assert abs(got - mpf(exact.numerator) / exact.denominator) < mpf(10) ** -45

    def test_c1_alpha_zero(self):
        # c1 = (N - 3n)/N at alpha = 0, the (N - 3n - 2 alpha)/N display at alpha=0
        with mp.workdps(60):
            for n in (4, 5):
                data = small_s_coefficients(n, WeightParams("0.01", 0, 2))
                assert abs(data.c[1] - (2 - 3 * n) / mpf(2)) < mpf(10) ** -45

    def test_c1_general_form(self):
        with mp.workdps(60):
            data = small_s_coefficients(6, WeightParams("0.01", "1.25", 1))
            # (N - p - 2Q)/N with p = n + 2a, Q = n
            assert abs(data.c[1] - (1 - mpf("8.5") - 12)) < mpf(10) ** -45

    def test_c2_matches_parity_displays(self):
        # the quadratic coefficient agrees with both parity-expanded displays
        with mp.workdps(60):
            n, a, N = 6, mpf("1.25"), mpf(1)
            data = small_s_coefficients(n, WeightParams("0.01", "1.25", 1))
            even_display = (18 * n ** 2 - 9 * n * N + N ** 2 + 22 * n * a
                            + 6 * (-N * a + a ** 2 + 1)) / N ** 2
            assert abs(data.c[2] - even_display) < mpf(10) ** -40
            n = 7
            data = small_s_coefficients(n, WeightParams("0.01", "1.25", 1))
            odd_display = (18 * n ** 2 - 9 * n * N + N ** 2 + 14 * n * a
                           - 3 * N * a + 2 * a ** 2 + 6) / N ** 2
            assert abs(data.c[2] - odd_display) < mpf(10) ** -40

    def test_frozen_series_values(self):
        # series solution of the verified ODE at (n, alpha, N) = (6, 5/4, 1):
        # c2 = 6143/8 and c3 = -609239/16, confirmed against the Hankel oracle
        with mp.workdps(60):
            data = small_s_coefficients(6, WeightParams("0.01", "1.25", 1))
            assert abs(data.c[2] - mpf(6143) / 8) < mpf(10) ** -40
            assert abs(data.c[3] + mpf(609239) / 16) < mpf(10) ** -40

    def test_remainder_is_fourth_order(self):
        # |series - exact| at s = 1e-3 is already dominated by the s^4 term
        ctx = NumericContext(digits=80)
        n = 6
        params = WeightParams("0.001", "1.25", 1)
        with mp.workdps(90):
            exact = beta_from_moments(params, n, ctx)[n]
            err = abs(beta_small_s(n, params) - exact)
            assert err < mpf("1e-4")          # c4 ~ 2e6, pref=3: ~ 6e-6
            assert err > mpf("1e-7")          # and genuinely fourth order


class TestLargeN:
    def test_alpha0_matches_classical_table(self):
        # at alpha = 0 the solver reproduces the closed coefficient table
        with mp.workdps(70):
            params = WeightParams("0.5", 0, 1)
            data = large_n_coefficients(params, "even")
            s, a, N = params.mpfs()
            w = N * (1 - s) ** 2
            closed = (-sqrt(N) * (1 - s) / (2 * sqrt(3 * s)),
                      w / (24 * s),
                      mpf(0),
                      mpf(1) / 24 - w ** 2 / (1152 * s ** 2),
                      -sqrt(N) * (1 - s) / (48 * sqrt(3 * s)),
                      w * (w - 12 * s) * (w + 12 * s) / (27648 * s ** 3),
                      sqrt(N) * (1 - s) * w / (288 * sqrt(mpf(3)) * s ** mpf(1.5)))
            for got, want in zip(data.d, closed):
                assert abs(got - want) < mpf(10) ** -45
            assert all(abs(b) < mpf(10) ** -45 for b in data.alternating)

    def test_d1_closed_form_any_alpha(self):
        # the leading correction carries no parity part for any alpha
        with mp.workdps(70):
            params = WeightParams("0.25", "2.2", 3)
            data = large_n_coefficients(params, "odd")
            s, a, N = params.mpfs()
            want = -sqrt(N) * (1 - s) / (2 * sqrt(3 * s))
            assert abs(data.d[0] - want) < mpf(10) ** -45
            assert abs(data.alternating[0]) < mpf(10) ** -45

    def test_symmetric_n32_vanishes(self):
        # the non-alternating part of the n^{-3/2} coefficient is zero
        with mp.workdps(70):
            data = large_n_coefficients(WeightParams("0.5", "1.5", 1), "even")
            assert abs(data.symmetric[2]) < mpf(10) ** -45

    def test_pure_freud_value(self):
        # s=1, alpha=0, N=1: beta_n = sqrt(n/3)/2 + n^{-3/2}/(48 sqrt 3)
        with mp.workdps(70):
            params = WeightParams(1, 0, 1)
            for n in (10, 11):
                got = beta_large_n(n, params)
                want = sqrt(mpf(n) / 3) / 2 + mpf(n) ** mpf("-1.5") / (48 * sqrt(mpf(3)))
                assert abs(got - want) < mpf(10) ** -40

    def test_lew_quarles_limit(self):
        with mp.workdps(60):
            got = beta_large_n(10_000, WeightParams(1, 0, 1))
            assert abs(got / 100 - 1 / (2 * sqrt(mpf(3)))) < mpf(10) ** -3

    def test_normalised_limit_converges(self):
        # beta_n / sqrt(n) -> 1/(2 sqrt(3 N s)), deviation decreasing over decades
        with mp.workdps(60):
            params = WeightParams("0.5", "1.5", 2)
            s, a, N = params.mpfs()
            lim = 1 / (2 * sqrt(3 * N * s))
            devs = [abs(beta_large_n(n, params) / sqrt(mpf(n)) - lim)
                    for n in (100, 1000, 10000)]
            assert devs[0] > devs[1] > devs[2]

    def test_remainder_order_against_hankel(self):
        # error drops ~ 4^{7/2} = 128 between n = 16 and 64 at (s=1, alpha=0)
        ctx = NumericContext(digits=120)
        params = WeightParams(1, 0, 1)
        ref = beta_from_moments(params, 64, ctx)
        with mp.workdps(100):
            e16 = abs(beta_large_n(16, params) - ref[16])
            e64 = abs(beta_large_n(64, params) - ref[64])
            assert 40 < e16 / e64 < 400

    def test_s0_rejected(self):
        with pytest.raises(DomainError):
            beta_large_n(10, WeightParams(0, 0, 1))

    def test_binomial_table_matches_mpmath(self):
        # every (eps, h) that _beta_series asks for, each entry binomial(h/2, m) eps^m
        assert set(asymptotics._BINOMIALS) == {(eps, h) for eps in (-1, 0, 1)
                                               for h in (1, *range(-1, -10, -1))}
        with mp.workdps(80):
            for (eps, h), row in asymptotics._BINOMIALS.items():
                assert len(row) == asymptotics._K_SERIES // 2 + 1
                for m, c in enumerate(row):
                    want = binomial(mpf(h) / 2, m) * mpf(eps) ** m
                    assert abs(fraction_to_mpf(c) - want) <= mpf(10) ** -79 * max(1, abs(want))

    def test_one_residual_per_order_for_both_parities(self, monkeypatch):
        # the order-k Jacobian is diag(6, 2): 7 residuals build both parities
        calls = []
        residual = asymptotics._dpi_series_residual
        monkeypatch.setattr(asymptotics, "_dpi_series_residual",
                            lambda *args: calls.append(args) or residual(*args))
        asymptotics._large_n_parities.cache_clear()
        params = WeightParams("3/10", "7/5", 2)
        for n in range(1, 41):
            beta_large_n(n, params)
        assert len(calls) == 7
        large_n_coefficients(params, "even")
        large_n_coefficients(params, "odd")
        beta_large_n(40, params)
        assert len(calls) == 7


class TestDoubleScaling:
    def test_a0_freud_point(self):
        # r=1, s=1, alpha=0: a0 = sqrt(12)/12 = sqrt(3)/6
        with mp.workdps(60):
            data = double_scaling_data(40, 40, 1, 0)
            assert abs(data.a0 - sqrt(mpf(3)) / 6) < mpf(10) ** -45

    def test_a0_solves_cubic(self):
        # a0 is the positive root of the fluid cubic (limit of the ODE)
        with mp.workdps(60):
            s, r = mpf("0.5"), mpf("0.8")
            data = double_scaling_data(32, 40, s, "1.5")
            x = data.a0
            cubic = (3 * (1 + s) ** 2 / (8 * s ** 2) * x ** 3
                     + (1 + s) ** 2 * (1 - s) / (4 * s ** 3) * x ** 2
                     + (1 + s) ** 2 * (1 - 2 * s + 2 * r * s + s * s) / (32 * s ** 4) * x
                     - (1 + s) ** 2 * r ** 2 / (128 * s ** 4 * x))
            assert abs(cubic) < mpf(10) ** -40

    def test_a1_closed_forms(self):
        # a1 agrees with the parity-dependent closed displays
        with mp.workdps(60):
            s, al = mpf("0.5"), mpf("1.5")
            g = sqrt(1 - 2 * s + 12 * s + s * s)
            f = 1 - 2 * s - 4 * s + s * s
            even = double_scaling_data(40, 40, s, al)
            want_even = (s - 1 + g) * al / (4 * (s - 1) * g - 2 * g * g)
            assert abs(even.a1 - want_even) < mpf(10) ** -40
            odd = double_scaling_data(41, 41, s, al)
            want_odd = al * (1 - s) / (2 * f) - 4 * al * s / (f * g)
            assert abs(odd.a1 - want_odd) < mpf(10) ** -40

    def test_a1_even_vanishes_at_alpha0(self):
        with mp.workdps(60):
            data = double_scaling_data(40, 40, "0.5", 0)
            assert abs(data.a1) < mpf(10) ** -45

    def test_remainder_order(self):
        # error vs Hankel drops ~ 8x when N doubles (both parities, r = 1)
        ctx = NumericContext(digits=120)
        with mp.workdps(100):
            errs = {}
            for n in (20, 40, 21, 41):
                params = WeightParams("0.5", "1.5", n)
                exact = beta_from_moments(params, n, ctx)[n]
                errs[n] = abs(beta_double_scaling(n, n, mpf("0.5"), mpf("1.5")) - exact)
            assert 4 < errs[20] / errs[40] < 16
            assert 4 < errs[21] / errs[41] < 16

    @pytest.mark.parametrize("n, big_n, a1, a2", [
        (5, 40, Fraction(5, 8), Fraction(-13, 64)),
        (4, 32, Fraction(-1, 8), Fraction(23, 64)),
    ], ids=["odd", "even"])
    def test_f_zero_is_regular(self, n, big_n, a1, a2):
        # f(s) = 1 - 2s - 4rs + s^2 = 0 at r = (1-s)^2/(4s): s=1/2 -> r = 1/8;
        # nothing divides by f, so a0 = 1/12, a1 and a2 are exact rationals there
        data = double_scaling_data(n, big_n, "0.5", 1)
        with mp.workdps(60):
            assert data.f_s == 0
            for got, want in ((data.a0, Fraction(1, 12)), (data.a1, a1), (data.a2, a2)):
                assert abs(got - mpf(want.numerator) / want.denominator) < mpf(10) ** -50

    def test_r_range(self):
        with pytest.raises(DomainError):
            double_scaling_data(80, 40, "0.5", 1)


class TestFluid:
    def test_b_squared_example(self):
        # (n=3, s=1, N=1, alpha=0): positive root of the quartic normalisation is 2
        with mp.workdps(60):
            got = coulomb_b_squared(3, WeightParams(1, 0, 1))
            assert abs(got - 2) < mpf(10) ** -45

    def test_b_squared_s_to_zero(self):
        # the s -> 0 limit is (2n + alpha)/N; cross-check at s = 1e-8
        with mp.workdps(60):
            lim = coulomb_b_squared(5, WeightParams(0, "1.5", 2))
            assert abs(lim - mpf("11.5") / 2) < mpf(10) ** -45
            near = coulomb_b_squared(5, WeightParams("1e-8", "1.5", 2))
            assert abs(near - lim) < mpf("1e-6")

    def test_beta_close_to_quarter_endpoint(self):
        # beta_n ~ b^2/4 in the large-N regime
        with mp.workdps(60):
            n = 200
            params = WeightParams("0.5", "1", n)
            b2 = coulomb_b_squared(n, params)
            beta = beta_double_scaling(n, n, mpf("0.5"), mpf(1))
            assert abs(4 * beta / b2 - 1) < mpf("0.01")

    def test_mrs_example(self):
        # mu = 3/2, s = 1, N = 1 -> a = 1
        with mp.workdps(60):
            got = mrs_number(mpf("1.5"), WeightParams(1, 0, 1))
            assert abs(got - 1) < mpf(10) ** -45

    def test_mrs_gaussian_degeneration(self):
        with mp.workdps(60):
            got = mrs_number(5, WeightParams(0, 0, 2))
            assert abs(got - sqrt(mpf("2.5"))) < mpf(10) ** -45

    def test_endpoint_consistency(self):
        # a_mu at mu = 2n + alpha squares to b^2 exactly
        with mp.workdps(60):
            fe = fluid_endpoint(17, WeightParams("0.75", "2.5", 3))
            assert abs(fe.a_mu ** 2 - fe.b_squared) < mpf(10) ** -40

    def test_quarter_ratio(self):
        # |beta_n / a_mu^2 - 1/4| < 2/n at n in {100, 200}
        with mp.workdps(60):
            for n in (100, 200):
                for s, al in (("0.5", "1.5"), ("1", "0")):
                    params = WeightParams(s, al, 1)
                    beta = beta_large_n(n, params)
                    fe = fluid_endpoint(n, params)
                    assert abs(beta / fe.a_mu ** 2 - mpf(1) / 4) < mpf(2) / n


class TestRegimeConsistency:
    def test_double_vs_largen(self):
        # at fixed s and growing N (n = rN), the two expansions approach each
        # other at first order in 1/N, measured by doubling N
        with mp.workdps(70):
            devs = []
            for n in (64, 128):
                params = WeightParams("0.5", "1", n)
                a = beta_large_n(n, params)
                b = beta_double_scaling(n, n, mpf("0.5"), mpf(1))
                devs.append(abs(a - b) / b)
            assert devs[1] < devs[0]


class TestOddDisplayReport:
    def test_odd_series_prefactor_discrepancy_reported(self):
        """The displayed odd-n series carries prefactor n/2 where the closed
        form at s = 0 requires (n + alpha)/(2N); the implementation follows
        the latter.  Report the discrepancy and confirm the implementation
        side against the oracle."""
        ctx = NumericContext(digits=80)
        n, al = 7, mpf("1.25")
        params = WeightParams("0.001", "1.25", 1)
        with mp.workdps(90):
            impl = beta_small_s(n, params)
            exact = beta_from_moments(params, n, ctx)[n]
            # displayed odd prefactor: n/2 * {1/N + ...} i.e. n/(2N) instead
            # of (n + alpha)/(2N); rescale the implemented series accordingly
            displayed_prefactor_value = impl * n / (n + al)
            print(f"odd-display report: implementation {mp.nstr(impl, 12)}, "
                  f"displayed-prefactor variant {mp.nstr(displayed_prefactor_value, 12)}, "
                  f"oracle {mp.nstr(exact, 12)}")
            assert abs(impl - exact) < abs(displayed_prefactor_value - exact)
            assert abs(impl - exact) < mpf("1e-4")
