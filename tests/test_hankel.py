import pytest
from mpmath import mp, mpf, mpmathify, sqrt, pi, log, gamma

from dfreud import (NumericContext, WeightParams, DomainError, h_sequence,
                    beta_from_moments, mehta_normand_logD0, mu0_gaussian,
                    beta_at_s0, beta1_initial, dpi_forward, moment_table)
from conftest import assert_close
from oracles import per_entry_table


class TestHSequence:
    def test_order_one_is_mu0(self, ctx60):
        params = WeightParams("0.5", "1", 2)
        data = h_sequence(params, 1, ctx60)
        from dfreud import mu0_closed_form
        with mp.workdps(70):
            assert abs(data.h[0] - mu0_closed_form(params, ctx60)) < mpf(10) ** -55

    def test_gaussian_d2(self, ctx60):
        # D_2(0) = mu_0 mu_2 - mu_1^2 = pi/2 at (alpha, N) = (0, 1)
        data = h_sequence(WeightParams(0, 0, 1), 2, ctx60)
        with mp.workdps(70):
            assert_close(data.logdet, log(pi / 2), mpf(10) ** -55, dps=70)

    def test_gaussian_d3(self, ctx60):
        # 3x3 determinant with mu_0 = sqrt(pi), mu_2 = sqrt(pi)/2, mu_4 = 3 sqrt(pi)/4
        data = h_sequence(WeightParams(0, 0, 1), 3, ctx60)
        with mp.workdps(70):
            assert_close(data.logdet, log(pi ** mpf(1.5) / 4), mpf(10) ** -55, dps=70)

    def test_pivots_positive(self, ctx60):
        data = h_sequence(WeightParams("1", "2.5", 1), 20, ctx60)
        assert all(h > 0 for h in data.h)

    def test_logdet_is_pivot_sum(self, ctx60):
        data = h_sequence(WeightParams("0.5", 0, 1), 6, ctx60)
        with mp.workdps(data.digits_used):
            assert abs(data.logdet - mp.fsum(log(h) for h in data.h)) < mpf(10) ** -50


class TestBetaFromMoments:
    def test_beta1_is_moment_ratio(self, ctx60):
        params = WeightParams("0.5", "1", 1)
        from dfreud import mu0_closed_form
        seq = beta_from_moments(params, 1, ctx60)
        with mp.workdps(80):
            ratio = (mu0_closed_form(params.shifted(2), ctx60)
                     / mu0_closed_form(params, ctx60))
            assert abs(seq[1] - ratio) < mpf(10) ** -50

    def test_hermite_halves(self, ctx60):
        # s=0, alpha=0, N=1: beta_n = n/2
        seq = beta_from_moments(WeightParams(0, 0, 1), 10, ctx60)
        with mp.workdps(70):
            for n in range(1, 11):
                assert abs(seq[n] - mpf(n) / 2) < mpf(10) ** -55

    def test_gaussian_alpha2(self, ctx60):
        # (s=0, alpha=2, N=1): beta_3 = (3 + 2)/2 = 2.5
        seq = beta_from_moments(WeightParams(0, 2, 1), 3, ctx60)
        with mp.workdps(70):
            assert abs(seq[3] - mpf("2.5")) < mpf(10) ** -55

    def test_gaussian_closure_grid(self, ctx60):
        # matches (n + alpha Delta_n)/(2N) to 10^{-digits+15} for n <= 20
        for alpha, big_n in (("0", 1), ("1", 3), ("2.5", 1)):
            seq = beta_from_moments(WeightParams(0, alpha, big_n), 20, ctx60)
            with mp.workdps(80):
                for n in range(1, 21):
                    exact = beta_at_s0(n, seq.params.alpha, seq.params.big_n)
                    val = mpf(exact.numerator) / exact.denominator
                    assert abs(seq[n] - val) < mpf(10) ** (-60 + 15)

    def test_positivity_route_field(self, ctx60):
        seq = beta_from_moments(WeightParams("0.25", "3", 1), 15, ctx60)
        assert seq.route == "hankel"
        assert all(b > 0 for b in seq.betas[1:])
        assert seq.hs is not None and len(seq.hs) == 16

    @pytest.mark.parametrize("s", ["1/1000", "5/1000"])
    def test_small_s_recurrence_guard(self, s, ctx100):
        # The moment recurrence cancels 25-35 digits here.  Its guard keeps the
        # table at 10^-digits, and the first Hankel attempt (100 + 20 + 2 * 15
        # digits) passes its self-check without escalating.
        params, n = WeightParams(s, 0, 8), 14
        table = moment_table(params, 2 * n, ctx100)
        oracle = per_entry_table(params, 2 * n, ctx100)
        with mp.workdps(110):
            for got, want in zip(table.values[::2], oracle.values[::2]):
                assert abs(got - want) <= mpf(10) ** -100 * want
        seq = beta_from_moments(params, n, ctx100)
        assert seq.digits_used == 150
        ref_ctx = NumericContext(digits=100 + 2 * n + 40)
        ref = dpi_forward(params, beta1_initial(params, ref_ctx), n, ref_ctx)
        with mp.workdps(ref_ctx.digits):
            for j in range(1, n + 1):
                assert abs(seq[j] - ref[j]) <= mpf(10) ** -100 * ref[j]

    def test_rejects_bad_order(self, ctx60):
        with pytest.raises(DomainError):
            beta_from_moments(WeightParams("0.5", 0, 1), 0, ctx60)


class TestMehtaNormand:
    def test_n1_equals_mu0(self, ctx60):
        with mp.workdps(80):
            for a, n in (("0", 1), ("1.5", 2)):
                got = mehta_normand_logD0(1, mpmathify(a), mpmathify(n), ctx60)
                want = log(mu0_gaussian(mpmathify(a), mpmathify(n), ctx60))
                assert abs(got - want) < mpf(10) ** -55

    def test_n2_alpha0(self, ctx60):
        with mp.workdps(80):
            assert_close(mehta_normand_logD0(2, 0, 1, ctx60), log(pi / 2),
                         mpf(10) ** -55, dps=80)

    def test_n3_alpha0(self, ctx60):
        with mp.workdps(80):
            assert_close(mehta_normand_logD0(3, 0, 1, ctx60),
                         log(pi ** mpf(1.5) / 4), mpf(10) ** -55, dps=80)

    def test_route_agreement(self, ctx60):
        # |log D_n(0) from pivots - closed form| < 10^{-digits/2}, n <= 20
        for alpha in ("0", "1", "2.5"):
            for big_n in (1, 3):
                data = h_sequence(WeightParams(0, alpha, big_n), 20, ctx60)
                with mp.workdps(80):
                    closed = mehta_normand_logD0(20, mpmathify(alpha), big_n, ctx60)
                    assert abs(data.logdet - closed) < mpf(10) ** -30
