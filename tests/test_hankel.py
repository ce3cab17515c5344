import pytest
from mpmath import mp, mpf, mpmathify, sqrt, pi, log, gamma

from dfreud import hankel
from dfreud import (NumericContext, WeightParams, DomainError, PrecisionExhaustedError,
                    h_sequence, logdet,
                    beta_from_moments, mehta_normand_logD0, mu0,
                    beta_at_s0, beta1_initial, dpi_forward, moment_table)
from conftest import assert_close
from oracles import per_entry_table


class TestHSequence:
    def test_order_one_is_mu0(self, ctx60):
        params = WeightParams("0.5", "1", 2)
        data = h_sequence(params, 1, ctx60)
        with mp.workdps(70):
            assert abs(data.hs[0] - mu0(params, ctx60)) < mpf(10) ** -55

    def test_gaussian_d2(self, ctx60):
        # D_2(0) = mu_0 mu_2 - mu_1^2 = pi/2 at (alpha, N) = (0, 1)
        with mp.workdps(70):
            assert_close(logdet(WeightParams(0, 0, 1), 2, ctx60), log(pi / 2),
                         mpf(10) ** -55, dps=70)

    def test_gaussian_d3(self, ctx60):
        # 3x3 determinant with mu_0 = sqrt(pi), mu_2 = sqrt(pi)/2, mu_4 = 3 sqrt(pi)/4
        with mp.workdps(70):
            assert_close(logdet(WeightParams(0, 0, 1), 3, ctx60), log(pi ** mpf(1.5) / 4),
                         mpf(10) ** -55, dps=70)

    def test_pivots_positive(self, ctx60):
        data = h_sequence(WeightParams("1", "2.5", 1), 20, ctx60)
        assert all(h > 0 for h in data.hs)

    def test_logdet_is_pivot_sum(self, ctx60):
        params = WeightParams("0.5", 0, 1)
        data = h_sequence(params, 6, ctx60)
        with mp.workdps(data.digits_used):
            pivot_sum = mp.fsum(log(h) for h in data.hs)
            assert abs(logdet(params, 6, ctx60) - pivot_sum) < mpf(10) ** -50


class TestBetaFromMoments:
    def test_beta1_is_moment_ratio(self, ctx60):
        params = WeightParams("0.5", "1", 1)
        seq = beta_from_moments(params, 1, ctx60)
        with mp.workdps(80):
            ratio = (mu0(params.shifted(2), ctx60)
                     / mu0(params, ctx60))
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
        # Run forward, the moment recurrence cancels 25-35 digits here; run
        # downward from its top two entries it cancels none and keeps the table
        # at 10^-digits, and the first Hankel attempt (100 + 20 + 2 * 15 digits)
        # passes its self-check without escalating.
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


class TestEscalation:
    """A failed first attempt doubles the working precision, up to the cap."""

    @staticmethod
    def _fail_first_primary(monkeypatch):
        # h_sequence runs the +40-digit check first, then the primary attempt
        real, calls = hankel._attempt_pivots, []

        def attempt(params, n, work):
            calls.append(work)
            return None if len(calls) == 2 else real(params, n, work)

        monkeypatch.setattr(hankel, "_attempt_pivots", attempt)
        return calls

    def test_doubles_and_keeps_every_digit(self, ctx60, monkeypatch):
        params = WeightParams("0.5", "1.5", 2)
        plain = h_sequence(params, 12, ctx60)
        calls = self._fail_first_primary(monkeypatch)
        forced = h_sequence(params, 12, ctx60)
        work = plain.digits_used
        assert calls == [work + 40, work, 2 * work + 40, 2 * work]
        assert forced.digits_used == 2 * work
        assert forced[0] == 0
        with mp.workdps(work):
            for a, b in zip(forced.betas[1:], plain.betas[1:], strict=True):
                assert abs(a - b) <= abs(b) * mpf(10) ** -ctx60.digits

    def test_cap_below_the_doubled_precision(self, ctx60, monkeypatch):
        work = ctx60.digits + 20 + 2 * 12      # the first attempt's precision
        monkeypatch.setenv("DFREUD_MAX_DIGITS", str(3 * work // 2))
        calls = self._fail_first_primary(monkeypatch)
        with pytest.raises(PrecisionExhaustedError):
            h_sequence(WeightParams("0.5", "1.5", 2), 12, ctx60)
        assert calls == [work + 40, work]


class TestMehtaNormand:
    def test_n1_equals_mu0(self, ctx60):
        with mp.workdps(80):
            for a, n in (("0", 1), ("1.5", 2)):
                got = mehta_normand_logD0(1, mpmathify(a), mpmathify(n), ctx60)
                want = log(mu0(WeightParams(0, a, n), ctx60))
                assert abs(got - want) < mpf(10) ** -55

    def test_n2_alpha0(self, ctx60):
        with mp.workdps(80):
            assert_close(mehta_normand_logD0(2, 0, 1, ctx60), log(pi / 2),
                         mpf(10) ** -55, dps=80)

    def test_n3_alpha0(self, ctx60):
        with mp.workdps(80):
            assert_close(mehta_normand_logD0(3, 0, 1, ctx60),
                         log(pi ** mpf(1.5) / 4), mpf(10) ** -55, dps=80)

    @pytest.mark.parametrize("alpha, big_n, match", [
        ("-1.5", 1, "alpha"),           # returned 3.6888...
        (-1, 1, "alpha"),               # raised ValueError("gamma function pole")
        (-3, 1, "alpha"),               # raised ValueError("gamma function pole")
        (0, -2, "N must be positive"),  # returned a complex number
        (0, 0, "N must be positive"),   # returned nan
    ])
    def test_outside_the_weight_domain(self, ctx60, alpha, big_n, match):
        with pytest.raises(DomainError, match=match):
            mehta_normand_logD0(6, alpha, big_n, ctx60)

    def test_route_agreement(self, ctx60):
        # |log D_n(0) from pivots - closed form| < 10^{-digits/2}, n <= 20
        for alpha in ("0", "1", "2.5"):
            for big_n in (1, 3):
                pivots = logdet(WeightParams(0, alpha, big_n), 20, ctx60)
                with mp.workdps(80):
                    closed = mehta_normand_logD0(20, mpmathify(alpha), big_n, ctx60)
                    assert abs(pivots - closed) < mpf(10) ** -30
