from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpmathify, gamma, sqrt

from dfreud import (NumericContext, WeightParams, DomainError, beta_at_s0,
                    beta1_initial, beta_from_moments, dpi_forward, dpi_residual,
                    beta_prime, beta_second, ode25_residual, upper_bound,
                    sensitivity_run, central_difference, small_s_coefficients)


class TestBetaAtS0:
    def test_examples(self):
        assert beta_at_s0(4, 0, 1) == Fraction(2)
        assert beta_at_s0(3, 2, 1) == Fraction(5, 2)
        assert beta_at_s0(0, "2.7", 5) == 0

    def test_parity(self):
        assert beta_at_s0(6, "1.5", 1) == Fraction(3)            # even: no alpha
        assert beta_at_s0(7, "1.5", 1) == Fraction(17, 4)        # odd: (7+1.5)/2


class TestParityConstants:
    # p_n = n + alpha (2 - 3 Delta_n) and sqrt(q_n) = n + alpha Delta_n, read back
    # from the small-s series at N = 1: prefactor sqrt(q_n)/2, c1 = 1 - p_n - 2 sqrt(q_n)
    def test_branches(self):
        with mp.workdps(60):
            even = small_s_coefficients(4, WeightParams(0, 2, 1))     # p = 8, q = 16
            assert even.prefactor == 2 and even.c[1] == 1 - 8 - 2 * 4
            odd = small_s_coefficients(5, WeightParams(0, 2, 1))      # p = 3, q = 49
            assert odd.prefactor == mpf(7) / 2 and odd.c[1] == 1 - 3 - 2 * 7

    def test_alpha_zero_parity_free(self):
        with mp.workdps(60):
            for n in (4, 5):
                data = small_s_coefficients(n, WeightParams(0, 0, 1))  # p = n, q = n^2
                assert data.prefactor == mpf(n) / 2 and data.c[1] == 1 - 3 * n


class TestBeta1Initial:
    def test_gaussian(self, ctx60):
        with mp.workdps(70):
            got = beta1_initial(WeightParams(0, "1.5", 2), ctx60)
            assert abs(got - mpf("2.5") / 4) < mpf(10) ** -55

    def test_pure_freud(self, ctx60):
        # s=1, alpha=0, N=1: beta_1 = Gamma(3/4)/Gamma(1/4) = 0.337989...
        with mp.workdps(70):
            got = beta1_initial(WeightParams(1, 0, 1), ctx60)
            want = gamma(mpf(3) / 4) / gamma(mpf(1) / 4)
            assert abs(got - want) < mpf(10) ** -50
            assert abs(got - mpf("0.337989")) < mpf("1e-6")

    def test_matches_hankel_route(self, ctx60):
        params = WeightParams("0.5", "2", 1)
        with mp.workdps(80):
            seq = beta_from_moments(params, 1, ctx60)
            assert abs(beta1_initial(params, ctx60) - seq[1]) < mpf(10) ** -30


class TestDpiForward:
    def test_one_hand_step(self, ctx60):
        # at n=1, beta_0=0, s=1, alpha=0, N=1 the string equation gives
        # beta_2 = 1/(4 beta_1) - beta_1; cross-checked against the moment route.
        params = WeightParams(1, 0, 1)
        with mp.workdps(70):
            b1 = beta1_initial(params, ctx60)
            hand = 1 / (4 * b1) - b1
            seq = dpi_forward(params, b1, 2, ctx60)
            assert abs(seq[2] - hand) < mpf(10) ** -50
            oracle = beta_from_moments(params, 2, ctx60)
            assert abs(seq[2] - oracle[2]) < mpf(10) ** -45
            assert abs(hand - mpf("0.4016797")) < mpf("1e-6")

    def test_s0_rejected(self, ctx60):
        with pytest.raises(DomainError):
            dpi_forward(WeightParams(0, 0, 1), mpf("0.5"), 5, ctx60)

    def test_matches_hankel(self):
        ctx = NumericContext(digits=150)
        params = WeightParams("0.5", "1.5", 1)
        with mp.workdps(170):
            ref = beta_from_moments(params, 30, ctx)
            seq = dpi_forward(params, beta1_initial(params, ctx), 30, ctx)
            worst = max(abs(seq[n] - ref[n]) / ref[n] for n in range(1, 31))
            assert worst < mpf(10) ** -50
            assert seq.failure_index is None

    def test_failure_recorded(self, ctx60):
        params = WeightParams("0.5", "3", 1)
        with mp.workdps(70):
            b1 = beta1_initial(params, ctx60) + mpf("0.1")
            seq = dpi_forward(params, b1, 50, ctx60)
            assert seq.failure_index is not None
            assert seq.betas[seq.failure_index] <= 0


class TestDpiResidual:
    def test_hankel_betas_satisfy(self, ctx100):
        params = WeightParams("0.5", "1.5", 1)
        seq = beta_from_moments(params, 25, ctx100)
        with mp.workdps(seq.digits_used):
            res = dpi_residual(seq, params)
            assert max(abs(r) for r in res) < mpf(10) ** -40

    def test_perturbation_visible(self, ctx60):
        params = WeightParams("0.5", "1.5", 1)
        seq = beta_from_moments(params, 8, ctx60)
        with mp.workdps(70):
            bumped = list(seq.betas)
            bumped[4] += mpf("1e-5")
            res = dpi_residual(bumped, params)
            # the residual is linear in the perturbed slot
            assert mpf("1e-7") < max(abs(r) for r in res) < mpf("1e-3")

    def test_s0_closed_form_exact(self):
        params = WeightParams(0, 1, 1)
        with mp.workdps(60):
            betas = [mpf(beta_at_s0(n, 1, 1).numerator)
                     / beta_at_s0(n, 1, 1).denominator if n else mp.zero
                     for n in range(8)]
            res = dpi_residual(betas, params)
            assert max(abs(r) for r in res) < mpf(10) ** -55


class TestBetaPrime:
    def test_fd_oracle(self):
        # (s=1/2, alpha=1, N=1, n=5): analytic vs central difference at digits=80
        ctx = NumericContext(digits=80)
        params = WeightParams("0.5", 1, 1)
        betas = beta_from_moments(params, 6, ctx)
        with mp.workdps(100):
            analytic = beta_prime(5, betas, params)

            def beta5(sv):
                return beta_from_moments(WeightParams(sv, 1, 1), 6, ctx)[5]

            fd = central_difference(beta5, mpf("0.5"), 1, ctx)
            assert abs(analytic - fd) < mpf(10) ** -25

    def test_n1_uses_beta0_zero(self, ctx60):
        params = WeightParams("0.5", 1, 1)
        betas = beta_from_moments(params, 2, ctx60)
        with mp.workdps(betas.digits_used):
            s, a, N = params.mpfs()
            direct = betas[1] / (2 * s) * (N * (s + 1) * betas[2] - 1)
        with mp.workdps(70):
            assert beta_prime(1, betas, params) == direct

    def test_s0_rejected(self, ctx60):
        with pytest.raises(DomainError):
            beta_prime(1, [mp.zero, mp.one, mp.one], WeightParams(0, 0, 1))


class TestOde25:
    def test_residual_small(self):
        # (n=6, s=1/2, alpha=1, N=1) at digits=100: pure round-off
        ctx = NumericContext(digits=100)
        res = ode25_residual(6, WeightParams("0.5", 1, 1), ctx)
        with mp.workdps(40):
            assert abs(res) < mpf(10) ** -20

    def test_odd_parity_branch(self):
        ctx = NumericContext(digits=100)
        res = ode25_residual(7, WeightParams("0.5", 1, 1), ctx)
        with mp.workdps(40):
            assert abs(res) < mpf(10) ** -20

    def test_swapped_parity_detected(self):
        # evaluating the even-n equation with odd-n constants must fail loudly
        ctx = NumericContext(digits=60)
        params = WeightParams("0.5", 1, 1)
        betas = beta_from_moments(params, 8, ctx)
        n = 6
        with mp.workdps(betas.digits_used):
            s, a, N = params.mpfs()
            pn, qn = 7 - a, (7 + a) ** 2  # p_7 and q_7: the wrong branch for n = 6
            bn = betas[n]
            bp = beta_prime(n, betas, params)
            bpp = beta_second(n, betas, params)
            rhs = (bp ** 2 / (2 * bn) - (2 + s) / (s * (1 + s)) * bp
                   + 3 * N ** 2 * (1 + s) ** 2 / (8 * s ** 2) * bn ** 3
                   + N ** 2 * (1 + s) ** 2 * (1 - s) / (4 * s ** 3) * bn ** 2
                   + ((N ** 2 * (1 - s) ** 2 * (1 + s) ** 3 - 4 * s ** 2 * (3 - s))
                      / (32 * s ** 4 * (1 + s))
                      + N * (1 + s) ** 2 / (16 * s ** 3) * pn) * bn
                   - (1 + s) ** 2 * qn / (128 * s ** 4 * bn))
            assert abs(bpp - rhs) > mpf(10) ** -5


class TestUpperBound:
    def test_freud_point(self, ctx60):
        # (n=4, s=1, alpha=0, N=1): bound = sqrt(4/4) = 1
        with mp.workdps(70):
            assert abs(upper_bound(4, WeightParams(1, 0, 1), ctx60) - 1) < mpf(10) ** -55

    def test_dominates_hankel(self, ctx60):
        for s, a in (("0.25", "0"), ("0.5", "1.5"), ("1", "3")):
            params = WeightParams(s, a, 1)
            seq = beta_from_moments(params, 30, ctx60)
            with mp.workdps(70):
                for n in range(1, 31):
                    assert seq[n] < upper_bound(n, params, ctx60)

    @pytest.mark.parametrize("s", [Fraction(1, 10 ** 10), Fraction(1, 10 ** 20)])
    def test_free_of_cancellation_at_small_s(self, s):
        # -half + sqrt(half^2 + l) cancels as s -> 0; the bound keeps every digit
        ctx = NumericContext(digits=30)
        params = WeightParams(s, "3/2", 2)
        for n in (1, 2, 7):
            with mp.workdps(200):
                s_, a, N = params.mpfs()
                half = (1 - s_) / (4 * s_)
                want = -half + sqrt(half * half + (n + a * (n % 2)) / (4 * N * s_))
                assert abs(upper_bound(n, params, ctx) - want) <= mpf(10) ** -ctx.digits * want

    def test_monotone_in_n(self, ctx60):
        params = WeightParams("0.5", "1", 1)
        with mp.workdps(70):
            vals = [upper_bound(n, params, ctx60) for n in range(2, 30, 2)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_boundedness_normalised(self, ctx60):
        # beta_n / sqrt(n) < 1/(2 sqrt(3 N s)) + 1 for all computed n
        params = WeightParams("0.5", "3", 1)
        seq = beta_from_moments(params, 30, ctx60)
        with mp.workdps(70):
            s, a, N = params.mpfs()
            cap = 1 / (2 * sqrt(3 * N * s)) + 1
            assert all(seq[n] / sqrt(mpf(n)) < cap for n in range(1, 31))


class TestSensitivity:
    def test_unperturbed_survives(self):
        ctx = NumericContext(digits=200)
        run = sensitivity_run(WeightParams("0.5", 3, 1), 0, 60, ctx)
        assert run.first_failure_index is None
        assert len(run.trajectory) == 61

    def test_perturbed_fails_finite(self):
        ctx = NumericContext(digits=200)
        run = sensitivity_run(WeightParams("0.5", 3, 1), "1e-3", 60, ctx)
        assert run.first_failure_index is not None

    def test_larger_eps_fails_no_later(self):
        ctx = NumericContext(digits=200)
        idx = [sensitivity_run(WeightParams("0.5", 3, 1), e, 60, ctx).first_failure_index
               for e in ("1e-1", "1e-3", "1e-5")]
        assert all(i is not None for i in idx)
        assert idx[0] <= idx[1] <= idx[2]

    def test_negative_start_fails_at_once(self):
        # beta_1 - 10 < 0: the run stops at its first index, before any step
        run = sensitivity_run(WeightParams("0.5", 3, 1), "-10", 5)
        assert run.first_failure_index == 1
        assert len(run.trajectory) == 2


class TestMonotonicityStructure:
    """The positive solution increases within each parity class; the full
    sequence alternates once alpha exceeds 1 (visible already at s -> 0,
    where beta_n = (n + alpha Delta_n)/(2N)).  Within-parity monotonicity is
    asserted for alpha >= 0; for -1 < alpha < 0 violations are reported, not
    asserted."""

    def test_within_parity_increase_alpha_nonneg(self, ctx60):
        for s, a in (("0.25", "0"), ("0.5", "1.5"), ("1", "3")):
            seq = beta_from_moments(WeightParams(s, a, 1), 20, ctx60)
            with mp.workdps(60):
                assert all(seq[n + 2] > seq[n] for n in range(1, 18))

    def test_negative_alpha_reported(self, ctx60):
        seq = beta_from_moments(WeightParams("0.5", "-0.5", 1), 20, ctx60)
        with mp.workdps(60):
            assert all(b > 0 for b in seq.betas[1:])
            parity_violations = [n for n in range(1, 18) if seq[n + 2] <= seq[n]]
            full_violations = [n for n in range(1, 19) if seq[n + 1] <= seq[n]]
            print(f"monotonicity report (alpha=-1/2): within-parity violations "
                  f"{parity_violations}, full-sequence violations at "
                  f"{len(full_violations)} indices")
