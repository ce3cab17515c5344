import pytest
from mpmath import mp, mpf, mpmathify, sqrt, pi, gamma, exp

from dfreud import (NumericContext, WeightParams, DomainError, mu0_quadrature,
                    mu0_closed_form, mu0_gaussian, parabolic_cylinder_D, moment_table)
from conftest import assert_close
from oracles import parabolic_cylinder_D_integral


class TestWeightParams:
    def test_exact_storage(self):
        p = WeightParams("0.1", "2.5", 4)
        from fractions import Fraction
        assert p.s == Fraction(1, 10) and p.alpha == Fraction(5, 2)

    @pytest.mark.parametrize("bad", [("1.5", 0, 1), (0, "-1", 1), (0, 0, 0),
                                     ("-0.1", 0, 1)])
    def test_invalid(self, bad):
        with pytest.raises(DomainError):
            WeightParams(*bad)


class TestMu0Quadrature:
    def test_gauss(self, ctx60):
        with mp.workdps(70):
            val = mu0_quadrature(WeightParams(0, 0, 1), ctx60)
            assert_close(val, sqrt(pi), mpf(10) ** -48, dps=70)

    def test_gaussian_closed_form_any_alpha(self, ctx60):
        # s = 0: mu_0 = N^{-(a+1)/2} Gamma((a+1)/2)
        with mp.workdps(70):
            for a, n in (("0.5", 2), ("2.7", "0.5"), ("-0.5", 4)):
                got = mu0_quadrature(WeightParams(0, a, n), ctx60)
                av, nv = mpmathify(a), mpmathify(n)
                want = nv ** (-(av + 1) / 2) * gamma((av + 1) / 2)
                assert abs(got - want) / want < mpf(10) ** -48

    def test_pure_freud(self):
        # s=1, a=0, N=1: independent quadrature of e^{-x^4} at doubled digits
        ctx = NumericContext(digits=60)
        with mp.workdps(130):
            from dfreud import integrate_semi_infinite
            oracle = 2 * integrate_semi_infinite(lambda x: exp(-x ** 4),
                                                 NumericContext(digits=120))
            got = mu0_quadrature(WeightParams(1, 0, 1), ctx)
            assert abs(got - oracle) < mpf(10) ** -48
            # known value Gamma(1/4)/2 = 1.81280...
            assert abs(got - gamma(mpf(1) / 4) / 2) < mpf(10) ** -48


class TestParabolicCylinder:
    def test_d_minus_one_at_zero(self, ctx60):
        # D_{-1}(0) = sqrt(pi/2): half-Gaussian over Gamma(1)
        with mp.workdps(70):
            assert_close(parabolic_cylinder_D(-1, 0, ctx60), sqrt(pi / 2),
                         mpf(10) ** -48, dps=70)

    def test_integral_representation_oracle(self):
        # D_{-1}(5) against the direct integral at doubled digits
        ctx = NumericContext(digits=60)
        oracle_ctx = NumericContext(digits=120)
        with mp.workdps(130):
            got = parabolic_cylinder_D(-1, 5, ctx)
            oracle = parabolic_cylinder_D_integral(-1, 5, oracle_ctx)
            assert abs(got - oracle) / abs(oracle) < mpf(10) ** -48

    @pytest.mark.parametrize("nu,z", [("-0.5", "0.3"), ("-16.25", "2"),
                                      ("-31.5", "7.5")])
    def test_oracle_across_range(self, nu, z, ctx60):
        with mp.workdps(80):
            got = parabolic_cylinder_D(mpmathify(nu), mpmathify(z), ctx60)
            oracle = parabolic_cylinder_D_integral(mpmathify(nu), mpmathify(z),
                                                   NumericContext(digits=70))
            assert abs(got - oracle) / abs(oracle) < mpf(10) ** -45

    def test_domain(self, ctx60):
        with pytest.raises(DomainError):
            parabolic_cylinder_D(0, 1, ctx60)
        with pytest.raises(DomainError):
            parabolic_cylinder_D_integral(0.5, 1, ctx60)


class TestMu0ClosedForm:
    def test_s_zero_rejected(self, ctx60):
        with pytest.raises(DomainError):
            mu0_closed_form(WeightParams(0, 1, 1), ctx60)

    @pytest.mark.parametrize("s,a,n", [("0.5", "1", 2), ("0.5", "0", 1)])
    def test_against_quadrature(self, s, a, n):
        ctx = NumericContext(digits=60)
        with mp.workdps(80):
            closed = mu0_closed_form(WeightParams(s, a, n), ctx)
            quadr = mu0_quadrature(WeightParams(s, a, n), ctx)
            assert abs(closed - quadr) < mpf(10) ** -40

    def test_grid_agreement(self):
        # closed form vs quadrature to 10^{-digits/2} over the standard grid
        ctx = NumericContext(digits=60)
        with mp.workdps(80):
            for s in ("0.1", "0.5", "1"):
                for a in ("-0.5", "0", "2.7"):
                    for n in ("0.5", "1", "4"):
                        params = WeightParams(s, a, n)
                        closed = mu0_closed_form(params, ctx)
                        quadr = mu0_quadrature(params, ctx)
                        assert abs(closed - quadr) / closed < mpf(10) ** -30


class TestMomentTable:
    def test_odd_exactly_zero(self, ctx60):
        table = moment_table(WeightParams("0.5", "1.5", 2), 9, ctx60)
        assert all(table.mu(j) == 0 for j in (1, 3, 5, 7, 9))

    def test_shift_identity(self, ctx60):
        # mu_2(s, a, N) = mu_0(s, a+2, N)
        params = WeightParams("0.5", "1", 1)
        with mp.workdps(70):
            table = moment_table(params, 4, ctx60)
            direct = mu0_closed_form(params.shifted(2), ctx60)
            assert table.mu(2) == direct

    def test_gaussian_second_moment(self, ctx60):
        with mp.workdps(70):
            table = moment_table(WeightParams(0, 0, 1), 2, ctx60)
            assert_close(table.mu(2), sqrt(pi) / 2, mpf(10) ** -48, dps=70)

    def test_positivity(self, ctx60):
        table = moment_table(WeightParams("0.25", "-0.5", "0.5"), 12, ctx60)
        assert all(table.mu(2 * k) > 0 for k in range(7))

    def test_quadrature_source(self, ctx60):
        table = moment_table(WeightParams("0.5", 1, 1), 4, ctx60,
                             source="quadrature")
        ref = moment_table(WeightParams("0.5", 1, 1), 4, ctx60)
        with mp.workdps(70):
            assert abs(table.mu(4) - ref.mu(4)) / ref.mu(4) < mpf(10) ** -40

    def test_rescaling_spot_check(self):
        # substituting x -> c x maps (s, N) to (s', N') with
        # N' = N c^2 (1 - s) + N s c^4 and s' = N s c^4 / N', and multiplies
        # mu_0 by c^{alpha+1}.  One numeric spot check with c = 2.
        ctx = NumericContext(digits=60)
        with mp.workdps(80):
            from fractions import Fraction
            s, a, N, c = Fraction(1, 2), Fraction(1), Fraction(1), Fraction(2)
            Np = N * c ** 2 * (1 - s) + N * s * c ** 4
            sp = N * s * c ** 4 / Np
            lhs = mu0_closed_form(WeightParams(s, a, N), ctx)
            rhs = mpf(c.numerator) ** 2 * mu0_closed_form(WeightParams(sp, a, Np), ctx)
            assert abs(lhs - rhs) / lhs < mpf(10) ** -45
