import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpmathify, sqrt, pi, gamma

from dfreud import (NumericContext, WeightParams, DomainError, mu0,
                    moment_table, exp_exp_moments, moments)
from dfreud.numerics import fraction_to_mpf
from conftest import assert_close
from oracles import parabolic_cylinder_D_integral


class TestWeightParams:
    def test_exact_storage(self):
        p = WeightParams("0.1", "2.5", 4)
        assert p.s == Fraction(1, 10) and p.alpha == Fraction(5, 2)

    @pytest.mark.parametrize("bad", [("1.5", 0, 1), (0, "-1", 1), (0, 0, 0),
                                     ("-0.1", 0, 1)])
    def test_invalid(self, bad):
        with pytest.raises(DomainError):
            WeightParams(*bad)

    def test_cached_hash_keeps_equality_and_fields(self):
        # the hash is made once and kept on the instance; equal params from any
        # spelling, copied or pickled before or after that, hash and compare equal
        spellings = [WeightParams("1/2", 1, 1), WeightParams(Fraction(1, 2), 1, 1),
                     WeightParams(0.5, 1, 1)]
        want = hash((Fraction(1, 2), Fraction(1), Fraction(1)))
        fresh = WeightParams("1/2", 1, 1)
        copies = [copy.copy(fresh), pickle.loads(pickle.dumps(fresh))]
        hash(fresh)
        fresh.mpfs()
        copies += [copy.copy(fresh), pickle.loads(pickle.dumps(fresh))]
        for p in spellings + copies:
            assert p == spellings[0] and hash(p) == want
            assert repr(p) == "WeightParams(s=Fraction(1, 2), alpha=Fraction(1, 1), big_n=Fraction(1, 1))"
            assert [f.name for f in dataclasses.fields(p)] == ["s", "alpha", "big_n"]
        assert WeightParams("1/2", 2, 1) != spellings[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spellings[0].s = Fraction(1, 3)

        # the per-precision mpf memo travels with a copy or a pickle and still
        # answers at every precision with the bits of a fresh conversion
        inexact = WeightParams("1/3", "0.1", "7/10")
        with mp.workprec(100):
            inexact.mpfs()
        for p in (inexact, copy.copy(inexact), pickle.loads(pickle.dumps(inexact))):
            assert p == inexact and hash(p) == hash((p.s, p.alpha, p.big_n))
            for prec in (100, 200, 100):
                with mp.workprec(prec):
                    assert ([x._mpf_ for x in p.mpfs()]
                            == [fraction_to_mpf(x)._mpf_ for x in (p.s, p.alpha, p.big_n)])


class TestMu0Quadrature:
    def test_gauss(self, ctx60):
        with mp.workdps(70):
            val = moment_table(WeightParams(0, 0, 1), 0, ctx60, source="quadrature").mu(0)
            assert_close(val, sqrt(pi), mpf(10) ** -48, dps=70)

    def test_gaussian_closed_form_any_alpha(self, ctx60):
        # s = 0: mu_0 = N^{-(a+1)/2} Gamma((a+1)/2)
        with mp.workdps(70):
            for a, n in (("0.5", 2), ("2.7", "0.5"), ("-0.5", 4)):
                got = moment_table(WeightParams(0, a, n), 0, ctx60, source="quadrature").mu(0)
                av, nv = mpmathify(a), mpmathify(n)
                want = nv ** (-(av + 1) / 2) * gamma((av + 1) / 2)
                assert abs(got - want) / want < mpf(10) ** -48

    def test_pure_freud(self):
        # s=1, a=0, N=1: e^{-x^4} integrated in x-space (no y = x^2 fold) at doubled digits
        ctx = NumericContext(digits=60)
        with mp.workdps(130):
            oracle = 2 * exp_exp_moments(0, lambda x: x ** 4, 1, NumericContext(digits=120))[0]
            got = moment_table(WeightParams(1, 0, 1), 0, ctx, source="quadrature").mu(0)
            assert abs(got - oracle) < mpf(10) ** -48
            # known value Gamma(1/4)/2 = 1.81280...
            assert abs(got - gamma(mpf(1) / 4) / 2) < mpf(10) ** -48


class TestParabolicCylinder:
    """mpmath's ``pcfd``, as ``mu0`` calls it, against the integral representation."""

    def test_d_minus_one_at_zero(self):
        # D_{-1}(0) = sqrt(pi/2): half-Gaussian over Gamma(1)
        with mp.workdps(70):
            assert_close(moments.pcfd(-1, 0), sqrt(pi / 2), mpf(10) ** -48, dps=70)

    def test_integral_representation_oracle(self):
        # D_{-1}(5) against the direct integral at doubled digits
        oracle_ctx = NumericContext(digits=120)
        with mp.workdps(130):
            got = moments.pcfd(-1, 5)
            oracle = parabolic_cylinder_D_integral(-1, 5, oracle_ctx)
            assert abs(got - oracle) / abs(oracle) < mpf(10) ** -48

    @pytest.mark.parametrize("nu,z", [("-0.5", "0.3"), ("-16.25", "2"),
                                      ("-31.5", "7.5")])
    def test_oracle_across_range(self, nu, z):
        with mp.workdps(80):
            got = moments.pcfd(mpmathify(nu), mpmathify(z))
            oracle = parabolic_cylinder_D_integral(mpmathify(nu), mpmathify(z),
                                                   NumericContext(digits=70))
            assert abs(got - oracle) / abs(oracle) < mpf(10) ** -45

    def test_domain(self, ctx60):
        # the integral representation needs nu < 0
        with pytest.raises(DomainError):
            parabolic_cylinder_D_integral(0.5, 1, ctx60)


class TestMu0ClosedForm:
    @pytest.mark.parametrize("s,a,n", [("0.5", "1", 2), ("0.5", "0", 1)])
    def test_against_quadrature(self, s, a, n):
        ctx = NumericContext(digits=60)
        with mp.workdps(80):
            closed = mu0(WeightParams(s, a, n), ctx)
            quadr = moment_table(WeightParams(s, a, n), 0, ctx, source="quadrature").mu(0)
            assert abs(closed - quadr) < mpf(10) ** -40

    def test_grid_agreement(self):
        # closed form vs quadrature to 10^{-digits/2} over the standard grid
        ctx = NumericContext(digits=60)
        with mp.workdps(80):
            for s in ("0.1", "0.5", "1"):
                for a in ("-0.5", "0", "2.7"):
                    for n in ("0.5", "1", "4"):
                        params = WeightParams(s, a, n)
                        closed = mu0(params, ctx)
                        quadr = moment_table(params, 0, ctx, source="quadrature").mu(0)
                        assert abs(closed - quadr) / closed < mpf(10) ** -30

    @pytest.mark.parametrize("s", ["0", "1/2"])
    @pytest.mark.parametrize("digits", [30, 60])
    def test_ignores_the_ambient_precision(self, s, digits):
        # mu0 converts (s, alpha, N) inside its own block: a caller at mpmath's
        # default 15 digits gets the same value as one at digits + 20
        params, ctx = WeightParams(s, "1/3", "1/3"), NumericContext(digits)
        with mp.workdps(15):
            low = mu0(params, ctx)
        with mp.workdps(digits + 20):
            high = mu0(params, ctx)
            assert abs(low - high) <= mpf(10) ** -digits * high


class TestMomentTable:
    def test_odd_exactly_zero(self, ctx60):
        table = moment_table(WeightParams("0.5", "1.5", 2), 9, ctx60)
        assert all(table.mu(j) == 0 for j in (1, 3, 5, 7, 9))

    def test_shift_identity(self, ctx60):
        # mu_2(s, a, N) = mu_0(s, a+2, N)
        params = WeightParams("0.5", "1", 1)
        with mp.workdps(70):
            table = moment_table(params, 4, ctx60)
            direct = mu0(params.shifted(2), ctx60)
            assert table.mu(2) == direct

    def test_gaussian_second_moment(self, ctx60):
        with mp.workdps(70):
            table = moment_table(WeightParams(0, 0, 1), 2, ctx60)
            assert_close(table.mu(2), sqrt(pi) / 2, mpf(10) ** -48, dps=70)

    def test_positivity(self, ctx60):
        table = moment_table(WeightParams("0.25", "-0.5", "0.5"), 12, ctx60)
        assert all(table.mu(2 * k) > 0 for k in range(7))

    @pytest.mark.parametrize("s,a,n,max_order", [
        ("1/2", "1", "1", 4), ("1/2", "-99/100", "1", 8),
        # mu_0 and mu_40 differ by many orders: the tail must stop on each moment
        ("1/100", "21/10", "5", 40),
        ("0", "-2/5", "1", 6), ("1", "0", "50", 20)])
    def test_quadrature_source(self, s, a, n, max_order, ctx60):
        params = WeightParams(s, a, n)
        table = moment_table(params, max_order, ctx60, source="quadrature")
        ref = moment_table(params, max_order, ctx60)
        with mp.workdps(70):
            for j in range(0, max_order + 1, 2):
                assert abs(table.mu(j) - ref.mu(j)) <= mpf(10) ** -(ctx60.digits - 10) * ref.mu(j), j

    @pytest.mark.parametrize("s,a,n", [
        # mass far left of t = 0, where the centre is negligible before it
        ("1/2", "0", "1000"), ("1/100", "1", "5000"),
        # mass far right of t = 0
        ("9/10", "-1/2", "1/1000")])
    def test_quadrature_source_at_40_digits(self, s, a, n):
        params, ctx = WeightParams(s, a, n), NumericContext(digits=40)
        table = moment_table(params, 8, ctx, source="quadrature")
        ref = moment_table(params, 8, ctx)
        with mp.workdps(50):
            for j in range(0, 9, 2):
                assert abs(table.mu(j) - ref.mu(j)) <= mpf(10) ** -(ctx.digits - 10) * ref.mu(j), j

    @pytest.mark.parametrize("max_order", [0, 2, 4, 80])
    @pytest.mark.parametrize("s", ["0", "1/1000", "1/2", "1"])
    def test_closed_form_seeds_are_the_top_two(self, s, max_order, ctx60, monkeypatch):
        # the table runs downward from mu_{2K} and mu_{2K-2}: no other mu0 call
        params, count = WeightParams(s, "1/2", 2), max_order // 2 + 1
        seeds = []

        def counting_mu0(shifted, ctx):
            seeds.append(shifted.alpha - params.alpha)
            return mu0(shifted, ctx)

        monkeypatch.setattr(moments, "mu0", counting_mu0)
        moment_table(params, max_order, ctx60)
        assert len(seeds) == min(count, 2)
        assert sorted(seeds) == [2 * k for k in range(max(count - 2, 0), count)]

    @pytest.mark.parametrize("max_order, source, match", [
        (2.5, "closed_form", "max_order must be an integer, got 2.5"),
        (3.0, "quadrature", "max_order must be an integer, got 3.0"),
        (-1, "closed_form", "max_order must be >= 0"),
        (3, "quad", "source must be one of .'quadrature', 'closed_form'., got 'quad'")],
        ids=["fractional", "float-quadrature", "negative", "unknown-source"])
    def test_bad_input_rejected(self, max_order, source, match, ctx60):
        # these raised TypeError, or ("quad") returned the closed-form table
        with pytest.raises(DomainError, match=match):
            moment_table(WeightParams("1/2", 1, 1), max_order, ctx60, source=source)

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
            lhs = mu0(WeightParams(s, a, N), ctx)
            rhs = mpf(c.numerator) ** 2 * mu0(WeightParams(sp, a, Np), ctx)
            assert abs(lhs - rhs) / lhs < mpf(10) ** -45
