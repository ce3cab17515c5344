from dataclasses import replace

import pytest
from mpmath import mp, mpf, mpmathify, sqrt, exp, fsum, binomial, factorial

from dfreud import (NumericContext, WeightParams, PoleError, DomainError, BetaSequence,
                    MonicPolynomial, beta_from_moments, beta1_initial, dpi_forward,
                    build_polynomials, eval_poly, ladder_pair, lowering_residual,
                    compatibility_residuals, sum_rule_residual, ode_coefficients,
                    pn_ode_residual, identity_residuals, heun_parameters,
                    heun_operator_residual, orthogonality_check)
from dfreud import polynomials


def _gram_error(gram):
    return max(abs(gram[j][k] - (1 if j == k else 0))
               for j in range(len(gram)) for k in range(len(gram)))


@pytest.fixture(scope="module")
def setup():
    ctx = NumericContext(digits=80)
    params = WeightParams("0.5", "2", 1)
    betas = beta_from_moments(params, 12, ctx)
    polys = build_polynomials(betas, 11)
    return ctx, params, betas, polys


class TestBuild:
    def test_p1_is_z(self, setup):
        _, _, _, polys = setup
        with mp.workdps(80):
            for z in ("0.7", "-2.3", "1e-30"):
                assert eval_poly(polys[1], mpf(z)) == mpf(z)

    def test_p2(self, setup):
        _, _, betas, polys = setup
        with mp.workdps(betas.digits_used):
            for z in ("0.7", "-2.3", "11"):
                assert eval_poly(polys[2], mpf(z)) == mpf(z) ** 2 - betas[1]

    def test_parity_zeros_exact(self, setup):
        # the recurrence never mixes parities, so P_n^(m)(-z) = (-1)^(n+m) P_n^(m)(z)
        # bit for bit, and odd P_n vanish exactly at 0
        _, _, _, polys = setup
        with mp.workdps(80):
            for n in range(11):
                for z in ("0.3", "1.1", "2.7"):
                    for order in (0, 1, 2):
                        assert (eval_poly(polys[n], -mpf(z), order)
                                == (-1) ** (n + order) * eval_poly(polys[n], mpf(z), order))
                if n % 2:
                    assert eval_poly(polys[n], 0) == 0

    def test_root_product_parity(self, setup):
        # P_n(0) P_{n-1}(0) = 0 exactly in coefficient arithmetic
        _, _, _, polys = setup
        for n in range(1, 11):
            assert eval_poly(polys[n], 0) * eval_poly(polys[n - 1], 0) == 0

    def test_monic(self, setup):
        # the n-th forward difference of a degree-n polynomial is n! times its
        # leading coefficient
        _, _, _, polys = setup
        with mp.workdps(80):
            for n in range(1, 11):
                diff = fsum((-1) ** (n - j) * binomial(n, j) * eval_poly(polys[n], j)
                            for j in range(n + 1))
                assert abs(diff / factorial(n) - 1) < mpf(10) ** -60


class TestEval:
    def test_value(self, setup):
        _, _, betas, polys = setup
        with mp.workdps(betas.digits_used):
            assert eval_poly(polys[2], 0) + betas[1] == 0

    def test_first_derivative(self, setup):
        _, _, _, polys = setup
        assert eval_poly(polys[2], 1, 1) == 2

    def test_second_derivative_cubic(self, setup):
        _, _, _, polys = setup
        with mp.workdps(80):
            for z in ("0.7", "-2"):
                assert eval_poly(polys[3], mpmathify(z), 2) == 6 * mpmathify(z)


class TestLadder:
    def test_relation_between_a_and_b(self, setup):
        # A_n(z) = v0'(z)/z + (B_n + B_{n+1})/z - alpha/z^2 to round-off
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            z = mpf("1.3")
            a = params.mpfs()[1]
            for n in (4, 5):
                pn = ladder_pair(n, z, params, betas)
                pn1 = ladder_pair(n + 1, z, params, betas)
                rhs = pn.v0_prime / z + (pn.b_n + pn1.b_n) / z - a / (z * z)
                assert abs(pn.a_n - rhs) < mpf(10) ** -35

    def test_b_even_has_no_pole(self, setup):
        _, params, betas, _ = setup
        with mp.workdps(betas.digits_used):
            pn = ladder_pair(4, mpf("0.5"), params, betas)
            s, a, N = params.mpfs()
            assert pn.b_n == 4 * N * s * betas[4] * mpf("0.5")

    def test_b_odd_pole_at_zero(self, setup):
        _, params, betas, _ = setup
        with pytest.raises(PoleError):
            ladder_pair(5, 0, params, betas)

    def test_a_even_in_z(self, setup):
        _, params, betas, _ = setup
        with mp.workdps(80):
            z = mpf("0.9")
            assert (ladder_pair(4, z, params, betas).a_n
                    == ladder_pair(4, -z, params, betas).a_n)


class TestLowering:
    def test_n1_reduces_to_string_equation(self, setup):
        # P_1' = 1 forces beta_1 [4Ns(beta_2+beta_1) + 2N(1-s)] - alpha = 1,
        # which is the n = 1 string equation; the residual reflects it.
        ctx, params, betas, polys = setup
        with mp.workdps(80):
            res = lowering_residual(1, mpf("0.7"), params, betas, polys)
            assert abs(res) < mpf(10) ** -35

    def test_grid(self, setup):
        ctx, params, betas, polys = setup
        with mp.workdps(80):
            for n in range(1, 11):
                for z in ("-0.3", "1.1", "2.7"):
                    res = lowering_residual(n, mpmathify(z), params, betas, polys)
                    assert abs(res) < mpf(10) ** -30

    def test_p1_prime(self, setup):
        _, _, _, polys = setup
        assert eval_poly(polys[1], mpf("3.3"), 1) == 1


class TestCompatibility:
    def test_all_three_small(self, setup):
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            r1, r2, r2p = compatibility_residuals(6, mpf("0.9"), params, betas)
            assert abs(r1) < mpf(10) ** -30
            assert abs(r2) < mpf(10) ** -30
            assert abs(r2p) < mpf(10) ** -30

    def test_needs_beta_n_plus_2(self, setup):
        # (S2) takes A_{n+1}, which carries beta_{n+2}
        ctx, params, betas, _ = setup
        short = replace(betas, betas=betas.betas[:8])
        with pytest.raises(DomainError):
            compatibility_residuals(6, mpf("0.9"), params, short)

    def test_s1_is_ladder_relation_rearranged(self, setup):
        # r_S1 = -z * (residual of the A_n / B_n relation): same identity
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            z = mpf("1.3")
            a = params.mpfs()[1]
            n = 4
            r1, _, _ = compatibility_residuals(n, z, params, betas)
            pn = ladder_pair(n, z, params, betas)
            pn1 = ladder_pair(n + 1, z, params, betas)
            rel = pn.a_n - (pn.v0_prime / z + (pn.b_n + pn1.b_n) / z - a / (z * z))
            assert abs(r1 + z * rel) < mpf(10) ** -60

    def test_z_coefficients_reproduce_string_and_sum_rules(self, setup):
        # extracting the z^2 and z^0 coefficients of the S2' residual at two
        # points must vanish separately: they are the string equation and the
        # sum rule respectively
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            n = 6
            z1, z2 = mpf("0.9"), mpf("1.7")
            _, _, ra = compatibility_residuals(n, z1, params, betas)
            _, _, rb = compatibility_residuals(n, z2, params, betas)
            # S2' residual is quadratic in z^2 with zero z^4 part; solve 2x2
            c2 = (ra - rb) / (z1 ** 2 - z2 ** 2)
            c0 = ra - c2 * z1 ** 2
            assert abs(c2) < mpf(10) ** -30
            assert abs(c0) < mpf(10) ** -30
            # and the sum rule holds on its own
            assert abs(sum_rule_residual(n, params, betas)) < mpf(10) ** -30

    def test_sum_rule_both_parities(self, setup):
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            for n in (6, 7):
                assert abs(sum_rule_residual(n, params, betas)) < mpf(10) ** -30


class TestOde:
    def test_leading_behavior(self, setup):
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            s, a, N = params.mpfs()
            z = mpf(100)
            co = ode_coefficients(6, z, params, betas, ctx)
            assert abs(co.r_n / z ** 3 + 4 * N * s) < mpf("0.01")

    def test_even_q_drops_alpha_terms(self, setup):
        # for even n the alpha [1 - (-1)^n] pieces vanish identically
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            s, a, N = params.mpfs()
            n, z = 6, mpf("1.7")
            co = ode_coefficients(n, z, params, betas, ctx)
            u = (1 - s) / (2 * s)
            manual = (4 * N * s * betas[n] * (1 + a)
                      + 16 * N ** 2 * s ** 2 * betas[n]
                      * (u + betas[n] + betas[n - 1]) * (u + betas[n] + betas[n + 1])
                      - 8 * N * s * betas[n] * z * z / (z * z + u + betas[n] + betas[n + 1])
                      + 4 * n * N * s * z * z)
            assert abs(co.q_n - manual) < mpf(10) ** -50

    def test_residual_small(self, setup):
        ctx, params, betas, polys = setup
        with mp.workdps(80):
            res = pn_ode_residual(8, mpf("1.7"), params, betas, polys, ctx)
            assert res < mpf(10) ** -25

    def test_residual_n1(self, setup):
        ctx, params, betas, polys = setup
        with mp.workdps(80):
            res = pn_ode_residual(1, mpf("0.8"), params, betas, polys, ctx)
            assert res < mpf(10) ** -30

    def test_pole_error_not_nan(self, setup):
        ctx, params, betas, _ = setup
        with mp.workdps(80):
            s, _, _ = params.mpfs()
            # z^2 = -((1-s)/(2s) + beta_6 + beta_7) is negative: the real pole
            # for these parameters is z = 0 through the alpha terms
            with pytest.raises(PoleError):
                pn_ode_residual(6, mpf(10) ** -60, params, betas, None, ctx)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_alpha0_regular_at_origin(self, n):
        # at alpha = 0 the alpha/z terms are absent, so z = 0 is an ordinary point
        ctx = NumericContext(30)
        params = WeightParams("0.5", 0, 1)
        betas = beta_from_moments(params, 6, ctx)
        co = ode_coefficients(n, 0, params, betas, ctx)
        assert co.r_n == 0 and mp.isfinite(co.q_n)
        assert pn_ode_residual(n, 0, params, betas, None, ctx) < mpf(10) ** -(ctx.digits - 10)

    def test_alpha_nonzero_keeps_pole_at_origin(self, setup):
        ctx, params, betas, _ = setup
        with pytest.raises(PoleError):
            ode_coefficients(2, 0, params, betas, ctx)


class TestIndexRange:
    """The identities at n read beta_{n-1}..beta_{n+1} (A_n, B_n only beta_n and
    beta_{n+1}): outside that range the functions raise DomainError instead of
    indexing from the end of the sequence or past it."""

    CALLS = {   # name: (lowest n, call)
        "ladder_pair": (0, lambda n, p, b: ladder_pair(n, mpf("0.9"), p, b)),
        "lowering_residual": (1, lambda n, p, b: lowering_residual(n, mpf("0.9"), p, b)),
        "ode_coefficients": (1, lambda n, p, b: ode_coefficients(n, mpf("0.9"), p, b)),
        "pn_ode_residual": (1, lambda n, p, b: pn_ode_residual(n, mpf("0.9"), p, b)),
        "sum_rule_residual": (1, lambda n, p, b: sum_rule_residual(n, p, b)),
        "compatibility_residuals": (1, lambda n, p, b: compatibility_residuals(n, mpf("0.9"), p, b)),
        "identity_residuals": (1, lambda n, p, b: identity_residuals(n, mpf("0.9"), p, b)),
    }

    @pytest.mark.parametrize("where", ["below", "past_the_end"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_domain_error(self, name, where):
        params = WeightParams("0.5", "2", 1)
        betas = beta_from_moments(params, 6, NumericContext(digits=30))   # beta_0..beta_6
        lowest, call = self.CALLS[name]
        with pytest.raises(DomainError):
            call(lowest - 1 if where == "below" else 6, params, betas)


class TestLargeN:
    """n = 400 on 60-digit dP_I betas: the recurrence keeps the identities at
    round-off where Horner's rule over the coefficients lost every digit at z = 2.7."""

    @pytest.fixture(scope="class")
    def betas(self):
        params = WeightParams("0.5", "1.5", 1)
        hi = NumericContext(digits=360)
        seq = dpi_forward(params, beta1_initial(params, hi), 403, hi)
        with mp.workdps(60):
            rounded = tuple(+b for b in seq.betas)
        return BetaSequence(params=params, route="dpi", betas=rounded, digits_used=60)

    @pytest.mark.parametrize("z", ["0.3", "1.1", "2.7"])
    def test_identities_at_n_400(self, betas, z):
        n, ctx = 400, NumericContext(digits=60)
        with mp.workdps(60):
            z = mpf(z)
            dp = eval_poly(MonicPolynomial(n, betas.betas), z, 1)
            lowering = abs(lowering_residual(n, z, betas.params, betas)) / max(abs(dp), 1)
            assert lowering <= mpf("1e-55")
            assert pn_ode_residual(n, z, betas.params, betas, None, ctx) <= mpf("1e-55")
            table = identity_residuals(n, z, betas.params, betas, ctx)
            assert max(table.values()) <= mpf("1e-55")


class TestHeun:
    def test_parameter_values(self):
        with mp.workdps(60):
            hp = heun_parameters(0, 2, "0.25", 10)
            assert abs(hp.gamma_h + mpf(1) / 2) < mpf(10) ** -45
            assert hp.eta_h == 0

    def test_rho_at_unit_kappa(self):
        # kappa = 1 -> rho = -sqrt(6)/9 = -0.27217...
        with mp.workdps(60):
            hp = heun_parameters("1.3", 1, 1, 1)
            assert abs(hp.rho_h + sqrt(mpf(6)) / 9) < mpf(10) ** -45
            assert abs(hp.rho_h + mpf("0.272166")) < mpf("1e-6")

    @pytest.mark.parametrize("alpha, s", [(0, "1.5"), (-1, "0.5"), ("-1.2", "0.5")])
    def test_rejects_what_is_not_a_weight(self, alpha, s):
        # r_tilde shares v_0' with the z-ODE, so (s, alpha, N) must be a WeightParams
        with pytest.raises(DomainError):
            heun_parameters(alpha, 2, s, 7)

    def test_q_tilde(self):
        with mp.workdps(60):
            hp = heun_parameters(0, 2, "0.5", 7)
            want = (4 * mpf(1) ** (mpf(1) / 3) * 7 / 3) ** mpf(1.5)
            assert abs(hp.q_tilde - want) < mpf(10) ** -40

    def test_operator_transformation_exact(self):
        # the substitution x = sqrt(2) z^2 maps the limiting z-operator onto
        # 8 z^2 times the biconfluent-Heun operator, exactly, for any smooth u
        with mp.workdps(60):
            params = WeightParams("0.7", "1.3", 2)
            hp = heun_parameters("1.3", 2, "0.7", 37)
            u = lambda x: exp(-x / 3) * (1 + x * x)
            du = lambda x: exp(-x / 3) * (2 * x - (1 + x * x) / 3)
            d2u = lambda x: exp(-x / 3) * (2 - 2 * x / 3 - (2 * x - (1 + x * x) / 3) / 3)
            for z in ("0.31", "1.1", "2.7", "-0.6", "0.05"):
                res = heun_operator_residual(hp, params, u, du, d2u, mpmathify(z))
                assert abs(res) < mpf(10) ** -40


class TestOrthogonality:
    def test_small_gram(self):
        ctx = NumericContext(digits=60)
        params = WeightParams("0.5", "0.5", 1)
        gram = orthogonality_check(5, params, ctx)
        with mp.workdps(60):
            for j in range(6):
                for k in range(6):
                    if j == k:
                        assert abs(gram[j][k] - 1) < mpf(10) ** -20
                    else:
                        assert abs(gram[j][k]) < mpf(10) ** -20

    @pytest.mark.parametrize("s, alpha, n_max, digits", [
        ("0.7", "-0.6", 2, 30),     # the |x|^alpha kink at x = 0
        (1, 3, 24, 40),             # the contraction's cancellation grows with n_max
    ])
    def test_gram_to_full_digits(self, s, alpha, n_max, digits):
        gram = orthogonality_check(n_max, WeightParams(s, alpha, 1), NumericContext(digits))
        with mp.workdps(digits + 10):
            assert _gram_error(gram) <= mpf(10) ** -digits
            assert all(gram[j][k] == 0 for j in range(n_max + 1)
                       for k in range(n_max + 1) if (j + k) % 2)

    def test_perturbed_beta_is_seen(self, monkeypatch):
        # one beta off by 10^-(digits-10) relative must show in G, so the
        # check can fail
        digits = 40
        exact = polynomials.beta_from_moments

        def perturbed(*args, **kwargs):
            seq = exact(*args, **kwargs)
            betas = list(seq.betas)
            with mp.workdps(seq.digits_used):
                betas[3] *= 1 + mpf(10) ** -(digits - 10)
            return replace(seq, betas=tuple(betas))

        monkeypatch.setattr(polynomials, "beta_from_moments", perturbed)
        gram = orthogonality_check(4, WeightParams("0.5", "1.5", 1), NumericContext(digits))
        with mp.workdps(digits + 10):
            assert _gram_error(gram) > mpf(10) ** -digits

    def test_h_ratio_identity(self):
        # h_n = beta_n h_{n-1} is the definition of beta_n
        ctx = NumericContext(digits=60)
        params = WeightParams("0.5", "1.5", 1)
        seq = beta_from_moments(params, 6, ctx)
        with mp.workdps(70):
            for n in range(1, 7):
                assert abs(seq.hs[n] - seq[n] * seq.hs[n - 1]) < mpf(10) ** -50 * seq.hs[n]
