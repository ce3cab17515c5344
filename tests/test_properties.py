"""Property tests over boxes of parameters, not only at hand-picked points.

* The finite-n s-ODE and the closed form of d/ds log D_n hold on Hankel data.
  Both are evaluated from their N-slices at r = n/N, so these properties also
  cover the slices that drive the large-N expansions.
* Over s in (0, 1], alpha in (-1, 5] and N in [1/4, 50]: the recurrence moment
  table matches one pcfd call per entry, every sequence route of the route
  table gives the Hankel beta_n, the polynomials built from Hankel betas are
  orthonormal against quadrature moments, and the Hankel betas lie below the
  closed-form upper bound.
* Over s in [1/1000, 1], alpha in (-1, 5], N in [1/4, 8] and max_order <= 80,
  the downward moment table matches one pcfd call per entry to 10^-(digits+5),
  five digits past the 10^-digits it promises.
* Over s in [0, 1], alpha in (-1, 5], N log-uniform in [1/1000, 50] at 30 and
  60 digits, the exp-exp quadrature moment table matches the closed-form one.
* Over alpha in (-1, 5] at 30, 60 and 120 digits, the one-call Barnes-G block
  of the log D_n displays matches four ``barnes_g_log`` calls.
* Over s in [1/100, 1], alpha in (-1, 5], N in [1/4, 50] at 30 and 60 digits,
  the large-n string coefficients of both parities match an independent
  reference: sigma-pair series to t^9, mpmath binomials and a 2x2 LU solve
  per order.  Fed into that reference's dP_I residual, they make every order
  1..7 vanish to 10^-digits of the largest of 1, |a_k| and |b_k|.
* Over s in (0, 1], alpha in (-1, 5], N in [1/4, 4], n <= 10^4 and both
  parities at 30 and 50 digits, the large-n string coefficients and beta_n
  match that reference and an fsum of fractional powers, to
  10^-(digits+5) of the size of the terms each one sums.
* Over s in [1/10000, 1], alpha in (-1, 5], N in [1/4, 50], as exact
  decimals and as the binary values of their floats, n <= 24 and 30, 60 and
  150 digits, ``beta_small_s`` returns the same bits whether its coefficients
  come from a cold cache or from one filled at s/10 under another precision.
* Over s in [1/10000, 1], alpha in (-1, 5] and N in [1/4, 50] as exact
  rationals, ``WeightParams.mpfs`` returns the bits of a fresh conversion at
  the working precision, whichever precisions it was asked at before.
* Over s in [1/10000, 1], alpha in (-1, 5], N in [1/4, 50], 1 to 5 moments
  and 30, 40, 58, 63 and 100 digits, ``exp_exp_moments`` of the weight returns
  the same bits from a cold node store, from one filled by another integrand
  at the same precision, and from the rule that forms every node afresh.
* Over s in [1/10000, 1], alpha in (-1, 5], N in [1/4, 50], n <= 300 and 30, 60,
  150 and 500 digits, ``dpi_forward`` returns the bits and the failure index of
  the mpf form of its step, from beta_1, from beta_1 moved by 10^-8 either way
  (early cone exits) and from beta_1 <= 0; over s in [1/100, 1] at 30, 60 and
  150 digits, so does ``beta_large_n`` at n <= 300 of both parities.
* Over alpha in (-1, 5], n <= 30 and 30, 60 and 150 digits, the D0 and D1
  displays and ``mehta_normand_logD0`` at n and 2n give the same bits from a
  cold Barnes-block cache as from one filled at another n and precision.
* Over s in [1/100, 1], r in (0, 1], alpha in (-1, 5] at 30 and 60 digits,
  D(s) from the log-derivative slices matches the transcribed polynomials of
  both parities.
* For n <= 15, betas in [1/100, 10] and z in [-3, 3] at 60 digits, P_n, P_n'
  and P_n'' from the recurrence match Horner's rule over the coefficients to
  10^-55 of sum_k |c_k| |z|^k, the size of the terms Horner adds.
"""
from fractions import Fraction
from math import log10

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st
from mpmath import mp, mpf

from dfreud import (NumericContext, WeightParams, beta_from_moments, ode25_residual,
                    logdet_derivative_exact, logdet_derivative_sum, moment_table,
                    beta1_initial, dpi_forward, orthogonality_check, upper_bound,
                    large_n_coefficients, appendix_b_coefficients, build_polynomials,
                    eval_poly, beta_large_n, beta_small_s, logdet_expansion,
                    mehta_normand_logD0)
from dfreud.asymptotics import SEQUENCE_ROUTES, _small_s_series
from dfreud.detasympt import _barnes_block
from dfreud.numerics import _node_store, exp_exp_moments, fraction_to_mpf
from oracles import (barnes_block_four_calls, beta_large_n_fsum, beta_large_n_mpf,
                     coefficient_polynomials, d_coefficient_transcribed, dpi_forward_mpf,
                     exp_exp_moments_fresh, horner, per_entry_table, string_coefficients_lu,
                     _sigma_residual)

CTX = NumericContext(digits=60)
# no shrink or explain phase: a derandomized failure reproduces as found, and
# shrinking an mpmath example can take minutes before the failure is reported
PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None,
                    phases=(Phase.explicit, Phase.generate, Phase.target))
ROUTES = settings(PROPERTY, max_examples=40)
DOWNWARD = settings(PROPERTY, max_examples=15)
GRAM = settings(PROPERTY, max_examples=3)
BOUND = settings(PROPERTY, max_examples=30)
BARNES = settings(PROPERTY, max_examples=30)
QUADRATURE = settings(PROPERTY, max_examples=100)
STRING = settings(PROPERTY, max_examples=3)
BINOMIAL = settings(PROPERTY, max_examples=6)
D_COEFFICIENT = settings(PROPERTY, max_examples=50)
POLYNOMIAL = settings(PROPERTY, max_examples=40)
SMALL_S = settings(PROPERTY, max_examples=100)
MEMO = settings(PROPERTY, max_examples=100)
LOGD0 = settings(PROPERTY, max_examples=25)
NODES = settings(PROPERTY, max_examples=25)
LIBMP = settings(PROPERTY, max_examples=40)

alphas = st.fractions(min_value=-1, max_value=5, max_denominator=100).filter(lambda a: a > -1)
params_box = st.builds(
    WeightParams,
    st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=1000),
    alphas,
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=100))
n_range = st.integers(min_value=2, max_value=8)
small_s = st.builds(lambda m, e: Fraction(m, 10 ** e), st.integers(1, 100), st.integers(2, 4))
big_ns = st.fractions(min_value=Fraction(1, 4), max_value=50, max_denominator=100)
full_box = st.builds(WeightParams, small_s, alphas, big_ns)
float_box = st.builds(WeightParams, small_s.map(float), alphas.map(float), big_ns.map(float))
downward_box = st.builds(
    WeightParams,
    st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000),
    alphas,
    st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=100))
log_uniform_ns = st.builds(lambda x: Fraction(10 ** x).limit_denominator(10 ** 6),
                           st.floats(min_value=-3, max_value=log10(50)))
closed_s = st.fractions(min_value=0, max_value=1, max_denominator=1000)
quadrature_box = st.builds(WeightParams, closed_s, alphas, log_uniform_ns)
large_n_s = st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=1000)
large_n_box = st.builds(WeightParams, large_n_s, alphas, big_ns)
binomial_box = st.builds(
    WeightParams, closed_s.filter(lambda s: s > 0), alphas,
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=100))
ratios = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda r: r > 0)


@PROPERTY
@given(params=params_box, n=n_range)
def test_hankel_betas_solve_the_s_ode(params, n):
    betas = beta_from_moments(params, n + 2, CTX)
    with mp.workdps(betas.digits_used):
        assert abs(ode25_residual(n, params, CTX, betas)) < mpf(10) ** -50


@PROPERTY
@given(params=params_box, n=n_range)
def test_logdet_closed_form_matches_summation(params, n):
    betas = beta_from_moments(params, n + 1, CTX)
    with mp.workdps(betas.digits_used):
        exact = logdet_derivative_exact(n, params, CTX, betas)
        summed = logdet_derivative_sum(n, params, CTX, betas)
        assert abs(exact - summed) < mpf(10) ** -50 * max(1, abs(exact))


@ROUTES
@given(params=full_box, max_order=st.integers(min_value=0, max_value=40))
def test_recurrence_table_matches_per_entry_pcfd(params, max_order):
    table = moment_table(params, max_order, CTX)
    oracle = per_entry_table(params, max_order, CTX)
    with mp.workdps(CTX.digits + 10):
        for got, want in zip(table.values[::2], oracle.values[::2]):
            assert abs(got - want) <= mpf(10) ** -CTX.digits * want


@DOWNWARD
@given(params=downward_box, max_order=st.integers(min_value=0, max_value=80))
def test_downward_table_keeps_every_digit(params, max_order):
    # the upward recurrence lost up to about 40 digits in this box
    table = moment_table(params, max_order, CTX)
    oracle = per_entry_table(params, max_order, NumericContext(digits=CTX.digits + 10))
    with mp.workdps(CTX.digits + 20):
        for got, want in zip(table.values[::2], oracle.values[::2]):
            assert abs(got - want) <= mpf(10) ** -(CTX.digits + 5) * want


@pytest.mark.parametrize("route", [r for r in SEQUENCE_ROUTES if r != "hankel"])
@ROUTES
@given(params=full_box, n=st.integers(min_value=1, max_value=20))
def test_sequence_routes_agree_with_hankel(route, params, n):
    hankel = beta_from_moments(params, n, CTX)
    ref_ctx = NumericContext(digits=CTX.digits + 2 * n + 40)
    other = SEQUENCE_ROUTES[route](params, n, ref_ctx)
    assert other.failure_index is None
    with mp.workdps(ref_ctx.digits):
        for j in range(1, n + 1):
            assert abs(hankel[j] - other[j]) <= mpf(10) ** -(CTX.digits - 20) * other[j]


@GRAM
@given(params=full_box, n_max=st.integers(min_value=1, max_value=8))
def test_gram_matrix_is_identity(params, n_max):
    gram = orthogonality_check(n_max, params, CTX)
    with mp.workdps(CTX.digits + 10):
        assert all(abs(gram[j][k] - (1 if j == k else 0)) <= mpf(10) ** -CTX.digits
                   for j in range(n_max + 1) for k in range(n_max + 1))


@BOUND
@given(params=full_box, n=st.integers(min_value=1, max_value=20))
def test_hankel_betas_below_upper_bound(params, n):
    betas = beta_from_moments(params, n, CTX)
    with mp.workdps(betas.digits_used):
        assert all(betas[j] < upper_bound(j, params, CTX) for j in range(1, n + 1))


@QUADRATURE
@given(params=quadrature_box, digits=st.sampled_from((30, 60)))
def test_quadrature_table_matches_closed_form(params, digits):
    ctx = NumericContext(digits=digits)
    quad = moment_table(params, 4, ctx, source="quadrature")
    closed = moment_table(params, 4, ctx)
    with mp.workdps(digits + 10):
        for got, want in zip(quad.values, closed.values):
            assert abs(got - want) <= mpf(10) ** -digits * abs(want)


@BARNES
@given(alpha=alphas, digits=st.sampled_from((30, 60, 120)))
def test_barnes_block_matches_four_calls(alpha, digits):
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 10):
        a = mpf(alpha.numerator) / alpha.denominator
        assert abs(_barnes_block(a, ctx) - barnes_block_four_calls(a, ctx)) <= mpf(10) ** -digits


@STRING
@given(params=large_n_box)
def test_string_coefficients_match_lu_solve(params):
    with mp.workdps(70):
        reference = string_coefficients_lu(*params.mpfs())
    for digits in (30, 60):
        ctx = NumericContext(digits=digits)
        even = large_n_coefficients(params, "even", ctx)
        odd = large_n_coefficients(params, "odd", ctx)
        with mp.workdps(digits + 10):
            tol = mpf(10) ** -digits
            for k, (a, b) in enumerate(reference):
                for got, want in ((even.symmetric[k], a), (even.alternating[k], b),
                                  (even.d[k], a + b), (odd.d[k], a - b)):
                    assert abs(got - want) <= tol * max(1, abs(want))


@STRING
@given(params=large_n_box)
def test_string_coefficients_solve_the_dpi(params):
    # the oracle's own residual series of the dP_I, fed the solved pairs, not a
    # second solve: each order 1..7 vanishes to the digits asked for
    for digits in (30, 60):
        even = large_n_coefficients(params, "even", NumericContext(digits=digits))
        pairs = list(zip(even.symmetric, even.alternating))
        with mp.workdps(digits + 20):
            residual = _sigma_residual(pairs, *params.mpfs())
            for k, (a, b) in enumerate(pairs, start=1):
                tol = mpf(10) ** -digits * max(1, abs(a), abs(b))
                assert abs(residual[k][0]) <= tol and abs(residual[k][1]) <= tol, (k, digits)


@BINOMIAL
@given(params=binomial_box, n=st.integers(min_value=1, max_value=10 ** 4),
       digits=st.sampled_from((30, 50)))
def test_large_n_matches_mpmath_binomials_and_fsum(params, n, digits):
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 20):
        pairs = string_coefficients_lu(*params.mpfs())
        tol = mpf(10) ** -(digits + 5)
        data = large_n_coefficients(params, "even", ctx)
        for k, (a, b) in enumerate(pairs):
            # order k's residual combines the lower pairs: measure against the largest
            scale = max(1, *(abs(x) for pair in pairs[:k + 1] for x in pair))
            assert abs(data.symmetric[k] - a) <= tol * scale
            assert abs(data.alternating[k] - b) <= tol * scale
        for m in (n, n + 1):  # both parities
            sign = 1 if m % 2 == 0 else -1
            want = beta_large_n_fsum(m, params, pairs)
            # relative to the size of the terms the sum adds: |d_k| in place of d_k
            size = beta_large_n_fsum(m, params, [(abs(a + b * sign), 0) for a, b in pairs])
            assert abs(beta_large_n(m, params, ctx) - want) <= tol * size


@SMALL_S
@given(params=st.one_of(full_box, float_box), n=st.integers(min_value=0, max_value=24),
       digits=st.sampled_from((30, 60, 150)))
def test_small_s_warm_cache_returns_cold_bits(params, n, digits):
    ctx = NumericContext(digits=digits)
    _small_s_series.cache_clear()
    with mp.workdps(20):
        cold = beta_small_s(n, params, ctx)._mpf_
    _small_s_series.cache_clear()
    with mp.workdps(200):  # fill the cache at s/10, under another working precision
        beta_small_s(n, WeightParams(params.s / 10, params.alpha, params.big_n), ctx)
    assert beta_small_s(n, params, ctx)._mpf_ == cold


#: working precisions in bits, more than one WeightParams keeps; 53/54 and 106/107
#: share a decimal precision, so a memo keyed on mp.dps is caught too
PRECS = (53, 54, 106, 107, 200, 333, 334, 1000, 2000, 2001)


@MEMO
@given(params=full_box, precs=st.lists(st.sampled_from(PRECS), min_size=2, max_size=30))
def test_mpfs_memo_returns_fresh_bits(params, precs):
    for prec in precs:
        with mp.workprec(prec):
            got = params.mpfs()
            want = [fraction_to_mpf(x) for x in (params.s, params.alpha, params.big_n)]
        assert [x._mpf_ for x in got] == [x._mpf_ for x in want]


@NODES
@given(params=full_box, count=st.integers(min_value=1, max_value=5),
       digits=st.sampled_from((30, 40, 58, 63, 100)))
def test_exp_exp_store_returns_fresh_bits(params, count, digits):
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 10):
        s, a, n = params.mpfs()
        p, prec = (a - 1) / 2, mp.prec

    def weight(y):
        return n * (y + s * (y * y - y))

    def bits(rule) -> list:
        return [x._mpf_ for x in rule(p, weight, count, ctx)]

    _node_store.cache_clear()
    cold = bits(exp_exp_moments)
    formed = len(_node_store(prec))
    _node_store.cache_clear()
    exp_exp_moments(0, lambda y: y, 2, ctx)     # another integrand, the same precision
    stored = len(_node_store(prec))
    assert bits(exp_exp_moments) == cold
    assert len(_node_store(prec)) - stored < formed      # some nodes came from the store
    assert bits(exp_exp_moments_fresh) == cold


@LIBMP
@given(params=full_box, n_max=st.integers(min_value=1, max_value=300))
@example(params=WeightParams("1/2", "3/2", 1), n_max=300)
def test_dpi_forward_returns_the_mpf_bits(params, n_max):
    # beta_1 to 150 digits: the 500-digit runs still leave the cone, near n = 100-250
    beta1 = beta1_initial(params, NumericContext(digits=150))
    for digits in (30, 60, 150, 500):
        ctx = NumericContext(digits=digits)
        with mp.workdps(digits + 10):
            starts = (beta1, beta1 * (1 + mpf(10) ** -8), beta1 * (1 - mpf(10) ** -8),
                      mp.zero, -beta1)
        for start in starts:
            got = dpi_forward(params, start, n_max, ctx)
            want = dpi_forward_mpf(params, start, n_max, ctx)
            assert [b._mpf_ for b in got.betas] == [b._mpf_ for b in want.betas]
            assert (got.failure_index, got.digits_used) == (want.failure_index, digits)


@LIBMP
@given(params=large_n_box, n=st.integers(min_value=2, max_value=300),
       digits=st.sampled_from((30, 60, 150)))
def test_beta_large_n_returns_the_mpf_bits(params, n, digits):
    ctx = NumericContext(digits=digits)
    for m in (1, n - 1, n):     # both parities
        assert beta_large_n(m, params, ctx)._mpf_ == beta_large_n_mpf(m, params, ctx)._mpf_


@LOGD0
@given(alpha=alphas, n=st.integers(min_value=1, max_value=30),
       digits=st.sampled_from((30, 60, 150)))
def test_logd0_warm_cache_returns_cold_bits(alpha, n, digits):
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 10):
        a = mpf(alpha.numerator) / alpha.denominator

    def bits(before_each) -> list:
        out = []
        for m in (n, 2 * n):
            for quantity in ("D0", "D1"):
                before_each()
                out.append(logdet_expansion(quantity, m, 1, a, None, ctx).value._mpf_)
            before_each()
            out.append(mehta_normand_logD0(m, a, m, ctx)._mpf_)
        return out

    def fill():  # at another n and precision, under 200 ambient digits
        with mp.workdps(200):
            for other in (NumericContext(digits=45), ctx):
                logdet_expansion("D0", n + 1, 1, a, None, other)

    with mp.workdps(20):
        cold = bits(_barnes_block.cache_clear)
    hits = _barnes_block.cache_info().hits
    assert bits(fill) == cold
    assert _barnes_block.cache_info().hits > hits


@D_COEFFICIENT
@given(s=large_n_s, r=ratios, alpha=alphas)
def test_d_coefficient_matches_transcription(s, r, alpha):
    # the transcribed odd form divides by f(s)^2 and is undefined at f(s) = 0
    assume(1 - 2 * s - 4 * r * s + s * s != 0)
    for digits in (30, 60):
        ctx = NumericContext(digits=digits)
        with mp.workdps(digits + 100):
            s_, r_, a_ = (mpf(x.numerator) / x.denominator for x in (s, r, alpha))
        for parity in ("even", "odd"):
            got = appendix_b_coefficients(s_, r_, a_, parity, ctx).d_s
            with mp.workdps(digits + 100):
                want = d_coefficient_transcribed(s_, r_, a_, parity)
                assert abs(got - want) <= mpf(10) ** -digits * max(1, abs(want))


@POLYNOMIAL
@given(betas=st.lists(st.fractions(min_value=Fraction(1, 100), max_value=10,
                                   max_denominator=1000), min_size=15, max_size=15),
       n=st.integers(min_value=0, max_value=15),
       z=st.fractions(min_value=-3, max_value=3, max_denominator=1000))
def test_recurrence_matches_coefficient_form(betas, n, z):
    digits = 60
    with mp.workdps(digits):
        seq = [mp.zero] + [mpf(b.numerator) / b.denominator for b in betas]
        z_ = mpf(z.numerator) / z.denominator
        coeffs = coefficient_polynomials(seq, n)[n]
        poly = build_polynomials(seq, n)[n]
        for order in (0, 1, 2):
            scale = horner([abs(c) for c in coeffs], abs(z_), order)
            error = abs(eval_poly(poly, z_, order) - horner(coeffs, z_, order))
            assert error <= mpf(10) ** -(digits - 5) * scale
