"""Property tests over boxes of parameters, not only at hand-picked points.

* The finite-n s-ODE and the closed form of d/ds log D_n hold on Hankel data.
  Both are evaluated from their N-slices at r = n/N, so these properties also
  cover the slices that drive the large-N expansions.
* Over s in (0, 1], alpha in (-1, 5] and N in [1/4, 50]: the recurrence moment
  table matches one pcfd call per entry, the Hankel and dP_I routes give the
  same beta_n, the polynomials built from Hankel betas are orthonormal against
  quadrature moments, and the Hankel betas lie below the closed-form upper
  bound.
* Over s in [0, 1], alpha in (-1, 5], N log-uniform in [1/1000, 50] at 30 and
  60 digits, the exp-exp quadrature moment table matches the closed-form one.
* Over alpha in (-1, 5] at 30, 60 and 120 digits, the one-call Barnes-G block
  of the log D_n displays matches four ``barnes_g_log`` calls.
* Over s in [1/100, 1], alpha in (-1, 5], N in [1/4, 50] at 30 and 60 digits,
  the large-n string coefficients of both parities match a 2x2 LU solve per
  order.
* Over s in (0, 1], alpha in (-1, 5], N in [1/4, 4], n <= 10^4 and both
  parities at 30 and 50 digits, the large-n string coefficients and beta_n
  match the same route built from mpmath binomials and an fsum of fractional
  powers, to 10^-(digits+5) of the size of the terms each one sums.
* Over s in [1/100, 1], r in (0, 1], alpha in (-1, 5] at 30 and 60 digits,
  D(s) from the log-derivative slices matches the transcribed polynomials of
  both parities.
* For n <= 15, betas in [1/100, 10] and z in [-3, 3] at 60 digits, P_n, P_n'
  and P_n'' from the recurrence match Horner's rule over the coefficients to
  10^-55 of sum_k |c_k| |z|^k, the size of the terms Horner adds.
"""
from fractions import Fraction
from math import log10

from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from dfreud import (NumericContext, WeightParams, beta_from_moments, ode25_residual,
                    logdet_derivative_exact, logdet_derivative_sum, moment_table,
                    beta1_initial, dpi_forward, orthogonality_check, upper_bound,
                    large_n_coefficients, appendix_b_coefficients, build_polynomials,
                    eval_poly, beta_large_n)
from dfreud.detasympt import _barnes_block
from oracles import (barnes_block_four_calls, beta_large_n_fsum, coefficient_polynomials,
                     d_coefficient_transcribed, horner, per_entry_table,
                     string_coefficients_lu, string_coefficients_mpmath_binomials)

CTX = NumericContext(digits=60)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)
ROUTES = settings(PROPERTY, max_examples=40)
GRAM = settings(PROPERTY, max_examples=3)
BOUND = settings(PROPERTY, max_examples=30)
BARNES = settings(PROPERTY, max_examples=30)
QUADRATURE = settings(PROPERTY, max_examples=100)
STRING = settings(PROPERTY, max_examples=3)
BINOMIAL = settings(PROPERTY, max_examples=6)
D_COEFFICIENT = settings(PROPERTY, max_examples=50)
POLYNOMIAL = settings(PROPERTY, max_examples=40)

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


@ROUTES
@given(params=full_box, n=st.integers(min_value=1, max_value=20))
def test_hankel_and_dpi_betas_agree(params, n):
    hankel = beta_from_moments(params, n, CTX)
    ref_ctx = NumericContext(digits=CTX.digits + 2 * n + 40)
    dpi = dpi_forward(params, beta1_initial(params, ref_ctx), n, ref_ctx)
    assert dpi.failure_index is None
    with mp.workdps(ref_ctx.digits):
        for j in range(1, n + 1):
            assert abs(hankel[j] - dpi[j]) <= mpf(10) ** -(CTX.digits - 20) * dpi[j]


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


@BINOMIAL
@given(params=binomial_box, n=st.integers(min_value=1, max_value=10 ** 4),
       digits=st.sampled_from((30, 50)))
def test_large_n_matches_mpmath_binomials_and_fsum(params, n, digits):
    ctx = NumericContext(digits=digits)
    with mp.workdps(digits + 20):
        pairs = string_coefficients_mpmath_binomials(*params.mpfs())
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
