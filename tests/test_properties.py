"""Property tests over boxes of parameters, not only at hand-picked points.

* The finite-n s-ODE and the closed form of d/ds log D_n hold on Hankel data.
  Both are evaluated from their N-slices at r = n/N, so these properties also
  cover the slices that drive the large-N expansions.
* The recurrence moment table matches one pcfd call per entry, and the Hankel
  and dP_I routes give the same beta_n, over s in (0, 1], alpha in (-1, 5] and
  N in [1/4, 50].
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from dfreud import (NumericContext, WeightParams, beta_from_moments, ode25_residual,
                    logdet_derivative_exact, logdet_derivative_sum, moment_table,
                    beta1_initial, dpi_forward)
from oracles import per_entry_table

CTX = NumericContext(digits=60)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)
ROUTES = settings(PROPERTY, max_examples=40)

alphas = st.fractions(min_value=-1, max_value=5, max_denominator=100).filter(lambda a: a > -1)
params_box = st.builds(
    WeightParams,
    st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=1000),
    alphas,
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=100))
n_range = st.integers(min_value=2, max_value=8)
full_box = st.builds(
    WeightParams,
    st.builds(lambda m, e: Fraction(m, 10 ** e), st.integers(1, 100), st.integers(2, 4)),
    alphas,
    st.fractions(min_value=Fraction(1, 4), max_value=50, max_denominator=100))


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
