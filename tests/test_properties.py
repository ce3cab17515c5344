"""Property tests: the finite-n s-ODE and the closed form of d/ds log D_n hold
on Hankel data over a box of parameters, not only at hand-picked points.

Both identities are evaluated from their N-slices at r = n/N, so these
properties also cover the slices that drive the large-N expansions.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from dfreud import (NumericContext, WeightParams, beta_from_moments, ode25_residual,
                    logdet_derivative_exact, logdet_derivative_sum)

CTX = NumericContext(digits=60)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)

params_box = st.builds(
    WeightParams,
    st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=1000),
    st.fractions(min_value=-1, max_value=5, max_denominator=100).filter(lambda a: a > -1),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=100))
n_range = st.integers(min_value=2, max_value=8)


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
