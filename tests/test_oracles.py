"""The recurrence moment table, the Chebyshev pivots and the compatibility
residuals against the slow oracles of ``oracles.py``, over a fixed grid of the
parameter box."""
import itertools

import pytest
from mpmath import mp, mpf, mpmathify

from dfreud import (NumericContext, WeightParams, beta_from_moments, compatibility_residuals,
                    moment_table)
from dfreud.hankel import _pivots
from oracles import ldlt_pivots, ladder_pair_compatibility_residuals, per_entry_table

GRID = list(itertools.product(("0", "1/1000", "1/100", "1/2", "1"),
                              ("-9/10", "0", "5/2"), ("1/4", "1", "8")))


def _case(i):
    """Grid point i with its digits and order: every (digits, n) pair of
    {60, 100} x {60, 36, 12} meets every s."""
    s, alpha, big_n = GRID[i]
    return WeightParams(s, alpha, big_n), (60, 100)[i % 2], (60, 36, 12)[i % 3]


def _worst_rel(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want) if w != 0)


@pytest.mark.parametrize("i", range(len(GRID)))
def test_recurrence_table_matches_per_entry_pcfd(i):
    params, digits, n = _case(i)
    ctx = NumericContext(digits=digits)
    table = moment_table(params, 2 * n - 2, ctx)
    oracle = per_entry_table(params, 2 * n - 2, ctx)
    with mp.workdps(digits + 10):
        assert all(table.mu(j) == 0 for j in range(1, 2 * n - 1, 2))
        assert _worst_rel(table.values, oracle.values) <= mpf(10) ** -digits


@pytest.mark.parametrize("i", range(len(GRID)))
def test_chebyshev_pivots_match_ldlt(i):
    params, digits, n = _case(i)
    work = digits + 20 + 2 * n     # the first attempt of h_sequence
    with mp.workdps(work):
        mus = moment_table(params, 2 * n - 2, NumericContext(digits=work)).values
        h, fail = _pivots(mus, n)
        oracle, oracle_fail = ldlt_pivots(mus, n)
        assert fail is None and oracle_fail is None
        assert _worst_rel(h, oracle) <= mpf(10) ** -digits


def test_non_positive_pivot_reported_like_ldlt():
    # mu = (1, 0, 1, 0, 1): h_0 = h_1 = 1 and h_2 = mu_4 - mu_2^2/mu_0 = 0
    mus = [mpf(1), mpf(0), mpf(1), mpf(0), mpf(1)]
    h, fail = _pivots(mus, 3)
    oracle, oracle_fail = ldlt_pivots(mus, 3)
    assert fail == oracle_fail == 2 and h == oracle


@pytest.mark.parametrize("i", range(0, len(GRID), 3))
def test_compatibility_residuals_match_ladder_pair_form(i):
    params, digits, _ = _case(i)
    ctx = NumericContext(digits=digits)
    betas = beta_from_moments(params, 9, ctx)
    with mp.workdps(betas.digits_used):
        for n in range(1, 8):
            for z in ("-1.1", "0.3", "2.7"):
                got = compatibility_residuals(n, mpmathify(z), params, betas)
                want = ladder_pair_compatibility_residuals(n, mpmathify(z), params, betas)
                assert all(abs(g - w) <= mpf(10) ** -digits for g, w in zip(got, want)), (n, z)
