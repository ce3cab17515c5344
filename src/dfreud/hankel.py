"""Hankel determinants and the moment-matrix route to recurrence coefficients.

The squared norms h_0, ..., h_{n-1} of the monic orthogonal polynomials are
the pivots of the n x n Hankel (moment) matrix M = (mu_{j+k}):

    D_n(s) = det M = prod_j h_j,        beta_n = h_n / h_{n-1}.

``h_sequence`` returns both at once, as one ``BetaSequence``: the betas
beta_0..beta_{n-1} and the pivots ``hs`` = h_0..h_{n-1}; ``logdet`` sums
log h_j only when it is asked for.  Readers of a given beta sequence work at its
``digits_used`` (mp.dps for a plain list) by ``_sequence_digits``; ``_check_index`` bounds n.

This is the "oracle" route against which the discrete-Painleve recursion and
every asymptotic expansion are checked.  The pivots come from Gautschi's
Chebyshev algorithm (SIAM J. Sci. Stat. Comput. 3, 1982) in O(n^2) on two rows,
never forming M; for an even weight it reads sigma_0(l) = mu_l, h_k = sigma_k(k),
sigma_k(l) = sigma_{k-1}(l+1) - beta_{k-1} sigma_{k-2}(l) with sigma_{-1} = 0.
The map from moments to pivots is exponentially ill-conditioned, so pivots are
computed at an elevated working precision and verified by recomputing with
extra guard digits; on a non-positive pivot or on disagreement between the two
runs the precision is doubled, up to a hard cap: the environment variable
DFREUD_MAX_DIGITS (default 2000), read at every ``h_sequence`` call, so it caps
every Hankel computation in the package.

``mehta_normand_logD0`` is the exact closed form of log D_n(0) (a product of
Gamma factors, valid for every n; the factors of j = 2m and 2m + 1 share their
Gamma pair, evaluated once), used as the finite-n anchor for the determinant
asymptotics.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf, mpmathify, log, pi, loggamma, fsum

from .numerics import NumericContext, PrecisionExhaustedError, DomainError, _check_n
from .moments import WeightParams, moment_table


@dataclass(frozen=True)
class BetaSequence:
    """beta_0..beta_n with the route that produced it (beta_0 = 0 always).

    ``hs`` carries the Hankel pivots h_0..h_n on the hankel route.
    ``failure_index`` is the first index where a dP_I iteration left the
    positive cone (None when it never did).
    """

    params: WeightParams
    route: str
    betas: tuple
    digits_used: int
    hs: Optional[tuple] = None
    failure_index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.betas)

    def __getitem__(self, n: int):
        return self.betas[n]


def _sequence_digits(betas) -> int:
    """The working precision of every reader of a beta sequence: a BetaSequence's
    ``digits_used``, or mp.dps for a plain sequence, which carries no digits."""
    return getattr(betas, "digits_used", mp.dps)


def _check_index(n: int, betas, lowest: int = 1) -> None:
    """DomainError unless lowest <= n and beta_{n+1} (read at index n) exists."""
    if not lowest <= n <= len(betas) - 2:
        raise DomainError(f"index {n} outside {lowest}..{len(betas) - 2}: needs beta_{n + 1}")


def _pivots(mus, n: int):
    """h_0..h_{n-1} from mu_0..mu_{2n-2} by the symmetric Chebyshev algorithm:
    (pivots, None), or (pivots up to k, k) at the first h_k <= 0."""
    older, old = [mp.zero] * (2 * n - 1), list(mus[: 2 * n - 1])
    h = [old[0]]
    if not (h[0] > 0):
        return h, 0
    for k in range(1, n):
        beta = h[k - 1] / h[k - 2] if k > 1 else mp.zero
        row = [mp.zero] * (2 * n - 1)
        for l in range(k, 2 * n - 1 - k, 2):    # sigma_k(l) = 0 for k + l odd
            row[l] = old[l + 1] - beta * older[l]
        h.append(row[k])
        if not (row[k] > 0):
            return h, k
        older, old = old, row
    return h, None


def _max_digits() -> int:
    value = os.environ.get("DFREUD_MAX_DIGITS", "2000")
    try:
        if int(value) >= 30:  # the smallest precision NumericContext accepts
            return int(value)
    except ValueError:
        pass
    raise DomainError(f"DFREUD_MAX_DIGITS must be an integer >= 30, got {value!r}")


def h_sequence(params: WeightParams, n: int, ctx: NumericContext) -> BetaSequence:
    """beta_0..beta_{n-1} and ``hs`` = h_0..h_{n-1}, the verified pivots of the
    n x n moment matrix, with beta_j = h_j / h_{j-1} and beta_0 = 0.

    Working precision starts at ctx.digits plus a conditioning guard and the
    result is accepted only when a recomputation with 40 further digits agrees
    to 10**(-digits) on every pivot; otherwise the precision doubles, and past
    the DFREUD_MAX_DIGITS cap it raises ``PrecisionExhaustedError``.
    """
    _check_n(n, 1, "Hankel order")
    max_digits = _max_digits()
    work = ctx.digits + 20 + 2 * n
    while True:
        if work > max_digits:
            raise PrecisionExhaustedError(
                f"needed more than {max_digits} digits for n={n}", index=None)
        # the check first: mpmath cuts gamma's Taylor coefficients for a lower precision
        # from a cached higher one, so a cold process builds them once, not twice
        check = _attempt_pivots(params, n, work + 40)
        result = _attempt_pivots(params, n, work)
        if result is not None and check is not None:
            with mp.workdps(30):
                agree = all(abs(a - b) <= abs(b) * mpf(10) ** (-ctx.digits)
                            for a, b in zip(result, check))
            if agree:
                with mp.workdps(work):
                    betas = [mp.zero] + [result[j] / result[j - 1] for j in range(1, n)]
                return BetaSequence(params=params, route="hankel", betas=tuple(betas),
                                    digits_used=work, hs=tuple(result))
        work *= 2


def _attempt_pivots(params: WeightParams, n: int, work: int):
    with mp.workdps(work):
        table = moment_table(params, 2 * n - 2, NumericContext(digits=work))
        h, fail = _pivots(table.values, n)
        return None if fail is not None else [+x for x in h]


def beta_from_moments(params: WeightParams, n_max: int, ctx: NumericContext) -> BetaSequence:
    """beta_0..beta_{n_max} from Hankel pivots: beta_j = h_j / h_{j-1}, beta_0 = 0."""
    _check_n(n_max, 1, "n_max")
    return h_sequence(params, n_max + 1, ctx)


def logdet(params: WeightParams, n: int, ctx: NumericContext) -> mpf:
    """log D_n(s) = sum_j log h_j over the pivots, at their working precision."""
    seq = h_sequence(params, n, ctx)
    with mp.workdps(seq.digits_used):
        return fsum(log(h) for h in seq.hs)


def mehta_normand_logD0(n: int, alpha, big_n, ctx: NumericContext) -> mpf:
    """log D_n(0): the exact Gamma-product closed form for the Gaussian weight.

        D_n(0) = (2 pi)^(n/2) / ( (2N)^(n^2/2) N^(alpha n / 2) Gamma(n+1) )
                 * prod_{j=1}^{n} Gamma((alpha+1)/2 + floor(j/2))
                                  / Gamma(1/2 + floor(j/2)) * j!

    The two Gamma factors of one half-index m = floor(j/2) serve j = 2m and
    2m + 1, so each is evaluated once.  DomainError unless n >= 1 and
    (0, alpha, N) is a valid ``WeightParams``: alpha > -1 and N > 0.
    """
    _check_n(n, 1)
    WeightParams(0, alpha, big_n)      # DomainError for alpha <= -1 or N <= 0
    with mp.workdps(ctx.digits + 15):
        a, N = mpmathify(alpha), mpmathify(big_n)
        total = (mpf(n) / 2 * log(2 * pi) - mpf(n) ** 2 / 2 * log(2 * N)
                 - a * n / 2 * log(N) - loggamma(n + 1).real)
        for m in range(n // 2 + 1):
            ratio = loggamma((a + 1) / 2 + m).real - loggamma(mpf(1) / 2 + m).real
            for j in range(max(2 * m, 1), min(2 * m + 1, n) + 1):
                total += ratio + loggamma(j + 1).real
        return +total
