"""Hankel determinants and the moment-matrix route to recurrence coefficients.

The squared norms h_0, ..., h_{n-1} of the monic orthogonal polynomials are
the pivots of the n x n Hankel (moment) matrix M = (mu_{j+k}):

    D_n(s) = det M = prod_j h_j,        beta_n = h_n / h_{n-1}.

This is the "oracle" route against which the discrete-Painleve recursion and
every asymptotic expansion are checked.  The pivots come from Gautschi's
Chebyshev algorithm (SIAM J. Sci. Stat. Comput. 3, 1982) in O(n^2) on two rows,
never forming M; for an even weight it reads sigma_0(l) = mu_l, h_k = sigma_k(k),
sigma_k(l) = sigma_{k-1}(l+1) - beta_{k-1} sigma_{k-2}(l) with sigma_{-1} = 0.
The map from moments to pivots is exponentially ill-conditioned, so pivots are
computed at an elevated working precision and verified by recomputing with
extra guard digits; on a non-positive pivot or on disagreement between the two
runs the precision is doubled, up to a hard cap (default 2000 digits).

``mehta_normand_logD0`` is the exact closed form of log D_n(0) (a product of
Gamma factors, valid for every n), used as the finite-n anchor for the
determinant asymptotics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from mpmath import mp, mpf, mpmathify, log, pi, loggamma, fsum

from .numerics import NumericContext, PrecisionExhaustedError, DomainError
from .moments import WeightParams, moment_table

DEFAULT_MAX_DIGITS = 2000

Route = Literal["hankel", "dpi", "expansion_smalls", "expansion_largen",
                "expansion_double"]


@dataclass(frozen=True)
class HankelData:
    """Pivots h_0..h_{n-1} and log D_n of the order-n moment matrix."""

    params: WeightParams
    n: int
    h: tuple
    logdet: mpf
    digits_used: int


@dataclass(frozen=True)
class BetaSequence:
    """beta_0..beta_n with the route that produced it (beta_0 = 0 always).

    ``hs`` carries the Hankel norms when the route provides them.
    ``failure_index`` is the first index where a dP_I iteration left the
    positive cone (None when it never did).
    """

    params: WeightParams
    route: Route
    betas: tuple
    digits_used: int
    hs: Optional[tuple] = None
    failure_index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.betas)

    def __getitem__(self, n: int):
        return self.betas[n]


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


def h_sequence(params: WeightParams, n: int, ctx: NumericContext,
               max_digits: int = DEFAULT_MAX_DIGITS) -> HankelData:
    """h_0..h_{n-1} as verified pivots of the n x n moment matrix.

    Working precision starts at ctx.digits plus a conditioning guard and the
    result is accepted only when a recomputation with 40 further digits agrees
    to 10**(-digits) on every pivot; otherwise the precision doubles.
    """
    if n < 1:
        raise DomainError("Hankel order must be >= 1")
    work = ctx.digits + 20 + 2 * n
    while True:
        if work > max_digits:
            raise PrecisionExhaustedError(
                f"needed more than {max_digits} digits for n={n}", index=None)
        result = _attempt_pivots(params, n, work)
        check = _attempt_pivots(params, n, work + 40)
        if result is not None and check is not None:
            with mp.workdps(30):
                agree = all(abs(a - b) <= abs(b) * mpf(10) ** (-ctx.digits)
                            for a, b in zip(result, check))
            if agree:
                with mp.workdps(work):
                    logdet = fsum(log(x) for x in result)
                return HankelData(params=params, n=n, h=tuple(result),
                                  logdet=logdet, digits_used=work)
        work *= 2


def _attempt_pivots(params: WeightParams, n: int, work: int):
    with mp.workdps(work):
        table = moment_table(params, 2 * n - 2, NumericContext(digits=work))
        h, fail = _pivots(table.values, n)
        return None if fail is not None else [+x for x in h]


def beta_from_moments(params: WeightParams, n_max: int, ctx: NumericContext,
                      max_digits: int = DEFAULT_MAX_DIGITS) -> BetaSequence:
    """beta_0..beta_{n_max} from Hankel pivots: beta_j = h_j / h_{j-1}, beta_0 = 0."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    data = h_sequence(params, n_max + 1, ctx, max_digits=max_digits)
    with mp.workdps(data.digits_used):
        betas = [mp.zero] + [data.h[j] / data.h[j - 1] for j in range(1, n_max + 1)]
    return BetaSequence(params=params, route="hankel", betas=tuple(betas),
                        digits_used=data.digits_used, hs=data.h)


def logdet(params: WeightParams, n: int, ctx: NumericContext) -> mpf:
    """log D_n(s) via the pivot product."""
    return h_sequence(params, n, ctx).logdet


def mehta_normand_logD0(n: int, alpha, big_n, ctx: NumericContext) -> mpf:
    """log D_n(0): the exact Gamma-product closed form for the Gaussian weight.

        D_n(0) = (2 pi)^(n/2) / ( (2N)^(n^2/2) N^(alpha n / 2) Gamma(n+1) )
                 * prod_{j=1}^{n} Gamma((alpha+1)/2 + floor(j/2))
                                  / Gamma(1/2 + floor(j/2)) * j!
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    with mp.workdps(ctx.digits + 15):
        a, N = mpmathify(alpha), mpmathify(big_n)
        total = (mpf(n) / 2 * log(2 * pi) - mpf(n) ** 2 / 2 * log(2 * N)
                 - a * n / 2 * log(N) - loggamma(n + 1).real)
        for j in range(1, n + 1):
            half = j // 2
            total += (loggamma((a + 1) / 2 + half).real
                      - loggamma(mpf(1) / 2 + half).real
                      + loggamma(j + 1).real)
        return +total
