"""Monic orthogonal polynomials, ladder operators, and their second-order ODE.

P_n, P_n' and P_n'' come from one O(n) pass of the three-term recurrence
P_{n+1} = z P_n - beta_n P_{n-1} and its z-derivatives.  Horner's rule over the
coefficients would cancel, as they grow and alternate (Gautschi, Orthogonal
Polynomials, OUP 2004, section 2.1); only the Gram contraction uses them.

The ladder machinery for v_0(x) = N s x^4 + N (1-s) x^2:

    A_n(z) = 4 N s z^2 + 4 N s (beta_{n+1} + beta_n) + 2 N (1-s),
    B_n(z) = 4 N s beta_n z + alpha Delta_n / z,
    P_n'(z) = beta_n A_n(z) P_{n-1}(z) - B_n(z) P_n(z),

with the supplementary conditions (S1), (S2) and the sum rule (S2') tying the
A's and B's to the string equation.  Eliminating P_{n-1} yields the linear
second-order ODE P_n'' + R_n P_n' + Q_n P_n = 0 whose coefficients R_n, Q_n
are rational in z with a movable pole at z^2 = -((1-s)/(2s) + beta_n +
beta_{n+1}); evaluation near that pole (or near z = 0 for the alpha terms)
raises PoleError rather than returning junk.

In the regime N s -> 0+, n -> infinity with kappa = (Ns)^(1/3) n fixed, the
ODE collapses to a biconfluent-Heun form; ``heun_parameters`` packages the
limit parameters and ``heun_operator_residual`` verifies the exact operator
identity behind the substitution x = sqrt(2) z^2 (see the docstring there for
the sign convention).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf, mpmathify, sqrt, fsum
from mpmath import quad  # noqa: F401  -- unused here; bench/tracer.py spans polynomials.quad

from .numerics import NumericContext, DomainError, PoleError
from .moments import WeightParams, moment_table
from .hankel import BetaSequence, beta_from_moments
from .recurrence import delta_parity


@dataclass(frozen=True)
class MonicPolynomial:
    """P_n from the recurrence; reads only betas[1..n-1] (betas[k] is beta_k)."""

    n: int
    betas: tuple


def _work_dps(betas) -> int:
    """Precision for operations on a beta sequence: never below its own."""
    return max(mp.dps, getattr(betas, "digits_used", 0))


def _recurrence(n: int, betas, z, order: int) -> tuple:
    """(P_{n-1}, P_n, P_n', P_n'')(z) cut after the ``order``-th derivative, from
    P_{k+1} = z P_k - beta_k P_{k-1}, P'_{k+1} = P_k + z P'_k - beta_k P'_{k-1}
    and P''_{k+1} = 2 P'_k + z P''_k - beta_k P''_{k-1}, starting at P_{-1} = 0."""
    p0, p1, d0, d1, e0, e1 = mp.zero, mp.one, mp.zero, mp.zero, mp.zero, mp.zero
    for k in range(n):
        b = betas[k]
        if order == 2:
            e0, e1 = e1, 2 * d1 + z * e1 - b * e0
        if order:
            d0, d1 = d1, p1 + z * d1 - b * d0
        p0, p1 = p1, z * p1 - b * p0
    return (p0, p1, d1, e1)[: order + 2]


def build_polynomials(betas: BetaSequence | Sequence, n_max: int) -> list[MonicPolynomial]:
    """P_0..P_{n_max} as views on the recurrence coefficients."""
    if len(betas) < n_max:
        raise DomainError("beta sequence too short for requested degree")
    seq = tuple(betas)
    return [MonicPolynomial(n=k, betas=seq) for k in range(n_max + 1)]


def eval_poly(poly: MonicPolynomial, z, derivative_order: int = 0) -> mpf:
    """Value of P, P' or P'' at z from one pass of the recurrence."""
    if derivative_order not in (0, 1, 2):
        raise DomainError("derivative_order must be 0, 1 or 2")
    return _recurrence(poly.n, poly.betas, mpmathify(z), derivative_order)[-1]


def _check_index(n: int, betas, lowest: int = 1) -> None:
    """DomainError unless lowest <= n and beta_{n+1} (read at index n) exists."""
    if not lowest <= n <= len(betas) - 2:
        raise DomainError(f"index {n} outside {lowest}..{len(betas) - 2}: needs beta_{n + 1}")


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderPair:
    """A_n, B_n and v_0' evaluated at a point z."""

    n: int
    z: mpf
    a_n: mpf
    b_n: mpf
    v0_prime: mpf


def _constants(params: WeightParams, z) -> tuple:
    """(4 N s, 2 N (1-s), alpha, v_0'(z)) at the working precision: all A_j, B_j use."""
    s, a, N = params.mpfs()
    c, v = 4 * N * s, 2 * N * (1 - s)
    return c, v, a, c * z ** 3 + v * z


def _ladder(j: int, z, c, v, a, betas) -> tuple:
    """(A_j(z), B_j(z)) from ``_constants``; the 1/z term of B_j exists iff j is odd."""
    _check_index(j, betas, lowest=0)
    if z == 0 and j % 2 == 1:
        raise PoleError("B_n has a 1/z pole at z = 0 for odd n")
    b_j = c * betas[j] * z
    if j % 2 == 1:
        b_j += a * delta_parity(j) / z
    return c * z * z + c * (betas[j + 1] + betas[j]) + v, b_j


def ladder_pair(n: int, z, params: WeightParams, betas) -> LadderPair:
    """Closed-form A_n(z), B_n(z), n >= 0; the 1/z term of B_n exists iff n is odd."""
    with mp.workdps(_work_dps(betas)):
        z = mpmathify(z)
        c, v, a, v0p = _constants(params, z)
        a_n, b_n = _ladder(n, z, c, v, a, betas)
        return LadderPair(n=n, z=z, a_n=a_n, b_n=b_n, v0_prime=v0p)


def _lowering(n: int, z, params: WeightParams, betas, p_prev, p, dp) -> tuple:
    """(P_n' - [beta_n A_n P_{n-1} - B_n P_n], A_n) at z from the recurrence values."""
    a_n, b_n = _ladder(n, z, *_constants(params, z)[:3], betas)
    return dp - (betas[n] * a_n * p_prev - b_n * p), a_n


def lowering_residual(n: int, z, params: WeightParams, betas,
                      polys: Optional[Sequence[MonicPolynomial]] = None) -> mpf:
    """P_n'(z) - [beta_n A_n(z) P_{n-1}(z) - B_n(z) P_n(z)].  ``polys`` is ignored:
    P_n comes from ``betas``; the parameter stays for callers passing it positionally."""
    _check_index(n, betas)
    with mp.workdps(_work_dps(betas)):
        z = mpmathify(z)
        return _lowering(n, z, params, betas, *_recurrence(n, betas, z, 1))[0]


def sum_rule_residual(n: int, params: WeightParams, betas) -> mpf:
    """Residual of the z^0 content of the sum rule (S2'):

    sum_{j=0}^{n-1} (beta_{j+1} + beta_j)
      = 4 N s beta_n [beta_{n+1}+beta_n+u][beta_n+beta_{n-1}+u]
        + alpha beta_n (1 - 2 Delta_n) - u (n + alpha Delta_n),   u = (1-s)/(2s).
    """
    if params.s == 0:
        raise DomainError("sum rule stated for s > 0")
    _check_index(n, betas)
    with mp.workdps(_work_dps(betas)):
        s, a, N = params.mpfs()
        u = (1 - s) / (2 * s)
        dn = delta_parity(n)
        lhs = fsum(betas[j + 1] + betas[j] for j in range(n))
        rhs = (4 * N * s * betas[n] * (betas[n + 1] + betas[n] + u)
               * (betas[n] + betas[n - 1] + u)
               + a * betas[n] * (1 - 2 * dn) - u * (n + a * dn))
        return lhs - rhs


def compatibility_residuals(n: int, z, params: WeightParams, betas) -> tuple:
    """Residuals (r_S1, r_S2, r_S2prime) of the supplementary conditions at z.

    (S1):  B_{n+1} + B_n = z A_n - v_0' + alpha/z
    (S2):  1 + z (B_{n+1} - B_n) = beta_{n+1} A_{n+1} - beta_n A_{n-1}
    (S2'): B_n^2 + (v_0' - alpha/z) B_n + sum_{j<n} A_j = beta_n A_n A_{n-1}
    """
    _check_index(n, betas)
    with mp.workdps(_work_dps(betas)):
        z = mpmathify(z)
        if z == 0:
            raise PoleError("the conditions carry alpha/z terms; z = 0 excluded")
        c, v, a, v0p = _constants(params, z)
        ab = [_ladder(j, z, c, v, a, betas) for j in range(n + 2)]
        (a_prev, _), (a_n, b_n), (a_next, b_next) = ab[n - 1], ab[n], ab[n + 1]
        r_s1 = (b_next + b_n) - (z * a_n - v0p + a / z)
        r_s2 = 1 + z * (b_next - b_n) - (betas[n + 1] * a_next - betas[n] * a_prev)
        r_s2p = (b_n ** 2 + (v0p - a / z) * b_n + fsum(a_j for a_j, _ in ab[:n])
                 - betas[n] * a_n * a_prev)
        return r_s1, r_s2, r_s2p


# ---------------------------------------------------------------------------
# the second-order ODE in z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeCoefficients:
    """R_n(z) and Q_n(z) of P_n'' + R_n P_n' + Q_n P_n = 0, evaluated at z."""

    n: int
    z: mpf
    r_n: mpf
    q_n: mpf


def ode_coefficients(n: int, z, params: WeightParams, betas,
                     ctx: Optional[NumericContext] = None) -> OdeCoefficients:
    """Closed-form R_n(z), Q_n(z); raises PoleError near the movable pole."""
    _check_index(n, betas)
    digits = ctx.digits if ctx is not None else mp.dps
    with mp.workdps(_work_dps(betas)):
        z = mpmathify(z)
        c, v, a, v0p = _constants(params, z)
        if c == 0:
            raise DomainError("the z-ODE coefficients are stated for s > 0")
        u = v / c       # (1-s)/(2s)
        pole = z * z + u + betas[n] + betas[n + 1]
        threshold = mpf(10) ** (-(digits // 2))
        for denom in (pole, z) if a != 0 else (pole,):
            if abs(denom) < threshold:
                raise PoleError(f"denominator {denom} within pole guard")
        sgn = (-1) ** n
        # the alpha/z and alpha/z^2 terms are left out at alpha = 0, where R_n and
        # Q_n are regular at z = 0
        a_over_z = a / z if a != 0 else mp.zero
        a_odd = a * (1 - sgn) * (v + 1 / (z * z)) / 2 if a != 0 else mp.zero
        r_n = a_over_z - v0p - 2 * z / pole
        q_n = (c * betas[n] * (1 + a * sgn)
               + c * c * betas[n] * (u + betas[n] + betas[n - 1]) * (u + betas[n] + betas[n + 1])
               - a_odd
               - (2 * c * betas[n] * z * z + a * (1 - sgn)) / pole
               + n * c * z * z)
        return OdeCoefficients(n=n, z=z, r_n=r_n, q_n=q_n)


def _ode_relative(co: OdeCoefficients, p, dp, ddp) -> mpf:
    """|P_n'' + R_n P_n' + Q_n P_n| relative to the largest of the three terms;
    0 when all three vanish (odd n at z = 0 with alpha = 0)."""
    t1, t0 = co.r_n * dp, co.q_n * p
    scale = max(abs(ddp), abs(t1), abs(t0))
    return abs(ddp + t1 + t0) / scale if scale else mp.zero


def pn_ode_residual(n: int, z, params: WeightParams, betas,
                    polys: Optional[Sequence[MonicPolynomial]] = None,
                    ctx: Optional[NumericContext] = None) -> mpf:
    """|P_n'' + R_n P_n' + Q_n P_n| relative to the largest term; ``polys`` is ignored."""
    with mp.workdps(_work_dps(betas)):
        co = ode_coefficients(n, z, params, betas, ctx)
        return _ode_relative(co, *_recurrence(n, betas, co.z, 2)[1:])


def identity_residuals(n: int, z, params: WeightParams, betas,
                       ctx: Optional[NumericContext] = None) -> dict:
    """Relative residuals from one recurrence pass: lowering / max(|P_n'|, 1), S1 / |A_n z|,
    S2 / max(|beta_{n+1} A_n|, 1), S2' / |beta_n A_n^2| and ``pn_ode_residual``'s z-ODE."""
    _check_index(n, betas)
    with mp.workdps(_work_dps(betas)):
        z = mpmathify(z)
        p_prev, p, dp, ddp = _recurrence(n, betas, z, 2)
        low, a_n = _lowering(n, z, params, betas, p_prev, p, dp)
        r1, r2, r2p = compatibility_residuals(n, z, params, betas)
        return {"lowering": abs(low) / max(abs(dp), mp.one),
                "S1": abs(r1) / abs(a_n * z),
                "S2": abs(r2) / max(abs(betas[n + 1] * a_n), mp.one),
                "S2p": abs(r2p) / abs(betas[n] * a_n ** 2),
                "ode": _ode_relative(ode_coefficients(n, z, params, betas, ctx), p, dp, ddp)}


# ---------------------------------------------------------------------------
# biconfluent Heun limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeunParameters:
    """Parameters of the biconfluent-Heun limit at kappa = (Ns)^(1/3) n fixed.

    gamma_h = -(1+alpha)/2, delta_h = sqrt(2) N (1-s)/2, eta_h = 0,
    rho_h = -(sqrt(6)/9) kappa^(3/2); q_tilde = (4 (Ns)^(1/3) n / 3)^(3/2) is
    the constant term of the limiting z-equation, whose first-order coefficient
    is r_tilde(z) = -[4 N s z^3 + 2 N (1-s) z - alpha/z].
    """

    kappa: mpf
    gamma_h: mpf
    delta_h: mpf
    eta_h: mpf
    rho_h: mpf
    q_tilde: mpf
    r_tilde: Callable


def heun_parameters(alpha, big_n, s, n: int,
                    ctx: Optional[NumericContext] = None) -> HeunParameters:
    """Heun limit; DomainError unless N s > 0 and (s, alpha, N) is a valid WeightParams."""
    digits = ctx.digits if ctx is not None else 50
    with mp.workdps(digits + 10):
        alpha, N, s = mpmathify(alpha), mpmathify(big_n), mpmathify(s)
        if N * s <= 0:
            raise DomainError("need N s > 0")
        kappa = (N * s) ** (mpf(1) / 3) * n
        q_tilde = (4 * (N * s) ** (mpf(1) / 3) * n / 3) ** (mpf(3) / 2)
        params = WeightParams(s, alpha, N)

        def r_tilde(z):
            z = mpmathify(z)
            *_, a, v0p = _constants(params, z)
            return a / z - v0p

        return HeunParameters(kappa=+kappa,
                              gamma_h=-(1 + alpha) / 2,
                              delta_h=sqrt(mpf(2)) * N * (1 - s) / 2,
                              eta_h=mp.zero,
                              rho_h=-sqrt(mpf(6)) / 9 * kappa ** (mpf(3) / 2),
                              q_tilde=+q_tilde,
                              r_tilde=r_tilde)


def heun_operator_residual(hp: HeunParameters, params: WeightParams,
                           u: Callable, du: Callable, d2u: Callable, z) -> mpf:
    """Exact operator identity behind the substitution x = sqrt(2) z^2.

    With P(z) := u(sqrt(2) z^2) and the biconfluent Heun operator written in
    its customary minus-sign normal form, carrying the N s scale on the linear
    term,

        L_bhe[u](x) = u'' - (gamma_h/x + delta_h + N s x) u' + (eta_h - rho_h/x) u,

    the limiting z-operator factors exactly:

        P'' + r_tilde(z) P' + q_tilde P  =  8 z^2 * L_bhe[u](sqrt(2) z^2).

    Returns the difference of the two sides at z (round-off for any smooth u).
    """
    z = mpmathify(z)
    s, a, N = params.mpfs()
    x = sqrt(mpf(2)) * z * z
    P = u(x)
    Pp = du(x) * 2 * sqrt(mpf(2)) * z
    Ppp = d2u(x) * 8 * z * z + du(x) * 2 * sqrt(mpf(2))
    lhs = Ppp + hp.r_tilde(z) * Pp + hp.q_tilde * P
    bhe = (d2u(x) - (hp.gamma_h / x + hp.delta_h + N * s * x) * du(x)
           + (hp.eta_h - hp.rho_h / x) * u(x))
    return lhs - 8 * z * z * bhe


# ---------------------------------------------------------------------------
# orthogonality oracle
# ---------------------------------------------------------------------------

def orthogonality_check(n_max: int, params: WeightParams,
                        ctx: NumericContext) -> list[list]:
    """Normalized Gram matrix G_jk = int P_j P_k w / sqrt(h_j h_k) from quadrature moments.

    By linearity int P_j P_k w = sum_ab c_ja c_kb mu_{a+b}, i.e. G = C M C^T
    (Gautschi, Orthogonal Polynomials, OUP 2004, section 2.1), with C the
    coefficient vectors of P_0..P_{n_max} and M the moment matrix.  The moments
    come from ``moment_table(source="quadrature")``, independent of the
    pcfd-and-recurrence moments behind the betas; the norms h_j are the Hankel
    pivots that produced the betas.  The contraction cancels more digits as
    n_max grows, so it runs at the betas' ``digits_used``.  Entries with j + k
    odd are exact zeros: every term has a zero coefficient or an odd moment.
    """
    betas = beta_from_moments(params, n_max + 1, ctx)
    with mp.workdps(betas.digits_used):
        coeffs = [[mp.one], [mp.zero, mp.one]]     # P_{n+1} = z P_n - beta_n P_{n-1}
        for n in range(1, n_max):
            coeffs.append([mp.zero] + coeffs[n])
            for i, c in enumerate(coeffs[n - 1]):
                coeffs[-1][i] -= betas[n] * c
        mus = moment_table(params, 2 * n_max, NumericContext(digits=betas.digits_used),
                           source="quadrature").values
        gram = [[mp.zero] * (n_max + 1) for _ in range(n_max + 1)]
        for k, ck in enumerate(coeffs[: n_max + 1]):
            m_ck = [fsum(c * mus[a + b] for b, c in enumerate(ck)) for a in range(k + 1)]
            for j in range(k + 1):
                g = fsum(c * m for c, m in zip(coeffs[j], m_ck))
                gram[j][k] = gram[k][j] = g / sqrt(betas.hs[j] * betas.hs[k])
        return gram
