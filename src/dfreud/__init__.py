"""dfreud: high-precision computations for the deformed Freud weight

    w(x) = |x|^alpha exp(-N [x^2 + s (x^4 - x^2)]),   alpha > -1, N > 0, s in [0,1],

interpolating between the generalized Hermite weight (s = 0) and the quartic
Freud weight (s = 1).  The package computes, cross-validates and reports on:

* moments (quadrature and parabolic-cylinder closed form),
* Hankel determinants D_n and recurrence coefficients beta_n by three
  independent routes (moment-matrix pivots, the discrete Painleve I
  recursion, asymptotic expansions in three regimes),
* the monic orthogonal polynomials, their ladder operators, compatibility
  conditions and second-order ODE, with the biconfluent-Heun limit,
* the large-n asymptotics of log D_n.

Everything runs at user-chosen decimal precision (mpmath underneath) through
an explicit NumericContext; nothing mutates global precision.
"""
from .numerics import (NumericContext, DomainError, IntegrationError,
                       PrecisionExhaustedError, PoleError, barnes_g_log,
                       exp_exp_moments, central_difference)
from .moments import WeightParams, MomentTable, mu0, moment_table
from .hankel import (BetaSequence, h_sequence, beta_from_moments, logdet,
                     mehta_normand_logD0)
from .recurrence import (SensitivityRun, beta_at_s0, beta1_initial, dpi_forward,
                         dpi_residual, beta_prime, beta_second, ode25_residual,
                         upper_bound, sensitivity_run, delta_parity)
from .asymptotics import (SmallSCoefficients, LargeNCoefficients, DoubleScalingData,
                          FluidEndpoint, small_s_coefficients, beta_small_s,
                          large_n_coefficients, beta_large_n,
                          double_scaling_coefficients, beta_double_scaling,
                          fluid_endpoint)
from .polynomials import (MonicPolynomial, LadderPair, OdeCoefficients,
                          HeunParameters, build_polynomials, eval_poly,
                          ladder_pair, lowering_residual, compatibility_residuals,
                          sum_rule_residual, ode_coefficients, pn_ode_residual,
                          identity_residuals, heun_parameters, heun_operator_residual,
                          orthogonality_check)
from .detasympt import (AppendixBCoefficients, LogDetExpansion,
                        logdet_derivative_exact, logdet_derivative_sum,
                        appendix_b_coefficients, fit_abc, logdet_expansion)
from .verification import Check, VerificationReport, run_suite

__version__ = "0.1.0"
