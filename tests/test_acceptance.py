"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each test runs one numbered criterion from ``dfreud.verification`` (the same
functions behind ``dfreud verify``) and prints a PASS/FAIL line per check.
Tolerances and precisions are fixed inside the criterion functions, and
every check must reproduce its row of ``golden/verify_all.json`` (the
``verify --suite all`` report at the default precisions) exactly, so a change
of any measured digit is deliberate.
"""
from dataclasses import asdict

import pytest

from dfreud import verification as V
from conftest import VERIFY_GOLDEN


def _run(criterion, label):
    checks = criterion()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"ACCEPTANCE {label} [{status}] {check.id}: measured={check.measured} "
              f"threshold={check.threshold} -- {check.description}")
    failed = [c for c in checks if not c.passed]
    assert not failed, f"criterion {label}: {[c.id for c in failed]} failed"
    for check in checks:
        assert asdict(check) == VERIFY_GOLDEN[check.id], check.id


def test_criterion_01_gaussian_closure():
    """beta_n(0; alpha, N) = (n + alpha Delta_n)/(2N) to 1e-100 at 120 digits."""
    _run(V.criterion_1, "1")


def test_criterion_01_threshold_follows_precision():
    """The closure threshold is 10^-(digits - 20): 1e-100 at the default 120
    digits, and a 60-digit run (which measures about 1e-81) passes."""
    assert V.criterion_1()[0].threshold == "1.0e-100"
    assert all(check.passed for check in V.criterion_1(digits=60))


def test_criterion_02_cross_route_agreement():
    """Hankel vs dP_I relative difference < 1e-50 for n <= 30 at 150 digits."""
    _run(V.criterion_2, "2")


def test_criterion_03_lew_quarles():
    """Lew-Quarles limit at n = 10^4 and dP_I at n = 300 vs the expansion."""
    _run(V.criterion_3, "3")


def test_criterion_03_cone_exit_is_a_failed_check():
    """At 60 and at 30 digits the dP_I run leaves the positive cone before
    n = 300; the comparison is then a failed check with measured = inf, not an
    IndexError, while the Lew-Quarles check on the same context still passes."""
    for digits in (60, 30):
        lew_quarles, dpi = V.criterion_3(digits=digits)
        assert lew_quarles.id == "3.lew-quarles" and lew_quarles.passed
        assert dpi.id == "3.dpi-vs-expansion"
        assert not dpi.passed and dpi.measured == "+inf"


@pytest.mark.parametrize("criterion", [V.criterion_4, V.criterion_10, V.ode_invariants],
                         ids=lambda fn: fn.__name__)
def test_override_at_30_digits_passes(criterion):
    """The expansions, the fit and the s-ODE checks run on the criterion's own
    30-digit context and all pass; the beta' central difference keeps its
    fixed 80 digits, without which ode.beta-prime-vs-fd fails here."""
    failed = [c.id for c in criterion(digits=30) if not c.passed]
    assert not failed


def test_criterion_04_remainder_orders():
    """O(s^4), O(n^{-7/2}) and O(N^{-3}) remainder-order measurements."""
    _run(V.criterion_4, "4")


def test_criterion_05_upper_bound():
    """beta_n below the closed-form bound on the fixed 14-point grid, n <= 30."""
    _run(V.criterion_5, "5")


def test_criterion_06_mrs_quarter():
    """|beta_n / a_mu^2 - 1/4| < 2/n at n in {100, 200}."""
    _run(V.criterion_6, "6")


def test_criterion_07_ladder_ode_residuals():
    """Lowering, compatibility and z-ODE residuals < 1e-20 for n <= 15."""
    _run(V.criterion_7, "7")


def test_criterion_08_orthogonality():
    """Normalized off-diagonal inner products < 1e-30 for j, k <= 8."""
    _run(V.criterion_8, "8")


def test_criterion_09_logdet_derivative():
    """Exact d/ds log D_8 vs finite differences, agreement < 1e-20."""
    _run(V.criterion_9, "9")


def test_criterion_10_coefficient_functions():
    """A-integral to 1e-8 at r in {0.9, 1}; N-fit recovers A, B, C within 2%."""
    _run(V.criterion_10, "10")


def test_criterion_11_d0_asymptotics():
    """D_n(0) display error shrinks ~4x from n=20 to n=40 (both parities)."""
    _run(V.criterion_11, "11")


def test_criterion_12_sensitivity():
    """Perturbed dP_I runs fail at finite, weakly |eps|-decreasing indices."""
    _run(V.criterion_12, "12")
