import argparse
import json
from dataclasses import asdict

import pytest
from mpmath import mp, mpf, mpmathify, sqrt

from dfreud.asymptotics import EXPANSION_ROUTES, SEQUENCE_ROUTES
from dfreud.cli import build_parser, main
from dfreud.numerics import fraction_to_mpf
from dfreud.recurrence import beta_at_s0
from dfreud.verification import VerificationReport
from conftest import VERIFY_GOLDEN


ROUTES = [*SEQUENCE_ROUTES, *EXPANSION_ROUTES]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBeta:
    def test_hankel_gaussian_halves(self, capsys, monkeypatch):
        # s=0, alpha=0, N=1: rows n, n/2, from the Hankel route itself
        import dfreud.hankel as hankel
        route, calls = hankel.beta_from_moments, []
        monkeypatch.setattr(hankel, "beta_from_moments",
                            lambda *a, **k: calls.append(a[1]) or route(*a, **k))
        code, out, _ = run_cli(capsys, "beta", "--method", "hankel", "--s", "0",
                               "--alpha", "0", "--N", "1", "--n-max", "5")
        assert code == 0
        assert calls == [5]
        lines = out.strip().splitlines()
        assert lines[0] == "n,beta_n"
        values = [mpmathify(line.split(",")[1]) for line in lines[1:]]
        with mp.workdps(40):
            for n, v in enumerate(values):
                assert abs(v - mpf(n) / 2) < mpf(10) ** -30

    @pytest.mark.parametrize("method", ["dpi", "largen", "double"])
    def test_dpi_at_s0_is_usage_error(self, capsys, method):
        # each route raises its own DomainError at s = 0
        code, _, err = run_cli(capsys, "beta", "--method", method, "--s", "0")
        assert code == 2
        assert "error:" in err

    def test_method_choices_are_the_route_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["beta"]._actions if a.dest == "method")
        assert list(method.choices) == ROUTES

    @pytest.mark.parametrize("method", ROUTES)
    def test_n_max_zero_calls_no_route(self, capsys, method):
        # beta_0 = 0 on every route; double's default N = n-max = 0 is outside the domain
        code, out, err = run_cli(capsys, "beta", "--method", method, "--n-max", "0")
        if method == "double":
            assert code == 2 and "N must be positive" in err
        else:
            assert code == 0
            assert out == "n,beta_n\n0,0.0\n"

    def test_largen_lew_quarles_row(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--method", "largen", "--s", "1",
                               "--alpha", "0", "--N", "1", "--n-max", "10000",
                               "--digits", "40")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "10000"
        with mp.workdps(40):
            ratio = mpmathify(last[1]) / 100
            assert abs(ratio - mpf("0.2886751")) < mpf(10) ** -3

    def test_dpi_route_json(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--method", "dpi", "--s", "0.5",
                               "--alpha", "1", "--N", "1", "--n-max", "6",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "beta_n"]
        assert len(doc["rows"]) == 7


class TestMoments:
    def test_csv_header_and_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--s", "0.5", "--alpha", "1",
                               "--N", "1", "--max-order", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,mu_j"
        assert lines[2].split(",")[1] == "0.0"   # mu_1 exactly zero

    def test_quadrature_source_agrees(self, capsys):
        code, out_c, _ = run_cli(capsys, "moments", "--s", "0.5", "--alpha", "1",
                                 "--max-order", "4", "--digits", "40")
        code2, out_q, _ = run_cli(capsys, "moments", "--s", "0.5", "--alpha", "1",
                                  "--max-order", "4", "--digits", "40",
                                  "--source", "quad")
        assert code == code2 == 0
        with mp.workdps(45):
            for lc, lq in zip(out_c.strip().splitlines()[1:],
                              out_q.strip().splitlines()[1:]):
                vc, vq = mpmathify(lc.split(",")[1]), mpmathify(lq.split(",")[1])
                assert abs(vc - vq) <= mpf(10) ** -25 * max(abs(vc), 1)


class TestHankelDet:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "hankel-det", "--s", "0", "--alpha", "0",
                               "--N", "1", "--n", "3", "--digits", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,h_j,log_D_{j+1}"
        with mp.workdps(40):
            from mpmath import pi, log
            final = mpmathify(lines[-1].split(",")[2])
            assert abs(final - log(pi ** mpf(1.5) / 4)) < mpf(10) ** -25


class TestPolyOde:
    """Every column is a relative residual, printed to 3 significant digits, and
    sits below 10^-(digits - 10)."""

    @staticmethod
    def check_table(capsys, digits, *argv):
        code, out, _ = run_cli(capsys, "poly-ode", *argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,z,lowering,S1,S2,S2prime,ode_rel"
        assert len(lines) > 1
        for line in lines[1:]:
            for cell in line.split(",")[2:]:
                assert len(cell.split("e")[0].replace(".", "").lstrip("0")) <= 3
                assert mpmathify(cell) <= mpf(10) ** -(digits - 10)

    def test_residual_columns_small(self, capsys):
        self.check_table(capsys, 60, "--s", "0.5", "--alpha", "2", "--N", "1",
                         "--n-max", "4", "--z-grid", "0.9,1.7", "--digits", "60")

    def test_defaults(self, capsys):
        self.check_table(capsys, 80)


class TestLogdet:
    def test_dlogds(self, capsys):
        code, out, _ = run_cli(capsys, "logdet", "--quantity", "dlogds",
                               "--s", "0.5", "--alpha", "1", "--N", "2",
                               "--n-max", "4", "--digits", "40")
        assert code == 0
        assert out.splitlines()[0] == "n,dlogD_ds"

    def test_display_terms(self, capsys):
        code, out, _ = run_cli(capsys, "logdet", "--quantity", "D0", "--alpha",
                               "1", "--r", "1", "--n-max", "4", "--digits", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[1] == "odd"
        assert lines[2].split(",")[1] == "even"


class TestSensitivity:
    def test_long_format(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--s", "0.5", "--alpha", "3",
                               "--N", "1", "--epsilons", "0,1e-3", "--n-max", "25",
                               "--digits", "120")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,n,beta_n,first_failure_index"
        clean = [l for l in lines[1:] if l.startswith("0,")]
        bumped = [l for l in lines[1:] if l.startswith("1e-3,")]
        assert len(clean) == 26
        assert all(l.rsplit(",", 1)[1] == "" for l in clean)       # no failure
        assert all(l.rsplit(",", 1)[1] != "" for l in bumped)      # finite index

    def test_s0_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--s", "0")
        assert code == 2


class TestSweep:
    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--alpha", "1", "--N", "1",
                               "--s-from", "0.2", "--s-to", "1", "--steps", "3",
                               "--n-list", "1,2", "--digits", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,n,beta_n"
        assert len(lines) == 1 + 3 * 2

    def test_default_grid_ends_on_s_one(self, capsys):
        # a grid built in mpf ended on 1 + 1.6e-61, which WeightParams rejects
        code, out, _ = run_cli(capsys, "sweep", "--n-list", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 10
        assert lines[-1].startswith("1.0,1,")

    def test_empty_n_list(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n-list", "")
        assert code == 2

    @pytest.mark.parametrize("method, route", [("hankel", "hankel.beta_from_moments"),
                                               ("largen", "asymptotics.beta_large_n")],
                             ids=["hankel", "largen"])
    def test_negative_n_rejected_before_any_route(self, capsys, monkeypatch, method, route):
        # -1 used to read beta_3 through Python's negative index on the hankel route
        calls = []
        monkeypatch.setattr(f"dfreud.{route}", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "sweep", "--method", method, "--n-list=3,-1",
                                 "--steps", "1", "--s-from", "0.5")
        assert code == 2 and out == "" and "n >= 0" in err
        assert calls == []

    def test_s0_rows_are_the_closed_form(self, capsys):
        # largen has no value at s = 0, so sweep prints beta_at_s0 there
        code, out, _ = run_cli(capsys, "sweep", "--s-from", "0", "--s-to", "1/2",
                               "--steps", "2", "--method", "largen", "--n-list", "1,2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(s, n) for s, n, _ in rows] == [("0.0", "1"), ("0.0", "2"),
                                                ("0.5", "1"), ("0.5", "2")]
        for _, n, beta in rows[:2]:
            assert mpmathify(beta) == fraction_to_mpf(beta_at_s0(int(n), 0, 1))

    def test_zero_steps_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--steps", "0")
        assert code == 2 and out == "" and "grid point" in err

    def test_largen_prints_zero_at_n0(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--method", "largen", "--n-list", "0,3",
                               "--s-from", "0.5", "--steps", "2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 4
        assert all(mpmathify(beta) == 0 for _, n, beta in rows if n == "0")
        assert all(mpmathify(beta) > 0 for _, n, beta in rows if n == "3")


class TestVerify:
    def test_ode_suite_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "--suite", "ode",
                             "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        report = VerificationReport.from_json(text)
        assert report.suite == "ode"
        assert report.all_passed
        # lossless round trip
        assert VerificationReport.from_json(report.to_json()).checks == report.checks
        # every row as in the golden `verify --suite all` report
        assert [asdict(c) for c in report.checks] == [
            row for cid, row in VERIFY_GOLDEN.items() if cid.startswith("ode.")]

    def test_cone_exit_under_an_override_is_reported(self, capsys, tmp_path):
        # at 60 digits the dP_I run of criterion 3 leaves the positive cone before
        # n = 300: a failed check in the report, not an uncaught IndexError
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "--suite", "asympt", "--digits", "60",
                             "--out", str(out_path))
        assert code == 1
        checks = {c.id: c for c in VerificationReport.from_json(out_path.read_text()).checks}
        assert not checks["3.dpi-vs-expansion"].passed
        assert checks["3.dpi-vs-expansion"].measured == "+inf"

    def test_exit_code_reflects_failure(self, capsys, monkeypatch):
        import dfreud.verification as verification
        from dfreud.verification import Check

        def failing(digits=None):
            return [Check.build("x", "always fails", 1, 0)]

        monkeypatch.setitem(verification.SUITES, "ode", (failing,))
        code, out, _ = run_cli(capsys, "verify", "--suite", "ode")
        assert code == 1

    def test_type_error_in_a_criterion_propagates(self, monkeypatch):
        import dfreud.verification as verification
        calls = []

        def broken(digits=60):
            calls.append(digits)
            raise TypeError("bug inside a criterion")

        monkeypatch.setitem(verification.SUITES, "ode", (broken,))
        with pytest.raises(TypeError, match="bug inside"):
            verification.run_suite("ode", digits=40)
        assert calls == [40]  # not retried at the default precision

    def test_every_check_takes_digits(self):
        import inspect
        import dfreud.verification as verification
        for fn in verification.SUITES["all"]:
            assert "digits" in inspect.signature(fn).parameters, fn.__name__


class TestPrecisionCap:
    def test_env_cap_triggers_failure_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("DFREUD_MAX_DIGITS", "50")
        code, _, err = run_cli(capsys, "beta", "--method", "hankel", "--s", "0.5",
                               "--alpha", "1", "--N", "1", "--n-max", "25",
                               "--digits", "60")
        assert code == 1
        assert "failed" in err

    @pytest.mark.parametrize("argv", [
        ("logdet", "--n-max", "3", "--digits", "30"),
        ("verify", "--suite", "ode")], ids=["logdet", "verify"])
    def test_cap_reaches_every_hankel_call(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("DFREUD_MAX_DIGITS", "40")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "needed more than 40 digits" in err and out == ""

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_invalid_cap_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DFREUD_MAX_DIGITS", value)
        code, out, err = run_cli(capsys, "hankel-det", "--n", "3")
        assert code == 2
        assert "DFREUD_MAX_DIGITS" in err
        assert out == ""
