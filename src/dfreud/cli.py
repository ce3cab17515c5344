"""Command-line front end: parameter sweeps, verification suites, data emission.

Subcommands
-----------
moments      mu_0..mu_max by closed form or quadrature
beta         beta_n by one route of the route table
hankel-det   Hankel pivots h_j and log D_n
poly-ode     relative ladder / compatibility / ODE residuals on a z-grid
logdet       exact d/ds log D_n, or the large-n displays (ratio_10, D0, D1)
sensitivity  perturbed dP_I trajectories (plot-ready long format)
verify       run a named verification suite, emit a JSON report
sweep        beta_n over an s-grid (plot-ready)

beta and sweep read the library's route table through ``asymptotics.beta_values``,
and beta --method takes its choices from it.  At s = 0 the routes that raise,
and sensitivity, exit 2; sweep prints the closed form there for either method.

Shared flags: --s --alpha --N --digits --format csv|json --out PATH.
Values are emitted as decimal strings carrying min(digits, 50) significant
digits (poly-ode's round-off residuals: 3); CSV always starts with a header row.
Exit codes: 0 success / all checks passed, 1 check failure, 2 usage or I/O
error.  The environment variable DFREUD_MAX_DIGITS caps the precision escalation
of every Hankel computation (``hankel.h_sequence``, default 2000), verify and
logdet included; a value that is not an integer >= 30 is a usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from mpmath import mp, mpmathify, nstr, log

from .numerics import NumericContext, DomainError, to_fraction, fraction_to_mpf
from .moments import WeightParams, moment_table
from . import hankel, recurrence, asymptotics, polynomials, detasympt
from .verification import run_suite, SUITES


def _decimal(x, digits: int) -> str:
    with mp.workdps(max(digits, 15)):
        return nstr(mpmathify(x), min(digits, 50))


def _emit(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str,
          out: Optional[str], meta: Optional[dict] = None) -> None:
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"columns": list(headers),
               "rows": [list(row) for row in rows]}
        if meta:
            doc["meta"] = meta
        text = json.dumps(doc, indent=2) + "\n"
    _write(text, out)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> WeightParams:
    return WeightParams(args.s, args.alpha, args.N)


def _add_shared(parser: argparse.ArgumentParser, digits_default: int = 60) -> None:
    parser.add_argument("--s", default="0.5", help="deformation parameter in [0,1]")
    parser.add_argument("--alpha", default="0", help="singularity exponent, > -1")
    parser.add_argument("--N", default="1", help="scale parameter, > 0")
    parser.add_argument("--digits", type=int, default=digits_default,
                        help="decimal working precision")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    params = _params(args)
    ctx = NumericContext(digits=args.digits)
    source = "quadrature" if args.source == "quad" else "closed_form"
    table = moment_table(params, args.max_order, ctx, source=source)
    rows = [(j, _decimal(table.values[j], args.digits)) for j in range(args.max_order + 1)]
    _emit(("j", "mu_j"), rows, args.format, args.out,
          meta={"source": source, "digits": args.digits})
    return 0


def cmd_beta(args) -> int:
    if args.N is None:      # double scaling needs r = n/N <= 1, so N = n_max there
        args.N = args.n_max if args.method == "double" else "1"
    ns = range(args.n_max + 1)
    values = asymptotics.beta_values(args.method, _params(args), ns,
                                     NumericContext(digits=args.digits))
    rows = [(n, _decimal(values[n], args.digits)) for n in ns]
    _emit(("n", "beta_n"), rows, args.format, args.out, meta={"method": args.method})
    return 0


def cmd_hankel_det(args) -> int:
    params = _params(args)
    ctx = NumericContext(digits=args.digits)
    data = hankel.h_sequence(params, args.n, ctx)
    rows = []
    with mp.workdps(data.digits_used):
        running = mp.zero
        for j, h in enumerate(data.hs):
            running += log(h)
            rows.append((j, _decimal(h, args.digits), _decimal(running, args.digits)))
    _emit(("j", "h_j", "log_D_{j+1}"), rows, args.format, args.out,
          meta={"digits_used": data.digits_used})
    return 0


def cmd_poly_ode(args) -> int:
    params = _params(args)
    ctx = NumericContext(digits=args.digits)
    zgrid = [z.strip() for z in args.z_grid.split(",") if z.strip()]
    betas = hankel.beta_from_moments(params, args.n_max + 2, ctx)
    rows = [(n, zs, *(_decimal(r, 3) for r in
                      polynomials.identity_residuals(n, zs, params, betas, ctx).values()))
            for n in range(1, args.n_max + 1) for zs in zgrid]
    _emit(("n", "z", "lowering", "S1", "S2", "S2prime", "ode_rel"),
          rows, args.format, args.out)
    return 0


def cmd_logdet(args) -> int:
    params = _params(args)
    ctx = NumericContext(digits=args.digits)
    if args.quantity == "dlogds":
        rows = [(n, _decimal(detasympt.logdet_derivative_exact(n, params, ctx), args.digits))
                for n in range(1, args.n_max + 1)]
        _emit(("n", "dlogD_ds"), rows, args.format, args.out)
    else:
        rows = []
        for n in range(1, args.n_max + 1):
            exp_data = detasympt.logdet_expansion(args.quantity, n, args.r,
                                                  args.alpha, ctx=ctx)
            rows.append((n, exp_data.parity, _decimal(exp_data.value, args.digits),
                         *(_decimal(c, args.digits) for c in exp_data.terms().values())))
        _emit(("n", "parity", "value", "c_n2", "c_n", "c_logn", "c_1", "c_invn"),
              rows, args.format, args.out)
    return 0


def cmd_sensitivity(args) -> int:
    params = _params(args)
    ctx = NumericContext(digits=args.digits)
    epsilons = [e.strip() for e in args.epsilons.split(",") if e.strip()]
    rows = []
    for eps in epsilons:
        run = recurrence.sensitivity_run(params, eps, args.n_max, ctx)
        fail = "" if run.first_failure_index is None else run.first_failure_index
        for n, beta in enumerate(run.trajectory):
            rows.append((eps, n, _decimal(beta, args.digits), fail))
    _emit(("epsilon", "n", "beta_n", "first_failure_index"),
          rows, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, digits=args.digits)
    _write(report.to_json() + "\n", args.out)
    return 0 if report.all_passed else 1


def cmd_sweep(args) -> int:
    ctx = NumericContext(digits=args.digits)
    n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not n_list:
        raise DomainError("empty n list")
    if args.steps < 1:
        raise DomainError("need at least one grid point")
    # exact rational grid points, so that --s-to 1 really ends on s = 1
    s_from, s_to = to_fraction(args.s_from), to_fraction(args.s_to)
    with mp.workdps(args.digits):
        rows = []
        for i in range(args.steps):
            sv = s_from + (s_to - s_from) * i / max(args.steps - 1, 1)
            params = WeightParams(sv, args.alpha, args.N)
            if params.s == 0:      # the closed form: largen has no value at s = 0
                values = {n: fraction_to_mpf(recurrence.beta_at_s0(
                    n, params.alpha, params.big_n)) for n in n_list}
            else:
                values = asymptotics.beta_values(args.method, params, n_list, ctx)
            for n in n_list:
                rows.append((_decimal(sv, args.digits), n, _decimal(values[n], args.digits)))
    _emit(("s", "n", "beta_n"), rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfreud",
        description="High-precision computations for the deformed Freud weight")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment table mu_0..mu_max")
    _add_shared(p)
    p.add_argument("--max-order", type=int, default=10)
    p.add_argument("--source", choices=("closed", "quad"), default="closed")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("beta", help="recurrence coefficients by a chosen route")
    _add_shared(p)
    p.add_argument("--method", default="hankel",
                   choices=(*asymptotics.SEQUENCE_ROUTES, *asymptotics.EXPANSION_ROUTES))
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=cmd_beta, N=None)       # --N: 1, or n-max for double

    p = sub.add_parser("hankel-det", help="Hankel pivots and log determinant")
    _add_shared(p)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(func=cmd_hankel_det)

    p = sub.add_parser("poly-ode", help="ladder and ODE residuals on a z-grid")
    _add_shared(p, digits_default=80)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--z-grid", default="-0.3,0.3,-1.1,1.1,2.7")
    p.set_defaults(func=cmd_poly_ode)

    p = sub.add_parser("logdet", help="exact d/ds log D_n or large-n displays")
    _add_shared(p)
    p.add_argument("--quantity", choices=("dlogds", "ratio_10", "D0", "D1"),
                   default="dlogds")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--r", default="1", help="r = n/N for the displays")
    p.set_defaults(func=cmd_logdet)

    p = sub.add_parser("sensitivity", help="perturbed dP_I trajectories")
    _add_shared(p, digits_default=500)
    p.add_argument("--epsilons", default="0,1e-1,1e-3,1e-5")
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(sorted(SUITES)), default="all")
    p.add_argument("--digits", type=int, default=None,
                   help="override per-check default precision")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="beta_n over an s-grid (plot-ready)")
    _add_shared(p)
    p.add_argument("--s-from", default="0.05")
    p.add_argument("--s-to", default="1")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--n-list", default="1,2,5,10")
    p.add_argument("--method", choices=("hankel", "largen"), default="hankel")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # computational failure (precision cap, non-convergence): check failure
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
