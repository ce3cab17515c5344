"""Seeded task generators and task runners for the three benchmark workloads.

A task is a plain record of ``(kind, s, alpha, N, n, digits)`` plus, for two
kinds, a sign or a revisit flag.  The library only ever sees those generated
values.  Each workload is a list of *cells*: parameter boxes, one task drawn
from each box per *block*.  The stream of tasks is block after block, each
block shuffled, so every run meets the same mix of task kinds and costs in
any window of a few blocks, whatever the seed.  That is what keeps the
medians and the p90 of a run steady from seed to seed while the points
themselves change.

Why these workloads:

* ``hankel_sweep`` -- ``beta_from_moments`` over a parameter sweep, the path
  of ``dfreud beta --method hankel`` and ``dfreud sweep``.  The moment table
  and the pivots do almost all of the work; no point repeats, so a cache
  gains nothing.  Small s with large N makes ``pcfd`` slow (its argument is
  z = N(1-s)/sqrt(2Ns)); those points are about a fifth of the tasks and
  form the p90 tail.
* ``fast_routes`` -- the routes that skip the Hankel matrix: dP_I tables,
  large-n tables (a quarter of them revisit a point, so the string
  coefficient cache is hit as in ``dfreud sweep --method largen``),
  double-scaling and small-s values, and the dP_I sensitivity experiment.
* ``identity_checks`` -- cheap identity checks (ladder / compatibility /
  z-ODE residuals, the exact d/ds log D_n against its summed form, the
  log D_n(0) display, quadrature-source moment tables), with a Gram
  ``orthogonality_check`` as one task in eight, so that p90 falls inside
  the Gram tasks while the median stays on the cheap paths.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import dfreud.asymptotics as asymptotics
import dfreud.detasympt as detasympt
import dfreud.hankel as hankel
import dfreud.moments as moments
import dfreud.polynomials as polynomials
import dfreud.recurrence as recurrence
from dfreud.numerics import NumericContext
from mpmath import mp, mpmathify

@dataclass(frozen=True)
class Task:
    """One generated unit of work; ``s``, ``alpha`` and ``N`` are exact decimals."""

    kind: str
    s: str
    alpha: str
    N: str
    n: int
    digits: int
    sign: int = 1          # sensitivity: sign of the three perturbations
    revisit: bool = False  # large-n: the point was already used in this run

    def params(self) -> "moments.WeightParams":
        return moments.WeightParams(self.s, self.alpha, self.N)

    def ctx(self) -> NumericContext:
        return NumericContext(digits=self.digits)

    def point(self) -> tuple:
        return (self.kind, self.s, self.alpha, self.N, self.n, self.digits, self.sign)


# ---------------------------------------------------------------------------
# input properties whose shares the benchmark reports
# ---------------------------------------------------------------------------

SMALL_S, LARGE_N = Fraction(2, 100), Fraction(4)


def properties(task: Task) -> dict:
    s, alpha, N = Fraction(task.s), Fraction(task.alpha), Fraction(task.N)
    return {
        "small_s_large_N": bool(0 < s <= SMALL_S and N >= LARGE_N),
        "alpha_negative": bool(alpha < 0),
        "s_edge": bool(s == 0 or s == 1),
        "repeated_point": task.revisit,
    }


def shares(tasks) -> dict:
    tasks = list(tasks)
    out = {}
    for key in ("small_s_large_N", "alpha_negative", "s_edge", "repeated_point"):
        hits = sum(1 for t in tasks if properties(t)[key])
        out[key] = hits / len(tasks) if tasks else 0.0
    return out


# ---------------------------------------------------------------------------
# cells: (kind, s, alpha, N, n, digits); a pair (lo, hi) is drawn uniformly,
# a scalar is used as is, a list is a uniform choice
# ---------------------------------------------------------------------------

_HANKEL_SLOW = ("hankel", (0.008, 0.012), (1, 3), (4, 6), (9, 11), 100)

CELLS = {
    # 13 ordinary points and 3 slow ones (small s, large N) per block of 16
    "hankel_sweep": [
        ("hankel", "0", (-0.9, -0.1), (0.25, 8), (40, 50), 100),
        ("hankel", "1", (0, 5), (0.25, 8), (50, 60), 60),
        ("hankel", "1", (-0.9, 0), (0.25, 2), (20, 30), 30),
        ("hankel", (0.05, 0.15), (-0.9, -0.1), (0.25, 1), (10, 14), 30),
        ("hankel", (0.15, 0.35), (0, 1.5), (1, 3), (10, 14), 60),
        ("hankel", (0.35, 0.6), (1.5, 3), (0.5, 2), (14, 18), 30),
        ("hankel", (0.6, 0.85), (3, 5), (2, 8), (10, 12), 100),
        ("hankel", (0.85, 0.995), (-0.5, 1), (0.25, 1), (12, 16), 60),
        ("hankel", (0.02, 0.05), (0.5, 2.5), (0.5, 2), (10, 12), 100),
        ("hankel", (0.4, 0.7), (-0.9, -0.2), (3, 6), (10, 14), 30),
        ("hankel", (0.005, 0.02), (0, 3), (0.25, 1), (10, 14), 60),
        ("hankel", (0.2, 0.5), (2, 4), (0.25, 0.75), (18, 22), 30),
        ("hankel", (0.6, 0.9), (-0.9, -0.3), (1, 4), (10, 12), 30),
        _HANKEL_SLOW, _HANKEL_SLOW, _HANKEL_SLOW,
    ],
    # per block of 19: 12 double-scaling and small-s values (they hold the
    # median), 2 dP_I tables, 4 large-n tables (one a revisit) and one
    # sensitivity experiment; p90 falls inside the fresh large-n tables
    "fast_routes": [
        ("dpi_table", (0.3, 0.7), (-0.5, 2), (0.5, 2), (200, 300), 100),
        ("dpi_table", "1", (0, 3), (0.5, 2), (250, 300), 300),
        ("largen_table", (0.5, 1), (-0.5, 2), (0.25, 1), (150, 300), 50),
        ("largen_table", (0.25, 0.5), (0, 2), (0.25, 0.5), (200, 300), 50),
        ("largen_table", (0.8, 1), (1, 2), (1, 2), (101, 200), 50),
        ("largen_revisit", None, None, None, (101, 300), 50),
        ("sensitivity", (0.35, 0.4), (0, 1), (0.5, 1), 100, 500),
    ] + [("double", (0.4, 1), (0.3, 1.5), (16, 24), None, 50)] * 6
      + [("smalls", (0.001, 0.005), (-0.5, 2), (0.5, 2), 8, 50)] * 6,
    # per block of 16: 14 cheap identity checks and 2 Gram matrices (one in
    # eight), so p90 falls inside the Gram tasks
    "identity_checks": (
        [("residuals", (0.3, 1), (0, 3), (0.5, 2), (4, 8), 30)] * 2
        + [("residuals", (0.5, 1), (-0.6, -0.1), (0.5, 1), (4, 8), 30)] * 2
        + [("dlogds", (0.3, 1), (-0.5, 3), (0.5, 2), (4, 10), 60)] * 3
        + [("logd0", "0", (0.5, 1.2), None, (12, 20), 60)] * 4
        + [("quad_moments", (0.2, 1), (0, 3), (0.5, 2), (2, 3), 30)] * 2
        + [("quad_moments", "0", (-0.6, -0.1), (0.5, 2), (2, 3), 30)]
        + [("gram", (0.3, 1), (-0.6, -0.4), (0.5, 2), 2, 30),
           ("gram", (0.3, 1), (0, 3), (0.5, 2), 2, 35)]),
}

#: the cell each workload's warm-up task is drawn from (cheap, fixed cost).
WARMUP_CELL = {"hankel_sweep": 2, "fast_routes": 8, "identity_checks": 7}


def _draw(rng, spec, places):
    if spec is None:
        return None
    if isinstance(spec, list):
        spec = rng.choice(spec)
    if isinstance(spec, tuple):
        lo, hi = spec
        if isinstance(lo, int) and isinstance(hi, int) and places == 0:
            return rng.randint(lo, hi)
        return f"{rng.uniform(lo, hi):.{places}f}"
    return spec


def _task_from_cell(rng, cell) -> Task:
    kind, s, alpha, N, n, digits = cell
    s = _draw(rng, s, 4)
    alpha = _draw(rng, alpha, 3)
    n = _draw(rng, n, 0)
    digits = _draw(rng, digits, 0)
    if kind == "double":
        big_n = _draw(rng, N, 0)
        N, n = str(big_n), big_n
    elif kind == "logd0":
        N = str(n)              # r = n/N = 1, as in criterion 11
    else:
        N = _draw(rng, N, 3)
    sign = rng.choice((1, -1)) if kind == "sensitivity" else 1
    return Task(kind=kind, s=str(s), alpha=str(alpha), N=str(N), n=int(n),
                digits=int(digits), sign=sign)


class TaskStream:
    """The seeded, endless task sequence of one workload.

    The same ``(workload, seed)`` always gives the same tasks.  Points never
    repeat, except the large-n revisits that ``fast_routes`` asks for.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in CELLS:
            raise KeyError(f"unknown workload {workload!r}; choose from {sorted(CELLS)}")
        self.workload = workload
        self.cells = CELLS[workload]
        self._rng = random.Random(f"{workload}/{seed}")
        self._seen: set = set()
        self._largen_points: list = []
        self.warmup = _task_from_cell(random.Random(f"{workload}/{seed}/warmup"),
                                      self.cells[WARMUP_CELL[workload]])

    def next_block(self) -> list:
        """The next block: one task from every cell, in a seeded order."""
        return self._block()

    def take(self, count: int) -> list:
        tasks = []
        while len(tasks) < count:
            tasks.extend(self._block())
        return tasks[:count]

    def _block(self) -> list:
        fresh = []
        for cell in self.cells:
            if cell[0] == "largen_revisit":
                fresh.append(None)
                continue
            for _ in range(100):
                task = _task_from_cell(self._rng, cell)
                if task.point() not in self._seen:
                    break
            else:
                raise RuntimeError(f"cannot draw a fresh point from cell {cell}")
            self._seen.add(task.point())
            fresh.append(task)
        self._rng.shuffle(fresh)
        if None in fresh:
            slot = fresh.index(None)
            pool = self._largen_points + _largen(fresh[:slot])
            if not pool:
                # first block, revisit drawn first: move it behind a fresh point
                later = next(i for i in range(slot + 1, len(fresh))
                             if _largen(fresh[i:i + 1]))
                fresh[slot], fresh[later] = fresh[later], fresh[slot]
                slot = later
                pool = _largen(fresh[:slot])
            source = self._rng.choice(pool)
            n = self._rng.randint(*next(c for c in self.cells
                                       if c[0] == "largen_revisit")[4])
            fresh[slot] = Task(kind="largen_table", s=source.s, alpha=source.alpha,
                               N=source.N, n=n, digits=source.digits, revisit=True)
        self._largen_points.extend(t for t in _largen(fresh) if not t.revisit)
        return fresh


def _largen(tasks) -> list:
    return [t for t in tasks if t is not None and t.kind == "largen_table"]


# ---------------------------------------------------------------------------
# task runners: the timed work.  Library functions are looked up on their
# modules at call time, so a tracer's wrappers see every call.
# ---------------------------------------------------------------------------

#: evaluation points of the polynomial identities (as in criterion 7).
Z_GRID = ("-0.3", "0.3", "-1.1", "1.1", "2.7")


def run_hankel(task: Task) -> dict:
    seq = hankel.beta_from_moments(task.params(), task.n, task.ctx())
    return {"betas": seq.betas, "digits_used": seq.digits_used}


def run_dpi_table(task: Task) -> dict:
    params, ctx = task.params(), task.ctx()
    beta1 = recurrence.beta1_initial(params, ctx)
    seq = recurrence.dpi_forward(params, beta1, task.n, ctx)
    return {"betas": seq.betas, "failure_index": seq.failure_index}


def run_largen_table(task: Task) -> dict:
    params, ctx = task.params(), task.ctx()
    values = [mp.zero] + [asymptotics.beta_large_n(n, params, ctx)
                          for n in range(1, task.n + 1)]
    return {"values": tuple(values)}


def double_pair(big_n: int) -> int:
    """The partner of N in the N -> 2N order test: 2N, kept at the parity of N."""
    return 2 * big_n if big_n % 2 == 0 else 2 * big_n - 1


def run_double(task: Task) -> dict:
    ctx = task.ctx()
    values = {}
    for big_n in (task.n, double_pair(task.n)):
        values[big_n] = asymptotics.beta_double_scaling(big_n, big_n, task.s,
                                                        task.alpha, ctx)
    return {"values": values}


def smalls_partner(task: Task) -> Fraction:
    return Fraction(task.s) / 10


def run_smalls(task: Task) -> dict:
    ctx = task.ctx()
    values = {}
    for s in (Fraction(task.s), smalls_partner(task)):
        params = moments.WeightParams(s, task.alpha, task.N)
        values[s] = tuple(asymptotics.beta_small_s(n, params, ctx)
                          for n in range(task.n + 1))
    return {"values": values}


def sensitivity_epsilons(task: Task) -> tuple:
    sign = "-" if task.sign < 0 else ""
    return ("0", f"{sign}1e-1", f"{sign}1e-3", f"{sign}1e-5")


def run_sensitivity(task: Task) -> dict:
    params, ctx = task.params(), task.ctx()
    runs = [recurrence.sensitivity_run(params, eps, task.n, ctx)
            for eps in sensitivity_epsilons(task)]
    return {"indices": tuple(r.first_failure_index for r in runs)}


def residual_worst(task: Task, betas) -> dict:
    """Worst relative residual of each polynomial identity, n = 1..task.n."""
    params = task.params()
    polys = polynomials.build_polynomials(betas, task.n + 1)
    worst = {"lowering": mp.zero, "S1": mp.zero, "S2": mp.zero, "S2p": mp.zero,
             "ode": mp.zero}
    with mp.workdps(betas.digits_used):
        for n in range(1, task.n + 1):
            for zs in Z_GRID:
                z = mpmathify(zs)
                low = polynomials.lowering_residual(n, z, params, betas, polys)
                scale = max(abs(polynomials.eval_poly(polys[n], z, 1)), mp.one)
                worst["lowering"] = max(worst["lowering"], abs(low) / scale)
                r1, r2, r2p = polynomials.compatibility_residuals(n, z, params, betas)
                pair = polynomials.ladder_pair(n, z, params, betas)
                worst["S1"] = max(worst["S1"], abs(r1) / abs(pair.a_n * z))
                worst["S2"] = max(worst["S2"],
                                  abs(r2) / max(abs(betas[n + 1] * pair.a_n), mp.one))
                worst["S2p"] = max(worst["S2p"], abs(r2p) / abs(betas[n] * pair.a_n ** 2))
                worst["ode"] = max(worst["ode"], polynomials.pn_ode_residual(
                    n, z, params, betas, polys, task.ctx()))
    return worst


def run_residuals(task: Task) -> dict:
    betas = hankel.beta_from_moments(task.params(), task.n + 2, task.ctx())
    return {"worst": residual_worst(task, betas)}


def run_dlogds(task: Task) -> dict:
    params, ctx = task.params(), task.ctx()
    betas = hankel.beta_from_moments(params, task.n + 1, ctx)
    return {"exact": detasympt.logdet_derivative_exact(task.n, params, ctx, betas),
            "summed": detasympt.logdet_derivative_sum(task.n, params, ctx, betas)}


def logd0_pair(n: int) -> int:
    """The partner of n in the O(n^-2) test: 2n, kept at the parity of n."""
    return 2 * n if n % 2 == 0 else 2 * n - 1


def run_logd0(task: Task) -> dict:
    ctx = task.ctx()
    display, exact = {}, {}
    for n in (task.n, logd0_pair(task.n)):
        display[n] = detasympt.logdet_expansion("D0", n, 1, task.alpha, None, ctx).value
        exact[n] = hankel.mehta_normand_logD0(n, task.alpha, n, ctx)
    return {"display": display, "exact": exact}


def run_quad_moments(task: Task) -> dict:
    table = moments.moment_table(task.params(), 2 * task.n, task.ctx(), source="quadrature")
    return {"values": table.values}


def run_gram(task: Task) -> dict:
    return {"gram": polynomials.orthogonality_check(task.n, task.params(), task.ctx())}


RUNNERS = {
    "hankel": run_hankel,
    "dpi_table": run_dpi_table,
    "largen_table": run_largen_table,
    "double": run_double,
    "smalls": run_smalls,
    "sensitivity": run_sensitivity,
    "residuals": run_residuals,
    "dlogds": run_dlogds,
    "logd0": run_logd0,
    "quad_moments": run_quad_moments,
    "gram": run_gram,
}


def run_task(task: Task) -> dict:
    return RUNNERS[task.kind](task)
