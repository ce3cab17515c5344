"""Self-tests of the benchmark: generator, checkers, failure counting, tracer.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORKLOADS, use_checkout_src  # noqa: E402

use_checkout_src()

import pytest  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

import dfreud  # noqa: E402
import dfreud.hankel  # noqa: E402
import dfreud.moments  # noqa: E402
import dfreud.polynomials  # noqa: E402
import dfreud.recurrence  # noqa: E402
from dfreud.numerics import IntegrationError, NumericContext, PrecisionExhaustedError  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Task  # noqa: E402


# ---------------------------------------------------------------------------
# seeded generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_tasks_and_another_seed_others(workload):
    first, again, other = (wl.TaskStream(workload, seed) for seed in (7, 7, 8))
    assert first.warmup == again.warmup
    tasks = first.take(80)
    assert tasks == again.take(80)
    assert tasks != other.take(80)


def test_hankel_sweep_points_never_repeat():
    tasks = wl.TaskStream("hankel_sweep", 3).take(400)
    assert len({t.point() for t in tasks}) == len(tasks)


def test_hankel_sweep_covers_the_named_properties():
    shares = wl.shares(wl.TaskStream("hankel_sweep", 3).take(160))
    assert shares["small_s_large_N"] >= 0.15
    assert shares["alpha_negative"] > 0.2
    assert shares["s_edge"] > 0.1
    assert shares["repeated_point"] == 0


def test_fast_routes_revisits_a_quarter_of_seen_large_n_points():
    tasks = wl.TaskStream("fast_routes", 5).take(200)
    seen, revisits, large_n = set(), 0, 0
    for task in tasks:
        if task.kind != "largen_table":
            continue
        large_n += 1
        point = (task.s, task.alpha, task.N, task.digits)
        if task.revisit:
            revisits += 1
            assert point in seen
        seen.add(point)
    assert 0.15 <= revisits / large_n <= 0.3


# ---------------------------------------------------------------------------
# checkers: each accepts a true result and rejects one perturbed at the
# digit (or remainder scale) it claims to verify
# ---------------------------------------------------------------------------

def _scaled(x, rel):
    with mp.workdps(mp.dps + 400):
        return x * (1 + mpf(rel))


def _bump_tuple(values, index, new):
    values = list(values)
    values[index] = new
    return tuple(values)


def _perturb_hankel(task, out):
    return dict(out, betas=_bump_tuple(out["betas"], task.n,
                                       _scaled(out["betas"][task.n], f"1e-{task.digits - 1}")))


def _perturb_dpi(task, out):
    n = checks.DPI_CHECKED
    return dict(out, betas=_bump_tuple(out["betas"], n,
                                       _scaled(out["betas"][n], f"1e-{task.digits - 21}")))


def _perturb_largen(task, out):
    n = checks.LARGEN_CHECKED[0]
    with mp.workdps(60):
        bumped = out["values"][n] + 2 * checks.largen_scale(task.params(), n)
    return dict(out, values=_bump_tuple(out["values"], n, bumped))


def _perturb_double(task, out):
    params = dfreud.moments.WeightParams(task.s, task.alpha, task.n)
    ref = checks.dpi_reference(params, task.n, 2 * task.n + 40)
    values = dict(out["values"])
    with mp.workdps(60):
        values[task.n] += 10 * (values[task.n] - ref[task.n])
    return dict(out, values=values)


def _perturb_smalls(task, out):
    s = Fraction(task.s)
    ref = checks.dpi_reference(task.params(), task.n, task.digits + 2 * task.n + 40)
    values = dict(out["values"])
    with mp.workdps(60):
        values[s] = _bump_tuple(values[s], task.n,
                                values[s][task.n] + 10 * (values[s][task.n] - ref[task.n]))
    return dict(out, values=values)


def _perturb_sensitivity(task, out):
    clean, *rest = out["indices"]
    return dict(out, indices=(rest[0], *rest))


def _perturb_residuals(task, out):
    betas = dfreud.hankel.beta_from_moments(task.params(), task.n + 2, task.ctx())
    bumped = _bump_tuple(betas.betas, task.n, _scaled(betas[task.n], f"1e-{task.digits - 1}"))
    seq = dfreud.hankel.BetaSequence(params=betas.params, route=betas.route, betas=bumped,
                                     digits_used=betas.digits_used)
    return {"worst": wl.residual_worst(task, seq)}


def _perturb_dlogds(task, out):
    return dict(out, exact=_scaled(out["exact"], f"1e-{task.digits - 1}"))


def _perturb_logd0(task, out):
    exact = dict(out["exact"])
    exact[task.n] = _scaled(exact[task.n], f"1e-{task.digits - 1}")
    return dict(out, exact=exact)


def _perturb_quad(task, out):
    return dict(out, values=_bump_tuple(out["values"], 2,
                                        _scaled(out["values"][2], f"1e-{task.digits - 11}")))


def _perturb_gram(task, out):
    gram = [list(row) for row in out["gram"]]
    gram[0][1] = gram[1][0] = 10 * checks.gram_tolerance(task)
    return dict(out, gram=gram)


CASES = [
    (Task("hankel", "0.3", "-0.5", "2", 10, 30), _perturb_hankel),
    (Task("hankel", "0", "1.5", "1", 10, 30), _perturb_hankel),
    (Task("dpi_table", "0.5", "1", "1", 60, 100), _perturb_dpi),
    (Task("largen_table", "0.7", "1", "0.5", 120, 50), _perturb_largen),
    (Task("double", "0.6", "1", "20", 20, 50), _perturb_double),
    (Task("smalls", "0.002", "1", "1", 6, 50), _perturb_smalls),
    (Task("sensitivity", "1", "1.5", "1", 100, 500, sign=-1), _perturb_sensitivity),
    (Task("residuals", "0.6", "-0.3", "1", 5, 30), _perturb_residuals),
    (Task("dlogds", "0.5", "1", "1", 6, 60), _perturb_dlogds),
    (Task("logd0", "0", "0.5", "12", 12, 60), _perturb_logd0),
    (Task("quad_moments", "0.5", "1", "1", 2, 30), _perturb_quad),
    (Task("gram", "0.5", "-0.5", "1", 2, 30), _perturb_gram),
]


@pytest.mark.parametrize("task,perturb", CASES, ids=[f"{t.kind}-s{t.s}" for t, _ in CASES])
def test_checker_accepts_truth_and_rejects_a_perturbed_result(task, perturb):
    out = wl.run_task(task)
    assert checks.check(task, out).ok
    assert not checks.check(task, perturb(task, out)).ok


def test_every_task_kind_has_a_checker_and_a_self_test():
    assert set(wl.RUNNERS) == set(checks.CHECKERS) == {t.kind for t, _ in CASES}


# ---------------------------------------------------------------------------
# failures are counted, not fatal
# ---------------------------------------------------------------------------

def test_raised_errors_count_in_failed_frac_and_the_run_goes_on():
    task = Task("logd0", "0", "1", "12", 12, 60)
    calls = []

    def run_task(t):
        calls.append(t)
        if len(calls) == 1:
            raise PrecisionExhaustedError("needed more digits", index=3)
        if len(calls) == 2:
            raise IntegrationError("quadrature did not converge")
        return wl.run_task(t)

    class Stream:
        def next_block(self):
            return [task] * 4

    records, blocks, _ = worker.closed_loop(Stream(), 0.3, run_task)
    assert [r[3] for r in records[:2]] == ["PrecisionExhaustedError", "IntegrationError"]
    assert len(records) > 2 and all(r[3] is None for r in records[2:])
    assert sum(b["tasks"] for b in blocks) == len(records) and len(records) % 4 == 0
    verdicts = worker.check_all(records, checks.check)
    summary = worker.end_to_end(records, verdicts, blocks)
    everything_passed = worker.end_to_end(records, [(True, "")] * len(records), blocks)
    share = (len(records) - 2) / len(records)
    assert summary["failed_frac"] == pytest.approx(2 / len(records))
    assert summary["tasks_per_s"] == pytest.approx(everything_passed["tasks_per_s"] * share)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_links_parents_and_restores_every_binding():
    original_table = dfreud.moments.moment_table
    original_quad = dfreud.polynomials.quad
    params = dfreud.moments.WeightParams("0.5", "1", "1")
    tracer = tracing.Tracer()
    with tracer:
        assert dfreud.hankel.moment_table is not original_table
        assert dfreud.moments.moment_table is dfreud.hankel.moment_table
        assert dfreud.recurrence.mu0.__wrapped__ is dfreud.moments.mu0.__wrapped__
        assert dfreud.polynomials.quad.__wrapped__ is original_quad
        dfreud.hankel.beta_from_moments(params, 4, NumericContext(digits=30))
        polys = dfreud.polynomials.build_polynomials([0, 1, 1], 2)
        dfreud.polynomials.eval_poly(polys[2], 1)
        params.weight(1)
    assert dfreud.moments.moment_table is original_table
    assert dfreud.hankel.moment_table is original_table
    assert dfreud.polynomials.quad is original_quad

    spans = tracer.spans
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)
    assert len(by_name["moments.moment_table"]) == 2
    for index in by_name["moments.moment_table"]:
        parent = spans[index][3]
        assert spans[parent][0] == "hankel.h_sequence"
        assert spans[spans[parent][3]][0] == "hankel.beta_from_moments"
    assert all(spans[i][3] >= 0 for i in by_name["moments.pcfd"])

    metrics = tracing.layer_metrics(tracer, loop_s=1.0)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["hankel.h_sequence_calls"] == 1
    assert metrics["hankel.attempts"] == 2
    assert metrics["hankel.escalations"] == 0
    assert metrics["hankel.useful_attempt_ratio"] == 1.0
    assert metrics["hankel.guard_digits_mean"] == 20 + 2 * 5
    assert metrics["moments.table_entries"] == 2 * 9
    assert metrics["polynomials.eval_poly_calls"] == 1
    assert metrics["polynomials.weight_evals"] == 1
    assert 0 < metrics["hankel.pivot_self_s"] < metrics["hankel.h_sequence_s"]
