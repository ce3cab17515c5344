"""One workload in one fresh, single-threaded interpreter.

``run.py`` starts this script; it is not meant to be called by hand.

``--mode setup`` imports ``dfreud``, generates the inputs, runs the warm-up
task and reports the seconds since ``--spawned-at`` (the parent's clock
just before it started this process), scaled by the reference kernel.  ``--mode run`` does the same set-up,
then runs the closed loop for ``--seconds`` (rounded up to whole blocks of
the task stream): one client, the next task starts only after the previous
one returned.  With ``--trace 1`` the loop
runs under the layer tracer.  After the loop every output is checked by an
independent route.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

from common import (OUT_DIR, ROOT, environment, reference_kernel, speed_factor,
                    use_checkout_src)

SETUP_KERNEL_RUNS = 15


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def closed_loop(stream, seconds: float, run_task, tracer=None):
    """Run whole blocks of tasks, one task after another, until ``seconds`` passed.

    The loop always ends on a block boundary, so every run sees the same mix
    of task kinds.  The reference kernel runs after every task, outside the
    task's time.  Returns ``(records, blocks, loop_s)``: a record is
    ``(task, output, wall_s, error)`` where ``error`` names the exception a
    task raised (its output is then None); a block is
    ``{"tasks": count, "kernel_s": [...]}``.
    """
    records, blocks = [], []
    clock = time.perf_counter
    start = clock()
    while clock() - start < seconds:
        block = {"tasks": 0, "kernel_s": []}
        for task in stream.next_block():
            if tracer is not None:
                tracer.task = len(records)
            t0 = clock()
            try:
                output, error = run_task(task), None
            except Exception as exc:  # a failed task is counted, the run goes on
                output, error = None, type(exc).__name__
            records.append((task, output, clock() - t0, error))
            block["tasks"] += 1
            block["kernel_s"].append(reference_kernel())
        blocks.append(block)
    return records, blocks, clock() - start


def end_to_end(records, verdicts, blocks) -> dict:
    """Throughput, latency percentiles and failed share of one loop.

    Task times are scaled to the reference machine by the speed factor of
    their block.  Throughput is tasks that passed their check per scaled
    second of task time.  ``raw`` holds the same figures unscaled.
    """
    attempted = len(records)
    passed = sum(1 for ok, _ in verdicts if ok)
    walls = [wall for _, _, wall, _ in records]
    scaled, start = [], 0
    for block in blocks:
        factor = speed_factor(block["kernel_s"])
        scaled.extend(wall * factor for wall in walls[start:start + block["tasks"]])
        start += block["tasks"]
    return {
        "tasks_per_s": passed / sum(scaled),
        "task_p50_s": percentile(scaled, 50),
        "task_p90_s": percentile(scaled, 90),
        "failed_frac": (attempted - passed) / attempted,
        "raw": {"tasks_per_s": passed / sum(walls),
                "task_p50_s": percentile(walls, 50),
                "task_p90_s": percentile(walls, 90)},
    }


def timed_setup_s(spawned_at: float) -> tuple:
    """Seconds since ``spawned_at``, scaled and raw; the kernel runs after the reading."""
    raw = time.time() - spawned_at
    kernel_s = [reference_kernel() for _ in range(SETUP_KERNEL_RUNS)]
    return raw * speed_factor(kernel_s), raw


def check_all(records, check) -> list:
    """Verdict per record: ``(ok, detail)``, checked after the timed loop."""
    verdicts = []
    for task, output, _, error in records:
        if error is not None:
            verdicts.append((False, f"raised {error}"))
            continue
        try:
            verdict = check(task, output)
        except Exception as exc:  # a checker that cannot finish fails the task
            verdicts.append((False, f"check raised {type(exc).__name__}: {exc}"))
            continue
        verdicts.append((verdict.ok, f"{verdict.measured} vs {verdict.tolerance} "
                                     f"({verdict.note})"))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    use_checkout_src()
    import checks
    import workloads

    stream = workloads.TaskStream(args.workload, args.seed)
    workloads.run_task(stream.warmup)
    setup_s, setup_raw_s = timed_setup_s(args.spawned_at)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    with tracer or contextlib.nullcontext():
        records, blocks, loop_s = closed_loop(stream, args.seconds,
                                              workloads.run_task, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = check_all(records, checks.check)
    attempted = len(records)
    times = [wall for _, _, wall, _ in records]
    tasks = [task for task, _, _, _ in records]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "loop_s": loop_s,
        "attempted": attempted,
        "failed": sum(1 for ok, _ in verdicts if not ok),
        "end_to_end": dict(end_to_end(records, verdicts, blocks), peak_rss_mb=peak_rss_mb),
        "blocks": blocks,
        "samples": attempted,
        "samples_beyond_p90": sum(1 for t in times if t > percentile(times, 90)),
        "shares": workloads.shares(tasks),
        "kinds": {kind: sum(1 for t in tasks if t.kind == kind)
                  for kind in sorted({t.kind for t in tasks})},
        "task_walls_s": [[task.kind, wall] for task, _, wall, _ in records],
        "failures": [{"task": vars(task), "detail": detail}
                     for (task, _, _, _), (ok, detail) in zip(records, verdicts) if not ok],
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        kernel_s = sum(sum(block["kernel_s"]) for block in blocks)
        result["layers"] = tracing.layer_metrics(tracer, loop_s - kernel_s)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
