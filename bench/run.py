"""Benchmark command: one workload, one seed, one measured run.

    python3 bench/run.py --workload hankel_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Set-up is timed in fresh interpreters: six that only set up, plus the one
that then runs the closed loop; ``setup_s`` is their median.  The loop runs
in its own process, so caches never carry over between workloads.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced loop.  Human-readable lines come first;
the last line of standard output is the JSON result.  The exit code is 0
when every task passed its check, 1 when one failed, 2 on a usage error or
a checkout without ``src/dfreud``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS, metric_units

WORKER = BENCH_DIR / "worker.py"
SETUP_ONLY_RUNS = 6
CHILD_TIMEOUT_S = 170


def spawn(args, workload: str, mode: str, timeout: float) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mode", mode,
               "--spawned-at", repr(time.time())]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str):
    """Measure one workload; print its report; return its JSON result line."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = [spawn(args, workload, "setup", 30) for _ in range(SETUP_ONLY_RUNS)]
    result = spawn(args, workload, "run", max(deadline - time.monotonic(), 1.0))
    setups.append(result)
    e2e = result["end_to_end"]
    e2e["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    e2e["raw"]["setup_s"] = statistics.median(r["setup_raw_s"] for r in setups)
    result["setup_samples_s"] = [r["setup_s"] for r in setups]

    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in result["environment"].items()))
    print(f"tasks {result['attempted']} attempted, {result['failed']} failed; "
          f"{result['samples_beyond_p90']} samples beyond p90; kinds {result['kinds']}")
    print("input shares " + "  ".join(f"{k} {v:.3f}" for k, v in result["shares"].items()))
    e2e_units = metric_units("end_to_end")
    for name, value in e2e.items():
        if name != "raw":
            raw = e2e["raw"].get(name)
            print(f"  {name:14s} {value:.6g} {e2e_units.get(name, 'ratio')}"
                  + (f"   (unscaled {raw:.6g})" if raw is not None else ""))
    for failure in result["failures"]:
        print(f"  FAILED {failure['task']}: {failure['detail']}")

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        for name, entry in metrics.items():
            print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()}

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dfreud" / "__init__.py").is_file():
        print(f"error: no dfreud sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.workload != "all":
        line = run_workload(args, args.workload)
    else:
        lines = {w: run_workload(args, w) for w in WORKLOADS}
        line = {"correct": all(r["correct"] for r in lines.values()),
                "attempted": sum(r["attempted"] for r in lines.values()),
                "failed": sum(r["failed"] for r in lines.values()),
                "metrics": {f"{w}.{name}": entry for w, r in lines.items()
                            for name, entry in r["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
