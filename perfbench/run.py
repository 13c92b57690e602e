"""Seeded benchmark of enrichfan: four workloads, end-to-end metrics, and a
traced run for the per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {enumerate,geometry,moduli,cli} \\
        --seed N --seconds S --trace {0,1}

Every repetition runs in a fresh interpreter (``worker.py``), one at a
time: a closed loop with one client.  The library keeps unbounded
module-level caches, so a second repetition in the same process would time
cache hits that no command-line user gets.  Repetitions go on until about
``--seconds`` have passed, and never fewer than ``MIN_REPS``.  Reported
times are at reference speed (see ``harness``): the machine this was
built on is shared, and raw times there swing by up to 2.1 times.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` repetitions alternate
untraced and traced, and the metrics are the per-layer ones, including
``trace.overhead_ratio``.  Every answer is checked; ``failed`` counts the
failed operations and ``correct`` is false when any failure is not one of
``harness.EXPECTED_FAILURES``.

``--size tiny`` and ``--plant`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import ROOT, SRC, is_expected
from tracing import CLI_MEANS, COUNTED, LAYER_CALLS, LAYER_TIMES

HERE = Path(__file__).resolve().parent
WORKLOADS = ("enumerate", "geometry", "moduli", "cli")
MIN_REPS = {"full": 2, "tiny": 1}
STOP_AFTER_S = 150  # start no repetition past this, so a run ends within 180 s
LADDER = (99.9, 99, 95, 90, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    names = [*LAYER_TIMES, *LAYER_CALLS, *COUNTED, "enriched.structures_per_s", *CLI_MEANS]
    units = {n: "1/s" if n.endswith("_per_s") else "s" if n.endswith("_s") else "count" for n in names}
    units["trace.overhead_ratio"] = "ratio"
    return units


class WorkerError(RuntimeError):
    pass


def run_worker(args, traced: bool, index: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        "1" if traced else "0", args.size, f"{args.workload}-{args.seed}-{index}",
    ]
    if args.plant:
        cmd.append("--plant")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"repetition {index} did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"repetition {index} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def warm_up():
    """Import the library once untimed, so byte-code compilation and a cold
    file cache do not land in the first repetition's set-up."""
    if not (SRC / "enrichfan" / "__init__.py").is_file():
        raise WorkerError(f"no enrichfan sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import enrichfan.cli"], capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    if proc.returncode != 0:
        raise WorkerError(f"importing enrichfan failed:\n{proc.stderr}")


def measure(args) -> dict:
    """Repetitions until about ``args.seconds`` have passed."""
    modes = (False, True) if args.trace else (False,)
    min_rounds = MIN_REPS[args.size] if not args.trace else 1
    reps = {mode: [] for mode in modes}
    start = time.monotonic()
    deadline = start + 170
    round_times = []
    while True:
        began = time.monotonic()
        for traced in modes:
            reps[traced].append(run_worker(args, traced, len(round_times) * len(modes) + traced, deadline))
        round_times.append(time.monotonic() - began)
        elapsed, next_round = time.monotonic() - start, statistics.median(round_times)
        if len(round_times) >= min_rounds and elapsed + next_round > args.seconds:
            break
        if elapsed + next_round > STOP_AFTER_S:
            break
    return reps


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks of the sorted values."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(per_rep: int, size: str):
    """The highest percentile with at least ten samples beyond it in any
    run: fixed by the queries per repetition and the minimum repetitions,
    so it does not move when the program gets faster."""
    n = per_rep * MIN_REPS[size]
    return next((p for p in LADDER if n * (1 - p / 100) >= 10), None)


def end_to_end(reps: list, size: str) -> tuple:
    queries = [q * 1000 for r in reps for q in r["queries"]]
    p = tail_percentile(len(reps[0]["queries"]), size)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "query_p50_ms": statistics.median(queries),
        "query_tail_ms": percentile(queries, p) if p is not None else max(queries),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    tail = f"p{p:g}" if p is not None else "max"
    return metrics, f"{tail} of {len(queries)} queries"


def per_layer(traced: list, untraced: list) -> dict:
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in untraced) - 1
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(MIN_REPS), help=argparse.SUPPRESS)
    parser.add_argument("--plant", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        warm_up()
        reps = measure(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    every = [r for runs in reps.values() for r in runs]
    failures = [f for r in every for f in r["failures"]]
    attempted = sum(r["attempted"] for r in every)
    unexpected = [f for f in failures if not is_expected(f)]
    untraced = reps[False]

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(every)}"
          f"  ({'alternating untraced and traced' if args.trace else 'tracing off'})")
    if args.trace:
        metrics = per_layer(reps[True], untraced)
        units = per_layer_units()
        print(f"spans per traced repetition: {[r['spans'] for r in reps[True]]}")
    else:
        metrics, tail = end_to_end(untraced, args.size)
        units = END_TO_END
        print(f"query_tail_ms is the {tail}")
        print(f"raw library time per repetition (s, before scaling to reference speed): "
              f"{[round(r['raw_wall_s'], 4) for r in untraced]}")
    print(f"spans recorded by untraced repetitions: {sum(r['spans'] for r in untraced)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.6g}"
          f"  ({len(failures) - len(unexpected)} expected)")
    for f in failures[:20]:
        tag = "expected" if is_expected(f) else "FAILED"
        print(f"  {tag}: {f['op']} on {f['input']}: {f['reason']}: {f['detail']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
