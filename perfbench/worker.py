"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SIZE RUN_ID [--plant]

Prints one JSON object: set-up time, library time, items, per-query times,
peak RSS, operations attempted, failures and, when traced, the per-layer
metrics.  The spans themselves go to ``.perfbench/spans-RUN_ID.jsonl``.
"""

import json
import os
import resource
import sys

import inputs
from harness import SCRATCH, SRC, Rep, Speed
from tracing import NullTracer, Tracer, layer_metrics


def main(argv) -> int:
    workload, seed, trace, size_name, run_id = argv[:5]
    plant = "--plant" in argv[5:]
    seed, size = int(seed), inputs.SIZES[size_name]
    # one CPU for this process and its CLI children, so the speed probe
    # always measures the CPU the timed code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer(run_id) if trace == "1" else NullTracer()
    # a CLI child shares the pinned CPU with this process, so a probe taken
    # while it runs would time the sharing, not the machine
    speed = Speed(during_blocks=workload != "cli")
    if workload == "cli":
        import cli_workload as module

        with speed.clock() as setup:  # set-up here is writing the input files
            data = module.setup_cli(seed, size)
        run = module.run_cli
        usage = resource.RUSAGE_CHILDREN  # the largest CLI child
    else:
        with speed.clock() as setup:
            sys.path.insert(0, str(SRC))
            with tracer.span("cli.import"):
                import enrichfan.cli  # noqa: F401  (the import a CLI user pays)
            import workloads as module

            data = module.SETUP[workload](seed, size)
        tracer.scale_since(0, setup["scaled"] / setup["raw"])
        run = module.RUN[workload]
        usage = resource.RUSAGE_SELF
    if plant:
        os.environ["PERFBENCH_PLANT"] = workload  # cli_child.py plants it in CLI children
        if workload != "cli":
            import plants

            plants.plant(workload)
    rep = Rep(tracer, speed)
    run(rep, data)
    result = {
        "setup_s": setup["scaled"],
        "wall_s": rep.wall_s,
        "raw_wall_s": rep.raw_wall_s,
        "items": rep.items,
        "queries": rep.queries,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "spans": len(tracer.spans) if tracer.enabled else 0,
        "layers": layer_metrics(tracer.spans, tracer.counts) if tracer.enabled else None,
    }
    if tracer.enabled:
        SCRATCH.mkdir(exist_ok=True)
        tracer.write(SCRATCH / f"spans-{run_id}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
