"""Bytecode instructions one pass of each benchmark workload executes.

    python benchmarks/opcounts.py [--workload demo|pool|tor-gf2 ...]

Run from anywhere; the engine is imported from this checkout's src/. For
each workload at its default seed (perfbench/workloads.json), the script
builds the inputs through perfbench/workloads.py, as the benchmark does,
makes one untraced warm-up pass, empties the caches as before every
benchmark pass, and then counts the instructions of one more pass under
sys.settrace, with frame.f_trace_opcodes set on every frame, so every
Python frame the pass runs is counted, the standard library's included.
Garbage collection is off while counting. The count is exact and repeats
from run to run, where wall time on a shared machine drifts by more than
most changes; an instruction weighs a C-level dict operation the same as
LOAD_FAST, so it is a proxy for time, to be read next to wall-time pairs.

Prints one line per workload, then one JSON object on the last line:
{"python": "3.11", "counts": {"demo": ..., ...}}. It uses the standard
library only and changes no file under perfbench/.
"""

import argparse
import gc
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")


def count_instructions(fn):
    """Run fn() once and return the bytecode instructions it executed, in
    every Python frame it entered."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    gc.collect()
    gc.disable()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(None)
        gc.enable()
    return count


def workload_count(engine, workload_cls, seed):
    """The instructions of one pass of the workload, after a warm-up."""
    workload = workload_cls(engine)
    items = workload.build(seed)

    def one_pass():
        for item in items:
            _, problem = workload.run(item)
            if problem:
                raise RuntimeError(f"{workload.name}: {problem}")

    workload.reset(items)
    one_pass()
    workload.reset(items)
    return count_instructions(one_pass)


def main(argv=None):
    sys.path[:0] = [SRC, PERFBENCH]
    from run import Engine, load_json
    from workloads import WORKLOADS

    plan = load_json("workloads.json")["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="a workload to count (repeatable); default all")
    args = ap.parse_args(argv)
    engine = Engine()
    counts = {}
    for name in args.workload or list(WORKLOADS):
        seed = plan[name]["default_seed"]
        counts[name] = workload_count(engine, WORKLOADS[name], seed)
        print(f"{name} seed {seed}: {counts[name]:,} instructions per pass")
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    print(json.dumps({"python": version, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
