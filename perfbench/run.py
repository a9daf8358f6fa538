"""quiverext benchmark: one workload, closed loop, one caller, one thread.

    python3 perfbench/run.py --workload demo|pool|tor-gf2 --seed N \
        --seconds S --trace 0|1

Run from the repository root; the engine is imported from ./src. The run
sets up at least three times, and until a second of set-up is spent (a
fresh import of the engine and a build of the workload's seeded inputs),
keeps the last set-up, then makes passes
over them until S seconds of passes are measured. Before each pass every
per-object cache is emptied, outside the timed region. Each item starts when
the previous one returns. Every output is checked; a wrong or raising item
counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 makes
untraced passes for half the time, then one traced set-up and one traced
pass over its inputs; it prints the per-layer metrics (set-up and pass
together), checks the tracer against its predictions in workloads.json and
writes the spans to .perfbench/trace-<workload>-<seed>.jsonl.gz.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S is spent
SETUP_MIN_S = 1.0
SETUPS_MAX = 30
TRACED_PASSES = 1  # fixed, so that counts repeat exactly between runs
MAX_PASS_WALL_S = 120.0
MODULES = ("cli", "errors", "extensions", "linalg", "resolutions", "suite")


class Engine:
    """The engine's modules, looked up as attributes at call time."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"quiverext.{name}"))


def load_json(name, base=HERE):
    with open(os.path.join(base, name), encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def quantile_high(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    pct = 100.0 * (1 - 10.0 / n)
    return pct, sorted(values)[n - 11]


class Runner:
    """Runs passes over the items and counts failed items: an item fails
    when it raises, when its workload reports a problem, or when its output
    differs from the one recorded for the default seed."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed_free = expected.get("seed_free")
        self.want = expected["items"] if seed == expected["seed"] else None
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def one_pass(self, items, tracer=None):
        """Run every item once; returns (pass wall s, item seconds, outputs)."""
        self.workload.reset(items)
        gc.collect()
        times = []
        outputs = []
        clock = time.perf_counter_ns
        start = clock()
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.item = k
            t0 = clock()
            try:
                output, problem = self.workload.run(item)
            except Exception as e:  # a raising item is a failed item
                output, problem = None, f"raised {type(e).__name__}: {e}"
            times.append(clock() - t0)
            outputs.append(output)
            self.check(k, output, problem)
        wall = (clock() - start) / 1e9
        missing = len(self.want) - len(items) if self.want is not None else 0
        if missing > 0:  # recorded items the build no longer made
            key = "recorded item missing"
            self.reasons[key] = self.reasons.get(key, 0) + missing
            self.attempted += missing
            self.failed += missing
        return wall, [t / 1e9 for t in times], outputs

    def check(self, k, output, problem):
        self.attempted += 1
        problems = [problem] if problem else []
        if output is not None:
            if self.seed_free is not None and digest(
                    self.workload.seed_free(output)) != self.seed_free:
                problems.append("report differs from the recorded one")
            want = self.want
            if want is not None and (k >= len(want) or digest(output) != want[k]):
                problems.append("output differs from the recorded digest")
        for p in problems:
            self.reasons[p] = self.reasons.get(p, 0) + 1
        self.failed += bool(problems)


def passes(runner, items, budget_s, min_passes, tracer=None, count=None):
    """Passes until `budget_s` seconds and `min_passes` passes are done, or
    exactly `count` passes. Returns pass walls, per-pass item seconds and
    per-pass outputs."""
    walls, item_times, outs = [], [], []
    started = time.perf_counter()
    while True:
        wall, times, out = runner.one_pass(items, tracer)
        walls.append(wall)
        item_times.append(times)
        outs.append(out)
        if count is not None:
            if len(walls) >= count:
                break
        elif len(walls) >= min_passes and sum(walls) >= budget_s:
            break
        if time.perf_counter() - started > MAX_PASS_WALL_S:
            break
    return walls, item_times, outs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quiverext", "__init__.py")):
        sys.stderr.write(f"no engine source under {SRC}; run from a checkout\n")
        return 2
    spec = load_json("BENCHMARK.json", ROOT)
    plan = load_json("workloads.json")["workloads"]
    if args.workload not in plan:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    setups = []
    while len(setups) < SETUPS or (sum(setups) < SETUP_MIN_S
                                   and len(setups) < SETUPS_MAX):
        q = items = None
        for name in [m for m in sys.modules if m.split(".")[0] == "quiverext"]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        q = Engine()
        workload = WORKLOADS[args.workload](q)
        items = workload.build(args.seed)
        setups.append(time.perf_counter() - t0)
    if not os.path.abspath(q.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported {q.cli.__file__}, not the engine in {SRC}\n")
        return 2
    setup_s = statistics.median(setups)
    runner = Runner(workload, args.seed, load_json("expected.json")[args.workload])

    print(f"workload {args.workload} seed {args.seed}: {len(items)} items, "
          f"set-up {setup_s:.3f} s (median of "
          f"{', '.join(f'{b:.3f}' for b in setups)} s)")
    if args.trace:
        metrics, problems = traced_run(args, runner, items, plan[args.workload])
        declared = spec["per_layer"]
    else:
        metrics = timed_run(args, runner, items, setup_s)
        problems = []
        declared = spec["end_to_end"]

    failed = runner.failed
    for reason, n in sorted(runner.reasons.items()):
        print(f"FAILED {n}x: {reason}")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print(f"failed_frac = {failed / runner.attempted} "
          f"({failed} of {runner.attempted} items)")
    result = {}
    for m in declared:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": result}))
    return 0


def timed_run(args, runner, items, setup_s):
    walls, per_pass, _ = passes(runner, items, args.seconds, min_passes=2)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A pass under median conditions: each item's median over the passes,
    # summed, so a slow spell of the machine during one pass is left out.
    report_s = sum(statistics.median(ts) for ts in zip(*per_pass))
    item_times = [t for ts in per_pass for t in ts]
    n = len(item_times)
    pct, high = quantile_high(item_times)
    print(f"{len(walls)} passes: " + ", ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"item latency over {n} items: median {statistics.median(item_times):.6f} s"
          + (f", p{pct:.1f} {high:.6f} s" if high is not None else "")
          + f", max {max(item_times):.6f} s (item_max_s, not gated)")
    return {
        "setup_s": setup_s,
        "report_s": report_s,
        "items_per_s": n / sum(walls),
        "peak_rss_mb": rss_mb,
    }


def traced_run(args, runner, items, plan):
    import probes
    from tracer import Tracer

    walls, _, plain = passes(runner, items, args.seconds / 2, min_passes=1)
    tracer = Tracer()
    missing = probes.install(tracer)
    try:
        tracer.item = -1
        items = runner.workload.build(args.seed)
        twalls, ttimes, traced = passes(runner, items, 0, 1, tracer,
                                        count=TRACED_PASSES)
    finally:
        tracer.uninstall()
    for name in missing:
        print(f"probe target not found, not traced: {name}")
    metrics = probes.layer_metrics(tracer, sum(map(sum, ttimes)) * 1e9)
    metrics["trace.overhead_frac"] = twalls[0] / statistics.median(walls) - 1
    metrics.update(probes.source_lines(SRC))

    problems = []
    if any(traced[0] != p for p in plain):
        problems.append("traced outputs differ from untraced outputs")
    for name in plan["predicted_zero"]:
        if metrics[name] != 0:
            problems.append(f"{name} = {metrics[name]}, predicted 0")
    for name in plan["predicted_nonzero"]:
        if not metrics[name] > 0:
            problems.append(f"{name} = {metrics[name]}, predicted > 0")
    floor = plan.get("coverage_min")
    if floor is not None and metrics["trace.coverage_frac"] < floor:
        problems.append(f"trace.coverage_frac = "
                        f"{metrics['trace.coverage_frac']}, gate {floor}")

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl.gz")
    tracer.write(path)
    print(f"{len(walls)} untraced / {len(twalls)} traced passes; "
          f"{len(tracer)} spans written to {path}")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
