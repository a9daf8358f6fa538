"""Self-test of the tracer and of the traced run on every workload.

    python3 perfbench/selftest.py

Run from the repository root; exits 0 when every check holds. It checks the
tracer on a two-module toy package (a `from .a import f` binding is wrapped
and restored, self time is duration minus children), then makes one short
traced run per workload at its default seed. A traced run fails unless its
outputs equal the untraced ones and the recorded digests, its
predicted-zero and predicted-nonzero counters hold, and, on the demo,
trace.coverage_frac >= 0.9.
"""

import contextlib
import io
import json
import sys
import time
import types

import run
from tracer import Tracer


def toy_package():
    a = types.ModuleType("toypkg.a")
    b = types.ModuleType("toypkg.b")
    pkg = types.ModuleType("toypkg")

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        b.leaf()

    a.leaf = leaf
    a.outer = outer
    b.leaf = leaf  # as `from .a import leaf` would bind it
    sys.modules.update({"toypkg": pkg, "toypkg.a": a, "toypkg.b": b})
    return a, b, leaf


def check_tracer():
    a, b, leaf = toy_package()
    tr = Tracer()
    try:
        tr.patch_function(a, "leaf", "toy.leaf")
        tr.patch_function(a, "outer", "toy.outer")
        assert b.leaf is not leaf, "the from-import binding was not wrapped"
        tr.item = 7
        a.outer()
    finally:
        tr.uninstall()
        for name in ("toypkg", "toypkg.a", "toypkg.b"):
            sys.modules.pop(name, None)
    assert a.leaf is leaf and b.leaf is leaf, "uninstall left a wrapper"
    names, start, end, parent, item = tr.columns()
    assert [tr.names[n] for n in names] == ["toy.outer", "toy.leaf"]
    assert list(parent) == [-1, 0] and list(item) == [7, 7]
    own = tr.self_times()
    assert own[0] == (end[0] - start[0]) - (end[1] - start[1])
    assert own[1] == end[1] - start[1]
    assert 0.005 < own[0] / 1e9 < 0.02 and own[1] / 1e9 >= 0.02


def check_workload(name, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(seed),
                         "--seconds", "1", "--trace", "1"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(("SELF-TEST FAILED", "FAILED", "probe target")):
            print(f"  {line}")
    return code == 0 and result["correct"]


def main():
    check_tracer()
    print("tracer: ok")
    plan = run.load_json("workloads.json")["workloads"]
    ok = True
    for name, entry in plan.items():
        good = check_workload(name, entry["default_seed"])
        print(f"{name}: {'ok' if good else 'FAILED'}")
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
