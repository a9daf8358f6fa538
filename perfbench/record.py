"""Record the output digests that run.py checks on each default seed.

    python3 perfbench/record.py

Run from the repository root. It runs one pass of each workload at its
default seed from workloads.json and writes perfbench/expected.json. Record
again only in a change that shows the old outputs were wrong.
"""

import json
import os
import sys

import run
from workloads import WORKLOADS


def main():
    sys.path.insert(0, run.SRC)
    q = run.Engine()
    plan = run.load_json("workloads.json")["workloads"]
    out = {}
    for name, cls in WORKLOADS.items():
        seed = plan[name]["default_seed"]
        w = cls(q)
        items = w.build(seed)
        w.reset(items)
        digests = []
        entry = {"seed": seed}
        for item in items:
            output, problem = w.run(item)
            if problem:
                raise SystemExit(f"{name}: {problem}")
            digests.append(run.digest(output))
            if name == "demo":
                entry["seed_free"] = run.digest(w.seed_free(output))
        entry["items"] = digests
        out[name] = entry
        print(f"{name}: seed {seed}, {len(digests)} items")
    with open(os.path.join(run.HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
