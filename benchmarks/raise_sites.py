"""Raise sites in src/quiverext/ that the tier-1 suite never executes.

    python benchmarks/raise_sites.py

Runs the tier-1 suite in this process, with --hypothesis-seed=0 and no
example database so that two runs draw the same examples, under a
sys.settrace line tracer restricted to src/quiverext/. A raise site is the
first line of a `raise` statement, found with ast. The script prints each
site that never ran, with its source line, then the count, and exits
non-zero when the suite fails or the count exceeds CEILING, so a new
designed rejection without a test that trips it fails the run. Tests run in
a subprocess are not traced. Expect about five times the suite's own time.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quiverext"

# the count of sites left unexecuted, at most; lower it as tests are added
CEILING = 65


def raise_sites():
    """Each raise statement in SRC, as (file, first line), with its text."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, str(path))):
            if isinstance(node, ast.Raise):
                sites[(str(path), node.lineno)] = lines[node.lineno - 1].strip()
    return sites


class _Profile:
    """A pytest plugin that turns off Hypothesis's deadline, which a traced
    run would overrun, and its example database, whose replays would make
    two runs differ."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("raise-sites", deadline=None, database=None)
        settings.load_profile("raise-sites")


def run_traced(args):
    """Run pytest with args under a line tracer over SRC; return pytest's
    exit code and the set of (file, line) pairs executed in SRC."""
    import pytest
    prefix = str(SRC) + "/"
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(scope)
    try:
        code = pytest.main(args, plugins=[_Profile()])
    finally:
        sys.settrace(None)
    return code, {(str(Path(f).resolve()), n) for f, n in seen}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    code, seen = run_traced(["-q", "-p", "no:cacheprovider",
                             "--hypothesis-seed=0", "--rootdir", str(ROOT),
                             str(ROOT / "tests")])
    sites = raise_sites()
    missed = sorted(site for site in sites if site not in seen)
    for path, line in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line}: {sites[path, line]}")
    print(f"{len(missed)} of {len(sites)} raise sites never ran "
          f"(ceiling {CEILING})")
    if code:
        print(f"the traced suite failed (pytest exit code {int(code)})")
        return 1
    return 1 if len(missed) > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
