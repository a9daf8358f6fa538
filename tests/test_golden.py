"""Byte-for-byte report pins.

The files under tests/golden/ are reports recorded from the engine on the
built-in worked example. Every verdict, certificate and report byte must
stay as it is unless a change shows the recorded value is wrong; a change
that alters one of these reports has to re-record the file and say why.
The invariants document is the worked example with its `check extension`
line replaced by two `check invariants` lines, which runs Ext through the
orthogonality (`perp`) verdicts. The random-suite reports pin the
constructor-rejection count of a seeded stream of random presentations,
which runs through the quiver normal forms.
"""

import contextlib
import io
import os

import pytest

from quiverext.cli import demo_document, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_demo_report_matches_golden():
    code, out = run_cli(["demo", "example-4-5", "--seed", "0"])
    assert code == 0
    assert out == golden("demo_example_4_5.txt")


def test_check_extension_machine_report_matches_golden(tmp_path):
    doc = tmp_path / "demo.txt"
    doc.write_text(demo_document(), encoding="utf-8")
    code, out = run_cli(["check-extension", str(doc), "--machine"])
    assert code == 0
    assert out == golden("check_extension.machine")


@pytest.mark.parametrize("field, name", [(None, "invariants_qq.machine"),
                                         ("p:2", "invariants_gf2.machine")])
def test_invariants_machine_report_matches_golden(field, name):
    argv = ["invariants", os.path.join(GOLDEN, "invariants_demo.txt"),
            "--machine"]
    if field is not None:
        argv += ["--field", field]
    code, out = run_cli(argv)
    assert code == 0
    assert out == golden(name)


@pytest.mark.parametrize("field, name", [(None, "random_suite_qq.machine"),
                                         ("p:2", "random_suite_gf2.machine")])
def test_random_suite_machine_report_matches_golden(field, name):
    argv = ["random-suite", "--seed", "3", "--count", "40", "--machine"]
    if field is not None:
        argv += ["--field", field]
    code, out = run_cli(argv)
    assert code == 0
    assert out == golden(name)
