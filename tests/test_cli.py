import contextlib
import io
import os
import tempfile

import pytest

from quiverext.cli import demo_document, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_temp(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    os.write(fd, text.encode("utf-8"))
    os.close(fd)
    return path


@pytest.fixture(scope="module")
def demo_path():
    path = write_temp(demo_document())
    yield path
    os.unlink(path)


def test_demo_exits_zero():
    code, out, _ = run_cli(["demo", "example-4-5"])
    assert code == 0
    assert "conclusion.singular-equivalence  holds" in out
    assert "conclusion.defect-equivalence    holds" in out


def test_demo_cap_zero_undetermined():
    code, _, _ = run_cli(["demo", "example-4-5", "--cap", "0"])
    assert code == 2


def test_demo_over_gf2_same_dimensions():
    code, out, _ = run_cli(["demo", "example-4-5", "--field", "p:2",
                            "--machine"])
    assert code == 0
    # the worked-example data is integral: identical dims in char 2
    assert "pd-over-enveloping.resolution-ranks = [12, 8]" in out
    assert "structure.dim-quotient = 4" in out
    assert "nilpotency.value = 2" in out
    # Hochschild values may differ in char 2, but the equality across the
    # extension still holds
    assert "hh_agree_positive = yes" in out


def test_check_extension_exit_and_report(demo_path):
    code, out, _ = run_cli(["check-extension", demo_path, "--machine"])
    assert code == 0
    assert "conclusion.singular-equivalence = holds" in out


def test_reports_byte_identical(demo_path):
    _, out1, _ = run_cli(["check-extension", demo_path, "--machine",
                          "--seed", "5"])
    _, out2, _ = run_cli(["check-extension", demo_path, "--machine",
                          "--seed", "5"])
    assert out1.encode() == out2.encode()


def test_corrupted_embedding_exit_three(demo_path):
    bad = demo_document().replace("embed gamma -> gamma", "embed gamma -> e1")
    path = write_temp(bad)
    try:
        code, _, err = run_cli(["check-extension", path])
        assert code == 3
        assert "input error" in err
    finally:
        os.unlink(path)


def test_multiplicativity_violation_exit_three(demo_path):
    bad = demo_document().replace("embed gamma -> gamma",
                                  "embed gamma -> alpha")
    path = write_temp(bad)
    try:
        code, _, err = run_cli(["check-extension", path])
        assert code == 3
    finally:
        os.unlink(path)


def test_parse_error_exit_three():
    path = write_temp("field q\nquiver X\n  vertices 1\n")
    try:
        code, _, err = run_cli(["check-extension", path])
        assert code == 3
        assert "line" in err
    finally:
        os.unlink(path)


def test_non_integer_prime_spec_exit_three():
    code, _, err = run_cli(["demo", "example-4-5", "--field", "p:x"])
    assert code == 3
    assert "input error" in err
    code, _, err = run_cli(["random-suite", "--count", "1", "--field", "p:x"])
    assert code == 3
    assert "unknown field spec" in err
    path = write_temp("field p:x\n")
    try:
        code, _, err = run_cli(["check-extension", path])
        assert code == 3
        assert "line" in err
    finally:
        os.unlink(path)


@pytest.mark.parametrize("command, doc", [
    ("invariants", demo_document() + "check invariants Gamma hh x\n"),
    ("invariants", demo_document() + "check invariants Gamma perp 1.5\n"),
    ("invariants", demo_document() + "check invariants Gamma gldim cap x\n"),
    ("check-extension", demo_document().replace("cap 12", "cap x")),
    ("check-extension", demo_document().replace("pmax 8", "pmax 8x")),
], ids=["hh", "perp", "invariants-cap", "cap", "pmax"])
def test_non_integer_option_value_exit_three(command, doc):
    path = write_temp(doc)
    try:
        code, out, err = run_cli([command, path])
        assert code == 3
        assert out == ""
        assert err.startswith("input error: line ")
        assert "needs an integer" in err
    finally:
        os.unlink(path)


def test_error_escaping_a_command_is_an_input_error():
    code, out, err = run_cli(["random-suite", "--count", "1", "--field",
                              "p:4"])
    assert code == 3
    assert out == ""
    assert err == "input error: 4 is not prime\n"


@pytest.fixture(scope="module")
def hh_path():
    path = write_temp(demo_document() + "check invariants Gamma hh 1\n")
    yield path
    os.unlink(path)


@pytest.mark.parametrize("command", ["demo", "invariants", "check-extension"])
def test_internal_check_failure_exit_one(monkeypatch, demo_path, hh_path,
                                         command):
    # a wrong commutator count makes the HH_0 cross-check fail, which is
    # an engine bug, not an input error
    from quiverext import invariants
    monkeypatch.setattr(invariants, "commutator_rank", lambda a: 0)
    target = {"demo": "example-4-5", "invariants": hh_path,
              "check-extension": demo_path}[command]
    code, out, err = run_cli([command, target])
    assert code == 1
    assert out == ""
    assert err.startswith("internal check failed: HH_0 mismatch")


def test_missing_check_block_exit_three():
    path = write_temp("field q\nquiver X\n  vertices 1\nend\n")
    try:
        code, _, err = run_cli(["check-extension", path])
        assert code == 3
    finally:
        os.unlink(path)


def test_invariants_report():
    doc = """
field q

quiver K
  vertices 1
  arrow x 1 1
  relation x*x
end

check invariants K gldim gorenstein hh 3 cap 6
"""
    path = write_temp(doc)
    try:
        code, out, _ = run_cli(["invariants", path, "--machine"])
        assert code == 0
        assert "gorenstein = holds" in out
        assert "hochschild = [2, 1, 1, 1]" in out
        assert "global-dimension-finite = fails" in out
    finally:
        os.unlink(path)


def test_report_file_output(demo_path, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(["check-extension", demo_path, "--machine",
                            "--report", str(target)])
    assert code == 0
    assert out == ""
    assert "conclusion.singular-equivalence = holds" in target.read_text()


def test_random_suite_deterministic():
    c1, out1, _ = run_cli(["random-suite", "--seed", "3", "--count", "10",
                           "--machine"])
    c2, out2, _ = run_cli(["random-suite", "--seed", "3", "--count", "10",
                           "--machine"])
    assert c1 == c2 == 0
    assert out1 == out2
    assert "failures = 0" in out1


def test_random_suite_count_zero():
    code, out, _ = run_cli(["random-suite", "--count", "0", "--machine"])
    assert code == 0
    assert "failures = 0" in out


def test_exit_one_on_hypothesis_failure():
    # trivial extension of the hereditary two-vertex algebra by the
    # bimodule inflated between its two distinct simples: finite pd and
    # vanishing tensor square, but Tor_1 of the quotient with itself is
    # nonzero, so the Tor hypothesis definitively fails
    doc = """
field q

quiver B
  vertices 1 2
  arrow b 1 2
end

bimodule M over B B dim 1
  left e1 = 1
  left e2 = 0
  left b = 0
  right e1 = 0
  right e2 = 1
  right b = 0
end

construct trivial_extension T = base B module M

check extension T cap 6 pmax 4 consequences off
"""
    path = write_temp(doc)
    try:
        code, out, _ = run_cli(["check-extension", path, "--machine"])
        assert code == 1
        assert "tor-vanishing = fails" in out
    finally:
        os.unlink(path)
