from fractions import Fraction

import pytest

from quiverext.cli import demo_document
from quiverext.docparse import (ParseError, build_document, parse_document,
                                parse_expr)
from quiverext.extensions import ExtensionPresentation


MINIMAL = """
field q

quiver K
  vertices 1
end
"""

TRIANGULAR_DOC = """
field q

quiver B
  vertices 1
end

quiver C
  vertices 1
end

bimodule M over C B dim 1
  left e1 = 1
  right e1 = 1
end

construct triangular T = b B c C module M

check extension T cap 6 pmax 4
"""


def test_empty_document_rejected():
    with pytest.raises(ParseError) as e:
        parse_document("")
    assert "no field block" in str(e.value)


def test_missing_field_block_rejected():
    with pytest.raises(ParseError):
        parse_document("quiver X\n  vertices 1\nend\n")


def test_undefined_reference():
    with pytest.raises(ParseError) as e:
        parse_document("field q\ncheck extension nowhere\n")
    assert "undefined reference" in str(e.value)


def _kind_error(doc):
    with pytest.raises(ParseError) as e:
        parse_document(doc)
    return e.value


def test_check_extension_on_an_algebra_rejected_at_the_name():
    doc = demo_document() + "check extension Lambda\n"
    err = _kind_error(doc)
    assert (err.line, err.col) == (doc.count("\n"), 17)
    assert "'Lambda' is an algebra, expected an extension" in str(err)


def test_subalgebra_ambient_naming_an_extension_rejected():
    doc = demo_document() + ("construct subalgebra S = sub Gamma "
                             "ambient GammaInLambda\nend\n")
    err = _kind_error(doc)
    assert (err.line, err.col) == (doc.count("\n") - 1, 44)
    assert "is an extension, expected an algebra" in str(err)


def test_check_invariants_on_a_bimodule_rejected():
    doc = TRIANGULAR_DOC + "check invariants M\n"
    err = _kind_error(doc)
    assert (err.line, err.col) == (doc.count("\n"), 18)
    assert "'M' is a bimodule, expected an algebra or an extension" in str(err)


@pytest.mark.parametrize("line, col, message", [
    ("construct triangular T2 = b M c C module M", 29,
     "'M' is a bimodule, expected an algebra"),
    ("construct trivial_extension T2 = base T module M", 39,
     "'T' is an extension, expected an algebra"),
    ("bimodule N over T B dim 1\nend", 17,
     "'T' is an extension, expected an algebra"),
    ("construct triangular T2 = b B c C module B", 42,
     "'B' is an algebra, expected a bimodule"),
], ids=["bimodule-as-algebra", "extension-as-base", "extension-as-side",
        "algebra-as-module"])
def test_construct_argument_of_wrong_kind_rejected(line, col, message):
    doc = TRIANGULAR_DOC + line + "\n"
    err = _kind_error(doc)
    assert (err.line, err.col) == (TRIANGULAR_DOC.count("\n") + 1, col)
    assert message in str(err)


CONSTRUCT_LINE = "construct triangular T = b B c C module M"


def _construct_key_error(extra, prefix=""):
    """Parse the triangular document with `extra` appended to its construct
    line (and `prefix` defined before that line); return the error and the
    (line, col) of the last token named in `extra`'s first word."""
    line = CONSTRUCT_LINE + " " + extra
    doc = TRIANGULAR_DOC.replace(CONSTRUCT_LINE, prefix + line)
    err = _kind_error(doc)
    line_no = doc[:doc.index(line)].count("\n") + 1
    return err, (line_no, line.rindex(extra.split()[0] + " ") + 1)


def test_construct_unknown_key_rejected():
    err, pos = _construct_key_error("colour B")
    assert (err.line, err.col) == pos
    assert "unknown key 'colour' for 'construct triangular'" in str(err)


def test_construct_repeated_key_rejected():
    """A second module would otherwise silently replace the first."""
    other = "bimodule N over C B dim 1\n  left e1 = 1\n  right e1 = 1\nend\n\n"
    err, pos = _construct_key_error("module N", prefix=other)
    assert (err.line, err.col) == pos
    assert "repeated key 'module'" in str(err)


def test_construct_repeated_side_key_rejected_at_its_token():
    """A repeated algebra key is an input error at its token, not a later
    failure of the construction without a position."""
    err, pos = _construct_key_error("b C")
    assert (err.line, err.col) == pos
    assert "repeated key 'b'" in str(err)


def test_construct_missing_key_rejected():
    doc = TRIANGULAR_DOC.replace(CONSTRUCT_LINE,
                                 "construct triangular T = b B c C")
    err = _kind_error(doc)
    assert "construction missing 'module'" in str(err)


def test_duplicate_name():
    doc = "field q\nquiver A\n vertices 1\nend\nquiver A\n vertices 1\nend\n"
    with pytest.raises(ParseError):
        parse_document(doc)


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as e:
        parse_document("field q\nquiver A\n  vertices 1\n  bogus x\nend\n")
    assert e.value.line == 4
    assert e.value.col == 3


def test_expression_parsing():
    assert parse_expr(["0"], 1, 1) == []
    assert parse_expr(["g*g"], 1, 1) == [(Fraction(1), ("g", "g"))]
    terms = parse_expr(["a*b", "-", "2*c*d"], 1, 1)
    assert terms == [(Fraction(1), ("a", "b")), (Fraction(-2), ("c", "d"))]
    terms = parse_expr(["1/2*x"], 1, 1)
    assert terms == [(Fraction(1, 2), ("x",))]


def test_malformed_scalar():
    with pytest.raises(ParseError):
        parse_expr(["2/0*x"], 3, 7)


def test_scalar_normalization_in_matrix_rows():
    doc = """
field q

quiver K
  vertices 1
end

bimodule M over K K dim 1
  left e1 = 2/4
  right e1 = 1
end
"""
    parsed = parse_document(doc)
    block = parsed.blocks[1]
    assert block.left_rows[0][1][0][0] == Fraction(1, 2)


ZERO_BIMODULE_DOC = demo_document().replace(
    "check extension GammaInLambda cap 12 pmax 8 hh 4", """
bimodule Z over Gamma Gamma dim 0
  left e1 =
  left e2 =
  left beta =
  left gamma =
  right e1 =
  right e2 =
  right beta =
  right gamma =
end

construct trivial_extension T = base Gamma module Z

check extension T
""")


def test_empty_action_body_is_the_matrix_with_no_rows():
    """A generator line with nothing after '=' is the 0x0 matrix, so a zero
    bimodule can be written, and the document round-trips; at dim 1 the
    same line is still too short."""
    doc = parse_document(ZERO_BIMODULE_DOC)
    assert doc.blocks[3].left_rows[0][1] == []
    built = build_document(doc)
    z = built.env["Z"]
    assert z.dim == 0
    assert z.left_action == z.right_action == ((),) * 5
    assert built.env["T.algebra"].table == built.env["Gamma"].table
    assert parse_document(doc.render()).render() == doc.render()
    with pytest.raises(ParseError, match="expected a 1x1 matrix"):
        parse_document(ZERO_BIMODULE_DOC.replace("dim 0", "dim 1"))


def test_build_minimal():
    built = build_document(parse_document(MINIMAL))
    assert built.env["K"].dim == 1


def test_build_triangular_document():
    built = build_document(parse_document(TRIANGULAR_DOC))
    ext = built.env["T"]
    assert isinstance(ext, ExtensionPresentation)
    assert ext.ambient.dim == 3
    assert built.checks[0].options == {"cap": "6", "pmax": "4"}


def test_round_trip_equivalence():
    doc = parse_document(TRIANGULAR_DOC)
    rendered = doc.render()
    doc2 = parse_document(rendered)
    built1 = build_document(doc)
    built2 = build_document(doc2)
    assert built1.env["B"].table == built2.env["B"].table
    assert built1.env["T"].ambient.table == built2.env["T"].ambient.table
    # rendering is a fixed point
    assert parse_document(doc2.render()).render() == rendered


def test_demo_document_round_trip():
    text = demo_document()
    doc = parse_document(text)
    built = build_document(doc)
    assert built.env["Lambda"].dim == 9
    assert built.env["Gamma"].dim == 5
    doc2 = parse_document(doc.render())
    built2 = build_document(doc2)
    assert built2.env["Lambda"].table == built.env["Lambda"].table
    assert built2.env["GammaInLambda"].embedding == \
        built.env["GammaInLambda"].embedding


def test_field_override():
    built = build_document(parse_document(MINIMAL), field_override="p:3")
    assert built.env["K"].field.characteristic == 3


def test_check_line_flags_round_trip():
    doc = parse_document(MINIMAL + "check invariants K gldim gorenstein hh 3\n")
    rendered = doc.render()
    assert "check invariants K gldim gorenstein hh 3\n" in rendered
    assert parse_document(rendered).blocks[-1].options == \
        {"gldim": "on", "gorenstein": "on", "hh": "3"}


BIMODULE_DOC = """field q

quiver K
  vertices 1
end

bimodule M over K K dim 1
  left e1 = 1
  right e1 = 1
end
"""

EMBED = "  embed gamma -> gamma\n"


@pytest.mark.parametrize("text, line, col, message", [
    (demo_document().replace(EMBED, EMBED + "  embed zeta -> alpha\n"),
     28, 3, "unknown generator 'zeta'"),
    (demo_document().replace(EMBED, "  embed gamma -> delta\n"),
     27, 3, "unknown generator 'delta'"),
    (demo_document().replace(EMBED, ""),
     23, 1, "no 'embed' line for generator gamma"),
    (demo_document().replace("retract alpha", "retract zeta"),
     32, 3, "unknown generator 'zeta'"),
    (BIMODULE_DOC.replace("left e1", "left e2"),
     8, 3, "unknown generator 'e2'"),
    (BIMODULE_DOC.replace("  right e1 = 1\n", ""),
     7, 1, "no 'right' line for generator e1"),
], ids=["unknown-embed-label", "unknown-generator-in-image", "missing-embed",
        "unknown-retract-label", "unknown-left-label", "missing-right"])
def test_generator_lines_checked_at_their_position(text, line, col, message):
    doc = parse_document(text)
    with pytest.raises(ParseError) as e:
        build_document(doc)
    assert (e.value.line, e.value.col, e.value.message) == \
        (line, col, message)


@pytest.mark.parametrize("text, line", [
    (BIMODULE_DOC.replace("  left e1 = 1\n", "  left e1 = 1\n  left e1 = 2\n"),
     9),
    (demo_document().replace(EMBED, EMBED + "  embed gamma -> 0\n"), 28),
], ids=["left", "embed"])
def test_repeated_generator_line_rejected(text, line):
    doc = parse_document(text)
    with pytest.raises(ParseError) as e:
        build_document(doc)
    assert (e.value.line, e.value.col) == (line, 3)
    assert e.value.message.startswith("repeated")
