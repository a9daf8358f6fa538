"""The line-oriented input format.

A document is a sequence of blocks; every name must be defined before it
is referenced, and name the kind of object (algebra, bimodule or
extension) its reference expects. Comments run from '#' to end of line.
Scalars are exact: integers, fractions like 2/3, or residues for prime
fields.

    field q                      # rationals; or: field p:5

    quiver NAME
      vertices V1 V2 ...
      arrow LABEL SOURCE TARGET
      relation EXPR              # e.g. gamma*gamma  or  a*b - 2*c*d
    end

    bimodule NAME over LEFT RIGHT dim D
      left GEN = r11 r12 ; r21 r22     # action rows for each generator
      right GEN = ...                  # GEN: e<vertex> or an arrow label
    end

    construct trivial_extension NAME = base R module M
    construct triangular NAME = b B c C module M
    construct morita_zero NAME = b B c C m M n N
    construct subalgebra NAME = sub B ambient A
      embed GEN -> EXPR          # per generator of B; extended
      retract GEN -> EXPR        # multiplicatively and then verified
    end

    check extension NAME [cap N] [pmax N] [hh N] [consequences on|off]
    check invariants NAME [gldim] [gorenstein] [hh N] [perp N] [cap N]

A block gives each generator exactly one line of each kind it uses
(`left`, `right`, `embed`, `retract`), and a check line takes only the
options shown. At dim 0 an action line has nothing after '=' (the matrix
with no rows). Errors found while building the document are reported at
the line of the directive, or of the block's header when a generator has
no line.

Paths compose right to left: in beta*gamma the arrow gamma acts first.
Expressions are +/- combinations of terms; a term is an optional exact
coefficient times a product of named generators, or a bare coefficient
(meaning that multiple of the unit), or 0.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from .errors import QuiverExtError
from .linalg import compose, field_from_spec, sparse_combination, to_column
from .quiver import QuiverPresentation, algebra_from_presentation
from .modules import Bimodule
from .extensions import (morita_ring_zero, subalgebra_extension,
                         triangular_matrix_algebra, trivial_extension)


# The options of each kind of check line: None for a flag word, int for an
# integer value, or the words a value may be.
CHECK_OPTIONS = {
    "extension": {"cap": int, "pmax": int, "hh": int,
                  "consequences": ("on", "off")},
    "invariants": {"gldim": None, "gorenstein": None, "hh": int, "perp": int,
                   "cap": int},
}

# The kinds a referenced name may have: a quiver block names an algebra, a
# bimodule block a bimodule and a construction an extension. A check's
# target is keyed by the kind of check.
ALGEBRA, BIMODULE, EXTENSION = "an algebra", "a bimodule", "an extension"
CHECK_KINDS = {"extension": (EXTENSION,), "invariants": (ALGEBRA, EXTENSION)}

# Each kind of construction: its keys in line order, each with the kind of
# name it takes, and its constructor over the named objects, which returns
# (algebra, extension). A subalgebra is built from its embed/retract block.
CONSTRUCTIONS = {
    "trivial_extension": ({"base": ALGEBRA, "module": BIMODULE},
                          trivial_extension),
    "triangular": ({"b": ALGEBRA, "c": ALGEBRA, "module": BIMODULE},
                   triangular_matrix_algebra),
    "morita_zero": ({"b": ALGEBRA, "c": ALGEBRA, "m": BIMODULE,
                     "n": BIMODULE}, morita_ring_zero),
    "subalgebra": ({"sub": ALGEBRA, "ambient": ALGEBRA}, None),
}


class ParseError(QuiverExtError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass
class QuiverBlock:
    name: str
    vertices: list
    arrows: list
    relations: list  # list of lists of (Fraction, tuple-of-labels)


# A generator directive (`left`, `right`, `embed` or `retract`) is kept as
# (generator label, body, (line, col) of the directive); a block keeps the
# (line, col) of its header in `pos`.


@dataclass
class BimoduleBlock:
    name: str
    left: str
    right: str
    dim: int
    left_rows: list   # (gen, rows, pos)
    right_rows: list
    pos: tuple = (1, 1)


@dataclass
class ConstructBlock:
    kind: str
    name: str
    args: dict
    embeds: list = dc_field(default_factory=list)   # (gen, expr, pos)
    retracts: list = dc_field(default_factory=list)
    pos: tuple = (1, 1)


@dataclass
class CheckBlock:
    kind: str
    name: str
    options: dict


@dataclass
class InputDocument:
    field_spec: str
    blocks: list

    def render(self):
        out = [f"field {self.field_spec}", ""]
        for b in self.blocks:
            if isinstance(b, QuiverBlock):
                out.append(f"quiver {b.name}")
                out.append("  vertices " + " ".join(b.vertices))
                for lab, s, t in b.arrows:
                    out.append(f"  arrow {lab} {s} {t}")
                for rel in b.relations:
                    out.append("  relation " + _render_expr(rel))
                out.append("end")
            elif isinstance(b, BimoduleBlock):
                out.append(f"bimodule {b.name} over {b.left} {b.right} dim {b.dim}")
                for gen, rows, _ in b.left_rows:
                    out.append(f"  left {gen} = " + _render_rows(rows))
                for gen, rows, _ in b.right_rows:
                    out.append(f"  right {gen} = " + _render_rows(rows))
                out.append("end")
            elif isinstance(b, ConstructBlock):
                out.append(f"construct {b.kind} {b.name} = " + " ".join(
                    f"{k} {b.args[k]}" for k in CONSTRUCTIONS[b.kind][0]))
                if b.kind == "subalgebra":
                    for gen, expr, _ in b.embeds:
                        out.append(f"  embed {gen} -> " + _render_expr(expr))
                    for gen, expr, _ in b.retracts:
                        out.append(f"  retract {gen} -> " + _render_expr(expr))
                    out.append("end")
            elif isinstance(b, CheckBlock):
                opts = " ".join(k if CHECK_OPTIONS[b.kind][k] is None
                                else f"{k} {v}" for k, v in b.options.items())
                out.append(f"check {b.kind} {b.name}" + (" " + opts if opts else ""))
            out.append("")
        return "\n".join(out).rstrip("\n") + "\n"


def _render_expr(terms):
    if not terms:
        return "0"
    parts = []
    for i, (coeff, path) in enumerate(terms):
        body = "*".join(path) if path else "1"
        c = Fraction(coeff)
        mag = abs(c)
        prefix = "" if mag == 1 and path else f"{mag}*" if path else f"{mag}"
        sign = "-" if c < 0 else "+"
        if i == 0:
            parts.append(("-" if c < 0 else "") + prefix + (body if path else ""))
            if not path:
                parts[-1] = ("-" if c < 0 else "") + str(mag)
        else:
            parts.append(f"{sign} " + (prefix + body if path else str(mag)))
    return " ".join(parts)


def _render_rows(rows):
    return " ; ".join(" ".join(str(x) for x in row) for row in rows)


class _Lines:
    def __init__(self, text):
        self.raw = text.split("\n")
        self.pos = 0

    def next_tokens(self):
        """Next nonempty line as (line_no, [(token, col), ...])."""
        while self.pos < len(self.raw):
            line = self.raw[self.pos]
            self.pos += 1
            body = line.split("#", 1)[0]
            toks = []
            col = 0
            for part in body.split():
                col = body.index(part, col)
                toks.append((part, col + 1))
                col += len(part)
            if toks:
                return self.pos, toks
        return None, None


def _expect(toks, i, line, what):
    if i >= len(toks):
        last_col = toks[-1][1] + len(toks[-1][0]) if toks else 1
        raise ParseError(line, last_col, f"expected {what}")
    return toks[i][0]


def parse_expr(tokens, line, col):
    """Parse a +/- combination of coefficient*path terms (tokens may carry
    spaces around the +/- signs). Returns a list of
    (Fraction, tuple_of_labels); the empty list is the zero expression."""
    text = "".join(tokens)
    if text == "0":
        return []
    chunks = []
    signs = []
    cur_sign = 1
    if text.startswith("-"):
        cur_sign = -1
        text = text[1:]
    elif text.startswith("+"):
        text = text[1:]
    buf = ""
    for ch in text:
        if ch in "+-":
            chunks.append(buf)
            signs.append(cur_sign)
            cur_sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    chunks.append(buf)
    signs.append(cur_sign)
    out = []
    for sgn, chunk in zip(signs, chunks):
        if not chunk:
            raise ParseError(line, col, "empty term in expression")
        factors = chunk.split("*")
        coeff = Fraction(sgn)
        path = []
        for fac in factors:
            if not fac:
                raise ParseError(line, col, "empty factor in expression")
            if fac[0].isdigit():
                try:
                    coeff *= Fraction(fac)
                except (ValueError, ZeroDivisionError):
                    raise ParseError(line, col, f"malformed scalar {fac!r}")
            else:
                path.append(fac)
        out.append((coeff, tuple(path)))
    return out


def parse_document(text):
    lines = _Lines(text)
    field_spec = None
    blocks = []
    names = {}  # name -> the kind of what it names

    def fresh_name(name, line, col, kind):
        if name in names:
            raise ParseError(line, col, f"name {name!r} already defined")
        names[name] = kind

    def known(name, line, col, kinds=None):
        """Reject a reference to an undefined name, or to one whose kind
        is not among kinds, at its position."""
        if name not in names:
            raise ParseError(line, col, f"undefined reference {name!r}")
        if kinds and names[name] not in kinds:
            raise ParseError(line, col, f"{name!r} is {names[name]}, "
                                        f"expected {' or '.join(kinds)}")

    while True:
        line, toks = lines.next_tokens()
        if toks is None:
            break
        head, hcol = toks[0]
        if head == "field":
            if field_spec is not None:
                raise ParseError(line, hcol, "duplicate field block")
            spec = _expect(toks, 1, line, "field spec ('q' or 'p:PRIME')")
            try:
                field_from_spec(spec)
            except QuiverExtError as e:
                raise ParseError(line, toks[1][1], str(e))
            field_spec = spec
        elif head == "quiver":
            if field_spec is None:
                raise ParseError(line, hcol, "no field block before first definition")
            name = _expect(toks, 1, line, "quiver name")
            fresh_name(name, line, hcol, ALGEBRA)
            qb = QuiverBlock(name, [], [], [])
            while True:
                line2, toks2 = lines.next_tokens()
                if toks2 is None:
                    raise ParseError(line, hcol, f"quiver {name!r} missing 'end'")
                kw, kcol = toks2[0]
                if kw == "end":
                    break
                if kw == "vertices":
                    qb.vertices.extend(t for t, _ in toks2[1:])
                elif kw == "arrow":
                    lab = _expect(toks2, 1, line2, "arrow label")
                    src = _expect(toks2, 2, line2, "source vertex")
                    tgt = _expect(toks2, 3, line2, "target vertex")
                    qb.arrows.append((lab, src, tgt))
                elif kw == "relation":
                    if len(toks2) < 2:
                        raise ParseError(line2, kcol, "empty relation")
                    qb.relations.append(parse_expr([t for t, _ in toks2[1:]],
                                                   line2, toks2[1][1]))
                else:
                    raise ParseError(line2, kcol,
                                     f"unknown quiver directive {kw!r}")
            blocks.append(qb)
        elif head == "bimodule":
            name = _expect(toks, 1, line, "bimodule name")
            fresh_name(name, line, hcol, BIMODULE)
            if _expect(toks, 2, line, "'over'") != "over":
                raise ParseError(line, toks[2][1], "expected 'over'")
            left = _expect(toks, 3, line, "left algebra name")
            right = _expect(toks, 4, line, "right algebra name")
            known(left, line, toks[3][1], (ALGEBRA,))
            known(right, line, toks[4][1], (ALGEBRA,))
            if _expect(toks, 5, line, "'dim'") != "dim":
                raise ParseError(line, toks[5][1], "expected 'dim'")
            try:
                dim = int(_expect(toks, 6, line, "dimension"))
            except ValueError:
                raise ParseError(line, toks[6][1], "dimension must be an integer")
            bb = BimoduleBlock(name, left, right, dim, [], [], (line, hcol))
            while True:
                line2, toks2 = lines.next_tokens()
                if toks2 is None:
                    raise ParseError(line, hcol, f"bimodule {name!r} missing 'end'")
                kw, kcol = toks2[0]
                if kw == "end":
                    break
                if kw not in ("left", "right"):
                    raise ParseError(line2, kcol,
                                     f"unknown bimodule directive {kw!r}")
                gen = _expect(toks2, 1, line2, "generator label")
                if _expect(toks2, 2, line2, "'='") != "=":
                    raise ParseError(line2, toks2[2][1], "expected '='")
                rows = _parse_rows([t for t, _ in toks2[3:]], line2, kcol, dim)
                (bb.left_rows if kw == "left" else bb.right_rows).append(
                    (gen, rows, (line2, kcol)))
            blocks.append(bb)
        elif head == "construct":
            kind = _expect(toks, 1, line, "construction kind")
            if kind not in CONSTRUCTIONS:
                raise ParseError(line, toks[1][1],
                                 f"unknown construction kind {kind!r}")
            name = _expect(toks, 2, line, "construction name")
            fresh_name(name, line, hcol, EXTENSION)
            if _expect(toks, 3, line, "'='") != "=":
                raise ParseError(line, toks[3][1], "expected '='")
            keys = CONSTRUCTIONS[kind][0]
            kv = {}
            for i in range(4, len(toks), 2):
                key, kcol = toks[i]
                if key not in keys:
                    raise ParseError(line, kcol, f"unknown key {key!r} for "
                                                 f"'construct {kind}'")
                if key in kv:
                    raise ParseError(line, kcol, f"repeated key {key!r}")
                kv[key] = _expect(toks, i + 1, line, f"value for {key!r}")
                known(kv[key], line, toks[i + 1][1], (keys[key],))
            for key in keys:
                if key not in kv:
                    raise ParseError(line, hcol, f"construction missing {key!r}")
            cb = ConstructBlock(kind, name, kv, pos=(line, hcol))
            while kind == "subalgebra":  # its lines, up to 'end'
                line2, toks2 = lines.next_tokens()
                if toks2 is None:
                    raise ParseError(line, hcol,
                                     f"subalgebra {name!r} missing 'end'")
                kw, kcol = toks2[0]
                if kw == "end":
                    break
                if kw not in ("embed", "retract"):
                    raise ParseError(line2, kcol,
                                     f"unknown subalgebra directive {kw!r}")
                gen = _expect(toks2, 1, line2, "generator label")
                if _expect(toks2, 2, line2, "'->'") != "->":
                    raise ParseError(line2, toks2[2][1], "expected '->'")
                expr = parse_expr([t for t, _ in toks2[3:]], line2, kcol)
                (cb.embeds if kw == "embed" else cb.retracts).append(
                    (gen, expr, (line2, kcol)))
            blocks.append(cb)
        elif head == "check":
            kind = _expect(toks, 1, line, "'extension' or 'invariants'")
            if kind not in CHECK_OPTIONS:
                raise ParseError(line, toks[1][1],
                                 "expected 'extension' or 'invariants'")
            name = _expect(toks, 2, line, "target name")
            known(name, line, toks[2][1], CHECK_KINDS[kind])
            allowed = CHECK_OPTIONS[kind]
            options = {}
            i = 3
            while i < len(toks):
                key, kcol = toks[i]
                if key not in allowed:
                    raise ParseError(line, kcol, f"unknown option {key!r} "
                                                 f"for 'check {kind}'")
                if allowed[key] is None:
                    options[key] = "on"
                    i += 1
                    continue
                val = _expect(toks, i + 1, line, f"value for option {key!r}")
                if allowed[key] is int:
                    try:
                        int(val)
                    except ValueError:
                        raise ParseError(line, toks[i + 1][1],
                                         f"option {key!r} needs an integer, "
                                         f"got {val!r}") from None
                elif val not in allowed[key]:
                    raise ParseError(line, toks[i + 1][1],
                                     f"option {key!r} takes "
                                     f"{' or '.join(allowed[key])}, "
                                     f"got {val!r}")
                options[key] = val
                i += 2
            blocks.append(CheckBlock(kind, name, options))
        else:
            raise ParseError(line, hcol, f"unknown directive {head!r}")
    if field_spec is None:
        raise ParseError(1, 1, "no field block")
    return InputDocument(field_spec, blocks)


def _parse_rows(tokens, line, col, dim):
    rows = []
    current = []
    for t in tokens:
        if t == ";":
            rows.append(current)
            current = []
        else:
            try:
                current.append(Fraction(t))
            except (ValueError, ZeroDivisionError):
                raise ParseError(line, col, f"malformed scalar {t!r}")
    if tokens:  # an empty body is the matrix with no rows
        rows.append(current)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ParseError(line, col,
                         f"expected a {dim}x{dim} matrix (rows split by ';')")
    return rows


# -- building the environment --------------------------------------------


class BuiltDocument:
    def __init__(self, field, env, checks):
        self.field = field
        self.env = env
        self.checks = checks


def _generators(algebra, pos):
    """The named generators of a quiver algebra, label -> element: e<vertex>
    for each vertex idempotent, and the arrows."""
    meta = algebra.meta
    if meta.get("kind") != "quiver":
        raise ParseError(*pos, "algebra does not expose named generators")
    out = {f"e{v}": e for v, e in zip(meta["vertices"], algebra.idempotents)}
    for lab in meta["arrow_labels"]:
        out[lab] = ((meta["arrow_basis_index"][lab], algebra.field.one),)
    return out


def evaluate_expr(algebra, terms, pos):
    """Evaluate a parsed expression to an element of the algebra, as its
    (index, coeff) pairs; an unknown generator is reported at pos, the
    (line, col) of the expression."""
    f = algebra.field
    gens = _generators(algebra, pos)
    summands = []
    for coeff, path in terms:
        elem = algebra.unit
        for lab in reversed(path):
            if lab not in gens:
                raise ParseError(*pos, f"unknown generator {lab!r}")
            elem = algebra.sparse_multiply(gens[lab], elem)
        summands.append((f.of(coeff), elem))
    return to_column(sparse_combination(f, summands))


def _extend_from_generators(algebra, kw, directives, image, product, pos):
    """The images of the path basis of a quiver algebra, extended
    multiplicatively from the `kw` directives, one per generator.

    image(body, pos) is the image of a directive's generator. The image of
    the path a_1 ... a_l (a_l applied first) is product(g_1, product(g_2,
    ... g_l)), and for a right action, which reverses products, the same
    product of g_l, ..., g_1. An unknown or repeated generator is rejected
    at its directive, a missing one at pos, the block's header."""
    meta = algebra.meta
    names = _generators(algebra, pos)
    images = {}
    for gen, body, gpos in directives:
        if gen not in names:
            raise ParseError(*gpos, f"unknown generator {gen!r}")
        if gen in images:
            raise ParseError(*gpos, f"repeated '{kw}' line for generator "
                                    f"{gen!r}")
        images[gen] = image(body, gpos)
    for gen in names:
        if gen not in images:
            raise ParseError(*pos, f"no '{kw}' line for generator {gen}")
    out = []
    for path in meta["paths"]:
        labels = ([f"e{meta['vertices'][path[1]]}"] if path[0] == "triv"
                  else list(path if kw == "right" else reversed(path)))
        acc = images[labels[0]]
        for lab in labels[1:]:
            acc = product(images[lab], acc)
        out.append(acc)
    return out


def build_document(doc, field_override=None):
    """Construct all objects; returns a BuiltDocument with env and checks."""
    field = field_from_spec(field_override or doc.field_spec)
    env = {}
    checks = []

    def columns(body, _):
        """The parsed rows of an action as a column-sparse map."""
        return tuple(tuple((i, x) for i, row in enumerate(body)
                           if (x := field.of(row[j])))
                     for j in range(len(body)))

    for b in doc.blocks:
        if isinstance(b, QuiverBlock):
            pres = QuiverPresentation(
                vertices=tuple(b.vertices),
                arrows=tuple(b.arrows),
                relations=tuple(tuple((c, p) for c, p in rel)
                                for rel in b.relations),
            )
            env[b.name] = algebra_from_presentation(pres, field)
        elif isinstance(b, BimoduleBlock):
            left = env[b.left]
            right = env[b.right]
            env[b.name] = Bimodule(
                left, right, b.dim,
                _extend_from_generators(left, "left", b.left_rows, columns,
                                        partial(compose, field), b.pos),
                _extend_from_generators(right, "right", b.right_rows, columns,
                                        partial(compose, field), b.pos),
                validate=True)
        elif isinstance(b, ConstructBlock):
            keys, construct = CONSTRUCTIONS[b.kind]
            args = [env[b.args[k]] for k in keys]
            t, ext = construct(*args) if construct else _subalgebra(b, *args)
            env[b.name] = ext
            env[b.name + ".algebra"] = t
        elif isinstance(b, CheckBlock):
            checks.append(b)
    return BuiltDocument(field, env, checks)


def _subalgebra(block, sub, amb):
    """The ambient algebra and the extension of a subalgebra block."""
    emb = _map_from_generators(sub, amb, "embed", block.embeds, block.pos)
    ret = None
    if block.retracts:
        ret = _map_from_generators(amb, sub, "retract", block.retracts,
                                   block.pos)
    return amb, subalgebra_extension(amb, sub, emb, ret)


def _map_from_generators(src, dst, kw, directives, pos):
    """The column-sparse map of an algebra map src -> dst from generator
    images, extended multiplicatively along the path basis of src."""
    return tuple(_extend_from_generators(
        src, kw, directives,
        lambda expr, epos: evaluate_expr(dst, expr, epos),
        lambda g, acc: tuple(sorted(dst.sparse_multiply(g, acc))), pos))
