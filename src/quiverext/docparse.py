"""The line-oriented input format.

A document is a sequence of blocks; every name must be defined before it
is referenced. Comments run from '#' to end of line. Scalars are exact:
integers, fractions like 2/3, or residues for prime fields.

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

Paths compose right to left: in beta*gamma the arrow gamma acts first.
Expressions are +/- combinations of terms; a term is an optional exact
coefficient times a product of named generators, or a bare coefficient
(meaning that multiple of the unit), or 0.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import QuiverExtError
from .linalg import Matrix, field_from_spec, linear_combination
from .quiver import QuiverPresentation, algebra_from_presentation
from .modules import Bimodule
from .extensions import (morita_ring_zero, subalgebra_extension,
                         triangular_matrix_algebra, trivial_extension)


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


@dataclass
class BimoduleBlock:
    name: str
    left: str
    right: str
    dim: int
    left_rows: list   # (gen, rows)
    right_rows: list


@dataclass
class ConstructBlock:
    kind: str
    name: str
    args: dict
    embeds: list = dc_field(default_factory=list)
    retracts: list = dc_field(default_factory=list)


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
                for gen, rows in b.left_rows:
                    out.append(f"  left {gen} = " + _render_rows(rows))
                for gen, rows in b.right_rows:
                    out.append(f"  right {gen} = " + _render_rows(rows))
                out.append("end")
            elif isinstance(b, ConstructBlock):
                if b.kind == "trivial_extension":
                    out.append(f"construct trivial_extension {b.name} = "
                               f"base {b.args['base']} module {b.args['module']}")
                elif b.kind == "triangular":
                    out.append(f"construct triangular {b.name} = b {b.args['b']} "
                               f"c {b.args['c']} module {b.args['module']}")
                elif b.kind == "morita_zero":
                    out.append(f"construct morita_zero {b.name} = b {b.args['b']} "
                               f"c {b.args['c']} m {b.args['m']} n {b.args['n']}")
                else:
                    out.append(f"construct subalgebra {b.name} = "
                               f"sub {b.args['sub']} ambient {b.args['ambient']}")
                    for gen, expr in b.embeds:
                        out.append(f"  embed {gen} -> " + _render_expr(expr))
                    for gen, expr in b.retracts:
                        out.append(f"  retract {gen} -> " + _render_expr(expr))
                    out.append("end")
            elif isinstance(b, CheckBlock):
                opts = " ".join(f"{k} {v}" for k, v in b.options.items())
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

    def peek_first(self):
        save = self.pos
        line, toks = self.next_tokens()
        self.pos = save
        return line, toks


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
    names = set()

    def fresh_name(name, line, col):
        if name in names:
            raise ParseError(line, col, f"name {name!r} already defined")
        names.add(name)

    def known(name, line, col):
        if name not in names:
            raise ParseError(line, col, f"undefined reference {name!r}")

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
            fresh_name(name, line, hcol)
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
            fresh_name(name, line, hcol)
            if _expect(toks, 2, line, "'over'") != "over":
                raise ParseError(line, toks[2][1], "expected 'over'")
            left = _expect(toks, 3, line, "left algebra name")
            right = _expect(toks, 4, line, "right algebra name")
            known(left, line, toks[3][1])
            known(right, line, toks[4][1])
            if _expect(toks, 5, line, "'dim'") != "dim":
                raise ParseError(line, toks[5][1], "expected 'dim'")
            try:
                dim = int(_expect(toks, 6, line, "dimension"))
            except ValueError:
                raise ParseError(line, toks[6][1], "dimension must be an integer")
            bb = BimoduleBlock(name, left, right, dim, [], [])
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
                (bb.left_rows if kw == "left" else bb.right_rows).append((gen, rows))
            blocks.append(bb)
        elif head == "construct":
            kind = _expect(toks, 1, line, "construction kind")
            name = _expect(toks, 2, line, "construction name")
            fresh_name(name, line, hcol)
            if _expect(toks, 3, line, "'='") != "=":
                raise ParseError(line, toks[3][1], "expected '='")
            rest = toks[4:]
            kv = {}
            i = 0
            while i < len(rest):
                key = rest[i][0]
                val = _expect(rest, i + 1, line, f"value for {key!r}")
                kv[key] = val
                known(val, line, rest[i + 1][1])
                i += 2
            cb = ConstructBlock(kind, name, kv)
            if kind == "trivial_extension":
                _need_keys(kv, ("base", "module"), line, hcol)
            elif kind == "triangular":
                _need_keys(kv, ("b", "c", "module"), line, hcol)
            elif kind == "morita_zero":
                _need_keys(kv, ("b", "c", "m", "n"), line, hcol)
            elif kind == "subalgebra":
                _need_keys(kv, ("sub", "ambient"), line, hcol)
                while True:
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
                    (cb.embeds if kw == "embed" else cb.retracts).append((gen, expr))
            else:
                raise ParseError(line, toks[1][1],
                                 f"unknown construction kind {kind!r}")
            blocks.append(cb)
        elif head == "check":
            kind = _expect(toks, 1, line, "'extension' or 'invariants'")
            if kind not in ("extension", "invariants"):
                raise ParseError(line, toks[1][1],
                                 "expected 'extension' or 'invariants'")
            name = _expect(toks, 2, line, "target name")
            known(name, line, toks[2][1])
            options = {}
            i = 3
            flag_words = {"gldim", "gorenstein"}
            while i < len(toks):
                key = toks[i][0]
                if key in flag_words:
                    options[key] = "on"
                    i += 1
                    continue
                val = _expect(toks, i + 1, line, f"value for option {key!r}")
                if key in ("cap", "pmax", "hh", "perp"):
                    try:
                        int(val)
                    except ValueError:
                        raise ParseError(line, toks[i + 1][1],
                                         f"option {key!r} needs an integer, "
                                         f"got {val!r}") from None
                options[key] = val
                i += 2
            blocks.append(CheckBlock(kind, name, options))
        else:
            raise ParseError(line, hcol, f"unknown directive {head!r}")
    if field_spec is None:
        raise ParseError(1, 1, "no field block")
    return InputDocument(field_spec, blocks)


def _need_keys(kv, keys, line, col):
    for k in keys:
        if k not in kv:
            raise ParseError(line, col, f"construction missing {k!r}")


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


def _generator_element(algebra, label, line=0, col=0):
    meta = algebra.meta
    if meta.get("kind") != "quiver":
        raise ParseError(line, col,
                         f"algebra does not expose named generators")
    if label.startswith("e") and label[1:] in meta["vertex_idempotent"]:
        return algebra.idempotents[meta["vertex_idempotent"][label[1:]]]
    if label in meta["arrow_basis_index"]:
        return algebra.basis_vector(meta["arrow_basis_index"][label])
    raise ParseError(line, col, f"unknown generator {label!r}")


def evaluate_expr(algebra, terms):
    """Evaluate a parsed expression to an element of the algebra."""
    f = algebra.field
    summands = []
    for coeff, path in terms:
        if not path:
            vec = algebra.unit
        else:
            vec = None
            for lab in reversed(path):
                g = _generator_element(algebra, lab)
                vec = g if vec is None else algebra.multiply(g, vec)
        summands.append((f.of(coeff), vec))
    return linear_combination(f, summands, algebra.dim)


def _action_from_generators(algebra, gen_rows, dim, field, side, line=0, col=0):
    """Extend generator action matrices multiplicatively over the path
    basis. side 'left' composes covariantly, 'right' contravariantly."""
    meta = algebra.meta
    if meta.get("kind") != "quiver":
        raise ParseError(line, col, "bimodule base must be a quiver algebra")
    gen_mats = {}
    for gen, rows in gen_rows:
        gen_mats[gen] = Matrix.from_rows(field, rows)
    for v in meta["vertices"]:
        if f"e{v}" not in gen_mats:
            raise ParseError(line, col, f"missing action for generator e{v}")
    for lab in meta["arrow_labels"]:
        if lab not in gen_mats:
            raise ParseError(line, col, f"missing action for generator {lab}")
    action = []
    ident = Matrix.identity(field, dim)
    for path in meta["paths"]:
        if path[0] == "triv":
            action.append(gen_mats[f"e{meta['vertices'][path[1]]}"])
            continue
        mat = None
        if side == "left":
            for lab in reversed(path):
                g = gen_mats[lab]
                mat = g if mat is None else g.mul(mat)
        else:
            for lab in path:
                g = gen_mats[lab]
                mat = g if mat is None else g.mul(mat)
        action.append(mat if mat is not None else ident)
    return action


def build_document(doc, field_override=None):
    """Construct all objects; returns a BuiltDocument with env and checks."""
    field = field_from_spec(field_override or doc.field_spec)
    env = {}
    checks = []
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
            la = _action_from_generators(left, b.left_rows, b.dim, field, "left")
            ra = _action_from_generators(right, b.right_rows, b.dim, field, "right")
            env[b.name] = Bimodule(left, right, b.dim, la, ra, validate=True)
        elif isinstance(b, ConstructBlock):
            if b.kind == "trivial_extension":
                t, ext = trivial_extension(env[b.args["base"]],
                                           env[b.args["module"]])
            elif b.kind == "triangular":
                t, ext = triangular_matrix_algebra(env[b.args["b"]],
                                                   env[b.args["c"]],
                                                   env[b.args["module"]])
            elif b.kind == "morita_zero":
                t, ext = morita_ring_zero(env[b.args["b"]], env[b.args["c"]],
                                          env[b.args["m"]], env[b.args["n"]])
            else:
                sub = env[b.args["sub"]]
                amb = env[b.args["ambient"]]
                emb = _map_from_generators(sub, amb, b.embeds, field)
                ret = None
                if b.retracts:
                    ret = _map_from_generators(amb, sub, b.retracts, field)
                ext = subalgebra_extension(amb, sub, emb, ret)
                t = amb
            env[b.name] = ext
            env[b.name + ".algebra"] = t
        elif isinstance(b, CheckBlock):
            checks.append(b)
    return BuiltDocument(field, env, checks)


def _map_from_generators(src, dst, gen_exprs, field):
    """Build the matrix of an algebra map src -> dst from generator images,
    extended multiplicatively along the path basis of src."""
    meta = src.meta
    if meta.get("kind") != "quiver":
        raise ParseError(0, 0, "subalgebra maps need quiver-presented algebras")
    images = {}
    for gen, expr in gen_exprs:
        images[gen] = evaluate_expr(dst, expr)
    for v in meta["vertices"]:
        if f"e{v}" not in images:
            raise ParseError(0, 0, f"missing image for generator e{v}")
    for lab in meta["arrow_labels"]:
        if lab not in images:
            raise ParseError(0, 0, f"missing image for generator {lab}")
    cols = []
    for path in meta["paths"]:
        if path[0] == "triv":
            cols.append(images[f"e{meta['vertices'][path[1]]}"])
            continue
        vec = None
        for lab in reversed(path):
            g = images[lab]
            vec = g if vec is None else dst.multiply(g, vec)
        cols.append(vec)
    return Matrix.from_cols(field, cols, nrows=dst.dim)
