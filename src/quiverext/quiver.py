"""Quiver presentations and the path-algebra-with-relations construction.

Paths compose right to left: in the expression "beta*gamma" the arrow
gamma is applied first. A path is stored as a tuple of arrow indices in
that written (left-to-right) order, so composition p after q is the tuple
concatenation p + q and requires source(p) == target(q).

Relations must be k-linear combinations of parallel paths, homogeneous of
a common length >= 2. The basis of kQ/I is computed degree by degree:
degree-l candidates are arrow extensions a*s of the surviving degree-(l-1)
paths, and the ideal component in candidate coordinates is spanned by the
rewrites of r*s for each relation r and each survivor s of matching
degree. `linalg.quotient` takes the quotient by that component: the free
candidates survive, and the normal form of a candidate is its class.
Everything is exact linear algebra per degree.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import AdmissibilityError, PresentationError
from .linalg import EchelonSpan, quotient
from .algebra import Algebra

# hard guard against runaway path enumeration on inadmissible input
_PATH_GUARD = 50_000


@dataclass(frozen=True)
class QuiverPresentation:
    vertices: tuple
    arrows: tuple          # (label, source, target)
    relations: tuple = ()  # each: tuple of (coefficient, path), path = arrow labels left to right
    path_length_cap: int = 12

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise PresentationError("duplicate vertex names")
        labels = [a[0] for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise PresentationError("duplicate arrow labels")
        if set(labels) & vset:
            raise PresentationError("arrow label collides with a vertex name")
        arrow_by_label = {a[0]: a for a in self.arrows}
        for a in self.arrows:
            if a[1] not in vset or a[2] not in vset:
                raise PresentationError(f"arrow {a[0]} uses unknown vertex")
        for rel in self.relations:
            if not rel:
                raise PresentationError("empty relation")
            lengths = set()
            ends = set()
            for coeff, path in rel:
                if Fraction(coeff) == 0:
                    raise PresentationError("zero coefficient in relation")
                if len(path) < 2:
                    raise PresentationError(
                        "relation paths must have length >= 2 (admissible ideal)")
                lengths.add(len(path))
                for lab in path:
                    if lab not in arrow_by_label:
                        raise PresentationError(f"unknown arrow {lab!r} in relation")
                for left, right in zip(path, path[1:]):
                    if arrow_by_label[left][1] != arrow_by_label[right][2]:
                        raise PresentationError(
                            f"non-composable path {'*'.join(path)} in relation")
                src = arrow_by_label[path[-1]][1]
                tgt = arrow_by_label[path[0]][2]
                ends.add((src, tgt))
            if len(lengths) != 1:
                raise PresentationError("relation is not length-homogeneous")
            if len(ends) != 1:
                raise PresentationError("relation paths are not parallel")


class _Trivial:
    """Marker wrapper for trivial paths so they can share dict keys with
    arrow-index tuples."""
    __slots__ = ("vertex",)

    def __init__(self, vertex):
        self.vertex = vertex

    def __hash__(self):
        return hash(("triv", self.vertex))

    def __eq__(self, other):
        return isinstance(other, _Trivial) and other.vertex == self.vertex


def algebra_from_presentation(pres, field):
    """Build the algebra kQ/I over `field` from a quiver presentation.

    Raises AdmissibilityError when nonzero paths survive at the length cap.
    """
    nv = len(pres.vertices)
    arrow_src = [pres.vertices.index(a[1]) for a in pres.arrows]
    arrow_tgt = [pres.vertices.index(a[2]) for a in pres.arrows]
    arrow_index = {a[0]: i for i, a in enumerate(pres.arrows)}

    def src_of(path):
        if isinstance(path, _Trivial):
            return path.vertex
        return arrow_src[path[-1]]

    def tgt_of(path):
        if isinstance(path, _Trivial):
            return path.vertex
        return arrow_tgt[path[0]]

    relations = []
    for rel in pres.relations:
        terms = tuple((field.of(Fraction(c)), tuple(arrow_index[l] for l in path))
                      for c, path in rel)
        relations.append(terms)

    # survivors[l]: ordered list of surviving paths of degree l
    survivors = [[_Trivial(v) for v in range(nv)]]
    # cand_nf[l]: path -> {survivor_path: coeff} for every degree-l candidate
    cand_nf = [{p: {p: field.one} for p in survivors[0]}]

    nf_memo = {}

    def normal_form(path, deg):
        """Normal form of an arbitrary degree-deg path over the survivors
        of that degree, as a sparse dict. Zero for paths past the last
        computed degree."""
        if deg >= len(cand_nf):
            return {}
        if deg <= 1:
            return cand_nf[deg].get(path, {})
        if path in nf_memo:
            return nf_memo[path]
        a, rest = path[0], path[1:]
        rest_nf = normal_form(rest, deg - 1)
        out = {}
        for s, c in rest_nf.items():
            ext = (a,) + (s if not isinstance(s, _Trivial) else ())
            # survivors keep their source/target, so ext is a candidate
            for t, d in cand_nf[deg].get(ext, {}).items():
                v = out.get(t, field.zero)
                v = field.add(v, field.mul(c, d))
                if not v:
                    out.pop(t, None)
                else:
                    out[t] = v
        nf_memo[path] = out
        return out

    degree = 0
    while survivors[degree]:
        degree += 1
        if degree > pres.path_length_cap:
            alive = survivors[degree - 1]
            raise AdmissibilityError(
                f"{len(alive)} nonzero paths of length {degree - 1} survive at "
                f"the cap {pres.path_length_cap}; ideal not admissible within cap")
        if degree == 1:
            cands = [(i,) for i in range(len(pres.arrows))]
            survivors.append(list(cands))
            cand_nf.append({c: {c: field.one} for c in cands})
            continue
        cands = []
        for i in range(len(pres.arrows)):
            for s in survivors[degree - 1]:
                if tgt_of(s) == arrow_src[i]:
                    ext = (i,) + (s if not isinstance(s, _Trivial) else ())
                    cands.append(ext)
        if len(cands) > _PATH_GUARD:
            raise PresentationError("path enumeration exploded; ideal is far from admissible")
        cand_pos = {c: i for i, c in enumerate(cands)}
        rels = []
        for terms in relations:
            d = len(terms[0][1])
            if d > degree:
                continue
            for s in survivors[degree - d]:
                if tgt_of(s) != src_of(terms[0][1]):
                    continue
                tail = s if not isinstance(s, _Trivial) else ()
                vec = {}
                for coeff, rpath in terms:
                    comp = rpath + tail
                    a, rest = comp[0], comp[1:]
                    for t, c in normal_form(rest, degree - 1).items():
                        ext = (a,) + (t if not isinstance(t, _Trivial) else ())
                        pos = cand_pos[ext]
                        vec[pos] = field.add(vec.get(pos, field.zero),
                                             field.mul(coeff, c))
                rels.append(vec)
        # the normal form of a candidate is its class modulo the relations,
        # over the free candidates, which survive
        classes, free, _ = quotient(EchelonSpan(field, len(cands), rels))
        surv = [cands[i] for i in free]
        survivors.append(surv)
        cand_nf.append({c: {surv[t]: x for t, x in cls.items()}
                        for c, cls in zip(cands, classes)})

    basis = [p for level in survivors for p in level]
    pos = {p: i for i, p in enumerate(basis)}

    def label_of(path):
        if isinstance(path, _Trivial):
            return f"e{pres.vertices[path.vertex]}"
        return "*".join(pres.arrows[i][0] for i in path)

    labels = [label_of(p) for p in basis]
    max_alive = len(survivors) - 1  # last degree with survivors is max_alive - 1

    def reduce_product(p, q):
        """Product of two basis paths as a sparse dict over basis indices."""
        if isinstance(q, _Trivial):
            return {pos[p]: field.one} if src_of(p) == q.vertex else {}
        if isinstance(p, _Trivial):
            return {pos[q]: field.one} if tgt_of(q) == p.vertex else {}
        if src_of(p) != tgt_of(q):
            return {}
        comp = p + q
        nf = normal_form(comp, len(comp))
        return {pos[t]: c for t, c in nf.items()}

    table = []
    for p in basis:
        row = []
        for q in basis:
            row.append(tuple(sorted(reduce_product(p, q).items())))
        table.append(tuple(row))

    one = field.one
    idempotents = [((pos[_Trivial(v)], one),) for v in range(nv)]
    unit = tuple(sorted((pos[_Trivial(v)], one) for v in range(nv)))
    radical_rows = [((pos[p], one),) for p in basis
                    if not isinstance(p, _Trivial)]

    meta = {
        "kind": "quiver",
        "vertices": tuple(pres.vertices),
        "arrow_basis_index": {pres.arrows[i][0]: pos[(i,)]
                              for i in range(len(pres.arrows)) if (i,) in pos},
        # per basis element: ("triv", vertex_index) or arrow labels, leftmost
        # (last applied) first
        "paths": tuple(("triv", p.vertex) if isinstance(p, _Trivial)
                       else tuple(pres.arrows[i][0] for i in p) for p in basis),
        "arrow_labels": tuple(a[0] for a in pres.arrows),
    }
    return Algebra(field, labels, table, unit, radical_rows, idempotents, meta=meta)
