"""Ring extensions B <= A and the hypothesis checker.

An ExtensionPresentation is an algebra A with a verified unital injective
algebra embedding of B, an optional verified retraction (split witness),
and a provenance tag. The checker verifies, with exact certificates:

  * finiteness of the projective dimension of the quotient bimodule A/B
    over the enveloping algebra B^e,
  * nilpotency of the quotient under iterated tensor powers over B,
  * vanishing of Tor_i^B between the quotient and its tensor powers in the
    complete range implied by the two bounds above (both orientations),
  * splitness of the extension (witness verification only, no search),

and assembles the singular-equivalence / defect-equivalence conclusions,
optionally with consequence cross-checks (Hochschild homology agreement,
global dimension status agreement, exactness of the relative tensor
complex).

The relative tensor complex 0 -> A (x)_B (A/B)^{(x)(p-1)} (x)_B A -> ...
-> A (x)_B A -> A -> 0 is built with alternating-sum multiplication
differentials; the sign convention is validated at construction by the
d o d = 0 self-check and descent checks rather than assumed.
"""

from dataclasses import dataclass
from itertools import product

from .errors import (FieldMismatchError, InternalCheckError, ValidationError,
                     WitnessError)
from .linalg import (Matrix, kron, nonzero_pairs, quotient_space, rank,
                     sparse_combination, unit_vector)
from .algebra import Algebra, product_algebra
from .modules import (Bimodule, ModuleMap, bimodule_direct_sum,
                      projective_bimodule, tensor_over)
from .resolutions import (ChainComplex, is_projective, minimal_resolution,
                          projective_dimension, tor)
from . import verdicts
from .verdicts import Verdict


class ExtensionPresentation:
    """A pair B <= A with verified embedding and optional split witness."""

    __slots__ = ("ambient", "sub", "embedding", "retraction", "provenance",
                 "_cache")

    def __init__(self, ambient, sub, embedding, retraction=None,
                 provenance="generic", validate=True):
        self.ambient = ambient
        self.sub = sub
        self.embedding = embedding
        self.retraction = retraction
        self.provenance = provenance
        self._cache = {}
        if validate:
            self.validate()

    def validate(self):
        a, b, emb = self.ambient, self.sub, self.embedding
        if a.field != b.field:
            raise FieldMismatchError("extension members over different fields")
        if emb.nrows != a.dim or emb.ncols != b.dim:
            raise WitnessError("embedding matrix has shape "
                               f"{emb.nrows}x{emb.ncols}, expected {a.dim}x{b.dim}")
        if rank(emb) != b.dim:
            raise WitnessError("embedding is not injective")
        if emb.apply(b.unit) != a.unit:
            raise WitnessError("embedding is not unital")
        images = [emb.apply(b.basis_vector(i)) for i in range(b.dim)]
        for i in range(b.dim):
            for j in range(b.dim):
                lhs = emb.apply(b.multiply(b.basis_vector(i), b.basis_vector(j)))
                rhs = a.multiply(images[i], images[j])
                if lhs != rhs:
                    raise WitnessError(
                        f"embedding not multiplicative at basis pair ({i}, {j})")
        if self.retraction is not None:
            problem = retraction_violation(self)
            if problem:
                raise WitnessError(problem)

    def embed(self, bvec):
        return self.embedding.apply(bvec)

    def __repr__(self):
        return (f"ExtensionPresentation({self.sub.dim} <= {self.ambient.dim}, "
                f"{self.provenance})")


def retraction_violation(ext):
    """Return a description of the first violated retraction identity, or
    None when the witness verifies."""
    a, b = ext.ambient, ext.sub
    ret = ext.retraction
    if ret.nrows != b.dim or ret.ncols != a.dim:
        return "retraction matrix has the wrong shape"
    if ret.apply(a.unit) != b.unit:
        return "retraction is not unital"
    for i in range(a.dim):
        xi = ret.apply(a.basis_vector(i))
        for j in range(a.dim):
            lhs = ret.apply(a.multiply(a.basis_vector(i), a.basis_vector(j)))
            rhs = b.multiply(xi, ret.apply(a.basis_vector(j)))
            if lhs != rhs:
                return f"retraction not multiplicative at basis pair ({i}, {j})"
    for i in range(b.dim):
        if ret.apply(ext.embed(b.basis_vector(i))) != b.basis_vector(i):
            return f"retraction does not split the embedding at basis element {i}"
    return None


# -- constructors -------------------------------------------------------


def trivial_extension(r, m):
    """Trivial extension T = R (+) M with (r,m)(r',m') = (rr', rm' + mr').

    m must be an (R, R)-bimodule. Returns (T, extension) where the
    extension carries the canonical embedding r -> (r, 0) and the
    canonical retraction (r, m) -> r as a split witness.
    """
    if m.left_alg is not r or m.right_alg is not r:
        raise ValidationError("trivial extension needs an (R, R)-bimodule")
    f = r.field
    nr, nm = r.dim, m.dim
    n = nr + nm
    labels = tuple(r.basis_labels) + tuple(f"m{i}" for i in range(nm))
    table = []
    for i in range(nr):
        row = []
        for j in range(nr):
            row.append(tuple(r.table[i][j]))
        for j in range(nm):
            col = m.left_action[i].col(j)
            row.append(tuple((nr + t, c) for t, c in enumerate(col) if c))
        table.append(tuple(row))
    for i in range(nm):
        row = []
        for j in range(nr):
            col = m.right_action[j].col(i)
            row.append(tuple((nr + t, c) for t, c in enumerate(col) if c))
        for j in range(nm):
            row.append(tuple())
        table.append(tuple(row))
    pad = (f.zero,) * nm
    unit = tuple(r.unit) + pad
    radical_rows = [tuple(rr) + pad for rr in r.radical_rows]
    radical_rows += [unit_vector(f, n, nr + i) for i in range(nm)]
    idempotents = [tuple(e) + pad for e in r.idempotents]
    t = Algebra(f, labels, table, unit, radical_rows, idempotents,
                meta={"kind": "trivial-extension", "base_dim": nr})
    ret = Matrix(f, [unit_vector(f, n, j) for j in range(nr)], n)
    emb = ret.transpose()
    ext = ExtensionPresentation(t, r, emb, ret, provenance="trivial-extension")
    return t, ext


def _inflate_to_product(m, pa, left_part, right_part):
    """Inflate a bimodule to a (B x C)-bimodule: the off-corner actions are
    zero. left_part/right_part say which factor acts on which side:
    0 = the first factor of the product, 1 = the second."""
    f = pa.field
    nb = pa.meta["left_dim"]
    nc = pa.meta["right_dim"]
    zero = Matrix.zeros(f, m.dim, m.dim)
    left = []
    right = []
    for i in range(nb + nc):
        in_first = i < nb
        idx = i if in_first else i - nb
        if (0 if in_first else 1) == left_part:
            left.append(m.left_action[idx])
        else:
            left.append(zero)
        if (0 if in_first else 1) == right_part:
            right.append(m.right_action[idx])
        else:
            right.append(zero)
    return Bimodule(pa, pa, m.dim, left, right, validate=True)


def triangular_matrix_algebra(b, c, m):
    """Lower triangular matrix algebra on (B, C) with a (C, B)-bimodule M,
    realized as the trivial extension of B x C by the inflated bimodule."""
    if m.left_alg is not c or m.right_alg is not b:
        raise ValidationError("triangular construction needs a (C, B)-bimodule")
    pa = product_algebra(b, c)
    inflated = _inflate_to_product(m, pa, left_part=1, right_part=0)
    t, ext = trivial_extension(pa, inflated)
    ext.provenance = "triangular"
    return t, ext


def morita_ring_zero(b, c, m, n):
    """Morita ring with both pairing maps zero: (B x C) |x (M (+) N).

    m is a (C, B)-bimodule, n a (B, C)-bimodule. Associativity of the
    result is re-verified by the algebra constructor."""
    if m.left_alg is not c or m.right_alg is not b:
        raise ValidationError("morita construction: m must be a (C, B)-bimodule")
    if n.left_alg is not b or n.right_alg is not c:
        raise ValidationError("morita construction: n must be a (B, C)-bimodule")
    pa = product_algebra(b, c)
    infl_m = _inflate_to_product(m, pa, left_part=1, right_part=0)
    infl_n = _inflate_to_product(n, pa, left_part=0, right_part=1)
    total = bimodule_direct_sum([infl_m, infl_n])
    t, ext = trivial_extension(pa, total)
    ext.provenance = "morita-zero"
    return t, ext


def subalgebra_extension(a, b, embedding, retraction=None):
    """Wrap a generic verified embedding B -> A (and optional retraction)."""
    return ExtensionPresentation(a, b, embedding, retraction,
                                 provenance="generic")


# -- quotient bimodule and hypothesis checks ----------------------------


def quotient_maps(ext):
    """Projection/section for A / embedded B (cached)."""
    if "qmaps" not in ext._cache:
        ext._cache["qmaps"] = quotient_space(ext.ambient.dim, ext.embedding)
    return ext._cache["qmaps"]


def quotient_bimodule(ext):
    """A/B as a (B, B)-bimodule, actions induced through the embedding.

    The complement is the canonical one chosen by quotient_space; the
    two-sided action identities are verified exactly on construction."""
    if "quotient" in ext._cache:
        return ext._cache["quotient"]
    a, b = ext.ambient, ext.sub
    proj, sect = quotient_maps(ext)
    left = []
    right = []
    for i in range(b.dim):
        img = ext.embed(b.basis_vector(i))
        left.append(proj.mul(a.left_mult_matrix(img)).mul(sect))
        right.append(proj.mul(a.right_mult_matrix(img)).mul(sect))
    q = Bimodule(b, b, proj.nrows, left, right, validate=True)
    ext._cache["quotient"] = q
    return q


def check_nilpotency(ext, p_max):
    """Smallest p with (A/B)^{(x)_B p} = 0, or undetermined at p_max."""
    q = quotient_bimodule(ext)
    dims = []
    power = q
    for p in range(1, p_max + 1):
        dims.append(power.dim)
        if power.dim == 0:
            return verdicts.holds(value=p, bound=p_max,
                                  certificate={"power_dims": dims})
        if p < p_max:
            power = tensor_over(power, q)
    return verdicts.undetermined(bound=p_max, certificate={"power_dims": dims})


def check_bimodule_pd(ext, cap, seed=0):
    """Projective dimension of A/B over B^e, with resolution certificate."""
    q = quotient_bimodule(ext)
    return projective_dimension(q.as_env_module(), cap, seed=seed)


def check_split(ext):
    """Split verdict by witness verification only; no search is attempted."""
    if ext.retraction is None:
        return verdicts.undetermined(certificate={"reason": "no retraction witness"})
    problem = retraction_violation(ext)
    if problem:
        return verdicts.fails(certificate={"violation": problem})
    return verdicts.holds(certificate={"witness": "retraction verified"})


def check_tor_vanishing(ext, p, d):
    """Tor table in the complete range i in [1, d], j in [1, p-1].

    p is the nilpotency index, d the finite projective dimension of A/B
    over B^e; restriction of a bounded B^e-projective resolution shows
    pd_B(A/B) <= d on either side, so the rectangle covers all (i, j).
    Both orientations are computed; their all-zero statuses must agree.
    Returns (tables, verdict)."""
    if d is None or p is None:
        raise ValidationError("tor range needs a finite pd and a nilpotency index")
    q = quotient_bimodule(ext)
    powers = {}
    pw = q
    for j in range(1, max(p, 2)):
        powers[j] = pw
        if j + 1 < max(p, 2):
            pw = tensor_over(pw, q)
    table_qp = {}
    table_pq = {}
    for j in range(1, p):
        pj = powers[j]
        dims1 = tor(q.as_right_module(), pj.as_left_module(), d)
        dims2 = tor(pj.as_right_module(), q.as_left_module(), d)
        for i in range(1, d + 1):
            table_qp[(i, j)] = dims1[i]
            table_pq[(i, j)] = dims2[i]
    ok1 = all(v == 0 for v in table_qp.values())
    ok2 = all(v == 0 for v in table_pq.values())
    if ok1 != ok2:
        raise InternalCheckError("Tor vanishing orientations disagree")
    tables = {"q_then_power": table_qp, "power_then_q": table_pq}
    if ok1:
        return tables, verdicts.holds(bound=d, certificate={"cells": len(table_qp)})
    bad = sorted((ij, v) for ij, v in table_qp.items() if v) + \
        sorted((ij, v) for ij, v in table_pq.items() if v)
    return tables, verdicts.fails(certificate={"nonzero_cells": bad[:8]})


# -- the relative tensor complex ----------------------------------------


def _ext_side_bimodules(ext):
    """A as an (A, B)-bimodule and as a (B, A)-bimodule through iota."""
    a, b = ext.ambient, ext.sub
    if "side_bimods" in ext._cache:
        return ext._cache["side_bimods"]
    la = [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
    ra = [a.right_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
    lb = [a.left_mult_matrix(ext.embed(b.basis_vector(i))) for i in range(b.dim)]
    rb = [a.right_mult_matrix(ext.embed(b.basis_vector(i))) for i in range(b.dim)]
    a_ab = Bimodule(a, b, a.dim, la, rb, validate=False)
    a_ba = Bimodule(b, a, a.dim, lb, ra, validate=False)
    ext._cache["side_bimods"] = (a_ab, a_ba)
    return a_ab, a_ba


def relative_bar_complex(ext, p):
    """The augmented complex of A-bimodules
    0 -> A (x)_B Q^{(x)(p-1)} (x)_B A -> ... -> A (x)_B A -> A -> 0
    with Q = A/B, indexed so that A sits in degree -1 and the term X_j
    with j quotient factors sits in degree j.

    A raw tensor of degree j is a tuple (i, t_1, ..., t_j, i') of basis
    indices of A, Q, ..., Q, A; one of degree -1 is a 1-tuple (i,). Each
    basis vector of X_j is the class of one raw tensor, and the class of
    any raw tensor is folded factor by factor through the pair classes of
    the tensor_over calls that build X_j. Face m multiplies factors m and
    m + 1 in A, a Q factor entering as its section; an inner product goes
    back to Q by the quotient projection. Column c of d_j is the
    alternating face sum of basis tensor c, in the classes of X_{j-1}; the
    augmentation is j = 0.

    Verified at construction: the face sum of every raw tensor equals d_j
    applied to its class, so the faces descend to the tensor quotient;
    d o d = 0; and each differential commutes with the left and the right
    actions of A. The complex's modules are the terms' left A-modules.
    """
    a = ext.ambient
    f = a.field
    one, minus = f.one, f.neg(f.one)
    q = quotient_bimodule(ext)
    proj_q, sect_q = quotient_maps(ext)
    n, mq = a.dim, q.dim
    a_ab, a_ba = _ext_side_bimodules(ext)
    lift = [nonzero_pairs(f, sect_q.col(t)) for t in range(mq)]
    to_q = [nonzero_pairs(f, proj_q.col(k)) for k in range(n)]

    def append(term, y):
        """Tensor a term with y over B: its bimodule, the raw tensors of its
        basis and the memoised class of a raw tensor."""
        bim, raws, prev = term
        out, classes, free = tensor_over(bim, y, return_maps=True)
        memo = {}

        def cls(raw):
            if raw not in memo:
                memo[raw] = sparse_combination(f, [
                    (c, classes[l * y.dim + raw[-1]].items())
                    for l, c in prev(raw[:-1]).items()])
            return memo[raw]

        return out, [raws[k // y.dim] + (k % y.dim,) for k in free], cls

    def faces(raw, prev):
        """The alternating face sum of a raw tensor, in the classes prev."""
        last = len(raw) - 1
        parts = []
        for m in range(last):
            x = lift[raw[m]] if m else ((raw[m], one),)
            y = lift[raw[m + 1]] if m + 1 < last else ((raw[m + 1], one),)
            prod = a.sparse_multiply(x, y)
            if 0 < m < last - 1:
                prod = sparse_combination(
                    f, [(c, to_q[k]) for k, c in prod]).items()
            sign = one if m % 2 == 0 else minus
            parts.extend((f.mul(sign, c),
                          prev(raw[:m] + (k,) + raw[m + 2:]).items())
                         for k, c in prod)
        return sparse_combination(f, parts)

    def unit(raw):
        return {raw[0]: one}

    units = [(i,) for i in range(n)]
    stage = (a_ab, units, unit)
    terms = {-1: (Bimodule.regular(a), units, unit)}
    for j in range(p):
        if j:
            stage = append(stage, q)
        terms[j] = append(stage, a_ba)
    modules = {j: term[0].as_left_module() for j, term in terms.items()}
    diffs = {}
    for j in range(p):
        raws, cls = terms[j][1:]
        prev = terms[j - 1][2]
        cols = [faces(raw, prev) for raw in raws]
        for raw in product(range(n), *[range(mq)] * j, range(n)):
            via_class = sparse_combination(
                f, [(c, cols[s].items()) for s, c in cls(raw).items()])
            if faces(raw, prev) != via_class:
                raise InternalCheckError(
                    "bar differential does not descend to the tensor quotient")
        d = Matrix.from_sparse(f, cols, modules[j - 1].dim).transpose()
        diffs[j] = ModuleMap(modules[j], modules[j - 1], d, validate=False)

    cc = ChainComplex(modules, diffs, validate=True)
    # A (x) 1 and 1 (x) A^op generate A^e, so a map that commutes with the
    # left actions (checked above) and the right ones is a bimodule map
    for j, d in diffs.items():
        ModuleMap(terms[j][0].as_right_module(),
                  terms[j - 1][0].as_right_module(), d.matrix)
    return cc


# -- derived Tor families and projectivity transport ---------------------


def check_derived_tor_families(ext, p, cap):
    """The three induced vanishing families over B, given the main ones:

      (1) Tor_i(A, A) = 0 for i >= 1,
      (2) Tor_i(Q^{(x) j}, A) = 0 for i, j >= 1,
      (3) Tor_i(A, Q^{(x) j} (x)_B A) = 0 for i, j >= 1.

    Any nonzero cell is reported as a counterexample candidate; on inputs
    whose main hypotheses hold this indicates an engine bug."""
    q = quotient_bimodule(ext)
    a_ab, a_ba = _ext_side_bimodules(ext)
    a_right, a_left = a_ab.as_right_module(), a_ba.as_left_module()
    report = {"family1": {}, "family2": {}, "family3": {}, "nonzero": []}
    dims = tor(a_right, a_left, cap)
    for i in range(1, cap + 1):
        report["family1"][i] = dims[i]
        if dims[i]:
            report["nonzero"].append(("family1", i, None, dims[i]))
    power = q
    for j in range(1, p):
        if power.dim:
            d2 = tor(power.as_right_module(), a_left, cap)
            mixed = tensor_over(power, Bimodule.from_left_module(a_left))
            d3 = tor(a_right, mixed.as_left_module(), cap)
        else:
            d2 = [0] * (cap + 1)
            d3 = [0] * (cap + 1)
        for i in range(1, cap + 1):
            report["family2"][(i, j)] = d2[i]
            report["family3"][(i, j)] = d3[i]
            if d2[i]:
                report["nonzero"].append(("family2", i, j, d2[i]))
            if d3[i]:
                report["nonzero"].append(("family3", i, j, d3[i]))
        if j + 1 < p:
            power = tensor_over(power, q)
    report["all_vanish"] = not report["nonzero"]
    return report


def projectivity_transport_check(ext, cap=12):
    """Transport of projectivity through the extension:

      (a) A (x)_B P (x)_B A is projective over A^e for every projective
          indecomposable P over B^e;
      (b) every term of the minimal B^e-resolution of A/B, tensored with
          B (x)_k B over B, is projective over B^e.
    """
    b = ext.sub
    a_ab, a_ba = _ext_side_bimodules(ext)
    results = {"transported": [], "resolution_terms": [], "all_projective": True}
    pairs = [(u, v) for u in range(len(b.idempotents))
             for v in range(len(b.idempotents))]
    for u, v in pairs:
        pb = projective_bimodule(b, u, v)
        moved = tensor_over(tensor_over(a_ab, pb), a_ba)
        ok = is_projective(moved.as_env_module())
        results["transported"].append(((u, v), moved.dim, ok))
        if not ok:
            results["all_projective"] = False
    q = quotient_bimodule(ext)
    res = minimal_resolution(q.as_env_module(), cap=cap)
    # B (x)_k B as a (B, B)-bimodule: left action on the left factor,
    # right action on the right factor, middle structure free
    f = b.field
    nb = b.dim
    left = []
    right = []
    for i in range(nb):
        li = b.left_mult_matrix(b.basis_vector(i))
        left.append(kron(li, Matrix.identity(f, nb)))
        ri = b.right_mult_matrix(b.basis_vector(i))
        right.append(kron(Matrix.identity(f, nb), ri))
    bkb = Bimodule(b, b, nb * nb, left, right, validate=False)
    for i, gens in enumerate(res.gens):
        term = _env_projective_bimodule(b, gens)
        if term is None:
            results["resolution_terms"].append((i, 0, True))
            continue
        tensored = tensor_over(term, bkb)
        ok = is_projective(tensored.as_env_module())
        results["resolution_terms"].append((i, term.dim, ok))
        if not ok:
            results["all_projective"] = False
    return results


def _env_projective_bimodule(b, gens):
    """Rebuild the direct sum of B e_u (x) e_v B bimodules from the list of
    enveloping-algebra idempotent indices."""
    if not gens:
        return None
    r = len(b.idempotents)
    parts = []
    for g in gens:
        u, v = divmod(g, r)
        parts.append(projective_bimodule(b, u, v))
    return bimodule_direct_sum(parts) if len(parts) > 1 else parts[0]


# -- report assembly -----------------------------------------------------


@dataclass
class CheckConfig:
    cap: int = 12
    p_max: int = 8
    hh_range: int = 4
    seed: int = 0
    consequences: bool = True
    bar_check: bool = True


@dataclass
class HypothesisReport:
    quotient_dim: int
    pd_verdict: object
    nilpotency: Verdict
    tor_tables: dict
    tor_verdict: Verdict
    split_verdict: Verdict
    sing_equiv: Verdict
    defect_equiv: Verdict
    consequences: dict
    config: CheckConfig
    provenance: str

    def hypothesis_failed(self):
        return (self.pd_verdict.kind == "infinite" or self.tor_verdict.fails
                or self.split_verdict.fails)

    def exit_code(self):
        """0 both conclusions hold, 1 some hypothesis fails definitively,
        2 undetermined at the bounds."""
        if self.hypothesis_failed():
            return 1
        if self.sing_equiv.holds and self.defect_equiv.holds:
            return 0
        return 2


def check_extension(ext, config=None):
    """Run the full hypothesis battery and assemble a HypothesisReport."""
    config = config or CheckConfig()
    q = quotient_bimodule(ext)
    pd_v = check_bimodule_pd(ext, config.cap, seed=config.seed)
    nil_v = check_nilpotency(ext, config.p_max)
    if pd_v.kind == "finite" and nil_v.holds:
        tables, tor_v = check_tor_vanishing(ext, nil_v.value, pd_v.value)
    else:
        tables = {}
        tor_v = verdicts.undetermined(
            certificate={"reason": "pd or nilpotency not established; "
                                   "complete Tor range unavailable"})
    split_v = check_split(ext)

    pd_holds = pd_v.kind == "finite"
    if pd_holds and nil_v.holds and tor_v.holds:
        sing = verdicts.holds(certificate={
            "pd": pd_v.value, "nilpotency_index": nil_v.value})
    else:
        sing = verdicts.undetermined(certificate={
            "pd": pd_v.kind, "nilpotency": nil_v.status, "tor": tor_v.status})
    if sing.holds and split_v.holds:
        defect = verdicts.holds()
    else:
        defect = verdicts.undetermined(certificate={
            "sing": sing.status, "split": split_v.status})

    consequences = {}
    if sing.holds and config.bar_check:
        cc = relative_bar_complex(ext, nil_v.value)
        consequences["bar_d_squared_zero"] = True  # validated at construction
        consequences["bar_exact"] = cc.is_exact()
        consequences["bar_euler"] = cc.euler_characteristic()
        consequences["bar_dims"] = [cc.modules[d].dim for d in cc.degrees()]
        if not consequences["bar_exact"] or consequences["bar_euler"] != 0:
            raise InternalCheckError("relative tensor complex is not exact "
                                     "on a passing instance")
    if sing.holds and config.consequences:
        consequences.update(crosscheck_consequences(ext, config.hh_range,
                                                    cap=config.cap,
                                                    seed=config.seed))

    return HypothesisReport(
        quotient_dim=q.dim,
        pd_verdict=pd_v,
        nilpotency=nil_v,
        tor_tables=tables,
        tor_verdict=tor_v,
        split_verdict=split_v,
        sing_equiv=sing,
        defect_equiv=defect,
        consequences=consequences,
        config=config,
        provenance=ext.provenance,
    )


def crosscheck_consequences(ext, i_max, cap=12, seed=0):
    """Numerical consequences of a verified instance: Hochschild homology
    dimensions agree in positive degrees and the global dimension statuses
    agree. A mismatch is reported as a contradiction (engine-bug flag)."""
    from .invariants import global_dimension, hochschild_homology
    a, b = ext.ambient, ext.sub
    hh_a = hochschild_homology(a, i_max)
    hh_b = hochschild_homology(b, i_max)
    hh_agree = hh_a[1:] == hh_b[1:]
    gd_a = global_dimension(a, cap, seed=seed)
    gd_b = global_dimension(b, cap, seed=seed)
    words = {Verdict.HOLDS: "finite", Verdict.FAILS: "infinite",
             Verdict.UNDETERMINED: "undetermined"}
    statuses = (gd_a.status, gd_b.status)
    gd_compatible = (Verdict.UNDETERMINED in statuses) or gd_a.status == gd_b.status
    return {
        "hh_ambient": hh_a,
        "hh_sub": hh_b,
        "hh_agree_positive": hh_agree,
        "gldim_ambient": words[gd_a.status],
        "gldim_sub": words[gd_b.status],
        "gldim_compatible": gd_compatible,
        "contradiction": (not hh_agree) or (not gd_compatible),
    }
