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
from .linalg import (EchelonSpan, compose, identity_map, map_combination,
                     quotient, sparse_combination, sparse_rank, to_column)
from .algebra import Algebra, map_violation, product_algebra
from .modules import (Bimodule, ModuleMap, direct_sum, projective_bimodule,
                      projective_indecomposables, tensor_over, tensor_powers)
from .resolutions import (ChainComplex, is_projective, minimal_resolution,
                          projective_dimension, tor)
from . import verdicts
from .verdicts import Verdict


class ExtensionPresentation:
    """A pair B <= A with verified embedding and optional split witness,
    both column-sparse maps: the embedding has dim B columns and dim A
    rows, the retraction the other way round."""

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
        a, b = self.ambient, self.sub
        if a.field != b.field:
            raise FieldMismatchError("extension members over different fields")
        problem = map_violation(b, a, self.embedding, "embedding")
        if not problem and sparse_rank(map(dict, self.embedding), a.dim,
                                       a.field) != b.dim:
            problem = "embedding is not injective"
        if not problem and self.retraction is not None:
            problem = retraction_violation(self)
        if problem:
            raise WitnessError(problem)

    def __repr__(self):
        return (f"ExtensionPresentation({self.sub.dim} <= {self.ambient.dim}, "
                f"{self.provenance})")


def retraction_violation(ext):
    """Return a description of the first violated retraction identity, or
    None when the witness verifies."""
    b, ret = ext.sub, ext.retraction
    problem = map_violation(ext.ambient, b, ret, "retraction")
    if problem:
        return problem
    if compose(b.field, ret, ext.embedding) != identity_map(b.field, b.dim):
        return "retraction does not split the embedding"
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
    labels = tuple(r.basis_labels) + tuple(f"m{i}" for i in range(nm))
    table = []

    def shifted(col):
        return tuple((nr + t, c) for t, c in col)

    # r_i m_j is column j of the left action of r_i, m_i r_j column i of
    # the right action of r_j
    for i in range(nr):
        table.append(tuple(r.table[i]) +
                     tuple(shifted(col) for col in m.left_action[i]))
    for i in range(nm):
        table.append(tuple(shifted(m.right_action[j][i]) for j in range(nr)) +
                     ((),) * nm)
    # R's elements keep their pairs; M lies in the radical
    radical_rows = r.radical_rows + tuple(((nr + i, f.one),)
                                          for i in range(nm))
    t = Algebra(f, labels, table, r.unit, radical_rows, r.idempotents,
                meta={"kind": "trivial-extension"})
    emb = identity_map(f, nr)  # r_j -> (r_j, 0)
    ret = emb + ((),) * nm  # (r_j, 0) -> r_j, (0, m_i) -> 0
    ext = ExtensionPresentation(t, r, emb, ret, provenance="trivial-extension")
    return t, ext


def _inflate_to_product(m, pa, left_part, right_part):
    """Inflate a bimodule to a (B x C)-bimodule: the off-corner actions are
    zero. left_part/right_part say which factor acts on which side:
    0 = the first factor of the product, 1 = the second."""
    nb = pa.meta["left_dim"]
    zero = ((),) * m.dim

    def inflate(action, part):
        """Basis element i of the product acts through its own factor when
        that factor is `part`, by zero otherwise."""
        return [action[i - nb * part] if (i >= nb) == part else zero
                for i in range(pa.dim)]

    return Bimodule(pa, pa, m.dim, inflate(m.left_action, left_part),
                    inflate(m.right_action, right_part), validate=True)


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
    total = direct_sum([infl_m, infl_n])
    t, ext = trivial_extension(pa, total)
    ext.provenance = "morita-zero"
    return t, ext


def subalgebra_extension(a, b, embedding, retraction=None):
    """Wrap a generic verified embedding B -> A (and optional retraction)."""
    return ExtensionPresentation(a, b, embedding, retraction,
                                 provenance="generic")


# -- quotient bimodule and hypothesis checks ----------------------------


def _b_actions(ext):
    """The left and the right action of B on A through the embedding, one
    column-sparse map per basis element of B (cached): b_j acts as its
    image, column j of the embedding, does in the regular bimodule."""
    if "b_actions" not in ext._cache:
        a = ext.ambient
        reg = Bimodule.regular(a)
        ext._cache["b_actions"] = tuple(
            [map_combination(a.field, col, action, a.dim)
             for col in ext.embedding]
            for action in (reg.left_action, reg.right_action))
    return ext._cache["b_actions"]


def quotient_bimodule(ext, return_maps=False):
    """A/B as a (B, B)-bimodule: A, with B acting on both sides through the
    embedding, modulo the image of the embedding (cached). The two-sided
    action identities are verified exactly on construction.

    With return_maps the class of each basis element of A in the quotient
    (a dict of its nonzero coordinates) and the free basis elements are
    returned as well, as by linalg.quotient: basis vector c of A/B is the
    class of the basis element free[c] of A."""
    if "quotient" not in ext._cache:
        a = ext.ambient
        left, right = _b_actions(ext)
        classes, free, (qleft, qright) = quotient(
            EchelonSpan(a.field, a.dim, map(dict, ext.embedding)),
            ([m.__getitem__ for m in left], [m.__getitem__ for m in right]))
        q = Bimodule(ext.sub, ext.sub, len(free), qleft, qright, validate=True)
        ext._cache["quotient"] = (q, classes, free)
    q, classes, free = ext._cache["quotient"]
    return (q, classes, free) if return_maps else q


def check_nilpotency(ext, p_max):
    """Smallest p with (A/B)^{(x)_B p} = 0, or undetermined at p_max."""
    if p_max < 0:
        raise ValidationError("p_max must be nonnegative")
    dims = [pw.dim for pw in tensor_powers(quotient_bimodule(ext), p_max)]
    if dims and not dims[-1]:
        return verdicts.holds(value=len(dims), bound=p_max,
                              certificate={"power_dims": dims})
    return verdicts.undetermined(bound=p_max, certificate={"power_dims": dims})


def check_bimodule_pd(ext, cap, seed=0):
    """Projective dimension of A/B over B^e, with resolution certificate."""
    return projective_dimension(quotient_bimodule(ext), cap, seed=seed)


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
    Both orientations are computed, the first resolving the right module
    Q and the second the left module Q, so even at p = 2, where the power
    is Q itself, they read Tor off two resolutions; Tor is balanced, so
    their all-zero statuses must agree. Returns (tables, verdict)."""
    if d is None or p is None:
        raise ValidationError("tor range needs a finite pd and a nilpotency index")
    q = quotient_bimodule(ext)
    powers = tensor_powers(q, p - 1)
    table_qp = {}
    table_pq = {}
    for j in range(1, p):
        pj = powers[min(j, len(powers)) - 1]
        dims1 = tor(q.as_right_module(), pj.as_left_module(), d)
        dims2 = tor(pj.as_right_module(), q.as_left_module(), d,
                    resolve="second")
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
    reg = Bimodule.regular(a)
    lb, rb = _b_actions(ext)
    a_ab = Bimodule(a, b, a.dim, reg.left_action, rb, validate=False)
    a_ba = Bimodule(b, a, a.dim, lb, reg.right_action, validate=False)
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
    m + 1 in A, basis vector t of Q entering as the basis element free[t]
    of A behind it; an inner product goes back to Q through the classes of
    A/B. Column c of d_j is the alternating face sum of basis tensor c, in
    the classes of X_{j-1}; the augmentation is j = 0.

    Verified at construction: the face sum of every raw tensor equals d_j
    applied to its class, so the faces descend to the tensor quotient;
    d o d = 0; and each differential commutes with the left and the right
    actions of A. The complex's modules are the terms' left A-modules.
    """
    a = ext.ambient
    f = a.field
    one, minus = f.one, f.neg(f.one)
    q, to_q, free = quotient_bimodule(ext, return_maps=True)
    n, mq = a.dim, q.dim
    a_ab, a_ba = _ext_side_bimodules(ext)

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
            x = free[raw[m]] if m else raw[m]
            y = free[raw[m + 1]] if m + 1 < last else raw[m + 1]
            prod = a.table[x][y]
            if 0 < m < last - 1:
                prod = sparse_combination(
                    f, [(c, to_q[k].items()) for k, c in prod]).items()
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
        diffs[j] = ModuleMap(modules[j], modules[j - 1],
                             tuple(map(to_column, cols)), validate=False)

    cc = ChainComplex(modules, diffs)
    # A (x) 1 and 1 (x) A^op generate A^e, so a map that commutes with the
    # left actions (checked above) and the right ones is a bimodule map
    for j, d in diffs.items():
        ModuleMap(terms[j][0].as_right_module(),
                  terms[j - 1][0].as_right_module(), d.cols)
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
    powers = tensor_powers(q, p - 1)
    for j in range(1, p):
        power = powers[min(j, len(powers)) - 1]
        if power.dim:
            d2 = tor(power.as_right_module(), a_left, cap)
            mixed = tensor_over(power, a_ba)
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
    r = len(b.idempotents)
    for u, v in product(range(r), repeat=2):
        pb = projective_bimodule(b, u, v)
        moved = tensor_over(tensor_over(a_ab, pb), a_ba)
        ok = is_projective(moved)
        results["transported"].append(((u, v), moved.dim, ok))
        if not ok:
            results["all_projective"] = False
    res = minimal_resolution(quotient_bimodule(ext), cap=cap)
    # B (x)_k B is the sum of the B e_u (x)_k e_v B, the projectives of B^e
    bkb = direct_sum(projective_indecomposables(res.module.algebra))
    for i in range(len(res.gens)):
        term = res.projective_module(i)
        if not term.dim:
            results["resolution_terms"].append((i, 0, True))
            continue
        ok = is_projective(tensor_over(term, bkb))
        results["resolution_terms"].append((i, term.dim, ok))
        if not ok:
            results["all_projective"] = False
    return results


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
