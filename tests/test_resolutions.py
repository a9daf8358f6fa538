import random

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import InternalCheckError, ValidationError
import dense_reference as dense
from quiverext.linalg import (GF, QQ, EchelonSpan, compose, identity_map,
                              map_problem, sparse_combination, sparse_rank,
                              to_column)
from quiverext.algebra import opposite, tensor_algebra
from quiverext.modules import (Bimodule, ModuleMap, direct_sum, is_isomorphic,
                               left_regular_module, projective_data,
                               projective_indecomposables, simple_modules,
                               tensor_over, zero_module)
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.resolutions import (ChainComplex, Resolution,
                                   _check_resolution, _derived_dims, ext,
                                   is_projective, minimal_resolution,
                                   projective_cover, projective_dimension,
                                   syzygy, tor)
from quiverext.suite import random_module, random_quiver_algebra


def test_projective_resolves_in_degree_zero(gamma):
    for p in projective_indecomposables(gamma):
        res = minimal_resolution(p, 5)
        assert res.terminated
        assert res.length == 0
        assert res.term_dims() == [p.dim]


def test_zero_module_resolution(gamma):
    res = minimal_resolution(zero_module(gamma), 3)
    assert res.terminated
    assert res.term_dims() == [0]
    assert projective_dimension(zero_module(gamma), 3).value == 0


def test_periodic_resolution_never_terminates(dual_numbers):
    s = simple_modules(dual_numbers)[0]
    res = minimal_resolution(s, 7)
    assert not res.terminated
    assert res.term_dims() == [2] * 8
    for t in range(1, 8):
        assert res.syzygy_module(t).dim == 1


def test_cover_of_simple(gamma):
    s1 = simple_modules(gamma)[0]
    p, epi = projective_cover(s1)
    assert p.dim == 4
    epi.validate()
    assert sparse_rank(map(dict, epi.cols), s1.dim, QQ) == 1


def test_syzygies_over_loop_quotient(gamma):
    s1 = simple_modules(gamma)[0]
    om1 = syzygy(s1, 1, cap=4)
    assert om1.dim == 3
    om2 = syzygy(s1, 2, cap=4)
    om3 = syzygy(s1, 3, cap=4)
    assert om2.dim == 2
    v, w = is_isomorphic(om2, om3)
    assert v == "yes"
    # the periodic summand is the left multiples of the loop: the witness
    # is an intertwiner of full rank
    ModuleMap(om2, om3, w, validate=True)
    assert sparse_rank(map(dict, w), om3.dim, QQ) == om2.dim


def test_pd_verdicts(gamma, dual_numbers, hereditary_a2):
    assert projective_dimension(projective_indecomposables(gamma)[0], 5).value == 0
    s = simple_modules(dual_numbers)[0]
    v = projective_dimension(s, 6)
    assert v.kind == "infinite"
    assert v.witness[0] < v.witness[1] <= 6
    # hereditary: the first simple has pd 1
    s1 = simple_modules(hereditary_a2)[0]
    assert projective_dimension(s1, 5).value == 1


def test_pd_infinite_witness_is_recheckable(dual_numbers):
    s = simple_modules(dual_numbers)[0]
    v = projective_dimension(s, 6)
    i, j, wit = v.witness
    res = minimal_resolution(s, 6)
    mi, mj = res.syzygy_module(i), res.syzygy_module(j)
    ModuleMap(mi, mj, wit)  # raises if not an intertwiner
    assert sparse_rank(map(dict, wit), mj.dim, QQ) == mi.dim


def test_tor_values_dual_numbers(dual_numbers):
    s_right = simple_modules(opposite(dual_numbers))[0]
    s_left = simple_modules(dual_numbers)[0]
    assert tor(s_right, s_left, 6) == [1] * 7
    reg = left_regular_module(dual_numbers)
    assert tor(s_right, reg, 4)[1:] == [0] * 4


def test_tor_projective_vanishes(gamma):
    p_right = projective_data(opposite(gamma), 0).module
    for n in simple_modules(gamma):
        assert tor(p_right, n, 4)[1:] == [0, 0, 0, 0]


def test_ext_values(gamma, dual_numbers):
    s = simple_modules(dual_numbers)[0]
    assert ext(s, s, 6) == [1] * 7
    # Ext^0 is the hom space
    from quiverext.modules import hom_space
    p1 = projective_data(gamma, 0).module
    assert ext(p1, p1, 3) == [len(hom_space(p1, p1)), 0, 0, 0]


def test_is_projective(gamma, dual_numbers):
    assert is_projective(left_regular_module(gamma))
    assert not is_projective(simple_modules(dual_numbers)[0])
    assert is_projective(zero_module(gamma))


def test_resolution_minimality_verified(gamma):
    s1 = simple_modules(gamma)[0]
    res = minimal_resolution(s1, 5)
    assert res.check_minimal()


def test_homology_and_exactness(gamma):
    p1 = projective_data(gamma, 0).module
    ident = ModuleMap(p1, p1, identity_map(QQ, p1.dim))
    cc = ChainComplex({0: p1, 1: p1}, {1: ident})
    assert cc.is_exact()
    zero_map = ModuleMap(p1, p1, ((),) * p1.dim)
    cc2 = ChainComplex({0: p1, 1: p1}, {1: zero_map})
    assert cc2.homology() == {0: p1.dim, 1: p1.dim}


def test_chain_complex_rejects_nonzero_composition(gamma):
    p1 = projective_data(gamma, 0).module
    ident = ModuleMap(p1, p1, identity_map(QQ, p1.dim))
    with pytest.raises(ValidationError):
        ChainComplex({0: p1, 1: p1, 2: p1}, {1: ident, 2: ident})


def test_tor_symmetry_small_random():
    rng = random.Random(7)
    for field in (QQ, GF(2)):
        for _ in range(12):
            a = random_quiver_algebra(rng, field)
            if a.dim > 5:
                continue
            m = random_module(rng, opposite(a))
            n = random_module(rng, a)
            assert tor(m, n, 4, resolve="first") == tor(m, n, 4, resolve="second")


def test_pd_tor_consistency_small_random():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3)):
        for _ in range(15):
            a = random_quiver_algebra(rng, field)
            if a.dim > 5:
                continue
            m = random_module(rng, a)
            v = projective_dimension(m, 6)
            if v.kind != "finite" or m.dim == 0:
                continue
            sem = direct_sum(simple_modules(opposite(a)))
            dims = tor(sem, m, v.value + 2)
            assert (max((i for i, d in enumerate(dims) if d), default=0)
                    == v.value)


def test_tensored_homology_concentration(gamma_in_lambda):
    """When higher Tor vanishes, homology of the tensored resolution sits
    in degree zero with the coequalizer dimension."""
    from quiverext.extensions import quotient_bimodule
    q = quotient_bimodule(gamma_in_lambda)
    dims = tor(q.as_right_module(), q.as_left_module(), 6)
    assert dims[1:] == [0] * 6
    assert dims[0] == tensor_over(q, q).dim == 0


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_ext_tor_duality_random(field):
    """Ext^i(M, DX) = D Tor_i(X, M) and Ext^0(M, N) = Hom(M, N), on random
    algebras of dimension at most 5. A simple summand on M and X keeps
    most resolutions from stopping at P_0, and at least one case must have
    a nonzero higher Ext, so degrees past 0 are exercised."""
    from quiverext.modules import dual_module, hom_space
    rng = random.Random(31)
    cases = higher = 0
    while cases < 7:
        a = random_quiver_algebra(rng, field)
        if a.dim > 5:
            continue
        x = direct_sum([random_module(rng, opposite(a)),
                        rng.choice(simple_modules(opposite(a)))])
        m = direct_sum([random_module(rng, a), rng.choice(simple_modules(a))])
        n = random_module(rng, a)
        dims = ext(m, dual_module(x), 3)
        assert dims == tor(x, m, 3)
        assert ext(m, n, 3)[0] == len(hom_space(m, n))
        higher += any(dims[1:])
        cases += 1
    assert higher


def _ext_by_hom_complex(m, n, i_max):
    """Ext^i(M, N) for i = 0..i_max from the complex Hom_A(P_., N): the
    basis of each term from hom_space, the rank of each map from the
    flattened composites h . d_i in one EchelonSpan. Shares nothing with
    slices or the algebra-form blocks."""
    from quiverext.linalg import EchelonSpan
    from quiverext.modules import hom_space
    f = m.algebra.field
    res = minimal_resolution(m, i_max + 1)
    diffs = res.diffs
    homs = [hom_space(res.projective_module(i), n)
            for i in range(len(res.gens))]
    ranks = {}
    for i in range(1, len(homs)):
        span = EchelonSpan(f, n.dim * len(diffs[i]))
        for h in homs[i - 1]:
            comp = compose(f, h.cols, diffs[i])
            span.insert(dense.pairs(x for row in dense.rows(f, comp, n.dim)
                                    for x in row))
        ranks[i] = span.rank
    return [len(homs[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if i < len(homs) else 0 for i in range(i_max + 1)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_ext_matches_hom_complex_oracle(field):
    """ext against Ext read off Hom_A(P_., N) directly, on a random module
    plus a simple summand on each side, over random algebras of dimension
    at most 5; some case must have a nonzero higher Ext."""
    rng = random.Random(59 + field.characteristic)
    cases = higher = 0
    while cases < 6:
        a = random_quiver_algebra(rng, field)
        if a.dim > 5:
            continue
        m = direct_sum([random_module(rng, a), rng.choice(simple_modules(a))])
        n = direct_sum([random_module(rng, a), rng.choice(simple_modules(a))])
        dims = ext(m, n, 3)
        assert dims == _ext_by_hom_complex(m, n, 3)
        higher += any(dims[1:])
        cases += 1
    assert higher


def _gamma(field):
    """The loop quiver algebra of the gamma fixture over the given field."""
    pres = QuiverPresentation(
        ("1", "2"), (("beta", "1", "2"), ("gamma", "1", "1")),
        (((1, ("gamma", "gamma")),),))
    return algebra_from_presentation(pres, field)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_syzygy_past_the_cap_is_not_zero(field):
    """The simple at vertex 1 of the loop quiver algebra has infinite pd,
    so its third syzygy is nonzero; a cap that stops the resolution before
    it raises instead of reporting zero, and past the end of a terminated
    resolution the syzygy is zero."""
    a = _gamma(field)
    s = simple_modules(a)[0]
    assert syzygy(s, 3).dim == 2
    with pytest.raises(ValidationError, match="not computed that far"):
        syzygy(s, 3, cap=1)
    p = projective_data(a, 0).module
    assert syzygy(p, 3, cap=1).dim == 0


def _generator_column(res, i, c):
    """The column of d_i at the basis row e_{s(c)} of summand c of P_i: the
    image of the generator of that summand. The engine's quiver algebras
    have path bases, so e_s is a basis row of A e_s."""
    a = res.module.algebra
    s = res.gens[i][c]
    basis = projective_data(a, s).basis
    ((t, x),) = basis.sparse_coords(a.idempotents[s]).items()
    assert x == a.field.one
    return sum(projective_data(a, u).basis.dim for u in res.gens[i][:c]) + t


def _set_column(res, i, col, entries):
    """Replace column col of d_i by the given dict of nonzero entries."""
    d = res.diffs[i]
    res.diffs[i] = d[:col] + (to_column(entries),) + d[col + 1:]


def _add_to_generator(res, i, c, r, elem):
    """Add elem, an element of A e_{s(r)}, into summand r of the generator
    column of summand c of d_i, so that blocks(i)[c][r] gains elem."""
    a = res.module.algebra
    f = a.field
    col = _generator_column(res, i, c)
    row = sum(projective_data(a, u).basis.dim for u in res.gens[i - 1][:r])
    coords = projective_data(a, res.gens[i - 1][r]).basis.sparse_coords(elem)
    _set_column(res, i, col, sparse_combination(f, [
        (f.one, res.diffs[i][col]),
        (f.one, [(row + t, x) for t, x in coords.items()])]))


def _same_vertex_block(res, i):
    """A block (c, r) of d_i whose two summands sit at one vertex."""
    return next((c, r) for c, s in enumerate(res.gens[i])
                for r, t in enumerate(res.gens[i - 1]) if s == t)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_check_minimal_rejects_block_outside_radical(field):
    """e_{s(c)} added into a same-vertex summand of a generator's column
    puts the unit into its block."""
    a = _gamma(field)
    res = minimal_resolution(simple_modules(a)[0], 3)
    assert res.check_minimal()
    c, r = _same_vertex_block(res, 1)
    _add_to_generator(res, 1, c, r, a.idempotents[res.gens[1][c]])
    with pytest.raises(InternalCheckError, match="not minimal"):
        res.check_minimal()


def test_pd_crosscheck_rejects_short_resolution(monkeypatch, hereditary_a2):
    """A resolution that forgets its top degree claims pd 0 for a simple of
    pd 1; Tor_1 against the semisimple module disagrees."""
    from quiverext import resolutions
    s = next(x for x in simple_modules(hereditary_a2)
             if projective_dimension(x, 4).value == 1)
    real = resolutions.minimal_resolution

    def short(m, cap):
        res = real(m, cap)
        if m is s:
            del res.gens[-1]
        return res

    monkeypatch.setattr(resolutions, "minimal_resolution", short)
    with pytest.raises(InternalCheckError, match="pd cross-check failed"):
        projective_dimension(s, 4)


def _a3(field):
    """The path algebra of 1 -> 2 -> 3 modulo the path of length two: its
    simple at 1 resolves as 0 -> P3 -> P2 -> P1, so it has pd 2."""
    pres = QuiverPresentation(("1", "2", "3"),
                              (("a", "1", "2"), ("b", "2", "3")),
                              (((1, ("b", "a")),),))
    return algebra_from_presentation(pres, field)


def _fault_on_call(monkeypatch, name, n, fault):
    """Patch resolutions.<name> so that the result of its n-th call
    (counting from 0) goes through fault."""
    from quiverext import resolutions
    real = getattr(resolutions, name)
    calls = []

    def patched(*args):
        out = real(*args)
        calls.append(name)
        return fault(out) if len(calls) == n + 1 else out

    monkeypatch.setattr(resolutions, name, patched)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_pd_check_rejects_dropped_kernel_vector(monkeypatch, field):
    """Without the syzygy of P_1 the resolution stops a degree early, and
    its top differential is not injective."""
    s1 = simple_modules(_a3(field))[0]
    assert projective_dimension(s1, 4).value == 2
    _fault_on_call(monkeypatch, "_kernel", 1,
                   lambda out: (out[0][:-1], out[1][:-1]))
    with pytest.raises(InternalCheckError,
                       match="pd cross-check failed: the top differential"):
        projective_dimension(s1, 4)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_infinite_pd_check_rejects_syzygy_that_is_not_the_kernel(
        monkeypatch, field):
    """From its third call on, _kernel returns the whole term. The simple
    at vertex 1 of A3 (pd 2) then never terminates, and its second and
    third syzygies read as isomorphic; the infinite verdict must check the
    resolution it reads them from, and kernels[2] is not ker d_2 = 0."""
    from quiverext import resolutions
    s1 = simple_modules(_a3(field))[0]
    assert projective_dimension(s1, 4).value == 2
    real, calls = resolutions._kernel, []

    def whole_term(f, diff, nrows):
        calls.append(None)
        if len(calls) < 3:
            return real(f, diff, nrows)
        return [{c: f.one} for c in range(len(diff))], list(range(len(diff)))

    monkeypatch.setattr(resolutions, "_kernel", whole_term)
    with pytest.raises(InternalCheckError, match="pd cross-check failed: "
                       "the syzygy in degree 2 is not the kernel"):
        projective_dimension(s1, 4)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_pd_check_rejects_wrong_differential_entry(monkeypatch, field):
    """One more entry in column 0 of the top differential, at a row that
    d_{top-1} does not kill, keeps every rank and breaks d o d = 0."""
    def wrong_entry(res):
        top = res.length
        col, below = res.diffs[top][0], res.diffs[top - 1]
        rows = {r for r, _ in col}
        r = next(k for k in range(len(below)) if k not in rows and below[k])
        res.diffs[top] = (tuple(sorted(col + ((r, field.one),))),
                          *res.diffs[top][1:])
        return res

    s1 = simple_modules(_a3(field))[0]
    _fault_on_call(monkeypatch, "minimal_resolution", 0, wrong_entry)
    with pytest.raises(InternalCheckError,
                       match="pd cross-check failed: d o d != 0"):
        projective_dimension(s1, 4)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_pd_check_rejects_block_outside_radical(monkeypatch, field):
    """A degree-1 cover that takes its generator twice is still exact, but
    the difference of the two copies is a syzygy outside the radical, so
    d_2 has a unit block. With the terms a resolution has, an exact
    complex is minimal, so a corrupted differential alone trips an earlier
    check; a surplus summand is what this check alone catches."""
    s1 = simple_modules(_a3(field))[0]
    _fault_on_call(monkeypatch, "_cover_step", 1, lambda gens: gens + gens[:1])
    with pytest.raises(InternalCheckError,
                       match="pd cross-check failed: .*not minimal"):
        projective_dimension(s1, 4)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("degree, check", [(0, "the augmentation"),
                                           (1, "not exact at degree 0")],
                         ids=["degree0", "degree1"])
def test_pd_check_rejects_cover_missing_a_generator(monkeypatch, field,
                                                    degree, check):
    """The semisimple module over A3 needs three generators in degree 0
    and two in degree 1; dropping the last one leaves the augmentation
    short of M, or the image of d_1 short of the kernel of d_0."""
    m = direct_sum(simple_modules(_a3(field)))
    assert projective_dimension(m, 4).value == 2
    _fault_on_call(monkeypatch, "_cover_step", degree, lambda gens: gens[:-1])
    with pytest.raises(InternalCheckError,
                       match=f"pd cross-check failed: {check}"):
        projective_dimension(m, 4)


def test_pd_builds_no_algebra_and_calls_no_tor(monkeypatch):
    """The finite pd of the demo's A/B over B^e is checked on its own
    resolution: no algebra is built (no (B^e)^op) and tor is not called."""
    from quiverext import resolutions
    from quiverext.algebra import Algebra
    from quiverext.cli import demo_document
    from quiverext.docparse import build_document, parse_document
    from quiverext.extensions import quotient_bimodule
    ext = build_document(parse_document(demo_document())).env["GammaInLambda"]
    m = quotient_bimodule(ext)
    m.algebra  # B^e, built before the count starts
    counts = {"tor": 0, "Algebra": 0}
    real_tor, real_init = resolutions.tor, Algebra.__init__

    def counting_tor(*args, **kwargs):
        counts["tor"] += 1
        return real_tor(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["Algebra"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(resolutions, "tor", counting_tor)
    monkeypatch.setattr(Algebra, "__init__", counting_init)
    assert projective_dimension(m, 12).kind == "finite"
    assert counts == {"tor": 0, "Algebra": 0}


def _block_across_vertices(res):
    """A degree i and block (c, r) of a resolution whose summands of P_i
    and P_{i-1} sit at different vertices."""
    for i in range(1, len(res.gens)):
        for c, s in enumerate(res.gens[i]):
            for r, t in enumerate(res.gens[i - 1]):
                if s != t:
                    return i, c, r
    raise AssertionError("no block between different vertices")


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_derived_dims_reject_block_leaving_its_slice(monkeypatch, field):
    """A block that gains the idempotent of one of its summands maps that
    summand's slice identically, so outside the other summand's slice at
    another vertex; every slice of the regular module is nonzero. The hom
    block gains e_{s(r)} through one entry of a generator's column. A block
    read off a differential lies in e_{s(r)} B, so a tensored block always
    lands in its slice; that check is reached by patching blocks to hand
    out the unit of the source summand."""
    a = _gamma(field)
    aop = opposite(a)
    res = minimal_resolution(simple_modules(aop)[1], 3)
    i, c, r = _block_across_vertices(res)
    real = Resolution.blocks

    def unit_block(self, k):
        out = real(self, k)
        if k == i:
            out[c][r] = aop.idempotents[self.gens[i][c]]
        return out

    with monkeypatch.context() as mp:
        mp.setattr(Resolution, "blocks", unit_block)
        with pytest.raises(InternalCheckError, match="tensored block leaves"):
            _derived_dims(res, left_regular_module(a), aop, i,
                          contravariant=False)
    res = minimal_resolution(simple_modules(a)[0], 3)
    i, c, r = _block_across_vertices(res)
    _add_to_generator(res, i, c, r, a.idempotents[res.gens[i - 1][r]])
    with pytest.raises(InternalCheckError, match="hom block leaves"):
        _derived_dims(res, left_regular_module(a), a, i, contravariant=True)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_corrupted_entry_reaches_pd_check_and_derived_dims(field):
    """The columns are the one stored form of a differential: dropping one
    entry of a generator's column is seen by the pd check, by the block
    read off the column and by the Ext dimensions read from the blocks."""
    a = _a3(field)
    n = left_regular_module(a)

    def ext_dims(res):
        try:
            return _derived_dims(res, n, a, 1, contravariant=True)
        except InternalCheckError as e:
            return str(e)

    res = minimal_resolution(simple_modules(a)[0], 3)
    _check_resolution(res)
    blocks, dims = res.blocks(1), ext_dims(res)
    col = _generator_column(res, 1, 0)
    _set_column(res, 1, col, dict(res.diffs[1][col][1:]))
    with pytest.raises(InternalCheckError, match="pd cross-check failed"):
        _check_resolution(res)
    assert res.blocks(1) != blocks
    assert ext_dims(res) != dims


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_cover_rejects_dependent_kernel_vectors(monkeypatch, field):
    """A kernel handed to the next cover with one vector twice spans fewer
    dimensions than it has vectors, so no cover generators span it."""
    s1 = simple_modules(_a3(field))[0]
    _fault_on_call(monkeypatch, "_kernel", 0,
                   lambda out: (out[0] + out[0][:1], out[1]))
    with pytest.raises(InternalCheckError,
                       match="cover generators do not span the target"):
        minimal_resolution(s1, 2)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_syzygy_rejects_kernel_that_is_not_a_submodule(monkeypatch, field):
    """A kernel spanned by the generator of P_0 alone is not closed under
    the arrows, so the first syzygy cannot be read off it."""
    s1 = simple_modules(_a3(field))[0]
    _fault_on_call(monkeypatch, "_kernel", 0,
                   lambda out: ([{0: field.one}], [0]))
    with pytest.raises(InternalCheckError,
                       match="syzygy not closed under the action"):
        syzygy(s1, 1, cap=0)


def _assert_resolution_structure(m, res):
    """Every computed degree of a minimal resolution of m: each
    differential is a module map into the previous term in the format
    map_problem accepts, d o d = 0, d_0 is onto M, the complex is exact
    below the top, every block lies in the radical, and the blocks read off
    the differentials reproduce them."""
    a, field = m.algebra, m.algebra.field
    diffs = res.diffs
    assert len(diffs) == len(res.gens)
    terms = [res.projective_module(i) for i in range(len(diffs))]
    ranks = []
    for i, d in enumerate(diffs):
        target = terms[i - 1] if i else m
        assert map_problem(field, d, target.dim, terms[i].dim) is None
        ModuleMap(terms[i], target, d)
        if i:
            assert not any(compose(field, diffs[i - 1], d))
        ranks.append(sparse_rank(map(dict, d), target.dim, field))
    assert ranks[0] == m.dim
    for i in range(len(diffs) - 1):
        assert ranks[i] + ranks[i + 1] == res.term_dim(i)
    if res.terminated:
        assert ranks[-1] == res.term_dim(len(diffs) - 1)
    assert res.check_minimal()
    for i in range(1, len(diffs)):
        _assert_w_blocks_match(a, res.gens[i - 1], res.gens[i],
                               res.blocks(i), diffs[i], res.term_dim(i - 1))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_resolution_structure_random(field):
    """The structure of minimal resolutions of random modules over random
    algebras of dimension at most 5."""
    rng = random.Random(47 + field.characteristic)
    cases = 0
    while cases < 10:
        a = random_quiver_algebra(rng, field)
        if a.dim > 5:
            continue
        # a simple summand keeps most resolutions from stopping at P_0
        m = direct_sum([random_module(rng, a), rng.choice(simple_modules(a))])
        _assert_resolution_structure(m, minimal_resolution(m, 3))
        cases += 1


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_resolution_structure_random_enveloping(field):
    """The same structure over enveloping algebras A (x) A^op of random
    algebras of dimension at most 5, whose projectives and arrows are read
    off the factors."""
    rng = random.Random(53 + field.characteristic)
    cases = 0
    while cases < 5:
        a = random_quiver_algebra(rng, field)
        if a.dim > 5 or not a.radical_dim:
            continue
        env = tensor_algebra(a, opposite(a))
        m = direct_sum([random_module(rng, env),
                        rng.choice(simple_modules(env))])
        res = minimal_resolution(m, 3)
        # count only resolutions with a differential between projectives
        if res.length:
            _assert_resolution_structure(m, res)
            cases += 1


def _assert_w_blocks_match(a, lo_gens, hi_gens, blocks, columns, nrows):
    """Column t of summand c of the source goes to b_t . w[c][r] in
    summand r of the target, read through the projective action of A e_r;
    each block w is given by its sparse (index, coeff) entries."""
    lo_data = [projective_data(a, s) for s in lo_gens]
    col = 0
    for s, col_blocks in zip(hi_gens, blocks):
        for brow in projective_data(a, s).basis.sparse_rows:
            row = 0
            image = {}
            for data, w in zip(lo_data, col_blocks):
                cs = data.basis.sparse_coords(w)
                image.update((row + t, x)
                             for t, x in data.module.act(brow, cs).items())
                row += data.basis.dim
            assert row == nrows
            assert dict(columns[col]) == image
            col += 1
    assert col == len(columns)


@given(seed=st.integers(0, 10**6), field=st.sampled_from([QQ, GF(2), GF(3)]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_arrows_span_the_radical_of_a_submodule(seed, field):
    """The arrows (the generators after the idempotents) applied to a
    spanning set of a submodule K span the same subspace as the whole
    radical basis applied to it, rad K, which is what lets _cover_step
    apply only the arrows. K runs over a random module plus a simple, the
    regular bimodule of a small algebra and the projectives of its
    enveloping algebra, whose arrows are read off the factors, and the
    first syzygy of each."""
    rng = random.Random(seed)
    a = random_quiver_algebra(rng, field, max_vertices=2, max_arrows=3)
    m = direct_sum([random_module(rng, a), rng.choice(simple_modules(a))])
    modules = [m]
    if a.dim <= 4:
        env = Bimodule.regular(a)
        modules += [env, *projective_indecomposables(env.algebra)]
    cases = []
    for n in modules:
        res = minimal_resolution(n, 1)
        cases += [(n, [{i: field.one} for i in range(n.dim)]),
                  (res.projective_module(0), res.kernels[0])]
    for target, vecs in cases:
        alg = target.algebra
        arrows = alg.generators()[len(alg.idempotents):]
        by_arrows, by_radical = (
            EchelonSpan(field, target.dim,
                        [target.act(g, v) for v in vecs for g in elems])
            .reduced_basis()
            for elems in (arrows, alg.radical_basis().sparse_rows))
        assert by_arrows.sparse_rows == by_radical.sparse_rows
        assert by_arrows.pivots == by_radical.pivots
