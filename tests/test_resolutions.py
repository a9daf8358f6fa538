import random

import pytest

from quiverext.errors import InternalCheckError, ValidationError
import dense_reference as dense
from quiverext.linalg import GF, QQ, compose, identity_map, sparse_rank
from quiverext.algebra import opposite
from quiverext.modules import (ModuleMap, direct_sum, is_isomorphic,
                               left_regular_module, projective_data,
                               projective_indecomposables, simple_modules,
                               tensor_over, zero_module)
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.resolutions import (ChainComplex, _derived_dims, ext,
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
    diffs = [dense.diff_columns(d) for d in res.sparse_diffs]
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
def test_check_minimal_rejects_block_outside_radical(field):
    a = _gamma(field)
    res = minimal_resolution(simple_modules(a)[0], 3)
    assert res.check_minimal()
    res.w_blocks[1][0][0] = a.idempotents[res.gens[1][0]]
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
def test_pd_check_rejects_wrong_differential_entry(monkeypatch, field):
    """One more entry in the top differential, at a coordinate that
    d_{top-1} does not kill, keeps every rank and breaks d o d = 0."""
    def wrong_entry(res):
        top = res.length
        rows, below = res.sparse_diffs[top][0], res.sparse_diffs[top - 1][0]
        r = next(k for k in range(len(rows))
                 if 0 not in rows[k] and any(k in row for row in below))
        rows[r][0] = field.one
        return res

    s1 = simple_modules(_a3(field))[0]
    _fault_on_call(monkeypatch, "minimal_resolution", 0, wrong_entry)
    with pytest.raises(InternalCheckError,
                       match="pd cross-check failed: d o d != 0"):
        projective_dimension(s1, 4)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_pd_check_rejects_block_outside_radical(monkeypatch, field):
    a = _a3(field)

    def unit_block(res):
        res.w_blocks[1][0][0] = a.idempotents[res.gens[1][0]]
        return res

    s1 = simple_modules(a)[0]
    _fault_on_call(monkeypatch, "minimal_resolution", 0, unit_block)
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
    m = quotient_bimodule(ext).as_env_module()
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
def test_derived_dims_reject_block_leaving_its_slice(field):
    """A block replaced by the idempotent of its source summand maps the
    source slice identically, so outside a target slice at another
    vertex; every slice of the regular module is nonzero."""
    a = _gamma(field)
    aop = opposite(a)
    res = minimal_resolution(simple_modules(aop)[1], 3)
    i, c, r = _block_across_vertices(res)
    res.w_blocks[i][c][r] = aop.idempotents[res.gens[i][c]]
    with pytest.raises(InternalCheckError, match="tensored block leaves"):
        _derived_dims(res, left_regular_module(a), aop, i, contravariant=False)
    res = minimal_resolution(simple_modules(a)[0], 3)
    i, c, r = _block_across_vertices(res)
    res.w_blocks[i][c][r] = a.idempotents[res.gens[i - 1][r]]
    with pytest.raises(InternalCheckError, match="hom block leaves"):
        _derived_dims(res, left_regular_module(a), a, i, contravariant=True)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_resolution_structure_random(field):
    """Every computed degree of a minimal resolution, on random modules
    over random algebras of dimension at most 5: each differential is a
    module map into the previous term, d o d = 0, d_0 is onto M, the
    complex is exact below the top, every block lies in the radical, and
    the algebra-form blocks reproduce the differentials."""
    rng = random.Random(47 + field.characteristic)
    cases = 0
    while cases < 10:
        a = random_quiver_algebra(rng, field)
        if a.dim > 5:
            continue
        # a simple summand keeps most resolutions from stopping at P_0
        m = direct_sum([random_module(rng, a), rng.choice(simple_modules(a))])
        res = minimal_resolution(m, 3)
        diffs = [dense.diff_columns(d) for d in res.sparse_diffs]
        assert len(diffs) == len(res.gens)
        terms = [res.projective_module(i) for i in range(len(diffs))]
        for i, d in enumerate(diffs):
            ModuleMap(terms[i], terms[i - 1] if i else m, d)
            if i:
                assert not any(compose(field, diffs[i - 1], d))
        ranks = [sparse_rank(rows, ncols, field)
                 for rows, ncols in res.sparse_diffs]
        assert ranks[0] == m.dim
        for i in range(len(diffs) - 1):
            assert ranks[i] + ranks[i + 1] == res.term_dim(i)
        if res.terminated:
            assert ranks[-1] == res.term_dim(len(diffs) - 1)
        assert res.check_minimal()
        for i in range(1, len(diffs)):
            _assert_w_blocks_match(a, res.gens[i - 1], res.gens[i],
                                   res.w_blocks[i], diffs[i],
                                   res.term_dim(i - 1))
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
