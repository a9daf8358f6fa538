import random

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import ValidationError
import dense_reference as dense
from quiverext.linalg import (GF, QQ, EchelonSpan, act, identity_map,
                              map_combination, map_problem, sparse_rank,
                              transpose)
from quiverext.algebra import Algebra, opposite, tensor_algebra
from quiverext.modules import (Bimodule, Module, ModuleMap, direct_sum,
                               dual_module, hom_space, is_isomorphic,
                               left_regular_module, projective_bimodule,
                               projective_data, projective_indecomposables,
                               simple_modules, tensor_over, tensor_powers,
                               zero_module)
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.resolutions import minimal_resolution
from quiverext.suite import random_module, random_quiver_algebra


def test_free_module_hom_dimension(gamma):
    reg = left_regular_module(gamma)
    for m in projective_indecomposables(gamma) + simple_modules(gamma):
        assert len(hom_space(reg, m)) == m.dim


def test_non_isomorphic_simples_have_no_homs(gamma):
    s1, s2 = simple_modules(gamma)
    assert hom_space(s1, s2) == []
    assert hom_space(s2, s1) == []


def test_endomorphisms_of_projective(gamma):
    p1 = projective_data(gamma, 0).module
    # e1 Gamma e1 is spanned by e1 and the loop
    assert len(hom_space(p1, p1)) == 2


def test_projective_dims(gamma, k):
    assert [p.dim for p in projective_indecomposables(k)] == [1]
    assert [p.dim for p in projective_indecomposables(gamma)] == [4, 1]


def test_module_validation_catches_bad_action(gamma):
    bad = [identity_map(QQ, 2)] * gamma.dim
    with pytest.raises(ValidationError):
        Module(gamma, bad)


def test_module_rejects_action_with_wrong_number_of_columns(gamma):
    p1 = projective_data(gamma, 0).module
    action = [_malformed(p1.action, p1.dim, "columns")] + list(p1.action[1:])
    with pytest.raises(ValidationError, match="columns"):
        Module(gamma, action, validate=False)


def test_module_rejects_action_row_out_of_range(gamma):
    p1 = projective_data(gamma, 0).module
    action = [_malformed(p1.action, p1.dim, "out of range")] + list(p1.action[1:])
    with pytest.raises(ValidationError, match="out of range"):
        Module(gamma, action, validate=False)


def test_module_rejects_action_with_stored_zero(gamma):
    p1 = projective_data(gamma, 0).module
    action = [_malformed(p1.action, p1.dim, "stored zero")] + list(p1.action[1:])
    with pytest.raises(ValidationError, match="stored zero"):
        Module(gamma, action, validate=False)


def test_module_rejects_dense_action(gamma):
    p1 = projective_data(gamma, 0).module
    rows = [dense.rows(QQ, m, p1.dim) for m in p1.action]
    with pytest.raises(ValidationError, match="column entry"):
        Module(gamma, rows, validate=False)


def _malformed(action, n, case):
    """The map action[0] with too few columns, a row index n out of range
    in its first column, or a stored zero there."""
    first = action[0]
    return {"columns": first[:-1],
            "out of range": (((n, QQ.one),),) + first[1:],
            "stored zero": (((0, QQ.zero),),) + first[1:]}[case]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("case", ["columns", "out of range", "stored zero"])
def test_bimodule_rejects_malformed_action(gamma, side, case):
    reg = Bimodule.regular(gamma)
    left, right = list(reg.left_action), list(reg.right_action)
    family = left if side == "left" else right
    family[0] = _malformed(family, gamma.dim, case)
    with pytest.raises(ValidationError, match=f"{side} action: .*{case}"):
        Bimodule(gamma, gamma, gamma.dim, left, right, validate=False)


def test_tensor_identity(gamma):
    reg = Bimodule.regular(gamma)
    for u in range(len(gamma.idempotents)):
        for v in range(len(gamma.idempotents)):
            p = projective_bimodule(gamma, u, v)
            t = tensor_over(reg, p)
            assert t.dim == p.dim
            verdict, _ = is_isomorphic(t, p)
            assert verdict == "yes"


def test_tensor_dimension_bound(gamma):
    reg = Bimodule.regular(gamma)
    t = tensor_over(reg, reg)
    assert t.dim <= gamma.dim * gamma.dim
    # equality would need the scalars-only action
    assert t.dim < gamma.dim * gamma.dim


def test_tensor_scalar_equality(k):
    reg = Bimodule.regular(k)
    t = tensor_over(reg, reg)
    assert t.dim == 1


def test_tensor_power_short_circuit(gamma_in_lambda):
    from quiverext.extensions import quotient_bimodule
    q = quotient_bimodule(gamma_in_lambda)
    assert [pw.dim for pw in tensor_powers(q, 1)] == [4]
    assert [pw.dim for pw in tensor_powers(q, 2)] == [4, 0]
    assert [pw.dim for pw in tensor_powers(q, 5)] == [4, 0]
    assert tensor_powers(q, 0) == []


def test_double_dual_exact(gamma):
    for m in projective_indecomposables(gamma) + simple_modules(gamma):
        dd = dual_module(dual_module(m))
        assert dd.algebra is m.algebra
        assert dd.action == m.action
        assert dual_module(m).action == tuple(
            dense.columns(QQ, list(zip(*dense.rows(QQ, a, m.dim))))
            for a in m.action)


def test_is_isomorphic_self_and_mismatch(gamma):
    p1, p2 = projective_indecomposables(gamma)
    v, w = is_isomorphic(p1, p1)
    assert v == "yes"
    ModuleMap(p1, p1, w, validate=True)  # raises unless w intertwines
    assert sparse_rank(map(dict, w), p1.dim, QQ) == p1.dim
    assert is_isomorphic(p1, p2)[0] == "no"
    s1, _ = simple_modules(gamma)
    # same dimension but not isomorphic: distinct simples
    assert is_isomorphic(s1, simple_modules(gamma)[1])[0] == "no"


def test_direct_sum_dims(gamma):
    p1, p2 = projective_indecomposables(gamma)
    d = direct_sum([p1, p2, p2])
    assert d.dim == 6


def test_bimodule_full_validation(gamma_qq_gf2):
    """validate(full=True) checks each side on every basis pair, as
    Module.validate(full=True) does; a corrupted right action is
    rejected."""
    a = gamma_qq_gf2
    reg = Bimodule.regular(a)
    reg.validate(full=True)
    right = list(reg.right_action)
    right[a.basis_labels.index("beta*gamma")] = tuple(() for _ in range(a.dim))
    bad = Bimodule(a, a, a.dim, reg.left_action, right, validate=False)
    with pytest.raises(ValidationError, match="right action is not multiplicative"):
        bad.validate(full=True)


def test_bimodule_full_validation_reaches_every_basis_element(lam):
    """In Lambda the path beta*gamma*alpha is no product of two
    generators; full validation checks its map too."""
    reg = Bimodule.regular(lam)
    reg.validate(full=True)
    right = list(reg.right_action)
    right[lam.basis_labels.index("beta*gamma*alpha")] = \
        tuple(() for _ in range(lam.dim))
    bad = Bimodule(lam, lam, lam.dim, reg.left_action, right, validate=False)
    with pytest.raises(ValidationError, match="right action is not multiplicative"):
        bad.validate(full=True)


def test_bimodule_validation(gamma):
    with pytest.raises(ValidationError):
        # left action not multiplicative: transpose breaks composition order
        reg = Bimodule.regular(gamma)
        Bimodule(gamma, gamma, gamma.dim,
                 [transpose(m, gamma.dim) for m in reg.left_action],
                 reg.right_action, validate=True)


def test_right_action_fault_rejected(gamma_qq_gf2):
    # the transposed right multiplications compose in the wrong order
    reg = Bimodule.regular(gamma_qq_gf2)
    with pytest.raises(ValidationError, match="right action is not multiplicative"):
        Bimodule(gamma_qq_gf2, gamma_qq_gf2, gamma_qq_gf2.dim, reg.left_action,
                 [transpose(m, gamma_qq_gf2.dim) for m in reg.right_action])


def test_non_commuting_actions_rejected(gamma_qq_gf2):
    # the transposed left multiplications form a valid right action, but
    # not one that commutes with the left multiplications
    reg = Bimodule.regular(gamma_qq_gf2)
    right = [transpose(m, gamma_qq_gf2.dim) for m in reg.left_action]
    Module(opposite(gamma_qq_gf2), right)
    with pytest.raises(ValidationError, match="actions do not commute"):
        Bimodule(gamma_qq_gf2, gamma_qq_gf2, gamma_qq_gf2.dim, reg.left_action,
                 right)


def test_projective_bimodule_is_env_projective(gamma):
    from quiverext.resolutions import is_projective
    pb = projective_bimodule(gamma, 0, 1)
    assert pb.dim == 4 * 3
    assert is_projective(pb)


def test_direct_sum_of_bimodules(gamma):
    """direct_sum is the one direct sum: of bimodules over the same two
    algebras it is a bimodule, the block sum of each side."""
    pb1 = projective_bimodule(gamma, 0, 0)
    pb2 = projective_bimodule(gamma, 1, 1)
    s = direct_sum([pb1, pb2])
    assert isinstance(s, Bimodule)
    assert (s.left_alg, s.right_alg) == (gamma, gamma)
    assert s.dim == pb1.dim + pb2.dim
    s.validate()


def test_direct_sum_rejects_bimodules_with_different_sides(gamma):
    pb = projective_bimodule(gamma, 0, 0)
    other = projective_bimodule(gamma, 0, 0, right_alg=opposite(gamma))
    with pytest.raises(ValidationError, match="bimodules with different sides"):
        direct_sum([pb, other])


def _fresh(a):
    """A copy of the algebra a with empty caches and no opposite yet."""
    return Algebra(a.field, a.basis_labels, a.table, a.unit, a.radical_rows,
                   a.idempotents)


def test_bimodule_sums_build_no_tensor_algebra(monkeypatch, gamma):
    """A direct sum of bimodules, and the Morita ring over two of them,
    check the sides by identity: neither builds L (x) R^op. Every algebra
    build is counted by kind, through the constructor or, for a tensor
    algebra, through Algebra._built; the summands were not built over
    L (x) R^op, so reading their `algebra` would build it."""
    from quiverext.extensions import morita_ring_zero
    g = _fresh(gamma)
    m = Bimodule.regular(g)
    n = tensor_over(m, m)
    assert m._env is None and n._env is None
    kinds, real_init, real_built = [], Algebra.__init__, Algebra._built

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        kinds.append(self.meta.get("kind"))

    def counting_built(cls, *args):
        out = real_built(*args)
        kinds.append(out.meta.get("kind"))
        return out

    monkeypatch.setattr(Algebra, "__init__", counting_init)
    monkeypatch.setattr(Algebra, "_built", classmethod(counting_built))
    assert isinstance(direct_sum([m, n]), Bimodule)
    assert kinds == []
    morita_ring_zero(g, g, m, n)
    assert kinds and "tensor" not in kinds
    assert m.algebra.factors == (g, opposite(g)) and kinds[-1] == "tensor"


def test_tensor_projectives_keep_their_right_algebra(lam):
    """The projectives of L (x) L^op have L itself as their right algebra
    even after L^op's cache is emptied, so a direct sum with a bimodule
    built over L before accepts them."""
    lam = _fresh(lam)
    opposite(lam)._cache.clear()
    p = projective_data(tensor_algebra(lam, opposite(lam)), 0).module
    assert p.right_alg is lam
    s = direct_sum([p, Bimodule.regular(lam)])
    assert isinstance(s, Bimodule) and s.dim == p.dim + lam.dim


def _a2(field):
    """The path algebra of 1 -> 2 over field."""
    return algebra_from_presentation(
        QuiverPresentation(("1", "2"), (("b", "1", "2"),)), field)


@pytest.mark.parametrize("right", ["B", "B^op", "C"])
def test_projective_bimodule_is_the_tensor_algebras_projective(
        gamma_qq_gf2, right):
    """projective_bimodule(B, u, v, R) is the projective of B (x) R^op at
    e_u (x) e_v, the same object, with the two sides the Kronecker
    construction gives: the one-sided projectives' actions with an
    identity, over R = B, R = B^op and a second algebra R = C."""
    b = gamma_qq_gf2
    r = {"B": b, "B^op": opposite(b), "C": _a2(b.field)}[right]
    env = tensor_algebra(b, opposite(r))
    for u in range(len(b.idempotents)):
        for v in range(len(r.idempotents)):
            pb = projective_bimodule(b, u, v, r)
            assert pb is projective_data(env, u * len(r.idempotents) + v).module
            assert pb.left_alg is b and pb.right_alg is r and pb.algebra is env
            left, right_maps = dense.kron_sides(
                b.field, projective_data(b, u).module,
                projective_data(opposite(r), v).module)
            assert (pb.left_action, pb.right_action) == (left, right_maps)
            pb.validate(full=True)


def test_projectives_of_a_tensor_algebra_are_bimodules(gamma):
    env = tensor_algebra(gamma, opposite(gamma))
    for s in range(len(env.idempotents)):
        p = projective_data(env, s).module
        assert isinstance(p, Bimodule) and p.algebra is env
        assert p.left_alg is gamma and p.right_alg is gamma


def test_env_module_roundtrip(gamma):
    reg = Bimodule.regular(gamma)
    assert isinstance(reg, Module)
    assert reg.algebra is tensor_algebra(gamma, opposite(gamma))
    assert reg.dim == gamma.dim
    reg.validate()


def test_zero_module(gamma):
    z = zero_module(gamma)
    assert z.dim == 0


def test_hom_space_generators_equal_full_basis(gamma, dual_numbers):
    """Intertwining against the generating set pins down the same space as
    the full basis: brute-force comparison on small modules."""
    from quiverext.linalg import EchelonSpan
    for a in (gamma, dual_numbers):
        mods = projective_indecomposables(a) + simple_modules(a)
        for m in mods:
            for n in mods:
                via_gens = hom_space(m, n)
                f = a.field
                md, nd = m.dim, n.dim
                if md == 0 or nd == 0:
                    continue
                # equation (i, j) of N_g X = X M_g for every basis element g,
                # as a sparse row over the unknowns X[k][l] at k * md + l
                system = EchelonSpan(f, nd * md)
                for i_b in range(a.dim):
                    g = ((i_b, f.one),)
                    ng = transpose(n.action_map(g), nd)  # rows of N_g
                    mg = m.action_map(g)                 # columns of M_g
                    for i in range(nd):
                        for j in range(md):
                            row = {}
                            for t, c in ng[i]:
                                row[t * md + j] = f.add(
                                    row.get(t * md + j, f.zero), c)
                            for t, c in mg[j]:
                                row[i * md + t] = f.sub(
                                    row.get(i * md + t, f.zero), c)
                            system.insert(row)
                assert nd * md - system.rank == len(via_gens)
                for x in via_gens:
                    x.validate()


def test_module_validation_full_flag(gamma):
    for m in projective_indecomposables(gamma):
        m.validate(full=True)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_simple_top_coefficients_match_per_column_solve(p):
    """The classes modulo the radical give, column by column, what solving
    b_j = sum_s c_s e_s + (an element of the radical) for each basis
    element b_j gives: with G the basis of idempotents and radical rows,
    the reduced form of [G | I] is [I | G^-1], and c_s(b_j) is entry
    (j, s) of G^-1."""
    import random
    from quiverext.linalg import GF, EchelonSpan
    from quiverext.modules import simple_top_coefficients
    from quiverext.suite import random_quiver_algebra
    field = GF(p) if p else QQ
    rng = random.Random(5 + p)
    for _ in range(6):
        a = random_quiver_algebra(rng, field)
        gens = list(a.idempotents) + list(a.radical_basis().sparse_rows)
        rb = EchelonSpan(field, 2 * a.dim, [g + ((a.dim + t, field.one),)
                                            for t, g in enumerate(gens)]
                         ).reduced_basis()
        assert rb.pivots == tuple(range(a.dim))
        inverse = [dense.vector(field, a.dim, [(i - a.dim, x) for i, x in r
                                               if i >= a.dim])
                   for r in rb.sparse_rows]
        coeffs = simple_top_coefficients(a)
        for s in range(len(a.idempotents)):
            assert dense.rows(field, coeffs[s], 1) == \
                (tuple(inverse[j][s] for j in range(a.dim)),)


# -- tensor algebras read their structure off their factors ---------------

def _without_factors(t):
    """The same table as the tensor algebra t, built as an algebra that
    knows no factors, so its generators and projectives take the general
    path."""
    return Algebra(t.field, t.basis_labels, t.table, t.unit, t.radical_rows,
                   t.idempotents, validate=False)


def _assert_column_format(mod):
    """Every action map of mod passes the engine's format check."""
    f = mod.algebra.field
    assert len(mod.action) == mod.algebra.dim
    for m in mod.action:
        assert map_problem(f, m, mod.dim, mod.dim) is None


@given(seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
       field=st.sampled_from([QQ, GF(2), GF(3)]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_tensor_structure_matches_general_path(seeds, field):
    """On A (x) A^op and A (x) B, the projectives built from the factors'
    and the radical basis read off the radical rows equal the general
    path's in rows, pivots and action, and the arrows read off the factors
    lie in the radical and, with rad^2, span it, as many as the general
    path's arrows."""
    a, b = (random_quiver_algebra(random.Random(s), field, max_vertices=2,
                                  max_arrows=3) for s in seeds)
    for t in (tensor_algebra(a, opposite(a)), tensor_algebra(a, b)):
        plain = _without_factors(t)
        assert t.factors and plain.factors is None
        for s in range(len(t.idempotents)):
            got, want = projective_data(t, s), projective_data(plain, s)
            assert list(got.basis.sparse_rows) == \
                list(want.basis.sparse_rows)
            assert got.basis.pivots == want.basis.pivots
            assert got.module.action == want.module.action
            _assert_column_format(got.module)
            _assert_column_format(want.module)
        rad, want = t.radical_basis(), plain.radical_basis()
        assert list(rad.sparse_rows) == list(want.sparse_rows)
        assert rad.pivots == want.pivots
        square = EchelonSpan(field, t.dim, [
            p for r in rad.sparse_rows for r2 in rad.sparse_rows
            if (p := t.sparse_multiply(r, r2))])
        arrows = t.generators()[len(t.idempotents):]
        assert t.generators()[:len(t.idempotents)] == t.idempotents
        assert all(rad.sparse_coords(g) is not None for g in arrows)
        assert len(arrows) == rad.dim - square.rank == \
            len(plain.generators()) - len(plain.idempotents)
        square.extend(arrows)
        assert square.rank == rad.dim


@given(seed=st.integers(0, 10**6), field=st.sampled_from([QQ, GF(2), GF(3)]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_built_modules_are_in_column_format(seed, field):
    """direct_sum and projective_data build their modules without the
    format check, and a bimodule composes its flat action unchecked; every
    action map they build passes it."""
    rng = random.Random(seed)
    a = random_quiver_algebra(rng, field, max_vertices=2, max_arrows=3)
    mods = [random_module(rng, a), *projective_indecomposables(a),
            *simple_modules(a)]
    _assert_column_format(direct_sum(mods))
    for m in mods:
        _assert_column_format(m)
    _assert_column_format(Bimodule.regular(a))


# -- modules over a tensor algebra keep their two sides -------------------

def _random_pairs(rng, field, n, k):
    """At most k random nonzero (index, coeff) pairs below n, in index
    order: a sparse vector or algebra element."""
    return tuple((i, x) for i in sorted(rng.sample(range(n), min(k, n)))
                 if (x := field.of(rng.randint(-2, 2))))


@given(seed=st.integers(0, 10**6), field=st.sampled_from([QQ, GF(2)]))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_sided_modules_agree_with_their_composed_action(seed, field):
    """A module the engine builds over A^e is a bimodule that keeps its two
    sides: the regular bimodule, the dual bimodule that HH reads, the
    projectives, their direct sum. Its act and action_map agree with
    linalg.act and map_combination over the composed action, which passes
    the format check and the validation on every basis pair (on generators
    for the sum). The same holds for a syzygy over A^e, and a direct sum
    with one flat summand is flat and agrees."""
    rng = random.Random(seed)
    a = random_quiver_algebra(rng, field, max_vertices=2, max_arrows=2)
    reg = Bimodule.regular(a)
    dual = Bimodule(a, a, a.dim, [transpose(m, a.dim) for m in reg.right_action],
                    [transpose(m, a.dim) for m in reg.left_action],
                    validate=False)
    env = tensor_algebra(a, opposite(a))
    sided = [reg, dual, *(projective_data(env, s).module
                          for s in range(len(env.idempotents)))]
    total = direct_sum(sided)
    syz = minimal_resolution(sided[0], 1).syzygy_module(1)
    assert all(isinstance(m, Bimodule) and m.algebra is env
               for m in [*sided, total])
    for m in [*sided, total, syz]:
        flat = m.action
        assert len(flat) == env.dim
        _assert_column_format(m)
        # the sum's blocks are validated as its summands
        Module(env, flat, validate=False).validate(full=m is not total)
        for _ in range(4):
            elem = _random_pairs(rng, field, env.dim, 3)
            vec = dict(_random_pairs(rng, field, m.dim, 4))
            assert m.act(elem, vec) == act(field, flat, elem, vec.items())
            assert m.action_map(elem) == map_combination(field, elem, flat,
                                                         m.dim)
    mixed = direct_sum([sided[0], Module(env, sided[1].action,
                                         validate=False)])
    assert not isinstance(mixed, Bimodule)
    assert mixed.action == direct_sum(sided[:2]).action
