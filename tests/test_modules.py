import random

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import ValidationError
import dense_reference as dense
from quiverext.linalg import (GF, QQ, EchelonSpan, identity_map, map_problem,
                              sparse_rank, transpose)
from quiverext.algebra import Algebra, opposite, tensor_algebra
from quiverext.modules import (Bimodule, Module, ModuleMap, bimodule_direct_sum,
                               direct_sum, dual_module, hom_space,
                               is_isomorphic, left_regular_module,
                               projective_bimodule, projective_data,
                               projective_indecomposables, simple_modules,
                               tensor_over, tensor_powers, zero_module)
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
            verdict, _ = is_isomorphic(t.as_env_module(), p.as_env_module())
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
    assert is_projective(pb.as_env_module())


def test_bimodule_direct_sum(gamma):
    pb1 = projective_bimodule(gamma, 0, 0)
    pb2 = projective_bimodule(gamma, 1, 1)
    s = bimodule_direct_sum([pb1, pb2])
    assert s.dim == pb1.dim + pb2.dim


def test_env_module_roundtrip(gamma):
    reg = Bimodule.regular(gamma)
    env = reg.as_env_module()
    assert env.algebra is tensor_algebra(gamma, opposite(gamma))
    assert env.dim == gamma.dim
    env.validate()


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
    """direct_sum, projective_data and as_env_module build their modules
    without the format check; every action map they build passes it."""
    rng = random.Random(seed)
    a = random_quiver_algebra(rng, field, max_vertices=2, max_arrows=3)
    mods = [random_module(rng, a), *projective_indecomposables(a),
            *simple_modules(a)]
    _assert_column_format(direct_sum(mods))
    for m in mods:
        _assert_column_format(m)
    _assert_column_format(Bimodule.regular(a).as_env_module())
