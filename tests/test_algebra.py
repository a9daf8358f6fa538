import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import FieldMismatchError, ValidationError
from quiverext.linalg import GF, QQ, EchelonSpan, Matrix, nonzero_pairs
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.suite import random_quiver_algebra
from quiverext.algebra import (Algebra, opposite, product_algebra,
                               scalar_algebra, tensor_algebra,
                               verify_algebra_isomorphism)


def test_scalar_algebra(k):
    assert k.dim == 1
    assert k.multiply(k.unit, k.unit) == k.unit


def test_opposite_is_involution(gamma):
    opp = opposite(gamma)
    assert opposite(opp) is gamma
    assert opp.dim == gamma.dim
    lab = {l: i for i, l in enumerate(gamma.basis_labels)}
    beta = gamma.basis_vector(lab["beta"])
    g = gamma.basis_vector(lab["gamma"])
    # beta*gamma in the opposite order
    assert opp.multiply(g, beta) == gamma.multiply(beta, g)


def test_opposite_of_commutative_unchanged(dual_numbers):
    opp = opposite(dual_numbers)
    assert opp.table == dual_numbers.table


def test_tensor_dimensions(gamma, k):
    ke = tensor_algebra(k, gamma)
    assert ke.dim == gamma.dim
    ge = tensor_algebra(gamma, opposite(gamma))
    assert ge.dim == 25
    assert len(ge.idempotents) == 4


def test_tensor_radical_formula(gamma, dual_numbers):
    for a, b in [(gamma, dual_numbers), (dual_numbers, dual_numbers),
                 (gamma, opposite(gamma))]:
        t = tensor_algebra(a, b)
        ra, rb = a.radical_dim, b.radical_dim
        assert t.radical_dim == ra * b.dim + a.dim * rb - ra * rb


def test_tensor_field_mismatch(gamma):
    k2 = scalar_algebra(GF(2))
    with pytest.raises(FieldMismatchError):
        tensor_algebra(gamma, k2)


def test_projective_slice_dims(gamma):
    """dim of the corner projectives over the enveloping algebra."""
    from quiverext.modules import projective_indecomposables
    ge = tensor_algebra(gamma, opposite(gamma))
    dims = sorted(p.dim for p in projective_indecomposables(ge))
    # Gamma e1 = 4, Gamma e2 = 1; e1 Gamma = 2, e2 Gamma = 3
    assert dims == sorted([4 * 2, 4 * 3, 1 * 2, 1 * 3])


def test_product_algebra(k, gamma):
    kk = product_algebra(k, k)
    assert kk.dim == 2
    assert len(kk.idempotents) == 2
    gk = product_algebra(gamma, k)
    assert gk.dim == 6
    assert gk.radical_dim == gamma.radical_dim


def test_zero_dimensional_rejected():
    with pytest.raises(ValidationError):
        Algebra(QQ, (), (), (), (), ())


def test_bad_associativity_rejected():
    # x*x = e on a two-element "basis" with inconsistent table
    one = QQ.one
    table = (
        (((0, one),), ((1, one),)),
        (((1, one),), ((1, one),)),  # x*x = x but also forced products clash
    )
    with pytest.raises(ValidationError):
        Algebra(QQ, ("e", "x"), table, (one, QQ.zero), ((QQ.zero, one),),
                ((one, QQ.zero),))


def test_bad_radical_rejected(dual_numbers):
    # radical claimed to be spanned by the unit: not nilpotent
    one = QQ.one
    with pytest.raises(ValidationError):
        Algebra(QQ, dual_numbers.basis_labels, dual_numbers.table,
                dual_numbers.unit, ((one, QQ.zero),), dual_numbers.idempotents)


def test_incomplete_idempotents_rejected(gamma):
    with pytest.raises(ValidationError):
        Algebra(QQ, gamma.basis_labels, gamma.table, gamma.unit,
                gamma.radical_rows, gamma.idempotents[:1])


def test_generators_of_quiver_algebra(gamma):
    gens = gamma.generators()
    # two idempotents plus two arrows
    assert len(gens) == 4


def test_verify_isomorphism_identity(gamma):
    assert verify_algebra_isomorphism(gamma, gamma,
                                      Matrix.identity(QQ, gamma.dim))


def test_verify_isomorphism_rejects_non_map(gamma, dual_numbers):
    with pytest.raises(ValidationError):
        verify_algebra_isomorphism(gamma, dual_numbers,
                                   Matrix.zeros(QQ, 2, 5))


def test_tensor_with_scalar_matches_structure_constants(k, gamma):
    """k (x) A has the same multiplication table as A under the pairing."""
    t = tensor_algebra(k, gamma)
    assert t.table == gamma.table
    assert t.unit == gamma.unit


def test_opposite_matches_reversed_quiver(gamma):
    """Re-enumerating the loop quiver with reversed arrows reproduces the
    opposite algebra's dimensions and block data."""
    from quiverext.quiver import QuiverPresentation, algebra_from_presentation
    rev = QuiverPresentation(
        ("1", "2"),
        (("beta", "2", "1"), ("gamma", "1", "1")),
        (((1, ("gamma", "gamma")),),),
    )
    direct = algebra_from_presentation(rev, QQ)
    opp = opposite(gamma)
    assert direct.dim == opp.dim
    assert direct.radical_dim == opp.radical_dim
    assert len(direct.idempotents) == len(opp.idempotents)
    # path counts per starting vertex agree with the reversed model
    from quiverext.modules import projective_indecomposables
    assert sorted(p.dim for p in projective_indecomposables(direct)) == \
        sorted(p.dim for p in projective_indecomposables(opp))


def test_tensor_cache_survives_recycled_ids():
    """A cached tensor product is never handed back for another factor,
    even when that factor reuses the address of a collected one."""
    a = scalar_algebra(QQ)
    k = scalar_algebra(QQ)
    b1 = algebra_from_presentation(
        QuiverPresentation(("1",), (("x", "1", "1"),),
                           (((1, ("x", "x")),),)), QQ)
    assert tensor_algebra(a, b1).radical_dim == 1
    del b1
    gc.collect()
    # k x k, built until one copy would land at b1's old address
    for b2 in [product_algebra(k, k) for _ in range(50)]:
        t = tensor_algebra(a, b2)
        assert t.radical_dim == 0
        assert len(t.idempotents) == 2


# -- fault injection: every rejection of the radical check ---------------

def _a2(field):
    """Path algebra of 1 -> 2 with basis e1, e2, b (b = e2 b e1)."""
    return algebra_from_presentation(
        QuiverPresentation(("1", "2"), (("b", "1", "2"),)), field)


def _vec(field, **coeffs):
    order = ("e1", "e2", "b")
    return tuple(field.of(coeffs.get(l, 0)) for l in order)


_RADICAL_FAULTS = [
    ("dependent", lambda f: ([_vec(f, b=1), _vec(f, b=1)], None),
     "radical rows are linearly dependent"),
    ("dimension", lambda f: ([], None),
     "not split basic: dim != #idempotents \\+ dim radical"),
    ("not spanning", lambda f: ([_vec(f, e1=1)], None),
     "idempotents and radical do not span the algebra"),
    ("left ideal", lambda f: ([_vec(f, b=1, e1=1)], None),
     "radical is not a left ideal"),
    ("right ideal", lambda f: ([_vec(f, b=1, e2=1)], None),
     "radical is not a right ideal"),
    # span(e1, b) is a two-sided ideal containing the idempotent e1
    ("nilpotent", lambda f: ([_vec(f, e1=1), _vec(f, b=1)],
                             [_vec(f, e1=1, e2=1)]),
     "radical is not nilpotent"),
]


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("fault,build,message", _RADICAL_FAULTS,
                         ids=[x[0] for x in _RADICAL_FAULTS])
def test_radical_fault_rejected(field, fault, build, message):
    a = _a2(field)
    assert a.basis_labels == ("e1", "e2", "b")
    radical, idempotents = build(field)
    with pytest.raises(ValidationError, match=message):
        Algebra(field, a.basis_labels, a.table, a.unit, radical,
                idempotents or a.idempotents)


# -- the sparse product kernel against a dense triple loop ---------------

def _reference_product(a, x, y):
    f = a.field
    out = [f.zero] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            for k, c in a.table[i][j]:
                out[k] = f.add(out[k], f.mul(f.mul(f.of(x[i]), f.of(y[j])), c))
    return tuple(out)


_FIELDS = st.sampled_from([QQ, GF(2)])


@st.composite
def _algebra_and_vectors(draw, count):
    field = draw(_FIELDS)
    a = random_quiver_algebra(random.Random(draw(st.integers(0, 10**6))),
                              field)
    coeff = st.fractions(-3, 3, max_denominator=3) if field is QQ \
        else st.integers(0, 1)
    vecs = [tuple(field.of(c) for c in draw(st.lists(
        coeff, min_size=a.dim, max_size=a.dim))) for _ in range(count)]
    return a, vecs


@given(data=_algebra_and_vectors(2))
@settings(max_examples=60, deadline=None)
def test_multiply_matches_dense_reference(data):
    a, (x, y) = data
    assert a.multiply(x, y) == _reference_product(a, x, y)
    one = a.field.one
    for j in range(a.dim):
        bj = a.basis_vector(j)
        assert a.left_mult_matrix(x).col(j) == _reference_product(a, x, bj)
        assert a.right_mult_matrix(x).col(j) == _reference_product(a, bj, x)
        assert a.sparse_multiply(nonzero_pairs(a.field, x), ((j, one),)) == \
            nonzero_pairs(a.field, _reference_product(a, x, bj))


@given(data=_algebra_and_vectors(4))
@settings(max_examples=60, deadline=None)
def test_sparse_coords_agree_with_echelon_span(data):
    """The left ideal A x + A y: sparse coordinates and membership of
    products and of arbitrary vectors agree with EchelonSpan."""
    a, (x, y, u, v) = data
    span = EchelonSpan(a.field, a.dim)
    for g in (x, y):
        for i in range(a.dim):
            span.insert(a.multiply(a.basis_vector(i), g))
    rb = span.reduced_basis()
    for w in (u, v, a.multiply(u, x), a.multiply(v, y),
              tuple(a.field.add(p, q) for p, q in
                    zip(a.multiply(u, x), a.multiply(v, y)))):
        cs = rb.coords(w)
        member = span.contains(w)
        assert (cs is not None) == member
        assert (rb.sparse_coords(nonzero_pairs(a.field, w)) is not None) == member
        if cs is not None:
            assert rb.combine(cs) == w


def _is_associative(a):
    """Every triple, both sides composed straight from the table."""
    f = a.field
    n = a.dim

    def compose(pairs, cell_of):
        out = {}
        for t, c in pairs:
            for u, d in cell_of(t):
                out[u] = f.add(out.get(u, f.zero), f.mul(c, d))
        return {u: v for u, v in out.items() if v}

    return all(
        compose(a.table[i][j], lambda t: a.table[t][k])
        == compose(a.table[j][k], lambda t: a.table[i][t])
        for i in range(n) for j in range(n) for k in range(n))


@given(seed=st.integers(0, 10**6), field=_FIELDS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_associativity_check_exact_on_corrupted_tables(seed, field, data):
    """The check skips only triples whose sides are both zero: it rejects
    a corrupted table exactly when some triple fails."""
    a = random_quiver_algebra(random.Random(seed), field, max_vertices=2,
                              max_arrows=3)
    n = a.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    c = data.draw(st.integers(0, 2))
    table = [list(row) for row in a.table]
    table[i][j] = ((k, field.of(c)),) if c else ()
    bad = Algebra(field, a.basis_labels, table, a.unit, a.radical_rows,
                  a.idempotents, validate=False)
    try:
        bad._check_associativity()
        rejected = False
    except ValidationError:
        rejected = True
    assert rejected == (not _is_associative(bad))
