import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import FieldMismatchError, ValidationError
import dense_reference as dense
from quiverext.linalg import (GF, QQ, EchelonSpan, identity_map,
                              map_combination, sparse_combination, to_column)
from quiverext.modules import Bimodule
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.suite import random_quiver_algebra
from quiverext.algebra import (Algebra, opposite, product_algebra,
                               scalar_algebra, tensor_algebra,
                               verify_algebra_isomorphism)


def _product(a, x, y):
    """The product of two elements of a, in the stored element format."""
    return to_column(dict(a.sparse_multiply(x, y)))


def basis_element(a, label):
    return ((a.basis_labels.index(label), a.field.one),)


def test_scalar_algebra(k):
    assert k.dim == 1
    assert _product(k, k.unit, k.unit) == k.unit


def test_opposite_is_involution(gamma):
    opp = opposite(gamma)
    assert opposite(opp) is gamma
    assert opp.dim == gamma.dim
    beta = basis_element(gamma, "beta")
    g = basis_element(gamma, "gamma")
    # beta*gamma in the opposite order
    assert _product(opp, g, beta) == _product(gamma, beta, g)
    assert _product(gamma, beta, g) == basis_element(gamma, "beta*gamma")


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
        Algebra(QQ, ("e", "x"), table, ((0, one),), (((1, one),),),
                (((0, one),),))


def test_bad_radical_rejected(dual_numbers):
    # radical claimed to be spanned by the unit: not nilpotent
    one = QQ.one
    with pytest.raises(ValidationError):
        Algebra(QQ, dual_numbers.basis_labels, dual_numbers.table,
                dual_numbers.unit, (((0, one),),), dual_numbers.idempotents)


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
                                      identity_map(QQ, gamma.dim))


def test_verify_isomorphism_rejects_non_map(gamma, dual_numbers):
    with pytest.raises(ValidationError):
        verify_algebra_isomorphism(gamma, dual_numbers, ((),) * 5)


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
    return tuple((i, field.of(coeffs[l])) for i, l in enumerate(order)
                 if l in coeffs)


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


_IDEMPOTENT_FAULTS = [
    # e1 + b is idempotent, but (e1 + b) e2 = 0 while e2 (e1 + b) = b
    ("not orthogonal", lambda f: (None, [_vec(f, e1=1, b=1), _vec(f, e2=1)]),
     "idempotents e1, e0 are not orthogonal idempotents"),
    ("not complete", lambda f: (None, [_vec(f, e1=1)]),
     "idempotents do not sum to the unit"),
    # b squares to zero
    ("not idempotent", lambda f: (None, [_vec(f, b=1), _vec(f, e2=1)]),
     "idempotents e0, e0 are not orthogonal idempotents"),
    ("unit law", lambda f: (_vec(f, e1=1), None), "unit law fails"),
]


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("fault,build,message", _IDEMPOTENT_FAULTS,
                         ids=[x[0] for x in _IDEMPOTENT_FAULTS])
def test_idempotent_fault_rejected(field, fault, build, message):
    a = _a2(field)
    unit, idempotents = build(field)
    with pytest.raises(ValidationError, match=message):
        Algebra(field, a.basis_labels, a.table, unit or a.unit,
                a.radical_rows, idempotents or a.idempotents)


_STRUCTURAL_FAULTS = _IDEMPOTENT_FAULTS[:3] + [
    # the battery reports the unit law first; the structural check sees
    # that the idempotents do not sum to the unit
    ("unit law", _IDEMPOTENT_FAULTS[3][1],
     "idempotents do not sum to the unit"),
]


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("fault,build,message", _STRUCTURAL_FAULTS,
                         ids=[x[0] for x in _STRUCTURAL_FAULTS])
def test_structural_check_without_battery(field, fault, build, message):
    """validate=False, which the derived constructors use, still checks
    that the idempotents are complete and orthogonal."""
    a = _a2(field)
    unit, idempotents = build(field)
    with pytest.raises(ValidationError, match=message):
        Algebra(field, a.basis_labels, a.table, unit or a.unit,
                a.radical_rows, idempotents or a.idempotents, validate=False)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_structural_check_counts_dimensions(field):
    a = _a2(field)
    with pytest.raises(ValidationError, match="not split basic"):
        Algebra(field, a.basis_labels, a.table, a.unit, (), a.idempotents,
                validate=False)


@pytest.mark.parametrize("validate", [True, False])
def test_table_missing_a_row_rejected(validate):
    """A table with a row too few is rejected by the shape check, not
    met by an IndexError in the battery."""
    a = _a2(QQ)
    with pytest.raises(ValidationError, match="wrong shape"):
        Algebra(QQ, a.basis_labels, a.table[:2], a.unit, a.radical_rows,
                a.idempotents, validate=validate)


# -- the table format: every fault, in an outside table ------------------

def _dual_numbers_data(field):
    """k[x]/(x^2) on the basis e, x, written out as an outside table:
    labels, table, unit, radical rows and idempotents."""
    e, x = ((0, field.one),), ((1, field.one),)
    return ("e", "x"), ((e, x), (x, ())), e, (x,), (e,)


# each replaces the empty cell x * x of a valid table; unchecked, the
# first four end in an IndexError, a TypeError or a ValueError, and the
# others are accepted or rejected only later, as some other fault
_TABLE_FAULTS = {
    "index out of range": lambda f: ((5, f.one),),
    "string index": lambda f: (("x", f.one),),
    "float index": lambda f: ((1.0, f.one),),
    "1-tuple entry": lambda f: ((1,),),
    "negative index": lambda f: ((-1, f.one),),
    "index out of order": lambda f: ((1, f.one), (0, f.one)),
    "repeated index": lambda f: ((1, f.one), (1, f.one)),
    "stored zero": lambda f: ((1, f.zero),),
    "integral fraction": lambda f: ((1, Fraction(2, 1)),),
    "list cell": lambda f: [],
}


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("fault", sorted(_TABLE_FAULTS))
def test_malformed_table_rejected(field, fault):
    """A table row is checked as the column-sparse map of left
    multiplication by its basis element: a cell in the wrong format is
    rejected with the engine's own error naming the row, with or without
    the battery, and is never converted."""
    labels, table, unit, radical, idempotents = _dual_numbers_data(field)
    Algebra(field, labels, table, unit, radical, idempotents)
    bad = (table[0], (table[1][0], _TABLE_FAULTS[fault](field)))
    for validate in (True, False):
        with pytest.raises(ValidationError, match="^table row 1: "):
            Algebra(field, labels, bad, unit, radical, idempotents,
                    validate=validate)


# -- the element format: every fault, in every stored element ------------

_ELEMENT_FAULTS = {
    "index out of range": lambda f: ((3, f.one),),
    "index out of order": lambda f: ((1, f.one), (0, f.one)),
    "stored zero": lambda f: ((0, f.zero),),
    # the dense vector of e1, whose entries are not pairs
    "non-pair": lambda f: (f.one, f.zero, f.zero),
    # an integer residue past p, or a float for a rational
    "non-canonical": lambda f: ((0, f.characteristic + 1 if f.characteristic
                                 else 1.0),),
    # an integral rational is an int, and a residue is never a Fraction
    "integral fraction": lambda f: ((0, Fraction(3, 1)),),
}


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("fault", sorted(_ELEMENT_FAULTS))
@pytest.mark.parametrize("where", ["unit", "radical row", "idempotent"])
def test_malformed_element_rejected(field, fault, where):
    """An element in the wrong format is rejected by the format check
    with the engine's own error, with or without the battery."""
    a = _a2(field)
    bad = _ELEMENT_FAULTS[fault](field)
    unit, radical, idempotents = a.unit, a.radical_rows, a.idempotents
    if where == "unit":
        unit = bad
    elif where == "radical row":
        radical = (bad,)
    else:
        idempotents = (bad,) + idempotents[1:]
    for validate in (True, False):
        with pytest.raises(ValidationError, match=f"^{where}: "):
            Algebra(field, a.basis_labels, a.table, unit, radical,
                    idempotents, validate=validate)


# -- the sparse product kernel against a dense triple loop ---------------

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
    xs, ys = dense.pairs(x), dense.pairs(y)
    assert dense.vector(a.field, a.dim, a.sparse_multiply(xs, ys)) == \
        dense.product(a, x, y)
    one = a.field.one
    # the regular bimodule is the table and the opposite's, no product
    reg = Bimodule.regular(a)
    assert (reg.left_action, reg.right_action) == (a.table, opposite(a).table)
    left, right = (map_combination(a.field, xs, action, a.dim)
                   for action in (reg.left_action, reg.right_action))
    for j in range(a.dim):
        bj = dense.vector(a.field, a.dim, ((j, one),))
        # column j of each multiplication map, read as its sparse entries
        assert left[j] == dense.pairs(dense.product(a, x, bj))
        assert right[j] == dense.pairs(dense.product(a, bj, x))
        assert tuple(a.sparse_multiply(xs, ((j, one),))) == \
            dense.pairs(dense.product(a, x, bj))


@given(data=_algebra_and_vectors(4))
@settings(max_examples=60, deadline=None)
def test_sparse_coords_agree_with_echelon_span(data):
    """The left ideal A x + A y: sparse coordinates and membership of
    products and of arbitrary vectors agree with EchelonSpan, and the
    coordinates of a member combine the basis rows to it."""
    a, dense_elems = data
    f = a.field
    x, y, u, v = map(dense.pairs, dense_elems)
    span = EchelonSpan(f, a.dim)
    for g in (x, y):
        for i in range(a.dim):
            span.insert(a.sparse_multiply(((i, f.one),), g))
    rb = span.reduced_basis()
    ux, vy = _product(a, u, x), _product(a, v, y)
    for w in (u, v, ux, vy,
              to_column(sparse_combination(f, [(f.one, ux), (f.one, vy)]))):
        cs = rb.sparse_coords(w)
        member = span.contains(w)
        assert (cs is not None) == member
        if member:
            assert sparse_combination(f, [(c, rb.sparse_rows[t])
                                          for t, c in cs.items()]) == dict(w)


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
    # The constructor's structural check would reject a table corrupted at
    # an idempotent, so the corrupted table is put in after construction.
    bad = Algebra(field, a.basis_labels, a.table, a.unit, a.radical_rows,
                  a.idempotents, validate=False)
    bad.table = tuple(map(tuple, table))
    try:
        bad._check_associativity()
        rejected = False
    except ValidationError:
        rejected = True
    assert rejected == (not _is_associative(bad))


# -- derived algebras are valid by construction --------------------------

@given(seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
       field=st.sampled_from([QQ, GF(2), GF(3)]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_constructor_outputs_pass_the_battery(seeds, field):
    """opposite, tensor_algebra and product_algebra build their outputs
    with validate=False, trusting the theorems behind them; on valid
    inputs every output passes the full battery."""
    a, b = (random_quiver_algebra(random.Random(s), field, max_vertices=2,
                                  max_arrows=3) for s in seeds)
    for out in (opposite(a), tensor_algebra(a, b),
                tensor_algebra(a, opposite(a)), product_algebra(a, b)):
        out.validate()
