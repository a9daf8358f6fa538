from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import LinAlgError
from quiverext.linalg import (GF, QQ, EchelonSpan, Matrix, block_sum,
                              compose, field_from_spec, identity_map, kron,
                              map_combination, matrix_combination, quotient,
                              rank, rref,
                              solve_linear, sparse_combination, sparse_rank,
                              transpose)


def rank_by_minor_enumeration(m):
    """Independent oracle: the rank is the largest size of a square
    submatrix with nonzero determinant (Laplace expansion)."""
    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0], cols[0]]
        total = m.field.zero
        for i, r in enumerate(rows):
            c = m[r, cols[0]]
            if not c:
                continue
            sub = det(tuple(x for x in rows if x != r), cols[1:])
            term = m.field.mul(c, sub)
            total = m.field.add(total, term if i % 2 == 0 else m.field.neg(term))
        return total
    best = 0
    for size in range(1, min(m.nrows, m.ncols) + 1):
        found = False
        for rows in combinations(range(m.nrows), size):
            for cols in combinations(range(m.ncols), size):
                if det(rows, cols):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def null_space(m):
    """The null space of m, spanned by the rows of the complement of its
    row space, as sparse vectors."""
    return EchelonSpan(m.field, m.ncols, m.rows).reduced_basis().complement()[0]


def test_scalar_canonical_form():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("-6/4") == Fraction(-3, 2)
    assert GF(5).parse("7") == 2
    assert GF(5).parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5


def test_field_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("p:3").characteristic == 3
    with pytest.raises(LinAlgError):
        field_from_spec("p:4")
    for spec in ("p:x", "p:", "p:2.5"):
        with pytest.raises(LinAlgError, match="unknown field spec"):
            field_from_spec(spec)


def test_rref_identity():
    r = rref(Matrix.identity(QQ, 3))
    assert r.rank == 3
    assert r.pivots == (0, 1, 2)


def test_rref_proportional_rows():
    assert rank(Matrix.from_rows(QQ, [[1, 2], [2, 4]])) == 1


def test_kernel_identity_and_zero():
    assert null_space(Matrix.identity(QQ, 4)) == []
    assert len(null_space(Matrix.zeros(QQ, 2, 3))) == 3


def test_kernel_substitution():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    k = null_space(m)
    assert len(k) == 1
    vec = tuple(k[0].get(j, QQ.zero) for j in range(2))
    assert m.apply(vec) == (0, 0)
    # spanned by (2, -1) up to scale
    assert vec[0] * Fraction(-1) == vec[1] * Fraction(2)


def test_solve_identity():
    b = Matrix.from_rows(QQ, [[5], [7], [-2]])
    assert solve_linear(Matrix.identity(QQ, 3), b) == b


def test_solve_inconsistent():
    a = Matrix.from_rows(QQ, [[1, 0], [1, 0]])
    b = Matrix.from_rows(QQ, [[1], [2]])
    assert solve_linear(a, b) is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinAlgError):
        solve_linear(Matrix.identity(QQ, 2), Matrix.from_rows(QQ, [[1]]))


def class_of(field, classes, vec):
    """The class of a vector in a quotient, from the classes of the unit
    vectors."""
    return sparse_combination(field, [(c, classes[k].items())
                                      for k, c in enumerate(vec)])


def test_quotient_zero_subspace():
    classes, free, _ = quotient(EchelonSpan(QQ, 3))
    assert free == [0, 1, 2]
    assert classes == [{0: 1}, {1: 1}, {2: 1}]


def test_quotient_full_subspace():
    classes, free, _ = quotient(EchelonSpan(QQ, 2, Matrix.identity(QQ, 2).rows))
    assert free == []
    assert classes == [{}, {}]


def test_quotient_line_in_three_space():
    sub = [QQ.of(x) for x in (1, 2, 3)]
    # m fixes the line: m (1, 2, 3) = (1, 2, 3)
    m = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [2, -1, 1]])
    classes, free, [[induced]] = quotient(EchelonSpan(QQ, 3, [sub]),
                                          [[m.sparse_columns().__getitem__]])
    assert free == [1, 2]
    assert class_of(QQ, classes, sub) == {}
    assert classes[0] == {0: -2, 1: -3}
    # the induced map sends the class of each e_k to the class of m e_k
    induced = Matrix.from_sparse_columns(QQ, induced, 2)
    assert induced == Matrix.from_rows(QQ, [[1, 0], [-1, 1]])
    for k, col in enumerate(m.transpose().rows):
        image = class_of(QQ, classes, col)
        vec = tuple(classes[k].get(t, 0) for t in range(2))
        assert induced.apply(vec) == tuple(image.get(t, 0) for t in range(2))


def test_stacked_action_matrix_rank_with_minor_oracle(gamma_in_lambda):
    """Stack three generator action matrices of the quotient bimodule into
    a 12x4 matrix; rank must match minor enumeration and 4 - nullity."""
    from quiverext.extensions import quotient_bimodule
    q = quotient_bimodule(gamma_in_lambda)
    gens = q.left_alg.generators()
    rows = []
    for g in [gens[2], gens[3], gens[2]]:  # two arrow actions plus a repeat
        act = map_combination(QQ, g, q.left_action, q.dim)
        rows.extend(Matrix.from_sparse_columns(QQ, act, q.dim).rows)
    stacked = Matrix(QQ, rows)
    assert stacked.nrows == 12 and stacked.ncols == 4
    r = rank(stacked)
    assert r == rank_by_minor_enumeration(stacked)
    assert r == 4 - len(null_space(stacked))


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(field, max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(small_entries, min_size=m, max_size=m),
                min_size=n, max_size=n).map(
                    lambda rows: Matrix.from_rows(field, rows))))


@given(m=matrices(QQ))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_transpose(m):
    assert rank(m) == m.ncols - len(null_space(m))
    assert rank(m) == rank(m.transpose())


@given(m=matrices(GF(2)))
@settings(max_examples=40, deadline=None)
def test_rank_nullity_gf2(m):
    assert rank(m) == m.ncols - len(null_space(m))
    assert rank(m) == rank(m.transpose())


@given(m=matrices(QQ))
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(m):
    red = rref(m).reduced
    assert rref(red).reduced == red


@given(m=matrices(QQ, 3), b=matrices(QQ, 3))
@settings(max_examples=40, deadline=None)
def test_solve_residual_exact(m, b):
    if b.nrows != m.nrows:
        return
    x = solve_linear(m, b)
    if x is not None:
        assert m.mul(x) == b


@given(m=st.one_of(matrices(QQ), matrices(GF(2)), matrices(GF(3))))
@settings(max_examples=60, deadline=None)
def test_quotient_projection_full_row_rank(m):
    """The quotient of k^nrows by the column span of m."""
    f = m.field
    classes, free, _ = quotient(EchelonSpan(f, m.nrows, m.transpose().rows))
    assert len(free) == m.nrows - rank(m)
    for col in m.transpose().rows:
        assert class_of(f, classes, col) == {}
    for c, k in enumerate(free):
        assert classes[k] == {c: f.one}


@st.composite
def composable_pairs(draw):
    """A field and random matrices a (n x m) and b (m x p), any of n, m, p
    possibly zero."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(nrows, ncols):
        return Matrix(field, [[field.of(draw(small_entries))
                               for _ in range(ncols)]
                              for _ in range(nrows)], ncols)

    return field, matrix(n, m), matrix(m, p)


@given(data=composable_pairs())
@settings(max_examples=80, deadline=None)
def test_sparse_maps_match_dense_reference(data):
    """The column-sparse routines against dense matrices: the round trip,
    composition against Matrix.mul, the transpose, a combination, the
    block sum and the Kronecker product built entry by entry."""
    f, a, b = data
    ca, cb = a.sparse_columns(), b.sparse_columns()
    assert Matrix.from_sparse_columns(f, ca, a.nrows) == a
    assert Matrix.from_sparse_columns(f, cb, b.nrows) == b
    assert Matrix.from_sparse_columns(f, compose(f, ca, cb), a.nrows) == \
        a.mul(b)
    assert compose(f, ca, identity_map(f, a.ncols)) == ca
    assert compose(f, identity_map(f, a.nrows), ca) == ca
    assert Matrix.from_sparse_columns(f, transpose(ca, a.nrows),
                                      a.ncols) == a.transpose()
    coeffs = [f.of(2), f.one]
    assert Matrix.from_sparse_columns(
        f, map_combination(f, coeffs, [ca, ca], a.ncols), a.nrows) == \
        matrix_combination(f, coeffs, [a, a], a.nrows, a.ncols)
    z = f.zero
    diag = Matrix(f, [list(r) + [z] * b.ncols for r in a.rows] +
                  [[z] * a.ncols + list(r) for r in b.rows], a.ncols + b.ncols)
    summed = block_sum([ca, cb], [a.nrows, b.nrows])
    assert Matrix.from_sparse_columns(f, summed, a.nrows + b.nrows) == diag
    dense_kron = Matrix(f, [[f.mul(a[i, j], b[s, t]) for j in range(a.ncols)
                             for t in range(b.ncols)]
                            for i in range(a.nrows) for s in range(b.nrows)],
                        a.ncols * b.ncols)
    assert Matrix.from_sparse_columns(f, kron(f, ca, cb, b.nrows),
                                      a.nrows * b.nrows) == dense_kron


@given(m=st.one_of(matrices(QQ), matrices(GF(2)), matrices(GF(3))))
@settings(max_examples=30, deadline=None)
def test_sparse_rank_agrees(m):
    rows = [{j: v for j, v in enumerate(row) if v} for row in m.rows]
    assert sparse_rank(rows, m.ncols, m.field) == rank(m)
    assert rank(m) == rank_by_minor_enumeration(m)


def test_echelon_span_membership():
    span = EchelonSpan(QQ, 3)
    assert span.insert([1, 2, 3])
    assert span.insert([0, 1, 1])
    assert not span.insert([1, 3, 4])
    assert span.contains([2, 4, 6])
    assert not span.contains([0, 0, 1])
    rb = span.reduced_basis()
    assert rb.dim == 2
    assert rb.coords([2, 4, 6]) is not None
    assert rb.coords([0, 0, 1]) is None


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_zero_row_matrix_keeps_its_width(field):
    z = Matrix.zeros(field, 0, 3)
    assert (z.nrows, z.ncols) == (0, 3)
    assert z.is_zero()
    assert z.mul(Matrix.zeros(field, 3, 2)) == Matrix.zeros(field, 0, 2)
    assert z.transpose() == Matrix.zeros(field, 3, 0)
    assert Matrix(field, [], 3) == z


def test_matrix_is_immutable():
    m = Matrix.identity(QQ, 2)
    with pytest.raises(AttributeError):
        m.ncols = 5
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(AttributeError):
        del m.nrows
    assert (m.nrows, m.ncols) == (2, 2)
