from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.errors import LinAlgError
from quiverext.linalg import (GF, QQ, EchelonSpan, Matrix, field_from_spec,
                              kernel_basis, matrix_combination,
                              quotient_space, rank, rref, solve_linear,
                              sparse_rank)


def rank_by_minor_enumeration(m):
    """Independent oracle: the rank is the largest size of a square
    submatrix with nonzero determinant (Laplace expansion)."""
    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0], cols[0]]
        total = m.field.zero
        for i, r in enumerate(rows):
            c = m[r, cols[0]]
            if m.field.is_zero(c):
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
                if not m.field.is_zero(det(rows, cols)):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


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
    assert kernel_basis(Matrix.identity(QQ, 4)).ncols == 0
    assert kernel_basis(Matrix.zeros(QQ, 2, 3)).ncols == 3


def test_kernel_substitution():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    k = kernel_basis(m)
    assert k.ncols == 1
    assert m.mul(k).is_zero()
    # spanned by (2, -1) up to scale
    col = k.col(0)
    assert col[0] * Fraction(-1) == col[1] * Fraction(2)


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


def test_quotient_zero_subspace():
    proj, sect = quotient_space(3, Matrix.zeros(QQ, 3, 0))
    assert proj == Matrix.identity(QQ, 3)
    assert sect == Matrix.identity(QQ, 3)


def test_quotient_full_subspace():
    proj, sect = quotient_space(2, Matrix.identity(QQ, 2))
    assert proj.nrows == 0


def test_quotient_line_in_three_space():
    sub = Matrix.from_cols(QQ, [[1, 2, 3]], nrows=3)
    proj, sect = quotient_space(3, sub)
    assert proj.nrows == 2
    assert proj.mul(sect) == Matrix.identity(QQ, 2)
    assert proj.mul(sub).is_zero()
    assert rank(proj) == 2


def test_stacked_action_matrix_rank_with_minor_oracle(gamma_in_lambda):
    """Stack three generator action matrices of the quotient bimodule into
    a 12x4 matrix; rank must match minor enumeration and 4 - nullity."""
    from quiverext.extensions import quotient_bimodule
    q = quotient_bimodule(gamma_in_lambda)
    gens = q.left_alg.generators()
    rows = []
    for g in [gens[2], gens[3], gens[2]]:  # two arrow actions plus a repeat
        act = matrix_combination(QQ, g, q.left_action, q.dim, q.dim)
        rows.extend(act.rows)
    stacked = Matrix(QQ, rows)
    assert stacked.nrows == 12 and stacked.ncols == 4
    r = rank(stacked)
    assert r == rank_by_minor_enumeration(stacked)
    assert r == 4 - kernel_basis(stacked).ncols


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
    assert rank(m) == m.ncols - kernel_basis(m).ncols
    assert rank(m) == rank(m.transpose())


@given(m=matrices(GF(2)))
@settings(max_examples=40, deadline=None)
def test_rank_nullity_gf2(m):
    assert rank(m) == m.ncols - kernel_basis(m).ncols
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


@given(m=matrices(QQ))
@settings(max_examples=40, deadline=None)
def test_quotient_projection_full_row_rank(m):
    proj, sect = quotient_space(m.nrows, m)
    assert proj.nrows == m.nrows - rank(m)
    assert rank(proj) == proj.nrows
    if proj.nrows:
        assert proj.mul(m).is_zero()
        assert proj.mul(sect) == Matrix.identity(QQ, proj.nrows)


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
