from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_reference as dense
from quiverext.errors import LinAlgError
from quiverext.linalg import (GF, QQ, EchelonSpan, block_sum, compose,
                              field_from_spec, identity_map, kron,
                              map_combination, map_problem, quotient,
                              sparse_combination, sparse_rank, transpose)


class Dense:
    """A dense test matrix: its field, its rows and its shape."""

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = tuple(tuple(field.of(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else ncols or 0

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def columns(self):
        return dense.columns(self.field, self.rows, self.ncols)

    def sparse_rows(self):
        """The rows in the engine's format of a vector."""
        return [dense.pairs(r) for r in self.rows]

    def transpose(self):
        return Dense(self.field, list(zip(*self.rows)) if self.rows
                     else [()] * self.ncols, self.nrows)


def rank(m):
    """The rank of a dense test matrix, through the engine's one rank
    entry point."""
    return sparse_rank(({j: v for j, v in enumerate(r) if v} for r in m.rows),
                       m.ncols, m.field)


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
    return EchelonSpan(m.field, m.ncols,
                       m.sparse_rows()).reduced_basis().complement()[0]


def test_scalar_canonical_form():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("-6/4") == Fraction(-3, 2)
    assert GF(5).parse("7") == 2
    assert GF(5).parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5


def _canonical_rational(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@given(x=st.fractions(max_denominator=6), y=st.fractions(max_denominator=6))
@settings(max_examples=200, deadline=None)
def test_rational_operations_stay_canonical(x, y):
    """Every QQ operation returns an int or a Fraction with denominator
    > 1, never a float, and the exact value."""
    a, b = QQ.of(x), QQ.of(y)
    results = [(a, x), (QQ.parse(str(x)), x), (QQ.add(a, b), x + y),
               (QQ.sub(a, b), x - y), (QQ.mul(a, b), x * y), (QQ.neg(a), -x)]
    if x:
        results.append((QQ.inv(a), 1 / x))
    for got, want in results:
        assert _canonical_rational(got) and QQ.is_canonical(got)
        assert got == want
    assert not QQ.is_canonical(Fraction(3, 1)) and not QQ.is_canonical(1.0)


def test_rational_inverse_is_exact():
    """inv of an int is never a float: 1 / a would be one."""
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)


def test_field_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("p:3").characteristic == 3
    with pytest.raises(LinAlgError):
        field_from_spec("p:4")
    for spec in ("p:x", "p:", "p:2.5"):
        with pytest.raises(LinAlgError, match="unknown field spec"):
            field_from_spec(spec)


def qq_vector(*entries):
    """The vector of k^len(entries) over QQ in the engine's format."""
    return dense.pairs(QQ.of(x) for x in entries)


def identity_rows(n):
    return [dense.pairs(r) for r in dense.identity(QQ, n)]


def test_rref_identity():
    """The reduced row echelon form of the identity, a ReducedBasis."""
    r = EchelonSpan(QQ, 3, identity_rows(3)).reduced_basis()
    assert r.dim == 3
    assert r.pivots == (0, 1, 2)


def test_rref_proportional_rows():
    assert rank(Dense(QQ, [[1, 2], [2, 4]])) == 1


def test_kernel_identity_and_zero():
    assert null_space(Dense(QQ, dense.identity(QQ, 4))) == []
    assert len(null_space(Dense(QQ, [[0] * 3] * 2))) == 3


def test_kernel_substitution():
    m = Dense(QQ, [[1, 2], [2, 4]])
    k = null_space(m)
    assert len(k) == 1
    vec = tuple(k[0].get(j, QQ.zero) for j in range(2))
    assert dense.mul(QQ, m.rows, [[x] for x in vec], 1) == ((0,), (0,))
    # spanned by (2, -1) up to scale
    assert vec[0] * Fraction(-1) == vec[1] * Fraction(2)


def test_solve_identity():
    """Coordinates in the identity basis are the vector itself."""
    b = qq_vector(5, 7, -2)
    rb = EchelonSpan(QQ, 3, identity_rows(3)).reduced_basis()
    assert rb.sparse_coords(b) == dict(b)


def test_solve_inconsistent():
    """A vector outside the span has no coordinates."""
    rb = EchelonSpan(QQ, 2, [qq_vector(1, 0), qq_vector(1, 0)]).reduced_basis()
    assert rb.sparse_coords(qq_vector(1, 2)) is None


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
    classes, free, _ = quotient(EchelonSpan(QQ, 2, identity_rows(2)))
    assert free == []
    assert classes == [{}, {}]


def test_quotient_line_in_three_space():
    sub = [QQ.of(x) for x in (1, 2, 3)]
    # m fixes the line: m (1, 2, 3) = (1, 2, 3)
    m = Dense(QQ, [[1, 0, 0], [0, 1, 0], [2, -1, 1]])
    classes, free, [[induced]] = quotient(EchelonSpan(QQ, 3,
                                                      [dense.pairs(sub)]),
                                          [[m.columns().__getitem__]])
    assert free == [1, 2]
    assert class_of(QQ, classes, sub) == {}
    assert classes[0] == {0: -2, 1: -3}
    # the induced map sends the class of each e_k to the class of m e_k
    assert dense.rows(QQ, induced, 2) == ((1, 0), (-1, 1))
    for k, col in enumerate(m.transpose().rows):
        image = class_of(QQ, classes, col)
        assert dict(sparse_combination(QQ, [(c, induced[t])
                                            for t, c in classes[k].items()])) \
            == image


def test_stacked_action_matrix_rank_with_minor_oracle(gamma_in_lambda):
    """Stack three generator action matrices of the quotient bimodule into
    a 12x4 matrix; rank must match minor enumeration and 4 - nullity."""
    from quiverext.extensions import quotient_bimodule
    q = quotient_bimodule(gamma_in_lambda)
    gens = q.left_alg.generators()
    rows = []
    for g in [gens[2], gens[3], gens[2]]:  # two arrow actions plus a repeat
        act = map_combination(QQ, g, q.left_action, q.dim)
        rows.extend(dense.rows(QQ, act, q.dim))
    stacked = Dense(QQ, rows)
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
                    lambda rows: Dense(field, rows))))


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
    """The reduced basis of the span of a reduced basis is itself."""
    red = EchelonSpan(m.field, m.ncols, m.sparse_rows()).reduced_basis()
    again = EchelonSpan(m.field, m.ncols, red.sparse_rows).reduced_basis()
    assert (again.sparse_rows, again.pivots) == (red.sparse_rows, red.pivots)


@given(m=matrices(QQ, 3), b=matrices(QQ, 3))
@settings(max_examples=40, deadline=None)
def test_solve_residual_exact(m, b):
    """Each row of b that has coordinates in the reduced row space of m is
    their exact combination; a row of m always has them."""
    rb = EchelonSpan(m.field, m.ncols, m.sparse_rows()).reduced_basis()
    basis = [dense.vector(QQ, m.ncols, r) for r in rb.sparse_rows]
    for v in m.rows + (b.rows if b.ncols == m.ncols else ()):
        cs = rb.sparse_coords(dense.pairs(v))
        assert cs is not None or v not in m.rows
        if cs is not None:
            coords = dense.vector(QQ, rb.dim, cs.items())
            assert dense.mul(QQ, [coords], basis, m.ncols) == (v,)


@given(m=st.one_of(matrices(QQ), matrices(GF(2)), matrices(GF(3))))
@settings(max_examples=60, deadline=None)
def test_quotient_projection_full_row_rank(m):
    """The quotient of k^nrows by the column span of m."""
    f = m.field
    classes, free, _ = quotient(EchelonSpan(f, m.nrows,
                                            m.transpose().sparse_rows()))
    assert len(free) == m.nrows - rank(m)
    for col in m.transpose().rows:
        assert class_of(f, classes, col) == {}
    for c, k in enumerate(free):
        assert classes[k] == {c: f.one}


@st.composite
def composable_pairs(draw):
    """A field and random dense matrices a (n x m) and b (m x p), any of n,
    m, p possibly zero."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(nrows, ncols):
        return Dense(field, [[draw(small_entries) for _ in range(ncols)]
                             for _ in range(nrows)], ncols)

    return field, matrix(n, m), matrix(m, p)


@given(data=composable_pairs())
@settings(max_examples=80, deadline=None)
def test_sparse_maps_match_dense_reference(data):
    """The column-sparse routines against the dense reference: the round
    trip, composition against dense multiplication, the identity, the
    transpose, a combination, the block sum and the Kronecker product
    built entry by entry, and the format check."""
    f, a, b = data
    ca, cb = a.columns(), b.columns()
    assert dense.rows(f, ca, a.nrows) == a.rows
    assert dense.rows(f, cb, b.nrows) == b.rows
    assert map_problem(f, ca, a.nrows, a.ncols) is None
    assert dense.rows(f, compose(f, ca, cb), a.nrows) == \
        dense.mul(f, a.rows, b.rows, b.ncols)
    assert compose(f, ca, identity_map(f, a.ncols)) == ca
    assert compose(f, identity_map(f, a.nrows), ca) == ca
    assert dense.rows(f, transpose(ca, a.nrows), a.ncols) == \
        a.transpose().rows
    two = f.of(2)
    assert dense.rows(f, map_combination(f, [(0, two), (1, f.one)], [ca, ca],
                                         a.ncols), a.nrows) == \
        tuple(tuple(f.mul(f.of(3), x) for x in r) for r in a.rows)
    z = f.zero
    diag = tuple(r + (z,) * b.ncols for r in a.rows) + \
        tuple((z,) * a.ncols + r for r in b.rows)
    summed = block_sum([ca, cb], [a.nrows, b.nrows])
    assert dense.rows(f, summed, a.nrows + b.nrows) == diag
    assert dense.rows(f, kron(f, ca, cb, b.nrows), a.nrows * b.nrows) == \
        dense.kron(f, a.rows, b.rows)


@given(m=st.one_of(matrices(QQ), matrices(GF(2)), matrices(GF(3))))
@settings(max_examples=30, deadline=None)
def test_sparse_rank_agrees(m):
    """The rank of the rows, the rank of the columns of the same matrix as
    a column-sparse map, and the largest nonzero minor agree."""
    assert rank(m) == sparse_rank(map(dict, m.columns()), m.nrows, m.field)
    assert rank(m) == rank_by_minor_enumeration(m)


def test_echelon_span_membership():
    span = EchelonSpan(QQ, 3)
    assert span.insert(qq_vector(1, 2, 3))
    assert span.insert(dict(qq_vector(0, 1, 1)))
    assert not span.insert(qq_vector(1, 3, 4))
    assert span.contains(qq_vector(2, 4, 6))
    assert not span.contains(qq_vector(0, 0, 1))
    rb = span.reduced_basis()
    assert rb.dim == 2
    assert rb.sparse_coords(qq_vector(2, 4, 6)) is not None
    assert rb.sparse_coords(qq_vector(0, 0, 1)) is None


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_echelon_span_rejects_dense_vectors(field):
    """A vector is a dict or its (index, coeff) pairs; a dense sequence of
    coordinates is not read."""
    span = EchelonSpan(field, 3)
    for vec in ([field.one, field.zero, field.one], (field.one,) * 3):
        with pytest.raises(TypeError):
            span.insert(vec)
        with pytest.raises(TypeError):
            span.contains(vec)
    assert span.rank == 0


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_zero_row_matrix_keeps_its_width(field):
    """A map into k^0 is a tuple of empty columns, one per source
    coordinate, so it keeps its width through the sparse routines."""
    z = ((),) * 3
    assert map_problem(field, z, 0, 3) is None
    assert map_problem(field, z, 0, 2) is not None
    assert compose(field, z, ((),) * 2) == ((),) * 2
    assert transpose(z, 0) == ()
    assert transpose((), 3) == z
    assert sparse_rank(map(dict, z), 0, field) == 0


@st.composite
def span_inserts(draw):
    """A field, a width and sparse vectors to insert into an EchelonSpan:
    random ones, some of them repeated as combinations of those drawn
    before, so that a share of the inserts is dependent."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    width = draw(st.integers(1, 9))
    entry = (st.fractions(min_value=-3, max_value=3, max_denominator=3)
             if field is QQ else st.integers(0, field.p - 1))
    vecs = []
    for _ in range(draw(st.integers(0, 9))):
        if vecs and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(vecs), min_size=1,
                                  max_size=3))
            vec = sparse_combination(field, [(field.of(draw(entry)),
                                              v.items()) for v in picks])
        else:
            vec = {c: x for c in draw(st.sets(st.integers(0, width - 1),
                                              max_size=width))
                   if (x := field.of(draw(entry)))}
        vecs.append(vec)
    return field, width, vecs


@given(data=span_inserts())
@example(data=(QQ, 4, []))
@example(data=(GF(2), 3, [{}, {1: 1, 2: 1}, {1: 1, 2: 1}]))
@example(data=(GF(3), 3, [{0: 2, 2: 1}, {0: 1, 2: 2}, {1: 1}, {0: 1, 1: 1,
                                                            2: 2}]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_reduced_basis_matches_back_elimination(data):
    """EchelonSpan.reduced_basis, which back-substitutes sparsely from the
    last row up, returns the same rows and pivots as the O(rank^2)
    back-elimination of the dense reference, at every rank including 0
    and 1 and after dependent inserts."""
    field, width, vecs = data
    span = EchelonSpan(field, width, vecs)
    rb = span.reduced_basis()
    rows, pivots = dense.back_eliminated(span)
    assert (list(rb.sparse_rows), rb.pivots) == (rows, pivots)
    assert all(map_problem(field, (r,), width, 1) is None for r in rows)
