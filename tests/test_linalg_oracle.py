"""The elimination kernel against sympy's exact matrices, over QQ.

sympy is a test oracle, installed with the package's `test` extra.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from quiverext.linalg import QQ, EchelonSpan, sparse_rank

# mostly zeros, as the engine's rows are, with small integers and fractions
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=4))


@st.composite
def rational_matrices(draw, max_n=6):
    nrows, ncols = draw(st.integers(1, max_n)), draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return [[QQ.of(x) for x in r] for r in rows]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def from_sympy(s):
    return [tuple(Fraction(int(x.p), int(x.q)) for x in row)
            for row in s.tolist()]


@given(m=rational_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_kernel_and_rref_agree_with_sympy(m):
    """EchelonSpan's rank, its reduced basis and the null space spanned by
    the rows of its complement, against sympy."""
    s = to_sympy(m)
    ncols = len(m[0])
    rows = [{j: x for j, x in enumerate(r) if x} for r in m]
    span = EchelonSpan(QQ, ncols, rows)
    assert span.rank == sparse_rank(rows, ncols, QQ) == s.rank()
    basis = span.reduced_basis()
    kernel, _ = basis.complement()
    oracle = s.nullspace()
    assert len(kernel) == len(oracle)
    if oracle:
        # both bases lie in the kernel and span the same space
        kvecs = sympy.Matrix([[v.get(j, 0) for v in kernel]
                              for j in range(ncols)])
        assert (s * kvecs).is_zero_matrix
        stacked = sympy.Matrix.hstack(kvecs, *oracle)
        assert stacked.rank() == len(kernel)
    reduced, pivots = s.rref()
    reduced = from_sympy(reduced)
    assert basis.sparse_rows == [tuple((j, x) for j, x in enumerate(r) if x)
                                 for r in reduced[:basis.dim]]
    assert all(not any(r) for r in reduced[basis.dim:])
    assert basis.pivots == tuple(pivots)
