"""The elimination kernel against sympy's exact matrices, over QQ.

sympy is an optional test oracle: without it these tests are skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.linalg import QQ, Matrix, kernel_basis, rank, rref

sympy = pytest.importorskip("sympy")

# mostly zeros, as the engine's rows are, with small integers and fractions
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=4))


@st.composite
def rational_matrices(draw, max_n=6):
    nrows, ncols = draw(st.integers(1, max_n)), draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix.from_rows(QQ, rows)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in m.rows])


def from_sympy(s):
    return Matrix(QQ, [[Fraction(int(x.p), int(x.q)) for x in row]
                       for row in s.tolist()], s.cols)


@given(m=rational_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_kernel_and_rref_agree_with_sympy(m):
    s = to_sympy(m)
    assert rank(m) == s.rank()
    kernel = kernel_basis(m)
    oracle = s.nullspace()
    assert kernel.ncols == len(oracle)
    if oracle:
        # both bases lie in the kernel and span the same space
        assert m.mul(kernel).is_zero()
        stacked = sympy.Matrix.hstack(to_sympy(kernel), *oracle)
        assert stacked.rank() == kernel.ncols
    reduced, pivots = s.rref()
    r = rref(m)
    assert r.reduced == from_sympy(reduced)
    assert r.pivots == tuple(pivots)
