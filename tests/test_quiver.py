from fractions import Fraction

import pytest

from quiverext.errors import AdmissibilityError, PresentationError
from quiverext.linalg import GF, QQ
from quiverext.quiver import QuiverPresentation, algebra_from_presentation


def test_one_vertex_no_arrows_is_ground_field():
    pres = QuiverPresentation(("v",), ())
    a = algebra_from_presentation(pres, QQ)
    assert a.dim == 1
    assert a.radical_dim == 0
    assert len(a.idempotents) == 1


def test_loop_quotient_basis(gamma):
    assert gamma.dim == 5
    assert set(gamma.basis_labels) == {"e1", "e2", "beta", "gamma", "beta*gamma"}
    assert gamma.radical_dim == 3
    assert len(gamma.idempotents) == 2


def test_two_relation_quotient_basis(lam):
    assert lam.dim == 9
    assert set(lam.basis_labels) == {
        "e1", "e2", "beta", "gamma", "alpha", "beta*gamma", "beta*alpha",
        "gamma*alpha", "beta*gamma*alpha"}
    # dim consistency with the subalgebra-plus-complement split: 5 + 4
    assert lam.dim == 5 + 4


def test_multiplication_convention(lam):
    lab = {l: i for i, l in enumerate(lam.basis_labels)}
    one = lam.field.one
    beta, gamma, alpha = (((lab[x], one),) for x in ("beta", "gamma", "alpha"))
    # beta * gamma is the length-two path (gamma first)
    prod = lam.sparse_multiply(beta, gamma)
    assert prod == [(lab["beta*gamma"], one)]
    # the two relations: gamma^2 = 0 and alpha*beta = 0
    assert lam.sparse_multiply(gamma, gamma) == []
    assert lam.sparse_multiply(alpha, beta) == []
    # but beta*alpha (alpha first) survives
    assert lam.sparse_multiply(beta, alpha) == [(lab["beta*alpha"], one)]


def test_inadmissible_at_cap_rejected():
    pres = QuiverPresentation(("1",), (("x", "1", "1"),), (), path_length_cap=6)
    with pytest.raises(AdmissibilityError):
        algebra_from_presentation(pres, QQ)


def test_nonhomogeneous_relation_rejected():
    with pytest.raises(PresentationError):
        QuiverPresentation(
            ("1",), (("x", "1", "1"),),
            (((1, ("x", "x")), (1, ("x", "x", "x"))),))


def test_short_relation_rejected():
    with pytest.raises(PresentationError):
        QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x",)),),))


def test_nonparallel_relation_rejected():
    with pytest.raises(PresentationError):
        QuiverPresentation(
            ("1", "2"),
            (("a", "1", "2"), ("b", "1", "1")),
            (((1, ("a", "b")), (1, ("b", "b"))),))


def test_non_composable_relation_rejected():
    with pytest.raises(PresentationError):
        QuiverPresentation(
            ("1", "2"),
            (("a", "1", "2"), ("b", "1", "2")),
            (((1, ("a", "b")),),))


def test_commutativity_relation():
    # two commuting loops truncated in degree 2: x*y = y*x, squares zero
    pres = QuiverPresentation(
        ("1",),
        (("x", "1", "1"), ("y", "1", "1")),
        (
            ((1, ("x", "x")),),
            ((1, ("y", "y")),),
            ((1, ("x", "y")), (Fraction(-1), ("y", "x"))),
        ))
    a = algebra_from_presentation(pres, QQ)
    # basis: e, x, y, xy; xy = yx
    assert a.dim == 4
    lab = {l: i for i, l in enumerate(a.basis_labels)}
    x, y = ((lab["x"], QQ.one),), ((lab["y"], QQ.one),)
    assert dict(a.sparse_multiply(x, y)) == dict(a.sparse_multiply(y, x)) != {}


def test_enveloping_quiver_presentation_matches_tensor_route(gamma):
    """The enveloping algebra of the loop quiver, presented directly by its
    product quiver with square and commutation relations, has the same
    dimension and block data as the tensor construction."""
    from quiverext.algebra import opposite, tensor_algebra
    arrows = (
        ("g1", "11", "11"), ("og1", "11", "11"),
        ("b1", "11", "21"), ("ob1", "12", "11"),
        ("g2", "12", "12"), ("og2", "21", "21"),
        ("b2", "12", "22"), ("ob2", "22", "21"),
    )
    relations = (
        ((1, ("g1", "g1")),),
        ((1, ("og1", "og1")),),
        ((1, ("og2", "og2")),),
        ((1, ("g2", "g2")),),
        ((1, ("ob2", "b2")), (Fraction(-1), ("b1", "ob1"))),
        ((1, ("g1", "ob1")), (Fraction(-1), ("ob1", "g2"))),
        ((1, ("og2", "b1")), (Fraction(-1), ("b1", "og1"))),
        ((1, ("g1", "og1")), (Fraction(-1), ("og1", "g1"))),
    )
    pres = QuiverPresentation(("11", "12", "21", "22"), arrows, relations)
    direct = algebra_from_presentation(pres, QQ)
    tensored = tensor_algebra(gamma, opposite(gamma))
    assert direct.dim == tensored.dim == 25
    assert len(direct.idempotents) == len(tensored.idempotents) == 4
    assert direct.radical_dim == tensored.radical_dim == 21


def test_gf2_backend(gamma):
    pres = QuiverPresentation(
        ("1", "2"),
        (("beta", "1", "2"), ("gamma", "1", "1")),
        (((1, ("gamma", "gamma")),),),
    )
    a2 = algebra_from_presentation(pres, GF(2))
    assert a2.dim == gamma.dim
    assert a2.radical_dim == gamma.radical_dim
