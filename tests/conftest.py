import pytest

from quiverext.linalg import GF, QQ
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.algebra import scalar_algebra
from quiverext.extensions import subalgebra_extension


@pytest.fixture(scope="session")
def k():
    return scalar_algebra(QQ)


@pytest.fixture(scope="session")
def dual_numbers():
    pres = QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),))
    return algebra_from_presentation(pres, QQ)


GAMMA = QuiverPresentation(
    ("1", "2"),
    (("beta", "1", "2"), ("gamma", "1", "1")),
    (((1, ("gamma", "gamma")),),),
)


@pytest.fixture(scope="session")
def gamma():
    return algebra_from_presentation(GAMMA, QQ)


@pytest.fixture(scope="session", params=[QQ, GF(2)], ids=["QQ", "GF2"])
def gamma_qq_gf2(request):
    """Gamma over QQ and over GF(2): a test using it runs once per field."""
    return algebra_from_presentation(GAMMA, request.param)


@pytest.fixture(scope="session")
def lam():
    pres = QuiverPresentation(
        ("1", "2"),
        (("beta", "1", "2"), ("gamma", "1", "1"), ("alpha", "2", "1")),
        (((1, ("gamma", "gamma")),), ((1, ("alpha", "beta")),)),
    )
    return algebra_from_presentation(pres, QQ)


@pytest.fixture(scope="session")
def gamma_in_lambda(gamma, lam):
    """The loop-quiver subalgebra extension with its canonical witnesses."""
    return subalgebra_extension(lam, gamma, *inclusion_witnesses(gamma, lam))


def inclusion_witnesses(sub, amb):
    """The column-sparse embedding of sub into amb sending each basis
    element to the one of amb with the same label, and the retraction
    sending it back and every other basis element of amb to zero."""
    one = amb.field.one
    lab = {x: i for i, x in enumerate(amb.basis_labels)}
    back = {lab[x]: j for j, x in enumerate(sub.basis_labels)}
    emb = tuple(((lab[x], one),) for x in sub.basis_labels)
    ret = tuple(((back[i], one),) if i in back else ()
                for i in range(amb.dim))
    return emb, ret


@pytest.fixture(scope="session")
def hereditary_a2():
    """Path algebra of 1 -> 2, no relations."""
    pres = QuiverPresentation(("1", "2"), (("b", "1", "2"),))
    return algebra_from_presentation(pres, QQ)
