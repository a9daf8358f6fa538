import pytest

from quiverext.linalg import GF, QQ, Matrix
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
    lab = {l: i for i, l in enumerate(lam.basis_labels)}
    emb = Matrix.from_cols(
        QQ, [[1 if i == lab[x] else 0 for i in range(lam.dim)]
             for x in gamma.basis_labels], nrows=lam.dim)
    ret = Matrix.from_rows(
        QQ, [[1 if i == lab[x] else 0 for i in range(lam.dim)]
             for x in gamma.basis_labels])
    return subalgebra_extension(lam, gamma, emb, ret)


@pytest.fixture(scope="session")
def hereditary_a2():
    """Path algebra of 1 -> 2, no relations."""
    pres = QuiverPresentation(("1", "2"), (("b", "1", "2"),))
    return algebra_from_presentation(pres, QQ)
