import random

from quiverext.linalg import GF, QQ
from quiverext.suite import (cokernel_pd1_bimodule, corner_projective_bimodule,
                             inflated_simple_bimodule, random_module,
                             random_quiver_algebra)


def test_generator_determinism():
    a1 = random_quiver_algebra(random.Random(42), QQ)
    a2 = random_quiver_algebra(random.Random(42), QQ)
    assert a1.dim == a2.dim
    assert a1.table == a2.table
    m1 = random_module(random.Random(7), a1)
    m2 = random_module(random.Random(7), a2)
    assert m1.dim == m2.dim
    assert m1.action == m2.action


def test_random_modules_are_valid():
    rng = random.Random(1)
    for field in (QQ, GF(2)):
        for _ in range(8):
            a = random_quiver_algebra(rng, field)
            m = random_module(rng, a)
            if m.dim:
                m.validate(full=False)


def test_corner_projective_has_zero_square(gamma):
    rng = random.Random(2)
    pb = corner_projective_bimodule(rng, gamma)
    assert pb is not None
    from quiverext.modules import tensor_over
    assert tensor_over(pb, pb).dim == 0


def test_cokernel_bimodule_pd_at_most_one(gamma):
    from quiverext.resolutions import projective_dimension
    rng = random.Random(3)
    m = cokernel_pd1_bimodule(rng, gamma)
    assert m is not None
    pd = projective_dimension(m, 4)
    assert pd.kind == "finite" and pd.value <= 1


def test_inflated_simple_shape(dual_numbers):
    m = inflated_simple_bimodule(dual_numbers, 0, 0)
    assert m.dim == 1
    m.validate()
