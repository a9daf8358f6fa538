"""Layer benchmarks: one engine layer per case, on fixed inputs built once.

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py \
        --benchmark-json=benchmarks/BENCH_layers.json \
        --benchmark-timer=time.process_time

Every round starts from empty per-object caches, so it redoes the layer's
work. Each case asserts its output, and with --benchmark-disable each runs
once, as a test. Each case also records, in extra_info, the number of
EchelonSpan inserts one more run makes: a count moves only when the work
does, while process times drift. The directory is outside the tier-1 test
paths.
"""

import contextlib
import io
import random

import pytest

from quiverext import resolutions
from quiverext.algebra import opposite, tensor_algebra
from quiverext.cli import demo_document, main
from quiverext.docparse import build_document, parse_document
from quiverext.errors import QuiverExtError
from quiverext.extensions import (CheckConfig, check_extension,
                                  quotient_bimodule, triangular_matrix_algebra)
from quiverext.invariants import hochschild_homology
from quiverext.linalg import GF, QQ, EchelonSpan, transpose
from quiverext.modules import Bimodule, projective_data, tensor_over
from quiverext.suite import (cokernel_pd1_bimodule, random_module,
                             random_quiver_algebra, random_right_module)

ROUNDS = 20
# HH on the dim-14 draw takes about 2 s a round
ENV14_ROUNDS = 3


def _run(benchmark, target, caches=(), rounds=ROUNDS):
    """Time target over the given rounds, each after the caches are
    emptied, and record the EchelonSpan inserts of one more such run."""
    def empty():
        for obj in caches:
            obj._cache.clear()
    out = benchmark.pedantic(target, setup=empty, rounds=rounds,
                             warmup_rounds=1)
    count, insert = 0, EchelonSpan.insert

    def counting(self, vec):
        nonlocal count
        count += 1
        return insert(self, vec)

    empty()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EchelonSpan, "insert", counting)
        target()
    benchmark.extra_info["span_inserts"] = count
    return out


@pytest.fixture(scope="module")
def demo_extension():
    """The worked example's extension Gamma <= Lambda."""
    return build_document(parse_document(demo_document())) \
        .env["GammaInLambda"]


@pytest.fixture(scope="module")
def lam(demo_extension):
    """The ambient algebra Lambda of the worked example."""
    return demo_extension.ambient


@pytest.fixture(scope="module")
def lam_env(lam):
    """Lambda, its opposite, Lambda^e = Lambda (x) Lambda^op, and Lambda as
    a module over Lambda^e, built once."""
    lam_op = opposite(lam)
    env = tensor_algebra(lam, lam_op)
    reg = Bimodule.regular(lam)
    assert reg.algebra is env
    return lam, lam_op, env, reg


@pytest.fixture(scope="module")
def env14():
    """The first algebra of dimension 14 that random_quiver_algebra draws
    at seed 1 with at most 3 vertices and 4 arrows, its opposite, its
    enveloping algebra (dim 196) and itself as a module over it."""
    rng = random.Random(1)
    a = random_quiver_algebra(rng, QQ, max_vertices=3, max_arrows=4)
    while a.dim != 14:
        a = random_quiver_algebra(rng, QQ, max_vertices=3, max_arrows=4)
    reg = Bimodule.regular(a)
    return a, opposite(a), reg.algebra, reg


@pytest.fixture(scope="module")
def pool_extension():
    """An extension of the kind the seeded pool checks: the first
    triangular matrix extension with dim B = 5 that the generator stream
    at seed 777 draws, over a bimodule of projective dimension at most one."""
    rng = random.Random(777)
    while True:
        b, c = (random_quiver_algebra(rng, QQ, max_vertices=2, max_arrows=2,
                                      truncate=2) for _ in range(2))
        if b.dim + c.dim == 5:
            m = cokernel_pd1_bimodule(rng, c, b)
            if m is not None and 0 < m.dim <= 4:
                return triangular_matrix_algebra(b, c, m)[1]


@pytest.fixture(scope="module")
def tor_gf2_pair():
    """A (right, left) module pair of the random-suite Tor battery over
    GF(2): algebras of dim <= 5 drawn at family seed 202, four module pairs
    each drawn at seed 202. It is the pair whose first module's resolution
    to degree 5 has the largest total dimension times dim N, returned with
    that resolution."""
    family, field = random.Random(202), GF(2)
    algebras = []
    for _ in range(600):
        try:
            a = random_quiver_algebra(family, field)
        except QuiverExtError:
            continue
        if a.dim <= 5:
            algebras.append(a)
    rng, best = random.Random(202), None
    for a in algebras:
        for _ in range(4):
            try:
                m, n = random_right_module(rng, a), random_module(rng, a)
            except QuiverExtError:
                continue
            res = resolutions.minimal_resolution(m, 5)
            size = sum(res.term_dims()) * n.dim
            if best is None or size > best[0]:
                best = (size, res, n)
    return best[1:]


@pytest.fixture(scope="module")
def demo_kernel_system():
    """The largest kernel system the demo solves over QQ, by rows times
    columns, as (sparse rows, width)."""
    seen = []
    kernel = resolutions._kernel

    def record(field, diff, nrows):
        if field is QQ:
            seen.append((len(diff) * nrows, transpose(diff, nrows), len(diff)))
        return kernel(field, diff, nrows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolutions, "_kernel", record)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["demo", "example-4-5"]) == 0
    _, rows, width = max(seen, key=lambda s: s[0])
    return rows, width


def test_tensor_lambda_enveloping(benchmark, lam):
    env = _run(benchmark, lambda: tensor_algebra(lam, opposite(lam)), [lam])
    assert (env.dim, env.radical_dim, len(env.idempotents)) == (81, 77, 4)


def test_tensor_algebra_env14(benchmark, env14):
    """The dim-196 enveloping algebra of the dim-14 draw, whose table of
    38,416 cells the constructor checks row by row."""
    a, a_op = env14[:2]
    env = _run(benchmark, lambda: tensor_algebra(a, a_op), [a])
    assert (env.dim, env.radical_dim, len(env.idempotents)) == (196, 192, 4)


def test_check_extension_pool_instance(benchmark, pool_extension):
    ext = pool_extension
    cfg = CheckConfig(cap=6, p_max=5, consequences=False, bar_check=False)
    rep = _run(benchmark, lambda: check_extension(ext, cfg),
               [ext, ext.ambient, ext.sub])
    assert (ext.sub.dim, rep.quotient_dim) == (5, 2)
    assert (rep.pd_verdict.kind, rep.pd_verdict.value) == ("finite", 1)
    assert rep.sing_equiv.holds


def test_projective_dimension_demo_quotient(benchmark, demo_extension):
    """The demo's A/B over Gamma^e: its minimal resolution, read to pd 1,
    and the check that certifies the finite pd on it."""
    q = quotient_bimodule(demo_extension)
    env = q.algebra
    pd = _run(benchmark, lambda: resolutions.projective_dimension(q, 12),
              [env, q])
    assert (pd.kind, pd.value, pd.certificate["term_dims"]) == \
        ("finite", 1, [12, 8])


def test_tensor_over_demo_quotient(benchmark, demo_extension):
    """The demo's A/B tensored with itself over B, the first tensor power
    the nilpotency check builds; it is zero."""
    q = quotient_bimodule(demo_extension)
    out = _run(benchmark, lambda: tensor_over(q, q), [q])
    assert (q.dim, out.dim) == (4, 0)


def test_derived_dims_tor_gf2_pair(benchmark, tor_gf2_pair):
    """Tor_0..4 read off a fixed resolution over GF(2): slices, blocks and
    ranks, the part of the Tor battery after its resolutions."""
    res, n = tor_gf2_pair
    dims = _run(benchmark, lambda: resolutions._derived_dims(
        res, n, res.module.algebra, 4, contravariant=False), [n])
    assert res.term_dims() == [5, 10, 20, 40, 80, 160]
    assert dims == [1, 0, 0, 0, 0]


def test_echelon_span_demo_kernel(benchmark, demo_kernel_system):
    rows, width = demo_kernel_system
    span = _run(benchmark, lambda: EchelonSpan(QQ, width, rows))
    assert (len(rows), width, span.rank) == (41, 56, 32)


def test_projective_data_lambda_enveloping(benchmark, lam_env):
    lam, lam_op, env, _ = lam_env
    dims = _run(benchmark, lambda: [projective_data(env, s).basis.dim
                                    for s in range(len(env.idempotents))],
                [env, lam, lam_op])
    assert dims == [16, 20, 20, 25]


def test_resolution_lambda_over_enveloping(benchmark, lam_env):
    lam, lam_op, env, reg = lam_env
    res = _run(benchmark, lambda: resolutions.minimal_resolution(reg, 3),
               [env, lam, lam_op, reg])
    assert res.term_dims() == [41, 56, 32, 16]


def test_resolution_env14_over_enveloping(benchmark, env14):
    a, a_op, env, reg = env14
    res = _run(benchmark, lambda: resolutions.minimal_resolution(reg, 3),
               [env, a, a_op, reg], rounds=ENV14_ROUNDS)
    assert res.term_dims() == [98, 196, 784, 1568]


def test_hochschild_homology_env14(benchmark, env14):
    a = env14[0]
    dims = _run(benchmark, lambda: hochschild_homology(a, 4), [a],
                rounds=ENV14_ROUNDS)
    assert dims == [6, 8, 17, 35, 77]
