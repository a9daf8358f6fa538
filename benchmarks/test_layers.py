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
from quiverext.extensions import (CheckConfig, check_extension,
                                  triangular_matrix_algebra)
from quiverext.linalg import QQ, EchelonSpan, transpose
from quiverext.modules import Bimodule, projective_data
from quiverext.suite import cokernel_pd1_bimodule, random_quiver_algebra

ROUNDS = 20


def _run(benchmark, target, caches=()):
    """Time target over ROUNDS rounds, each after the caches are emptied,
    and record the EchelonSpan inserts of one more such run."""
    def empty():
        for obj in caches:
            obj._cache.clear()
    out = benchmark.pedantic(target, setup=empty, rounds=ROUNDS,
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
def lam():
    """The ambient algebra Lambda of the worked example."""
    return build_document(parse_document(demo_document())) \
        .env["GammaInLambda"].ambient


@pytest.fixture(scope="module")
def lam_env(lam):
    """Lambda, its opposite, Lambda^e = Lambda (x) Lambda^op, and Lambda as
    a module over Lambda^e, built once."""
    lam_op = opposite(lam)
    env = tensor_algebra(lam, lam_op)
    reg = Bimodule.regular(lam).as_env_module()
    assert reg.algebra is env
    return lam, lam_op, env, reg


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


def test_check_extension_pool_instance(benchmark, pool_extension):
    ext = pool_extension
    cfg = CheckConfig(cap=6, p_max=5, consequences=False, bar_check=False)
    rep = _run(benchmark, lambda: check_extension(ext, cfg),
               [ext, ext.ambient, ext.sub])
    assert (ext.sub.dim, rep.quotient_dim) == (5, 2)
    assert (rep.pd_verdict.kind, rep.pd_verdict.value) == ("finite", 1)
    assert rep.sing_equiv.holds


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
