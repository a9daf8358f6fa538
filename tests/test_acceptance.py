"""Acceptance criteria, one test per criterion.

Each test prints one PASS line when its assertions survive; tolerances are
exact everywhere. Criteria that share generated extension instances pull
them from session fixtures so the instance pool is built once.
"""

import contextlib
import io
import random
import time

import pytest

from conftest import inclusion_witnesses
from quiverext.linalg import GF, QQ
from quiverext.quiver import QuiverPresentation, algebra_from_presentation
from quiverext.algebra import opposite
from quiverext.barcomplex import full_bar_homology, relative_bar_homology
from quiverext.extensions import (CheckConfig, check_derived_tor_families,
                                  check_extension, projectivity_transport_check,
                                  quotient_bimodule, relative_bar_complex,
                                  subalgebra_extension, triangular_matrix_algebra,
                                  trivial_extension)
from quiverext.invariants import global_dimension, hochschild_homology
from quiverext.modules import (direct_sum, is_isomorphic, projective_data,
                               simple_modules, tensor_over)
from quiverext.resolutions import projective_dimension, tor
from quiverext.suite import (cokernel_pd1_bimodule, corner_projective_bimodule,
                             random_module, random_quiver_algebra)


def _passed(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS")


def fresh_worked_example(field=QQ):
    gp = QuiverPresentation(("1", "2"),
                            (("beta", "1", "2"), ("gamma", "1", "1")),
                            (((1, ("gamma", "gamma")),),))
    g = algebra_from_presentation(gp, field)
    lp = QuiverPresentation(
        ("1", "2"),
        (("beta", "1", "2"), ("gamma", "1", "1"), ("alpha", "2", "1")),
        (((1, ("gamma", "gamma")),), ((1, ("alpha", "beta")),)))
    l = algebra_from_presentation(lp, field)
    return g, l, subalgebra_extension(l, g, *inclusion_witnesses(g, l))


def test_criterion_1_worked_example_regression():
    t0 = time.monotonic()
    g, l, ext = fresh_worked_example()
    assert l.dim == 9
    assert g.dim == 5
    q = quotient_bimodule(ext)
    assert q.dim == 4
    assert tensor_over(q, q).dim == 0
    assert tor(q.as_right_module(), q.as_left_module(), 8)[1:] == [0] * 8
    rep = check_extension(ext, CheckConfig(consequences=False, bar_check=False))
    assert rep.pd_verdict.kind == "finite" and rep.pd_verdict.value == 1
    assert rep.pd_verdict.certificate["term_dims"] == [12, 8]
    s2r = simple_modules(opposite(g))[1]
    v_right, w_right = is_isomorphic(q.as_right_module(),
                                     direct_sum([s2r] * 4))
    assert v_right == "yes" and w_right is not None
    v_left, w_left = is_isomorphic(q.as_left_module(),
                                   projective_data(g, 0).module)
    assert v_left == "yes" and w_left is not None
    assert rep.sing_equiv.holds
    assert rep.defect_equiv.holds
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, f"worked-example regression ({elapsed:.1f}s)")


def test_criterion_2_consequence_crosscheck():
    t0 = time.monotonic()
    g, l, ext = fresh_worked_example()
    hh_l = hochschild_homology(l, 4)
    hh_g = hochschild_homology(g, 4)
    assert hh_l[1:] == hh_g[1:]
    # independent bar-complex oracle agrees on both algebras
    assert relative_bar_homology(l, 4) == hh_l
    assert relative_bar_homology(g, 4) == hh_g
    gd_l = global_dimension(l, 12)
    gd_g = global_dimension(g, 12)
    assert gd_l.fails and gd_g.fails  # infinite, with periodicity witnesses
    assert gd_l.certificate["periodic_simples"]
    assert gd_g.certificate["periodic_simples"]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _passed(2, f"consequence cross-check ({elapsed:.1f}s)")


def test_criterion_3_tor_symmetry_suite():
    pairs = 0
    failures = 0
    for field, target in ((QQ, 110), (GF(2), 220)):
        rng = random.Random(101 if field is QQ else 202)
        while pairs < target:
            a = random_quiver_algebra(rng, field)
            if a.dim > 5 or a.dim == 0:
                continue
            m = random_module(rng, opposite(a))
            n = random_module(rng, a)
            d1 = tor(m, n, 6, resolve="first")
            d2 = tor(m, n, 6, resolve="second")
            pairs += 1
            if d1 != d2:
                failures += 1
    assert pairs >= 220
    assert failures == 0
    _passed(3, f"Tor symmetry on {pairs} pairs over QQ and GF(2)")


@pytest.fixture(scope="session")
def extension_pool():
    """Generated extensions whose hypotheses verify, with their reports:
    triangular and trivial-extension provenance, pd <= 1 bimodules."""
    rng = random.Random(777)
    pool = []
    attempts = 0
    while len(pool) < 100 and attempts < 600:
        attempts += 1
        try:
            if rng.random() < 0.5:
                b = random_quiver_algebra(rng, QQ, max_vertices=2,
                                          max_arrows=2, truncate=2)
                c = random_quiver_algebra(rng, QQ, max_vertices=2,
                                          max_arrows=2, truncate=2)
                if b.dim + c.dim > 6:
                    continue
                m = cokernel_pd1_bimodule(rng, c, b)
                if m is None or m.dim == 0 or m.dim > 4:
                    continue
                _, ext = triangular_matrix_algebra(b, c, m)
            else:
                b = random_quiver_algebra(rng, QQ, max_vertices=2,
                                          max_arrows=2, truncate=2)
                if b.dim > 5:
                    continue
                if rng.random() < 0.6:
                    m = corner_projective_bimodule(rng, b)
                else:
                    m = cokernel_pd1_bimodule(rng, b)
                if m is None or m.dim == 0 or m.dim > 4:
                    continue
                _, ext = trivial_extension(b, m)
        except Exception:
            continue
        rep = check_extension(ext, CheckConfig(cap=6, p_max=5,
                                               consequences=False,
                                               bar_check=False))
        if rep.sing_equiv.holds:
            pool.append((ext, rep))
    return pool


def test_criterion_5_derived_tor_families(extension_pool):
    assert len(extension_pool) >= 100, \
        f"only {len(extension_pool)} passing instances generated"
    bad = 0
    for ext, rep in extension_pool:
        p = rep.nilpotency.value
        cap = max(4, rep.pd_verdict.value + 2)
        fam = check_derived_tor_families(ext, p, cap)
        if not fam["all_vanish"]:
            bad += 1
    assert bad == 0
    _passed(5, f"derived Tor families vanish on {len(extension_pool)} instances")


def test_criterion_4_homology_concentration(extension_pool):
    """Pairs with verified Tor vanishing: homology of the tensored
    resolution is concentrated in degree zero and the degree-zero
    dimension equals the coequalizer dimension."""
    instances = 0
    from quiverext.extensions import _ext_side_bimodules
    for ext, rep in extension_pool:
        q = quotient_bimodule(ext)
        a_ab, a_ba = _ext_side_bimodules(ext)
        for x, y in ((q, a_ba), (a_ab, a_ba), (q, q)):
            dims = tor(x.as_right_module(), y.as_left_module(), 6)
            if any(dims[1:]):
                continue  # only instances with verified vanishing count
            coequalizer = tensor_over(x, y).dim
            assert dims[0] == coequalizer
            instances += 1
        if instances >= 120:
            break
    assert instances >= 100
    _passed(4, f"homology concentration on {instances} instances")


def test_criterion_6_bar_complex_exactness(extension_pool):
    checked = 0
    g, l, ext1 = fresh_worked_example()
    rep1 = check_extension(ext1, CheckConfig(consequences=False,
                                             bar_check=False))
    for ext, rep in [(ext1, rep1)] + extension_pool:
        p = rep.nilpotency.value
        cc = relative_bar_complex(ext, p)  # d o d = 0 verified inside
        assert cc.is_exact()
        assert cc.euler_characteristic() == 0
        checked += 1
    assert checked >= 101
    _passed(6, f"relative tensor complex exact on {checked} instances")


def test_criterion_7_projectivity_transport(extension_pool):
    checked = 0
    for ext, rep in extension_pool:
        if checked >= 50:
            break
        out = projectivity_transport_check(ext, cap=6)
        assert out["all_projective"]
        checked += 1
    assert checked >= 50
    _passed(7, f"projectivity transport on {checked} instances")


def test_criterion_8_hochschild_oracle():
    pres = QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),))
    a = algebra_from_presentation(pres, QQ)
    expected = [2, 1, 1, 1, 1]
    assert hochschild_homology(a, 4) == expected
    assert full_bar_homology(a, 4) == expected
    _passed(8, "Hochschild oracle on the dual numbers, both routes")


def test_criterion_9_pd_tor_consistency():
    rng = random.Random(909)
    modules = 0
    finite_checked = 0
    while modules < 200:
        a = random_quiver_algebra(rng, QQ)
        if a.dim > 5 or a.dim == 0:
            continue
        m = random_module(rng, a)
        modules += 1
        if m.dim == 0:
            continue
        v = projective_dimension(m, 8)
        if v.kind != "finite":
            continue
        sem = direct_sum(simple_modules(opposite(a)))
        dims = tor(sem, m, min(v.value + 2, 10))
        top = max((i for i, d in enumerate(dims) if d), default=0)
        assert top == v.value
        finite_checked += 1
    assert modules >= 200
    assert finite_checked >= 50
    _passed(9, f"pd-Tor consistency on {modules} modules "
               f"({finite_checked} finite)")


def test_criterion_10_cli_contract(tmp_path):
    from quiverext.cli import demo_document, main

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    code0, _ = run(["demo", "example-4-5"])
    assert code0 == 0
    code2, _ = run(["demo", "example-4-5", "--cap", "0"])
    assert code2 == 2
    bad = demo_document().replace("embed gamma -> gamma", "embed gamma -> e1")
    badfile = tmp_path / "bad.txt"
    badfile.write_text(bad)
    code3, _ = run(["check-extension", str(badfile)])
    assert code3 == 3
    demo_file = tmp_path / "demo.txt"
    demo_file.write_text(demo_document())
    _, out_a = run(["check-extension", str(demo_file), "--machine",
                    "--seed", "9"])
    _, out_b = run(["check-extension", str(demo_file), "--machine",
                    "--seed", "9"])
    assert out_a.encode("utf-8") == out_b.encode("utf-8")
    _passed(10, "CLI exit codes and byte-stable reports")
