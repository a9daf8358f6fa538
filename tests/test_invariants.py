import contextlib
import io
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from quiverext.errors import ValidationError
from quiverext.linalg import GF, QQ
from quiverext.algebra import opposite, product_algebra, scalar_algebra
from quiverext.barcomplex import full_bar_homology, relative_bar_homology
from quiverext.invariants import (commutator_rank, global_dimension,
                                  gorenstein_verdict, hochschild_homology,
                                  injective_dimension_regular,
                                  perp_membership)
from quiverext.modules import (Bimodule, dual_module, left_regular_module,
                               projective_indecomposables, simple_modules)
from quiverext.resolutions import ext, minimal_resolution
from quiverext.cli import main
from quiverext.suite import random_module, random_quiver_algebra


def semisimple(n):
    a = scalar_algebra(QQ)
    for _ in range(n - 1):
        a = product_algebra(a, scalar_algebra(QQ))
    return a


def test_gldim_semisimple():
    v = global_dimension(semisimple(3), 4)
    assert v.holds and v.value == 0


def test_gldim_hereditary(hereditary_a2):
    v = global_dimension(hereditary_a2, 6)
    assert v.holds and v.value == 1


def test_gldim_infinite_with_witness(gamma):
    v = global_dimension(gamma, 10)
    assert v.fails
    assert 0 in v.certificate["periodic_simples"]


_GLDIM_DOCUMENT = """
field q
quiver A2
  vertices 1 2
  arrow b 1 2
end
quiver Gamma
  vertices 1 2
  arrow beta 1 2
  arrow gamma 1 1
  relation gamma*gamma
end
check invariants NAME gldim cap CAP
"""


def _invariants_lines(tmp_path, name, cap):
    """The machine report of `gldim` on one algebra, as a dict."""
    doc = tmp_path / f"{name}-{cap}.txt"
    doc.write_text(_GLDIM_DOCUMENT.replace("NAME", name)
                   .replace("CAP", str(cap)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["invariants", str(doc), "--machine"]) == 0
    return dict(line.split(" = ", 1) for line in out.getvalue().splitlines())


def _assert_singularity_tracks_gldim(tmp_path, name, algebra, cap, status):
    lines = _invariants_lines(tmp_path, name, cap)
    prefix = f"invariants.{name}."
    assert global_dimension(algebra, cap).status == status
    assert lines[prefix + "global-dimension-finite"] == status
    assert lines[prefix + "singularity-category-trivial"] == status


def test_singularity_trivial_tracks_gldim(tmp_path, gamma, hereditary_a2):
    """The report states the singularity category trivial exactly when the
    global dimension is finite."""
    _assert_singularity_tracks_gldim(tmp_path, "A2", hereditary_a2, 6, "holds")
    _assert_singularity_tracks_gldim(tmp_path, "Gamma", gamma, 10, "fails")


def test_singularity_undetermined_at_tiny_cap(tmp_path, gamma):
    """At cap 0 neither verdict is decided, and the report says so."""
    _assert_singularity_tracks_gldim(tmp_path, "Gamma", gamma, 0,
                                     "undetermined")


def test_selfinjective_dual_numbers(dual_numbers):
    left = injective_dimension_regular(dual_numbers, "left", 6)
    right = injective_dimension_regular(dual_numbers, "right", 6)
    assert left.holds and left.value == 0
    assert right.holds and right.value == 0
    assert gorenstein_verdict(dual_numbers, 6).holds


def test_injective_dimension_rejects_unknown_side(dual_numbers):
    with pytest.raises(ValidationError, match="side must be"):
        injective_dimension_regular(dual_numbers, "both", 6)


def test_gorenstein_semisimple():
    assert gorenstein_verdict(semisimple(2), 4).holds


def test_dual_of_regular_selfinjective_is_regular(dual_numbers):
    reg = left_regular_module(dual_numbers)
    d = dual_module(reg)
    from quiverext.modules import is_isomorphic
    from quiverext.modules import right_regular_module
    assert is_isomorphic(d, right_regular_module(dual_numbers))[0] == "yes"


def test_gldim_side_independent(gamma, dual_numbers, hereditary_a2):
    for a in (gamma, dual_numbers, hereditary_a2):
        assert global_dimension(a, 8).status == \
            global_dimension(opposite(a), 8).status


def test_perp_projective_holds(gamma):
    for p in projective_indecomposables(gamma):
        assert perp_membership(p, 6).holds


def test_perp_selfinjective_all_modules(dual_numbers):
    rng = random.Random(3)
    for _ in range(6):
        m = random_module(rng, dual_numbers)
        if m.dim:
            assert perp_membership(m, 5).holds


def test_perp_failure_detected(hereditary_a2):
    s1 = simple_modules(hereditary_a2)[0]
    v = perp_membership(s1, 4)
    assert v.fails
    assert v.bound == 1
    assert v.certificate["ext_dims"][1] == 1


def test_hh_semisimple():
    assert hochschild_homology(semisimple(3), 3) == [3, 0, 0, 0]


def test_hh_dual_numbers_three_routes(dual_numbers):
    expected = [2, 1, 1, 1, 1]
    assert hochschild_homology(dual_numbers, 4) == expected
    assert full_bar_homology(dual_numbers, 4) == expected
    assert relative_bar_homology(dual_numbers, 4) == expected


def test_hh_zero_equals_commutator_count(gamma, lam):
    for a in (gamma, lam):
        hh0 = hochschild_homology(a, 0)[0]
        assert hh0 == a.dim - commutator_rank(a)


def test_hh_agreement_small_random():
    """The Ext-into-DA route agrees with both bar-complex oracles on random
    algebras of dim <= 5 over QQ, GF(2) and GF(3), and some case per field
    has HH_i != 0 for some i >= 1."""
    for field in (QQ, GF(2), GF(3)):
        rng = random.Random(5)
        checked = nonzero = 0
        while checked < 8:
            a = random_quiver_algebra(rng, field, max_vertices=2,
                                      max_arrows=3, truncate=3)
            if a.dim > 5:
                continue
            checked += 1
            ext_route = hochschild_homology(a, 3)
            assert ext_route == relative_bar_homology(a, 3)
            assert ext_route == full_bar_homology(a, 3)
            nonzero += any(ext_route[1:])
        assert nonzero, field


def test_hh_worked_example_oracle(gamma, lam):
    assert hochschild_homology(gamma, 4) == relative_bar_homology(gamma, 4)
    assert hochschild_homology(lam, 4) == relative_bar_homology(lam, 4)


@given(seed=st.integers(0, 10**6),
       field=st.sampled_from([QQ, GF(2), GF(3)]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_happel_enveloping_resolution_matches_simple_ext(seed, field):
    """Happel's theorem, an oracle for A^e that never builds it: in the
    minimal A^e-resolution of A, the summand A e_i (x) e_j A, idempotent
    e_i (x) e_j^op of tensor_algebra(A, A^op), occurs in degree n exactly
    dim Ext^n_A(S_j, S_i) times."""
    a = random_quiver_algebra(random.Random(seed), field, max_vertices=3,
                              max_arrows=3)
    assume(a.dim <= 9)
    cap = 3
    r = len(a.idempotents)
    res = minimal_resolution(Bimodule.regular(a), cap)
    simples = simple_modules(a)
    exts = {(j, i): ext(simples[j], simples[i], cap)
            for j in range(r) for i in range(r)}
    for n in range(cap + 1):
        counts = Counter(res.gens[n] if n < len(res.gens) else ())
        assert counts == Counter({i * r + j: exts[j, i][n]
                                  for i in range(r) for j in range(r)
                                  if exts[j, i][n]}), n
