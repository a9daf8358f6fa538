import pytest

from quiverext.errors import (InternalCheckError, ValidationError,
                              WitnessError)
from quiverext.linalg import QQ, Matrix
from quiverext.algebra import (opposite, product_algebra,
                               verify_algebra_isomorphism)
from quiverext.modules import (Bimodule, direct_sum, is_isomorphic,
                               projective_data, simple_modules, tensor_power)
from quiverext.extensions import (CheckConfig, ExtensionPresentation,
                                  check_bimodule_pd, check_derived_tor_families,
                                  check_extension, check_nilpotency, check_split,
                                  check_tor_vanishing, morita_ring_zero,
                                  projectivity_transport_check, quotient_bimodule,
                                  quotient_maps, relative_bar_complex,
                                  subalgebra_extension, triangular_matrix_algebra,
                                  trivial_extension)
from quiverext.resolutions import tor
from quiverext.suite import inflated_simple_bimodule


def one_dim_bimodule(k):
    one = Matrix.identity(QQ, 1)
    return Bimodule(k, k, 1, [one], [one])


def identity_extension(algebra):
    ident = Matrix.identity(algebra.field, algebra.dim)
    return subalgebra_extension(algebra, algebra, ident, ident)


# -- presentation validation ---------------------------------------------


def test_identity_extension_valid(gamma):
    ext = identity_extension(gamma)
    assert quotient_bimodule(ext).dim == 0
    assert check_split(ext).holds


def test_non_multiplicative_embedding_rejected(gamma, lam):
    lab = {l: i for i, l in enumerate(lam.basis_labels)}
    cols = []
    for x in gamma.basis_labels:
        v = [0] * lam.dim
        v[lab[x]] = 1
        cols.append(v)
    # swap the images of the arrow and the loop: breaks multiplicativity
    cols[2], cols[3] = cols[3], cols[2]
    emb = Matrix.from_cols(QQ, cols, nrows=lam.dim)
    with pytest.raises(WitnessError):
        subalgebra_extension(lam, gamma, emb)


def test_non_unital_embedding_rejected(k, gamma):
    emb = Matrix.from_cols(QQ, [[0, 0, 0, 1, 0]], nrows=5)
    with pytest.raises(WitnessError):
        subalgebra_extension(gamma, k, emb)


def test_corrupted_retraction_fails_check(gamma, lam, gamma_in_lambda):
    good = gamma_in_lambda
    rows = [list(r) for r in good.retraction.rows]
    rows[0][1] = QQ.of(1)  # retraction no longer splits the embedding
    bad = ExtensionPresentation(lam, gamma, good.embedding,
                                Matrix(QQ, rows), validate=False)
    v = check_split(bad)
    assert v.fails
    assert "violation" in v.certificate


def test_split_without_witness_undetermined(gamma, lam, gamma_in_lambda):
    ext = ExtensionPresentation(lam, gamma, gamma_in_lambda.embedding)
    assert check_split(ext).undetermined


# -- quotient bimodule ---------------------------------------------------


def test_quotient_of_trivial_extension_matches_input(gamma, gamma_in_lambda):
    q = quotient_bimodule(gamma_in_lambda)
    t, ext = trivial_extension(gamma, q)
    q2 = quotient_bimodule(ext)
    # canonical coordinates: exact action match
    assert q2.dim == q.dim
    assert q2.left_action == q.left_action
    assert q2.right_action == q.right_action


def test_quotient_structure_identifications(gamma, gamma_in_lambda):
    q = quotient_bimodule(gamma_in_lambda)
    assert q.dim == 4
    s2_right = simple_modules(opposite(gamma))[1]
    v, _ = is_isomorphic(q.as_right_module(), direct_sum([s2_right] * 4))
    assert v == "yes"
    v, _ = is_isomorphic(q.as_left_module(), projective_data(gamma, 0).module)
    assert v == "yes"


# -- constructors --------------------------------------------------------


def test_trivial_extension_zero_module_is_identity(gamma):
    zero = Bimodule(gamma, gamma, 0,
                    [Matrix.zeros(QQ, 0, 0)] * gamma.dim,
                    [Matrix.zeros(QQ, 0, 0)] * gamma.dim)
    t, ext = trivial_extension(gamma, zero)
    assert t.dim == gamma.dim
    assert t.table == gamma.table


def test_trivial_extension_dual_numbers(k):
    t, ext = trivial_extension(k, one_dim_bimodule(k))
    assert t.dim == 2
    assert t.radical_dim == 1
    # x^2 = 0 in the extension
    x = t.basis_vector(1)
    assert all(c == 0 for c in t.multiply(x, x))


def test_lambda_is_trivial_extension_with_witness(gamma, lam, gamma_in_lambda):
    q = quotient_bimodule(gamma_in_lambda)
    t, _ = trivial_extension(gamma, q)
    proj, _ = quotient_maps(gamma_in_lambda)
    g_lab = {l: i for i, l in enumerate(gamma.basis_labels)}
    cols = []
    for i, l in enumerate(lam.basis_labels):
        v = [QQ.zero] * t.dim
        if l in g_lab:
            v[g_lab[l]] = QQ.one
        else:
            for j, c in enumerate(proj.apply(lam.basis_vector(i))):
                v[gamma.dim + j] = c
        cols.append(v)
    iso = Matrix.from_cols(QQ, cols, nrows=t.dim)
    assert verify_algebra_isomorphism(lam, t, iso)


def test_triangular_collapses_to_product(k, gamma):
    zero = Bimodule(gamma, k, 0, [Matrix.zeros(QQ, 0, 0)] * gamma.dim,
                    [Matrix.zeros(QQ, 0, 0)] * k.dim)
    t, ext = triangular_matrix_algebra(k, gamma, zero)
    pa = product_algebra(k, gamma)
    assert t.dim == pa.dim
    assert t.table == pa.table


def test_triangular_two_by_two(k):
    t, ext = triangular_matrix_algebra(k, k, one_dim_bimodule(k))
    assert t.dim == 3
    assert ext.provenance == "triangular"
    q = quotient_bimodule(ext)
    assert tensor_power(q, 2).dim == 0


def test_morita_zero_cases(k, gamma):
    m = one_dim_bimodule(k)
    n = one_dim_bimodule(k)
    t, ext = morita_ring_zero(k, k, m, n)
    assert t.dim == 4
    q = quotient_bimodule(ext)
    assert q.dim == 2
    # the tensor square mixes the two corners and never dies
    assert tensor_power(q, 2).dim == 2
    assert tensor_power(q, 3).dim == 2
    assert check_nilpotency(ext, 6).undetermined
    # with n = 0 this is the triangular construction
    zero = Bimodule(k, k, 0, [Matrix.zeros(QQ, 0, 0)], [Matrix.zeros(QQ, 0, 0)])
    t2, ext2 = morita_ring_zero(k, k, m, zero)
    t3, _ = triangular_matrix_algebra(k, k, m)
    assert t2.dim == t3.dim == 3


# -- hypothesis checks ---------------------------------------------------


def test_identity_extension_verdict(gamma):
    rep = check_extension(identity_extension(gamma),
                          CheckConfig(consequences=False))
    assert rep.sing_equiv.holds and rep.defect_equiv.holds
    assert rep.pd_verdict.value == 0
    assert rep.nilpotency.value == 1
    assert rep.exit_code() == 0


def test_worked_example_verdict(gamma_in_lambda):
    rep = check_extension(gamma_in_lambda, CheckConfig(consequences=False))
    assert rep.sing_equiv.holds and rep.defect_equiv.holds
    assert rep.pd_verdict.value == 1
    assert rep.pd_verdict.certificate["term_dims"] == [12, 8]
    assert rep.nilpotency.value == 2
    assert rep.tor_verdict.holds
    assert rep.consequences["bar_exact"]


def test_growing_syzygies_stay_undetermined(dual_numbers):
    """The inflated simple over the dual numbers has syzygy dimensions
    that grow strictly over the four-dimensional enveloping algebra, so
    no periodicity witness exists and the verdict is honest."""
    m = inflated_simple_bimodule(dual_numbers, 0, 0)
    t, ext = trivial_extension(dual_numbers, m)
    pd = check_bimodule_pd(ext, 8)
    assert pd.kind == "undetermined"
    dims = pd.certificate["term_dims"]
    assert all(b > a for a, b in zip(dims, dims[1:]))
    rep = check_extension(ext, CheckConfig(cap=8, consequences=False))
    assert rep.sing_equiv.undetermined
    assert not rep.hypothesis_failed()
    assert rep.exit_code() == 2


def test_periodic_bimodule_syzygy_detected(k, dual_numbers):
    """Triangular instance whose bimodule has a periodic syzygy over
    C (x) B^op = B^op: infinite projective dimension with a witness."""
    from quiverext.modules import simple_top_coefficients
    c = simple_top_coefficients(dual_numbers)
    left = [Matrix.identity(QQ, 1)]
    right = [Matrix(QQ, [[c[0, t]]]) for t in range(dual_numbers.dim)]
    m = Bimodule(k, dual_numbers, 1, left, right)
    t, ext = triangular_matrix_algebra(dual_numbers, k, m)
    pd = check_bimodule_pd(ext, 8)
    assert pd.kind == "infinite"
    assert pd.witness[0] < pd.witness[1]
    rep = check_extension(ext, CheckConfig(cap=8, consequences=False))
    assert rep.sing_equiv.undetermined
    assert rep.hypothesis_failed()
    assert rep.exit_code() == 1


def test_nonvanishing_tor_detected(dual_numbers):
    """The dual numbers extended by the inflated simple: Tor_1 of the
    quotient with itself is nonzero (checked against the periodic
    resolution by hand: the simple's syzygies never leave the radical)."""
    m = inflated_simple_bimodule(dual_numbers, 0, 0)
    t, ext = trivial_extension(dual_numbers, m)
    tables, verdict = check_tor_vanishing(ext, p=2, d=2)
    assert verdict.fails
    assert any(v for v in tables["q_then_power"].values())


def test_generic_without_witness_exit_two(gamma, lam, gamma_in_lambda):
    ext = ExtensionPresentation(lam, gamma, gamma_in_lambda.embedding)
    rep = check_extension(ext, CheckConfig(consequences=False))
    assert rep.sing_equiv.holds
    assert rep.defect_equiv.undetermined
    assert rep.exit_code() == 2


def test_monotone_in_bounds(gamma_in_lambda):
    r1 = check_extension(gamma_in_lambda,
                         CheckConfig(cap=4, p_max=3, consequences=False,
                                     bar_check=False))
    r2 = check_extension(gamma_in_lambda,
                         CheckConfig(cap=9, p_max=6, consequences=False,
                                     bar_check=False))
    assert r1.sing_equiv.holds and r2.sing_equiv.holds


# -- derived families, bar complex, transport ----------------------------


def test_derived_tor_families_worked_example(gamma_in_lambda):
    rep = check_derived_tor_families(gamma_in_lambda, p=2, cap=5)
    assert rep["all_vanish"]


def test_tor_range_completeness(gamma_in_lambda):
    """Extending the checked rectangle by two rows and columns only adds
    zeros: the [1, d] x [1, p-1] range really is complete."""
    from quiverext.modules import tensor_power
    q = quotient_bimodule(gamma_in_lambda)
    d, p = 1, 2
    for j in range(1, p + 2):
        pw = tensor_power(q, j)
        if pw.dim == 0:
            continue
        dims = tor(q.as_right_module(), pw.as_left_module(), d + 2)
        assert dims[1:] == [0] * (d + 2)
    # every power at or past the nilpotency index vanishes outright
    assert tensor_power(q, p).dim == 0
    assert tensor_power(q, p + 2).dim == 0


def test_extension_dimension_bookkeeping(k, gamma, gamma_in_lambda):
    """dim(quotient) = dim A - dim B on every constructor output."""
    cases = [gamma_in_lambda]
    one = Matrix.identity(QQ, 1)
    cases.append(trivial_extension(k, one_dim_bimodule(k))[1])
    cases.append(triangular_matrix_algebra(k, k, one_dim_bimodule(k))[1])
    cases.append(morita_ring_zero(k, k, one_dim_bimodule(k),
                                  one_dim_bimodule(k))[1])
    for ext in cases:
        q = quotient_bimodule(ext)
        assert q.dim == ext.ambient.dim - ext.sub.dim


def test_derived_tor_families_identity(gamma):
    rep = check_derived_tor_families(identity_extension(gamma), p=1, cap=4)
    assert rep["all_vanish"]


def test_bar_complex_identity_extension(gamma):
    cc = relative_bar_complex(identity_extension(gamma), 1)
    assert cc.is_exact()
    assert sorted(cc.degrees()) == [-1, 0]


def test_bar_complex_triangular_dims(k):
    t, ext = triangular_matrix_algebra(k, k, one_dim_bimodule(k))
    cc = relative_bar_complex(ext, 2)
    dims = [cc.modules[d].dim for d in sorted(cc.degrees())]
    assert dims == [3, 4, 1]
    assert cc.euler_characteristic() == 0
    assert cc.is_exact()


def demo_extension(field):
    from quiverext.cli import demo_document
    from quiverext.docparse import build_document, parse_document
    return build_document(parse_document(demo_document()),
                          field_override=field).env["GammaInLambda"]


def test_bar_complex_worked_example(gamma_in_lambda):
    for ext in (gamma_in_lambda, demo_extension("p:2"), demo_extension("p:3")):
        cc = relative_bar_complex(ext, 2)
        dims = [cc.modules[d].dim for d in sorted(cc.degrees())]
        assert dims == [9, 13, 4]
        assert cc.euler_characteristic() == 0
        assert cc.is_exact()


@pytest.mark.parametrize("field", [None, "p:2"])
def test_bar_complex_checks_the_right_action(monkeypatch, field):
    """Zero the right action on the degree-0 term A (x)_B A: every
    differential still commutes with the left actions and d o d = 0 still
    holds, but the augmentation no longer commutes with the right actions,
    so construction must fail."""
    from quiverext import extensions
    ext = demo_extension(field)
    real = extensions.tensor_over
    patched = []

    def tensor_over(x, y, **kw):
        out = real(x, y, **kw)
        if y.right_alg is ext.ambient and not patched:
            term, proj, sect = out
            zero = Matrix.zeros(term.field, term.dim, term.dim)
            term = Bimodule(term.left_alg, term.right_alg, term.dim,
                            term.left_action, [zero] * ext.ambient.dim,
                            validate=False)
            patched.append(term)
            out = term, proj, sect
        return out

    monkeypatch.setattr(extensions, "tensor_over", tensor_over)
    with pytest.raises(ValidationError, match="does not intertwine"):
        relative_bar_complex(ext, 2)
    assert patched


@pytest.mark.parametrize("field", [None, "p:2"])
def test_bar_complex_checks_descent(monkeypatch, field):
    """Empty the class of one non-free pair x_i (x) x_i' of the degree-0
    term A (x)_B A with x_i x_i' != 0: the differential is unchanged, but
    the augmentation no longer agrees with the face on that raw tensor,
    so the faces do not descend and construction must fail."""
    from quiverext import extensions
    ext = demo_extension(field)
    a = ext.ambient
    real = extensions.tensor_over
    emptied = []

    def tensor_over(x, y, **kw):
        term, classes, free = real(x, y, **kw)
        if y.right_alg is a and not emptied:
            k = next(k for k in range(len(classes)) if k not in free and any(
                a.multiply(a.basis_vector(k // a.dim),
                           a.basis_vector(k % a.dim))))
            classes = list(classes)
            classes[k] = {}
            emptied.append(k)
        return term, classes, free

    monkeypatch.setattr(extensions, "tensor_over", tensor_over)
    with pytest.raises(InternalCheckError, match="descend"):
        relative_bar_complex(ext, 2)
    assert emptied


def test_projectivity_transport_worked_example(gamma_in_lambda):
    rep = projectivity_transport_check(gamma_in_lambda, cap=6)
    assert rep["all_projective"]
    # the unit corner moves B (x) B to A (x) A
    moved = {pair: dim for pair, dim, ok in rep["transported"]}
    assert moved[(0, 0)] == 4 * 4  # Lambda e1 (x) e1 Lambda


def test_transport_semisimple_base(k, gamma):
    one = Matrix.identity(QQ, 1)
    t, ext = triangular_matrix_algebra(k, k, one_dim_bimodule(k))
    rep = projectivity_transport_check(ext, cap=4)
    assert rep["all_projective"]


def test_augmented_resolution_exact_with_euler(gamma_in_lambda):
    """The minimal resolution of the quotient bimodule, augmented by the
    module itself, is an exact complex with alternating dimension sum
    zero: 4 - 12 + 8 = 0."""
    from quiverext.modules import ModuleMap
    from quiverext.resolutions import ChainComplex, minimal_resolution
    q = quotient_bimodule(gamma_in_lambda).as_env_module()
    res = minimal_resolution(q, 6)
    assert res.terminated and res.term_dims() == [12, 8]
    modules = {0: q}
    diffs = {}
    prev = q
    for i in range(len(res.gens)):
        p = res.projective_module(i)
        modules[i + 1] = p
        diffs[i + 1] = ModuleMap(p, prev, res.diffs[i], validate=True)
        prev = p
    cc = ChainComplex(modules, diffs)
    assert cc.is_exact()
    assert cc.euler_characteristic() == 4 - 12 + 8 == 0
