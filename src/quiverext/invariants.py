"""Algebra-level homological invariants.

Global dimension and Gorenstein data are reported as three-valued verdicts
with certificates; the singularity category and the Gorenstein defect
category are never constructed, only their vanishing criteria are decided:
the singularity category vanishes exactly for finite global dimension, the
defect category exactly for Gorenstein algebras.

Hochschild homology is read through Ext over the enveloping algebra, from
the regular bimodule into its k-linear dual, so A^e is the only enveloping
algebra built; the bar-complex routes in barcomplex.py serve as
independent oracles in the test suite.
"""

from .errors import InternalCheckError, ValidationError
from .linalg import EchelonSpan, sparse_combination, transpose
from .modules import (Bimodule, dual_module, left_regular_module,
                      right_regular_module, simple_modules)
from .resolutions import ext as ext_dims
from .resolutions import projective_dimension
from . import verdicts


def global_dimension(a, cap, seed=0):
    """Global dimension as a verdict on finiteness.

    holds(value=d): every simple has finite projective dimension, max d.
    fails: some simple has a syzygy-periodicity witness (infinite).
    undetermined: neither, within the cap."""
    values = []
    statuses = []
    witnesses = {}
    for s, simple in enumerate(simple_modules(a)):
        pd = projective_dimension(simple, cap, seed=seed)
        statuses.append(pd.kind)
        if pd.kind == "finite":
            values.append(pd.value)
        elif pd.kind == "infinite":
            witnesses[s] = pd.witness[:2]
    if witnesses:
        return verdicts.fails(bound=cap, certificate={"periodic_simples": witnesses})
    if all(k == "finite" for k in statuses):
        return verdicts.holds(value=max(values), bound=cap,
                              certificate={"simple_pds": values})
    return verdicts.undetermined(bound=cap, certificate={"statuses": statuses})


def injective_dimension_regular(a, side, cap, seed=0):
    """Injective dimension of the regular module on one side, computed as
    the projective dimension of the k-linear dual over the other side."""
    if side == "left":
        mod = dual_module(left_regular_module(a))
    elif side == "right":
        mod = dual_module(right_regular_module(a))
    else:
        raise ValidationError("side must be 'left' or 'right'")
    pd = projective_dimension(mod, cap, seed=seed)
    if pd.kind == "finite":
        return verdicts.holds(value=pd.value, bound=cap,
                              certificate=pd.certificate)
    if pd.kind == "infinite":
        return verdicts.fails(bound=cap,
                              certificate={"witness": pd.witness[:2],
                                           **pd.certificate})
    return verdicts.undetermined(bound=cap, certificate=pd.certificate)


def gorenstein_verdict(a, cap, seed=0):
    """Gorenstein iff the regular module has finite injective dimension on
    both sides; equivalent to vanishing of the Gorenstein defect category."""
    left = injective_dimension_regular(a, "left", cap, seed=seed)
    right = injective_dimension_regular(a, "right", cap, seed=seed)
    cert = {"left": left.status, "right": right.status,
            "left_value": left.value, "right_value": right.value}
    if left.holds and right.holds:
        return verdicts.holds(value=max(left.value, right.value), bound=cap,
                              certificate=cert)
    if left.fails or right.fails:
        return verdicts.fails(bound=cap, certificate=cert)
    return verdicts.undetermined(bound=cap, certificate=cert)


def perp_membership(x, i_max):
    """Bounded membership in the left orthogonal of the regular module:
    Ext^i(X, A) = 0 for 0 < i <= i_max. fails carries the first nonzero
    degree; holds is only ever asserted up to the bound."""
    a = x.algebra
    dims = ext_dims(x, left_regular_module(a), i_max)
    for i in range(1, i_max + 1):
        if dims[i]:
            return verdicts.fails(bound=i, certificate={"ext_dims": dims,
                                                        "first_nonzero": i})
    return verdicts.holds(bound=i_max, certificate={"ext_dims": dims})


def commutator_rank(a):
    """Dimension of the commutator subspace [A, A], spanned by the
    b_i b_j - b_j b_i, read off the table cells (i, j) and (j, i)."""
    f = a.field
    table, one, minus = a.table, f.one, f.neg(f.one)
    span = EchelonSpan(f, a.dim)
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            span.insert(sparse_combination(f, [(one, table[i][j]),
                                               (minus, table[j][i])]))
    return span.rank


def hochschild_homology(a, i_max):
    """Hochschild homology dimensions HH_i for i = 0..i_max.

    HH_i(A) = Tor_i^{A^e}(A, A) is the k-dual of Ext^i_{A^e}(A, DA), with
    DA the dual of the regular bimodule, (x f y)(m) = f(y m x): x acts on
    the left by the transposed right multiplication and y on the right by
    the transposed left one. Only A^e is built, never its opposite.

    The degree-zero value is cross-checked against dim A - dim [A, A]
    computed independently; a mismatch raises (engine bug)."""
    reg = Bimodule.regular(a)
    dual = Bimodule(a, a, a.dim, [transpose(m, a.dim) for m in reg.right_action],
                    [transpose(m, a.dim) for m in reg.left_action],
                    validate=False)
    dims = ext_dims(reg, dual, i_max)
    hh0 = a.dim - commutator_rank(a)
    if dims[0] != hh0:
        raise InternalCheckError(
            f"HH_0 mismatch: Ext gives {dims[0]}, commutator count gives {hh0}")
    return dims
