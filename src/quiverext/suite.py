"""Deterministic random instance generation for the property suites.

Everything is driven by an explicit random.Random so a (seed, size, count)
triple reproduces the exact same instances. Generated algebras are small
monomial quiver algebras (relations are paths, plus a hard truncation of
long paths), which are always admissible; modules are built as quotients
of projectives by action-closed subspaces, so they are honest by
construction and the constructors re-verify everything anyway.

Bimodules with controlled finite projective dimension are produced either
as corner projectives B e_i (x) e_j B with e_j B e_i = 0 (tensor-square
zero, pd 0) or as cokernels of injective maps between projective bimodules
(pd <= 1); controlled infinite dimension comes from inflating simples over
self-injective factors like the dual numbers.
"""

from .linalg import EchelonSpan, Matrix, matrix_combination
from .quiver import QuiverPresentation, algebra_from_presentation
from .errors import AdmissibilityError, PresentationError
from .modules import (Bimodule, Module, bimodule_direct_sum, projective_data,
                      projective_bimodule, zero_module)
from .algebra import opposite


def random_quiver_algebra(rng, field, max_vertices=3, max_arrows=4,
                          truncate=3):
    """A random monomial quiver algebra, truncated so it is always
    finite dimensional and admissible."""
    while True:
        nv = rng.randint(1, max_vertices)
        vertices = tuple(str(v + 1) for v in range(nv))
        na = rng.randint(0, max_arrows)
        arrows = []
        for t in range(na):
            src = rng.choice(vertices)
            tgt = rng.choice(vertices)
            arrows.append((f"a{t}", src, tgt))
        # kill a few random composable length-2 paths
        relations = []
        pairs = [(x[0], y[0]) for x in arrows for y in arrows if x[1] == y[2]]
        rng.shuffle(pairs)
        for lab2, lab1 in pairs[:rng.randint(0, 2)]:
            relations.append(((1, (lab2, lab1)),))
        # truncate: kill all paths of length `truncate`
        def paths_of_length(l):
            if l == 1:
                return [((a[0],), a[1], a[2]) for a in arrows]
            shorter = paths_of_length(l - 1)
            out = []
            for labs, src, tgt in shorter:
                for a in arrows:
                    if a[1] == tgt:
                        out.append((labs + (a[0],), src, a[2]))
            return out
        for labs, _, _ in paths_of_length(truncate) if arrows else []:
            relations.append(((1, tuple(reversed(labs))),))
        try:
            pres = QuiverPresentation(vertices, tuple(arrows),
                                      tuple(relations),
                                      path_length_cap=truncate + 2)
            return algebra_from_presentation(pres, field)
        except (AdmissibilityError, PresentationError):
            continue


def random_module(rng, algebra, max_dim=5):
    """A random quotient of a small projective by an action-closed span."""
    f = algebra.field
    r = len(algebra.idempotents)
    summands = [rng.randrange(r) for _ in range(rng.randint(1, 2))]
    from .modules import direct_sum
    proj = direct_sum([projective_data(algebra, s).module for s in summands])
    if proj.dim == 0:
        return proj
    # generate a submodule from a couple of random vectors
    span = EchelonSpan(f, proj.dim)
    seeds = rng.randint(0, 2)
    for _ in range(seeds):
        vec = [f.of(rng.randint(-1, 1)) for _ in range(proj.dim)]
        stack = [tuple(vec)]
        while stack:
            v = stack.pop()
            if not span.insert(v):
                continue
            for g in algebra.generators():
                stack.append(proj.act(g, v))
    sub = span.reduced_basis().col_matrix()
    from .linalg import quotient_space
    proj_map, sect = quotient_space(proj.dim, sub)
    if proj_map.nrows == 0:
        return zero_module(algebra)
    action = [proj_map.mul(m).mul(sect) for m in proj.action]
    mod = Module(algebra, action, validate=False)
    if mod.dim > max_dim:
        return random_module(rng, algebra, max_dim)
    return mod


def random_right_module(rng, algebra, max_dim=5):
    return random_module(rng, opposite(algebra), max_dim)


def corner_projective_bimodule(rng, b):
    """B e_i (x) e_j B with e_j B e_i = 0 when such a corner exists:
    a projective bimodule whose tensor square over B vanishes."""
    r = len(b.idempotents)
    pairs = []
    for i in range(r):
        for j in range(r):
            ei, ej = b.idempotents[i], b.idempotents[j]
            corner_dim = 0
            for t in range(b.dim):
                w = b.multiply(ej, b.multiply(b.basis_vector(t), ei))
                if any(w):
                    corner_dim += 1
                    break
            if corner_dim == 0:
                pairs.append((i, j))
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    return projective_bimodule(b, i, j)


def cokernel_pd1_bimodule(rng, bleft, bright=None, tries=12):
    """Cokernel of an injective map between projective (L, R)-bimodules: a
    bimodule of projective dimension <= 1 over L (x) R^op by construction."""
    from .linalg import quotient_space, rank
    from .modules import hom_space
    bright = bright if bright is not None else bleft
    f = bleft.field
    rl = len(bleft.idempotents)
    rr = len(bright.idempotents)
    for _ in range(tries):
        src = projective_bimodule(bleft, rng.randrange(rl), rng.randrange(rr),
                                  right_alg=bright)
        tgts = [projective_bimodule(bleft, rng.randrange(rl), rng.randrange(rr),
                                    right_alg=bright)
                for _ in range(rng.randint(1, 2))]
        tgt = tgts[0] if len(tgts) == 1 else bimodule_direct_sum(tgts)
        if src.dim == 0 or tgt.dim <= src.dim:
            continue
        # a bimodule map src -> tgt: random combination of the hom basis
        basis = hom_space(src.as_env_module(), tgt.as_env_module())
        if not basis:
            continue
        p = f.characteristic
        for _ in range(6):
            if p:
                coeffs = [f.of(rng.randrange(p)) for _ in basis]
            else:
                coeffs = [f.of(rng.randint(-2, 2)) for _ in basis]
            mat = matrix_combination(f, coeffs, [bm.matrix for bm in basis],
                                     tgt.dim, src.dim)
            if rank(mat) != src.dim:
                continue
            proj_map, sect = quotient_space(tgt.dim, mat)
            left = [proj_map.mul(m).mul(sect) for m in tgt.left_action]
            right = [proj_map.mul(m).mul(sect) for m in tgt.right_action]
            return Bimodule(bleft, bright, proj_map.nrows, left, right,
                            validate=False)
    return None


def inflated_simple_bimodule(b, i, j):
    """The one-dimensional (B, B)-bimodule on which the radical acts by
    zero, the left action factors through the i-th simple and the right
    action through the j-th; over non-semisimple B this typically has
    infinite projective dimension over B^e."""
    from .modules import simple_top_coefficients
    f = b.field
    c = simple_top_coefficients(b)
    left = [Matrix(f, [[c[i, t]]]) for t in range(b.dim)]
    right = [Matrix(f, [[c[j, t]]]) for t in range(b.dim)]
    return Bimodule(b, b, 1, left, right, validate=False)
