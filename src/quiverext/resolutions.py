"""Minimal projective resolutions, syzygies, Tor, Ext, projective dimension.

Resolutions are built by iterated projective covers. Internally a cover
target lives inside the previous projective (or inside the resolved module
at the start), so syzygies are tracked as explicit kernel subspaces.

Every vector on this path is sparse, a dict index -> value of its nonzero
canonical entries: the vectors spanning a cover target, the chosen
generators, the rows of each differential and the kernel vectors. Acting
on a vector touches only its nonzero coordinates, through the columns of
the column-sparse action of each summand, read as the module stores it.
The kernel of a differential is one EchelonSpan over its sparse rows,
read through ReducedBasis.complement; the differentials stay in that
row-sparse form, since the kernel needs rows. Maps handed out as
ModuleMaps (the cover's epimorphism, the differentials of a ChainComplex,
isomorphism witnesses) are column-sparse, like every other linear map in
the engine; ChainComplex checks d o d = 0 by composing them and ranks
them through linalg.sparse_rank.

Each differential is also stored in "algebra form": the map
+ A e_{s(c)} -> + A e_{s(r)} is right multiplication by elements
w[c][r] in e_{s(c)} A e_{s(r)}, each kept as its sparse entries. Tensoring
with a module N then collapses each summand A e_s to the slice e_s N and
each block to the action of w on N, which is what makes Tor and Ext over
the big enveloping algebras cheap once the resolution is known. Tor and
Ext stay sparse too: a slice is read off the columns of the action of
e_s, each block acts on the sparse rows of a slice basis, and each map is
ranked from its sparse images.

A finite projective dimension is certified on the resolution it is read
from: a minimal projective resolution has length pd M, so
_check_resolution checks that the terminated resolution is one (shapes,
augmentation onto M, d o d = 0, exactness with an injective top
differential, blocks in the radical), ranking each differential afresh.
No second module is resolved and no algebra is built for the check.
"""

from itertools import accumulate

from .errors import InternalCheckError, ValidationError
from .linalg import (EchelonSpan, compose, sparse_combination, sparse_rank,
                     transpose)
from .modules import (Module, ModuleMap, direct_sum, is_isomorphic,
                      projective_data, zero_module)
from .algebra import opposite


class _Ambient:
    """A module acting on sparse vectors: the resolved module itself (the
    degree-minus-one ambient) or a direct sum of projectives A e_s.

    It is a direct sum of blocks, each given by its column-sparse action
    (cols[u] the map by which b_u acts on the block) and its dimension."""

    __slots__ = ("field", "dim", "_place")

    def __init__(self, field, blocks):
        self.field = field
        place = []  # coordinate -> (its block's columns, block offset, column)
        for cols, dim in blocks:
            off = len(place)
            place.extend((cols, off, c) for c in range(dim))
        self._place = place
        self.dim = len(place)

    def apply(self, elem, vec):
        """The action on vec of the algebra element with nonzero
        (index, coeff) entries elem, as a sparse vector."""
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out = {}
        for i, x in vec.items():
            cols, off, c = self._place[i]
            for u, a in elem:
                col = cols[u][c]
                if col:
                    ax = mul(a, x)
                    for r, v in col:
                        k = off + r
                        out[k] = add(out.get(k, zero), mul(v, ax))
        return {k: y for k, y in out.items() if y}


def _projective_ambient(algebra, summands):
    data = [projective_data(algebra, s) for s in summands]
    return _Ambient(algebra.field, [(d.module.action, d.basis.dim)
                                    for d in data])


def _projective_sum(algebra, summands):
    """The module + A e_s over the given summands."""
    mods = [projective_data(algebra, s).module for s in summands]
    return direct_sum(mods) if mods else zero_module(algebra)


class Resolution:
    """A minimal projective resolution, possibly truncated at a cap.

    Degrees run 0, 1, 2, ...; gens[i] lists the idempotent index of each
    indecomposable summand of P_i. sparse_diffs[i] holds the differential
    out of P_i as (rows, ncols), one dict col -> value per row: degree 0 is
    the augmentation onto the module, degree i maps P_i into P_{i-1}.
    kernels[i] spans the syzygy inside P_i, as sparse vectors whose
    entries at kernel_free[i] are their coordinates. terminated means some
    kernel was zero within the cap.
    """

    __slots__ = ("module", "gens", "sparse_diffs", "w_blocks", "kernels",
                 "kernel_free", "terminated", "cap")

    def __init__(self, module, cap):
        self.module = module
        self.gens = []
        self.sparse_diffs = []
        self.w_blocks = []
        self.kernels = []
        self.kernel_free = []
        self.terminated = False
        self.cap = cap

    @property
    def length(self):
        return len(self.gens) - 1

    def term_dim(self, i):
        a = self.module.algebra
        return sum(projective_data(a, s).basis.dim for s in self.gens[i])

    def term_dims(self):
        return [self.term_dim(i) for i in range(len(self.gens))]

    def projective_module(self, i):
        return _projective_sum(self.module.algebra, self.gens[i])

    def syzygy_module(self, t):
        """Materialize the t-th syzygy as a Module (t >= 1)."""
        if t < 1:
            raise ValidationError("syzygies are indexed from 1 here")
        if t - 1 >= len(self.kernels):
            raise ValidationError("resolution not computed that far")
        a = self.module.algebra
        f = a.field
        vecs = self.kernels[t - 1]
        free = self.kernel_free[t - 1]
        if not vecs:
            return zero_module(a)
        amb = _projective_ambient(a, self.gens[t - 1])
        action = []
        for u in range(a.dim):
            cols = []
            for vec in vecs:
                img = amb.apply(((u, f.one),), vec)
                col = tuple((t, img[j]) for t, j in enumerate(free) if j in img)
                # exactness of the coordinate extraction is a consistency check
                if sparse_combination(f, [(c, vecs[t].items())
                                          for t, c in col]) != img:
                    raise InternalCheckError("syzygy not closed under the action")
                cols.append(col)
            action.append(tuple(cols))
        return Module(a, action, validate=False)

    def check_minimal(self):
        """Every differential block lands in the radical."""
        rad = self.module.algebra.radical_basis()
        for blocks in self.w_blocks[1:]:
            for col in blocks:
                for w in col:
                    if rad.sparse_coords(w) is None:
                        raise InternalCheckError("resolution is not minimal")
        return True


def _cover_step(algebra, ambient, current):
    """One projective cover: returns [(idempotent index, generator)].

    current (sparse vectors) spans a submodule of the ambient; generators
    are chosen idempotent-homogeneous lifts of a basis of the top
    (Nakayama)."""
    f = algebra.field
    span = EchelonSpan(f, ambient.dim)
    rad_rows = algebra.radical_basis().sparse_rows
    for v in current:
        for r in rad_rows:
            span.insert(ambient.apply(r, v))
    gens = []
    for s, es in enumerate(algebra.idempotents):
        for v in current:
            u = ambient.apply(es, v)
            if span.insert(u):
                gens.append((s, u))
    if span.rank != len(current):
        raise InternalCheckError("cover generators do not span the target")
    return gens


def _build_differential(algebra, ambient, gens):
    """The map + A e_s -> ambient sending the generator of each summand to
    its chosen vector, as (rows, ncols): one sparse row per ambient
    coordinate. Basis element b of A e_s goes to b . generator."""
    rows = [{} for _ in range(ambient.dim)]
    col = 0
    for s, g in gens:
        for brow in projective_data(algebra, s).basis.sparse_rows:
            for r, x in ambient.apply(brow, g).items():
                rows[r][col] = x
            col += 1
    return rows, col


def _module_cover(m):
    """The degree-0 cover of a module: its generators and differential."""
    a = m.algebra
    ambient = _Ambient(a.field, [(m.action, m.dim)])
    gens = _cover_step(a, ambient, [{i: a.field.one} for i in range(m.dim)])
    return gens, _build_differential(a, ambient, gens)


def _kernel(field, diff):
    """Sparse kernel vectors of a differential, and the free columns at
    which they have their coordinates."""
    rows, ncols = diff
    span = EchelonSpan(field, ncols)
    span.extend(rows)
    return span.reduced_basis().complement()


def _w_blocks(algebra, prev_gens, gens):
    """Algebra-form blocks w[c][r] in e_{s(c)} A e_{s(r)} of a differential:
    the component of generator c in summand r of the previous term, as an
    element of A given by its nonzero (index, coeff) entries in index
    order, empty when the component is zero."""
    f = algebra.field
    bases = [projective_data(algebra, s).basis for s, _ in prev_gens]
    owner = [(r, t) for r, b in enumerate(bases) for t in range(b.dim)]
    blocks = []
    for _, g in gens:
        comps = [[] for _ in bases]
        for i, x in g.items():
            r, t = owner[i]
            comps[r].append((x, bases[r].sparse_rows[t]))
        blocks.append([tuple(sorted(sparse_combination(f, comp).items()))
                       if comp else () for comp in comps])
    return blocks


def minimal_resolution(m, cap):
    """Minimal projective resolution of a left module, to length <= cap."""
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    a = m.algebra
    res = Resolution(m, cap)
    gens, diff = _module_cover(m)
    for degree in range(cap + 1):
        if degree:
            prev_gens = gens
            ambient = _projective_ambient(a, res.gens[-1])
            gens = _cover_step(a, ambient, res.kernels[-1])
            diff = _build_differential(a, ambient, gens)
        res.gens.append([s for s, _ in gens])
        res.sparse_diffs.append(diff)
        res.w_blocks.append(_w_blocks(a, prev_gens, gens) if degree else None)
        kvecs, kfree = _kernel(a.field, diff)
        res.kernels.append(kvecs)
        res.kernel_free.append(kfree)
        if not kvecs:
            res.terminated = True
            break
    return res


def projective_cover(m):
    """Projective cover as (projective module, epimorphism)."""
    gens, (rows, ncols) = _module_cover(m)
    p = _projective_sum(m.algebra, [s for s, _ in gens])
    epi = transpose(tuple(tuple(sorted(r.items())) for r in rows), ncols)
    return p, ModuleMap(p, m, epi, validate=False)


def syzygy(m, t, cap=None):
    """The t-th syzygy; t = 0 returns the module itself."""
    if t == 0:
        return m
    res = minimal_resolution(m, t if cap is None else cap)
    if t - 1 >= len(res.kernels):
        return zero_module(m.algebra)
    return res.syzygy_module(t)


def is_projective(m):
    """Projectivity via the cover: projective iff the cover kernel is zero."""
    if m.dim == 0:
        return True
    _, (rows, ncols) = _module_cover(m)
    return ncols == m.dim and sparse_rank(rows, ncols, m.algebra.field) == m.dim


def homology_dims(dims, ranks):
    """Homology dimension at each degree of a complex with terms of
    dimension dims[i], where ranks[i] is the rank of the map between
    degrees i - 1 and i (in either direction; absent means zero)."""
    return {i: d - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i, d in dims.items()}


def _slice(n, ambient, algebra_of_e, s):
    """The slice e_s N of a module, as a ReducedBasis cached on N: the span
    of the columns of the action of e_s, read through an ambient of N that
    holds the columns of e_s."""
    key = ("slice", algebra_of_e, s)
    if key not in n._cache:
        f = n.algebra.field
        es = algebra_of_e.idempotents[s]
        span = EchelonSpan(f, n.dim)
        for j in range(n.dim):
            span.insert(ambient.apply(es, {j: f.one}))
        n._cache[key] = span.reduced_basis()
    return n._cache[key]


def _derived_dims(res, n, base_algebra, i_max, contravariant):
    """Tor (covariant) or Ext (contravariant) dimensions for i = 0..i_max,
    from a resolution computed to length i_max + 1.

    res is a minimal resolution over B^op (or B). Tensored with N (for Tor)
    or mapped into N (for Ext), each summand A e_s becomes the slice e_s N,
    and each algebra-form block w acts on N: covariantly from the slice of
    the degree-i summand to that of the degree-(i-1) summand,
    contravariantly the other way. Each map is ranked from its images, one
    sparse row per source basis vector; a map and its transpose have the
    same rank, so only source and target swap."""
    f = n.algebra.field
    top = min(i_max + 1, len(res.gens) - 1)
    degrees = res.w_blocks[1:top + 1]
    ambient = _Ambient(f, [(n.action, n.dim)])
    terms = [[_slice(n, ambient, base_algebra, s) for s in gens]
             for gens in res.gens[:top + 1]]
    ranks = {}
    for i, blocks in enumerate(degrees, 1):
        src, dst = ((terms[i - 1], terms[i]) if contravariant
                    else (terms[i], terms[i - 1]))
        by_src = list(zip(*blocks)) if contravariant else blocks
        offs = list(accumulate((b.dim for b in dst), initial=0))
        rows = []
        for basis, ws in zip(src, by_src):
            for x in basis.sparse_rows:
                x, row = dict(x), {}
                for k, w in enumerate(ws):
                    if not w:
                        continue
                    cs = dst[k].sparse_coords(ambient.apply(w, x).items())
                    if cs is None:
                        raise InternalCheckError(
                            "hom block leaves its slice" if contravariant
                            else "tensored block leaves its slice")
                    row.update((offs[k] + t, v) for t, v in cs.items())
                rows.append(row)
        ranks[i] = sparse_rank(rows, offs[-1], f)
    h = homology_dims({i: sum(b.dim for b in t) for i, t in enumerate(terms)},
                      ranks)
    return [h.get(i, 0) for i in range(i_max + 1)]


def tor(m_right, n_left, i_max, resolve="first"):
    """Tor_i^B(M, N) dimensions for i = 0..i_max.

    m_right is a right B-module presented as a left module over B^op;
    n_left is a left B-module. The resolution is computed to length
    i_max + 1 so the top homology is exact. resolve picks which argument
    is resolved; the two must agree degreewise (a test-suite property).
    """
    if i_max < 0:
        raise ValidationError("i_max must be nonnegative")
    b = n_left.algebra
    bop = m_right.algebra
    if bop is not opposite(b):
        raise ValidationError("tor arguments must be a right and a left module "
                              "over the same algebra")
    if resolve == "first":
        res = minimal_resolution(m_right, i_max + 1)
        return _derived_dims(res, n_left, bop, i_max, contravariant=False)
    if resolve == "second":
        res = minimal_resolution(n_left, i_max + 1)
        return _derived_dims(res, m_right, b, i_max, contravariant=False)
    raise ValidationError("resolve must be 'first' or 'second'")


def ext(m, n, i_max):
    """Ext^i_A(M, N) dimensions for i = 0..i_max (left modules)."""
    if i_max < 0:
        raise ValidationError("i_max must be nonnegative")
    if m.algebra is not n.algebra:
        raise ValidationError("ext arguments over different algebras")
    res = minimal_resolution(m, i_max + 1)
    return _derived_dims(res, n, m.algebra, i_max, contravariant=True)


class PdVerdict:
    """Outcome of a projective dimension computation.

    kind is 'finite' (value set), 'infinite' (periodicity witness
    (i, j, map) recorded, the map column-sparse) or 'undetermined' (cap reached). The
    certificate carries the resolution term dimensions either way.
    """

    __slots__ = ("kind", "value", "witness", "cap", "certificate")

    def __init__(self, kind, value=None, witness=None, cap=None, certificate=None):
        self.kind = kind
        self.value = value
        self.witness = witness
        self.cap = cap
        self.certificate = certificate or {}

    def __repr__(self):
        if self.kind == "finite":
            return f"PdVerdict(finite {self.value})"
        if self.kind == "infinite":
            return f"PdVerdict(infinite, witness at {self.witness[:2]})"
        return f"PdVerdict(undetermined at cap {self.cap})"


def _check_resolution(res):
    """Raise unless a terminated resolution is a minimal projective
    resolution of its module, whose length is then pd M (Benson,
    Representations and Cohomology I, 1991). Its terms are projective by
    construction. Ranks are taken afresh from the differentials' rows,
    never read off the kernels the resolution computed, so a fault in
    _kernel cannot confirm itself."""
    def fail(what):
        raise InternalCheckError(f"pd cross-check failed: {what}")

    f = res.module.algebra.field
    dims = res.term_dims()
    diffs = res.sparse_diffs
    if ([(len(rows), n) for rows, n in diffs]
            != list(zip([res.module.dim] + dims, dims))):
        fail("term dimensions disagree with the differentials")
    ranks = [sparse_rank(rows, n, f) for rows, n in diffs]
    if ranks[0] != res.module.dim:
        fail("the augmentation is not onto the module")
    for i in range(1, len(diffs)):
        rows = diffs[i][0]
        if any(sparse_combination(f, [(x, rows[k].items())
                                      for k, x in row.items()])
               for row in diffs[i - 1][0]):
            fail(f"d o d != 0 at degree {i}")
    for i, (d, r, up) in enumerate(zip(dims, ranks, ranks[1:] + [0])):
        if d - r != up:
            fail(f"not exact at degree {i}" if i < len(dims) - 1
                 else "the top differential is not injective")
    try:
        res.check_minimal()
    except InternalCheckError as e:
        fail(e)


def projective_dimension(m, cap, seed=0):
    """Projective dimension with a three-valued verdict.

    Terminating resolution gives finite(d), after _check_resolution has
    certified the resolution as minimal, so that d is pd M; two isomorphic
    syzygies within the cap give infinite with a re-checkable witness;
    otherwise undetermined at the cap.
    """
    res = minimal_resolution(m, cap)
    cert = {"term_dims": res.term_dims()}
    if res.terminated:
        _check_resolution(res)
        return PdVerdict("finite", value=res.length, certificate=cert)
    # periodicity search among syzygies
    syzygies = {}
    limit = len(res.kernels)
    for t in range(1, limit + 1):
        syzygies[t] = res.syzygy_module(t)
    for i in range(1, limit + 1):
        for j in range(i + 1, limit + 1):
            if syzygies[i].dim != syzygies[j].dim or syzygies[i].dim == 0:
                continue
            verdict, wit = is_isomorphic(syzygies[i], syzygies[j], seed=seed)
            if verdict == "yes":
                cert["periodic_pair"] = (i, j)
                return PdVerdict("infinite", witness=(i, j, wit), certificate=cert)
    return PdVerdict("undetermined", cap=cap, certificate=cert)


class ChainComplex:
    """A finite chain complex of modules; d_i : C_i -> C_{i-1}.

    d o d = 0 is verified exactly at construction, and each differential
    must intertwine the actions (checked on algebra generators).
    """

    __slots__ = ("modules", "diffs")

    def __init__(self, modules, diffs, validate=True):
        self.modules = dict(modules)
        self.diffs = dict(diffs)
        if validate:
            self.validate()

    def validate(self):
        for i, d in self.diffs.items():
            if d.source is not self.modules.get(i) or d.target is not self.modules.get(i - 1):
                raise ValidationError(f"differential {i} connects wrong terms")
            d.validate()
        for i, d in self.diffs.items():
            up = self.diffs.get(i + 1)
            if up is not None and any(compose(d.source.algebra.field,
                                              d.cols, up.cols)):
                raise ValidationError(f"d o d != 0 at degree {i + 1}")

    def degrees(self):
        return sorted(self.modules)

    def homology(self):
        """Dimension of homology at each degree."""
        ranks = {i: sparse_rank(map(dict, d.cols), d.target.dim,
                                d.source.algebra.field)
                 for i, d in self.diffs.items()}
        return homology_dims({i: self.modules[i].dim for i in self.degrees()},
                             ranks)

    def is_exact(self):
        return all(v == 0 for v in self.homology().values())

    def euler_characteristic(self):
        total = 0
        for i in self.degrees():
            total += (1 if i % 2 == 0 else -1) * self.modules[i].dim
        return total
