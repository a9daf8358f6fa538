"""Minimal projective resolutions, syzygies, Tor, Ext, projective dimension.

Resolutions are built by iterated projective covers. A cover target is a
plain Module: the resolved module at the start, then the projective
P_{i-1} = + A e_s of the previous degree (cached on the algebra, see
_projective_sum), so syzygies are tracked as explicit kernel subspaces
of it.

Every vector on this path is sparse, a dict index -> value of its nonzero
canonical entries: the vectors spanning a cover target, the chosen
generators and the kernel vectors. Module.act applies an algebra element
to such a vector, touching only its nonzero coordinates through the
columns of the column-sparse action. Each differential is column-sparse,
like every other linear map in the engine, in the format
linalg.map_problem checks: column c is the image b . g of a basis element
b of its summand A e_s under the generator g of that summand. The kernel
of a differential is one EchelonSpan over its rows, read through
ReducedBasis.complement; _kernel is the one reader that transposes.
ChainComplex checks d o d = 0 by composing its differentials and ranks
them through linalg.sparse_rank.

The columns are the one stored form of a differential; Resolution.blocks
reads its "algebra form" off them for Tor, Ext and the minimality check:
+ A e_{s(c)} -> + A e_{s(r)} is right multiplication by w[c][r] in
e_{s(c)} A e_{s(r)}. Tensoring with a module N collapses each summand A e_s
to the slice e_s N and each block to the action of w on N, so Tor and Ext
over big enveloping algebras are cheap once the resolution is known, and
sparse: a slice is spanned by the columns of the action of e_s, each block
acts on the sparse rows of a slice basis, each map is ranked from its images.

A finite projective dimension is certified on the resolution it is read
from: a minimal projective resolution has length pd M, so
_check_resolution checks that the terminated resolution is one (shapes,
augmentation onto M, d o d = 0, exactness with an injective top
differential, blocks in the radical), ranking each differential afresh.
An infinite one is read off two isomorphic syzygies i < j, and the same
check certifies the resolution cut off at degree j - 1, with the syzygy
it reads there as the exact kernel of d_{j-1}. No second module is
resolved and no algebra is built for the check.
"""

from itertools import accumulate

from .errors import InternalCheckError, ValidationError
from .linalg import (EchelonSpan, compose, map_problem, sparse_combination,
                     sparse_rank, to_column, transpose)
from .modules import (Module, ModuleMap, direct_sum, is_isomorphic,
                      projective_data, zero_module)
from .algebra import opposite


def _projective_sum(algebra, summands):
    """The module + A e_s over the given summands, cached on the algebra,
    since resolutions over one algebra meet the same terms again; a single
    summand is the projective itself."""
    key = ("proj_sum", tuple(summands))
    if key not in algebra._cache:
        mods = [projective_data(algebra, s).module for s in summands]
        algebra._cache[key] = (direct_sum(mods) if len(mods) > 1 else
                               mods[0] if mods else zero_module(algebra))
    return algebra._cache[key]


class Resolution:
    """A minimal projective resolution, possibly truncated at a cap.

    Degrees run 0, 1, 2, ...; gens[i] lists the idempotent index of each
    indecomposable summand of P_i. diffs[i] is the differential out of P_i,
    a column-sparse map with dim P_i columns: degree 0 is the augmentation
    onto the module, degree i maps P_i into P_{i-1}. kernels[i] spans the
    syzygy inside P_i, as sparse vectors whose entries at kernel_free[i]
    are their coordinates. terminated means some kernel was zero within
    the cap. blocks(i) reads the algebra form of d_i off its columns.
    """

    __slots__ = ("module", "gens", "diffs", "kernels", "kernel_free",
                 "terminated")

    def __init__(self, module):
        self.module = module
        self.gens = []
        self.diffs = []
        self.kernels = []
        self.kernel_free = []
        self.terminated = False

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
        p = self.projective_module(t - 1)
        action = []
        for u in range(a.dim):
            cols = []
            for vec in vecs:
                img = p.act(((u, f.one),), vec)
                col = tuple((t, img[j]) for t, j in enumerate(free) if j in img)
                # exactness of the coordinate extraction is a consistency check
                if sparse_combination(f, [(c, vecs[t].items())
                                          for t, c in col]) != img:
                    raise InternalCheckError("syzygy not closed under the action")
                cols.append(col)
            action.append(tuple(cols))
        return Module(a, action, validate=False)

    def blocks(self, i):
        """The algebra form of d_i (i >= 1): w[c][r] in e_{s(c)} A e_{s(r)},
        as sorted sparse entries, () when zero, is the summand-r part of
        the image of e_{s(c)} (a combination of summand c's columns: e_s
        need not be a basis row), read in A through A e_{s(r)}'s basis."""
        a = self.module.algebra
        f, diff, blocks, start = a.field, self.diffs[i], [], 0
        lo = [projective_data(a, s).basis for s in self.gens[i - 1]]
        owner = [(r, row) for r, b in enumerate(lo) for row in b.sparse_rows]
        for s in self.gens[i]:
            basis = projective_data(a, s).basis
            coords = basis.sparse_coords(a.idempotents[s]).items()
            g = sparse_combination(f, [(x, diff[start + t])
                                       for t, x in coords])
            start += basis.dim
            comps = [[] for _ in lo]
            for k, x in g.items():
                comps[owner[k][0]].append((x, owner[k][1]))
            blocks.append([to_column(sparse_combination(f, c)) if c else ()
                           for c in comps])
        return blocks

    def check_minimal(self, top=None):
        """Every differential block, up to degree top (default all), lands
        in the radical."""
        rad = self.module.algebra.radical_basis()
        top = len(self.gens) - 1 if top is None else top
        if any(rad.sparse_coords(w) is None for i in range(1, top + 1)
               for col in self.blocks(i) for w in col):
            raise InternalCheckError("resolution is not minimal")
        return True


def _cover_step(algebra, target, current):
    """One projective cover: returns [(idempotent index, generator)].

    current (sparse vectors) spans a submodule K of the target module;
    generators are chosen idempotent-homogeneous lifts of a basis of the
    top K / rad K (Nakayama). rad K is spanned by the arrows (the
    generators after the idempotents) applied to current: rad = arrows . A,
    so rad K = arrows . A K = arrows . K. An insert grows the span exactly
    when its vector lies outside it, so the chosen generators depend only
    on the subspace rad K, not on the vectors that span it."""
    span = EchelonSpan(algebra.field, target.dim)
    arrows = algebra.generators()[len(algebra.idempotents):]
    for v in current:
        for g in arrows:
            span.insert(target.act(g, v))
    gens = []
    for s, es in enumerate(algebra.idempotents):
        for v in current:
            u = target.act(es, v)
            if span.insert(u):
                gens.append((s, u))
    if span.rank != len(current):
        raise InternalCheckError("cover generators do not span the target")
    return gens


def _build_differential(algebra, target, gens):
    """The map + A e_s -> target sending the generator of each summand to
    its chosen vector, column-sparse: basis element b of A e_s goes to
    b . generator."""
    return tuple([to_column(target.act(brow, g)) for s, g in gens
                  for brow in projective_data(algebra, s).basis.sparse_rows])


def _module_cover(m):
    """The degree-0 cover of a module: its generators and differential."""
    one = m.algebra.field.one
    gens = _cover_step(m.algebra, m, [{i: one} for i in range(m.dim)])
    return gens, _build_differential(m.algebra, m, gens)


def _kernel(field, diff, nrows):
    """Sparse kernel vectors of a differential with nrows rows, and the
    free columns at which they have their coordinates."""
    span = EchelonSpan(field, len(diff), transpose(diff, nrows))
    return span.reduced_basis().complement()


def minimal_resolution(m, cap):
    """Minimal projective resolution of a left module, to length <= cap."""
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    a = m.algebra
    res = Resolution(m)
    target = m
    gens, diff = _module_cover(m)
    for degree in range(cap + 1):
        if degree:
            target = res.projective_module(degree - 1)
            gens = _cover_step(a, target, res.kernels[-1])
            diff = _build_differential(a, target, gens)
        res.gens.append([s for s, _ in gens])
        res.diffs.append(diff)
        kvecs, kfree = _kernel(a.field, diff, target.dim)
        res.kernels.append(kvecs)
        res.kernel_free.append(kfree)
        if not kvecs:
            res.terminated = True
            break
    return res


def projective_cover(m):
    """Projective cover as (projective module, epimorphism)."""
    gens, epi = _module_cover(m)
    p = _projective_sum(m.algebra, [s for s, _ in gens])
    return p, ModuleMap(p, m, epi, validate=False)


def syzygy(m, t, cap=None):
    """The t-th syzygy; t = 0 returns the module itself. It is zero past
    the end of a terminated resolution; a resolution cut off by the cap
    before degree t - 1 raises ValidationError."""
    if t == 0:
        return m
    res = minimal_resolution(m, t if cap is None else cap)
    if res.terminated and t - 1 >= len(res.kernels):
        return zero_module(m.algebra)
    return res.syzygy_module(t)


def is_projective(m):
    """Projectivity via the cover: projective iff the cover kernel is zero."""
    if m.dim == 0:
        return True
    _, epi = _module_cover(m)
    return (len(epi) == m.dim
            and sparse_rank(map(dict, epi), m.dim, m.algebra.field) == m.dim)


def homology_dims(dims, ranks):
    """Homology dimension at each degree of a complex with terms of
    dimension dims[i], where ranks[i] is the rank of the map between
    degrees i - 1 and i (in either direction; absent means zero)."""
    return {i: d - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i, d in dims.items()}


def _slice(n, algebra_of_e, s):
    """The slice e_s N of a module, as a ReducedBasis cached on N: the span
    of the columns of the action of e_s."""
    key = ("slice", algebra_of_e, s)
    if key not in n._cache:
        es = algebra_of_e.idempotents[s]
        n._cache[key] = EchelonSpan(n.algebra.field, n.dim,
                                    n.action_map(es)).reduced_basis()
    return n._cache[key]


def _derived_dims(res, n, base_algebra, i_max, contravariant):
    """Tor (covariant) or Ext (contravariant) dimensions for i = 0..i_max,
    from a resolution computed to length i_max + 1.

    res is a minimal resolution over B^op (or B). Tensored with N (for Tor)
    or mapped into N (for Ext), each summand A e_s becomes the slice e_s N,
    and each block w, read off a differential by res.blocks, acts on N:
    covariantly from the slice of the degree-i summand to that of the
    degree-(i-1) summand, contravariantly the other way. Each map is ranked
    from its images, one sparse row per source basis vector; a map and its
    transpose have the same rank, so only source and target swap."""
    f = n.algebra.field
    top = min(i_max + 1, len(res.gens) - 1)
    terms = [[_slice(n, base_algebra, s) for s in gens]
             for gens in res.gens[:top + 1]]
    ranks = {}
    for i in range(1, top + 1):
        blocks = res.blocks(i)
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
                    cs = dst[k].sparse_coords(n.act(w, x).items())
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


def _check_resolution(res, top=None):
    """Raise unless the resolution, cut off at degree top, is the start of
    a minimal projective resolution of its module whose syzygy in P_top is
    kernels[top]: shapes, augmentation onto M, d o d = 0, exactness at
    P_0 .. P_{top-1}, kernels[top] exactly ker d_top (killed by it,
    independent, and as many as its nullity) and blocks in the radical.
    By default top is the last degree and its syzygy must be zero: the
    terminated resolution is then a minimal projective resolution, whose
    length is pd M (Benson, Representations and Cohomology I, 1991). Its
    terms are projective by construction. Ranks are taken afresh from the
    differentials' columns, never read off the kernels the resolution
    computed, so a fault in _kernel cannot confirm itself. The homology is
    that of the augmented complex, with M in degree -1."""
    def fail(what):
        raise InternalCheckError(f"pd cross-check failed: {what}")

    f = res.module.algebra.field
    dims, diffs = res.term_dims(), res.diffs
    heights = [res.module.dim] + dims
    if len(diffs) != len(dims) or any(map_problem(f, d, h, n) for d, h, n
                                      in zip(diffs, heights, dims)):
        fail("term dimensions disagree with the differentials")
    kvecs = () if top is None else res.kernels[top]
    top = len(dims) - 1 if top is None else top
    h = homology_dims(dict(enumerate(heights[:top + 2], -1)),
                      {i: sparse_rank(map(dict, d), height, f)
                       for i, (d, height)
                       in enumerate(zip(diffs[:top + 1], heights))})
    if h[-1]:
        fail("the augmentation is not onto the module")
    for i in range(1, top + 1):
        if any(compose(f, diffs[i - 1], diffs[i])):
            fail(f"d o d != 0 at degree {i}")
    for i in range(top):
        if h[i]:
            fail(f"not exact at degree {i}")
    if any(compose(f, diffs[top], [v.items() for v in kvecs])) or not (
            h[top] == len(kvecs) == sparse_rank(kvecs, dims[top], f)):
        fail(f"the syzygy in degree {top} is not the kernel" if kvecs
             else "the top differential is not injective")
    try:
        res.check_minimal(top)
    except InternalCheckError as e:
        fail(e)


def projective_dimension(m, cap, seed=0):
    """Projective dimension with a three-valued verdict.

    Terminating resolution gives finite(d), after _check_resolution has
    certified the resolution as minimal, so that d is pd M; two isomorphic
    syzygies i < j within the cap give infinite with a re-checkable
    witness, after _check_resolution has certified the resolution up to
    degree j - 1 and the syzygy kernels[j - 1] as the kernel there;
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
                _check_resolution(res, j - 1)
                cert["periodic_pair"] = (i, j)
                return PdVerdict("infinite", witness=(i, j, wit), certificate=cert)
    return PdVerdict("undetermined", cap=cap, certificate=cert)


class ChainComplex:
    """A finite chain complex of modules; d_i : C_i -> C_{i-1}.

    d o d = 0 is verified exactly at construction, and each differential
    must intertwine the actions (checked on algebra generators).
    """

    __slots__ = ("modules", "diffs")

    def __init__(self, modules, diffs):
        self.modules = dict(modules)
        self.diffs = dict(diffs)
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
