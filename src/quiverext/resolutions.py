"""Minimal projective resolutions, syzygies, Tor, Ext, projective dimension.

Resolutions are built by iterated projective covers. Internally a cover
target lives inside the previous projective (or inside the resolved module
at the start), so syzygies are tracked as explicit kernel subspaces and the
only dense linear algebra per step is one kernel computation; module action
matrices for syzygies are materialized only on demand.

Each differential is also stored in "algebra form": the map
+ A e_{s(c)} -> + A e_{s(r)} is right multiplication by elements
w[c][r] in e_{s(c)} A e_{s(r)}. Tensoring with a module N then collapses
each summand A e_s to the slice e_s N and each block to the action of w
on N, which is what makes Tor and Ext over the big enveloping algebras
cheap once the resolution is known.
"""

from .errors import InternalCheckError, ValidationError
from .linalg import EchelonSpan, Matrix
from .modules import (Module, ModuleMap, direct_sum, is_isomorphic,
                      projective_data, simple_modules)
from .algebra import opposite


class _ProjectiveAmbient:
    """Direct sum of projectives A e_s with sparse action application."""

    __slots__ = ("algebra", "summands", "offsets", "dim")

    def __init__(self, algebra, summands):
        self.algebra = algebra
        self.summands = tuple(summands)
        offs = []
        off = 0
        for s in summands:
            offs.append(off)
            off += projective_data(algebra, s).basis.dim
        self.offsets = tuple(offs)
        self.dim = off

    def apply_basis(self, u, vec):
        """Apply the algebra basis element b_u."""
        f = self.algebra.field
        out = [f.zero] * self.dim
        for s, off in zip(self.summands, self.offsets):
            triples = projective_data(self.algebra, s).sparse_action[u]
            for r, c, v in triples:
                x = vec[off + c]
                if not f.is_zero(x):
                    out[off + r] = f.add(out[off + r], f.mul(v, x))
        return out

    def apply_elem(self, avec, vec):
        f = self.algebra.field
        out = [f.zero] * self.dim
        for u, cu in enumerate(avec):
            if f.is_zero(cu):
                continue
            img = self.apply_basis(u, vec)
            for t in range(self.dim):
                if not f.is_zero(img[t]):
                    out[t] = f.add(out[t], f.mul(cu, img[t]))
        return out

    def module(self):
        mods = [projective_data(self.algebra, s).module for s in self.summands]
        if not mods:
            from .modules import zero_module
            return zero_module(self.algebra)
        return direct_sum(mods)


class _ModuleAmbient:
    """The resolved module itself, as the degree-minus-one ambient."""

    __slots__ = ("module", "dim")

    def __init__(self, module):
        self.module = module
        self.dim = module.dim

    def apply_basis(self, u, vec):
        return list(self.module.action[u].apply(vec))

    def apply_elem(self, avec, vec):
        return list(self.module.act(avec, vec))


class Resolution:
    """A minimal projective resolution, possibly truncated at a cap.

    Degrees run 0, 1, 2, ...; gens[i] lists the idempotent index of each
    indecomposable summand of P_i. diffs[0] is the augmentation onto the
    module; diffs[i] maps P_i into P_{i-1}. kernels[i] spans the syzygy
    inside P_i. terminated means some kernel was zero within the cap.
    """

    __slots__ = ("module", "gens", "diffs", "w_blocks", "kernels",
                 "kernel_free", "terminated", "cap")

    def __init__(self, module, cap):
        self.module = module
        self.gens = []
        self.diffs = []
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
        return _ProjectiveAmbient(self.module.algebra, self.gens[i]).module()

    def syzygy_module(self, t):
        """Materialize the t-th syzygy as a Module (t >= 1)."""
        if t < 1:
            raise ValidationError("syzygies are indexed from 1 here")
        if t - 1 >= len(self.kernels):
            raise ValidationError("resolution not computed that far")
        a = self.module.algebra
        f = a.field
        cols = self.kernels[t - 1]
        free = self.kernel_free[t - 1]
        if not cols:
            from .modules import zero_module
            return zero_module(a)
        amb = _ProjectiveAmbient(a, self.gens[t - 1])
        d = len(cols)
        action = []
        for u in range(a.dim):
            acts = []
            for col in cols:
                img = amb.apply_basis(u, col)
                coords = [img[fi] for fi in free]
                acts.append(coords)
                # exactness of the coordinate extraction is a consistency check
                resid = list(img)
                for c, kcol in zip(coords, cols):
                    if not f.is_zero(c):
                        for t2 in range(amb.dim):
                            resid[t2] = f.sub(resid[t2], f.mul(c, kcol[t2]))
                if any(not f.is_zero(x) for x in resid):
                    raise InternalCheckError("syzygy not closed under the action")
            action.append(Matrix.from_cols(f, acts, nrows=d))
        return Module(a, action, validate=False)

    def check_minimal(self):
        """Every differential block lands in the radical."""
        a = self.module.algebra
        for blocks in self.w_blocks:
            if blocks is None:
                continue
            for col in blocks:
                for w in col:
                    if w is not None and not a.in_radical(w):
                        raise InternalCheckError("resolution is not minimal")
        return True


def _cover_step(algebra, ambient, current_cols):
    """One projective cover: returns (gen_idempotents, gen_vectors).

    current_cols spans a submodule of the ambient; generators are chosen
    idempotent-homogeneous lifts of a basis of the top (Nakayama)."""
    f = algebra.field
    span = EchelonSpan(f, ambient.dim)
    rad_rows = algebra.radical_basis().rows
    for v in current_cols:
        for r in rad_rows:
            span.insert(ambient.apply_elem(r, v))
    gens = []
    for s in range(len(algebra.idempotents)):
        e = algebra.idempotents[s]
        for v in current_cols:
            u = ambient.apply_elem(e, v)
            if span.insert(u):
                gens.append((s, tuple(u)))
    if span.rank != len(current_cols):
        raise InternalCheckError("cover generators do not span the target")
    return gens


def _build_differential(algebra, ambient, gens):
    """Matrix of + A e_s -> ambient sending the generator of each summand
    to its chosen vector, together with per-generator images of all basis
    elements (used to read off the algebra-form blocks)."""
    f = algebra.field
    cols = []
    for s, g in gens:
        data = projective_data(algebra, s)
        imgs = [ambient.apply_basis(u, g) for u in range(algebra.dim)]
        for brow in data.basis.rows:
            col = [f.zero] * ambient.dim
            for u, cu in enumerate(brow):
                if f.is_zero(cu):
                    continue
                img = imgs[u]
                for t in range(ambient.dim):
                    if not f.is_zero(img[t]):
                        col[t] = f.add(col[t], f.mul(cu, img[t]))
            cols.append(col)
    return Matrix.from_cols(f, cols, nrows=ambient.dim)


def _w_blocks(algebra, prev_gens, prev_offsets, gens):
    """Algebra-form blocks w[c][r] in e_{s(c)} A e_{s(r)} of a differential."""
    f = algebra.field
    blocks = []
    for s, g in gens:
        col = []
        for (sr, _), off in zip(prev_gens, prev_offsets):
            data = projective_data(algebra, sr)
            d = data.basis.dim
            comp = g[off:off + d]
            w = [f.zero] * algebra.dim
            nonzero = False
            for t, c in enumerate(comp):
                if f.is_zero(c):
                    continue
                nonzero = True
                row = data.basis.rows[t]
                for u in range(algebra.dim):
                    if not f.is_zero(row[u]):
                        w[u] = f.add(w[u], f.mul(c, row[u]))
            col.append(tuple(w) if nonzero else None)
        blocks.append(col)
    return blocks


def _kernel_with_free(mat):
    """Kernel columns of mat plus the free-coordinate indices; the free
    coordinates give cheap coordinates inside the kernel."""
    from .linalg import rref
    r = rref(mat)
    f = mat.field
    pivot_set = set(r.pivots)
    free = [j for j in range(mat.ncols) if j not in pivot_set]
    cols = []
    for fc in free:
        v = [f.zero] * mat.ncols
        v[fc] = f.one
        for i, p in enumerate(r.pivots):
            v[p] = f.neg(r.reduced.rows[i][fc])
        cols.append(tuple(v))
    return cols, free


def minimal_resolution(m, cap):
    """Minimal projective resolution of a left module, to length <= cap."""
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    a = m.algebra
    f = a.field
    res = Resolution(m, cap)
    ambient = _ModuleAmbient(m)
    current = [tuple(_unit(f, m.dim, i)) for i in range(m.dim)]
    prev_gens = None
    prev_offsets = None
    for degree in range(cap + 1):
        gens = _cover_step(a, ambient, current)
        diff = _build_differential(a, ambient, gens)
        res.gens.append([s for s, _ in gens])
        res.diffs.append(diff)
        if degree == 0:
            res.w_blocks.append(None)
        else:
            res.w_blocks.append(_w_blocks(a, prev_gens, prev_offsets, gens))
        kcols, kfree = _kernel_with_free(diff)
        res.kernels.append(kcols)
        res.kernel_free.append(kfree)
        if not kcols:
            res.terminated = True
            break
        new_amb = _ProjectiveAmbient(a, [s for s, _ in gens])
        offsets = new_amb.offsets
        prev_gens = gens
        prev_offsets = offsets
        ambient = new_amb
        current = kcols
    return res


def _unit(f, n, i):
    v = [f.zero] * n
    v[i] = f.one
    return v


def projective_cover(m):
    """Projective cover as (projective module, epimorphism)."""
    a = m.algebra
    ambient = _ModuleAmbient(m)
    current = [tuple(_unit(a.field, m.dim, i)) for i in range(m.dim)]
    gens = _cover_step(a, ambient, current)
    diff = _build_differential(a, ambient, gens)
    p = _ProjectiveAmbient(a, [s for s, _ in gens]).module()
    return p, ModuleMap(p, m, diff, validate=False)


def syzygy(m, t, cap=None):
    """The t-th syzygy; t = 0 returns the module itself."""
    if t == 0:
        return m
    res = minimal_resolution(m, t if cap is None else cap)
    if t - 1 >= len(res.kernels):
        from .modules import zero_module
        return zero_module(m.algebra)
    return res.syzygy_module(t)


def is_projective(m):
    """Projectivity via the cover: projective iff the cover kernel is zero."""
    if m.dim == 0:
        return True
    a = m.algebra
    ambient = _ModuleAmbient(m)
    current = [tuple(_unit(a.field, m.dim, i)) for i in range(m.dim)]
    gens = _cover_step(a, ambient, current)
    p_dim = sum(projective_data(a, s).basis.dim for s, _ in gens)
    if p_dim != m.dim:
        return False
    diff = _build_differential(a, ambient, gens)
    from .linalg import rank
    return rank(diff) == m.dim


class _Slice:
    """The slice e_s . N of a module, with coordinates."""

    __slots__ = ("basis",)

    def __init__(self, module, s_vec):
        f = module.algebra.field
        span = EchelonSpan(f, module.dim)
        for j in range(module.dim):
            span.insert(module.act(s_vec, _unit(f, module.dim, j)))
        self.basis = span.reduced_basis()

    @property
    def dim(self):
        return self.basis.dim


def _slice_of(n, algebra_of_w, s):
    key = ("slice", algebra_of_w, s)
    if key not in n._cache:
        e = algebra_of_w.idempotents[s]
        n._cache[key] = _Slice(n, e)
    return n._cache[key]


def _tensored_complex(res, n, base_algebra, top_degree):
    """Terms and differentials of (resolution) (x)_B N in slice coordinates.

    res is a minimal resolution over B^op (or B); each summand A e_s becomes
    the slice e_s N and each algebra-form block acts through N's action.
    Returns (dims, list of matrices d_i: T_i -> T_{i-1})."""
    f = n.algebra.field
    terms = []
    for i in range(min(top_degree, len(res.gens) - 1) + 1):
        terms.append([_slice_of(n, base_algebra, s) for s in res.gens[i]])
    mats = []
    for i in range(1, len(terms)):
        rows = sum(sl.dim for sl in terms[i - 1])
        cols = sum(sl.dim for sl in terms[i])
        mat = [[f.zero] * cols for _ in range(rows)]
        blocks = res.w_blocks[i]
        coff = 0
        for c, col_blocks in enumerate(blocks):
            csl = terms[i][c]
            roff = 0
            for r, w in enumerate(col_blocks):
                rsl = terms[i - 1][r]
                if w is not None and csl.dim and rsl.dim:
                    for cc in range(csl.dim):
                        img = n.act(w, csl.basis.rows[cc])
                        coords = rsl.basis.coords(img)
                        if coords is None:
                            raise InternalCheckError("tensored block leaves its slice")
                        for rr, v in enumerate(coords):
                            if not f.is_zero(v):
                                mat[roff + rr][coff + cc] = v
                roff += rsl.dim
            coff += csl.dim
        m = Matrix(f, mat) if mat else Matrix.zeros(f, rows, cols)
        m.ncols = cols
        mats.append(m)
    dims = [sum(sl.dim for sl in t) for t in terms]
    return dims, mats


def tor(m_right, n_left, i_max, resolve="first"):
    """Tor_i^B(M, N) dimensions for i = 0..i_max.

    m_right is a right B-module presented as a left module over B^op;
    n_left is a left B-module. The resolution is computed to length
    i_max + 1 so the top homology is exact. resolve picks which argument
    is resolved; the two must agree degreewise (a test-suite property).
    """
    b = n_left.algebra
    bop = m_right.algebra
    if bop is not opposite(b):
        raise ValidationError("tor arguments must be a right and a left module "
                              "over the same algebra")
    if resolve == "first":
        res = minimal_resolution(m_right, i_max + 1)
        dims, mats = _tensored_complex(res, n_left, bop, i_max + 1)
    elif resolve == "second":
        res = minimal_resolution(n_left, i_max + 1)
        dims, mats = _tensored_complex(res, m_right, b, i_max + 1)
    else:
        raise ValidationError("resolve must be 'first' or 'second'")
    return _homology_dims(dims, mats, i_max)


def _homology_dims(dims, mats, i_max):
    from .linalg import rank
    ranks = [rank(m) for m in mats]
    out = []
    for i in range(i_max + 1):
        if i >= len(dims):
            out.append(0)
            continue
        di = ranks[i - 1] if i - 1 >= 0 and i - 1 < len(ranks) else 0
        di1 = ranks[i] if i < len(ranks) else 0
        out.append(dims[i] - di - di1)
    return out


def ext(m, n, i_max):
    """Ext^i_A(M, N) dimensions for i = 0..i_max (left modules)."""
    if m.algebra is not n.algebra:
        raise ValidationError("ext arguments over different algebras")
    a = m.algebra
    f = a.field
    res = minimal_resolution(m, i_max + 1)
    top = min(i_max + 1, len(res.gens) - 1)
    terms = []
    for i in range(top + 1):
        terms.append([_slice_of(n, a, s) for s in res.gens[i]])
    mats = []  # delta_i: Hom(P_{i-1}, N) -> Hom(P_i, N)
    for i in range(1, top + 1):
        rows = sum(sl.dim for sl in terms[i])
        cols = sum(sl.dim for sl in terms[i - 1])
        mat = [[f.zero] * cols for _ in range(rows)]
        blocks = res.w_blocks[i]
        roff = 0
        for c, col_blocks in enumerate(blocks):
            csl = terms[i][c]
            coff = 0
            for r, w in enumerate(col_blocks):
                rsl = terms[i - 1][r]
                if w is not None and csl.dim and rsl.dim:
                    for cc in range(rsl.dim):
                        img = n.act(w, rsl.basis.rows[cc])
                        coords = csl.basis.coords(img)
                        if coords is None:
                            raise InternalCheckError("hom block leaves its slice")
                        for rr, v in enumerate(coords):
                            if not f.is_zero(v):
                                mat[roff + rr][coff + cc] = v
                coff += rsl.dim
            roff += csl.dim
        mm = Matrix(f, mat) if mat else Matrix.zeros(f, rows, cols)
        mm.ncols = cols
        mats.append(mm)
    from .linalg import rank
    ranks = [rank(mm) for mm in mats]
    dims = [sum(sl.dim for sl in t) for t in terms]
    out = []
    for i in range(i_max + 1):
        if i >= len(dims):
            out.append(0)
            continue
        dprev = ranks[i - 1] if i - 1 >= 0 and i - 1 < len(ranks) else 0
        dnext = ranks[i] if i < len(ranks) else 0
        out.append(dims[i] - dprev - dnext)
    return out


class PdVerdict:
    """Outcome of a projective dimension computation.

    kind is 'finite' (value set), 'infinite' (periodicity witness
    (i, j, matrix) recorded) or 'undetermined' (cap reached). The
    certificate carries the resolution term dimensions either way.
    """

    __slots__ = ("kind", "value", "witness", "cap", "certificate")

    def __init__(self, kind, value=None, witness=None, cap=None, certificate=None):
        self.kind = kind
        self.value = value
        self.witness = witness
        self.cap = cap
        self.certificate = certificate or {}

    @property
    def finite(self):
        return self.kind == "finite"

    def __repr__(self):
        if self.kind == "finite":
            return f"PdVerdict(finite {self.value})"
        if self.kind == "infinite":
            return f"PdVerdict(infinite, witness at {self.witness[:2]})"
        return f"PdVerdict(undetermined at cap {self.cap})"


def projective_dimension(m, cap, seed=0, crosscheck=True):
    """Projective dimension with a three-valued verdict.

    Terminating resolution gives finite(d); two isomorphic syzygies within
    the cap give infinite with a re-checkable witness; otherwise
    undetermined at the cap. When finite, the value is cross-checked
    against max{ i : Tor_i(A/rad, M) != 0 } computed by resolving the
    semisimple right module independently.
    """
    a = m.algebra
    res = minimal_resolution(m, cap)
    cert = {"term_dims": res.term_dims()}
    if res.terminated:
        d = res.length
        if m.dim == 0:
            d = 0
        if crosscheck and m.dim:
            sem = direct_sum(simple_modules(opposite(a)))
            tdims = tor(sem, m, d + 1)
            top = max((i for i, v in enumerate(tdims) if v), default=0)
            if top != d:
                raise InternalCheckError(
                    f"pd cross-check failed: resolution says {d}, Tor says {top}")
        return PdVerdict("finite", value=d, certificate=cert)
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
            if up is not None:
                comp = d.matrix.mul(up.matrix)
                if not comp.is_zero():
                    raise ValidationError(f"d o d != 0 at degree {i + 1}")

    def degrees(self):
        return sorted(self.modules)

    def homology(self):
        """Dimension of homology at each degree."""
        from .linalg import rank
        out = {}
        for i in self.degrees():
            dim = self.modules[i].dim
            din = self.diffs.get(i)
            dout = self.diffs.get(i + 1)
            r_in = rank(din.matrix) if din is not None else 0
            r_out = rank(dout.matrix) if dout is not None else 0
            out[i] = dim - r_in - r_out
        return out

    def is_exact(self):
        return all(v == 0 for v in self.homology().values())

    def euler_characteristic(self):
        total = 0
        for i in self.degrees():
            total += (1 if i % 2 == 0 else -1) * self.modules[i].dim
        return total
