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
from .linalg import (EchelonSpan, Matrix, linear_combination, null_space,
                     unit_vector)
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
                if x:
                    out[off + r] = f.add(out[off + r], f.mul(v, x))
        return out

    def apply_elem(self, avec, vec):
        return linear_combination(
            self.algebra.field,
            [(cu, self.apply_basis(u, vec)) for u, cu in enumerate(avec) if cu],
            self.dim)

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
        return self.module.act(avec, vec)


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
                if linear_combination(a.field, zip(coords, cols),
                                      amb.dim) != tuple(img):
                    raise InternalCheckError("syzygy not closed under the action")
            action.append(Matrix.from_cols(a.field, acts, nrows=d))
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
            cols.append(linear_combination(f, zip(brow, imgs), ambient.dim))
    return Matrix.from_cols(f, cols, nrows=ambient.dim)


def _w_blocks(algebra, prev_gens, prev_offsets, gens):
    """Algebra-form blocks w[c][r] in e_{s(c)} A e_{s(r)} of a differential."""
    blocks = []
    for s, g in gens:
        col = []
        for (sr, _), off in zip(prev_gens, prev_offsets):
            basis = projective_data(algebra, sr).basis
            comp = g[off:off + basis.dim]
            col.append(basis.combine(comp) if any(comp) else None)
        blocks.append(col)
    return blocks


def minimal_resolution(m, cap):
    """Minimal projective resolution of a left module, to length <= cap."""
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    a = m.algebra
    res = Resolution(m, cap)
    ambient = _ModuleAmbient(m)
    current = [unit_vector(a.field, m.dim, i) for i in range(m.dim)]
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
        kcols, kfree = null_space(diff)
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


def projective_cover(m):
    """Projective cover as (projective module, epimorphism)."""
    a = m.algebra
    ambient = _ModuleAmbient(m)
    current = [unit_vector(a.field, m.dim, i) for i in range(m.dim)]
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
    current = [unit_vector(a.field, m.dim, i) for i in range(m.dim)]
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
            span.insert(module.act(s_vec, unit_vector(f, module.dim, j)))
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


def _apply_to_resolution(res, n, base_algebra, top_degree, contravariant):
    """The resolution tensored with N (covariant: res (x)_B N, for Tor) or
    mapped into N (contravariant: Hom_B(res, N), for Ext), in slice
    coordinates, up to degree top_degree.

    res is a minimal resolution over B^op (or B); each summand A e_s becomes
    the slice e_s N and each algebra-form block w acts through N's action:
    covariantly from the slice of the degree-i summand to that of the
    degree-(i-1) summand, contravariantly the other way. Returns (term
    dims, [map between degrees i - 1 and i for i = 1, 2, ...])."""
    f = n.algebra.field
    terms = [[_slice_of(n, base_algebra, s) for s in res.gens[i]]
             for i in range(min(top_degree, len(res.gens) - 1) + 1)]
    dims = [sum(sl.dim for sl in t) for t in terms]
    mats = []
    for i in range(1, len(terms)):
        src_dim, dst_dim = ((dims[i - 1], dims[i]) if contravariant
                            else (dims[i], dims[i - 1]))
        mat = [[f.zero] * src_dim for _ in range(dst_dim)]
        hi_off = 0
        for c, col_blocks in enumerate(res.w_blocks[i]):
            lo_off = 0
            for r, w in enumerate(col_blocks):
                src, s_off = terms[i][c], hi_off
                dst, d_off = terms[i - 1][r], lo_off
                lo_off += dst.dim
                if contravariant:
                    src, s_off, dst, d_off = dst, d_off, src, s_off
                if w is None or not src.dim or not dst.dim:
                    continue
                for cc, x in enumerate(src.basis.rows):
                    coords = dst.basis.coords(n.act(w, x))
                    if coords is None:
                        raise InternalCheckError(
                            "hom block leaves its slice" if contravariant
                            else "tensored block leaves its slice")
                    for rr, v in enumerate(coords):
                        if v:
                            mat[d_off + rr][s_off + cc] = v
            hi_off += terms[i][c].dim
        mats.append(Matrix(f, mat, src_dim))
    return dims, mats


def homology_dims(dims, ranks):
    """Homology dimension at each degree of a complex with terms of
    dimension dims[i], where ranks[i] is the rank of the map between
    degrees i - 1 and i (in either direction; absent means zero)."""
    return {i: d - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i, d in dims.items()}


def _derived_dims(res, n, base_algebra, i_max, contravariant):
    """Tor (covariant) or Ext (contravariant) dimensions for i = 0..i_max,
    from a resolution computed to length i_max + 1."""
    from .linalg import rank
    dims, mats = _apply_to_resolution(res, n, base_algebra, i_max + 1,
                                      contravariant)
    h = homology_dims(dict(enumerate(dims)),
                      {i: rank(m) for i, m in enumerate(mats, 1)})
    return [h.get(i, 0) for i in range(i_max + 1)]


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
        return _derived_dims(res, n_left, bop, i_max, contravariant=False)
    if resolve == "second":
        res = minimal_resolution(n_left, i_max + 1)
        return _derived_dims(res, m_right, b, i_max, contravariant=False)
    raise ValidationError("resolve must be 'first' or 'second'")


def ext(m, n, i_max):
    """Ext^i_A(M, N) dimensions for i = 0..i_max (left modules)."""
    if m.algebra is not n.algebra:
        raise ValidationError("ext arguments over different algebras")
    res = minimal_resolution(m, i_max + 1)
    return _derived_dims(res, n, m.algebra, i_max, contravariant=True)


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
                if any(map(any, comp.rows)):
                    raise ValidationError(f"d o d != 0 at degree {i + 1}")

    def degrees(self):
        return sorted(self.modules)

    def homology(self):
        """Dimension of homology at each degree."""
        from .linalg import rank
        ranks = {i: rank(d.matrix) for i, d in self.diffs.items()}
        return homology_dims({i: self.modules[i].dim for i in self.degrees()},
                             ranks)

    def is_exact(self):
        return all(v == 0 for v in self.homology().values())

    def euler_characteristic(self):
        total = 0
        for i in self.degrees():
            total += (1 if i % 2 == 0 else -1) * self.modules[i].dim
        return total
