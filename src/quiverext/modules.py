"""Modules and bimodules as exact matrix representations.

A Module is a finitely generated left module: one action matrix per
algebra basis element. Right modules are left modules over the opposite
algebra. A Bimodule stores one action family per side and exposes the
equivalent left module over the tensor algebra L (x) R^op on demand;
storing the sides separately keeps validation and tensor products cheap.

Tensor products over an algebra are computed as explicit coequalizers:
(M (x)_k N) / span{ m.b (x) n - m (x) b.n }, with b running over an
algebra generating set (idempotents plus radical generators), which spans
the same relation subspace as all of B.
"""

from .errors import FieldMismatchError, ValidationError
from .linalg import (EchelonSpan, Matrix, kernel_basis, nonzero_pairs, rank,
                     solve_linear)
from .algebra import opposite, tensor_algebra


class Module:
    """Left module over a fixed algebra, given by dense action matrices."""

    __slots__ = ("algebra", "dim", "action", "_cache")

    def __init__(self, algebra, action, validate=True, full_check=False):
        self.algebra = algebra
        self.action = tuple(action)
        if len(self.action) != algebra.dim:
            raise ValidationError("need one action matrix per basis element")
        self.dim = self.action[0].nrows if self.action else 0
        for m in self.action:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ValidationError("action matrices must be square of module dim")
        self._cache = {}
        if validate and algebra.dim:
            self.validate(full=full_check)

    def act(self, vec, x):
        """Action of the algebra element with coordinates `vec`."""
        f = self.algebra.field
        out = [f.zero] * self.dim
        for i, c in enumerate(vec):
            if f.is_zero(c):
                continue
            col = self.action[i].apply(x)
            for t in range(self.dim):
                if not f.is_zero(col[t]):
                    out[t] = f.add(out[t], f.mul(c, col[t]))
        return tuple(out)

    def act_matrix(self, vec):
        f = self.algebra.field
        out = Matrix.zeros(f, self.dim, self.dim)
        acc = [[f.zero] * self.dim for _ in range(self.dim)]
        for i, c in enumerate(vec):
            if f.is_zero(c):
                continue
            rows = self.action[i].rows
            for r in range(self.dim):
                row = rows[r]
                arow = acc[r]
                for s in range(self.dim):
                    if not f.is_zero(row[s]):
                        arow[s] = f.add(arow[s], f.mul(c, row[s]))
        m = Matrix(f, acc) if acc else Matrix.zeros(f, 0, 0)
        m.ncols = self.dim
        return m

    def validate(self, full=False):
        a = self.algebra
        f = a.field
        if self.dim == 0:
            return
        ident = Matrix.identity(f, self.dim)
        if self.act_matrix(a.unit) != ident:
            raise ValidationError("unit does not act as the identity")
        pairs = []
        if full:
            pairs = [(a.basis_vector(i), a.basis_vector(j))
                     for i in range(a.dim) for j in range(a.dim)]
        else:
            gens = a.generators()
            pairs = [(g, h) for g in gens for h in gens]
        for x, y in pairs:
            lhs = self.act_matrix(x).mul(self.act_matrix(y))
            rhs = self.act_matrix(a.multiply(x, y))
            if lhs != rhs:
                raise ValidationError("module action is not multiplicative")

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


class ModuleMap:
    """A homomorphism of left modules, stored as a dim(target) x dim(source)
    matrix; intertwining is verified on an algebra generating set."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, validate=True):
        if source.algebra is not target.algebra:
            raise ValidationError("module map between modules over different algebras")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValidationError("module map matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            self.validate()

    def validate(self):
        for g in self.source.algebra.generators():
            lhs = self.matrix.mul(self.source.act_matrix(g))
            rhs = self.target.act_matrix(g).mul(self.matrix)
            if lhs != rhs:
                raise ValidationError("matrix does not intertwine the actions")

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def zero_module(algebra):
    return Module(algebra, [Matrix.zeros(algebra.field, 0, 0)] * algebra.dim,
                  validate=False)


def left_regular_module(algebra):
    if "left_regular" not in algebra._cache:
        action = [algebra.left_mult_matrix(algebra.basis_vector(i))
                  for i in range(algebra.dim)]
        algebra._cache["left_regular"] = Module(algebra, action, validate=False)
    return algebra._cache["left_regular"]


def right_regular_module(algebra):
    """The right regular module, as a left module over the opposite algebra."""
    if "right_regular" not in algebra._cache:
        action = [algebra.right_mult_matrix(algebra.basis_vector(i))
                  for i in range(algebra.dim)]
        algebra._cache["right_regular"] = Module(opposite(algebra), action,
                                                 validate=False)
    return algebra._cache["right_regular"]


def direct_sum(modules):
    if not modules:
        raise ValidationError("empty direct sum needs an algebra; use zero_module")
    a = modules[0].algebra
    f = a.field
    for m in modules:
        if m.algebra is not a:
            raise ValidationError("direct sum over mixed algebras")
    total = sum(m.dim for m in modules)
    action = []
    for i in range(a.dim):
        big = [[f.zero] * total for _ in range(total)]
        off = 0
        for m in modules:
            rows = m.action[i].rows
            for r in range(m.dim):
                row = rows[r]
                for c in range(m.dim):
                    if not f.is_zero(row[c]):
                        big[off + r][off + c] = row[c]
            off += m.dim
        mat = Matrix(f, big) if big else Matrix.zeros(f, 0, 0)
        mat.ncols = total
        action.append(mat)
    return Module(a, action, validate=False)


class _ProjectiveData:
    """Cached data for the projective A e_s: a reduced basis of its
    underlying subspace of A and sparse action matrices."""

    __slots__ = ("basis", "module", "sparse_action", "gen_coords")

    def __init__(self, basis, module, sparse_action, gen_coords):
        self.basis = basis
        self.module = module
        self.sparse_action = sparse_action
        self.gen_coords = gen_coords


def projective_data(algebra, s):
    key = ("proj", s)
    if key in algebra._cache:
        return algebra._cache[key]
    f = algebra.field
    e = algebra.idempotents[s]
    one, es = f.one, nonzero_pairs(f, e)
    span = EchelonSpan(f, algebra.dim)
    for j in range(algebra.dim):
        prod = algebra.sparse_multiply(((j, one),), es)
        if prod:
            span.insert(algebra.dense(prod))
    rb = span.reduced_basis()
    d = rb.dim
    sparse = []
    action = []
    for i in range(algebra.dim):
        bi = ((i, one),)
        cols = []
        triples = []
        for c, row in enumerate(rb.sparse_rows):
            coords = rb.sparse_coords(algebra.sparse_multiply(bi, row))
            if coords is None:
                raise ValidationError("projective module not closed under action")
            col = [f.zero] * d
            for r, v in sorted(coords.items()):
                col[r] = v
                triples.append((r, c, v))
            cols.append(col)
        mat = Matrix.from_cols(f, cols, nrows=d)
        action.append(mat)
        sparse.append(tuple(triples))
    module = Module(algebra, action, validate=False)
    gen_coords = rb.coords(e)
    if gen_coords is None:
        raise ValidationError("idempotent not inside its own projective")
    data = _ProjectiveData(rb, module, tuple(sparse), tuple(gen_coords))
    algebra._cache[key] = data
    return data


def projective_indecomposables(algebra):
    """The modules A e_s, one per primitive idempotent."""
    return [projective_data(algebra, s).module
            for s in range(len(algebra.idempotents))]


def simple_top_coefficients(algebra):
    """Matrix C with C[s][j] = the e_s-component of b_j modulo the radical;
    column j gives the action of b_j on each simple module."""
    if "simple_coeffs" in algebra._cache:
        return algebra._cache["simple_coeffs"]
    f = algebra.field
    rb = algebra.radical_basis()
    r = len(algebra.idempotents)
    # express b_j mod rad over the idempotent classes: b_j - sum c_s e_s in rad
    cols = []
    for j in range(algebra.dim):
        target = Matrix.from_cols(f, [algebra.basis_vector(j)], nrows=algebra.dim)
        gens = [list(e) for e in algebra.idempotents]
        for row in rb.rows:
            gens.append(list(row))
        amat = Matrix.from_cols(f, gens, nrows=algebra.dim)
        sol = solve_linear(amat, target)
        if sol is None:
            raise ValidationError("basis element not in idempotents + radical span")
        cols.append([sol[i, 0] for i in range(r)])
    out = Matrix.from_cols(f, cols, nrows=r)
    algebra._cache["simple_coeffs"] = out
    return out


def simple_module(algebra, s):
    key = ("simple", s)
    if key not in algebra._cache:
        f = algebra.field
        coeffs = simple_top_coefficients(algebra)
        action = [Matrix(f, [[coeffs[s, j]]]) for j in range(algebra.dim)]
        algebra._cache[key] = Module(algebra, action, validate=False)
    return algebra._cache[key]


def simple_modules(algebra):
    return [simple_module(algebra, s) for s in range(len(algebra.idempotents))]


def dual_module(m):
    """k-linear dual: a left module over the opposite algebra, with the
    transposed action matrices in the dual basis."""
    opp = opposite(m.algebra)
    return Module(opp, [a.transpose() for a in m.action], validate=False)


def restrict_along(f_matrix, b, m):
    """Restrict a module over A to B along an algebra map B -> A given by
    `f_matrix` (dim A x dim B)."""
    if m.algebra.field != b.field:
        raise FieldMismatchError("fields differ")
    action = []
    for j in range(b.dim):
        img = f_matrix.apply(b.basis_vector(j))
        action.append(m.act_matrix(img))
    return Module(b, action, validate=False)


def hom_space(m, n):
    """A basis of Hom_A(m, n) as a list of ModuleMaps.

    Solves the intertwining equations against an algebra generating set,
    which pins down the same space as the full basis would.
    """
    if m.algebra is not n.algebra:
        raise ValidationError("hom between modules over different algebras")
    f = m.algebra.field
    md, nd = m.dim, n.dim
    if md == 0 or nd == 0:
        return []
    unknowns = nd * md  # X[i][j] -> i * md + j
    rows = []
    for g in m.algebra.generators():
        mg = m.act_matrix(g)
        ng = n.act_matrix(g)
        for i in range(nd):
            for j in range(md):
                row = [f.zero] * unknowns
                # (N_g X)[i,j] = sum_k N_g[i,k] X[k,j]
                for k in range(nd):
                    c = ng[i, k]
                    if not f.is_zero(c):
                        row[k * md + j] = f.add(row[k * md + j], c)
                # (X M_g)[i,j] = sum_k X[i,k] M_g[k,j]
                for k in range(md):
                    c = mg[k, j]
                    if not f.is_zero(c):
                        row[i * md + k] = f.sub(row[i * md + k], c)
                rows.append(row)
    system = Matrix(f, rows) if rows else Matrix.zeros(f, 0, unknowns)
    system.ncols = unknowns
    kb = kernel_basis(system)
    maps = []
    for c in range(kb.ncols):
        col = kb.col(c)
        mat = Matrix(f, [[col[i * md + j] for j in range(md)] for i in range(nd)])
        mat.ncols = md
        maps.append(ModuleMap(m, n, mat, validate=False))
    return maps


def is_isomorphic(m, n, seed=0, max_trials=40):
    """Three-valued isomorphism test.

    Returns (verdict, witness): verdict is "yes" with an exactly verified
    invertible intertwiner, "no" on a dimension or hom-space obstruction,
    or "unresolved" if the randomized search over integer combinations of
    the hom basis fails. A "yes" is always sound; "unresolved" is never
    silently turned into "no".
    """
    import random
    if m.algebra is not n.algebra:
        raise ValidationError("isomorphism test over different algebras")
    if m.dim != n.dim:
        return "no", None
    if m.dim == 0:
        return "yes", Matrix.zeros(m.algebra.field, 0, 0)
    basis = hom_space(m, n)
    if not basis:
        return "no", None
    f = m.algebra.field
    rng = random.Random(seed)
    # try the basis elements themselves first, then random combinations
    candidates = [[f.one if t == i else f.zero for t in range(len(basis))]
                  for i in range(len(basis))]
    p = f.characteristic
    for _ in range(max_trials):
        if p:
            candidates.append([f.of(rng.randrange(p)) for _ in basis])
        else:
            candidates.append([f.of(rng.randint(-3, 3)) for _ in basis])
    for coeffs in candidates:
        mat = Matrix.zeros(f, n.dim, m.dim)
        acc = [[f.zero] * m.dim for _ in range(n.dim)]
        for c, bm in zip(coeffs, basis):
            if f.is_zero(c):
                continue
            for i in range(n.dim):
                row = bm.matrix.rows[i]
                for j in range(m.dim):
                    if not f.is_zero(row[j]):
                        acc[i][j] = f.add(acc[i][j], f.mul(c, row[j]))
        mat = Matrix(f, acc)
        mat.ncols = m.dim
        if rank(mat) == m.dim:
            ModuleMap(m, n, mat, validate=True)
            return "yes", mat
    return "unresolved", None


class Bimodule:
    """An (L, R)-bimodule; either side may be absent (None).

    With both sides present this is the data of a left module over
    tensor_algebra(L, opposite(R)), available via as_env_module(). The
    left action is an algebra map, the right action an anti-map, and the
    two commute; validation checks this on generators.
    """

    __slots__ = ("left_alg", "right_alg", "dim", "left_action", "right_action",
                 "_cache")

    def __init__(self, left_alg, right_alg, dim, left_action, right_action,
                 validate=True):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_action = tuple(left_action) if left_action is not None else None
        self.right_action = tuple(right_action) if right_action is not None else None
        if (left_alg is None) != (self.left_action is None):
            raise ValidationError("left algebra and left action must come together")
        if (right_alg is None) != (self.right_action is None):
            raise ValidationError("right algebra and right action must come together")
        if left_alg is not None and right_alg is not None \
                and left_alg.field != right_alg.field:
            raise FieldMismatchError("bimodule sides over different fields")
        self._cache = {}
        if validate:
            self.validate()

    @property
    def field(self):
        if self.left_alg is not None:
            return self.left_alg.field
        if self.right_alg is not None:
            return self.right_alg.field
        raise ValidationError("bare vector space has no preferred field")

    @classmethod
    def from_left_module(cls, m):
        return cls(m.algebra, None, m.dim, m.action, None, validate=False)

    @classmethod
    def from_right_module(cls, m_over_opp, right_alg):
        """Wrap a left module over opposite(right_alg) as a right module."""
        if m_over_opp.algebra is not opposite(right_alg):
            raise ValidationError("expected a module over the opposite algebra")
        return cls(None, right_alg, m_over_opp.dim, None, m_over_opp.action,
                   validate=False)

    @classmethod
    def regular(cls, a):
        if "regular_bimodule" not in a._cache:
            left = [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
            right = [a.right_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
            a._cache["regular_bimodule"] = cls(a, a, a.dim, left, right,
                                               validate=False)
        return a._cache["regular_bimodule"]

    def validate(self, full=False):
        f = self.field
        if self.dim == 0:
            return
        ident = Matrix.identity(f, self.dim)

        def mat(family, vec):
            out = [[f.zero] * self.dim for _ in range(self.dim)]
            for i, c in enumerate(vec):
                if f.is_zero(c):
                    continue
                rows = family[i].rows
                for r in range(self.dim):
                    for s in range(self.dim):
                        if not f.is_zero(rows[r][s]):
                            out[r][s] = f.add(out[r][s], f.mul(c, rows[r][s]))
            m = Matrix(f, out)
            m.ncols = self.dim
            return m

        if self.left_alg is not None:
            a = self.left_alg
            if mat(self.left_action, a.unit) != ident:
                raise ValidationError("left unit does not act as identity")
            gens = [a.basis_vector(i) for i in range(a.dim)] if full else a.generators()
            for x in gens:
                for y in gens:
                    if mat(self.left_action, x).mul(mat(self.left_action, y)) != \
                            mat(self.left_action, a.multiply(x, y)):
                        raise ValidationError("left action not multiplicative")
        if self.right_alg is not None:
            b = self.right_alg
            if mat(self.right_action, b.unit) != ident:
                raise ValidationError("right unit does not act as identity")
            gens = [b.basis_vector(i) for i in range(b.dim)] if full else b.generators()
            for x in gens:
                for y in gens:
                    if mat(self.right_action, y).mul(mat(self.right_action, x)) != \
                            mat(self.right_action, b.multiply(x, y)):
                        raise ValidationError("right action not anti-multiplicative")
        if self.left_alg is not None and self.right_alg is not None:
            lg = self.left_alg.generators()
            rg = self.right_alg.generators()
            for x in lg:
                lx = mat(self.left_action, x)
                for y in rg:
                    ry = mat(self.right_action, y)
                    if lx.mul(ry) != ry.mul(lx):
                        raise ValidationError("left and right actions do not commute")

    def as_left_module(self):
        if self.left_alg is None:
            raise ValidationError("bimodule has no left structure")
        if "as_left" not in self._cache:
            self._cache["as_left"] = Module(self.left_alg, self.left_action,
                                            validate=False)
        return self._cache["as_left"]

    def as_right_module(self):
        """The right structure as a left module over opposite(right_alg)."""
        if self.right_alg is None:
            raise ValidationError("bimodule has no right structure")
        if "as_right" not in self._cache:
            self._cache["as_right"] = Module(opposite(self.right_alg),
                                             self.right_action, validate=False)
        return self._cache["as_right"]

    def env_algebra(self):
        return tensor_algebra(self.left_alg, opposite(self.right_alg))

    def as_env_module(self):
        """Left module over L (x) R^op: (x (x) y^op) . m = x m y."""
        if self.left_alg is None or self.right_alg is None:
            raise ValidationError("need both sides for the enveloping module")
        if "as_env" in self._cache:
            return self._cache["as_env"]
        env = self.env_algebra()
        nb = self.right_alg.dim
        action = []
        for i in range(self.left_alg.dim):
            li = self.left_action[i]
            for j in range(nb):
                action.append(li.mul(self.right_action[j]))
        mod = Module(env, action, validate=False)
        self._cache["as_env"] = mod
        return mod

    def as_opposite_env_module(self):
        """For an (A, A)-bimodule: the right module over A (x) A^op, i.e. a
        left module over the opposite enveloping algebra, where
        m . (x (x) y^op) = y m x."""
        if self.left_alg is None or self.right_alg is None \
                or self.left_alg is not self.right_alg:
            raise ValidationError("opposite enveloping view needs matching sides")
        if "as_opp_env" in self._cache:
            return self._cache["as_opp_env"]
        env_op = opposite(self.env_algebra())
        nb = self.right_alg.dim
        action = []
        for i in range(self.left_alg.dim):
            ri = self.right_action[i]
            for j in range(nb):
                action.append(self.left_action[j].mul(ri))
        mod = Module(env_op, action, validate=False)
        self._cache["as_opp_env"] = mod
        return mod

    def __repr__(self):
        l = self.left_alg.dim if self.left_alg else "-"
        r = self.right_alg.dim if self.right_alg else "-"
        return f"Bimodule(dim={self.dim}, left={l}, right={r})"


def tensor_over(x, y, validate=False, return_maps=False):
    """Tensor product over the middle algebra: x (x)_B y.

    x must carry a right B-structure and y a left B-structure. The result
    keeps whatever outer structures the inputs had. Dimension is computed
    exactly via the coequalizer quotient. With return_maps the projection
    and section between the pair space x (x)_k y and the quotient are
    returned as well.
    """
    if x.right_alg is None or y.left_alg is None:
        raise ValidationError("tensor_over needs a right structure and a left structure")
    if x.right_alg is not y.left_alg:
        if x.right_alg.field != y.left_alg.field or x.right_alg.dim != y.left_alg.dim \
                or x.right_alg.table != y.left_alg.table:
            raise ValidationError("middle algebras do not match")
    b = x.right_alg
    f = b.field
    mx, my = x.dim, y.dim
    amb = mx * my
    span = EchelonSpan(f, amb)
    for g in b.generators():
        # right action of g on x and left action of g on y
        rg_cols = [_family_apply(x.right_action, g, _unit_vec(f, mx, i), f)
                   for i in range(mx)]
        lg_cols = [_family_apply(y.left_action, g, _unit_vec(f, my, j), f)
                   for j in range(my)]
        for i in range(mx):
            ri = rg_cols[i]
            for j in range(my):
                lj = lg_cols[j]
                vec = [f.zero] * amb
                for t in range(mx):
                    if not f.is_zero(ri[t]):
                        vec[t * my + j] = ri[t]
                for t in range(my):
                    if not f.is_zero(lj[t]):
                        vec[i * my + t] = f.sub(vec[i * my + t], lj[t])
                span.insert(vec)
    rb = span.reduced_basis()
    pivot_set = set(rb.pivots)
    free = [t for t in range(amb) if t not in pivot_set]
    q = len(free)

    def project(vec):
        out = [f.zero] * q
        for t, fcol in enumerate(free):
            out[t] = vec[fcol]
        for i, p in enumerate(rb.pivots):
            c = vec[p]
            if not f.is_zero(c):
                row = rb.rows[i]
                for t, fcol in enumerate(free):
                    if not f.is_zero(row[fcol]):
                        out[t] = f.sub(out[t], f.mul(c, row[fcol]))
        return out

    left_action = None
    if x.left_alg is not None:
        left_action = []
        for i in range(x.left_alg.dim):
            li = x.left_action[i]
            cols = []
            for t in range(q):
                fcol = free[t]
                xi, yj = divmod(fcol, my)
                col = li.col(xi)
                vec = [f.zero] * amb
                for s in range(mx):
                    if not f.is_zero(col[s]):
                        vec[s * my + yj] = col[s]
                cols.append(project(vec))
            left_action.append(Matrix.from_cols(f, cols, nrows=q))
    right_action = None
    if y.right_alg is not None:
        right_action = []
        for i in range(y.right_alg.dim):
            ri = y.right_action[i]
            cols = []
            for t in range(q):
                fcol = free[t]
                xi, yj = divmod(fcol, my)
                col = ri.col(yj)
                vec = [f.zero] * amb
                for s in range(my):
                    if not f.is_zero(col[s]):
                        vec[xi * my + s] = col[s]
                cols.append(project(vec))
            right_action.append(Matrix.from_cols(f, cols, nrows=q))
    out = Bimodule(x.left_alg if left_action is not None else None,
                   y.right_alg if right_action is not None else None,
                   q, left_action, right_action, validate=validate)
    if return_maps:
        proj_cols = [project(_unit_list(f, amb, j)) for j in range(amb)]
        proj = Matrix.from_cols(f, proj_cols, nrows=q)
        sect_cols = []
        for t in range(q):
            vec = [f.zero] * amb
            vec[free[t]] = f.one
            sect_cols.append(vec)
        sect = Matrix.from_cols(f, sect_cols, nrows=amb)
        return out, proj, sect
    return out


def _unit_list(f, n, i):
    v = [f.zero] * n
    v[i] = f.one
    return v


def tensor_power(m, j):
    """j-th tensor power over the base of a (B, B)-bimodule; short-circuits
    to the zero power once any intermediate power vanishes."""
    if j < 1:
        raise ValidationError("tensor powers start at j = 1")
    if m.left_alg is None or m.right_alg is None:
        raise ValidationError("tensor powers need a bimodule")
    out = m
    for _ in range(j - 1):
        if out.dim == 0:
            return out
        out = tensor_over(out, m)
    return out


def _unit_vec(f, n, i):
    v = [f.zero] * n
    v[i] = f.one
    return tuple(v)


def _family_apply(family, vec, x, f):
    out = [f.zero] * len(x)
    for i, c in enumerate(vec):
        if f.is_zero(c):
            continue
        col = family[i].apply(x)
        for t in range(len(x)):
            if not f.is_zero(col[t]):
                out[t] = f.add(out[t], f.mul(c, col[t]))
    return tuple(out)


def bimodule_direct_sum(bimodules):
    """Direct sum of bimodules with identical (possibly absent) sides."""
    if not bimodules:
        raise ValidationError("empty bimodule direct sum")
    first = bimodules[0]
    f = first.field
    for m in bimodules:
        if m.left_alg is not first.left_alg or m.right_alg is not first.right_alg:
            raise ValidationError("direct sum of bimodules with different sides")
    total = sum(m.dim for m in bimodules)

    def blocks(side):
        fams = []
        n = (first.left_alg if side == "left" else first.right_alg).dim
        for i in range(n):
            big = [[f.zero] * total for _ in range(total)]
            off = 0
            for m in bimodules:
                fam = m.left_action if side == "left" else m.right_action
                rows = fam[i].rows
                for r in range(m.dim):
                    for c in range(m.dim):
                        if not f.is_zero(rows[r][c]):
                            big[off + r][off + c] = rows[r][c]
                off += m.dim
            mat = Matrix(f, big) if big else Matrix.zeros(f, 0, 0)
            mat.ncols = total
            fams.append(mat)
        return fams

    left = blocks("left") if first.left_alg is not None else None
    right = blocks("right") if first.right_alg is not None else None
    return Bimodule(first.left_alg, first.right_alg, total, left, right,
                    validate=False)


def projective_bimodule(b, u, v, right_alg=None):
    """The projective (B, R)-bimodule B e_u (x)_k e_v R (R defaults to B)."""
    r = right_alg if right_alg is not None else b
    f = b.field
    left_data = projective_data(b, u)
    right_data = projective_data(opposite(r), v)
    du, dv = left_data.basis.dim, right_data.basis.dim
    dim = du * dv
    left = []
    right = []
    for i in range(b.dim):
        lm = left_data.module.action[i]
        big = [[f.zero] * dim for _ in range(dim)]
        for rr in range(du):
            for c in range(du):
                val = lm[rr, c]
                if not f.is_zero(val):
                    for t in range(dv):
                        big[rr * dv + t][c * dv + t] = val
        mat = Matrix(f, big) if big else Matrix.zeros(f, 0, 0)
        mat.ncols = dim
        left.append(mat)
    for i in range(r.dim):
        rm = right_data.module.action[i]
        big = [[f.zero] * dim for _ in range(dim)]
        for rr in range(dv):
            for c in range(dv):
                val = rm[rr, c]
                if not f.is_zero(val):
                    for t in range(du):
                        big[t * dv + rr][t * dv + c] = val
        mat = Matrix(f, big) if big else Matrix.zeros(f, 0, 0)
        mat.ncols = dim
        right.append(mat)
    return Bimodule(b, r, dim, left, right, validate=False)
