"""Modules and bimodules as exact matrix representations.

A Module is a finitely generated left module: one action matrix per
algebra basis element. Right modules are left modules over the opposite
algebra. A Bimodule always has both sides: it stores one action family per
side and exposes the equivalent left module over the tensor algebra
L (x) R^op on demand; storing the sides separately keeps validation and
tensor products cheap. One routine, `_check_action`, checks every action:
a module's, and each side of a bimodule's.

Tensor products over an algebra are computed as explicit coequalizers:
(M (x)_k N) / span{ m.b (x) n - m (x) b.n }, with b running over an
algebra generating set (idempotents plus radical generators), which spans
the same relation subspace as all of B. `linalg.quotient` takes the
quotient and induces both actions on it, reading each action matrix by
its sparse columns. `tensor_powers` is the one loop over the tensor
powers of a bimodule.
"""

from functools import partial

from .errors import FieldMismatchError, ValidationError
from .linalg import (EchelonSpan, Matrix, block_diag, column_map,
                     kernel_basis, kron, linear_combination,
                     matrix_combination, nonzero_pairs, quotient, rank,
                     solve_linear, unit_vector)
from .algebra import opposite, tensor_algebra


class Module:
    """Left module over a fixed algebra, given by dense action matrices."""

    __slots__ = ("algebra", "dim", "action", "_cache")

    def __init__(self, algebra, action, validate=True):
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
            self.validate()

    def act(self, vec, x):
        """Action of the algebra element with coordinates `vec`."""
        return linear_combination(
            self.algebra.field,
            [(c, a.apply(x)) for c, a in zip(vec, self.action) if c], self.dim)

    def act_matrix(self, vec):
        return matrix_combination(self.algebra.field, vec, self.action,
                                  self.dim, self.dim)

    def validate(self, full=False):
        """Check the action on every basis pair (full) or on every pair of
        algebra generators, which implies it."""
        a = self.algebra
        elems = ([a.basis_vector(i) for i in range(a.dim)] if full
                 else a.generators())
        _check_action(a, self.action, self.dim, elems, a.multiply, "module")

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


def _check_action(alg, action, dim, elems, product, side):
    """Raise unless `action` (one dim x dim matrix per basis element of alg)
    is unital and x.(y.m) = product(x, y).m for all x, y in elems. The
    matrix of each element of elems is built once, and they are returned.
    A right action is checked with the reversed product y x, as a left
    action of the opposite algebra, without building that algebra."""
    if not dim:
        return []
    f = alg.field

    def mat(vec):
        return matrix_combination(f, vec, action, dim, dim)

    if mat(alg.unit) != Matrix.identity(f, dim):
        raise ValidationError(f"{side} action: unit does not act as the identity")
    mats = [mat(x) for x in elems]
    for x, mx in zip(elems, mats):
        for y, my in zip(elems, mats):
            if mx.mul(my) != mat(product(x, y)):
                raise ValidationError(f"{side} action is not multiplicative")
    return mats


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
    return Bimodule.regular(algebra).as_left_module()


def right_regular_module(algebra):
    """The right regular module, as a left module over the opposite algebra."""
    return Bimodule.regular(algebra).as_right_module()


def direct_sum(modules):
    if not modules:
        raise ValidationError("empty direct sum needs an algebra; use zero_module")
    a = modules[0].algebra
    for m in modules:
        if m.algebra is not a:
            raise ValidationError("direct sum over mixed algebras")
    action = [block_diag(a.field, [m.action[i] for m in modules])
              for i in range(a.dim)]
    return Module(a, action, validate=False)


class _ProjectiveData:
    """Cached data for the projective A e_s: a reduced basis of its
    underlying subspace of A, and the action of each basis element b_u of
    A in that basis, kept by column: sparse_action[u] maps each column c
    with b_u . basis[c] != 0 to the nonzero (row, coeff) entries of that
    column. Resolutions apply it to sparse vectors, touching only their
    nonzero columns. The dense action matrices (`module`) are built on
    first read."""

    __slots__ = ("algebra", "basis", "sparse_action", "_module")

    def __init__(self, algebra, basis, sparse_action):
        self.algebra = algebra
        self.basis = basis
        self.sparse_action = sparse_action
        self._module = None

    @property
    def module(self):
        if self._module is None:
            d = self.basis.dim
            action = []
            for cols in self.sparse_action:
                rows = [{} for _ in range(d)]
                for c, col in cols.items():
                    for r, v in col:
                        rows[r][c] = v
                action.append(Matrix.from_sparse(self.algebra.field, rows, d))
            self._module = Module(self.algebra, action, validate=False)
        return self._module


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
            span.insert(dict(prod))
    rb = span.reduced_basis()
    sparse = []
    for i in range(algebra.dim):
        bi = ((i, one),)
        cols = {}
        for c, row in enumerate(rb.sparse_rows):
            coords = rb.sparse_coords(algebra.sparse_multiply(bi, row))
            if coords is None:
                raise ValidationError("projective module not closed under action")
            if coords:
                cols[c] = tuple(sorted(coords.items()))
        sparse.append(cols)
    if rb.coords(e) is None:
        raise ValidationError("idempotent not inside its own projective")
    data = _ProjectiveData(algebra, rb, tuple(sparse))
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
    r = len(algebra.idempotents)
    # express each b_j mod rad over the idempotent classes, b_j - sum c_s e_s
    # in rad, by one solve against the identity; the idempotents and the
    # radical basis are independent, so the solution is unique
    gens = list(algebra.idempotents) + list(algebra.radical_basis().rows)
    amat = Matrix.from_cols(f, gens, nrows=algebra.dim)
    sol = solve_linear(amat, Matrix.identity(f, algebra.dim))
    if sol is None:
        raise ValidationError("basis element not in idempotents + radical span")
    out = Matrix(f, sol.rows[:r], algebra.dim)
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
                    if c:
                        row[k * md + j] = f.add(row[k * md + j], c)
                # (X M_g)[i,j] = sum_k X[i,k] M_g[k,j]
                for k in range(md):
                    c = mg[k, j]
                    if c:
                        row[i * md + k] = f.sub(row[i * md + k], c)
                rows.append(row)
    kb = kernel_basis(Matrix(f, rows, unknowns))
    maps = []
    for c in range(kb.ncols):
        col = kb.col(c)
        mat = Matrix(f, [[col[i * md + j] for j in range(md)] for i in range(nd)],
                     md)
        maps.append(ModuleMap(m, n, mat, validate=False))
    return maps


def is_isomorphic(m, n, seed=0):
    """Three-valued isomorphism test.

    Returns (verdict, witness): verdict is "yes" with an exactly verified
    invertible intertwiner, "no" on a dimension or hom-space obstruction,
    or "unresolved" if the randomized search over integer combinations of
    the hom basis (the basis itself, then 40 random draws) fails. A "yes"
    is always sound; "unresolved" is never silently turned into "no".
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
    candidates = [unit_vector(f, len(basis), i) for i in range(len(basis))]
    p = f.characteristic
    for _ in range(40):
        if p:
            candidates.append([f.of(rng.randrange(p)) for _ in basis])
        else:
            candidates.append([f.of(rng.randint(-3, 3)) for _ in basis])
    mats = [bm.matrix for bm in basis]
    for coeffs in candidates:
        mat = matrix_combination(f, coeffs, mats, n.dim, m.dim)
        if rank(mat) == m.dim:
            ModuleMap(m, n, mat, validate=True)
            return "yes", mat
    return "unresolved", None


class Bimodule:
    """An (L, R)-bimodule: a left action of L and a right action of R on the
    same space, both always present.

    This is the data of a left module over tensor_algebra(L, opposite(R)),
    available via as_env_module(). The left action is an algebra map, the
    right action an anti-map, and the two commute; validation checks this
    on generators.
    """

    __slots__ = ("left_alg", "right_alg", "dim", "left_action", "right_action",
                 "_cache")

    def __init__(self, left_alg, right_alg, dim, left_action, right_action,
                 validate=True):
        if left_alg.field != right_alg.field:
            raise FieldMismatchError("bimodule sides over different fields")
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self._cache = {}
        if validate:
            self.validate()

    @property
    def field(self):
        return self.left_alg.field

    @classmethod
    def regular(cls, a):
        if "regular_bimodule" not in a._cache:
            left = [a.left_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
            right = [a.right_mult_matrix(a.basis_vector(i)) for i in range(a.dim)]
            a._cache["regular_bimodule"] = cls(a, a, a.dim, left, right,
                                               validate=False)
        return a._cache["regular_bimodule"]

    def validate(self):
        l, r = self.left_alg, self.right_alg
        lmats = _check_action(l, self.left_action, self.dim, l.generators(),
                              l.multiply, "left")
        rmats = _check_action(r, self.right_action, self.dim, r.generators(),
                              lambda x, y: r.multiply(y, x), "right")
        for lx in lmats:
            for ry in rmats:
                if lx.mul(ry) != ry.mul(lx):
                    raise ValidationError("left and right actions do not commute")

    def as_left_module(self):
        if "as_left" not in self._cache:
            self._cache["as_left"] = Module(self.left_alg, self.left_action,
                                            validate=False)
        return self._cache["as_left"]

    def as_right_module(self):
        """The right structure as a left module over opposite(right_alg)."""
        if "as_right" not in self._cache:
            self._cache["as_right"] = Module(opposite(self.right_alg),
                                             self.right_action, validate=False)
        return self._cache["as_right"]

    def env_algebra(self):
        return tensor_algebra(self.left_alg, opposite(self.right_alg))

    def as_env_module(self):
        """Left module over L (x) R^op: (x (x) y^op) . m = x m y."""
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

    def __repr__(self):
        return (f"Bimodule(dim={self.dim}, left={self.left_alg.dim}, "
                f"right={self.right_alg.dim})")


def tensor_over(x, y, return_maps=False):
    """Tensor product over the middle algebra: x (x)_B y, for an (L, B)-
    bimodule x and a (B, R)-bimodule y; the result is an (L, R)-bimodule.

    Dimension is computed exactly via the coequalizer quotient. The pair
    x_i (x) y_j is coordinate k = i * dim(y) + j of x (x)_k y. With
    return_maps the class of each pair in the quotient (a dict of its
    nonzero coordinates) and the free pairs are returned as well: basis
    vector c of the quotient is the class of the pair free[c], and that
    class is the unit vector at c.
    """
    if x.right_alg is not y.left_alg:
        if x.right_alg.field != y.left_alg.field or x.right_alg.dim != y.left_alg.dim \
                or x.right_alg.table != y.left_alg.table:
            raise ValidationError("middle algebras do not match")
    b = x.right_alg
    f = b.field
    mx, my = x.dim, y.dim
    amb = mx * my

    def left_image(col, k):
        """(m (x) 1)(x_i (x) y_j) = sum_s m[s, i] x_s (x) y_j, for the
        column map col of m."""
        i, j = divmod(k, my)
        return {s * my + j: c for s, c in col(i).items()}

    def right_image(col, k):
        """(1 (x) m)(x_i (x) y_j) = sum_s m[s, j] x_i (x) y_s."""
        i, j = divmod(k, my)
        return {i * my + s: c for s, c in col(j).items()}

    def relations():
        for g in b.generators():
            # the relations (x.g) (x) y - x (x) (g.y)
            rg = column_map(matrix_combination(f, g, x.right_action, mx, mx))
            lg = column_map(matrix_combination(f, g, y.left_action, my, my))
            for k in range(amb):
                rel = left_image(rg, k)
                for t, c in right_image(lg, k).items():
                    rel[t] = f.sub(rel.get(t, f.zero), c)
                yield rel

    classes, free, (left, right) = quotient(f, amb, relations(), (
        [partial(left_image, column_map(m)) for m in x.left_action],
        [partial(right_image, column_map(m)) for m in y.right_action]))
    out = Bimodule(x.left_alg, y.right_alg, len(free), left, right,
                   validate=False)
    return (out, classes, free) if return_maps else out


def tensor_powers(m, n):
    """The tensor powers m, m (x)_B m, ... of a (B, B)-bimodule over its
    base, up to the n-th, stopping after the first zero power (every later
    power is zero too)."""
    powers = [m] if n > 0 else []
    while 0 < len(powers) < n and powers[-1].dim:
        powers.append(tensor_over(powers[-1], m))
    return powers


def bimodule_direct_sum(bimodules):
    """Direct sum of bimodules over the same two algebras."""
    if not bimodules:
        raise ValidationError("empty bimodule direct sum")
    first = bimodules[0]
    f = first.field
    for m in bimodules:
        if m.left_alg is not first.left_alg or m.right_alg is not first.right_alg:
            raise ValidationError("direct sum of bimodules with different sides")

    def blocks(families):
        return [block_diag(f, mats) for mats in zip(*families)]

    return Bimodule(first.left_alg, first.right_alg,
                    sum(m.dim for m in bimodules),
                    blocks([m.left_action for m in bimodules]),
                    blocks([m.right_action for m in bimodules]), validate=False)


def projective_bimodule(b, u, v, right_alg=None):
    """The projective (B, R)-bimodule B e_u (x)_k e_v R (R defaults to B)."""
    r = right_alg if right_alg is not None else b
    f = b.field
    left_data = projective_data(b, u)
    right_data = projective_data(opposite(r), v)
    id_u = Matrix.identity(f, left_data.basis.dim)
    id_v = Matrix.identity(f, right_data.basis.dim)
    left = [kron(lm, id_v) for lm in left_data.module.action]
    right = [kron(id_u, rm) for rm in right_data.module.action]
    return Bimodule(b, r, id_u.nrows * id_v.nrows, left, right, validate=False)
