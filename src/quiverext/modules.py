"""Modules and bimodules as exact representations.

A Module is a finitely generated left module: for each algebra basis
element, the column-sparse map (see linalg) by which it acts. An algebra
element, given as its (index, coeff) pairs like every element of the
engine, acts by the combination of those maps its pairs give, through
`linalg.act`. Right modules are left modules over the opposite algebra.
A Bimodule over (L, R) is a Module over its `algebra` L (x) R^op, built
on first read (Cartan-Eilenberg, Homological Algebra, IX): it stores the
two commuting actions, dim L + dim R maps in place of dim L * dim R, its
`act` applies both in one loop, and its one map per basis element is
composed only when read. The projectives of a tensor algebra and their
direct sums are bimodules, so resolutions, Ext and hom spaces over
L (x) R^op take bimodules directly, and storing the sides keeps
validation and tensor products cheap.
The constructors reject an action not in column-sparse form, and one
routine, `_check_action`, checks every action: a module's, and each side
of a bimodule's. The modules and bimodules `direct_sum` and
`projective_data` build skip the format check (`_built`): their maps are
block sums and Kronecker products of maps already checked, so they are
column-sparse by construction. A ModuleMap is column-sparse too, with
dim(source) columns and dim(target) rows, so hom bases and isomorphism
witnesses are in the format every other map in the engine uses.

Tensor products over an algebra are computed as explicit coequalizers:
(M (x)_k N) / span{ m.b (x) n - m (x) b.n }, with b running over an
algebra generating set (idempotents plus radical generators), which spans
the same relation subspace as all of B. `linalg.quotient` takes the
quotient and induces both actions on it, reading each action by its
columns. `tensor_powers` is the one loop over the tensor powers of a
bimodule.
"""

from functools import partial

from .errors import FieldMismatchError, ValidationError
from .linalg import (EchelonSpan, ReducedBasis, act, block_sum, compose,
                     identity_map, kron, map_combination, map_problem,
                     quotient, sparse_combination, sparse_rank, to_column,
                     transpose)
from .algebra import opposite, pure_tensor, tensor_algebra


class Module:
    """Left module over a fixed algebra, given by one column-sparse action
    map per algebra basis element (a Bimodule stores its two sides)."""

    __slots__ = ("algebra", "dim", "action", "_cache")

    def __init__(self, algebra, action, validate=True):
        self.algebra = algebra
        self.action = tuple(action)
        self.dim = _check_format(algebra, self.action, None, "module")
        self._cache = {}
        if validate and algebra.dim:
            self.validate()

    @classmethod
    def _built(cls, algebra, action, dim):
        """A module whose action maps were built from checked maps, so are
        column-sparse by construction: no format check, no validation."""
        m = cls.__new__(cls)
        m.algebra, m.action, m.dim, m._cache = algebra, tuple(action), dim, {}
        return m

    def act(self, elem, vec):
        """The action on the sparse vector vec (a dict) of the algebra
        element with nonzero (index, coeff) entries elem, as a dict of the
        nonzero entries of the image: `linalg.act` over the action."""
        return act(self.algebra.field, self.action, elem, vec.items())

    def action_map(self, elem):
        """The column-sparse map by which the algebra element elem (its
        (index, coeff) pairs) acts."""
        return map_combination(self.algebra.field, elem, self.action, self.dim)

    def validate(self, full=False):
        """Check the action on every basis pair (full) or on every pair of
        algebra generators, which implies it."""
        a = self.algebra
        elems = ([((i, a.field.one),) for i in range(a.dim)] if full
                 else a.generators())
        _check_action(a, self.action, self.dim, elems, a.sparse_multiply,
                      "module")

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


def _check_format(alg, action, dim, side):
    """Raise unless `action` holds one column-sparse map of k^dim per basis
    element of alg (see linalg.map_problem). A dim of None is read off the
    first map; the dim is returned."""
    if type(action) is not tuple or len(action) != alg.dim:
        raise ValidationError(f"{side} action: need one map per basis element")
    if dim is None:
        dim = len(action[0]) if action else 0
    for m in action:
        problem = map_problem(alg.field, m, dim, dim)
        if problem:
            raise ValidationError(f"{side} action: {problem}")
    return dim


def _check_action(alg, action, dim, elems, product, side):
    """Raise unless `action` (one column-sparse map of k^dim per basis
    element of alg) is unital and x.(y.m) = product(x, y).m for all x, y in
    elems, which are algebra elements as (index, coeff) pairs. The map of
    each element of elems is built once, and they are returned. A right
    action is checked with the reversed product y x, as a left action of
    the opposite algebra, without building that algebra."""
    if not dim:
        return []
    f = alg.field

    def mat(elem):
        return map_combination(f, elem, action, dim)

    if mat(alg.unit) != identity_map(f, dim):
        raise ValidationError(f"{side} action: unit does not act as the identity")
    mats = [mat(x) for x in elems]
    for x, mx in zip(elems, mats):
        for y, my in zip(elems, mats):
            if compose(f, mx, my) != mat(product(x, y)):
                raise ValidationError(f"{side} action is not multiplicative")
    return mats


class ModuleMap:
    """A homomorphism of left modules, stored as a column-sparse map with
    dim(source) columns and dim(target) rows; intertwining is verified on
    an algebra generating set."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols, validate=True):
        if source.algebra is not target.algebra:
            raise ValidationError("module map between modules over different algebras")
        problem = map_problem(source.algebra.field, cols, target.dim,
                              source.dim)
        if problem:
            raise ValidationError(f"module map: {problem}")
        self.source = source
        self.target = target
        self.cols = cols
        if validate:
            self.validate()

    def validate(self):
        f = self.source.algebra.field
        for g in self.source.algebra.generators():
            if compose(f, self.cols, self.source.action_map(g)) != \
                    compose(f, self.target.action_map(g), self.cols):
                raise ValidationError("map does not intertwine the actions")

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def zero_module(algebra):
    return Module(algebra, [()] * algebra.dim, validate=False)


def left_regular_module(algebra):
    return Bimodule.regular(algebra).as_left_module()


def right_regular_module(algebra):
    """The right regular module, as a left module over the opposite algebra."""
    return Bimodule.regular(algebra).as_right_module()


def direct_sum(modules):
    """The direct sum of modules over one algebra, block by block. If every
    summand is a bimodule over the same two algebras, by identity, so that
    no L (x) R^op is built to check it, the sum is a bimodule, the block
    sum of each side; otherwise it is flat."""
    if not modules:
        raise ValidationError("empty direct sum needs an algebra; use zero_module")
    first, dims = modules[0], [m.dim for m in modules]
    if all(isinstance(m, Bimodule) for m in modules):
        if any(m.left_alg is not first.left_alg
               or m.right_alg is not first.right_alg for m in modules):
            raise ValidationError("direct sum of bimodules with different sides")
        return Bimodule._built(
            first.left_alg, first.right_alg, sum(dims),
            _block_sums([m.left_action for m in modules], dims),
            _block_sums([m.right_action for m in modules], dims), first._env)
    a = first.algebra
    if any(m.algebra is not a for m in modules):
        raise ValidationError("direct sum over mixed algebras")
    return Module._built(a, _block_sums([m.action for m in modules], dims),
                         sum(dims))


def _block_sums(families, dims):
    """The block sums, map by map, of families of maps on spaces of the
    given dims: one map per index, each family indexed alike."""
    return [block_sum(maps, dims) for maps in zip(*families)]


def _kron_sides(field, lmaps, ldim, rmaps, rdim):
    """The two actions on V (x) W, dim V = ldim, dim W = rdim, given by the
    maps lmaps on V and rmaps on W: lmaps[x] (x) 1 and 1 (x) rmaps[y]."""
    lid, rid = identity_map(field, ldim), identity_map(field, rdim)
    return ([kron(field, m, rid, rdim) for m in lmaps],
            [kron(field, lid, m, rdim) for m in rmaps])


class _ProjectiveData:
    """Cached data for the projective A e_s: a reduced basis of its
    underlying subspace of A, and the module, whose action is read in that
    basis. Resolutions apply the action to sparse vectors, touching only
    their nonzero columns."""

    __slots__ = ("basis", "module")

    def __init__(self, basis, module):
        self.basis = basis
        self.module = module


def projective_data(algebra, s):
    """The projective A e_s (cached): the reduced echelon basis of the
    span of the b_j e_s, and the action in that basis. Over a tensor
    algebra A (x) B, with e_s = e_p (x) f_q, it is A e_p (x) B f_q: the
    pure tensors of the factors' rows are already reduced echelon, with
    pivots p' * dim B + q', and the module is the (A, B^op)-bimodule whose
    two sides are the factors' actions a (x) 1 and 1 (x) b, with A (x) B
    itself as its algebra."""
    key = ("proj", s)
    if key in algebra._cache:
        return algebra._cache[key]
    f = algebra.field
    one, es = f.one, algebra.idempotents[s]
    if algebra.factors:
        a, b = algebra.factors
        p, q = divmod(s, len(b.idempotents))
        pa, pb = projective_data(a, p), projective_data(b, q)
        xa, xb = pa.basis, pb.basis
        rb = ReducedBasis(f, algebra.dim,
                          [pure_tensor(f, x, y, b.dim)
                           for x in xa.sparse_rows for y in xb.sparse_rows],
                          [i * b.dim + j for i in xa.pivots for j in xb.pivots])
        module = Bimodule._built(a, opposite(b), rb.dim, *_kron_sides(
            f, pa.module.action, xa.dim, pb.module.action, xb.dim), algebra)
    else:
        span = EchelonSpan(f, algebra.dim)
        for j in range(algebra.dim):
            prod = algebra.sparse_multiply(((j, one),), es)
            if prod:
                span.insert(prod)
        rb = span.reduced_basis()
        action = []
        for i in range(algebra.dim):
            bi = ((i, one),)
            cols = []
            for row in rb.sparse_rows:
                coords = rb.sparse_coords(algebra.sparse_multiply(bi, row))
                if coords is None:
                    raise ValidationError(
                        "projective module not closed under action")
                cols.append(tuple(sorted(coords.items())))
            action.append(tuple(cols))
        module = Module._built(algebra, action, rb.dim)
    if rb.sparse_coords(es) is None:
        raise ValidationError("idempotent not inside its own projective")
    data = _ProjectiveData(rb, module)
    algebra._cache[key] = data
    return data


def projective_indecomposables(algebra):
    """The modules A e_s, one per primitive idempotent."""
    return [projective_data(algebra, s).module
            for s in range(len(algebra.idempotents))]


def simple_top_coefficients(algebra):
    """For each primitive idempotent e_t, the functional c_t: A -> k with
    b - sum_t c_t(b) e_t in the radical, as a column-sparse map with one
    row; column j of c_t is the action of b_j on the t-th simple module.

    The idempotents are orthogonal, complete and independent modulo the
    radical, so e_t b_j = c_t(b_j) e_t modulo the radical; c_t(b_j) is
    read off the classes of the two in A/rad."""
    if "simple_coeffs" in algebra._cache:
        return algebra._cache["simple_coeffs"]
    f = algebra.field
    classes, _, _ = quotient(EchelonSpan(
        f, algebra.dim, map(dict, algebra.radical_basis().sparse_rows)))

    def cls(pairs):
        return sparse_combination(f, [(c, classes[k].items())
                                      for k, c in pairs])

    out = []
    for es in algebra.idempotents:
        ce = cls(es)
        lead = min(ce)
        inv = f.inv(ce[lead])
        cols = []
        for j in range(algebra.dim):
            cb = cls(algebra.sparse_multiply(es, ((j, f.one),)))
            x = f.mul(cb.get(lead, f.zero), inv)
            if cb != sparse_combination(f, [(x, ce.items())]):
                raise ValidationError(f"e_t b_{j} is not a multiple of e_t "
                                      "modulo the radical")
            cols.append(((0, x),) if x else ())
        out.append(tuple(cols))
    out = tuple(out)
    algebra._cache["simple_coeffs"] = out
    return out


def simple_module(algebra, s):
    key = ("simple", s)
    if key not in algebra._cache:
        action = [(col,) for col in simple_top_coefficients(algebra)[s]]
        algebra._cache[key] = Module(algebra, action, validate=False)
    return algebra._cache[key]


def simple_modules(algebra):
    return [simple_module(algebra, s) for s in range(len(algebra.idempotents))]


def dual_module(m):
    """k-linear dual: a left module over the opposite algebra, with the
    transposed action maps in the dual basis."""
    return Module(opposite(m.algebra), [transpose(a, m.dim) for a in m.action],
                  validate=False)


def hom_space(m, n):
    """A basis of Hom_A(m, n) as a list of ModuleMaps.

    Solves the intertwining equations N_g X = X M_g against an algebra
    generating set, which pins down the same space as the full basis
    would. Unknown X[i][j] is coordinate i * dim(m) + j; the equations go
    into one EchelonSpan as sparse rows, and the basis is read off the
    rows of its complement, which span the null space.
    """
    if m.algebra is not n.algebra:
        raise ValidationError("hom between modules over different algebras")
    f = m.algebra.field
    md, nd = m.dim, n.dim
    if md == 0 or nd == 0:
        return []
    span = EchelonSpan(f, nd * md)
    for g in m.algebra.generators():
        rows = [{} for _ in range(nd * md)]  # equation (i, j) is row i * md + j
        # (N_g X)[i, j] = sum_k N_g[i, k] X[k, j]
        for k, col in enumerate(n.action_map(g)):
            for i, c in col:
                for j in range(md):
                    rows[i * md + j][k * md + j] = c
        # (X M_g)[i, j] = sum_k X[i, k] M_g[k, j]
        for j, col in enumerate(m.action_map(g)):
            for k, c in col:
                for i in range(nd):
                    row = rows[i * md + j]
                    row[i * md + k] = f.sub(row.get(i * md + k, f.zero), c)
        span.extend(row for row in rows if row)
    kernel, _ = span.reduced_basis().complement()
    basis = []
    for x in kernel:
        cols = [[] for _ in range(md)]
        for k in sorted(x):  # row-major, so each column's rows increase
            cols[k % md].append((k // md, x[k]))
        basis.append(ModuleMap(m, n, tuple(map(tuple, cols)), validate=False))
    return basis


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
        return "yes", ()
    basis = hom_space(m, n)
    if not basis:
        return "no", None
    f = m.algebra.field
    rng = random.Random(seed)
    # try the basis elements themselves first, then random combinations
    candidates = [((i, f.one),) for i in range(len(basis))]
    p = f.characteristic
    for _ in range(40):
        if p:
            draw = [f.of(rng.randrange(p)) for _ in basis]
        else:
            draw = [f.of(rng.randint(-3, 3)) for _ in basis]
        candidates.append([(i, c) for i, c in enumerate(draw) if c])
    maps = [bm.cols for bm in basis]
    for coeffs in candidates:
        cols = map_combination(f, coeffs, maps, m.dim)
        if sparse_rank(map(dict, cols), n.dim, f) == m.dim:
            ModuleMap(m, n, cols, validate=True)
            return "yes", cols
    return "unresolved", None


class Bimodule(Module):
    """An (L, R)-bimodule: a left action of L and a right action of R on the
    same space, both always present. It is the left module over its
    `algebra` L (x) R^op on which x (x) y^op acts by m -> x m y; that
    algebra is read through env_algebra() on first access, then stored.

    It keeps the two actions, dim L + dim R column-sparse maps: the basis
    element x (x) y^op, index x * dim R + y, acts as left_action[x] o
    right_action[y]. `act` runs both sides in one loop; `action`, one
    composed map per basis element, is built on first read for the readers
    that want flat maps (duals, a direct sum with a flat summand). The left
    action is an algebra map, the right action an anti-map, and the two
    commute; validation checks this on generators, which implies the module
    axioms over L (x) R^op.
    """

    __slots__ = ("left_alg", "right_alg", "left_action", "right_action",
                 "_env", "_flat")

    def __init__(self, left_alg, right_alg, dim, left_action, right_action,
                 validate=True):
        if left_alg.field != right_alg.field:
            raise FieldMismatchError("bimodule sides over different fields")
        self.left_alg, self.right_alg, self.dim = left_alg, right_alg, dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self._env, self._flat, self._cache = None, None, {}
        _check_format(left_alg, self.left_action, dim, "left")
        _check_format(right_alg, self.right_action, dim, "right")
        if validate:
            self.validate()

    @classmethod
    def _built(cls, left_alg, right_alg, dim, left_action, right_action,
               algebra=None):
        """A bimodule whose sides were built from checked maps: no format
        check, no validation. algebra is L (x) R^op if the caller holds it."""
        m = cls.__new__(cls)
        m.left_alg, m.right_alg, m.dim = left_alg, right_alg, dim
        m.left_action, m.right_action = tuple(left_action), tuple(right_action)
        m._env, m._flat, m._cache = algebra, None, {}
        return m

    @property
    def field(self):
        return self.left_alg.field

    @property
    def algebra(self):
        if self._env is None:
            self._env = self.env_algebra()
        return self._env

    @property
    def action(self):
        if self._flat is None:
            f = self.field
            self._flat = tuple(compose(f, lm, rm) for lm in self.left_action
                               for rm in self.right_action)
        return self._flat

    @classmethod
    def regular(cls, a):
        """A as an (A, A)-bimodule, with no product: row i of A's table is
        left multiplication by b_i, row i of the opposite's right."""
        if "regular_bimodule" not in a._cache:
            a._cache["regular_bimodule"] = cls(a, a, a.dim, a.table,
                                               opposite(a).table,
                                               validate=False)
        return a._cache["regular_bimodule"]

    def act(self, elem, vec):
        """The action on the sparse vector vec of the element elem of
        L (x) R^op: for each (u, a) of elem, with u = x * dim R + y, each
        (k, c) of vec walks column k of right_action[y] and then the columns
        of left_action[x] it meets, into one dict. An empty column costs no
        product."""
        f = self.left_alg.field
        add, mul = f.add, f.mul
        left, right = self.left_action, self.right_action
        nr = len(right)
        items = vec.items()
        out = {}
        for u, a in elem:
            x, y = divmod(u, nr)
            lm, rm = left[x], right[y]
            for k, c in items:
                rcol = rm[k]
                if rcol:
                    ac = mul(a, c)
                    for r, v in rcol:
                        lcol = lm[r]
                        if lcol:
                            acv = mul(ac, v)
                            for t, w in lcol:
                                z = mul(acv, w)
                                out[t] = add(out[t], z) if t in out else z
        return {t: z for t, z in out.items() if z}

    def action_map(self, elem):
        """The column-sparse map of elem, read column by column off `act`
        on the unit vectors."""
        one = self.field.one
        return tuple(to_column(self.act(elem, {k: one}))
                     for k in range(self.dim))

    def validate(self):
        l, r = self.left_alg, self.right_alg
        lmats = _check_action(l, self.left_action, self.dim, l.generators(),
                              l.sparse_multiply, "left")
        rmats = _check_action(r, self.right_action, self.dim, r.generators(),
                              lambda x, y: r.sparse_multiply(y, x), "right")
        f = self.field
        for lx in lmats:
            for ry in rmats:
                if compose(f, lx, ry) != compose(f, ry, lx):
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
        """L (x) R^op, the one place a bimodule builds it."""
        return tensor_algebra(self.left_alg, opposite(self.right_alg))

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

    def left_image(m, k):
        """(m (x) 1)(x_i (x) y_j) = sum_s m[s, i] x_s (x) y_j."""
        i, j = divmod(k, my)
        return [(s * my + j, c) for s, c in m[i]]

    def right_image(m, k):
        """(1 (x) m)(x_i (x) y_j) = sum_s m[s, j] x_i (x) y_s."""
        i, j = divmod(k, my)
        return [(i * my + s, c) for s, c in m[j]]

    def relations():
        for g in b.generators():
            # the relations (x.g) (x) y - x (x) (g.y)
            rg = map_combination(f, g, x.right_action, mx)
            lg = map_combination(f, g, y.left_action, my)
            for k in range(amb):
                rel = dict(left_image(rg, k))
                for t, c in right_image(lg, k):
                    rel[t] = f.sub(rel.get(t, f.zero), c)
                yield rel

    classes, free, (left, right) = quotient(
        EchelonSpan(f, amb, relations()),
        ([partial(left_image, m) for m in x.left_action],
         [partial(right_image, m) for m in y.right_action]))
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


def projective_bimodule(b, u, v, right_alg=None):
    """The projective (B, R)-bimodule B e_u (x)_k e_v R (R defaults to B)."""
    r = right_alg if right_alg is not None else b
    lmod = projective_data(b, u).module
    rmod = projective_data(opposite(r), v).module
    left, right = _kron_sides(b.field, lmod.action, lmod.dim, rmod.action,
                              rmod.dim)
    return Bimodule(b, r, lmod.dim * rmod.dim, left, right, validate=False)
