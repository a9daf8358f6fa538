"""Finite-dimensional elementary algebras by sparse structure constants.

An Algebra carries its multiplication table, unit, a basis of its Jacobson
radical and a complete set of orthogonal primitive idempotents. Radicals
and idempotents are tracked structurally through every constructor and
verified, never discovered. An algebra from outside (a presentation, a
document, a direct `Algebra(...)`) runs the full invariant battery
(associativity, unit law, radical is a nilpotent two-sided ideal,
idempotents are complete, the semisimple quotient is split basic).
`opposite`, `tensor_algebra` and `product_algebra` build with
`validate=False`, which runs only the shape, idempotent and dimension
checks: their outputs are valid by theorem when their inputs are (rad(A
(x) B) = rad A (x) B + A (x) rad B, with semisimple quotient k^r (x) k^s).
A tensor algebra keeps its two factors (`factors`, None elsewhere) and
reads its generators and projectives off theirs; its radical rows are
built reduced echelon, so they are its radical basis.

The multiplication table is the left regular action: row i is the
column-sparse map (see linalg) of left multiplication by b_i, so
table[i][j] holds the (index, coeff) pairs of b_i * b_j. `__init__`
checks each row as such a map with `linalg.map_problem`, for both values
of `validate`, and keeps the table as given instead of canonicalising it.
Every product is `linalg.act` over the table, the loop that also applies
a module's action; it visits only nonempty cells, and the battery skips
only products that are zero by construction, so its checks are as strong
as dense ones. Zero is tested by truthiness, exact on canonical elements.

An element of the algebra (the unit, each radical row, each idempotent,
each generator) is stored in the format of a column (see linalg): its
(index, coeff) pairs, indices increasing, coefficients nonzero and
canonical. `__init__` rejects an element in any other form, through the
check `linalg.map_problem` makes of a one-column map. `sparse_multiply`
takes elements as pairs in any order and returns the pairs of the product
unordered; the battery compares products as dicts, and a product is
sorted only where it is stored.

A claimed algebra map (an embedding, a retraction, an isomorphism
witness) is column-sparse, like every linear map in the engine, and is
checked by one routine, `map_violation`: format, unit and every basis
product. Its callers add only their own extra condition.
"""

from functools import partial

from .errors import FieldMismatchError, ValidationError
from .linalg import (EchelonSpan, ReducedBasis, act, map_problem,
                     sparse_combination, sparse_rank)


class Algebra:
    __slots__ = ("field", "dim", "basis_labels", "table", "unit",
                 "radical_rows", "idempotents", "meta", "factors", "_cache")

    def __init__(self, field, basis_labels, table, unit, radical_rows,
                 idempotents, meta=None, validate=True):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = tuple(basis_labels)
        self.table = tuple(table)
        self.unit = unit
        self.radical_rows = tuple(radical_rows)
        self.idempotents = tuple(idempotents)
        for i, row in enumerate(self.table):
            problem = map_problem(field, row, self.dim, self.dim)
            if problem:
                raise ValidationError(f"table row {i}: {problem}")
        for what, elems in (("unit", (unit,)),
                            ("radical row", self.radical_rows),
                            ("idempotent", self.idempotents)):
            for e in elems:
                problem = map_problem(field, (e,), self.dim, 1)
                if problem:
                    raise ValidationError(f"{what}: {problem}")
        self.meta = dict(meta) if meta else {}
        self.factors = None
        self._cache = {}
        if validate:
            self.validate()
        else:  # valid by construction: only the cheap structural checks
            self._check_shape()
            self._check_idempotents()
            self._check_count(len(self.radical_rows))

    # -- basic arithmetic -------------------------------------------------

    def sparse_multiply(self, x, y):
        """Product of two elements given as nonzero (index, canonical coeff)
        pairs, as the same pairs in no particular order: `linalg.act` of x
        on y through the table."""
        return list(act(self.field, self.table, x, y).items())

    @property
    def radical_dim(self):
        return len(self.radical_rows)

    def radical_basis(self):
        """Reduced echelon basis of the radical (cached). A tensor
        algebra's radical rows are one already, each led by its pivot."""
        if "rad_basis" not in self._cache:
            rows = self.radical_rows
            self._cache["rad_basis"] = (
                ReducedBasis(self.field, self.dim, rows,
                             [row[0][0] for row in rows]) if self.factors
                else EchelonSpan(self.field, self.dim, rows).reduced_basis())
        return self._cache["rad_basis"]

    def generators(self):
        """An algebra generating set: the idempotents first, then lifts of
        a basis of rad/rad^2 (the arrows, for a quiver algebra).

        For an elementary algebra this generates: every element is a
        polynomial in the idempotents and any lift of a basis of
        rad/rad^2. As rad is nilpotent, rad = arrows . A, which
        resolutions._cover_step relies on. A tensor algebra A (x) B takes
        alpha (x) f and e (x) beta, for the arrows alpha of A and beta of
        B and the idempotents e of A and f of B, so it multiplies nothing.
        """
        if "generators" in self._cache:
            return self._cache["generators"]
        if self.factors:
            a, b = self.factors
            arrows_a = a.generators()[len(a.idempotents):]
            arrows_b = b.generators()[len(b.idempotents):]
            gens = (self.idempotents
                    + tuple(pure_tensor(self.field, x, e, b.dim)
                            for x in arrows_a for e in b.idempotents)
                    + tuple(pure_tensor(self.field, e, y, b.dim)
                            for e in a.idempotents for y in arrows_b))
        else:
            rb = self.radical_basis()
            sq = EchelonSpan(self.field, self.dim)
            for r in rb.sparse_rows:
                for s in rb.sparse_rows:
                    prod = self.sparse_multiply(r, s)
                    if prod:
                        sq.insert(prod)
            gens = self.idempotents + tuple(r for r in rb.sparse_rows
                                            if sq.insert(r))
        self._cache["generators"] = gens
        return gens

    # -- validation battery ----------------------------------------------

    def validate(self):
        self._check_shape()
        self._check_unit()
        self._check_associativity()
        self._check_idempotents()
        self._check_radical()

    def _check_shape(self):
        n = self.dim
        if n == 0:
            raise ValidationError("zero-dimensional algebra has no unit")
        if len(self.table) != n:
            raise ValidationError("multiplication table has wrong shape")

    def _check_count(self, radical_dim):
        if radical_dim + len(self.idempotents) != self.dim:
            raise ValidationError(
                "algebra is not split basic: dim != #idempotents + dim radical")

    def _check_unit(self):
        one, mul = self.field.one, partial(act, self.field, self.table)
        for j in range(self.dim):
            bj = ((j, one),)
            if mul(self.unit, bj) != {j: one}:
                raise ValidationError(f"unit law fails: 1*b{j} != b{j}")
            if mul(bj, self.unit) != {j: one}:
                raise ValidationError(f"unit law fails: b{j}*1 != b{j}")

    def _check_associativity(self):
        # (b_i b_j) b_k == b_i (b_j b_k) for all i, j, k. The left side is
        # a sum over the b_t in b_i b_j of multiples of b_t b_k, the right
        # side one over the b_u in b_j b_k of multiples of b_i b_u; where
        # all of those cells are empty, both sides are zero.
        n = self.dim
        one = self.field.one
        table = self.table
        right = [[k for k in range(n) if table[t][k]] for t in range(n)]
        left = [[h for h in range(n) if table[h][t]] for t in range(n)]
        todo = {}
        for i in range(n):
            for j in range(n):
                for t, _ in table[i][j]:
                    for k in right[t]:  # (b_i b_j) b_k
                        todo.setdefault((i, k), set()).add(j)
                    for h in left[t]:  # b_h (b_i b_j)
                        todo.setdefault((h, j), set()).add(i)
        mul = partial(act, self.field, table)
        for i in range(n):
            bi = ((i, one),)
            for k in range(n):
                bk = ((k, one),)
                for j in sorted(todo.get((i, k), ())):
                    if mul(table[i][j], bk) != mul(bi, table[j][k]):
                        raise ValidationError(
                            f"associativity fails at (b{i}*b{j})*b{k}")

    def _check_idempotents(self):
        f = self.field
        if not self.idempotents:
            raise ValidationError("no idempotents supplied")
        for s, e in enumerate(self.idempotents):
            for t, e2 in enumerate(self.idempotents):
                if act(f, self.table, e, e2) != (dict(e) if s == t else {}):
                    raise ValidationError(
                        f"idempotents e{s}, e{t} are not orthogonal idempotents")
        if sparse_combination(f, [(f.one, e) for e in self.idempotents]) != \
                dict(self.unit):
            raise ValidationError("idempotents do not sum to the unit")

    def _check_radical(self):
        f = self.field
        rb = self.radical_basis()
        if rb.dim != len(self.radical_rows):
            raise ValidationError("radical rows are linearly dependent")
        self._check_count(rb.dim)
        # idempotents + radical must span everything
        span = EchelonSpan(f, self.dim, [*rb.sparse_rows, *self.idempotents])
        if span.rank != self.dim:
            raise ValidationError("idempotents and radical do not span the algebra")
        # two-sided ideal
        rows = rb.sparse_rows
        one, mul = f.one, partial(act, f, self.table)
        for i in range(self.dim):
            bi = ((i, one),)
            for r in rows:
                if rb.sparse_coords(mul(bi, r).items()) is None:
                    raise ValidationError("radical is not a left ideal")
                if rb.sparse_coords(mul(r, bi).items()) is None:
                    raise ValidationError("radical is not a right ideal")
        # nilpotency; a zero product cannot grow a span, so it is not inserted
        current = rows
        for _ in range(self.dim + 1):
            if not current:
                return
            nxt = EchelonSpan(f, self.dim)
            for x in current:
                for r in rows:
                    prod = mul(x, r)
                    if prod:
                        nxt.insert(prod)
            current = nxt.reduced_basis().sparse_rows
        raise ValidationError("radical is not nilpotent")

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field!r})"


def scalar_algebra(field, label="e"):
    """The ground field as a one-dimensional algebra."""
    cell = ((0, field.one),)
    return Algebra(field, (label,), ((cell,),), cell, (), (cell,),
                   meta={"kind": "scalar"})


def opposite(a):
    """Opposite algebra: same basis, reversed multiplication."""
    if "opposite" in a._cache:
        return a._cache["opposite"]
    n = a.dim
    table = tuple(tuple(a.table[j][i] for j in range(n)) for i in range(n))
    opp = Algebra(a.field, a.basis_labels, table, a.unit, a.radical_rows,
                  a.idempotents, meta={"kind": "opposite"},
                  validate=False)
    a._cache["opposite"] = opp
    opp._cache["opposite"] = a
    return opp


def tensor_algebra(a, b):
    """Tensor product algebra A (x)_k B; basis pairs in row-major order.

    Both factors must be elementary over the same field. The radical is
    rad A (x) B + A (x) rad B and the idempotents are the pairwise products
    e_p (x) f_q, at index p * #idempotents(B) + q. The result keeps (A, B)
    in its `factors` slot, not in the cache, which may be emptied; its
    generators and projectives are built from the factors'.
    """
    if a.field != b.field:
        raise FieldMismatchError("tensor factors over different fields")
    # The entry holds b itself, so b stays alive and its id is not reused
    # while the entry exists.
    key = ("tensor", id(b))
    if key in a._cache:
        return a._cache[key][1]
    f = a.field
    na, nb = a.dim, b.dim
    labels = tuple(f"({la}|{lb})" for la in a.basis_labels for lb in b.basis_labels)
    table = [tuple([pure_tensor(f, acell, bcell, nb) if acell and bcell
                    else () for acell in arow for bcell in brow])
             for arow in a.table for brow in b.table]
    span = EchelonSpan(f, na * nb)
    for r in a.radical_rows:
        span.extend(pure_tensor(f, r, ((j, f.one),), nb) for j in range(nb))
    for s in b.radical_rows:
        span.extend(pure_tensor(f, ((i, f.one),), s, nb) for i in range(na))
    idempotents = [pure_tensor(f, e, g, nb) for e in a.idempotents
                   for g in b.idempotents]

    out = Algebra(f, labels, table, pure_tensor(f, a.unit, b.unit, nb),
                  span.reduced_basis().sparse_rows, idempotents,
                  meta={"kind": "tensor"},
                  validate=False)
    out.factors = (a, b)
    a._cache[key] = (b, out)
    return out


def pure_tensor(field, x, y, nb):
    """The element x (x) y of A (x) B, dim B = nb, for elements x of A and
    y of B; its pairs come in index order when theirs do."""
    mul = field.mul
    return tuple([(i * nb + j, mul(c, d)) for i, c in x for j, d in y])


def product_algebra(a, b):
    """Direct product A x B with block-diagonal structure constants."""
    if a.field != b.field:
        raise FieldMismatchError("product factors over different fields")
    na, nb = a.dim, b.dim
    labels = tuple(f"{l}.L" for l in a.basis_labels) + tuple(f"{l}.R" for l in b.basis_labels)

    def shifted(x):
        """An element or table cell of B, moved to the B block."""
        return tuple((k + na, c) for k, c in x)

    empty = tuple()
    table = []
    for i in range(na):
        row = [a.table[i][j] for j in range(na)] + [empty] * nb
        table.append(tuple(row))
    for i in range(nb):
        row = [empty] * na + [shifted(b.table[i][j]) for j in range(nb)]
        table.append(tuple(row))
    return Algebra(a.field, labels, table, a.unit + shifted(b.unit),
                   a.radical_rows + tuple(map(shifted, b.radical_rows)),
                   a.idempotents + tuple(map(shifted, b.idempotents)),
                   meta={"kind": "product", "left_dim": na},
                   validate=False)


def map_violation(a, b, m, what):
    """The first identity of a unital algebra map A -> B that the
    column-sparse map m (dim A columns, dim B rows) violates, as a message
    naming the map `what`, or None when it is one: the format, the unit,
    and the product of every basis pair, from the image of each basis
    element, its column."""
    problem = map_problem(b.field, m, b.dim, a.dim)
    if problem:
        return f"{what}: {problem}"
    f = b.field
    unit = sparse_combination(f, [(c, m[k]) for k, c in a.unit])
    if unit != dict(b.unit):
        return f"{what} is not unital"
    for i, row in enumerate(a.table):
        for j, cell in enumerate(row):
            image = sparse_combination(f, [(c, m[k]) for k, c in cell])
            if image != dict(b.sparse_multiply(m[i], m[j])):
                return f"{what} not multiplicative at basis pair ({i}, {j})"
    return None


def verify_algebra_isomorphism(a, b, m):
    """Check that the column-sparse map m is a unital algebra isomorphism
    A -> B. Raises ValidationError when it is not; no search is performed."""
    if a.field != b.field:
        raise FieldMismatchError("fields differ")
    problem = map_violation(a, b, m, "isomorphism witness")
    if not problem and (a.dim != b.dim or
                        sparse_rank(map(dict, m), b.dim, b.field) != a.dim):
        problem = "isomorphism witness is not bijective"
    if problem:
        raise ValidationError(problem)
    return True
