"""Finite-dimensional elementary algebras by sparse structure constants.

An Algebra carries its multiplication table, unit, a basis of its Jacobson
radical and a complete set of orthogonal primitive idempotents. Radicals
and idempotents are tracked structurally through every constructor and
verified, never discovered: each constructor re-runs the full invariant
battery (associativity, unit law, radical is a nilpotent two-sided ideal,
idempotents are complete, the semisimple quotient is split basic).

The multiplication table is sparse: table[i][j] is a tuple of
(index, coefficient) pairs for the product b_i * b_j. Quiver algebras and
all the tensor/extension constructions produce very sparse tables. Every
product goes through one kernel, `sparse_multiply`, which visits only
nonempty table cells; the battery runs on it and skips only products that
are zero by construction, so its checks are as strong as dense ones. Zero
is tested by truthiness, exact on canonical elements: `__init__`
canonicalises the stored data, `linalg.nonzero_pairs` outside vectors.
"""

from .errors import FieldMismatchError, ValidationError
from .linalg import EchelonSpan, Matrix, nonzero_pairs


class Algebra:
    __slots__ = ("field", "dim", "basis_labels", "table", "unit",
                 "radical_rows", "idempotents", "meta", "_cache")

    def __init__(self, field, basis_labels, table, unit, radical_rows,
                 idempotents, meta=None, validate=True):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = tuple(basis_labels)
        self.table = tuple(
            tuple(tuple((k, field.of(c)) for k, c in cell if not field.is_zero(field.of(c)))
                  for cell in row)
            for row in table)
        self.unit = tuple(field.of(x) for x in unit)
        self.radical_rows = tuple(tuple(field.of(x) for x in r) for r in radical_rows)
        self.idempotents = tuple(tuple(field.of(x) for x in e) for e in idempotents)
        self.meta = dict(meta) if meta else {}
        self._cache = {}
        if validate:
            self.validate()

    # -- basic arithmetic -------------------------------------------------

    def sparse_multiply(self, x, y):
        """Product of two vectors given as nonzero (index, canonical coeff)
        pairs, in the same form; the algebra's one product loop, visiting
        only the nonempty cells b_i * b_j with x_i and y_j nonzero."""
        f = self.field
        mul, add = f.mul, f.add
        table = self.table
        out = {}
        for i, a in x:
            row = table[i]
            for j, b in y:
                cell = row[j]
                if cell:
                    c = mul(a, b)
                    for k, d in cell:
                        v = mul(c, d)
                        out[k] = add(out[k], v) if k in out else v
        return [kc for kc in out.items() if kc[1]]

    def dense(self, pairs):
        """The coordinate vector with the given (index, coeff) entries."""
        out = [self.field.zero] * self.dim
        for k, c in pairs:
            out[k] = c
        return tuple(out)

    def multiply(self, x, y):
        """Product of two coordinate vectors."""
        return self.dense(self.sparse_multiply(nonzero_pairs(self.field, x),
                                             nonzero_pairs(self.field, y)))

    def basis_vector(self, i):
        f = self.field
        v = [f.zero] * self.dim
        v[i] = f.one
        return tuple(v)

    def left_mult_matrix(self, vec):
        """Matrix of x -> vec * x."""
        v, one = nonzero_pairs(self.field, vec), self.field.one
        return Matrix.from_cols(
            self.field, [self.dense(self.sparse_multiply(v, ((j, one),)))
                         for j in range(self.dim)], nrows=self.dim)

    def right_mult_matrix(self, vec):
        """Matrix of x -> x * vec."""
        v, one = nonzero_pairs(self.field, vec), self.field.one
        return Matrix.from_cols(
            self.field, [self.dense(self.sparse_multiply(((i, one),), v))
                         for i in range(self.dim)], nrows=self.dim)

    @property
    def radical_dim(self):
        return len(self.radical_rows)

    def radical_basis(self):
        """Reduced echelon basis of the radical (cached)."""
        if "rad_basis" not in self._cache:
            span = EchelonSpan(self.field, self.dim)
            for r in self.radical_rows:
                span.insert(r)
            self._cache["rad_basis"] = span.reduced_basis()
        return self._cache["rad_basis"]

    def in_radical(self, vec):
        return self.radical_basis().coords(vec) is not None

    def generators(self):
        """An algebra generating set: idempotents plus lifts of rad/rad^2.

        For an elementary algebra this generates: every element is a
        polynomial in the idempotents and any lift of a basis of
        rad/rad^2 (the arrows, for a quiver algebra).
        """
        if "generators" in self._cache:
            return self._cache["generators"]
        rb = self.radical_basis()
        sq = EchelonSpan(self.field, self.dim)
        for r in rb.sparse_rows:
            for s in rb.sparse_rows:
                prod = self.sparse_multiply(r, s)
                if prod:
                    sq.insert(self.dense(prod))
        gens = list(self.idempotents)
        for r in rb.rows:
            if sq.insert(r):
                gens.append(tuple(r))
        gens = tuple(gens)
        self._cache["generators"] = gens
        return gens

    # -- validation battery ----------------------------------------------

    def validate(self):
        f = self.field
        n = self.dim
        if n == 0:
            raise ValidationError("zero-dimensional algebra has no unit")
        if len(self.unit) != n:
            raise ValidationError("unit vector has wrong length")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise ValidationError("multiplication table has wrong shape")
        self._check_unit()
        self._check_associativity()
        self._check_idempotents()
        self._check_radical()

    def _check_unit(self):
        f = self.field
        for j in range(self.dim):
            ej = self.basis_vector(j)
            if self.multiply(self.unit, ej) != ej:
                raise ValidationError(f"unit law fails: 1*b{j} != b{j}")
            if self.multiply(ej, self.unit) != ej:
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
        mul = self.sparse_multiply
        for i in range(n):
            bi = ((i, one),)
            for k in range(n):
                bk = ((k, one),)
                for j in sorted(todo.get((i, k), ())):
                    if dict(mul(table[i][j], bk)) != dict(mul(bi, table[j][k])):
                        raise ValidationError(
                            f"associativity fails at (b{i}*b{j})*b{k}")

    def _check_idempotents(self):
        f = self.field
        if not self.idempotents:
            raise ValidationError("no idempotents supplied")
        for s, e in enumerate(self.idempotents):
            for t, e2 in enumerate(self.idempotents):
                prod = self.multiply(e, e2)
                expected = e if s == t else (f.zero,) * self.dim
                if prod != expected:
                    raise ValidationError(
                        f"idempotents e{s}, e{t} are not orthogonal idempotents")
        total = [f.zero] * self.dim
        for e in self.idempotents:
            total = [f.add(a, b) for a, b in zip(total, e)]
        if tuple(total) != self.unit:
            raise ValidationError("idempotents do not sum to the unit")

    def _check_radical(self):
        f = self.field
        rb = self.radical_basis()
        if rb.dim != len(self.radical_rows):
            raise ValidationError("radical rows are linearly dependent")
        if rb.dim + len(self.idempotents) != self.dim:
            raise ValidationError(
                "algebra is not split basic: dim != #idempotents + dim radical")
        # idempotents + radical must span everything
        span = EchelonSpan(f, self.dim)
        for r in rb.rows:
            span.insert(r)
        for e in self.idempotents:
            span.insert(e)
        if span.rank != self.dim:
            raise ValidationError("idempotents and radical do not span the algebra")
        # two-sided ideal
        rows = rb.sparse_rows
        one = f.one
        for i in range(self.dim):
            bi = ((i, one),)
            for r in rows:
                if rb.sparse_coords(self.sparse_multiply(bi, r)) is None:
                    raise ValidationError("radical is not a left ideal")
                if rb.sparse_coords(self.sparse_multiply(r, bi)) is None:
                    raise ValidationError("radical is not a right ideal")
        # nilpotency; a zero product cannot grow a span, so it is not inserted
        current = rows
        for _ in range(self.dim + 1):
            if not current:
                return
            nxt = EchelonSpan(f, self.dim)
            for x in current:
                for r in rows:
                    prod = self.sparse_multiply(x, r)
                    if prod:
                        nxt.insert(self.dense(prod))
            current = nxt.reduced_basis().sparse_rows
        raise ValidationError("radical is not nilpotent")

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field!r})"


def scalar_algebra(field, label="e"):
    """The ground field as a one-dimensional algebra."""
    one = field.one
    cell = ((0, one),)
    table = ((cell,),)
    return Algebra(field, (label,), table, (one,), (), ((one,),),
                   meta={"kind": "scalar"})


def opposite(a):
    """Opposite algebra: same basis, reversed multiplication."""
    if "opposite" in a._cache:
        return a._cache["opposite"]
    n = a.dim
    table = tuple(tuple(a.table[j][i] for j in range(n)) for i in range(n))
    opp = Algebra(a.field, a.basis_labels, table, a.unit, a.radical_rows,
                  a.idempotents, meta={"kind": "opposite", "base": a.meta.get("kind")})
    a._cache["opposite"] = opp
    opp._cache["opposite"] = a
    return opp


def tensor_algebra(a, b):
    """Tensor product algebra A (x)_k B; basis pairs in row-major order.

    Both factors must be elementary over the same field. The radical is
    rad A (x) B + A (x) rad B and the idempotents are the pairwise products.
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
    n = na * nb

    def idx(i, j):
        return i * nb + j

    labels = tuple(f"({la}|{lb})" for la in a.basis_labels for lb in b.basis_labels)
    table = []
    for i in range(na):
        for j in range(nb):
            row = []
            for i2 in range(na):
                acell = a.table[i][i2]
                for j2 in range(nb):
                    bcell = b.table[j][j2]
                    terms = []
                    for k, c in acell:
                        for l, d in bcell:
                            terms.append((idx(k, l), f.mul(c, d)))
                    row.append(tuple(terms))
            table.append(tuple(row))

    unit = [f.zero] * n
    for i, x in enumerate(a.unit):
        if f.is_zero(x):
            continue
        for j, y in enumerate(b.unit):
            if not f.is_zero(y):
                unit[idx(i, j)] = f.mul(x, y)

    span = EchelonSpan(f, n)
    for r in a.radical_rows:
        for j in range(nb):
            vec = [f.zero] * n
            for i, x in enumerate(r):
                if not f.is_zero(x):
                    vec[idx(i, j)] = x
            span.insert(vec)
    for s in b.radical_rows:
        for i in range(na):
            vec = [f.zero] * n
            for j, y in enumerate(s):
                if not f.is_zero(y):
                    vec[idx(i, j)] = y
            span.insert(vec)
    radical_rows = tuple(tuple(r) for r in span.reduced_basis().rows)

    idempotents = []
    for e in a.idempotents:
        for g in b.idempotents:
            vec = [f.zero] * n
            for i, x in enumerate(e):
                if f.is_zero(x):
                    continue
                for j, y in enumerate(g):
                    if not f.is_zero(y):
                        vec[idx(i, j)] = f.mul(x, y)
            idempotents.append(tuple(vec))

    out = Algebra(f, labels, table, unit, radical_rows, idempotents,
                  meta={"kind": "tensor", "left_dim": na, "right_dim": nb})
    a._cache[key] = (b, out)
    return out


def enveloping_algebra(a):
    """A (x)_k A^op, with bimodules over A seen as its left modules."""
    if "enveloping" not in a._cache:
        a._cache["enveloping"] = tensor_algebra(a, opposite(a))
    return a._cache["enveloping"]


def product_algebra(a, b):
    """Direct product A x B with block-diagonal structure constants."""
    if a.field != b.field:
        raise FieldMismatchError("product factors over different fields")
    f = a.field
    na, nb = a.dim, b.dim
    n = na + nb
    labels = tuple(f"{l}.L" for l in a.basis_labels) + tuple(f"{l}.R" for l in b.basis_labels)
    empty = tuple()
    table = []
    for i in range(na):
        row = [a.table[i][j] for j in range(na)] + [empty] * nb
        table.append(tuple(row))
    for i in range(nb):
        row = [empty] * na + [tuple((k + na, c) for k, c in b.table[i][j])
                              for j in range(nb)]
        table.append(tuple(row))
    pad_a = (f.zero,) * nb
    pad_b = (f.zero,) * na
    unit = tuple(a.unit) + tuple(b.unit)
    radical_rows = tuple(tuple(r) + pad_a for r in a.radical_rows) + \
        tuple(pad_b + tuple(r) for r in b.radical_rows)
    idempotents = tuple(tuple(e) + pad_a for e in a.idempotents) + \
        tuple(pad_b + tuple(e) for e in b.idempotents)
    return Algebra(f, labels, table, unit, radical_rows, idempotents,
                   meta={"kind": "product", "left_dim": na, "right_dim": nb})


def verify_algebra_isomorphism(a, b, matrix):
    """Check that `matrix` (dim b x dim a) is a unital algebra isomorphism
    A -> B. Raises ValidationError when it is not; no search is performed."""
    from .linalg import rank
    if a.field != b.field:
        raise FieldMismatchError("fields differ")
    if matrix.nrows != b.dim or matrix.ncols != a.dim:
        raise ValidationError("isomorphism witness has wrong shape")
    if a.dim != b.dim or rank(matrix) != a.dim:
        raise ValidationError("isomorphism witness is not bijective")
    if matrix.apply(a.unit) != b.unit:
        raise ValidationError("isomorphism witness is not unital")
    for i in range(a.dim):
        xi = matrix.apply(a.basis_vector(i))
        for j in range(a.dim):
            lhs = matrix.apply(a.multiply(a.basis_vector(i), a.basis_vector(j)))
            rhs = b.multiply(xi, matrix.apply(a.basis_vector(j)))
            if lhs != rhs:
                raise ValidationError(
                    f"isomorphism witness not multiplicative at (b{i}, b{j})")
    return True
