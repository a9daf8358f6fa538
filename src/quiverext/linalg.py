"""Exact linear algebra over the rationals and prime fields.

Everything in this module is exact: a rational is an int when it is
integral and otherwise a fractions.Fraction in lowest terms with
denominator > 1, so the common integral case costs no Fraction; a
prime-field element is its canonical residue in [0, p). Each field's
`is_canonical` says whether a value has that form.

There is one elimination loop, EchelonSpan's. It keeps each pivot row
sparse, as a dict of its nonzero entries. Over the rationals it is
fraction-free: rows are scaled to primitive integer rows, and a row is
reduced by cross-multiplication with a pivot row followed by a gcd
division, which keeps entries small without ever rounding. `sparse_rank`
(the one rank entry point) and `quotient` read an EchelonSpan, the latter
through a ReducedBasis, whose rows stay sparse. Its `complement` (the
projection onto the free columns along the span, as sparse rows) is the
one reader of the free columns: its rows span the null space (the kernels
of resolution differentials and of hom systems), and `quotient`, which
takes every quotient in the engine, reads its columns.

Every linear map the engine builds or checks is column-sparse: a tuple
indexed by column, each entry the (row, coeff) pairs of that column's
nonzero canonical entries in row order. That covers module and bimodule
actions, module maps (hom bases, isomorphism witnesses, differentials)
and algebra maps (embeddings, retractions). `identity_map`,
`map_combination`, `compose`, `transpose`, `block_sum` and `kron` build
them, and `map_problem` is the one check of the format.

There is one bilinear loop, `act`: over an algebra's multiplication table
it is the algebra's product, over a module's action maps its action.

A vector has the format of one column: its (index, coeff) pairs, indices
increasing, coefficients nonzero and canonical. Algebra elements (the
unit, idempotents, radical rows and generators) are stored so, and
`map_problem` checks one by reading it as a one-column map. There are no
dense vectors: a product or a combination is built as a dict of its
nonzero entries, which `to_column` turns into the stored form, and an
EchelonSpan takes a vector as that dict or as its pairs.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .errors import LinAlgError


class RationalField:
    """The field of rational numbers. An element is an int when it is
    integral and otherwise a Fraction with denominator > 1, so most
    arithmetic runs on ints."""

    characteristic = 0
    zero = 0
    one = 1

    def of(self, x):
        if type(x) is int:
            return x
        return _demote(Fraction(x))

    def parse(self, text):
        return _demote(Fraction(text))

    def is_canonical(self, x):
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)

    def add(self, a, b):
        return _demote(a + b)

    def sub(self, a, b):
        return _demote(a - b)

    def mul(self, a, b):
        return _demote(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise LinAlgError("division by zero")
        return _demote(Fraction(a.denominator, a.numerator))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field with p elements, p prime. Elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise LinAlgError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise LinAlgError(f"denominator not invertible mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return x % self.p

    def parse(self, text):
        return self.of(Fraction(text))

    def is_canonical(self, x):
        return type(x) is int and 0 <= x < self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise LinAlgError("division by zero")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _demote(x):
    """A rational as the canonical element of QQ: an int when integral."""
    return x.numerator if x.denominator == 1 else x


QQ = RationalField()

_GF_CACHE = {}


def GF(p):
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_from_spec(spec):
    """Parse a field descriptor: 'q' for the rationals, 'p:N' for GF(N)."""
    if spec == "q" or spec == "0":
        return QQ
    if spec.startswith("p:"):
        try:
            return GF(int(spec[2:]))
        except ValueError:
            pass
    raise LinAlgError(f"unknown field spec {spec!r}")


def sparse_combination(field, terms):
    """The sum of c * v over (c, v) pairs, each v given by its nonzero
    (index, coeff) entries, as a dict of the nonzero entries of the sum."""
    add, mul, zero = field.add, field.mul, field.zero
    out = {}
    for c, v in terms:
        if c:
            for i, x in v:
                out[i] = add(out.get(i, zero), mul(c, x))
    return {i: x for i, x in out.items() if x}


def act(field, maps, elem, vec):
    """The sum of a * x * maps[u][k], each maps[u] column-sparse, over the
    (u, a) pairs of elem and the (k, x) pairs of vec, which is read once
    per u, so re-iterable; as a dict of its nonzero entries. An empty
    column costs no product."""
    add, mul = field.add, field.mul
    out = {}
    for u, a in elem:
        m = maps[u]
        for k, x in vec:
            col = m[k]
            if col:
                ax = mul(a, x)
                for r, v in col:
                    y = mul(ax, v)
                    out[r] = add(out[r], y) if r in out else y
    return {r: y for r, y in out.items() if y}


def to_column(entries):
    """A dict of nonzero entries as a column: its pairs in index order."""
    return tuple(sorted(entries.items()))


def map_problem(field, m, nrows, ncols):
    """What keeps m from being a column-sparse map k^ncols -> k^nrows, or
    None when it is one: a tuple of ncols tuples of (row, coeff) pairs,
    each column's rows increasing and in range, each coefficient nonzero
    and canonical."""
    if type(m) is not tuple or len(m) != ncols:
        return f"need a tuple of {ncols} columns"
    canonical = field.is_canonical
    for col in m:
        if type(col) is not tuple:
            return "a column is not a tuple"
        prev = -1
        for e in col:
            if type(e) is not tuple or len(e) != 2:
                return "a column entry is not a (row, coeff) pair"
            i, x = e
            if type(i) is not int or not prev < i < nrows:
                return f"row {i!r} out of range or order"
            if not canonical(x) or not x:
                return "stored zero or non-canonical entry"
            prev = i
    return None


def identity_map(field, n):
    """The identity of k^n as a column-sparse map."""
    return tuple(((j, field.one),) for j in range(n))


def map_combination(field, elem, maps, ncols):
    """The column-sparse sum of c * maps[k] over the (k, c) entries of elem,
    each map column-sparse with ncols columns."""
    terms = [(c, maps[k]) for k, c in elem]
    return tuple(to_column(sparse_combination(field, [(c, m[j])
                                                      for c, m in terms]))
                 for j in range(ncols))


def compose(field, a, b):
    """The column-sparse map a b: column j is the combination of the
    columns of a that column j of b gives."""
    return tuple(to_column(sparse_combination(field, [(c, a[k])
                                                      for k, c in col]))
                 for col in b)


def transpose(m, nrows):
    """The transpose of a column-sparse map with nrows rows."""
    out = [[] for _ in range(nrows)]
    for j, col in enumerate(m):
        for i, x in col:
            out[i].append((j, x))
    return tuple(map(tuple, out))


def block_sum(maps, heights):
    """The block-diagonal sum of column-sparse maps with the given numbers
    of rows."""
    return tuple(tuple((off + i, x) for i, x in col)
                 for m, off in zip(maps, accumulate(heights, initial=0))
                 for col in m)


def kron(field, a, b, b_rows):
    """The Kronecker product of column-sparse maps, b with b_rows rows:
    column j * len(b) + l is the product of column j of a and column l of
    b, entry (i, s) of the pair at row i * b_rows + s."""
    mul = field.mul
    return tuple(tuple((i * b_rows + s, mul(x, y))
                       for i, x in acol for s, y in bcol)
                 for acol in a for bcol in b)


def _primitive(row):
    """Divide an integer row (dict col -> int) by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g > 1 else row


class EchelonSpan:
    """A growing subspace of k^width kept in row-echelon form; the
    engine's one elimination loop.

    Each pivot row is stored sparse, as a dict col -> value of its nonzero
    entries: a primitive integer row with a positive leading entry over the
    rationals, residues with leading coefficient 1 over GF(p). A vector is
    reduced at its lowest nonzero column first. Over the rationals that is
    fraction-free: cross-multiplication with the pivot row, then a gcd
    division. Insertion touches only the nonzero entries of the vector and
    of the pivot rows it meets.
    """

    __slots__ = ("field", "width", "pivot_to_row", "_p")

    def __init__(self, field, width, vecs=()):
        self.field = field
        self.width = width
        self.pivot_to_row = {}
        self._p = field.characteristic
        self.extend(vecs)

    @property
    def rank(self):
        return len(self.pivot_to_row)

    def _reduce(self, vec):
        """Reduce vec (a dict col -> value, or its (col, value) pairs)
        against the stored pivots. Returns the sparse remainder and its lead
        column, None when vec lies in the span."""
        p = self._p
        items = vec.items() if type(vec) is dict else vec
        if p:
            row = {c: r for c, v in items if v and (r := int(v) % p)}
        else:
            row = {c: v for c, v in items if v}
            den = lcm(*(v.denominator for v in row.values()))
            row = _primitive({c: v.numerator * (den // v.denominator)
                              for c, v in row.items()})
        piv = self.pivot_to_row
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                return row, lead
            a, b = prow[lead], row[lead]
            if a != 1:  # only over QQ: GF(p) pivot rows lead with 1
                row = {c: x * a for c, x in row.items()}
            for c, y in prow.items():
                v = row.get(c, 0) - y * b
                if p:
                    v %= p
                if v:
                    row[c] = v
                else:
                    del row[c]
            if not p:
                row = _primitive(row)
        return row, None

    def insert(self, vec):
        """Add vec (a dict col -> value, or its (col, value) pairs) to the
        span. Returns True if the span grew."""
        row, lead = self._reduce(vec)
        if lead is None:
            return False
        if self._p:
            inv = pow(row[lead], -1, self._p)
            row = {c: (x * inv) % self._p for c, x in row.items()}
        elif row[lead] < 0:
            row = {c: -x for c, x in row.items()}
        self.pivot_to_row[lead] = row
        return True

    def contains(self, vec):
        return self._reduce(vec)[1] is None

    def extend(self, vecs):
        for v in vecs:
            self.insert(v)

    def reduced_basis(self):
        """Return the fully reduced leading-one basis of the span.

        Rows are back-substituted bottom-up, as in sparse triangular
        solves (T. A. Davis, Direct Methods for Sparse Linear Systems,
        SIAM 2006, ch. 3): every later row is already fully reduced and
        holds no other pivot column, so one pass over the pivot columns a
        row meets clears them, and the cost follows the nonzeros touched,
        not rank^2. The reduced echelon form is unique, so the order of
        elimination does not change the rows."""
        f = self.field
        of, mul, sub, zero = f.of, f.mul, f.sub, f.zero
        pivots = sorted(self.pivot_to_row)
        done = {}
        for p in reversed(pivots):
            raw = self.pivot_to_row[p]
            inv = f.inv(of(raw[p]))
            row = {c: mul(inv, of(x)) for c, x in raw.items()}
            for q in [q for q in row if q in done]:
                c = row.pop(q)
                for t, b in done[q].items():
                    if t != q:
                        v = sub(row.get(t, zero), mul(c, b))
                        if v:
                            row[t] = v
                        else:
                            del row[t]
            done[p] = row
        return ReducedBasis(f, self.width,
                            [tuple(sorted(done[p].items())) for p in pivots],
                            pivots)


class ReducedBasis:
    """A reduced row-echelon basis of a subspace, with cheap coordinates.

    Rows have leading coefficient one and zeros in the other pivot columns,
    so the coordinates of a vector in the span are just its pivot entries.
    The rows are sparse, as tuples of their nonzero (index, coeff) entries
    in index order (`sparse_rows`), so a vector is reduced only at the
    pivots where it is nonzero, by sparse row updates.
    """

    __slots__ = ("field", "width", "sparse_rows", "pivots", "_row_of")

    def __init__(self, field, width, sparse_rows, pivots):
        self.field = field
        self.width = width
        self.sparse_rows = sparse_rows
        self.pivots = tuple(pivots)
        self._row_of = {p: t for t, p in enumerate(self.pivots)}

    @property
    def dim(self):
        return len(self.pivots)

    def sparse_coords(self, vec):
        """Coordinates of a vector given as (index, canonical coeff) pairs,
        as a dict row -> coeff, or None if the vector is not in the span."""
        f = self.field
        sub, mul, zero = f.sub, f.mul, f.zero
        sparse_rows, row_of = self.sparse_rows, self._row_of
        resid = dict(vec)
        cs = {}
        for k, c in vec:
            t = row_of.get(k)
            if t is not None and c:
                cs[t] = c
                for i, b in sparse_rows[t]:
                    resid[i] = sub(resid.get(i, zero), mul(c, b))
        return None if any(resid.values()) else cs

    def complement(self):
        """The projection of k^width onto the free (non-pivot) coordinates
        along this span, as sparse rows (dicts col -> value), and the free
        columns.

        Row t of the projection is the vector v with v[j] = 1 at the t-th
        free column j, v[p] = -row[j] at the pivot p of each row, and zero
        elsewhere. The rows span the null space of this basis; column j is
        the free-coordinate normal form of the j-th unit vector modulo the
        span."""
        f = self.field
        row_of = self._row_of
        free = [j for j in range(self.width) if j not in row_of]
        proj = [{j: f.one} for j in free]
        slot = {j: v for j, v in zip(free, proj)}
        for row, p in zip(self.sparse_rows, self.pivots):
            for j, b in row:
                if j != p:
                    slot[j][p] = f.neg(b)
        return proj, free


def quotient(span, maps=()):
    """The quotient of k^width by an EchelonSpan, with the free columns of
    the span as its basis.

    Returns (classes, free, induced). classes[k] is the class of the k-th
    unit vector, as a dict of its nonzero quotient coordinates: column k of
    the span's `complement`. Basis vector c of the quotient is the class of
    the unit vector at free[c], and that class is the unit vector at c.
    induced holds, for each family of maps in `maps`, the column-sparse
    maps it induces on the quotient. A map is an image function k -> the
    nonzero (index, coeff) entries of the image of the k-th unit vector,
    such as the `__getitem__` of a column-sparse map; it must preserve the
    span."""
    field = span.field
    rows, free = span.reduced_basis().complement()
    classes = [{} for _ in range(span.width)]
    for t, row in enumerate(rows):
        for k, c in row.items():
            classes[k][t] = c

    def induce(image):
        """A free coordinate goes to the sum of its image's classes."""
        return tuple(to_column(sparse_combination(
            field, [(c, classes[k].items()) for k, c in image(j)]))
            for j in free)

    return classes, free, [[induce(image) for image in family]
                           for family in maps]


def sparse_rank(rows, width, field):
    """Rank of a matrix given as an iterable of sparse rows (dict col->val),
    or of a column-sparse map with width rows given as map(dict, columns):
    a map and its transpose have the same rank."""
    return EchelonSpan(field, width, rows).rank
