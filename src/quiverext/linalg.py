"""Exact linear algebra over the rationals and prime fields.

Everything in this module is exact: rational arithmetic uses
fractions.Fraction (always in lowest terms with positive denominator),
prime-field arithmetic uses canonical residues in [0, p).

There is one elimination loop, EchelonSpan's. It keeps each pivot row
sparse, as a dict of its nonzero entries, since the rows the engine
eliminates are mostly zeros. Over the rationals it is fraction-free:
rows are scaled to primitive integer rows, and a row is reduced by
cross-multiplication with a pivot row followed by a gcd division, which
keeps entries small without ever rounding. `rank`, `sparse_rank`, `rref`,
`kernel_basis`, `solve_linear` and `quotient_space` all feed their rows to
an EchelonSpan. A ReducedBasis reads its result and keeps its rows sparse.
Its `complement` (the projection onto the free columns along the span,
as sparse rows) is the one reader of the free columns: it gives kernels,
the quotient projection, and, in the layers above, the kernels of
resolution differentials, the quiver normal forms and `tensor_over`.

This module is also the one home of dense assembly. A Matrix is immutable
and its shape is fixed at construction (`ncols` keeps the width of a
matrix without rows). The shared helpers are `unit_vector`,
`dense_vector`, `linear_combination`, `sparse_combination` and
`matrix_combination` (sums c * x, testing zero by truthiness, exact on
canonical elements), `block_diag` and `kron`.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatchError, LinAlgError


class RationalField:
    """The field of rational numbers. Elements are Fraction instances."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        if type(x) is Fraction:
            return x
        return Fraction(x)

    def parse(self, text):
        return Fraction(text)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise LinAlgError("division by zero")
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

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

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


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


class Matrix:
    """Immutable dense matrix over a fixed field.

    The shape is fixed at construction. `ncols` gives the width of a
    matrix with no rows; when rows are given it must match them. Setting
    an attribute after construction raises AttributeError.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else ncols or 0
        if ncols is not None and ncols != width:
            raise LinAlgError(f"rows of width {width}, expected {ncols}")
        for r in rows:
            if len(r) != width:
                raise LinAlgError("ragged rows")
        init = object.__setattr__
        init(self, "field", field)
        init(self, "rows", rows)
        init(self, "nrows", len(rows))
        init(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Matrix is immutable; cannot delete {name!r}")

    @classmethod
    def from_rows(cls, field, rows):
        return cls(field, [[field.of(x) for x in r] for r in rows])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, [unit_vector(field, n, i) for i in range(n)], n)

    @classmethod
    def from_sparse(cls, field, rows, ncols):
        """The matrix whose rows have the given nonzero entries, each row a
        dict col -> canonical value."""
        return cls(field, [dense_vector(field, ncols, r.items()) for r in rows],
                   ncols)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        height = len(cols[0]) if cols else nrows or 0
        return cls(field, [[field.of(col[i]) for col in cols]
                           for i in range(height)], len(cols))

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return Matrix(self.field, [self.col(j) for j in range(self.ncols)],
                      self.nrows)

    def __matmul__(self, other):
        return self.mul(other)

    def mul(self, other):
        if self.field != other.field:
            raise FieldMismatchError("matrix fields differ")
        if self.ncols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.ncols} vs {other.nrows}")
        f = self.field
        ocols = other.ncols
        out = []
        # canonical elements are falsy exactly at zero, for both backends
        for row in self.rows:
            acc = [f.zero] * ocols
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.rows[k]
                for j in range(ocols):
                    b = orow[j]
                    if b:
                        acc[j] = f.add(acc[j], f.mul(a, b))
            out.append(acc)
        return Matrix(f, out, ocols)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise LinAlgError("vector length mismatch")
        f = self.field
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for row in self.rows:
            s = f.zero
            for j, x in nonzero:
                a = row[j]
                if a:
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return tuple(out)

    def is_zero(self):
        return not any(map(any, self.rows))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        f = self.field
        body = "; ".join(" ".join(f.to_str(a) for a in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def unit_vector(field, n, i):
    """The i-th standard basis vector of k^n."""
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def dense_vector(field, n, entries):
    """The vector of k^n with the given (index, coeff) entries, zero
    elsewhere."""
    v = [field.zero] * n
    for i, c in entries:
        v[i] = c
    return tuple(v)


def linear_combination(field, terms, n):
    """The sum of c * v over (c, v) pairs, each v of length n.

    Zero is tested by truthiness, exact on canonical elements, as in
    Matrix.mul; a falsy value is always zero, so no term is ever lost."""
    add, mul = field.add, field.mul
    out = [field.zero] * n
    for c, v in terms:
        if c:
            for t, x in enumerate(v):
                if x:
                    out[t] = add(out[t], mul(c, x))
    return tuple(out)


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


def matrix_combination(field, coeffs, mats, nrows, ncols):
    """The nrows x ncols matrix sum of c * M over coeffs and mats."""
    terms = [(c, m.rows) for c, m in zip(coeffs, mats) if c]
    rows = [linear_combination(field, [(c, mrows[r]) for c, mrows in terms],
                               ncols)
            for r in range(nrows)]
    return Matrix(field, rows, ncols)


def block_diag(field, mats):
    """The block-diagonal matrix with the given blocks."""
    total = sum(m.ncols for m in mats)
    rows = []
    off = 0
    for m in mats:
        left, right = [field.zero] * off, [field.zero] * (total - off - m.ncols)
        rows.extend(left + list(r) + right for r in m.rows)
        off += m.ncols
    return Matrix(field, rows, total)


def kron(a, b):
    """Kronecker product: the block matrix with blocks a[i, j] * b."""
    f = a.field
    zero, mul = f.zero, f.mul
    rows = []
    for r1 in a.rows:
        for r2 in b.rows:
            row = []
            for x in r1:
                row.extend([mul(x, y) for y in r2] if x else [zero] * len(r2))
            rows.append(row)
    return Matrix(f, rows, a.ncols * b.ncols)


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

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.pivot_to_row = {}
        self._p = field.characteristic

    @property
    def rank(self):
        return len(self.pivot_to_row)

    def _reduce(self, vec):
        """Reduce vec (a sequence, or a dict col -> value) against the
        stored pivots. Returns the sparse remainder and its lead column,
        None when vec lies in the span."""
        p = self._p
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
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
        """Add vec (a sequence, or a dict col -> value) to the span.
        Returns True if the span grew."""
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
        """Return the fully reduced leading-one basis of the span."""
        f = self.field
        of, mul, sub, zero = f.of, f.mul, f.sub, f.zero
        pivots = sorted(self.pivot_to_row)
        rows = []
        for p in pivots:
            raw = self.pivot_to_row[p]
            inv = f.inv(of(raw[p]))
            rows.append({c: mul(inv, of(x)) for c, x in raw.items()})
        # eliminate pivot columns above each pivot
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            for row in rows[:i]:
                c = row.get(p)
                if c:
                    for t, b in rows[i].items():
                        v = sub(row.get(t, zero), mul(c, b))
                        if v:
                            row[t] = v
                        else:
                            del row[t]
        return ReducedBasis(f, self.width,
                            [tuple(sorted(row.items())) for row in rows], pivots)


def nonzero_pairs(field, vec):
    """The nonzero entries of vec, canonicalised, as (index, coeff) pairs."""
    of = field.of
    return [(i, of(c)) for i, c in enumerate(vec) if c]


class ReducedBasis:
    """A reduced row-echelon basis of a subspace, with cheap coordinates.

    Rows have leading coefficient one and zeros in the other pivot columns,
    so the coordinates of a vector in the span are just its pivot entries.
    The rows are kept sparse, as tuples of their nonzero (index, coeff)
    entries in index order (`sparse_rows`), so a vector is reduced only at
    the pivots where it is nonzero, by sparse row updates. The dense `rows`
    are built on first use, as most bases never need them.
    """

    __slots__ = ("field", "width", "sparse_rows", "pivots", "_row_of",
                 "_rows")

    def __init__(self, field, width, sparse_rows, pivots):
        self.field = field
        self.width = width
        self.sparse_rows = sparse_rows
        self.pivots = tuple(pivots)
        self._row_of = {p: t for t, p in enumerate(self.pivots)}
        self._rows = None

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def rows(self):
        if self._rows is None:
            self._rows = [dense_vector(self.field, self.width, r)
                          for r in self.sparse_rows]
        return self._rows

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

    def coords(self, vec):
        """Coordinates of vec in this basis, or None if not in the span."""
        cs = self.sparse_coords(nonzero_pairs(self.field, vec))
        return None if cs is None else tuple(
            cs.get(t, self.field.zero) for t in range(self.dim))

    def combine(self, coords):
        """The vector with the given coordinates."""
        return dense_vector(self.field, self.width, sparse_combination(
            self.field, zip(coords, self.sparse_rows)).items())

    def row_matrix(self):
        return Matrix(self.field, self.rows, self.width)

    def col_matrix(self):
        """Basis vectors as columns (width x dim)."""
        return self.row_matrix().transpose()

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


class RREF:
    """A reduced row echelon form: the ReducedBasis of the row space, and
    the padded `reduced` matrix (the input's shape, nonzero rows first)
    built on demand."""

    __slots__ = ("basis", "nrows")

    def __init__(self, basis, nrows):
        self.basis = basis
        self.nrows = nrows

    @property
    def pivots(self):
        return self.basis.pivots

    @property
    def rank(self):
        return self.basis.dim

    @property
    def reduced(self):
        b = self.basis
        zrow = (b.field.zero,) * b.width
        return Matrix(b.field, b.rows + [zrow] * (self.nrows - b.dim), b.width)


def _row_span(m):
    span = EchelonSpan(m.field, m.ncols)
    span.extend(m.rows)
    return span


def rref(m):
    """Reduced row echelon form of m, as an RREF."""
    return RREF(_row_span(m).reduced_basis(), m.nrows)


def rank(m):
    return _row_span(m).rank


def kernel_basis(m):
    """A matrix whose columns span the null space of m (ncols x nullity),
    one per free column of its echelon form."""
    proj, _ = rref(m).basis.complement()
    return Matrix.from_sparse(m.field, proj, m.ncols).transpose()


def solve_linear(a, b):
    """Solve a x = b exactly; returns x (ncols_a x ncols_b) or None.

    b must have the same number of rows as a. Inconsistent systems return
    None; underdetermined systems get the free variables set to zero.
    """
    if a.field != b.field:
        raise FieldMismatchError("fields differ")
    if a.nrows != b.nrows:
        raise LinAlgError("row counts differ")
    f = a.field
    n = a.ncols
    aug_rows = [ra + rb for ra, rb in zip(a.rows, b.rows)]
    r = rref(Matrix(f, aug_rows, n + b.ncols)).basis
    if r.pivots and r.pivots[-1] >= n:
        return None
    sol = [(f.zero,) * b.ncols] * n
    for row, p in zip(r.rows, r.pivots):
        sol[p] = row[n:]
    return Matrix(f, sol, b.ncols)


def quotient_space(ambient_dim, subspace):
    """Projection/section pair for k^ambient_dim modulo the column span.

    Returns (projection, section) with projection . section = identity on
    the quotient and kernel(projection) = column span of `subspace`.
    The complement is the span of the coordinates that are not pivots of
    the subspace, which makes the construction canonical.
    """
    f = subspace.field
    if subspace.nrows not in (0, ambient_dim) and subspace.ncols > 0:
        raise LinAlgError("subspace columns do not live in the ambient space")
    span = EchelonSpan(f, ambient_dim)
    span.extend(subspace.col(j) for j in range(subspace.ncols))
    proj, free = span.reduced_basis().complement()
    sect = [unit_vector(f, ambient_dim, j) for j in free]
    return (Matrix.from_sparse(f, proj, ambient_dim),
            Matrix(f, sect, ambient_dim).transpose())


def sparse_rank(rows, width, field):
    """Rank of a matrix given as an iterable of sparse rows (dict col->val),
    for the big, very sparse differentials of bar-type complexes."""
    span = EchelonSpan(field, width)
    span.extend(rows)
    return span.rank
