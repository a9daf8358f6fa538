"""Exact linear algebra over the rationals and prime fields.

Everything in this module is exact: rational arithmetic uses
fractions.Fraction (always in lowest terms with positive denominator),
prime-field arithmetic uses canonical residues in [0, p).

Elimination over the rationals is fraction-free: rows are scaled to
integers and row operations use cross-multiplication followed by a gcd
division, which keeps intermediate entries small without ever rounding.
Dense matrices are the right shape for this engine; the modules that sit
on top stay in the tens-to-hundreds of dimensions.
"""

from fractions import Fraction
from math import gcd

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
        return GF(int(spec[2:]))
    raise LinAlgError(f"unknown field spec {spec!r}")


class Matrix:
    """Immutable dense matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise LinAlgError("ragged rows")

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        rows = [[field.of(x) for x in r] for r in rows]
        if not rows and ncols is not None:
            m = cls(field, [])
            m.ncols = ncols
            return m
        return cls(field, rows)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        m = cls(field, [[z] * ncols for _ in range(nrows)])
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        if not cols:
            return cls.zeros(field, nrows or 0, 0)
        height = len(cols[0])
        if height == 0:
            return cls.zeros(field, 0, len(cols))
        return cls(field, [[field.of(col[i]) for col in cols]
                           for i in range(height)])

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self):
        m = Matrix(self.field, [self.col(j) for j in range(self.ncols)])
        m.ncols = self.nrows
        return m

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
        m = Matrix(f, out)
        m.ncols = ocols
        return m

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise LinAlgError("vector length mismatch")
        f = self.field
        out = []
        for row in self.rows:
            s = f.zero
            for a, x in zip(row, vec):
                if a and x:
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return tuple(out)

    def add(self, other):
        self._check_same_shape(other)
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def sub(self, other):
        self._check_same_shape(other)
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c):
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows])

    def neg(self):
        f = self.field
        return Matrix(f, [[f.neg(a) for a in r] for r in self.rows])

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatchError("matrix fields differ")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch")

    def is_zero(self):
        f = self.field
        return all(f.is_zero(a) for r in self.rows for a in r)

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


def _int_row_from_fractions(row):
    """Scale a rational row to a primitive integer row (gcd 1)."""
    den = 1
    for a in row:
        d = a.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        ints = [a.numerator for a in row]
    else:
        ints = [(a.numerator * den) // a.denominator for a in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            return ints
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _normalize_int_row(row):
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = [v // g for v in row]
    return row


class EchelonSpan:
    """A growing subspace of k^width kept in row-echelon form.

    Over the rationals rows are stored as primitive integer vectors and
    reduction uses cross-multiplication plus a gcd division (fraction-free);
    over GF(p) rows are stored with leading coefficient 1. Insertion cost is
    O(rank * width) per vector, which makes this the workhorse for all the
    span/quotient bookkeeping in the engine.
    """

    __slots__ = ("field", "width", "pivot_to_row", "_rational")

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.pivot_to_row = {}
        self._rational = field.characteristic == 0

    @property
    def rank(self):
        return len(self.pivot_to_row)

    def _prepare(self, vec):
        if self._rational:
            row = [v if type(v) is Fraction else Fraction(v) for v in vec]
            return _int_row_from_fractions(row)
        p = self.field.p
        return [int(v) % p for v in vec]

    def _reduce(self, row):
        """Reduce an integer/residue row against the stored pivots.

        Returns the reduced row (possibly all zero)."""
        piv = self.pivot_to_row
        if self._rational:
            lead = _first_nonzero(row)
            while lead is not None and lead in piv:
                prow = piv[lead]
                a, b = prow[lead], row[lead]
                row = [x * a - y * b for x, y in zip(row, prow)]
                row = _normalize_int_row(row)
                lead = _first_nonzero(row, lead + 1)
            return row, lead
        p = self.field.p
        lead = _first_nonzero(row)
        while lead is not None and lead in piv:
            prow = piv[lead]
            b = row[lead]
            row = [(x - y * b) % p for x, y in zip(row, prow)]
            lead = _first_nonzero(row, lead + 1)
        return row, lead

    def insert(self, vec):
        """Add vec to the span. Returns True if the span grew."""
        row, lead = self._reduce(self._prepare(vec))
        if lead is None:
            return False
        if self._rational:
            if row[lead] < 0:
                row = [-x for x in row]
        else:
            inv = pow(row[lead], -1, self.field.p)
            row = [(x * inv) % self.field.p for x in row]
        self.pivot_to_row[lead] = row
        return True

    def contains(self, vec):
        row, lead = self._reduce(self._prepare(vec))
        return lead is None

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
            rows.append([mul(inv, of(x)) if x else zero for x in raw])
        # eliminate pivot columns above each pivot
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            nonzero = [(t, b) for t, b in enumerate(rows[i]) if b]
            for j in range(i):
                row = rows[j]
                c = row[p]
                if c:
                    for t, b in nonzero:
                        row[t] = sub(row[t], mul(c, b))
        return ReducedBasis(f, self.width, rows, pivots)


def nonzero_pairs(field, vec):
    """The nonzero entries of vec, canonicalised, as (index, coeff) pairs."""
    of = field.of
    return [(i, of(c)) for i, c in enumerate(vec) if c]


def _first_nonzero(row, start=0):
    for i in range(start, len(row)):
        if row[i]:
            return i
    return None


class ReducedBasis:
    """A reduced row-echelon basis of a subspace, with cheap coordinates.

    Rows have leading coefficient one and zeros in the other pivot columns,
    so the coordinates of a vector in the span are just its pivot entries.
    Each row's nonzero entries are kept as well, so a vector is reduced
    only at the pivots where it is nonzero, by sparse row updates.
    """

    __slots__ = ("field", "width", "rows", "pivots", "_sparse")

    def __init__(self, field, width, rows, pivots):
        self.field = field
        self.width = width
        self.rows = [tuple(r) for r in rows]
        self.pivots = tuple(pivots)
        self._sparse = None

    @property
    def dim(self):
        return len(self.rows)

    @property
    def sparse_rows(self):
        """Each row's nonzero entries as (index, coeff) pairs; built on
        first use, with the row of each pivot, as most bases never need it."""
        if self._sparse is None:
            self._sparse = ([tuple((i, b) for i, b in enumerate(r) if b)
                             for r in self.rows],
                            {p: t for t, p in enumerate(self.pivots)})
        return self._sparse[0]

    def sparse_coords(self, vec):
        """Coordinates of a vector given as (index, canonical coeff) pairs,
        as a dict row -> coeff, or None if the vector is not in the span."""
        f = self.field
        sub, mul, zero = f.sub, f.mul, f.zero
        sparse_rows, row_of = self.sparse_rows, self._sparse[1]
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
        f = self.field
        out = [f.zero] * self.width
        for c, row in zip(coords, self.rows):
            if not f.is_zero(c):
                for i, b in enumerate(row):
                    if not f.is_zero(b):
                        out[i] = f.add(out[i], f.mul(c, b))
        return tuple(out)

    def row_matrix(self):
        m = Matrix(self.field, self.rows)
        m.ncols = self.width
        return m

    def col_matrix(self):
        """Basis vectors as columns (width x dim)."""
        return self.row_matrix().transpose()


class RREF:
    __slots__ = ("reduced", "pivots", "rank")

    def __init__(self, reduced, pivots):
        self.reduced = reduced
        self.pivots = tuple(pivots)
        self.rank = len(self.pivots)


def rref(m):
    """Reduced row echelon form: returns an RREF(reduced, pivots, rank).

    The reduced matrix has the same shape as the input: nonzero rows first
    (leading one, zeros above and below each pivot), then zero rows.
    """
    span = EchelonSpan(m.field, m.ncols)
    for row in m.rows:
        span.insert(row)
    rb = span.reduced_basis()
    f = m.field
    zrow = (f.zero,) * m.ncols
    rows = list(rb.rows) + [zrow] * (m.nrows - rb.dim)
    red = Matrix(f, rows)
    red.ncols = m.ncols
    return RREF(red, rb.pivots)


def rank(m):
    return rref(m).rank


def kernel_basis(m):
    """A matrix whose columns span the null space of m (ncols x nullity)."""
    r = rref(m)
    f = m.field
    pivots = r.pivots
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    cols = []
    for fcol in free:
        v = [f.zero] * m.ncols
        v[fcol] = f.one
        for i, p in enumerate(pivots):
            v[p] = f.neg(r.reduced.rows[i][fcol])
        cols.append(v)
    return Matrix.from_cols(f, cols, nrows=m.ncols)


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
    aug_rows = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    aug = Matrix(f, aug_rows) if aug_rows else Matrix.zeros(f, 0, a.ncols + b.ncols)
    aug.ncols = a.ncols + b.ncols
    r = rref(aug)
    for i, p in enumerate(r.pivots):
        if p >= a.ncols:
            return None
    sol = [[f.zero] * b.ncols for _ in range(a.ncols)]
    for i, p in enumerate(r.pivots):
        row = r.reduced.rows[i]
        for j in range(b.ncols):
            sol[p][j] = row[a.ncols + j]
    out = Matrix(f, sol) if sol else Matrix.zeros(f, 0, b.ncols)
    out.ncols = b.ncols
    return out


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
    for j in range(subspace.ncols):
        span.insert(subspace.col(j))
    rb = span.reduced_basis()
    pivot_set = set(rb.pivots)
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    q = len(free)
    proj = [[f.zero] * ambient_dim for _ in range(q)]
    for t, fcol in enumerate(free):
        proj[t][fcol] = f.one
        for i, p in enumerate(rb.pivots):
            c = rb.rows[i][fcol]
            if not f.is_zero(c):
                proj[t][p] = f.neg(c)
    sect = [[f.zero] * q for _ in range(ambient_dim)]
    for t, fcol in enumerate(free):
        sect[fcol][t] = f.one
    pm = Matrix(f, proj) if proj else Matrix.zeros(f, 0, ambient_dim)
    pm.ncols = ambient_dim
    sm = Matrix(f, sect) if sect else Matrix.zeros(f, ambient_dim, 0)
    sm.ncols = q
    return pm, sm


def sparse_rank(rows, width, field):
    """Rank of a matrix given as an iterable of sparse rows (dict col->val).

    Fraction-free over the rationals. Used for the big, very sparse
    differentials of bar-type complexes where dense elimination would be
    wasteful.
    """
    rational = field.characteristic == 0
    pivots = {}
    rk = 0
    for row in rows:
        if rational:
            vec = {c: Fraction(v) for c, v in row.items() if v}
            if vec:
                den = 1
                for v in vec.values():
                    den = den * v.denominator // gcd(den, v.denominator)
                vec = {c: int(v * den) for c, v in vec.items()}
        else:
            p = field.p
            vec = {c: int(v) % p for c, v in row.items() if int(v) % p}
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None:
                if rational:
                    g = 0
                    for v in vec.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                    if g > 1:
                        vec = {c: v // g for c, v in vec.items()}
                else:
                    inv = pow(vec[lead], -1, field.p)
                    vec = {c: (v * inv) % field.p for c, v in vec.items()}
                pivots[lead] = vec
                rk += 1
                break
            if rational:
                a, b = prow[lead], vec[lead]
                new = {}
                for c in set(vec) | set(prow):
                    v = vec.get(c, 0) * a - prow.get(c, 0) * b
                    if v:
                        new[c] = v
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                vec = new
            else:
                p = field.p
                b = vec[lead]
                new = {}
                for c in set(vec) | set(prow):
                    v = (vec.get(c, 0) - prow.get(c, 0) * b) % p
                    if v:
                        new[c] = v
                vec = new
    return rk
