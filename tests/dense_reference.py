"""A dense reference for the engine's sparse maps and elements, for tests
only.

A dense matrix here is a tuple of rows, each a tuple of canonical field
elements, and a dense vector one such row. `columns` and `rows` convert
between the two formats of a map, `pairs` and `vector` those of a vector
(an algebra element, say); `mul`, `kron` and `product` are the textbook
dense routines the sparse ones are compared with. Two routines keep
constructions the engine has replaced, as references for what replaced
them: `tensor_table`, the pure-tensor loop over the cells of a tensor
algebra's table, and `kron_sides`, the two sides of a projective bimodule
as Kronecker products with an identity.
"""


def columns(field, rows, ncols=None):
    """The column-sparse map with the given dense rows (entries are
    canonicalised); ncols gives the width of a matrix with no rows."""
    width = len(rows[0]) if rows else ncols or 0
    return tuple(tuple((i, x) for i, r in enumerate(rows)
                       if (x := field.of(r[j])))
                 for j in range(width))


def rows(field, cols, nrows):
    """The dense rows of a column-sparse map with nrows rows."""
    out = [[field.zero] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return tuple(map(tuple, out))


def pairs(vec):
    """The nonzero (index, coeff) entries of a dense vector of canonical
    elements: the engine's format of a vector."""
    return tuple((i, x) for i, x in enumerate(vec) if x)


def vector(field, n, entries):
    """The dense vector of length n with the given (index, coeff) entries,
    in any order."""
    out = [field.zero] * n
    for i, x in entries:
        out[i] = x
    return tuple(out)


def product(a, x, y):
    """The product of dense vectors x and y in the algebra a, by the triple
    loop over its structure constants."""
    f = a.field
    out = [f.zero] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            for k, c in a.table[i][j]:
                out[k] = f.add(out[k], f.mul(f.mul(f.of(x[i]), f.of(y[j])), c))
    return tuple(out)


def identity(field, n):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def mul(field, a, b, ncols):
    """The product of dense matrices a and b, b with ncols columns."""
    out = []
    for row in a:
        acc = [field.zero] * ncols
        for k, x in enumerate(row):
            for j in range(ncols):
                acc[j] = field.add(acc[j], field.mul(x, b[k][j]))
        out.append(tuple(acc))
    return tuple(out)


def kron(field, a, b):
    return tuple(tuple(field.mul(x, y) for x in ra for y in rb)
                 for ra in a for rb in b)


def tensor_table(a, b):
    """The multiplication table of A (x)_k B, basis pairs in row-major
    order, cell by cell: the cell of b_p (x) b_q and b_j (x) b_l is the
    pure tensor (b_p b_j) (x) (b_q b_l) of two cells of the factors."""
    f, nb = a.field, b.dim
    return tuple(tuple(tuple((i * nb + s, f.mul(x, y))
                             for i, x in acell for s, y in bcell)
                       if acell and bcell else ()
                       for acell in arow for bcell in brow)
                 for arow in a.table for brow in b.table)


def kron_sides(field, lmod, rmod):
    """The two actions on V (x) W of the left module lmod on V and the
    left module rmod on W (a right module, over the opposite algebra):
    each action map of lmod (x) the identity and the identity (x) each of
    rmod, by dense Kronecker products, as column-sparse maps."""
    lid, rid = identity(field, lmod.dim), identity(field, rmod.dim)
    return (tuple(columns(field, kron(field, rows(field, m, lmod.dim), rid))
                  for m in lmod.action),
            tuple(columns(field, kron(field, lid, rows(field, m, rmod.dim)))
                  for m in rmod.action))


def back_eliminated(span):
    """The reduced echelon rows (as sorted (index, coeff) tuples) and the
    pivots of an EchelonSpan, by textbook back-elimination: each pivot
    row, from the last up, is subtracted from every row above it that is
    nonzero at its pivot, O(rank^2) row visits whatever the sparsity."""
    f = span.field
    pivots = sorted(span.pivot_to_row)
    rows = []
    for p in pivots:
        raw = span.pivot_to_row[p]
        inv = f.inv(f.of(raw[p]))
        rows.append({c: f.mul(inv, f.of(x)) for c, x in raw.items()})
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        for row in rows[:i]:
            c = row.get(p)
            if c:
                for t, b in rows[i].items():
                    v = f.sub(row.get(t, f.zero), f.mul(c, b))
                    if v:
                        row[t] = v
                    else:
                        del row[t]
    return [tuple(sorted(row.items())) for row in rows], tuple(pivots)
