"""A dense reference for the engine's column-sparse maps, for tests only.

A dense matrix here is a tuple of rows, each a tuple of canonical field
elements. `columns` and `rows` convert between the two formats, `mul`
and `kron` are the textbook dense routines the sparse ones are compared
with, and `diff_columns` reads a resolution's row-sparse differential
by its columns.
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


def diff_columns(diff):
    """A differential (rows, ncols) of a resolution, one sparse row (a
    dict col -> value) per target coordinate, as a column-sparse map."""
    rows_, ncols = diff
    cols = [[] for _ in range(ncols)]
    for i, r in enumerate(rows_):
        for j, x in r.items():
            cols[j].append((i, x))
    return tuple(map(tuple, cols))
