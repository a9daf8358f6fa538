"""Bar-complex routes to Hochschild homology, used as independent oracles.

Two truncated complexes are provided:

  * the full (unnormalized) Hochschild chain complex C_i = A^{(x)(i+1)},
    for small algebras;
  * the chain complex relative to the separable diagonal S = k^r spanned
    by the idempotents, C_i = A (x)_{S^e} rad^{(x)_S i}, whose terms stay
    small for quiver algebras because only idempotent-compatible chains
    survive.

Both compute homology through the ranks of their differentials, fed as
sparse rows to the one elimination kernel (linalg.EchelonSpan), and share
nothing with the minimal-resolution route in resolutions.py, which is the
point.
"""

from .errors import InternalCheckError, ValidationError
from .linalg import EchelonSpan, sparse_rank

_FULL_BAR_GUARD = 400_000
_CHAIN_GUARD = 200_000


def full_bar_homology(a, i_max):
    """Hochschild homology dims for i = 0..i_max via the full bar complex.

    Terms have dimension (dim A)^(i+1); guarded against blowup, so this is
    for small algebras only."""
    n = a.dim
    if n ** (i_max + 2) > _FULL_BAR_GUARD:
        raise ValidationError("full bar complex too large; use the relative one")
    f = a.field

    def tuples(length):
        if length == 0:
            yield ()
            return
        for rest in tuples(length - 1):
            for t in range(n):
                yield rest + (t,)

    def index(tup):
        out = 0
        for t in tup:
            out = out * n + t
        return out

    ranks = {}
    for i in range(1, i_max + 2):
        rows = []
        # one sparse row per source basis tensor (the transpose of d_i)
        for tup in tuples(i + 1):
            col = {}
            for j in range(i + 1):
                if j < i:
                    prod = a.table[tup[j]][tup[j + 1]]
                    make = lambda k: tup[:j] + (k,) + tup[j + 2:]
                else:
                    prod = a.table[tup[i]][tup[0]]
                    make = lambda k: (k,) + tup[1:i]
                negate = j % 2 == 1
                for k, c in prod:
                    idx = index(make(k))
                    val = col.get(idx, f.zero)
                    val = f.add(val, f.neg(c) if negate else c)
                    if not val:
                        col.pop(idx, None)
                    else:
                        col[idx] = val
            rows.append(col)
        ranks[i] = sparse_rank(rows, n ** i, f)
    dims = []
    for i in range(i_max + 1):
        dims.append(n ** (i + 1) - ranks.get(i, 0) - ranks.get(i + 1, 0))
    return dims


def _sandwich_blocks(a, rows):
    """Split the span of `rows` (algebra elements, as (index, coeff) pairs)
    into idempotent sandwich blocks e_u . x . e_v; returns {(u, v):
    ReducedBasis}. The span must be idempotent-stable (its block dimensions
    add up)."""
    f = a.field
    spans = {}
    total_in = EchelonSpan(f, a.dim)
    for x in rows:
        total_in.insert(x)
        for u, eu in enumerate(a.idempotents):
            left = a.sparse_multiply(eu, x)
            if not left:
                continue
            for v, ev in enumerate(a.idempotents):
                w = a.sparse_multiply(left, ev)
                if w:
                    spans.setdefault((u, v), EchelonSpan(f, a.dim)).insert(w)
    blocks = {uv: s.reduced_basis() for uv, s in spans.items()}
    if sum(b.dim for b in blocks.values()) != total_in.rank:
        raise InternalCheckError("span is not idempotent-stable")
    return blocks


def relative_bar_homology(a, i_max):
    """Hochschild homology dims for i = 0..i_max via the chain complex
    relative to the separable diagonal subalgebra.

    A degree-i chain is (x, r_1, ..., r_i) with x in e_u A e_{v_0} and
    r_j in e_{v_{j-1}} rad e_{v_j}, closed cyclically by v_i = u. The
    chain's block path (u, v_0, ..., v_i) is part of its basis key.
    """
    f = a.field
    a_blocks = _sandwich_blocks(a, [((t, f.one),) for t in range(a.dim)])
    rad_blocks = _sandwich_blocks(a, a.radical_rows)
    rad_items = sorted(rad_blocks.items())

    def chains(i):
        for (u, v0), blk in sorted(a_blocks.items()):
            for aidx in range(blk.dim):
                stack = [((blk.sparse_rows[aidx],), (u, v0))]
                while stack:
                    vecs, path = stack.pop()
                    if len(vecs) == i + 1:
                        if path[-1] == u:
                            yield vecs, path
                        continue
                    v_prev = path[-1]
                    last = len(vecs) == i
                    for (x, y), rblk in rad_items:
                        if x != v_prev or (last and y != u):
                            continue
                        for t in range(rblk.dim):
                            stack.append((vecs + (rblk.sparse_rows[t],),
                                          path + (y,)))

    orders = {}
    index_maps = {}
    for i in range(i_max + 2):
        order = []
        imap = {}
        for vecs, path in chains(i):
            key = (path, tuple(vecs))
            imap[key] = len(order)
            order.append((vecs, path))
            if len(order) > _CHAIN_GUARD:
                raise ValidationError("relative bar chains exploded")
        orders[i] = order
        index_maps[i] = imap

    ranks = {}
    for i in range(1, i_max + 2):
        imap = index_maps[i - 1]
        rows = []
        for vecs, path in orders[i]:
            col = {}
            for j in range(i + 1):
                if j == 0:
                    prod = a.sparse_multiply(vecs[0], vecs[1])
                    new_path = (path[0],) + path[2:]
                    blk = a_blocks.get((new_path[0], new_path[1]))
                    build = lambda row: (row,) + vecs[2:]
                elif j < i:
                    prod = a.sparse_multiply(vecs[j], vecs[j + 1])
                    new_path = path[:j + 1] + path[j + 2:]
                    blk = rad_blocks.get((path[j], path[j + 2]))
                    build = lambda row, j=j: vecs[:j] + (row,) + vecs[j + 2:]
                else:
                    prod = a.sparse_multiply(vecs[i], vecs[0])
                    new_path = (path[i],) + path[1:i + 1]
                    blk = a_blocks.get((new_path[0], new_path[1]))
                    build = lambda row: (row,) + vecs[1:i]
                if not prod:
                    continue
                if blk is None:
                    raise InternalCheckError("face product outside known blocks")
                coords = blk.sparse_coords(prod)
                if coords is None:
                    raise InternalCheckError("face product left its sandwich block")
                negate = j % 2 == 1
                for t, c in sorted(coords.items()):
                    key = (new_path, tuple(build(blk.sparse_rows[t])))
                    target = imap.get(key)
                    if target is None:
                        raise InternalCheckError("face image missing from basis")
                    val = col.get(target, f.zero)
                    val = f.add(val, f.neg(c) if negate else c)
                    if not val:
                        col.pop(target, None)
                    else:
                        col[target] = val
            rows.append(col)
        ranks[i] = sparse_rank(rows, len(orders[i - 1]), f)
    dims = []
    for i in range(i_max + 1):
        dims.append(len(orders[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0))
    return dims
