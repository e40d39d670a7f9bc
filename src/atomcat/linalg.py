"""Field-dispatching facade over the GF(2) bitset kernel and mod-p code.

Modules and submodules never look inside a row; they go through an ops
object obtained from `ops_for(p)`.  Both fields share one layout: a
matrix is a tuple of rows, built with `tuple(rows)`, and is its own
hashable key.  For p = 2 a row is a Python-int bitset (`bitmat`);
otherwise a row is a tuple of ints in [0, p) (`modp`).  Callers rely
only on `len()`, indexing and iteration over rows.  All methods treat
row spaces as immutable values in fully reduced row-echelon form.
A dense matrix is a list of int rows with entries in [0, p) in both
fields; `pack` takes any iterable of int rows and `unpack` gives lists.

The scan of every distinct cyclic submodule is written once, for both
fields, as `cyclic_submodules`: it reads the graph of the lines from
the ops' `line_graph` and closes it with the ops' `rref`.
"""

from . import bitmat, modp
from .quiver import _tarjan


class F2Ops:
    p = 2

    def pack(self, dense, n):
        return tuple(sum(1 << j for j, x in enumerate(row) if x & 1)
                     for row in dense)

    def unpack(self, rows, n):
        return [[r >> j & 1 for j in range(n)] for r in rows]

    def zero_vec(self, n):
        return 0

    def unit_vec(self, i, n):
        return 1 << i

    def rref(self, mat, n, space=None, full=None):
        return bitmat.rref(mat, n, space, full)

    def reduce_row(self, row, basis, pivots):
        return bitmat.reduce_row(row, basis, pivots)

    def vec_mat(self, v, act, n):
        return bitmat.vec_mat(v & ((1 << n) - 1), act)

    def line_graph(self, acts, n):
        return bitmat.line_graph(acts, n)

    def nullspace(self, mat, n):
        return bitmat.nullspace(mat, n)

    def left_nullspace(self, mat, nrows, n):
        return bitmat.left_nullspace(mat, nrows, n)

    def coords(self, row, basis, pivots, n):
        return bitmat.coords_in_basis(row, basis, pivots)

    def spin_up(self, seed, acts, n, bound):
        return bitmat.spin_up(seed, acts, n, bound)

    def unpack_form(self, form, n, m):
        return bitmat.unpack_form(form, n, m)

    def is_zero(self, vec):
        return not vec

    def add(self, a, b, c=1):
        return a ^ b if c & 1 else a

    def delete_coordinate(self, mat, i):
        low = (1 << i) - 1
        return tuple(r & low | r >> 1 & ~low
                     for j, r in enumerate(mat) if j != i)

    def line_seeds(self, n):  # each line has one nonzero vector
        return range(1, 1 << n)


class FpOps:
    def __init__(self, p):
        self.p = p

    def pack(self, dense, n):
        return tuple(tuple(int(x) % self.p for x in row) for row in dense)

    def unpack(self, rows, n):
        return [list(r) for r in rows]

    def zero_vec(self, n):
        return (0,) * n

    def unit_vec(self, i, n):
        return (0,) * i + (1,) + (0,) * (n - i - 1)

    def rref(self, mat, n, space=None, full=None):
        return modp.rref(mat, self.p, n, space, full)

    def reduce_row(self, row, basis, pivots):
        return modp.reduce_row(row, basis, pivots, self.p)

    def vec_mat(self, v, act, n):
        return modp.vec_mat(v, act, self.p)

    def line_graph(self, acts, n):
        return modp.line_graph(acts, n, self.p)

    def nullspace(self, mat, n):
        return modp.nullspace(mat, n, self.p)

    def left_nullspace(self, mat, nrows, n):
        return modp.left_nullspace(mat, nrows, n, self.p)

    def coords(self, row, basis, pivots, n):
        return modp.coords_in_basis(row, basis, pivots, self.p)

    def line_seeds(self, n):
        return modp.line_seeds(n, self.p)

    def spin_up(self, seed, acts, n, bound):
        return modp.spin_up(seed, acts, n, self.p, bound)

    def unpack_form(self, form, n, m):
        return form

    def is_zero(self, vec):
        return not any(vec)

    def add(self, a, b, c=1):
        return tuple((x + c * y) % self.p for x, y in zip(a, b))

    def delete_coordinate(self, mat, i):
        return tuple(r[:i] + r[i + 1:] for j, r in enumerate(mat) if j != i)


_F2 = F2Ops()
_CACHE = {2: _F2}


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def ops_for(p):
    """Ops object for GF(p); cached per prime."""
    if p not in _CACHE:
        _CACHE[p] = FpOps(p)
    return _CACHE[p]


def in_span(ops, row, basis, pivots):
    return ops.is_zero(ops.reduce_row(row, basis, pivots))


def span_contains(ops, big, big_piv, small, small_piv):
    """Whether the row space `small` is contained in `big`."""
    return all(in_span(ops, row, big, big_piv) for row in small)


def cyclic_submodules(ops, acts, n):
    """The distinct cyclic submodules of GF(p)^n under `acts`, each
    (basis, pivots) in rref, listed at their first seed of the field's
    `line_graph`.

    One pass over that graph, from each line's seed to the lines of its
    images.  The cyclic submodule of a seed is its span plus those of
    its images, so the seeds of a strongly connected component share
    one, and each component is closed once (`quiver._tarjan` gives
    them sinks first): the ops' `rref` extends the first successor
    closure met by the component's seeds and its other successors'
    closures and stops at full rank with the scan's one identity
    space; a full successor closure ends the component at once.  Equal
    spaces are one object.  The zero vector (node 0 at p = 2) closes
    to the zero space, not listed.
    """
    seeds, succ = ops.line_graph(acts, n)
    rref = ops.rref
    closure, spaces = [None] * len(seeds), {}
    full = tuple(ops.unit_vec(i, n) for i in range(n)), tuple(range(n))
    for comp in _tarjan(succ, len(seeds)):
        rows, first, space = [], None, None
        for v in comp:
            rows.append(seeds[v])
            for w in succ[v]:
                c = closure[w]
                if c is None or c is first:
                    continue
                if len(c[1]) == n:
                    space = c
                    break
                if first is None:
                    first = c
                else:
                    rows += c[0]
            if space is not None:
                break
        else:
            space = rref(rows, n, first, full)
            if space is not first:
                space = spaces.setdefault(space, space)
        for v in comp:
            closure[v] = space
    return tuple({id(c): c for c in closure if c[1]}.values())
