"""Field dispatch over the two kernels, and the scans written once for
both fields.

`ops_for(p)` gives the ops object of GF(p): `bitmat.F2Ops` at p = 2,
`modp.FpOps(p)` otherwise, each holding its field's whole kernel with
the same methods.  Modules and submodules never look inside a row; they
go through that object.  Both fields share one layout: a matrix is a
tuple of rows, built with `tuple(rows)`, and is its own hashable key.
For p = 2 a row is a Python-int bitset; otherwise a row is a tuple of
ints in [0, p).  Callers rely only on `len()`, indexing and iteration
over rows.  All methods treat row spaces as immutable values in fully
reduced row-echelon form.  Each kernel eliminates a row against a
reduced basis in `reduce_row` alone; a row lies in the span exactly
when `is_zero` holds of the result.  A dense matrix is a list of int
rows with entries in [0, p) in both fields; `pack` takes any iterable
of int rows and `unpack` gives lists.

The scan of every distinct cyclic submodule is written once, for both
fields, as `cyclic_submodules`: it reads the graph of the lines from
the ops' `line_graph` and closes it with the ops' `rref`.
"""

from .bitmat import F2Ops
from .modp import FpOps
from .quiver import _tarjan


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
    """Ops object for GF(p); neither kind holds state beyond p."""
    return F2Ops() if p == 2 else FpOps(p)


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
