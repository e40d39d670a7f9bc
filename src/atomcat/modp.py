"""Row-vector linear algebra mod a prime p: `FpOps(p)`, the kernel of
the field that `linalg.ops_for(p)` returns for odd p.

A vector over GF(p) is a tuple of ints in [0, p) and a matrix a tuple of
such rows, so a matrix is its own hashable key.  GF(2) has its own
bitset kernel (`bitmat.F2Ops`), and this class mirrors its structure:
row spaces are kept fully reduced, every pivot (a row's first nonzero
coordinate) is 1 and no other row has a nonzero entry in a pivot
column, so the sorted basis tuple with its ascending pivot tuple is
unique for the space.  As in `bitmat`, `reduce_row` is the one
elimination of a row against a basis, which `rref` and `coords` call,
and the cyclic scan takes its image graph of the lines (`line_graph`)
and its row reduction (`rref`) from here and its loop from
`linalg.cyclic_submodules`.  `FpOps(2)` is correct too, which makes it
an independent check of `F2Ops` in the tests.
"""

from itertools import product


def _admit(row, basis, p):
    """Add a reduced nonzero row to a reduced basis dict, scaled to a
    unit pivot and cleared from the pivot column of the other rows."""
    piv = next(j for j, x in enumerate(row) if x)
    inv = pow(row[piv], p - 2, p)
    row = tuple(x * inv % p for x in row)
    for q, b in basis.items():
        a = b[piv]
        if a:
            basis[q] = tuple((x - a * y) % p for x, y in zip(b, row))
    basis[piv] = row
    return row


def _sorted(basis):
    pivots = tuple(sorted(basis))
    return tuple(basis[q] for q in pivots), pivots


def _vec_mat(v, act, p):
    """Row vector times matrix: the rows of act weighted by v."""
    out = [0] * len(act[0])
    for a, row in zip(v, act):
        if a:
            out = [x + a * y for x, y in zip(out, row)]
    return tuple(x % p for x in out)


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

    def is_zero(self, vec):
        return not any(vec)

    def add(self, a, b, c=1):
        return tuple((x + c * y) % self.p for x, y in zip(a, b))

    def delete_coordinate(self, mat, i):
        return tuple(r[:i] + r[i + 1:] for j, r in enumerate(mat) if j != i)

    def line_seeds(self, n):
        """One vector per line of GF(p)^n, the one with leading
        coordinate 1, in lexicographic order."""
        return (s for s in product(range(self.p), repeat=n)
                if next((x for x in s if x), 0) == 1)

    def rref(self, mat, n, space=None, full=None):
        """Fully reduced row-echelon form of the rows of an rref `space`
        (none by default) followed by those of `mat`, rows in [0, p),
        stopping at rank n.  Returns (basis, pivots), `space` itself when
        `mat` adds nothing to it, and at rank n the given `full` space."""
        p = self.p
        basis = {} if space is None else dict(zip(space[1], space[0]))
        rank, reduce_row = len(basis), self.reduce_row
        for row in mat:
            row = reduce_row(row, basis.values(), basis)
            if any(row):
                _admit(row, basis, p)
                if len(basis) == n:
                    return full or _sorted(basis)
        if space is not None and len(basis) == rank:
            return space
        return _sorted(basis)

    def reduce_row(self, row, basis, pivots):
        """Eliminate the pivot columns of the rref `basis` from `row`."""
        p = self.p
        for b, piv in zip(basis, pivots):
            a = row[piv]
            if a:
                row = tuple((x - a * y) % p for x, y in zip(row, b))
        return row

    def vec_mat(self, v, act, n):
        return _vec_mat(v, act, self.p)

    def line_graph(self, acts, n):
        """The image graph of the lines of GF(p)^n under `acts`: (seeds,
        successor lists), the seeds `line_seeds(n)`, seed s -> the line
        of s A for each A in `acts` (a nonzero image scaled to leading
        coordinate 1)."""
        p = self.p
        seeds = tuple(self.line_seeds(n))
        index = {s: i for i, s in enumerate(seeds)}
        succ = []
        for s in seeds:
            out = []
            for act in acts:
                w = _vec_mat(s, act, p)
                lead = next((x for x in w if x), 0)
                if lead:
                    inv = pow(lead, p - 2, p)
                    out.append(index[tuple(x * inv % p for x in w)])
            succ.append(out)
        return seeds, succ

    def nullspace(self, mat, n):
        """Basis of {x : row . x = 0 for every row of mat}, x over n
        coordinates; one vector per free column of the rref."""
        red, piv = self.rref(mat, None)
        pivset = set(piv)
        out = []
        for j in range(n):
            if j in pivset:
                continue
            x = [0] * n
            x[j] = 1
            for r, q in zip(red, piv):
                x[q] = -r[j] % self.p
            out.append(tuple(x))
        return tuple(out)

    def left_nullspace(self, mat, nrows, n):
        """Basis of {v : v . mat = 0}, v over the first nrows rows of the
        n-column mat."""
        return self.nullspace(tuple(zip(*mat[:nrows])), nrows)

    def coords(self, row, basis, pivots, n):
        """Coefficients of `row` in an rref basis, or None if `row` is
        not in the span.  With unit pivots and a fully reduced basis the
        coefficient of basis row i is the entry of `row` at pivot column
        i."""
        if any(self.reduce_row(row, basis, pivots)):
            return None
        return tuple(row[q] for q in pivots)

    def spin_up(self, seed, acts, n, bound):
        """Parker's standard basis (the Meat-Axe) spun up from `seed`: the
        images of each basis vector in turn under `acts` join the basis
        when independent of it.  They reduce against a semi-echelon copy
        of the basis that tracks coordinates, so form[i][j], the
        coordinates of the image of basis vector i under action j, is
        row i of action j in the new basis.  With a form `bound`, None as
        soon as the form built so far exceeds the same leading entries of
        `bound`: the whole form would exceed it."""
        p = self.p
        basis, echelon = [], []  # echelon rows: (pivot, row, coordinates)

        def coords_of(w):
            res, coords = list(w), [0] * n
            for piv, row, comb in echelon:
                a = res[piv]
                if a:
                    res = [(x - a * y) % p for x, y in zip(res, row)]
                    coords = [(x + a * y) % p for x, y in zip(coords, comb)]
            piv = next((j for j, x in enumerate(res) if x), None)
            if piv is None:
                return tuple(coords)
            # res = b_m - sum(coords_t b_t) for the new basis vector b_m = w
            m = len(basis)
            basis.append(w)
            inv = pow(res[piv], p - 2, p)
            comb = [(-x) % p for x in coords]
            comb[m] = 1
            echelon.append((piv, [x * inv % p for x in res],
                            [x * inv % p for x in comb]))
            return tuple(int(j == m) for j in range(n))

        coords_of(seed)
        form, tie = [], bound is not None
        for i, b in enumerate(basis):  # also visits the vectors appended
            row = []
            for j, a in enumerate(acts):
                row.append(coords_of(_vec_mat(b, a, p)))
                if tie:
                    if row[-1] > bound[i][j]:
                        return None
                    tie = row[-1] == bound[i][j]
            form.append(tuple(row))
        if len(basis) != n:
            raise ValueError("a simple module is spun up by every seed")
        return tuple(form)

    def unpack_form(self, form, n, m):
        return form
