"""GF(2) row-vector linear algebra on Python-int bitsets: `F2Ops`, the
kernel of the field that `linalg.ops_for(2)` returns.

A vector over GF(2) is a Python int whose bit j is coordinate j, with
no width limit; a matrix is a tuple of such rows.  This is the word
packing of M4RI (Albrecht & Bard, "The M4RI library") with Python's
arbitrary-precision ints as the words: one XOR adds two whole rows.

Row spaces are always kept in fully reduced row-echelon form: rows
sorted by pivot, where a row's pivot is its lowest set bit, and no
other row has a bit at that column.  The basis tuple together with its
ascending pivot tuple is unique for the space, so the tuple itself is
the hashable key of a row space.  Dense 0/1 rows come in and go out
only through `pack` / `unpack`.  `reduce_row` is the kernel's one
elimination of a row against a basis: `rref` and `coords` call it.
The field-specific parts of the cyclic scan live here, the image graph
of the lines (`line_graph`) and a row reduction that extends a space
(`rref`); the loop that closes the graph's components is
`linalg.cyclic_submodules`.
"""


def _admit(row, basis):
    """Add a reduced nonzero row to a reduced basis dict, clearing its
    pivot bit from the other rows."""
    low = row & -row
    for piv, b in basis.items():
        if b & low:
            basis[piv] = b ^ row
    basis[low.bit_length() - 1] = row


def _sorted(basis):
    pivots = tuple(sorted(basis))
    return tuple(basis[p] for p in pivots), pivots


def _vec_mat(v, act):
    """Row vector times matrix: XOR of the rows of act at set bits of v."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= act[i]
        v >>= 1
        i += 1
    return out


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

    def rref(self, mat, n, space=None, full=None):
        """Fully reduced row-echelon form of the rows of an rref `space`
        (none by default) followed by those of `mat`, stopping at rank n.
        Returns (basis, pivots), `space` itself when `mat` adds nothing
        to it, and at rank n the given `full` space."""
        basis = {} if space is None else dict(zip(space[1], space[0]))
        rank, reduce_row = len(basis), self.reduce_row
        for row in mat:
            row = reduce_row(row, basis.values(), basis)
            if row:
                _admit(row, basis)
                if len(basis) == n:
                    return full or _sorted(basis)
        if space is not None and len(basis) == rank:
            return space
        return _sorted(basis)

    def reduce_row(self, row, basis, pivots):
        """Eliminate the pivot bits of the rref `basis` from `row`."""
        for b, piv in zip(basis, pivots):
            if row >> piv & 1:
                row ^= b
        return row

    def vec_mat(self, v, act, n):
        return _vec_mat(v & ((1 << n) - 1), act)

    def line_graph(self, acts, n):
        """The image graph of the lines of GF(2)^n under `acts`: (seeds,
        successor lists), node v for the vector v, v -> v A for each A
        in `acts`.  Every line is one nonzero vector, node 0 is the zero
        vector, and the images come by linearity."""
        images = []
        for act in acts:
            img = [0]
            for row in act:  # v with top bit i: (v - 2**i) A + row i of A
                img += [w ^ row for w in img]
            images.append(img)
        size = 1 << n
        return range(size), list(zip(*images)) or [()] * size

    def nullspace(self, mat, n):
        """Basis of {x : row . x = 0 for every row of mat}, x over n
        coordinates; one vector per free column of the rref."""
        red, piv = self.rref(mat, None)
        pivset = set(piv)
        out = []
        for j in range(n):
            if j in pivset:
                continue
            x = 1 << j
            for r, p in zip(red, piv):
                if r >> j & 1:
                    x |= 1 << p
            out.append(x)
        return tuple(out)

    def left_nullspace(self, mat, nrows, n):
        """Basis of {v : v . mat = 0}, v over the first nrows rows of the
        n-column mat."""
        cols = [0] * n
        for i, row in enumerate(mat[:nrows]):
            j = 0
            while row:
                if row & 1:
                    cols[j] |= 1 << i
                row >>= 1
                j += 1
        return self.nullspace(cols, nrows)

    def coords(self, row, basis, pivots, n):
        """Coefficients of `row` in an rref basis, as a bitset over the
        basis rows, or None if `row` is not in the span.

        With a fully reduced basis the coefficient of basis row i is
        simply the bit of `row` at pivot column i.
        """
        if self.reduce_row(row, basis, pivots):
            return None
        coeffs = 0
        for i, piv in enumerate(pivots):
            if row >> piv & 1:
                coeffs |= 1 << i
        return coeffs

    def spin_up(self, seed, acts, n, bound):
        """`modp.FpOps.spin_up` from a nonzero `seed`, as one int: n bits
        per image, coordinate 0 highest, so keys compare as their
        `unpack_form` tuples.  A reduction step is one XOR on the row and
        one on its coordinates.  With an int `bound`, None as soon as the
        key built so far exceeds the same leading bits of `bound`: the
        whole key would exceed it."""
        top, key = 1 << (n - 1), 0
        basis, echelon = [seed], [(seed & -seed, seed, top)]  # low/row/comb
        tie, rest = bound is not None, n * n * len(acts)  # rest: bits to come
        for b in basis:  # also visits the vectors appended on the way
            for act in acts:
                res = w = _vec_mat(b, act)
                coords = 0
                for low, row, comb in echelon:
                    if res & low:
                        res ^= row
                        coords ^= comb
                if res:  # w = res + the basis vectors at coords
                    unit = top >> len(basis)
                    echelon.append((res & -res, res, coords ^ unit))
                    basis.append(w)
                    coords = unit
                key = key << n | coords
                if tie:
                    rest -= n
                    head = bound >> rest
                    if key > head:
                        return None
                    tie = key == head
        if len(basis) != n:
            raise ValueError("a simple module is spun up by every seed")
        return key

    def unpack_form(self, form, n, m):
        """A `spin_up` key over m actions as the nested tuples of
        `modp.FpOps.spin_up`."""
        bits = tuple(map(int, format(form, f"0{n * m * n}b")))
        return tuple(tuple(bits[(i * m + j) * n:(i * m + j + 1) * n]
                           for j in range(m)) for i in range(n))
