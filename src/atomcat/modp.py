"""Row-vector linear algebra mod a prime p: the kernel for odd primes.

A vector over GF(p) is a tuple of ints in [0, p) and a matrix a tuple of
such rows, so a matrix is its own hashable key.  GF(2) has its own
bitset kernel (`bitmat`), and these routines mirror its structure: row
spaces are kept fully reduced, every pivot (a row's first nonzero
coordinate) is 1 and no other row has a nonzero entry in a pivot
column, so the sorted basis tuple with its ascending pivot tuple is
unique for the space.  They are correct at p = 2 too, which makes them
an independent check of `bitmat` in the tests.
"""


def _reduced(row, basis, p):
    """`row` with the pivot columns of a reduced `basis` (pivot -> row)
    eliminated."""
    for piv, b in basis.items():
        a = row[piv]
        if a:
            row = tuple((x - a * y) % p for x, y in zip(row, b))
    return row


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


def rref(mat, p):
    """Fully reduced row-echelon form of rows in [0, p).  Returns
    (basis, pivots)."""
    basis = {}
    for row in mat:
        row = _reduced(row, basis, p)
        if any(row):
            _admit(row, basis, p)
    return _sorted(basis)


def reduce_row(row, basis, pivots, p):
    """Eliminate the pivot columns of the rref `basis` from `row`."""
    for b, piv in zip(basis, pivots):
        a = row[piv]
        if a:
            row = tuple((x - a * y) % p for x, y in zip(row, b))
    return row


def vec_mat(v, act, p):
    """Row vector times matrix: the rows of act weighted by v."""
    out = [0] * len(act[0])
    for a, row in zip(v, act):
        if a:
            out = [x + a * y for x, y in zip(out, row)]
    return tuple(x % p for x in out)


def cyclic_closure(seed, acts, p):
    """Smallest row space containing `seed` and invariant under every
    matrix in `acts`; returns (basis, pivots) in rref.  Every admitted
    vector gets each action applied once."""
    basis = {}
    pending = []
    if any(seed):
        pending.append(_admit(seed, basis, p))
    while pending:
        v = pending.pop()
        for act in acts:
            u = _reduced(vec_mat(v, act, p), basis, p)
            if any(u):
                pending.append(_admit(u, basis, p))
    return _sorted(basis)


def nullspace(mat, ncols, p):
    """Basis of {x : row . x = 0 for every row of mat}, x over ncols
    coordinates; one vector per free column of the rref."""
    red, piv = rref(mat, p)
    pivset = set(piv)
    out = []
    for j in range(ncols):
        if j in pivset:
            continue
        x = [0] * ncols
        x[j] = 1
        for r, q in zip(red, piv):
            x[q] = -r[j] % p
        out.append(tuple(x))
    return tuple(out)


def left_nullspace(mat, nrows, ncols, p):
    """Basis of {v : v . mat = 0}, v over the first nrows rows of mat."""
    return nullspace(tuple(zip(*mat[:nrows])), nrows, p)


def coords_in_basis(row, basis, pivots, p):
    """Coefficients of `row` in an rref basis, or None if `row` is not in
    the span.  With unit pivots and a fully reduced basis the coefficient
    of basis row i is the entry of `row` at pivot column i."""
    if any(reduce_row(row, basis, pivots, p)):
        return None
    return tuple(row[q] for q in pivots)


def spin_up(seed, acts, k, p):
    """Parker's standard basis (the Meat-Axe) spun up from `seed`: the
    images of each basis vector in turn under `acts` join the basis when
    independent of it.  They reduce against a semi-echelon copy of the
    basis that tracks coordinates, so form[i][j], the coordinates of
    the image of basis vector i under action j, is row i of action j in
    the new basis."""
    basis, echelon = [], []  # echelon rows: (pivot, row, coordinates)

    def coords_of(w):
        res, coords = list(w), [0] * k
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
        return tuple(int(j == m) for j in range(k))

    coords_of(seed)
    form = []
    for b in basis:  # also visits the vectors appended on the way
        form.append(tuple(coords_of(vec_mat(b, a, p)) for a in acts))
    if len(basis) != k:
        raise ValueError("a simple module is spun up by every seed")
    return tuple(form)
