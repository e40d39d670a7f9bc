"""Dense linear algebra mod a prime p: the kernel for odd primes.

Row vectors are 1-d int64 arrays with entries in [0, p); matrices are
2-d.  GF(2) has its own bitset kernel (`bitmat`); these routines back
the same operations for the other prime fields and favour clarity over
speed.  They are correct at p = 2 too, which makes them an independent
check of `bitmat` in the tests.
"""

import numpy as np


def _inv(a, p):
    return pow(int(a), p - 2, p)


def rref(mat, p):
    """Reduced row-echelon form mod p.  Returns (basis, pivots)."""
    work = np.array(mat, dtype=np.int64) % p
    nrows, ncols = work.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(work[r:, col])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        work[r] = (work[r] * _inv(work[r, col], p)) % p
        mask = work[:, col] != 0
        mask[r] = False
        if mask.any():
            work[mask] = (work[mask] - np.outer(work[mask, col], work[r])) % p
        pivots.append(col)
        r += 1
    return work[:r].copy(), np.array(pivots, dtype=np.int64)


def reduce_row(row, basis, pivots, p):
    out = np.array(row, dtype=np.int64) % p
    for i in range(basis.shape[0]):
        c = out[int(pivots[i])]
        if c:
            out = (out - c * basis[i]) % p
    return out


def vec_mat(v, act, p):
    return (np.asarray(v, dtype=np.int64) @ act) % p


def cyclic_closure(seed, acts, p):
    """Smallest action-invariant row space containing seed (rref basis)."""
    n = seed.shape[0]
    basis = np.zeros((0, n), dtype=np.int64)
    pivots = np.empty(0, dtype=np.int64)
    pend = []
    u = np.asarray(seed, dtype=np.int64) % p
    if u.any():
        basis, pivots = rref(u[None, :], p)
        pend.append(u)
    while pend:
        v = pend.pop()
        for act in acts:
            u = reduce_row(vec_mat(v, act, p), basis, pivots, p)
            if u.any():
                basis, pivots = rref(np.vstack([basis, u]), p)
                pend.append(u)
    return basis, pivots


def nullspace(mat, p):
    """Basis of {x : mat @ x = 0} as rows."""
    red, piv = rref(mat, p)
    ncols = mat.shape[1]
    pivset = set(int(q) for q in piv)
    free = [j for j in range(ncols) if j not in pivset]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    for r, j in enumerate(free):
        out[r, j] = 1
        for i, q in enumerate(piv):
            out[r, int(q)] = (-red[i, j]) % p
    return out


def coords_in_basis(row, basis, pivots, p):
    coeffs = np.array([row[int(q)] for q in pivots], dtype=np.int64) % p
    rec = (coeffs @ basis) % p if basis.shape[0] else np.zeros_like(row)
    if not np.array_equal(rec % p, np.asarray(row) % p):
        return None
    return coeffs


def enumerate_nonzero_vectors(n, p):
    vec = np.zeros(n, dtype=np.int64)
    total = p ** n
    for x in range(1, total):
        y = x
        for j in range(n):
            vec[j] = y % p
            y //= p
        yield vec.copy()


def spin_up(seed, acts, k, p):
    """Parker's standard basis (the Meat-Axe) spun up from `seed`: the
    images of each basis vector in turn under `acts` join the basis when
    independent of it.  They reduce against a semi-echelon copy of the
    basis that tracks coordinates, so form[i][j], the coordinates of
    the image of basis vector i under action j, is row i of action j in
    the new basis.  Lists, not numpy rows, which are slower at k <= 8."""
    color_cols = [(np.asarray(a, dtype=np.int64) % p).T.tolist() for a in acts]
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
        form.append(tuple(
            coords_of([sum(x * y for x, y in zip(b, col)) % p for col in cols])
            for cols in color_cols))
    assert len(basis) == k, "a simple module is spun up by every seed"
    return tuple(form)
