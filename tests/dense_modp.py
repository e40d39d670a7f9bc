"""Dense numpy routines mod p, kept as the independent oracle for the
`modp` tuple-row kernel: each admitted vector re-runs a full `rref` of
the stacked basis, with no shared state between steps."""

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
