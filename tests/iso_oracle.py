"""Exhaustive isomorphism test, kept as an oracle for the tests.

The library compares simple modules by Schur's lemma (one hom-space
nullspace); this scan decides isomorphism of arbitrary modules by
trying every nonzero element of the hom space for invertibility, and
answers `UNDECIDED` beyond its cap rather than guessing.
"""

from enum import Enum

import numpy as np

from atomcat.linmod import hom_basis

DEFAULT_ISO_CAP = 1 << 16


class Tristate(Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"

    def __bool__(self):
        raise TypeError("tristate answers must be compared explicitly")


def _is_invertible(dense, field):
    ops = field.ops
    k = len(dense)
    basis, _ = ops.rref(ops.pack(dense % field.p, k), k)
    return len(basis) == k


def is_isomorphic(m, n, cap=DEFAULT_ISO_CAP):
    """Tristate isomorphism test by exhaustive scan of the hom space."""
    if m.field.p != n.field.p:
        return Tristate.NO
    if m.dim != n.dim:
        return Tristate.NO
    if m.dim == 0:
        return Tristate.YES
    if m.dim == 1:
        # a scalar map commutes with everything: compare action scalars
        scal = lambda mod, c: (mod.ops.unpack(mod.actions[c], 1)[0][0]
                               if c in mod.actions else 0)
        colors = set(m.colors) | set(n.colors)
        same = all(scal(m, c) == scal(n, c) for c in colors)
        return Tristate.YES if same else Tristate.NO
    homs = [np.array(h, dtype=np.int64) for h in hom_basis(m, n)]
    if not homs or not hom_basis(n, m):
        return Tristate.NO
    p = m.field.p
    k = len(homs)
    total = p ** k - 1
    count = 0
    coeffs = np.zeros(k, dtype=np.int64)
    while count < min(total, cap):
        count += 1
        x = count
        for j in range(k):
            coeffs[j] = x % p
            x //= p
        f = sum(int(coeffs[j]) * homs[j] for j in range(k)) % p
        if _is_invertible(f, m.field):
            return Tristate.YES
    if total > cap:
        return Tristate.UNDECIDED
    return Tristate.NO
