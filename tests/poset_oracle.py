"""Backtracking poset isomorphism and the pairwise class scan, kept as
the reference for `ordertop.canonical_form` and `harness.all_posets`,
and the restriction of a poset to a subset.

`poset_isomorphic` tries every profile-respecting map with pruning and
refuses above ISO_SIZE_CAP elements.  `all_posets` scans every upward
relation and keeps a candidate unless it is isomorphic to a class
already kept, so it keeps the first relation of each class.
"""

from atomcat.errors import BudgetExceeded
from atomcat.ordertop import Poset, normalize_poset

# the backtracking isomorphism search is exponential; refuse larger posets
ISO_SIZE_CAP = 8


def poset_isomorphic(p, q):
    """Order isomorphism p -> q as a dict, or None.

    Exhaustive backtracking with degree-profile pruning; intended for
    small posets, refuses above ISO_SIZE_CAP elements.
    """
    if len(p.elements) != len(q.elements):
        return None
    n = len(p.elements)
    if n > ISO_SIZE_CAP:
        raise BudgetExceeded("poset too large for isomorphism search",
                             size=n, cap=ISO_SIZE_CAP)

    def profile(poset, x):
        return (len(poset.up_set(x)), len(poset.down_set(x)))

    p_prof = {x: profile(p, x) for x in p.elements}
    q_prof = {y: profile(q, y) for y in q.elements}
    if sorted(p_prof.values()) != sorted(q_prof.values()):
        return None

    order = sorted(p.elements, key=lambda x: p_prof[x])
    mapping = {}
    used = set()

    def consistent(x, y):
        for x2, y2 in mapping.items():
            if p.leq(x, x2) != q.leq(y, y2) or p.leq(x2, x) != q.leq(y2, y):
                return False
        return True

    def backtrack(i):
        if i == n:
            return True
        x = order[i]
        for y in q.elements:
            if y in used or q_prof[y] != p_prof[x]:
                continue
            if not consistent(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def all_posets(n):
    """One representative per isomorphism class of posets on n elements.

    Every finite poset admits a linear extension, so classes are covered
    by relations whose pairs only point up in index; duplicates are
    removed with the backtracking isomorphism test.  n = 4 yields the
    expected 16 classes.
    """
    elements = [f"e{i}" for i in range(n)]
    idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reps = []
    for mask in range(1 << len(idx_pairs)):
        pairs = [(elements[i], elements[j])
                 for b, (i, j) in enumerate(idx_pairs) if mask >> b & 1]
        poset = normalize_poset(pairs, elements)
        if not any(poset_isomorphic(poset, r) for r in reps):
            reps.append(poset)
    return reps


def restrict(poset, subset):
    """The subposet on the elements of `subset`."""
    keep = set(subset)
    return Poset(tuple(sorted(keep)), frozenset(
        (a, b) for a, b in poset.le if a in keep and b in keep))
