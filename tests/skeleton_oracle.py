"""The skeleton reads of `atomcat.terms` with Tarjan on every
skeleton, forward ones included: the reference for its forward
shortcut.  `require_acyclic` refuses an arrow end outside 0..n-1, a
loop, or a strongly connected component of two or more blocks;
`skeleton_parts` is (plan, count) as `terms._skeleton_parts` gives
it."""

from itertools import accumulate

from atomcat.errors import UnknownVertex
from atomcat.quiver import _tarjan


def require_acyclic(n, arrows):
    succ, looped = [[] for _ in range(n)], False
    for i, j, _ in arrows:
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownVertex("skeleton arrow end outside the blocks",
                                arrow=[i, j])
        succ[i].append(j)
        looped = looped or i == j
    if looped or len(_tarjan(succ, n)) < n:
        raise ValueError(f"the skeleton has a cycle: {list(arrows)}")


def skeleton_parts(arrows, counts):
    n = len(counts)
    pred, looped = [[] for _ in range(n)], [False] * n
    for i, j, _ in arrows:
        if counts[i] and counts[j]:
            if i == j:
                looped[i] = True
            else:
                pred[j].append(i)
    ends = list(accumulate(counts, initial=0))
    components = _tarjan(pred, n)
    if not any(looped) and components == [(k,) for k in range(n)]:
        return None, ends[-1]
    plan = [(c, None if len(c) > 1 or looped[c[0]] else
             slice(ends[c[0]], ends[c[0] + 1])) for c in components]
    return plan, sum(1 if kept is None else counts[c[0]] for c, kept in plan)
