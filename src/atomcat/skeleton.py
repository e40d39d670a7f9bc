"""Skeletons of construction terms: the refusal of a cyclic skeleton,
and the strongly connected blocks of a substitution read off its
skeletons.

A `terms.Composite` puts each of its blocks (children) on a vertex
of a skeleton, and each skeleton arrow (i, j, tag) becomes a complete
bipartite bundle from every vertex of child i to every vertex of child
j.  So a truncation's vertex partition into blocks follows from its
term: `generators.truncate` runs `_skeleton_parts` once per distinct
composite, and `_composite_blocks` per occurrence that merges or
reorders its children's blocks; the quiver gathers each block's arrows
(`quiver.ColoredQuiver._blocks`).  `_require_ends` is the range check
of `truncate` and `_require_acyclic`, the check that
`terms.composite_term` and `predictor.window` share.  Both run Tarjan,
on a graph with one node per child, only when an arrow does not run
forward (i < j): a forward skeleton, such as every skeleton of
`terms.chain_term` and `terms.union_term`, is acyclic, each child its
own component in child order.
"""

from itertools import accumulate

from .errors import UnknownVertex
from .quiver import _tarjan


def _require_ends(n, arrows):
    """Refuse (i, j, tag) skeleton arrows with an end outside 0..n-1."""
    for i, j, _ in arrows:
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownVertex("skeleton arrow end outside the blocks",
                                arrow=[i, j])


def _require_acyclic(n, arrows):
    """Refuse what `_require_ends` refuses, a loop, or a strongly
    connected component of two or more blocks."""
    _require_ends(n, arrows)
    succ, looped, forward = [[] for _ in range(n)], False, True
    for i, j, _ in arrows:
        succ[i].append(j)
        looped, forward = looped or i == j, forward and i < j
    if not forward and (looped or len(_tarjan(succ, n)) < n):
        raise ValueError(f"the skeleton has a cycle: {list(arrows)}")


def _skeleton_parts(arrows, counts):
    """How a composite's blocks follow from its skeleton's (i, j, tag)
    arrows, given the number of blocks of each child: (plan, count).

    A bundle joins every vertex of one block to every vertex of the
    other, so the vertices of a strongly connected component of two or
    more children, or of one child with a skeleton loop, all reach each
    other and merge into one block; any other child keeps its blocks.
    Only arrows between nonempty children count, since a bundle with an
    empty end has no arrows.  Tarjan runs on the reversed skeleton, so
    its components come sources first.  plan lists them, each as its
    child indices and, unless it merges, the slice its child's blocks
    fill among the children's.  plan is None exactly when every counted
    arrow has i < j, so each child keeps its blocks in child order: any
    other counted arrow is a loop, or has i > j and puts i and j in one
    component or i's before j's.  count is the composite's block count.
    """
    n = len(counts)
    pred, looped, forward = [[] for _ in range(n)], [False] * n, True
    for i, j, _ in arrows:
        if counts[i] and counts[j]:
            forward = forward and i < j
            if i == j:
                looped[i] = True
            else:
                pred[j].append(i)
    ends = list(accumulate(counts, initial=0))
    if forward:
        return None, ends[-1]
    components = _tarjan(pred, n)
    plan = [(c, None if len(c) > 1 or looped[c[0]] else
             slice(ends[c[0]], ends[c[0] + 1])) for c in components]
    return plan, sum(1 if kept is None else counts[c[0]] for c, kept in plan)


def _composite_blocks(plan, names, found, start):
    """Put a composite occurrence's blocks, sources first, in place of
    its children's in found[start:], by its plan (`_skeleton_parts`).
    names[k] are the vertices of its child k.  A merged component is
    one block, the sorted vertices of its children."""
    blocks, out = found[start:], []
    for members, kept in plan:
        if kept is None:
            out.append(tuple(sorted(v for k in members for v in names[k])))
        else:
            out += blocks[kept]
    found[start:] = out


def _renamed_blocks(quiver, at):
    """The quiver's blocks with each vertex v renamed at[v], sorted."""
    return [tuple(sorted(map(at.get, block))) for block in quiver._partition]
