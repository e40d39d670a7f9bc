"""Substitution of block quivers into a skeleton quiver, written out
arrow by arrow: the reference for `generators.substitute` and, through
nested calls, for `generators.truncate`.

Each skeleton vertex w is replaced by its block, vertex v becoming
w/v, with the block's arrows and colors kept.  Each skeleton arrow
(w, w2) of color mu becomes the complete bipartite bundle from block w
to block w2, arrow (w/v, w2/v2) colored !(mu;v,v2).  A bundle color
that is a block color raises ColorClash naming the first one met, in
skeleton arrow order, then source and target vertex order, unless its
skeleton color is one of the shared ones.
"""

from atomcat.errors import ColorClash, MissingBlock
from atomcat.quiver import make_quiver


def bundle_color(skeleton_color, src_vertex, dst_vertex):
    return f"!({skeleton_color};{src_vertex},{dst_vertex})"


def substitute(omega, blocks, shared=()):
    vertices, arrows, block_colors = [], [], set()
    for w in omega.vertices:
        if w not in blocks:
            raise MissingBlock("skeleton vertex without a block", vertex=w)
        q = blocks[w]
        block_colors.update(q.colors)
        ren = {v: f"{w}/{v}" for v in q.vertices}
        vertices.extend(ren.values())
        arrows.extend((ren[src], ren[dst], color, value)
                      for src, dst, color, value in q.arrows)
    colors = set(block_colors)
    for w, w2, mu, _ in omega.arrows:
        for v in blocks[w].vertices:
            for v2 in blocks[w2].vertices:
                c = bundle_color(mu, v, v2)
                if c in block_colors and mu not in shared:
                    raise ColorClash("bundle color already used by a block",
                                     color=c)
                colors.add(c)
                arrows.append((f"{w}/{v}", f"{w2}/{v2}", c, 1))
    return make_quiver(vertices, sorted(colors), arrows)
