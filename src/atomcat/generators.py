"""Truncated materializations of the construction terms of `terms`.

`truncate` cuts a term down to a finite, prefix-stable window, a
truncated quiver with its atom table, in one pass (each bundle kept as
one record); `preset` and the `gen_*` entry points truncate the presets,
the poset realizations and the atom-free construction.  Substitution of
quivers lives here too: a `ColoredQuiver` is a leaf term of `truncate`,
so `substitute` (on any skeleton quiver) is `truncate` of a composite
whose blocks are quivers.

Color and vertex ids are structured strings, never fresh counters, so
regenerating at a deeper truncation extends the shallower quiver
verbatim; a bundle arrow's color is `!(tag;v,w)`, which
`quiver.BundleColors` renders.
"""

from collections import Counter, namedtuple

from .errors import (ColorClash, DepthTooSmall, DuplicateArrow, MissingBlock,
                     WindowTooSmall)
from .quiver import BundleColors, GeneratedQuiver, _bundle_quiver, _least_clash
from .terms import (Composite, Point, _loop_color, _require_ends,
                    _skeleton_parts, _union_names, acc_term, fold,
                    general_term, noatom_term, noatom_window,
                    noetherian_family, preset_term)


# what `truncate` reads of a distinct subterm; `below` holds the records
# inside it by id, `repeated` is never 0 (the first arrow repeats none)
_Prepared = namedtuple("_Prepared", "names count strings tables below blocks "
                       "own plan repeated", defaults=((), (), None, None))


def _point(t):
    return _Prepared((f"v({t.tag})",), 1,
                     (_loop_color(t.tag),) if t.loop else (), (), {})


def _leaf(q):
    return _Prepared(tuple(map(str, q.vertices)), len(q._partition),
                     q.declared, {id(c): c for _, _, c in q.bundles}.values(),
                     {})


def _composite(t, blocks):
    _union_names(t.names, len(blocks))
    _require_ends(len(blocks), t.arrows)
    inside = {}  # the distinct subterms inside t
    for b in blocks:
        inside.update(b.below)
        inside[id(b)] = b
    names = tuple(f"{name}/{v}" for name, b in zip(t.names, blocks)
                  for v in b.names)
    plan, count = _skeleton_parts(t.arrows, [b.count for b in blocks])
    if any(i == j and tag in t.shared for i, j, tag in t.arrows):
        raise ValueError("a skeleton loop may not carry a shared tag")
    repeated = len(set(t.arrows)) < len(t.arrows) and next(
        (k for k, (i, j, _) in enumerate(t.arrows)
         if t.arrows[k] in t.arrows[:k] and blocks[i].names
         and blocks[j].names), None)
    made, own = {}, []
    for i, j, tag in t.arrows:
        key = tag, id(blocks[i]), id(blocks[j])
        if key not in made:
            made[key] = BundleColors(tag, blocks[i].names, blocks[j].names)
        own.append(made[key])
    # only a shared tag's colors may already be inside the blocks
    fresh = [c for c in made.values() if c.tag not in t.shared]
    if fresh and (clash := _least_clash(
            fresh, [c for b in inside.values() for c in b.tables],
            [c for b in inside.values() for c in b.strings])):
        raise ColorClash("bundle color already used by a block", color=clash)
    return _Prepared(names, count, (), made.values(), inside, blocks, own,
                     plan, repeated)


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


def _emit(t, rec, names, depth, walk):
    """Append what t makes to the walk's arrows, bundles, found blocks
    and atom table (see `truncate`), from its record rec and the final
    names of its vertices in relative order, a slice of the root
    record's: block k of a composite gets the slice after blocks 0..k-1."""
    arrows, bundles, found, table, depth_of = walk
    if isinstance(t, Point):
        if rec.strings:  # a looped point
            arrows.append((names[0], names[0], rec.strings[0], 1))
        if t.label not in table:
            table[t.label] = {"kind": "simple", "atom_label": t.label,
                              "loop_colors": [*rec.strings], "vertices": []}
        table[t.label]["vertices"].append(names[0])
        found.append(names)
        return
    if not isinstance(t, Composite):
        at = dict(zip(t.vertices, names))
        arrows.extend((at[src], at[dst], color, value)
                      for src, dst, color, value in t.plain)
        bundles.extend((tuple(map(at.get, sources)),
                        tuple(map(at.get, targets)), colors)
                       for sources, targets, colors in t.bundles)
        found.extend(reversed(_renamed_blocks(t, at)))
        return
    if t.limit and depth < depth_of.get(t.limit, depth + 1):
        depth_of[t.limit] = depth
        table[t.limit] = {"kind": "chain_limit", "atom_label": t.limit,
                          "vertices": list(names)}
    start, end, blocks = len(found), 0, []
    for b, r in zip(t.blocks, rec.blocks):
        blocks.append(names[end:end + len(r.names)])
        end += len(r.names)
        _emit(b, r, blocks[-1], depth + 1, walk)
    if rec.repeated:
        i, j, _ = t.arrows[rec.repeated]
        raise DuplicateArrow("two arrows share (src, dst, color)",
                             src=blocks[i][0], dst=blocks[j][0],
                             color=rec.own[rec.repeated].color(0, 0))
    bundles.extend((blocks[i], blocks[j], c)
                   for (i, j, _), c in zip(t.arrows, rec.own))
    if rec.plan:
        _composite_blocks(rec.plan, blocks, found, start)


def truncate(term):
    """The truncated quiver of a term with its atom table, in one pass.

    A leaf is a `Point` or a `ColoredQuiver`, whose vertices go under
    the prefix and whose arrows, bundles and declared colors are kept;
    it has no atom table entry.  `fold` prepares each distinct subterm
    (by identity) once, children first, as one record: its vertex names
    relative to itself (v(tag), the quiver's own or {name}/...), the
    distinct subterms inside it and, for a composite, the `BundleColors`
    of each skeleton arrow (i, j, tag): the tag and the relative names
    of blocks i and j, one per distinct (tag, block i, block j), whose
    color for (v, w) is `!(tag;v,w)`, rendered only when read.  The
    root's record names every vertex (the quiver's vertices), so one
    walk over the term and its records (`_emit`) hands each occurrence
    its names as a slice of them, makes each loop once and
    gives each skeleton arrow one bundle record: the names of its
    source block, those of its target block and its colors.  As
    `terms.composite_term` does, a raw composite's block names must
    count its blocks (else ValueError) and its skeleton ends lie in
    0..n-1 (else UnknownVertex).  Vertex names may not repeat, since
    merged vertices make another module: ValueError names the least
    repeated one.  So a record's ends are distinct vertices, one per
    row or column of its colors, which `_bundle_quiver` need not
    check.  A composite's bundle colors must avoid the colors inside
    its own blocks (sibling composites may share theirs), except those
    of its shared tags, and ColorClash names the least clashing color
    of the first composite that clashes.  `quiver._least_clash` decides
    this on the heads and renders colors only where two can coincide,
    so a composite whose tags are not prefix-related to those inside it
    renders none.

    A skeleton loop may not carry a shared tag (ValueError), and a
    skeleton arrow repeated between nonempty blocks repeats a triple:
    DuplicateArrow names its first arrow at the first such composite
    met, children first, where `make_quiver` of the arrows would name
    it.  No two records then share a (src, dst, color) triple: names
    are distinct, a bundle joins two blocks of one composite or loops
    on one, two bundles on the same blocks differ in tag, and a loop
    bundle's colors are fresh.

    A simple entry collects every occurrence of its point; a chain
    limit's entry has the vertices of its shallowest occurrence, the
    first one at that depth.  Entries come in first-met order.

    The strongly connected blocks are read off the term and handed to
    the quiver as vertex tuples: the fold runs `terms._skeleton_parts`
    once per distinct composite (Tarjan only on a skeleton with an
    arrow that does not run forward), and the walk lists the blocks
    sources first.  A point is a block, a quiver leaf brings its own
    blocks, and a composite keeps its blocks' blocks unless its
    skeleton merges some (`_composite_blocks`).  The list is reversed
    once, so the quiver's blocks come sinks first.  A bundle joins two
    whole children of a composite, or loops on one, so either all its
    ends lie in one block or no source shares one with a target, as
    `ColoredQuiver._blocks` assumes when it gathers a block's arrows.

    Working set: no bundle arrow and no bundle color is made.  The
    quiver keeps each bundle's name tuples and its `BundleColors`,
    whose relative names are shared by every occurrence of their
    composite, and renders colors when `colors` or `arrows` is first
    read.  The declared colors (loop colors and quiver leaves' colors)
    reach `_bundle_quiver` as one flat list.  Beyond the finished
    quiver, the pass holds the vertex, declared color and loop lists
    and a set each of the vertices and declared colors.
    """
    root = fold(term, _point, _leaf, _composite)
    walk = arrows, bundles, found, table, _ = [], [], [], {}, {}
    vertices = root.names
    _emit(term, root, vertices, 0, walk)
    found.reverse()  # the blocks, sources first until here
    if len(set(vertices)) < len(vertices):
        repeats = [v for v, k in Counter(vertices).items() if k > 1]
        raise ValueError(f"vertex name {min(repeats)!r} repeats")
    colors = [c for r in (root, *root.below.values()) for c in r.strings]
    union = _bundle_quiver(vertices, colors, arrows, bundles, found)
    for entry in table.values():
        entry["vertices"].sort()
    return GeneratedQuiver(union, table)


def substitute(omega, blocks):
    """Replace each vertex w of the skeleton quiver omega by the quiver
    blocks[w] under w/, each skeleton arrow of color mu by the bundle
    tagged mu: `truncate` of the composite of those quiver leaves.  Any
    skeleton is accepted, cycles and loops included; a skeleton vertex
    without a block raises MissingBlock."""
    for w in omega.vertices:
        if w not in blocks:
            raise MissingBlock("skeleton vertex without a block", vertex=w)
    at = {w: k for k, w in enumerate(omega.vertices)}
    return truncate(Composite(
        tuple(blocks[w] for w in omega.vertices), omega.vertices,
        tuple((at[w], at[w2], mu) for w, w2, mu, _ in omega.arrows))).quiver


def gen_realization_acc(poset, trunc):
    """The acc realization truncated after trunc.depth passes,
    `truncate(acc_term(poset, trunc.depth))`.  Deeper truncations
    append passes only, so vertex names are stable."""
    if trunc.depth < 1:
        raise DepthTooSmall("need at least one pass", depth=trunc.depth)
    return truncate(acc_term(poset, trunc.depth))


def gen_realization_general(poset, trunc):
    """The general realization over the words of at most trunc.depth
    (integer, element) steps, integers from trunc's ladder window:
    `truncate(general_term(poset, trunc.depth, window))`.  Colors omit
    the word prefix, so deeper copies reuse the colors of shallower
    ones, and deeper truncations only add words."""
    if trunc.depth < 0:
        raise DepthTooSmall("word length bound must be >= 0",
                            depth=trunc.depth)
    window = trunc.ladder_values()
    if not window:
        raise WindowTooSmall("need a nonempty integer window",
                             ladder_range=trunc.ladder_range)
    return truncate(general_term(poset, trunc.depth, window))


def gen_noatom(trunc):
    """The atom-free construction truncated to words of at most
    trunc.depth + 1 integers: `truncate(noatom_term(...))`."""
    ints = noatom_window(trunc)
    gen = truncate(noatom_term(ints, trunc.depth))
    return GeneratedQuiver(gen.quiver, gen.atom_table,
                           noetherian_family(ints, trunc.depth))


def preset(name, depth):
    """Truncated quiver of a named counter-example construction."""
    return truncate(preset_term(name, depth))
