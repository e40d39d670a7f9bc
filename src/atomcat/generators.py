"""Truncated materializations of the infinite quiver constructions.

Every generator here cuts an infinite colored quiver down to a finite,
prefix-stable window:

* poset realizations with ascending chain condition: one block per
  poset element, maximal elements become loop points, non-maximal ones
  become chains cycling through J(p) (the minimal elements above p),
  depth counting whole passes through J(p);
* the general poset realization, a nested substitution whose vertices
  are the alternating words (element, integer, element, ...), with
  step/skip/fan arrow families whose colors are deliberately shared
  across word prefixes;
* the atom-free construction over strictly increasing integer words;
* named presets for the counter-example spectra, one term per name in
  the `_PRESETS` table.

Every construction is a term, read by `truncate` as a truncated quiver
with its atom table in one pass (each bundle kept as one record), and
by `predictor.window` as a symbolic spectrum.  `Point(label, tag,
loop=True)` is vertex v(tag), with loop c(tag) if loop, and the simple
atom `label`.  A `Composite`
substitutes its blocks into a skeleton: block k under names[k], and per
skeleton arrow (i, j, tag) the complete bipartite bundle from block i
to block j, its colors minted fresh.  Its `limit`, if any, is the atom
of an infinite construction that the composite truncates, lying below
the `recurring` atoms (None: all of them); a block repeated by identity
is one block of the window.  Its `shared` tags, which no skeleton
loop may carry, may mint bundle colors already inside its blocks,
which the fresh-color rule otherwise refuses.  `composite_term` builds a composite on an acyclic skeleton,
`chain_term` puts blocks b0, b1, ... on a path skeleton and
`union_term` puts terms under names on a skeleton without arrows.  The
presets, both poset realizations and the atom-free construction are
terms: `truncate(acc_term(...))`, `truncate(general_term(...))` and
`truncate(noatom_term(...))`.  Substitution of quivers lives here too:
a `ColoredQuiver` is a leaf term of `truncate`, so `substitute` (on any
skeleton quiver) is `truncate` of a composite whose blocks are
quivers.

Color and vertex ids are structured strings, never fresh counters, so
regenerating at a deeper truncation extends the shallower quiver
verbatim.
"""

from collections import Counter, namedtuple
from functools import partial

from .errors import (ColorClash, DepthTooSmall, DuplicateArrow, EmptyRange,
                     MissingBlock, UnknownPreset, WindowTooSmall)
from .ordertop import j_sets, normalize_poset
from .quiver import (BundleColors, ColoredQuiver, GeneratedQuiver,
                     _bundle_quiver, _least_clash)
from .skeleton import (_composite_blocks, _renamed_blocks, _require_acyclic,
                       _skeleton_parts)


def _check_ids(elements):
    # element ids become structural parts of vertex and color names
    bad = [e for e in elements
           if any(ch in str(e) for ch in "/,()|;")]
    if bad:
        raise ValueError(f"element ids may not contain structural "
                         f"characters: {bad}")


# -- construction terms -------------------------------------------------------

Point = namedtuple("Point", "label tag loop provenance", defaults=(True, ""))
_loop_color = "c({})".format  # the loop color of a looped point, by tag
Composite = namedtuple("Composite",
                       "blocks names arrows limit recurring provenance shared",
                       defaults=(None, None, "", ()))


def _bundle_color(skeleton_color, src_vertex, dst_vertex):
    """Fresh color of a bundle arrow, from the tag and its ends' names.
    Every color of a tag starts with its head, `!(tag;`."""
    return f"!({skeleton_color};{src_vertex},{dst_vertex})"


# the prefix of every color of a tag (see `BundleColors.head`)
_bundle_color.head = "!({};".format


def _union_names(names, n):
    """n block names as strings; refuses a name count other than n and
    repeats."""
    names = list(map(str, names))
    if len(names) != n:
        raise ValueError(f"need {n} block names, got {len(names)}")
    if len(set(names)) < len(names):
        raise ValueError(f"block names repeat: {names}")
    return names


def _chain_tags(tags, n):
    """The bundle tags of a chain of n blocks, (chain;i) if None;
    refuses an empty chain, a tag count other than n - 1 and repeats."""
    if not n:
        raise EmptyRange("chain needs at least one block")
    if tags is None:
        tags = [f"(chain;{i})" for i in range(n - 1)]
    if len(tags) != n - 1:
        raise ValueError(f"need {n - 1} tags, got {len(tags)}")
    if len(set(tags)) != len(tags):
        raise ColorClash("chain tags must be pairwise distinct", tags=list(tags))
    return tags


def composite_term(blocks, names, arrows, limit=None, recurring=None,
                   provenance="", shared=()):
    """blocks[k] under names[k] on a skeleton of (i, j, tag) arrows.
    Refuses what `union_term` and `_require_acyclic` refuse and a
    shared tag on no arrow."""
    _union_names(names, len(blocks))
    _require_acyclic(len(blocks), arrows)
    if not {tag for _, _, tag in arrows}.issuperset(shared):
        raise ValueError(f"shared tags {shared} label no skeleton arrow")
    return Composite(tuple(blocks), tuple(names), tuple(arrows), limit,
                     recurring, provenance, tuple(shared))


def chain_term(blocks, tags, limit=None, recurring=None, provenance=""):
    """The blocks on a path skeleton, block i named b{i} and joined to
    block i + 1 by a bundle tagged tags[i], (chain;i) if tags is None.
    Refuses no blocks, a tag count other than len(blocks) - 1, and
    repeated tags."""
    tags = _chain_tags(tags, len(blocks))
    return Composite(tuple(blocks), tuple(f"b{i}" for i in range(len(blocks))),
                     tuple((i, i + 1, tag) for i, tag in enumerate(tags)),
                     limit, recurring, provenance)


def union_term(terms, names):
    """terms[i] under names[i], with no skeleton arrows.  Refuses
    repeated names (as strings) and a name count other than the term
    count."""
    _union_names(names, len(terms))
    return Composite(tuple(terms), tuple(names), ())


def acc_term(poset, depth):
    """The acc realization as a term: a union over the poset of a loop
    point per maximal p and a chain of depth passes through the terms of
    J(p) per other p, the bundle leaving the j-th block of pass i tagged
    (p;i,j).  Each element's term is one object, wherever it occurs."""
    _check_ids(poset.elements)
    covers = j_sets(poset)
    terms = {}
    for p in sorted(poset.elements, key=lambda x: (len(poset.up_set(x)), x)):
        js = sorted(covers[p])
        if not js:
            terms[p] = Point(f"simple({p})", p,
                             provenance=f"loop point of {p}")
            continue
        tags = [f"({p};{i},{j})" for i in range(depth) for j in range(len(js))]
        terms[p] = chain_term([terms[e] for _ in range(depth) for e in js],
                              tags[:-1], f"chain({p})",
                              provenance=f"chain over J({p})")
    return union_term([terms[p] for p in poset.elements], poset.elements)


def general_term(poset, depth, ints):
    """The general realization as a term: T(e, depth) under each element
    id e, over the integer window ints.

    T(e, d) is the loop point gamma(e) if e is maximal.  Otherwise it is
    a root, the loop point delta(e), named r, and a block T(q, d - 1)
    named "i,q" for each i in ints and q > e (none at d = 0), with limit
    gamma(e) below the atoms of every q > e.  Its skeleton arrows:
    ic[e;i;q] fans out from the root to block (i, q); 0c[e](q|q2) runs
    from (i, q) to (i, q2) when q2 < q, descending the id order inside
    one position; 1c[e](q|q2) steps from (i, q) to (i - 1, q2) and
    2c[e;i](q|q2) skips to (i - 2, q2).  Only fan and skip tags name
    the position, so step and same-position colors are shared along the
    window, and since one object stands for each T(e, d), deeper copies
    mint the colors of shallower ones.  Each vertex is a word (e, i1,
    e1, ...) of strictly increasing elements, its loop keyed by its
    last element.
    """
    _check_ids(poset.elements)
    maximal = set(poset.maximal_elements())
    above = {e: [q for q in poset.elements if poset.lt(e, q)]
             for e in poset.elements}
    points = {e: Point(f"gamma({e})", e, provenance=f"block limit of {e} "
                       "(= its loop simple)") if e in maximal else
              Point(f"delta({e})", e, provenance=f"loop simple of {e}")
              for e in poset.elements}
    terms = {}  # (e, d) -> T(e, d), built shallowest first
    for d in range(depth + 1):
        for e in poset.elements:
            if e in maximal:
                terms[e, d] = points[e]
                continue
            pairs = [(i, q) for i in ints for q in above[e]] if d else []
            at = {pair: k for k, pair in enumerate(pairs, 1)}
            arrows = []
            for (i, q), k in at.items():
                arrows.append((0, k, f"ic[{e};{i};{q}]"))
                for q2 in above[e]:
                    if q2 < q:
                        arrows.append((k, at[i, q2], f"0c[{e}]({q}|{q2})"))
                    if (i - 1, q2) in at:
                        arrows.append((k, at[i - 1, q2], f"1c[{e}]({q}|{q2})"))
                    if (i - 2, q2) in at:
                        arrows.append((k, at[i - 2, q2],
                                       f"2c[{e};{i}]({q}|{q2})"))
            recurring = ({f"gamma({q})" for q in above[e]}
                         | {points[q].label for q in above[e]}) if d else ()
            terms[e, d] = composite_term(
                (points[e], *(terms[q, d - 1] for _, q in pairs)),
                ("r", *(f"{i},{q}" for i, q in pairs)), arrows,
                f"gamma({e})", tuple(sorted(recurring)),
                f"block limit of {e}")
    return union_term([terms[e, depth] for e in poset.elements],
                      poset.elements)


def truncate(term):
    """The truncated quiver of a term with its atom table, in one pass.

    A leaf is a `Point` or a `ColoredQuiver`, whose vertices go under
    the prefix and whose arrows, bundles and declared colors are kept;
    it has no atom table entry.  Each distinct subterm (by identity) is
    prepared once, children first: its vertex names relative to itself
    (v(tag), the quiver's own or {name}/...), the distinct subterms
    inside it and, for a composite, the `BundleColors` of each skeleton
    arrow (i, j, tag): the tag and the relative names of blocks i and
    j, one per distinct (tag, block i, block j), whose color for (v, w)
    is _bundle_color(tag, v, w), rendered only when read.  Then one
    walk with every vertex's final prefix makes each vertex name and
    loop once and gives each skeleton arrow one bundle record: the
    names of its source block, those of its target block and its
    colors.  `_bundle_quiver` validates each record once.  Vertex names
    may not repeat, since merged vertices make another module:
    ValueError names the least repeated one.  A composite's bundle
    colors must avoid the colors inside its own blocks (sibling
    composites may share theirs), except those of its shared tags, and
    ColorClash names the least clashing color of the first composite
    that clashes.  `quiver._least_clash` decides this on the heads and
    renders colors only where two can coincide, so a composite whose
    tags are not prefix-related to those inside it renders none.

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
    the quiver: prepare runs `skeleton._skeleton_parts` once per
    distinct composite, and the walk lists the blocks sources first.  A
    point is a block with its loop (the tuple in the arrows), a quiver
    leaf brings its own blocks, and a composite keeps its blocks'
    blocks unless its skeleton merges some (`_composite_blocks`, the
    only place a bundle is expanded).  The list is reversed once, so
    the quiver's blocks come sinks first.

    Working set: no bundle arrow and no bundle color is made.  The
    quiver keeps each bundle's name tuples and its `BundleColors`,
    whose relative names are shared by every occurrence of their
    composite, and renders colors when `colors` or `arrows` is first
    read.  The declared colors (loop colors and quiver leaves' colors)
    reach `_bundle_quiver` as one flat list.  Validation holds the
    vertex, declared color and loop lists and a set each of the
    vertices and declared colors beyond the finished quiver.
    """
    render = _bundle_color
    rel, below, own, loop_color, plan, count = {}, {}, {}, {}, {}, {}
    # per subterm: the color strings and the BundleColors it holds
    strings, tables = {}, {}
    colors = []  # the declared colors, loop and leaf
    repeated = {}  # composite -> index of its first repeated bundle

    def prepare(t):
        if id(t) in rel:
            return
        below[id(t)] = {id(t)}  # the distinct subterms of t, t included
        if isinstance(t, Point):
            rel[id(t)], count[id(t)] = (f"v({t.tag})",), 1
            if t.loop:
                c = loop_color[id(t)] = _loop_color(t.tag)
                colors.append(c)
                strings[id(t)] = (c,)
            return
        if isinstance(t, ColoredQuiver):
            rel[id(t)] = tuple(map(str, t.vertices))
            count[id(t)] = len(t._blocks)
            strings[id(t)] = t.declared
            colors.extend(t.declared)
            tables[id(t)] = {id(c): c for _, _, c in t.bundles}.values()
            return
        for b in t.blocks:
            prepare(b)
        inside = set().union(*(below[id(b)] for b in t.blocks))
        below[id(t)].update(inside)
        rel[id(t)] = tuple(f"{name}/{v}" for name, b in zip(t.names, t.blocks)
                           for v in rel[id(b)])
        plan[id(t)], count[id(t)] = _skeleton_parts(
            t.arrows, [count[id(b)] for b in t.blocks])
        if any(i == j and tag in t.shared for i, j, tag in t.arrows):
            raise ValueError("a skeleton loop may not carry a shared tag")
        if len(set(t.arrows)) < len(t.arrows):
            repeats = [k for k, (i, j, _) in enumerate(t.arrows)
                       if t.arrows[k] in t.arrows[:k]
                       and rel[id(t.blocks[i])] and rel[id(t.blocks[j])]]
            if repeats:
                repeated[id(t)] = repeats[0]
        made, own[id(t)] = {}, []
        for i, j, tag in t.arrows:
            key = tag, id(t.blocks[i]), id(t.blocks[j])
            if key not in made:
                made[key] = BundleColors(render, tag, rel[key[1]],
                                         rel[key[2]])
            own[id(t)].append(made[key])
        tables[id(t)] = made.values()
        # only a shared tag's colors may already be inside the blocks
        fresh = [c for c in made.values() if c.tag not in t.shared]
        if fresh and (clash := _least_clash(
                fresh, [c for s in inside for c in tables.get(s, ())],
                [c for s in inside for c in strings.get(s, ())])):
            raise ColorClash("bundle color already used by a block",
                             color=clash)

    arrows, bundles, table, depth_of = [], [], {}, {}
    found = []  # the blocks, sources first

    def emit(t, prefix, depth):
        # final names of t's vertices under prefix, in relative order
        if isinstance(t, Point):
            v = prefix + rel[id(t)][0]
            loop = loop_color.get(id(t))
            if loop:
                arrows.append((v, v, loop, 1))
            if t.label not in table:
                table[t.label] = {"kind": "simple", "atom_label": t.label,
                                  "loop_colors": [loop] if loop else [],
                                  "vertices": []}
            table[t.label]["vertices"].append(v)
            names = v,
            found.append((names, (arrows[-1],) if loop else ()))
            return names
        if isinstance(t, ColoredQuiver):
            names = [prefix + v for v in rel[id(t)]]
            at = dict(zip(t.vertices, names))
            arrows.extend((at[src], at[dst], color, value)
                          for src, dst, color, value in t.plain)
            bundles.extend((tuple(map(at.get, sources)),
                            tuple(map(at.get, targets)), colors)
                           for sources, targets, colors in t.bundles)
            found.extend(reversed(_renamed_blocks(t, at)))
            return names
        names = []
        if t.limit and depth < depth_of.get(t.limit, depth + 1):
            depth_of[t.limit] = depth
            # names fills in once the blocks are emitted
            table[t.limit] = {"kind": "chain_limit", "atom_label": t.limit,
                              "vertices": names}
        start = len(found), len(arrows), len(bundles)
        blocks = [tuple(emit(b, f"{prefix}{name}/", depth + 1))
                  for name, b in zip(t.names, t.blocks)]
        if id(t) in repeated:
            k = repeated[id(t)]
            i, j, _ = t.arrows[k]
            raise DuplicateArrow("two arrows share (src, dst, color)",
                                 src=blocks[i][0], dst=blocks[j][0],
                                 color=own[id(t)][k].color(0, 0))
        bundles.extend((blocks[i], blocks[j], c)
                       for (i, j, _), c in zip(t.arrows, own[id(t)]))
        if plan[id(t)]:
            _composite_blocks(plan[id(t)], blocks, found, arrows, bundles,
                              start)
        for block in blocks:
            names += block
        return names

    prepare(term)
    # prepare and emit refer to themselves: delete them to free what
    # they hold on return, not at a gc; what the clash check read goes
    # before the walk
    del prepare, below, strings, tables
    vertices = emit(term, "", 0)
    del emit, rel, own, plan
    found.reverse()
    if len(set(vertices)) < len(vertices):
        repeats = [v for v, k in Counter(vertices).items() if k > 1]
        raise ValueError(f"vertex name {min(repeats)!r} repeats")
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


# -- the atom-free construction ------------------------------------------------

def noatom_window(trunc):
    """The nonnegative integers of trunc's window, 0..depth if None."""
    if trunc.depth < 0:
        raise DepthTooSmall("word length bound must be >= 0",
                            depth=trunc.depth)
    window = trunc.ladder_values()
    ints = [i for i in (range(trunc.depth + 1) if window is None else window)
            if i >= 0]
    if not ints:
        raise DepthTooSmall("empty integer window", ladder_range=trunc.ladder_range)
    return ints


def noatom_term(ints, depth):
    """The atom-free construction over consecutive integers ints:
    N(i, depth) under i for each i, block i joined to block i + 1 by the
    step tag 1c[i].  N(i, d) holds the loop point delta(i) under r and
    N(j, d - 1) under j for each j > i (none at d = 0), with fan tags
    ic[i;j] from r to j and steps 1c[j]; vertex w0/.../wk/r/v(wk) is the
    word (w0, ..., wk).  The paper's construction is self-similar: a word
    steps to the word one integer up under one color whatever prefix
    both extend.  Bundle colors omit the prefix, so a composite's steps
    mint colors inside its blocks, and it declares them shared."""
    def stepped(blocks, names, fans, first):
        steps = [(k, k + 1, f"1c[{names[k]}]")
                 for k in range(first, len(names) - 1)]
        return composite_term(blocks, names, fans + steps,
                              shared=[tag for _, _, tag in steps])

    terms = {}  # (i, d) -> N(i, d), built shallowest first
    for d in range(depth + 1):
        for i in ints:
            above = [j for j in ints if j > i] if d else []
            terms[i, d] = stepped(
                (Point(f"delta({i})", i, provenance=f"loop simple of {i}"),
                 *(terms[j, d - 1] for j in above)), ("r", *map(str, above)),
                [(0, k, f"ic[{i};{j}]") for k, j in enumerate(above, 1)], 1)
    return stepped([terms[i, depth] for i in ints], list(map(str, ints)), [], 0)


def noetherian_family(ints, depth):
    """The designated noetherian family: the loop simple of each integer,
    then the chain of each run i, ..., i + k in ints with k <= depth."""
    runs = [range(i, i + k + 1) for k in range(depth + 1) for i in ints
            if i + k in ints]
    return tuple([{"kind": "loop_simple", "label": f"noeth-loop({i})",
                   "loop_colors": [_loop_color(i)]} for i in ints]
                 + [{"kind": "chain",
                     "label": f"noeth-chain({','.join(map(str, r))})",
                     "word": list(r)} for r in runs])


def gen_noatom(trunc):
    """The atom-free construction truncated to words of at most
    trunc.depth + 1 integers: `truncate(noatom_term(...))`."""
    ints = noatom_window(trunc)
    gen = truncate(noatom_term(ints, trunc.depth))
    return GeneratedQuiver(gen.quiver, gen.atom_table,
                           noetherian_family(ints, trunc.depth))


# -- presets --------------------------------------------------------------------

def _tags(name, n):
    return [f"({name};{j})" for j in range(n - 1)]


def _points_chain(depth, label, limit, provenance):
    """depth copies of one loop-free point, chained."""
    point = Point(label, label, loop=False, provenance="point class")
    return chain_term([point] * depth, _tags(label, depth), limit,
                      provenance=provenance)


# the no-minimal-atom and no-dcc window p0 > p1 > p2 > p3, at every depth
_DESCENDING_WINDOW = ("p0", "p1", "p2", "p3")


def _descending_term(depth, with_bottom=False):
    """acc realization of the descending window after depth passes, for
    no-dcc with a bottom element pinf below it."""
    elems = [*_DESCENDING_WINDOW, *(["pinf"] if with_bottom else [])]
    return acc_term(normalize_poset(list(zip(elems[1:], elems)), elems), depth)


def _max_not_open(depth):
    # pairwise distinct blocks, each an infinite chain of one loop point
    blocks = [chain_term([Point(f"delta({i})", i)] * depth,
                         _tags(f"g{i}", depth), f"gamma({i})")
              for i in range(depth)]
    return chain_term(blocks, _tags("G", depth), "gamma", recurring=(),
                      provenance="chain of pairwise distinct blocks")


def _min_not_closed(depth):
    # shifts of one chain of distinct loop points, sharing colors by
    # absolute tags: gamma' recurs in every outer block, no delta(m) does
    points = [Point(f"delta({m})", m, provenance="loop simple")
              for m in range(2 * depth - 1)]
    blocks = [chain_term(points[j:j + depth],
                         [f"(s;{m})" for m in range(j, j + depth - 1)],
                         "gamma'", recurring=(),
                         provenance="inner chain limit of a shift")
              for j in range(depth)]
    return chain_term(blocks, _tags("G", depth), "gamma",
                      recurring=("gamma'",),
                      provenance="outer chain limit over shifted copies")


_PRESETS = {
    "infinite-chain": lambda depth: _points_chain(depth, "delta", "gamma",
                                                  "chain of points"),
    "aass-vs-asupp": lambda depth: chain_term(
        [_points_chain(depth, "beta", "alpha", "infinite chain of points"),
         Point("beta", "t", loop=False, provenance="point class")],
        ["(G';0)"]),
    "no-minimal-atom": _descending_term,
    "no-dcc": partial(_descending_term, with_bottom=True),
    "max-not-open": _max_not_open,
    "min-not-closed": _min_not_closed,
}
PRESET_NAMES = tuple(_PRESETS)


def require_preset(name, depth):
    """Refuse a preset request, depth before name; the truncation and
    the symbolic window share these refusals."""
    if depth < 1:
        raise DepthTooSmall("presets need depth >= 1", depth=depth)
    if name not in _PRESETS:
        raise UnknownPreset("no such preset", name=name,
                            known=list(PRESET_NAMES))


def preset_term(name, depth):
    """The term of a named counter-example construction at a depth."""
    require_preset(name, depth)
    return _PRESETS[name](depth)


def preset(name, depth):
    """Truncated quiver of a named counter-example construction."""
    return truncate(preset_term(name, depth))
