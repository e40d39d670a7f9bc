"""Truncated materializations of the infinite quiver constructions.

Every generator here cuts an infinite colored quiver down to a finite,
prefix-stable window:

* poset realizations with ascending chain condition: one block per
  poset element, maximal elements become loop points, non-maximal ones
  become chains cycling through J(p) (the minimal elements above p),
  depth counting whole passes through J(p);
* the general poset realization indexed by alternating words
  (element, integer, element, ...) with step/skip/fan arrow families
  whose colors are deliberately shared across word prefixes;
* the atom-free construction over strictly increasing integer words;
* named presets for the counter-example spectra, one term per name in
  the `_PRESETS` table.

The two word-indexed constructions share one word-tree builder
(`_words`, `_word_quiver`); each adds only its step rule, its arrow
families as (src word, dst word, color) triples, and its atom table.

Construction terms are read by `truncate`, the one builder of the
chain-shaped constructions, as a truncated quiver with its atom table
in one pass, and by `predictor.window` as a symbolic spectrum.
`Point(label, tag, loop=True)` is vertex v(tag), with loop c(tag) if
loop, and the simple atom `label`.  `Chain(blocks, tags, limit=None,
recurring=None)` joins the blocks by bundles tagged `tags`: a window of
an infinite chain whose atom `limit` lies below the `recurring` atoms
(None: all of them), or a finite chain if limit is None; a block
repeated by identity is one block of the window.  `Union(terms, names)`
puts term i under names[i].  The presets are terms, and the acc
realization is `truncate(acc_term(...))`.

Color and vertex ids are structured strings, never fresh counters, so
regenerating at a deeper truncation extends the shallower quiver
verbatim.
"""

from collections import namedtuple
from functools import partial
from itertools import repeat

from .errors import ColorClash, DepthTooSmall, UnknownPreset, WindowTooSmall
from .ordertop import normalize_poset, poset_invariants
from .quiver import (GeneratedQuiver, _chain_tags, _union_names, bundle_color,
                     make_quiver)


def _check_ids(elements):
    # element ids become structural parts of vertex and color names
    bad = [e for e in elements
           if any(ch in str(e) for ch in "/,()|;")]
    if bad:
        raise ValueError(f"element ids may not contain structural "
                         f"characters: {bad}")


# -- word-indexed realizations ------------------------------------------------

def _ser(word):
    return ",".join(str(x) for x in word)


def _words(roots, steps, depth):
    """Words grown from the one-entry words of the roots: each of at
    most depth rounds extends every word of the last round by each tuple
    steps(last entry) returns.  Shortest words come first."""
    words = frontier = [(r,) for r in roots]
    for _ in range(depth):
        frontier = [w + s for w in frontier for s in steps(w[-1])]
        if not frontier:
            break
        words = words + frontier
    return words


def _word_quiver(words, arrows):
    """Quiver on the words, vertex v(w) for word w, from (src word, dst
    word, color) triples, each kept once in first-seen order, plus one
    loop[last entry] per word.  Returns (quiver, vname)."""
    vname = {w: f"v({_ser(w)})" for w in words}
    arrows = [*dict.fromkeys((vname[s], vname[d], c, 1) for s, d, c in arrows),
              *((vname[w], vname[w], f"loop[{w[-1]}]", 1) for w in words)]
    colors = sorted({color for _, _, color, _ in arrows})
    return make_quiver(list(vname.values()), colors, arrows), vname


def _general_arrows(words):
    # (prefix up to an element, integer after it) -> [(tail, word)]
    contexts = {}
    for w in words:
        for j in range(1, len(w), 2):
            contexts.setdefault(w[:j], {}).setdefault(w[j], []).append(
                (w[j + 1:], w))
    for ctx, by_i in contexts.items():
        theta = ctx[-1]
        for i, tails in by_i.items():
            for e, w in tails:
                # family 0: descend the well-order inside one position
                for e2, w2 in tails:
                    if e2[0] < e[0]:
                        yield w, w2, f"0c[{theta}]({_ser(e)}|{_ser(e2)})"
                # families 1 and 2: step down the integer index
                for e2, w2 in by_i.get(i - 1, ()):
                    yield w, w2, f"1c[{theta}]({_ser(e)}|{_ser(e2)})"
                for e2, w2 in by_i.get(i - 2, ()):
                    yield w, w2, f"2c[{theta};{i}]({_ser(e)}|{_ser(e2)})"
                # family inf: fan from the bare context word
                yield ctx, w, f"ic[{theta};{i}]({_ser(e)})"


def gen_realization_general(poset, trunc):
    """Word-indexed realization quiver with four arrow families.

    Levels: a materialized word w = (e0, i1, e1, ...) splits at every
    element position into (prefix f, element, integer, tail).  Within
    one (prefix, element, integer) context, same-position arrows step
    down the well-order (family 0), position arrows step the integer
    down by one with position-independent colors (family 1) or by two
    with per-position colors (family 2), and the bare prefix word fans
    out to all its extensions (family inf).  Colors omit the prefix on
    purpose: deeper copies reuse the colors of shallower ones.  Words
    alternate strictly increasing elements with integers of the window,
    at most depth pairs.
    """
    if trunc.depth < 0:
        raise DepthTooSmall("word length bound must be >= 0",
                            depth=trunc.depth)
    _check_ids(poset.elements)
    window = trunc.ladder_values()
    if not window:
        raise WindowTooSmall("need a nonempty integer window",
                             ladder_range=trunc.ladder_range)
    words = _words(poset.elements,
                   lambda e: [(i, e2) for e2 in poset.elements
                              if poset.lt(e, e2) for i in window],
                   trunc.depth)
    q, vname = _word_quiver(words, _general_arrows(words))

    maximal = set(poset.maximal_elements())
    table = {}
    for e in poset.elements:
        delta = table[f"delta({e})"] = {
            "kind": "simple",
            "atom_label": f"gamma({e})" if e in maximal else f"delta({e})",
            "loop_colors": [f"loop[{e}]"],
            "vertices": [vname[w] for w in words if w[-1] == e],
        }
        table[f"gamma({e})"] = dict(delta) if e in maximal else {
            "kind": "chain_limit", "atom_label": f"gamma({e})",
            "vertices": [vname[w] for w in words if w[0] == e]}
    return GeneratedQuiver(q, table)


# -- the atom-free construction ------------------------------------------------

def _noatom_arrows(words):
    # (prefix, next entry) -> [(tail from that entry, word)]
    contexts = {}
    for w in words:
        for k in range(len(w)):
            contexts.setdefault(w[:k], {}).setdefault(w[k], []).append(
                (w[k:], w))
    for f, by_first in contexts.items():
        for i, tails in by_first.items():
            for e, w in tails:
                # family 1: into the next integer level, prefix-shared color
                for e2, w2 in by_first.get(i + 1, ()):
                    yield w, w2, f"1c({_ser(e)}|{_ser(e2)})"
                # family inf: fan from the one-step prefix
                if len(e) >= 2:
                    yield f + (i,), w, f"ic[{i}]({_ser(e[1:])})"


def gen_noatom(trunc):
    """Strictly increasing integer words, step and fan families only.

    Step colors are keyed by the (tail, tail) pair and fan colors by
    (last prefix entry, tail), both independent of the enclosing
    prefix: the quiver is self-similar, every vertex carries exactly
    one loop loop[last entry], and no infinite-dimensional monoform
    submodule survives, which is the whole point.
    """
    if trunc.depth < 0:
        raise DepthTooSmall("word length bound must be >= 0",
                            depth=trunc.depth)
    window = trunc.ladder_values()
    if window is None:
        window = range(trunc.depth + 1)
    window = [i for i in window if i >= 0]
    if not window:
        raise DepthTooSmall("empty integer window", ladder_range=trunc.ladder_range)
    words = _words(window, lambda i: [(j,) for j in window if j > i],
                   trunc.depth)
    q, vname = _word_quiver(words, _noatom_arrows(words))

    table = {}
    family = []
    for i in window:
        table[f"delta({i})"] = {
            "kind": "simple",
            "atom_label": f"delta({i})",
            "loop_colors": [f"loop[{i}]"],
            "vertices": [vname[w] for w in words if w[-1] == i],
        }
        family.append({"kind": "loop_simple",
                       "label": f"noeth-loop({i})",
                       "loop_colors": [f"loop[{i}]"]})
    for w in words:
        if w == tuple(range(w[0], w[0] + len(w))):
            family.append({"kind": "chain",
                           "label": f"noeth-chain({_ser(w)})",
                           "word": list(w)})
    return GeneratedQuiver(q, table, tuple(family))


# -- construction terms -------------------------------------------------------

Point = namedtuple("Point", "label tag loop provenance", defaults=(True, ""))
Chain = namedtuple("Chain", "blocks tags limit recurring provenance",
                   defaults=(None, None, ""))
Union = namedtuple("Union", "terms names")


def acc_term(poset, depth):
    """The acc realization as a term: a union over the poset of a loop
    point per maximal p and a chain of depth passes through the terms of
    J(p) per other p, the bundle leaving the j-th block of pass i tagged
    (p;i,j).  Each element's term is one object, wherever it occurs."""
    inv = poset_invariants(poset)
    terms = {}
    for p in sorted(poset.elements, key=lambda x: (len(poset.up_set(x)), x)):
        js = sorted(inv.j_sets[p])
        if not js:
            terms[p] = Point(f"simple({p})", p,
                             provenance=f"loop point of {p}")
            continue
        tags = [f"({p};{i},{j})" for i in range(depth) for j in range(len(js))]
        terms[p] = Chain([terms[e] for _ in range(depth) for e in js],
                         tags[:-1], f"chain({p})",
                         provenance=f"chain over J({p})")
    return Union([terms[p] for p in poset.elements], poset.elements)


def truncate(term):
    """The truncated quiver of a term with its atom table, in one pass.

    Each distinct subterm (by identity) is prepared once, children
    first: its vertex names relative to itself (v(tag), b{i}/... or
    {name}/...), the distinct subterms inside it and, for a chain, its
    bundle color rows, bundle_color(tags[i], v, w) for vertex v of
    block i and w of block i + 1.  Then one walk with every vertex's
    final prefix makes each vertex name, color and arrow once, and one
    `make_quiver` validates them.  Refusals are those of `quiver.chain`
    and `disjoint_union`; as in `substitute`, a chain's bundle colors
    must avoid the colors inside its own blocks (sibling chains may
    share theirs), and ColorClash names the least clashing color of the
    first chain that clashes.

    A simple entry collects every occurrence of its point; a chain
    limit's entry has the vertices of its shallowest occurrence, the
    first one at that depth.  Entries come in first-met order.

    Working set: colors reach `make_quiver` as one flat list in minting
    order, nearly sorted already.  The set of colors minted so far goes
    before the arrows are emitted, the relative names and bundle rows
    before validation, which then holds the vertex, color and arrow
    lists and `make_quiver`'s own color set and arrow copy beyond the
    finished quiver.
    """
    rel, below, rows, loop_color = {}, {}, {}, {}
    colors, minted = [], set()  # minting order, and as a set

    def prepare(t):
        if id(t) in rel:
            return
        below[id(t)] = {id(t)}  # the distinct subterms of t, t included
        if isinstance(t, Point):
            rel[id(t)] = (f"v({t.tag})",)
            if t.loop:
                c = loop_color[id(t)] = f"c({t.tag})"
                colors.append(c)
                minted.add(c)
            return
        subterms = t.terms if isinstance(t, Union) else t.blocks
        for s in subterms:
            prepare(s)
        inside = set().union(*(below[id(s)] for s in subterms))
        below[id(t)].update(inside)
        if isinstance(t, Union):
            names = _union_names(t.names, len(t.terms))
            rel[id(t)] = tuple(f"{name}/{v}" for name, s in zip(names, t.terms)
                               for v in rel[id(s)])
            return
        tags = _chain_tags(t.tags, len(t.blocks))
        rel[id(t)] = tuple(f"b{i}/{v}" for i, b in enumerate(t.blocks)
                           for v in rel[id(b)])
        # rows[id(t)][i][x][y] colors the arrow from vertex x of block i
        # to vertex y of block i + 1
        rows[id(t)] = [[[bundle_color(tag, v, w) for w in rel[id(b2)]]
                        for v in rel[id(b)]]
                       for tag, b, b2 in zip(tags, t.blocks, t.blocks[1:])]
        fresh = [c for block in rows[id(t)] for row in block for c in row]
        if not minted.isdisjoint(fresh):
            # a color minted before may be inside the blocks
            held = {loop_color[s] for s in inside if s in loop_color}
            held.update(c for s in inside for block in rows.get(s, ())
                        for row in block for c in row)
            if not held.isdisjoint(fresh):
                raise ColorClash("bundle color already used by a block",
                                 color=min(held.intersection(fresh)))
        minted.update(fresh)
        colors.extend(fresh)

    arrows, table, depth_of = [], {}, {}

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
            return [v]
        names = []
        if isinstance(t, Union):
            for s, name in zip(t.terms, t.names):
                names += emit(s, f"{prefix}{name}/", depth + 1)
            return names
        if t.limit and depth < depth_of.get(t.limit, depth + 1):
            depth_of[t.limit] = depth
            # names fills in as the blocks are emitted
            table[t.limit] = {"kind": "chain_limit", "atom_label": t.limit,
                              "vertices": names}
        bundles, prev = rows[id(t)], None
        for i, b in enumerate(t.blocks):
            cur = emit(b, f"{prefix}b{i}/", depth + 1)
            if prev is not None:
                for v, row in zip(prev, bundles[i - 1]):
                    arrows.extend(zip(repeat(v), cur, row, repeat(1)))
            names += cur
            prev = cur
        return names

    prepare(term)
    # prepare and emit refer to themselves: delete them to free what
    # they hold on return, not at a gc; the color set goes before the
    # arrows, the relative names and bundle rows before validation
    del prepare, below, minted
    vertices = emit(term, "", 0)
    del emit, rel, rows
    union = make_quiver(vertices, colors, arrows)
    for entry in table.values():
        entry["vertices"].sort()
    return GeneratedQuiver(union, table)


def gen_realization_acc(poset, trunc):
    """The acc realization truncated after trunc.depth passes,
    `truncate(acc_term(poset, trunc.depth))`.  Deeper truncations
    append passes only, so vertex names are stable."""
    if trunc.depth < 1:
        raise DepthTooSmall("need at least one pass", depth=trunc.depth)
    _check_ids(poset.elements)
    return truncate(acc_term(poset, trunc.depth))


# -- presets --------------------------------------------------------------------

def _tags(name, n):
    return [f"({name};{j})" for j in range(n - 1)]


def _points_chain(depth, label, limit, provenance):
    """depth copies of one loop-free point, chained."""
    point = Point(label, label, loop=False, provenance="point class")
    return Chain([point] * depth, _tags(label, depth), limit,
                 provenance=provenance)


def _descending_window(depth):
    """The window p0 > p1 > ... of the no-minimal-atom and no-dcc presets."""
    return [f"p{i}" for i in range(max(depth, 2))]


def _descending_term(depth, with_bottom=False):
    """acc realization of the descending window, for no-dcc with a
    bottom element pinf below it."""
    elems = _descending_window(depth) + (["pinf"] if with_bottom else [])
    return acc_term(normalize_poset(list(zip(elems[1:], elems)), elems), depth)


def _max_not_open(depth):
    # pairwise distinct blocks, each an infinite chain of one loop point
    blocks = [Chain([Point(f"delta({i})", i)] * depth, _tags(f"g{i}", depth),
                    f"gamma({i})") for i in range(depth)]
    return Chain(blocks, _tags("G", depth), "gamma", recurring=(),
                 provenance="chain of pairwise distinct blocks")


def _min_not_closed(depth):
    # shifts of one chain of distinct loop points, sharing colors by
    # absolute tags: gamma' recurs in every outer block, no delta(m) does
    points = [Point(f"delta({m})", m, provenance="loop simple")
              for m in range(2 * depth - 1)]
    blocks = [Chain(points[j:j + depth],
                    [f"(s;{m})" for m in range(j, j + depth - 1)], "gamma'",
                    recurring=(), provenance="inner chain limit of a shift")
              for j in range(depth)]
    return Chain(blocks, _tags("G", depth), "gamma", recurring=("gamma'",),
                 provenance="outer chain limit over shifted copies")


_PRESETS = {
    "infinite-chain": lambda depth: _points_chain(depth, "delta", "gamma",
                                                  "chain of points"),
    "aass-vs-asupp": lambda depth: Chain(
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
