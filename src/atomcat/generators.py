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
* named presets for the counter-example spectra.

Color and vertex ids are structured strings, never fresh counters, so
regenerating at a deeper truncation extends the shallower quiver
verbatim.
"""

from itertools import repeat

from .errors import ColorClash, DepthTooSmall, UnknownPreset, WindowTooSmall
from .ordertop import normalize_poset, poset_invariants
from .quiver import (GeneratedQuiver, TruncationSpec, bundle_color, chain,
                     make_quiver)


def loop_point(tag):
    """Single vertex v(tag) with loop color c(tag)."""
    v, c = f"v({tag})", f"c({tag})"
    return make_quiver([v], [c], [(v, v, c)])


def _simple_label(loop_colors):
    """Brute-force atom label expected for a one-line module carrying
    exactly these unit loops (mirrors atomspec's canonical label)."""
    return "S(" + ",".join(sorted(loop_colors)) + ")"


def _base_vertex(name):
    return name.split("/")[-1]


def _check_ids(elements):
    # element ids become structural parts of vertex and color names
    bad = [e for e in elements
           if any(ch in str(e) for ch in "/,()|;")]
    if bad:
        raise ValueError(f"element ids may not contain structural "
                         f"characters: {bad}")


# -- realization with ascending chain condition -------------------------------

def gen_realization_acc(poset, trunc):
    """Disjoint union over p of the truncated block quivers.

    Maximal p: a loop point.  Non-maximal p: a chain whose blocks cycle
    through J(p) in sorted order, trunc.depth full passes, the arrow
    leaving the j-th block of pass i tagged (p;i,j).  Deeper
    truncations append passes only, so vertex names are stable.

    The quiver is emitted in one pass: each element's relative vertex
    names and bundle colors are computed once, then the poset is walked
    with every vertex's final prefix, so each vertex name, color and
    arrow is made once and validated once.  `loop_point`, `chain` and
    `disjoint_union` build the same quiver by nesting and are the
    reference the tests hold this to.

    Working set: while colors are minted, one set of them guards
    against clashes and a flat list keeps them in minting order; the
    set is dropped before the arrows are emitted, and the per-element
    bundle color rows before `make_quiver` validates.  Validation then
    holds the vertex and color lists, the arrow list and what
    `make_quiver` itself holds (one color set, one arrow copy) beyond
    the finished quiver.  `make_quiver` sorts the colors from minting
    order, which is nearly sorted already.
    """
    if trunc.depth < 1:
        raise DepthTooSmall("need at least one pass", depth=trunc.depth)
    _check_ids(poset.elements)
    inv = poset_invariants(poset)
    maximal = set(inv.maximal)
    rel, blocks, bundles, loop_color = {}, {}, {}, {}
    colors, used = [], set()  # minting order, which make_quiver sorts fast
    for p in sorted(poset.elements, key=lambda x: (len(poset.up_set(x)), x)):
        if p in maximal:
            rel[p] = (f"v({p})",)
            loop_color[p] = f"c({p})"
            colors.append(loop_color[p])
            used.add(loop_color[p])
            continue
        j_list = sorted(inv.j_sets[p])
        seq = j_list * trunc.depth
        rel[p] = tuple(f"b{b}/{v}" for b, e in enumerate(seq) for v in rel[e])
        # bundles[p][b][x][y] colors the arrow from vertex x of block b
        # to vertex y of block b + 1
        minted = []
        for b in range(len(seq) - 1):
            tag = f"({p};{b // len(j_list)},{b % len(j_list)})"
            minted.append([[bundle_color(tag, v, w) for w in rel[seq[b + 1]]]
                           for v in rel[seq[b]]])
        fresh = [c for rows in minted for row in rows for c in row]
        if not used.isdisjoint(fresh):
            raise ColorClash("bundle color already in use",
                             color=min(used.intersection(fresh)))
        used.update(fresh)
        colors += fresh
        blocks[p], bundles[p] = seq, minted
    used = fresh = None  # emitting the arrows needs neither

    arrows = []
    leaves = {q: [] for q in maximal}

    def emit(p, prefix):
        # final names of p's block under prefix, in the order of rel[p]
        if p in maximal:
            v = prefix + rel[p][0]
            arrows.append((v, v, loop_color[p], 1))
            leaves[p].append(v)
            return [v]
        names, prev = [], None
        for b, e in enumerate(blocks[p]):
            cur = emit(e, f"{prefix}b{b}/")
            if prev is not None:
                for v, row in zip(prev, bundles[p][b - 1]):
                    arrows.extend(zip(repeat(v), cur, row, repeat(1)))
            names.extend(cur)
            prev = cur
        return names

    names = {p: emit(p, f"{p}/") for p in poset.elements}
    # emit refers to itself: delete it to free the arrows on return, not
    # at a gc; the bundle rows go before validation
    del emit, bundles
    union = make_quiver([v for vs in names.values() for v in vs], colors,
                        arrows)
    table = {}
    for p in poset.elements:
        if p not in maximal:
            table[f"chain({p})"] = {
                "kind": "chain_limit",
                "atom_label": f"chain({p})",
                "vertices": sorted(names[p]),
            }
    for q in sorted(maximal):
        table[f"simple({q})"] = {
            "kind": "simple",
            "atom_label": f"simple({q})",
            "loop_colors": [loop_color[q]],
            "vertices": sorted(leaves[q]),
        }
    return GeneratedQuiver(union, table)


# -- general realization -------------------------------------------------------

def _ser(word):
    return ",".join(str(x) for x in word)


def _enumerate_words_general(poset, depth, window):
    """Alternating words (e0, i1, e1, ...) with strictly increasing
    poset elements and integers from the window; at most depth pairs."""
    words = [(e,) for e in poset.elements]
    frontier = list(words)
    for _ in range(depth):
        new = []
        for w in frontier:
            for e2 in poset.elements:
                if poset.lt(w[-1], e2):
                    for i in window:
                        new.append(w + (i, e2))
        if not new:
            break
        words.extend(new)
        frontier = new
    return words


def gen_realization_general(poset, trunc):
    """Word-indexed realization quiver with four arrow families.

    Levels: a materialized word w = (e0, i1, e1, ...) splits at every
    element position into (prefix f, element, integer, tail).  Within
    one (prefix, element, integer) context, same-position arrows step
    down the well-order (family 0), position arrows step the integer
    down by one with position-independent colors (family 1) or by two
    with per-position colors (family 2), and the bare prefix word fans
    out to all its extensions (family inf).  Colors omit the prefix on
    purpose: deeper copies reuse the colors of shallower ones.
    """
    if trunc.depth < 0:
        raise DepthTooSmall("word length bound must be >= 0",
                            depth=trunc.depth)
    _check_ids(poset.elements)
    window = trunc.ladder_values()
    if window is None or len(window) == 0:
        raise WindowTooSmall("need a nonempty integer window",
                             ladder_range=trunc.ladder_range)
    window = list(window)
    words = _enumerate_words_general(poset, trunc.depth, window)
    vname = {w: f"v({_ser(w)})" for w in words}

    arrows = {}  # insertion-ordered set of arrows

    def add(src, dst, color):
        arrows[vname[src], vname[dst], color, 1] = None

    contexts = {}
    for w in words:
        n_pairs = (len(w) - 1) // 2
        for k in range(n_pairs):
            ctx = w[:2 * k + 1]
            i = w[2 * k + 1]
            tail = w[2 * k + 2:]
            contexts.setdefault(ctx, []).append((i, tail, w))

    for ctx, items in contexts.items():
        theta = ctx[-1]
        by_i = {}
        for i, tail, w in items:
            by_i.setdefault(i, []).append((tail, w))
        for i, tails in by_i.items():
            # family 0: descend the well-order inside one position
            for e, w in tails:
                for e2, w2 in tails:
                    if e2[0] < e[0]:
                        add(w, w2, f"0c[{theta}]({_ser(e)}|{_ser(e2)})")
            # families 1 and 2: step down the integer index
            for e, w in tails:
                for e2, w2 in by_i.get(i - 1, ()):
                    add(w, w2, f"1c[{theta}]({_ser(e)}|{_ser(e2)})")
                for e2, w2 in by_i.get(i - 2, ()):
                    add(w, w2, f"2c[{theta};{i}]({_ser(e)}|{_ser(e2)})")
            # family inf: fan from the bare context word
            for e, w in tails:
                add(ctx, w, f"ic[{theta};{i}]({_ser(e)})")

    loops = [(vname[w], vname[w], f"loop[{w[-1]}]", 1) for w in words]
    all_arrows = [*arrows, *loops]
    colors = sorted({color for _, _, color, _ in all_arrows})
    q = make_quiver([vname[w] for w in words], colors, all_arrows)

    maximal = set(poset.maximal_elements())
    table = {}
    for e in poset.elements:
        ending = [vname[w] for w in words if w[-1] == e]
        table[f"delta({e})"] = {
            "kind": "simple",
            "atom_label": f"gamma({e})" if e in maximal else f"delta({e})",
            "loop_colors": [f"loop[{e}]"],
            "vertices": ending,
        }
        if e not in maximal:
            table[f"gamma({e})"] = {
                "kind": "chain_limit",
                "atom_label": f"gamma({e})",
                "vertices": [vname[w] for w in words if w[0] == e],
            }
        else:
            table[f"gamma({e})"] = {
                "kind": "simple",
                "atom_label": f"gamma({e})",
                "loop_colors": [f"loop[{e}]"],
                "vertices": ending,
            }
    return GeneratedQuiver(q, table)


# -- the atom-free construction ------------------------------------------------

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
        window = range(0, max(trunc.depth, 0) + 1)
    window = [i for i in window if i >= 0]
    if not window:
        raise DepthTooSmall("empty integer window", ladder_range=trunc.ladder_range)

    words = [(i,) for i in window]
    frontier = list(words)
    for _ in range(trunc.depth):
        new = []
        for w in frontier:
            for i in window:
                if i > w[-1]:
                    new.append(w + (i,))
        if not new:
            break
        words.extend(new)
        frontier = new
    vname = {w: f"v({_ser(w)})" for w in words}

    arrows = {}  # insertion-ordered set of arrows

    def add(src, dst, color):
        arrows[vname[src], vname[dst], color, 1] = None

    contexts = {}
    for w in words:
        for k in range(len(w)):
            contexts.setdefault(w[:k], []).append((w[k:], w))

    for f, items in contexts.items():
        by_first = {}
        for tail, w in items:
            by_first.setdefault(tail[0], []).append((tail, w))
        for i, tails in by_first.items():
            for e, w in tails:
                # family 1: into the next integer level, prefix-shared color
                for e2, w2 in by_first.get(i + 1, ()):
                    add(w, w2, f"1c({_ser(e)}|{_ser(e2)})")
                # family inf: fan from the one-step prefix
                if len(e) >= 2:
                    src = f + (i,)
                    add(src, w, f"ic[{i}]({_ser(e[1:])})")

    loops = [(vname[w], vname[w], f"loop[{w[-1]}]", 1) for w in words]
    all_arrows = [*arrows, *loops]
    colors = sorted({color for _, _, color, _ in all_arrows})
    q = make_quiver([vname[w] for w in words], colors, all_arrows)

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
        if len(w) >= 1 and w == tuple(range(w[0], w[0] + len(w))):
            family.append({"kind": "chain",
                           "label": f"noeth-chain({_ser(w)})",
                           "word": list(w)})
    return GeneratedQuiver(q, table, tuple(family))


# -- presets --------------------------------------------------------------------

PRESET_NAMES = ("infinite-chain", "aass-vs-asupp", "no-minimal-atom",
                "no-dcc", "max-not-open", "min-not-closed")


def _preset_infinite_chain(depth):
    vs = [f"v{i}" for i in range(depth)]
    arrows = [(vs[i], vs[i + 1], f"c{i},{i+1}") for i in range(depth - 1)]
    q = make_quiver(vs, [a[2] for a in arrows], arrows)
    table = {
        "gamma": {"kind": "chain_limit", "atom_label": "gamma",
                  "vertices": list(vs)},
        "delta": {"kind": "simple", "atom_label": "delta",
                  "loop_colors": [], "vertices": list(vs)},
    }
    return GeneratedQuiver(q, table)


def _preset_aass_vs_asupp(depth):
    inner = _preset_infinite_chain(depth).quiver
    terminal = make_quiver(["t"], [], [])
    g = chain([inner, terminal], tags=["(G';0)"])
    table = {
        "alpha": {"kind": "chain_limit", "atom_label": "alpha",
                  "vertices": [v for v in g.quiver.vertices
                               if v.startswith("b0/")]},
        "beta": {"kind": "simple", "atom_label": "beta",
                 "loop_colors": [], "vertices": list(g.quiver.vertices)},
    }
    return GeneratedQuiver(g.quiver, table)


def _descending_window_poset(n, with_bottom=False):
    elems = [f"p{i}" for i in range(n)]
    pairs = [(elems[i + 1], elems[i]) for i in range(n - 1)]
    if with_bottom:
        elems.append("pinf")
        pairs.append(("pinf", elems[n - 1]))
    return normalize_poset(pairs, elems)


def _preset_max_not_open(depth):
    inner = {}
    for i in range(depth):
        blocks = [loop_point(i)] * depth
        tags = [f"(g{i};{j})" for j in range(depth - 1)]
        inner[i] = chain(blocks, tags=tags).quiver
    outer = chain([inner[i] for i in range(depth)],
                  tags=[f"(G;{j})" for j in range(depth - 1)])
    q = outer.quiver
    table = {"gamma": {"kind": "chain_limit", "atom_label": "gamma",
                       "vertices": list(q.vertices)}}
    for i in range(depth):
        table[f"gamma({i})"] = {
            "kind": "chain_limit", "atom_label": f"gamma({i})",
            "vertices": [v for v in q.vertices if v.startswith(f"b{i}/")]}
        table[f"delta({i})"] = {
            "kind": "simple", "atom_label": f"delta({i})",
            "loop_colors": [f"c({i})"],
            "vertices": [v for v in q.vertices
                         if _base_vertex(v) == f"v({i})"]}
    return GeneratedQuiver(q, table)


def _shifted_loop_chain(start, length):
    """Loop points start..start+length-1 joined by absolutely named step
    arrows, so different shifts are literal color-sharing subquivers."""
    vertices, colors, arrows = [], set(), []
    for m in range(start, start + length):
        v, c = f"v({m})", f"c({m})"
        vertices.append(v)
        colors.add(c)
        arrows.append((v, v, c))
        if m > start:
            step = f"step({m-1})"
            colors.add(step)
            arrows.append((f"v({m-1})", v, step))
    return make_quiver(vertices, sorted(colors), arrows)


def _preset_min_not_closed(depth):
    blocks = [_shifted_loop_chain(j, depth) for j in range(depth)]
    outer = chain(blocks, tags=[f"(G;{j})" for j in range(depth - 1)])
    q = outer.quiver
    table = {
        "gamma": {"kind": "chain_limit", "atom_label": "gamma",
                  "vertices": list(q.vertices)},
        "gamma'": {"kind": "chain_limit", "atom_label": "gamma'",
                   "vertices": [v for v in q.vertices
                                if v.startswith("b0/")]},
    }
    for i in range(2 * depth - 1):
        vs = [v for v in q.vertices if _base_vertex(v) == f"v({i})"]
        if vs:
            table[f"delta({i})"] = {
                "kind": "simple", "atom_label": f"delta({i})",
                "loop_colors": [f"c({i})"], "vertices": vs}
    return GeneratedQuiver(q, table)


def preset(name, depth):
    """Truncated quiver of a named counter-example construction."""
    if depth < 1:
        raise DepthTooSmall("presets need depth >= 1", depth=depth)
    if name == "infinite-chain":
        return _preset_infinite_chain(depth)
    if name == "aass-vs-asupp":
        return _preset_aass_vs_asupp(depth)
    if name == "no-minimal-atom":
        window = max(depth, 2)
        return gen_realization_acc(_descending_window_poset(window),
                                   TruncationSpec(depth=depth))
    if name == "no-dcc":
        window = max(depth, 2)
        return gen_realization_acc(
            _descending_window_poset(window, with_bottom=True),
            TruncationSpec(depth=depth))
    if name == "max-not-open":
        return _preset_max_not_open(depth)
    if name == "min-not-closed":
        return _preset_min_not_closed(depth)
    raise UnknownPreset("no such preset", name=name,
                        known=list(PRESET_NAMES))
