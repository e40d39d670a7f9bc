"""Construction terms, the paper's infinite quivers as finite terms:
both poset realizations (`acc_term`, `general_term`), the atom-free
construction (`noatom_term`) and the counter-example presets, one term
per name in `_PRESETS`; and `fold`, the one reader of a term.

`generators.truncate` reads a term as a truncated quiver with its atom
table, and `predictor.window` as a symbolic spectrum; both read it
with `fold`.  `Point(label, tag, loop=True)` is vertex v(tag), with
loop c(tag) if loop, and the simple atom `label`.  A `Composite`
substitutes its blocks into a skeleton: block k under names[k], and
per skeleton arrow (i, j, tag) the complete bipartite bundle from
block i to block j, its colors minted fresh.  Its `limit`, if any, is
the atom of an infinite construction that the composite truncates,
lying below the `recurring` atoms (None: all of them); a block
repeated by identity is one block of the window.  Its `shared` tags,
which no skeleton loop may carry, may mint bundle colors already
inside its blocks, which the fresh-color rule otherwise refuses.
`composite_term` builds a composite on an acyclic skeleton,
`chain_term` puts blocks b0, b1, ... on a path skeleton and
`union_term` puts terms under names on a skeleton without arrows.  Any
other leaf, such as a `ColoredQuiver` of `generators.substitute`, is
read by the fold's `leaf`.
"""

from collections import namedtuple
from functools import partial

from .errors import ColorClash, DepthTooSmall, EmptyRange, UnknownPreset
from .ordertop import j_sets, normalize_poset
from .skeleton import _require_acyclic


def _check_ids(elements):
    # element ids become structural parts of vertex and color names
    bad = [e for e in elements
           if any(ch in str(e) for ch in "/,()|;")]
    if bad:
        raise ValueError(f"element ids may not contain structural "
                         f"characters: {bad}")


Point = namedtuple("Point", "label tag loop provenance", defaults=(True, ""))
_loop_color = "c({})".format  # the loop color of a looped point, by tag
Composite = namedtuple("Composite",
                       "blocks names arrows limit recurring provenance shared",
                       defaults=(None, None, "", ()))


def fold(term, point, leaf, composite):
    """The value of a term: point(t) of a `Point`, leaf(t) of a leaf
    that is no `Composite`, and composite(t, values) of a composite,
    values holding its blocks' values in block order, repeats included.

    Each distinct subterm (by identity) is read once, children first,
    blocks in block order: the post-order of a recursive walk that
    skips the subterms it has met.  Skeletons are not checked."""
    values, opened, todo = {}, set(), [term]
    while todo:
        t = todo.pop()
        if id(t) in values:
            continue
        if not isinstance(t, Composite):
            values[id(t)] = point(t) if isinstance(t, Point) else leaf(t)
        elif id(t) in opened:  # its blocks are read
            values[id(t)] = composite(t, [values[id(b)] for b in t.blocks])
        else:
            opened.add(id(t))
            todo += t, *reversed(t.blocks)
    return values[id(term)]


def _union_names(names, n):
    """n block names as strings; refuses a name count other than n and
    repeats."""
    names = list(map(str, names))
    if len(names) != n:
        raise ValueError(f"need {n} block names, got {len(names)}")
    if len(set(names)) < len(names):
        raise ValueError(f"block names repeat: {names}")
    return names


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
    n = len(blocks)
    if not n:
        raise EmptyRange("chain needs at least one block")
    if tags is None:
        tags = [f"(chain;{i})" for i in range(n - 1)]
    if len(tags) != n - 1:
        raise ValueError(f"need {n - 1} tags, got {len(tags)}")
    if len(set(tags)) != len(tags):
        raise ColorClash("chain tags must be pairwise distinct", tags=list(tags))
    return Composite(tuple(blocks), tuple(f"b{i}" for i in range(n)),
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
