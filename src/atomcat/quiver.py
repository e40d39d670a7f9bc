"""Colored quivers: validation, subquivers and blocks.

A colored quiver is a finite directed graph whose arrows carry a color
and a field value (an integer, reduced mod p only when a module is
built from the quiver).  The single structural invariant beyond
declaredness is that no two arrows share (source, target, color); a
color may well label many arrows, and that sharing is what later glues
simple modules together.

Here: full subquivers, target-closed splitting, the strongly connected
blocks (Tarjan) and the loop-stripped topological order.  Substitution
into a skeleton lives in `generators`, where a quiver is a leaf term
of `truncate`; the unions and chains built on skeletons are `terms`.

An arrow is a plain tuple (src, dst, color, value).  `make_quiver`
also takes 3-item arrows (src, dst, color) and gives them value 1; it
checks each arrow once, in the given order, and raises the first fault.
A substitution puts a complete bipartite bundle on each skeleton arrow,
and `generators.truncate` keeps such bundles as records.  A record's
colors are `BundleColors`: a tag and the relative names of the bundle's
two blocks, rendered into the color strings `!(tag;v,w)` only when
read.  A bundle joins every vertex of one block to every vertex of the
other, so a truncation's strongly connected blocks follow from its
term's skeletons: `truncate` reads off the vertex partition (see
`skeleton`) and hands it to `_bundle_quiver`.  `ColoredQuiver._blocks`
is the one place where a block's arrows are gathered, and the only
place a bundle is expanded for one.  `arrows` and `colors` list every
arrow and color, made when first read.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

from .errors import (DuplicateArrow, NotTargetClosed, UnknownColor,
                     UnknownVertex)
from .ordertop import _json_names


class BundleColors(namedtuple("BundleColors", "tag sources targets")):
    """The colors of a complete bipartite bundle: `!(tag;v,w)` on its
    arrow from the source named v to the target named w, where sources
    and targets list the names relative to the bundle's two blocks, in
    the order of its ends.  One object serves every occurrence of the
    composite that made it."""

    __slots__ = ()

    def color(self, x, y):
        """The color of the arrow from source x to target y."""
        return f"!({self.tag};{self.sources[x]},{self.targets[y]})"

    def rows(self):
        """The colors, one row per source, one color per target."""
        tag, targets = self.tag, self.targets
        return ([f"!({tag};{v},{w})" for w in targets] for v in self.sources)

    def head(self):
        """The prefix every color starts with, `!(tag;`."""
        return f"!({self.tag};"


def _least_clash(fresh, inner, strings):
    """The least color of the fresh BundleColors that is one of the
    strings or a color of the inner BundleColors, or None.

    Every color starts with its head, so two colors of BundleColors can
    be equal only where one head is a prefix of the other, and a string
    can equal a color only where it starts with the color's head.
    Colors are rendered only when such a pair or string exists, and
    then those of the fresh and of the inner BundleColors so related.
    """
    heads = tuple({c.head() for c in fresh})
    near = [c for c in inner if (h := c.head()).startswith(heads)
            or any(map(str.startswith, heads, repeat(h)))]
    held = {s for s in strings if s.startswith(heads)}
    if not (near or held):
        return None
    held.update(color for c in near for row in c.rows() for color in row)
    clash = held.intersection(color for c in fresh for row in c.rows()
                              for color in row)
    return min(clash) if clash else None


@dataclass(frozen=True, eq=False)
class ColoredQuiver:
    """A validated quiver: its declared colors, its plain arrows,
    sorted, and its bundles.

    A bundle (sources, targets, colors) stands for the arrow
    (sources[x], targets[y], colors.color(x, y), 1) for every x and y.
    `arrows` lists all arrows sorted, the bundles' expanded, and
    `colors` the declared colors and the bundles' rendered, sorted
    without repeats; each is made the first time it is read, and
    without bundles it is the plain arrows or the declared colors.
    Equality and hashing compare (vertices, colors, arrows), so a
    quiver with bundles equals `make_quiver` of its colors and arrows.
    """

    vertices: tuple
    declared: tuple
    plain: tuple
    bundles: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, ColoredQuiver):
            return NotImplemented
        return ((self.vertices, self.colors, self.arrows)
                == (other.vertices, other.colors, other.arrows))

    def __hash__(self):
        return hash((self.vertices, self.colors, self.arrows))

    def __repr__(self):
        return (f"ColoredQuiver(vertices={self.vertices!r}, "
                f"colors={self.colors!r}, arrows={self.arrows!r})")

    @cached_property
    def arrows(self):
        if not self.bundles:
            return self.plain
        return tuple(sorted(chain(self.plain, _expand(self.bundles))))

    @cached_property
    def colors(self):
        if not self.bundles:
            return self.declared
        tables = {id(c): c for _, _, c in self.bundles}.values()
        return _sorted_unique(chain(self.declared, *(
            chain.from_iterable(c.rows()) for c in tables)))[0]

    def loops_at(self, v):
        return self._loops.get(v, ())

    @cached_property
    def _loops(self):
        """Loop arrows by vertex, in arrow order: a loop lies inside the
        block of its vertex."""
        loops = {}
        for _, arrows in self._blocks:
            for a in arrows:
                if a[0] == a[1]:
                    loops.setdefault(a[0], []).append(a)
        return {v: tuple(arrows) for v, arrows in loops.items()}

    @cached_property
    def _partition(self):
        """The strongly connected blocks, loops ignored, sinks first,
        each a sorted tuple of vertices: Tarjan on the arrows.
        `_bundle_quiver` sets it for a truncation, as
        `generators.truncate` reads it off its term."""
        vertices, n = self.vertices, len(self.vertices)
        index = dict(zip(vertices, range(n)))
        succ = [[] for _ in range(n)]
        for src, dst, _, _ in self.arrows:
            if src != dst:
                succ[index[src]].append(index[dst])
        return [tuple(vertices[i] for i in sorted(component))
                for component in _tarjan(succ, n)]

    @cached_property
    def _blocks(self):
        """`_partition`, each block with the arrows inside it, sorted:
        the plain arrows with both ends in it and, expanded, the bundles
        whose first source and first target lie in it, which for a
        truncation means all its ends do (see `_bundle_quiver`)."""
        partition = self._partition
        block_of = {v: b for b, block in enumerate(partition) for v in block}
        inner = [[] for _ in partition]
        for a in self.plain:
            if (b := block_of[a[0]]) == block_of[a[1]]:
                inner[b].append(a)
        for a in _expand(b for b in self.bundles if b[0] and b[1]
                         and block_of[b[0][0]] == block_of[b[1][0]]):
            inner[block_of[a[0]]].append(a)
        return [(block, tuple(sorted(arrows)))
                for block, arrows in zip(partition, inner)]

    def to_json(self):
        return {"vertices": list(self.vertices),
                "colors": list(self.colors),
                "arrows": [dict(zip(("src", "dst", "color", "value"), a))
                           for a in self.arrows]}

    def to_dot(self):
        lines = ["digraph quiver {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for src, dst, color, value in self.arrows:
            label = color if value == 1 else f"{color}={value}"
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TruncationSpec:
    """Finite materialization bounds for the infinite constructions.

    depth counts whole construction stages (chain passes, word length);
    ladder_range is the inclusive integer interval for ladder-style
    indices.
    """

    depth: int = 2
    ladder_range: tuple = None

    def ladder_values(self):
        if self.ladder_range is None:
            return None
        lo, hi = self.ladder_range
        return range(lo, hi + 1)


@dataclass(frozen=True)
class GeneratedQuiver:
    """A truncated quiver plus bookkeeping for its expected atoms.

    atom_table maps a symbolic atom label to a descriptor dict with at
    least "kind" ("simple" or "chain_limit") and "vertices"; simple
    descriptors also carry "loop_colors", the loop colors every vertex
    of that class wears, which is what brute-force matching keys on.
    """

    quiver: ColoredQuiver
    atom_table: dict
    noetherian_family: tuple = None

    def to_json(self):
        data = self.quiver.to_json()
        data["atom_table"] = {k: dict(v) for k, v in self.atom_table.items()}
        if self.noetherian_family is not None:
            data["noetherian_family"] = [dict(d) for d in self.noetherian_family]
        return data


def _sorted_unique(items):
    """The items sorted without repeats, as a tuple and as a set.  The
    sort starts from the given order, not a set's hash order, so items
    given nearly sorted (as the generators mint names) sort fast."""
    ordered = sorted(items)
    members = set(ordered)
    if len(members) < len(ordered):
        ordered = sorted(members)
    return tuple(ordered), members


def make_quiver(vertices, colors, arrows):
    """Validated colored quiver; arrows given as (src, dst, color[, value]).

    Each arrow is checked once, in the given order: it has 3 or 4 items
    (else TypeError), its source, target and color are declared, and no
    earlier arrow shares its (src, dst, color); the first fault is
    raised.  Arrows come out sorted by (src, dst, color), and vertices
    and colors sorted from the given order.
    """
    vs, vset = _sorted_unique(vertices)
    cs, cset = _sorted_unique(colors)
    return ColoredQuiver(vs, cs, _checked(arrows, vset, cset))


def _checked(arrows, vset, cset):
    """The arrows as plain tuples, value 1 if left out, sorted."""
    out, seen = [], set()
    for a in arrows:
        a = tuple(a)
        if len(a) == 3:
            a += (1,)
        elif len(a) != 4:
            raise TypeError(f"an arrow has 3 or 4 items, not {len(a)}")
        src, dst, color, _ = a
        if src not in vset:
            raise UnknownVertex("arrow source not declared", vertex=src)
        if dst not in vset:
            raise UnknownVertex("arrow target not declared", vertex=dst)
        if color not in cset:
            raise UnknownColor("arrow color not declared", color=color)
        if (key := a[:3]) in seen:
            raise DuplicateArrow("two arrows share (src, dst, color)",
                                 src=src, dst=dst, color=color)
        seen.add(key)
        out.append(a)
    out.sort()
    return tuple(out)


def _bundle_quiver(vertices, colors, arrows, bundles, partition):
    """`make_quiver(vertices, colors + the bundles' colors, arrows +
    the bundles' arrows)`, with the bundles kept as records (see
    `ColoredQuiver`) and `partition` as its `_partition`.  Nothing is
    checked: `generators.truncate` guarantees that the vertices are
    distinct, each in one block of the partition (sinks first), and
    every arrow's ends and color declared; that a bundle's ends are
    distinct, one per row or column of its colors, and lie in one block
    iff its first source and first target do; and that no two records
    share a (src, dst, color) triple.
    """
    quiver = ColoredQuiver(tuple(sorted(vertices)),
                           _sorted_unique(colors)[0], tuple(sorted(arrows)),
                           tuple(bundles))
    vars(quiver)["_partition"] = partition
    return quiver


def _expand(bundles):
    """The bundles' arrows, bundle by bundle, row by row.  A
    `BundleColors` shared by several bundles is rendered once, and its
    color strings are shared by their arrows."""
    rendered = {}  # id -> (the BundleColors, kept alive, and its rows)
    for sources, targets, colors in bundles:
        if id(colors) not in rendered:
            rendered[id(colors)] = colors, list(colors.rows())
        for v, row in zip(sources, rendered[id(colors)][1]):
            yield from zip(repeat(v), targets, row, repeat(1))


def full_subquiver(quiver, vertex_subset):
    """Keep exactly the arrows with both ends inside the subset.  The
    result equals `make_quiver(sorted(subset), quiver.colors, those
    arrows)`, but is built from the validated quiver's sorted colors
    and arrows without checking them again."""
    keep = set(vertex_subset)
    missing = keep - set(quiver.vertices)
    if missing:
        raise UnknownVertex("subset not inside the quiver",
                            vertices=sorted(missing))
    arrows = tuple(a for a in quiver.arrows if a[0] in keep and a[1] in keep)
    return ColoredQuiver(tuple(sorted(keep)), quiver.colors, arrows)


def split_by_closed(quiver, vertex_subset):
    """Split along a target-closed vertex subset.

    The subset spans an action-invariant coordinate subspace of the
    quiver module, so downstream this yields a short exact sequence
    submodule -> module -> quotient.
    """
    sub = full_subquiver(quiver, vertex_subset)
    keep = set(sub.vertices)
    for src, dst, color, _ in quiver.arrows:
        if src in keep and dst not in keep:
            raise NotTargetClosed("arrow escapes the subset",
                                  src=src, dst=dst, color=color)
    rest = [v for v in quiver.vertices if v not in keep]
    return sub, full_subquiver(quiver, rest)


def quiver_from_json(data):
    """Quiver from its JSON form.  Raises ValueError, naming the field or
    the arrow, unless each names field is an array of all strings or all
    integers and each arrow an object whose ends and color are strings
    or integers and whose value, if given, is an integer."""
    vertices = _json_names(data, "vertices")
    colors = _json_names(data, "colors")
    arrows = data.get("arrows")
    if not (isinstance(arrows, list)
            and all(isinstance(a, dict) for a in arrows)):
        raise ValueError("'arrows' must be an array of objects")
    for a in arrows:
        for key in ("src", "dst", "color"):
            if key not in a:
                raise ValueError(f"arrow {a} has no {key!r}")
    arrows = [(a["src"], a["dst"], a["color"], a.get("value", 1))
              for a in arrows]
    for a in arrows:
        # bool is a JSON true/false, not a number
        if not (type(a[3]) is int
                and all(type(x) in (str, int) for x in a[:3])):
            raise ValueError(f"arrow {list(a[:3])} has value {a[3]!r}; ends "
                             "and color must be strings or integers, the "
                             "value an integer")
    return make_quiver(vertices, colors, arrows)


def strong_components(quiver):
    """Strongly connected blocks of the quiver with loops ignored, sinks
    first: no arrow runs from a block to a later one, so every union of
    leading blocks is target-closed.  Each block is a sorted tuple of
    vertices (see `ColoredQuiver._partition`).  The order of two blocks
    neither of which reaches the other follows the depth-first search
    on the arrows, or for a truncation its term, so a quiver with
    bundles may list them otherwise than `make_quiver` of its arrows.
    """
    return list(quiver._partition)


def blocks_with_arrows(quiver):
    """`strong_components`, each block paired with the sorted tuple of
    the arrows inside it (a one-vertex block's are its loops); a bundle
    is expanded only when it lies inside a block (see
    `ColoredQuiver._blocks`)."""
    return list(quiver._blocks)


def _tarjan(succ, roots):
    """Strongly connected components of the graph on nodes 0, 1, ...
    with successor lists succ, of the nodes reachable from 0..roots-1,
    sinks first.  Iterative Tarjan (R. Tarjan, "Depth-first search and
    linear graph algorithms", SIAM J. Comput. 1972).
    """
    done = len(succ)  # a number above any live one, so it lowers no low
    num, low = [-1] * done, [0] * done
    stack, components, count = [], [], 0
    for root in range(roots):
        if num[root] >= 0:
            continue
        num[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]), 0)]
        while work:
            v, it, height = work[-1]
            for w in it:
                if num[w] < 0:
                    num[w] = low[w] = count
                    count += 1
                    work.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    break
                if num[w] < low[v]:
                    low[v] = num[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] < num[v]:
                    continue
                if height == len(stack) - 1:
                    num[stack.pop()] = done
                    components.append((v,))
                else:
                    components.append(stack[height:])
                    del stack[height:]
                    for w in components[-1]:
                        num[w] = done
    return components


def loop_stripped_topo_order(quiver):
    """Topological order of the quiver with loops removed, or None.

    When this succeeds the module of the quiver is triangular in that
    vertex order: every non-loop arrow runs forward.
    """
    blocks = strong_components(quiver)
    acyclic = len(blocks) == len(quiver.vertices)
    return [v for v, in reversed(blocks)] if acyclic else None
