"""Colored quivers: validation, subquivers, blocks and algebra quivers.

A colored quiver is a finite directed graph whose arrows carry a color
and a field value (an integer, reduced mod p only when a module is
built from the quiver).  The single structural invariant beyond
declaredness is that no two arrows share (source, target, color); a
color may well label many arrows, and that sharing is what later glues
simple modules together.

Here: full subquivers, target-closed splitting, the strongly connected
blocks (Tarjan) and the loop-stripped topological order, and the quiver
of a finite-dimensional algebra's right regular representation.
Substitution into a skeleton, and the disjoint unions and chains built
on it, live in `generators`, where a quiver is a leaf term of
`truncate`.

An arrow is a plain tuple (src, dst, color, value).  `make_quiver`
also takes 3-item arrows (src, dst, color) and gives them value 1.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter

from . import modp
from .errors import (DuplicateArrow, NotAssociative, NotTargetClosed,
                     NotUnital, UnknownColor, UnknownVertex)
from .ordertop import _json_names


@dataclass(frozen=True)
class ColoredQuiver:
    vertices: tuple
    colors: tuple
    arrows: tuple

    def loops_at(self, v):
        return self._loops.get(v, ())

    @cached_property
    def _loops(self):
        """Loop arrows by vertex, in arrow order; built on first use
        (the quiver is frozen, so it never goes stale)."""
        loops = {}
        for a in self.arrows:
            if a[0] == a[1]:
                loops.setdefault(a[0], []).append(a)
        return {v: tuple(arrows) for v, arrows in loops.items()}

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


_SRC, _DST, _COLOR = itemgetter(0), itemgetter(1), itemgetter(2)


def _same_triple(a, b):
    return a[2] == b[2] and a[1] == b[1] and a[0] == b[0]


def _as_arrows(arrows):
    """Arrows as plain (src, dst, color, value) tuples, value 1 if left out."""
    out = list(map(tuple, arrows))
    if lengths := set(map(len, out)) - {4}:
        if lengths != {3}:
            raise TypeError("an arrow has 3 or 4 items, not "
                            f"{min(lengths - {3})}")
        out = [a if len(a) == 4 else (*a, 1) for a in out]
    return out


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

    Arrows come out sorted by (src, dst, color).  The checks run on all
    arrows at once; only when one fails does the per-arrow scan run, so
    the error raised is the first fault in arrow order.

    Vertices and colors are sorted from the given order.  Beyond the
    inputs and the result, validation holds one set of the vertices,
    one of the colors and one private copy of the arrows, sorted in
    place to find shared triples.  The caller's arrows are left as
    given and read again only when two share a triple, to name the
    first repeat in the caller's order.
    """
    vs, vset = _sorted_unique(vertices)
    cs, cset = _sorted_unique(colors)
    if not isinstance(arrows, (list, tuple)):
        arrows = list(arrows)  # it may have to be read twice
    out = _as_arrows(arrows)
    if not (vset.issuperset(map(_SRC, out))
            and vset.issuperset(map(_DST, out))
            and cset.issuperset(map(_COLOR, out))):
        _raise_first_fault(out, vset, cset)
    out.sort()
    if any(map(_same_triple, out, islice(out, 1, None))):
        _raise_first_fault(_as_arrows(arrows), vset, cset)
    return ColoredQuiver(vs, cs, tuple(out))


def _raise_first_fault(arrows, vset, cset):
    seen = set()
    for src, dst, color, _ in arrows:
        if src not in vset:
            raise UnknownVertex("arrow source not declared", vertex=src)
        if dst not in vset:
            raise UnknownVertex("arrow target not declared", vertex=dst)
        if color not in cset:
            raise UnknownColor("arrow color not declared", color=color)
        key = (src, dst, color)
        if key in seen:
            raise DuplicateArrow("two arrows share (src, dst, color)",
                                 src=src, dst=dst, color=color)
        seen.add(key)


def normalize(vertices, colors, arrows, p=2):
    """Merge colliding (src, dst, color) arrows by summing values mod p.

    Zero-valued arrows (after reduction) are dropped, so the result
    always satisfies the no-shared-triple invariant.
    """
    sums = {}
    for src, dst, color, value in _as_arrows(arrows):
        key = (src, dst, color)
        sums[key] = (sums.get(key, 0) + value) % p
    merged = [(*key, v) for key, v in sums.items() if v != 0]
    return make_quiver(vertices, colors, merged)


def full_subquiver(quiver, vertex_subset):
    """Keep exactly the arrows with both ends inside the subset."""
    keep = set(vertex_subset)
    missing = keep - set(quiver.vertices)
    if missing:
        raise UnknownVertex("subset not inside the quiver",
                            vertices=sorted(missing))
    arrows = [a for a in quiver.arrows if a[0] in keep and a[1] in keep]
    return make_quiver(sorted(keep), quiver.colors, arrows)


def split_by_closed(quiver, vertex_subset):
    """Split along a target-closed vertex subset.

    The subset spans an action-invariant coordinate subspace of the
    quiver module, so downstream this yields a short exact sequence
    submodule -> module -> quotient.
    """
    keep = set(vertex_subset)
    missing = keep - set(quiver.vertices)
    if missing:
        raise UnknownVertex("subset not inside the quiver",
                            vertices=sorted(missing))
    for src, dst, color, _ in quiver.arrows:
        if src in keep and dst not in keep:
            raise NotTargetClosed("arrow escapes the subset",
                                  src=src, dst=dst, color=color)
    rest = [v for v in quiver.vertices if v not in keep]
    return full_subquiver(quiver, sorted(keep)), full_subquiver(quiver, rest)


def quiver_of_algebra(basis, structure, p=2):
    """Quiver whose module is the right regular representation.

    basis: list of basis element names.  structure maps (b, b'') to a
    dict {b': coeff} expressing b * b'' in the basis.  Associativity (on
    every basis triple) and the existence of a two-sided identity are
    checked.
    """
    basis = list(basis)
    n = len(basis)
    idx = {b: i for i, b in enumerate(basis)}
    right = {}  # right[b''] as n rows mod p, row = source basis element
    for b2 in basis:
        mat = [[0] * n for _ in range(n)]
        for b in basis:
            for b1, coeff in structure.get((b, b2), {}).items():
                mat[idx[b]][idx[b1]] = coeff % p
        right[b2] = tuple(map(tuple, mat))

    for a in basis:
        left_a = [right[b][idx[a]] for b in basis]  # row k: a * basis[k]
        for b in basis:
            ab = right[b][idx[a]]
            for c in basis:
                # (a b) c against a (b c), with b c as a row over basis
                if (modp.vec_mat(ab, right[c], p)
                        != modp.vec_mat(right[c][idx[b]], left_a, p)):
                    raise NotAssociative("structure constants violate "
                                         "associativity", triple=[a, b, c])

    # two-sided identity: solve e * b = b and b * e = b for all b
    aug = []
    for b in basis:
        for j in range(n):
            aug.append([right[b][i][j] for i in range(n)] + [int(j == idx[b])])
    for b in basis:
        for j in range(n):
            aug.append([right[bi][idx[b]][j] for bi in basis]
                       + [int(j == idx[b])])
    _, piv = modp.rref(aug, p)
    if n in piv:
        raise NotUnital("no two-sided identity in the span of the basis")

    vertices = [f"v[{b}]" for b in basis]
    colors = [f"c[{b}]" for b in basis]
    arrows = []
    for b2 in basis:
        for b in basis:
            for b1 in basis:
                val = right[b2][idx[b]][idx[b1]]
                if val:
                    arrows.append((f"v[{b}]", f"v[{b1}]", f"c[{b2}]", val))
    return make_quiver(vertices, colors, arrows)


def quiver_from_json(data):
    """Quiver from its JSON form.  Raises ValueError unless each names
    field is an array of all strings or all integers and each arrow an
    object whose ends and color are strings or integers and whose value
    is an integer; a bad arrow is named."""
    vertices = _json_names(data, "vertices")
    colors = _json_names(data, "colors")
    if not (isinstance(data["arrows"], list)
            and all(isinstance(a, dict) for a in data["arrows"])):
        raise ValueError("arrows must be an array of objects")
    arrows = [(a["src"], a["dst"], a["color"], a.get("value", 1))
              for a in data["arrows"]]
    for a in arrows:
        # bool is a JSON true/false, not a number
        if not (type(a[3]) is int
                and all(type(x) in (str, int) for x in a[:3])):
            raise ValueError(f"arrow {list(a[:3])} has value {a[3]!r}; ends "
                             "and color must be strings or integers, the "
                             "value an integer")
    return make_quiver(vertices, colors, arrows)


def generated_from_json(data):
    fam = data.get("noetherian_family")
    return GeneratedQuiver(quiver_from_json(data),
                           {k: dict(v) for k, v in data["atom_table"].items()},
                           tuple(dict(d) for d in fam) if fam is not None else None)


def strong_components(quiver):
    """Strongly connected blocks of the quiver with loops ignored, sinks
    first: no arrow runs from a block to a later one, so every union of
    leading blocks is target-closed.  Each block is a sorted tuple of
    vertices.  Iterative Tarjan (R. Tarjan, "Depth-first search and
    linear graph algorithms", SIAM J. Comput. 1972).
    """
    succ = {v: [] for v in quiver.vertices}
    for src, dst, _, _ in quiver.arrows:
        if src != dst:
            succ[src].append(dst)
    num, low, stack, blocks = {}, {}, [], []

    def enter(v):
        num[v] = low[v] = len(num)
        stack.append(v)
        return v, iter(succ[v]), len(stack) - 1

    for root in quiver.vertices:
        work = [] if root in num else [enter(root)]
        while work:
            v, it, height = work[-1]
            for w in it:
                if w not in num:
                    work.append(enter(w))
                    break
                if num[w] < low[v]:
                    low[v] = num[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == num[v]:
                    blocks.append(tuple(sorted(stack[height:])))
                    # done: a number above any live one lowers no low
                    num.update(dict.fromkeys(stack[height:], len(succ)))
                    del stack[height:]
    return blocks


def loop_stripped_topo_order(quiver):
    """Topological order of the quiver with loops removed, or None.

    When this succeeds the module of the quiver is triangular in that
    vertex order: every non-loop arrow runs forward.
    """
    blocks = strong_components(quiver)
    acyclic = len(blocks) == len(quiver.vertices)
    return [v for v, in reversed(blocks)] if acyclic else None
