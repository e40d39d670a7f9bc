"""Finite posets, finite topologies, and the up-set correspondence.

A finite poset is stored as its full relation (reflexive-transitive
closure).  Every finite topology is Alexandroff: it is fixed by each
point's minimal open set U_x, so it is stored as its sorted points plus
one bitmask per point.  Both are immutable values and every operation
here is a pure function.

The two directions of the correspondence: a poset yields the topology
whose opens are the up-closed subsets (U_x is the up-set of x), and a
Kolmogorov topology yields the specialization order x <= y iff every
open set containing x also contains y, i.e. y lies in U_x.  On finite
inputs these are mutually inverse and take O(n^2) steps; only listing
the open sets (`FiniteTopology.opens`) is exponential, and capped.
"""

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod

from .errors import (BudgetExceeded, CycleDetected, InvalidTopology,
                     NotKolmogorov, UnknownElement)

# listing the open sets is exponential in the point count; refuse beyond
# this many points
DEFAULT_POINT_CAP = 16

# the canonical form tries every order of the twin groups inside each
# profile class; refuse beyond this many orderings (8!)
ISO_ORDERINGS_CAP = 40320


@dataclass(frozen=True)
class Poset:
    """Finite poset: sorted element ids plus the full <= relation."""

    elements: tuple
    le: frozenset  # pairs (a, b) with a <= b, reflexive + transitive

    def leq(self, a, b):
        return (a, b) in self.le

    def lt(self, a, b):
        return a != b and (a, b) in self.le

    def up_set(self, p):
        """V(p) = every element above-or-equal p."""
        return tuple(q for q in self.elements if self.leq(p, q))

    def down_set(self, p):
        return tuple(q for q in self.elements if self.leq(q, p))

    @property
    def covers(self):
        """Hasse edges: pairs (a, b) with a < b and nothing in between,
        that is b in J(a) (`j_sets`)."""
        upper = j_sets(self)
        return tuple(sorted((a, b) for a in self.elements for b in upper[a]))

    def maximal_elements(self):
        return tuple(p for p in self.elements
                     if not any(self.lt(p, q) for q in self.elements))

    def minimal_elements(self):
        return tuple(p for p in self.elements
                     if not any(self.lt(q, p) for q in self.elements))

    def to_json(self):
        return {"elements": list(self.elements),
                "le": [[a, b] for (a, b) in sorted(self.le) if a != b]}

    def to_dot(self):
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for p in self.elements:
            lines.append(f'  "{p}";')
        for a, b in self.covers:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FiniteTopology:
    """Finite topology: sorted points plus each point's minimal open set.

    `min_open[i]` is the bitmask of U_x for x = points[i], the
    intersection of every open set containing x.  A set is open when it
    contains U_x for each of its points x.
    """

    points: tuple
    min_open: tuple  # ints; bit j refers to points[j]

    def index(self, p):
        try:
            return self.points.index(p)
        except ValueError:
            raise UnknownElement("point not in topology", point=p)

    def mask_of(self, subset):
        m = 0
        for p in subset:
            m |= 1 << self.index(p)
        return m

    def subset_of(self, mask):
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    def _open_mask(self, mask):
        return not any(u & ~mask for i, u in enumerate(self.min_open)
                       if mask >> i & 1)

    def is_open(self, subset):
        return self._open_mask(self.mask_of(subset))

    def is_closed(self, subset):
        full = (1 << len(self.points)) - 1
        return self._open_mask(full ^ self.mask_of(subset))

    def validate(self):
        """Check that each U_x contains x and is open."""
        return all(u >> i & 1 and self._open_mask(u)
                   for i, u in enumerate(self.min_open))

    @property
    def opens(self):
        """Every open set as a bitmask, ascending; exponential, so capped."""
        n = len(self.points)
        if n > DEFAULT_POINT_CAP:
            raise BudgetExceeded("too many points to list open sets",
                                 points=n, cap=DEFAULT_POINT_CAP)
        hull = [0]  # hull[mask] = union of U_x over the points x in mask
        for u in self.min_open:
            hull += [h | u for h in hull]
        return tuple(m for m, h in enumerate(hull) if h == m)

    def to_json(self):
        return {"points": list(self.points),
                "opens": [list(self.subset_of(m)) for m in self.opens]}


def normalize_poset(raw_pairs, elements):
    """Reflexive-transitive closure of raw <= pairs; rejects cycles."""
    elems = tuple(sorted(set(elements)))
    index = {p: i for i, p in enumerate(elems)}
    for a, b in raw_pairs:
        if a not in index or b not in index:
            raise UnknownElement("pair references undeclared element",
                                 pair=[a, b])
    n = len(elems)
    adj = [set() for _ in range(n)]
    for i in range(n):
        adj[i].add(i)
    for a, b in raw_pairs:
        adj[index[a]].add(index[b])
    # Warshall closure
    for k in range(n):
        for i in range(n):
            if k in adj[i]:
                adj[i] |= adj[k]
    for i in range(n):
        for j in adj[i]:
            if j != i and i in adj[j]:
                raise CycleDetected("antisymmetry violated",
                                    between=[elems[i], elems[j]])
    le = frozenset((elems[i], elems[j]) for i in range(n) for j in adj[i])
    return Poset(elems, le)


def _json_names(data, key):
    """The names array data[key] of a JSON object; raises ValueError
    unless it is an array of all strings or all (non-bool) integers,
    the names that sort and print as vertex, color and element ids."""
    names = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(names, list)
            and (all(type(x) is str for x in names)
                 or all(type(x) is int for x in names))):
        raise ValueError(f"{key!r} must be an array of all strings or all "
                         "integers")
    return names


def _json_pairs(data, key):
    """data[key], an array of [lower, upper] name pairs, as tuples."""
    pairs = data.get(key)
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2
            and all(type(x) in (str, int) for x in p) for p in pairs)):
        raise ValueError(f"{key!r} must be an array of [lower, upper] pairs")
    return [tuple(p) for p in pairs]


def poset_from_json(data):
    elements = _json_names(data, "elements")
    return normalize_poset(_json_pairs(data, "le"), elements)


def topology_of_opens(points, masks):
    """Topology on the points with the given open bitmasks.

    U_x is the intersection of the members containing x.  The family is
    a topology iff it holds the empty set, every U_x, and S | U_x for
    each member S and point x: then every member is the union of the
    U_x below it, so unions and intersections stay inside.
    """
    n = len(points)
    family = set(masks)
    min_open = []
    for i in range(n):
        u = (1 << n) - 1
        for m in family:
            if m >> i & 1:
                u &= m
        min_open.append(u)
    if (0 not in family or not family.issuperset(min_open)
            or any((s | u) not in family for s in family for u in min_open)):
        raise InvalidTopology("open family violates the topology axioms")
    return FiniteTopology(tuple(points), tuple(min_open))


def topology_from_json(data):
    points = tuple(sorted(set(_json_names(data, "points"))))
    opens = data.get("opens")
    if not (isinstance(opens, list) and all(
            isinstance(sub, list) and all(type(x) in (str, int) for x in sub)
            for sub in opens)):
        raise ValueError("'opens' must be an array of arrays of point names")
    mask_of = FiniteTopology(points, ()).mask_of
    return topology_of_opens(points, {mask_of(sub) for sub in opens})


def alexandroff_of_poset(poset):
    """Topology whose opens are the up-closed subsets: U_x = up-set of x."""
    idx = {p: i for i, p in enumerate(poset.elements)}
    return FiniteTopology(poset.elements, tuple(
        sum(1 << idx[q] for q in poset.up_set(p)) for p in poset.elements))


def is_kolmogorov(topology):
    """True iff distinct points are separated: the U_x are distinct."""
    return len(set(topology.min_open)) == len(topology.min_open)


def poset_of_topology(topology):
    """Specialization order of a finite Kolmogorov topology:
    x <= y iff y lies in U_x."""
    if not is_kolmogorov(topology):
        raise NotKolmogorov("points are not pairwise separated")
    pts = topology.points
    return normalize_poset([(x, pts[j]) for x, u in zip(pts, topology.min_open)
                            for j in range(len(pts)) if u >> j & 1], pts)


def j_sets(poset):
    """J(p) for each element p: the minimal elements of the strict
    up-set V(p) \\ {p}, in element order.  Those are the elements of
    V(p) \\ {p} above none of the others, and on a finite poset
    V(p) \\ {p} is the union of V(q) over q in J(p)."""
    above = {p: set() for p in poset.elements}
    for a, b in poset.le:
        if a != b:
            above[a].add(b)
    out = {}
    for p in poset.elements:
        up = above[p]
        higher = set().union(*(above[q] for q in up))
        out[p] = tuple(q for q in poset.elements
                       if q in up and q not in higher)
    return out


def canonical_form(poset):
    """(form, ordering): equal forms exactly for isomorphic posets.

    Elements are grouped by their (|up|, |down|) profile, classes in
    profile order.  Inside a class, twins (equal strict up-sets and
    strict down-sets, so swapped by an automorphism) stay together.
    The form is the least <=-matrix, read row by row, over every order
    of the twin groups inside each class; the ordering attains it.
    Refuses when those orders exceed ISO_ORDERINGS_CAP.
    """
    classes = {}
    for x in poset.elements:
        up, down = frozenset(poset.up_set(x)), frozenset(poset.down_set(x))
        twins = classes.setdefault((len(up), len(down)), {})
        twins.setdefault((up - {x}, down - {x}), []).append(x)
    groups = [list(classes[k].values()) for k in sorted(classes)]
    orderings = prod(factorial(len(g)) for g in groups)
    if orderings > ISO_ORDERINGS_CAP:
        raise BudgetExceeded("too many orderings for the canonical form",
                             orderings=orderings, cap=ISO_ORDERINGS_CAP)
    orders = (tuple(x for cls in choice for twin in cls for x in twin)
              for choice in product(*map(permutations, groups)))
    return min((tuple(poset.leq(a, b) for a in order for b in order), order)
               for order in orders)
