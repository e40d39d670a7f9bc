"""Poset / finite-topology layer: examples plus round-trip properties."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomcat.errors import (BudgetExceeded, CycleDetected, InvalidTopology,
                            NotKolmogorov, UnknownElement)
from atomcat.harness import all_posets
from atomcat.ordertop import (ISO_ORDERINGS_CAP, alexandroff_of_poset,
                              canonical_form, is_kolmogorov, j_sets,
                              normalize_poset, poset_from_json,
                              poset_of_topology, topology_from_json,
                              topology_of_opens)
import poset_oracle


def brute_up_sets(elements, le_pairs):
    """Independent oracle: enumerate all subsets, keep the up-closed ones."""
    le = set(le_pairs)
    out = []
    for r in range(len(elements) + 1):
        for sub in itertools.combinations(elements, r):
            s = set(sub)
            if all(q in s for p in s for (a, q) in le if a == p):
                out.append(frozenset(s))
    return set(out)


def pairwise_is_topology(n, family):
    """Independent oracle: the family holds the empty and the full set and
    is closed under pairwise unions and intersections."""
    fam = set(family)
    if 0 not in fam or (1 << n) - 1 not in fam:
        return False
    return all((a | b) in fam and (a & b) in fam for a in fam for b in fam)


def chain(*names):
    return normalize_poset([(names[i], names[i + 1])
                            for i in range(len(names) - 1)], list(names))


def antichain(*names):
    return normalize_poset([], list(names))


def is_order_isomorphism(w, p, q):
    """w is a bijection p -> q with x <= y iff w(x) <= w(y)."""
    return (sorted(w) == list(p.elements)
            and sorted(w.values()) == list(q.elements)
            and all(p.leq(a, b) == q.leq(w[a], w[b])
                    for a in p.elements for b in p.elements))


def poset_isomorphic(p, q):
    """Order isomorphism p -> q as a dict, or None, from equal canonical
    forms: the orderings that attain them match p to q."""
    (form_p, order_p), (form_q, order_q) = canonical_form(p), canonical_form(q)
    return dict(zip(order_p, order_q)) if form_p == form_q else None


DIAMOND = normalize_poset([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                          ["a", "b", "c", "d"])


class TestNormalize:
    def test_transitivity(self):
        p = normalize_poset([("a", "b"), ("b", "c")], ["a", "b", "c"])
        assert p.leq("a", "c")

    def test_singleton(self):
        p = normalize_poset([], ["a"])
        assert p.le == frozenset({("a", "a")})

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            normalize_poset([("a", "b"), ("b", "a")], ["a", "b"])

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            normalize_poset([("a", "x")], ["a"])

    def test_covers_regenerate_relation(self):
        p = chain("a", "b", "c")
        q = normalize_poset(p.covers, p.elements)
        assert q.le == p.le


class TestAlexandroff:
    def test_antichain_discrete(self):
        topo = alexandroff_of_poset(antichain("a", "b"))
        assert len(topo.opens) == 4

    def test_chain_opens(self):
        # oracle: hand enumeration of up-sets of a < b
        p = chain("a", "b")
        topo = alexandroff_of_poset(p)
        got = {frozenset(topo.subset_of(m)) for m in topo.opens}
        assert got == brute_up_sets(p.elements, p.le)
        assert got == {frozenset(), frozenset({"b"}), frozenset({"a", "b"})}

    def test_single_element(self):
        topo = alexandroff_of_poset(antichain("a"))
        assert len(topo.opens) == 2

    def test_unknown_point_rejected(self):
        topo = alexandroff_of_poset(chain("a", "b"))
        with pytest.raises(UnknownElement) as info:
            topo.is_open(["zz"])
        assert info.value.context == {"point": "zz"}

    def test_output_is_valid_and_kolmogorov(self):
        topo = alexandroff_of_poset(DIAMOND)
        assert topo.validate()
        assert is_kolmogorov(topo)

    def test_cap(self):
        big = antichain(*[f"e{i}" for i in range(20)])
        topo = alexandroff_of_poset(big)
        assert topo.min_open == tuple(1 << i for i in range(20))
        with pytest.raises(BudgetExceeded):
            topo.opens

    def test_listing_opens_names_its_cap(self):
        topo = alexandroff_of_poset(chain(*[f"e{i:02d}" for i in range(17)]))
        assert is_kolmogorov(topo) and topo.validate()
        with pytest.raises(BudgetExceeded) as info:
            topo.opens
        assert info.value.context == {"points": 17, "cap": 16}


def _families(n):
    """Every open family over n points: all sets of masks."""
    masks = range(1 << n)
    for r in range(len(masks) + 1):
        yield from itertools.combinations(masks, r)


def _random_families(n, count, rng):
    """Random families, and topologies (a random family closed under
    unions and intersections) with one mask toggled half of the time."""
    full = (1 << n) - 1
    for _ in range(count):
        fam = {m for m in range(full + 1) if rng.random() < 0.3}
        if rng.random() < 0.5:
            fam |= {0, full}
            while True:
                more = {a | b for a in fam for b in fam}
                more |= {a & b for a in fam for b in fam}
                if more <= fam:
                    break
                fam |= more
            if rng.random() < 0.5:
                fam ^= {rng.randrange(full + 1)}
        yield tuple(sorted(fam))


class TestTopologyOfOpens:
    def check(self, n, family):
        points = tuple(f"x{i}" for i in range(n))
        try:
            topo = topology_of_opens(points, family)
        except InvalidTopology:
            assert not pairwise_is_topology(n, family), family
            return
        assert pairwise_is_topology(n, family), family
        assert topo.validate()
        assert topo.opens == tuple(sorted(set(family)))

    def test_every_family_up_to_three_points(self):
        for n in range(4):
            for family in _families(n):
                self.check(n, family)

    def test_random_families_on_four_and_five_points(self):
        rng = random.Random(13)
        for n in (4, 5):
            for family in _random_families(n, 1500, rng):
                self.check(n, family)


class TestKolmogorov:
    def test_discrete_true(self):
        topo = topology_of_opens(("a", "b"), (0, 1, 2, 3))
        assert is_kolmogorov(topo)

    def test_indiscrete_false(self):
        topo = topology_of_opens(("a", "b"), (0, 3))
        assert not is_kolmogorov(topo)

    def test_sierpinski(self):
        # opens over (a, b): {}, {b}, {a, b}; both pairs get separated
        topo = topology_of_opens(("a", "b"), (0, 2, 3))
        assert is_kolmogorov(topo)


class TestSpecialization:
    def test_discrete_gives_antichain(self):
        topo = topology_of_opens(("a", "b"), (0, 1, 2, 3))
        p = poset_of_topology(topo)
        assert not p.lt("a", "b") and not p.lt("b", "a")

    def test_sierpinski_order(self):
        # closure of {b} is {a, b}: complement scan of opens missing b
        topo = topology_of_opens(("a", "b"), (0, 2, 3))
        p = poset_of_topology(topo)
        assert p.lt("a", "b")

    def test_indiscrete_rejected(self):
        with pytest.raises(NotKolmogorov):
            poset_of_topology(topology_of_opens(("a", "b"), (0, 3)))


def covering_holds(P):
    """J(p) lies in V(p) \\ {p}, each q in it is minimal there, and
    V(p) \\ {p} is the union of V(q) over q in J(p): so J(p) is every
    minimal element of V(p) \\ {p}."""
    js = j_sets(P)
    for p in P.elements:
        strict_up = set(P.up_set(p)) - {p}
        if not set(js[p]) <= strict_up or any(
                P.lt(r, q) for q in js[p] for r in strict_up):
            return False
        if set().union(*(P.up_set(q) for q in js[p])) != strict_up:
            return False
    return True


class TestInvariants:
    def test_antichain(self):
        assert all(j == () for j in j_sets(antichain("a", "b")).values())

    def test_diamond_j_set(self):
        # oracle: V(a)\{a} = {b, c, d} = V(b) u V(c)
        assert j_sets(DIAMOND) == {"a": ("b", "c"), "b": ("d",),
                                   "c": ("d",), "d": ()}

    def test_covering_identity_everywhere(self):
        for p in (chain("a", "b", "c", "d"), DIAMOND, antichain("x", "y", "z")):
            assert covering_holds(p)


class TestIsomorphism:
    def test_identity_like(self):
        w = poset_isomorphic(chain("a", "b"), chain("a", "b"))
        assert w == {"a": "a", "b": "b"}

    def test_chain_vs_antichain(self):
        assert poset_isomorphic(chain("a", "b"), antichain("a", "b")) is None

    def test_diamond_relabeled(self):
        other = normalize_poset([("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")],
                                ["w", "x", "y", "z"])
        w = poset_isomorphic(DIAMOND, other)
        assert w is not None
        for a, b in DIAMOND.le:
            assert other.leq(w[a], w[b])

    def test_size_cap(self):
        # nine disjoint 2-chains: nine bottoms and nine tops, no twins,
        # so the canonical form would try 9!^2 orderings
        pairs = [(f"a{i}", f"b{i}") for i in range(9)]
        big = normalize_poset(pairs, [x for pair in pairs for x in pair])
        with pytest.raises(BudgetExceeded) as got:
            poset_isomorphic(big, big)
        assert got.value.context == {"orderings": math.factorial(9) ** 2,
                                     "cap": ISO_ORDERINGS_CAP}

    def test_long_chains_and_antichains_answer(self):
        names = [f"e{i:02d}" for i in range(20)]
        for p in (antichain(*names[:16]), chain(*names)):
            assert poset_isomorphic(p, p) == {x: x for x in p.elements}
            rename = dict(zip(p.elements, reversed(p.elements)))
            other = normalize_poset([(rename[a], rename[b]) for a, b in p.le],
                                    p.elements)
            w = poset_isomorphic(p, other)
            assert is_order_isomorphism(w, p, other)
        assert poset_isomorphic(antichain(*names), chain(*names)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_the_backtracking_oracle(self, data):
        p = data.draw(random_posets(max_size=7))
        n = len(p.elements)
        # half relabelled copies, half relabelled posets of the same size
        q = p if data.draw(st.booleans()) else \
            data.draw(random_posets(min_size=n, max_size=n))
        perm = data.draw(st.permutations(range(n)))
        names = {x: f"q{perm[i]}" for i, x in enumerate(q.elements)}
        q = normalize_poset([(names[a], names[b]) for a, b in q.le],
                            list(names.values()))
        w = poset_isomorphic(p, q)
        assert (w is None) == (poset_oracle.poset_isomorphic(p, q) is None)
        assert w is None or is_order_isomorphism(w, p, q)

    def test_all_posets_equal_the_pairwise_scan(self):
        for n in range(1, 6):
            assert all_posets(n) == poset_oracle.all_posets(n), n

    def test_class_counts_match_oeis_a000112(self):
        assert [len(all_posets(n)) for n in range(1, 7)] == \
            [1, 2, 5, 16, 63, 318]


@st.composite
def random_posets(draw, min_size=1, max_size=5):
    n = draw(st.integers(min_size, max_size))
    elements = [f"p{i}" for i in range(n)]
    pairs = []
    # pairs only go upward in index: guarantees acyclicity
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((elements[i], elements[j]))
    return normalize_poset(pairs, elements)


@settings(max_examples=150, deadline=None)
@given(random_posets(max_size=7))
def test_j_sets_satisfy_the_covering_identity(P):
    assert covering_holds(P)


@settings(max_examples=120, deadline=None)
@given(random_posets())
def test_roundtrip_is_identity(p):
    topo = alexandroff_of_poset(p)
    assert topo.validate()
    assert topo.opens == tuple(sorted(set(topo.opens)))
    assert ({frozenset(topo.subset_of(m)) for m in topo.opens}
            == brute_up_sets(p.elements, p.le))
    assert is_kolmogorov(topo)
    back = poset_of_topology(topo)
    assert back.le == p.le


@settings(max_examples=80, deadline=None)
@given(random_posets())
def test_singleton_open_iff_maximal(p):
    topo = alexandroff_of_poset(p)
    for x in p.elements:
        assert topo.is_open([x]) == (x in p.maximal_elements())
        assert topo.is_closed([x]) == (x in p.minimal_elements())


def test_json_roundtrip():
    p = DIAMOND
    q = poset_from_json(p.to_json())
    assert q.le == p.le and q.elements == p.elements
    topo = alexandroff_of_poset(p)
    topo2 = topology_from_json(topo.to_json())
    assert topo2.opens == topo.opens


def test_dot_export_mentions_covers():
    dot = chain("a", "b", "c").to_dot()
    assert '"a" -> "b"' in dot and '"b" -> "c"' in dot and '"a" -> "c"' not in dot
