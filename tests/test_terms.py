"""The fold over construction terms: each distinct subterm read once,
children first, blocks in block order."""

from atomcat.ordertop import normalize_poset
from atomcat.quiver import make_quiver
from atomcat.terms import Composite, Point, acc_term, chain_term, fold, union_term

DIAMOND = normalize_poset([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                          ["a", "b", "c", "d"])


def recording(term):
    """The subterms in the order the fold reads them, and the values
    list each composite got."""
    met, got = [], {}

    def composite(t, values):
        met.append(t)
        got[id(t)] = values
        return t

    def leaf(t):
        met.append(t)
        return t
    fold(term, leaf, leaf, composite)
    return met, got


def walked(term, seen=None):
    """The post-order of a recursive walk that skips met subterms."""
    seen = set() if seen is None else seen
    if id(term) in seen:
        return []
    out = []
    for b in term.blocks if isinstance(term, Composite) else ():
        out += walked(b, seen)
    seen.add(id(term))
    return out + [term]


def test_a_repeated_block_is_read_once():
    # chain(a) runs twice through chain(b) and chain(c), and the union
    # holds them again: four composite calls, and one point call for d
    term = acc_term(DIAMOND, 2)
    chain_a = term.blocks[0]
    assert chain_a.blocks[0] is chain_a.blocks[2]
    met, got = recording(term)
    assert [t.limit for t in met if id(t) in got] == [
        "chain(b)", "chain(c)", "chain(a)", None]
    assert len(met) == len({id(t) for t in met}) == 5


def test_children_first_in_block_order():
    a, b, c = Point("A", "a"), Point("B", "b"), Point("C", "c")
    inner = chain_term([c, b], ["t"])
    term = union_term([chain_term([a, inner, a], ["s0", "s1"]), b, inner, c],
                      ["w", "x", "y", "z"])
    met, _ = recording(term)
    assert [id(t) for t in met] == [id(t) for t in walked(term)]
    assert met[:3] == [a, c, b]


def test_values_come_in_block_order_repeats_included():
    a, b = Point("A", "a"), Point("B", "b")
    leaf = make_quiver(["v"], [], [])
    term = Composite((a, leaf, a, b), ("w", "x", "y", "z"), ((0, 1, "t"),))
    met, got = recording(term)
    assert got[id(term)] == [a, leaf, a, b]
    assert met == [a, leaf, b, term]


def test_a_cyclic_skeleton_is_read_as_given():
    a, b = Point("A", "a"), Point("B", "b")
    term = Composite((a, b), ("x", "y"), ((0, 1, "f"), (1, 0, "g")))
    assert fold(term, lambda t: 1, None, lambda t, vs: sum(vs)) == 2
