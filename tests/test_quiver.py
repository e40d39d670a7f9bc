"""Colored quiver layer: validation, blocks, and the combinators
`generators` builds on quivers as leaf terms."""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomcat.atomspec import spectrum
from atomcat.errors import (AtomcatError, BudgetExceeded, ColorClash,
                            DuplicateArrow, EmptyRange, MissingBlock,
                            NotTargetClosed, UnknownColor, UnknownVertex)
from atomcat.generators import gen_realization_acc, substitute, truncate
from atomcat.linmod import FieldSpec
from atomcat.ordertop import normalize_poset
from atomcat.quiver import (BundleColors, TruncationSpec, _bundle_quiver,
                            blocks_with_arrows, full_subquiver,
                            loop_stripped_topo_order, make_quiver,
                            quiver_from_json, split_by_closed,
                            strong_components)
from atomcat.terms import Composite, Point
from strategies import chain, disjoint_union
from substitute_oracle import bundle_color
from substitute_oracle import substitute as oracle_substitute


def point(name="v", loop_color=None):
    if loop_color is None:
        return make_quiver([name], [], [])
    return make_quiver([name], [loop_color], [(name, name, loop_color)])


def path3():
    return make_quiver(["v1", "v2", "v3"], ["c12", "c23"],
                       [("v1", "v2", "c12"), ("v2", "v3", "c23")])


class TestMakeQuiver:
    def test_one_arrow(self):
        q = make_quiver(["v", "w"], ["c"], [("v", "w", "c")])
        assert len(q.arrows) == 1 and q.arrows[0][3] == 1

    def test_loop(self):
        q = point("v", "c")
        assert q.arrows[0][0] == q.arrows[0][1] == "v"

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateArrow):
            make_quiver(["v", "w"], ["c"],
                        [("v", "w", "c"), ("v", "w", "c")])

    def test_loops_at_matches_scan(self):
        q = make_quiver(["u", "v", "w"], ["a", "b", "c"],
                        [("u", "u", "a"), ("u", "u", "b"), ("u", "v", "a"),
                         ("v", "w", "c"), ("w", "w", "c", 2), ("w", "u", "b"),
                         ("u", "u", "c")])
        for v in q.vertices:
            scan = tuple(a for a in q.arrows if a[0] == v and a[1] == v)
            assert q.loops_at(v) == scan
        assert len(q.loops_at("u")) == 3 and q.loops_at("v") == ()
        assert q.loops_at("nowhere") == ()

    def test_unknown_vertex_and_color(self):
        with pytest.raises(UnknownVertex):
            make_quiver(["v"], ["c"], [("v", "w", "c")])
        with pytest.raises(UnknownColor):
            make_quiver(["v", "w"], [], [("v", "w", "c")])

    def test_first_fault_in_arrow_order(self):
        # several faults in every order: make_quiver raises what a
        # per-arrow scan meets first, with the same context; the repeats
        # of ("w", "w", "c") and ("w", "v", "d") carry other values, so
        # only the sort brings them next to their twins, and it may
        # bring another repeat up first
        good = [("v", "w", "c"), ("w", "w", "c", 2), ("w", "v", "d")]
        faults = [("x", "w", "c"), ("v", "y", "d"), ("v", "v", "z"),
                  ("v", "w", "c"), ("x", "y", "z"), ("w", "w", "c", 1),
                  ("w", "v", "d", 2)]
        cases = 0
        for k in (1, 2, 3):
            for picked in itertools.permutations(faults, k):
                for at in range(len(good) + 1):
                    arrows = good[:at] + list(picked) + good[at:]
                    want = first_fault_by_scan(["v", "w"], ["c", "d"],
                                               arrows)
                    for given in (arrows, iter(arrows)):
                        with pytest.raises(want[0]) as got:
                            make_quiver(["v", "w"], ["c", "d"], given)
                        assert (type(got.value), got.value.context,
                                str(got.value)) == want
                    cases += 1
        assert cases == 4 * (7 + 42 + 210)

    def test_caller_arrows_left_unmodified(self):
        arrows = [("w", "v", "b", 2), ("u", "v", "a"), ["v", "v", "a"],
                  ("u", "u", "b", 1)]
        before = [list(a) for a in arrows]
        kept = list(arrows)
        q = make_quiver(["u", "v", "w"], ["a", "b"], arrows)
        assert [list(a) for a in arrows] == before
        assert all(a is b for a, b in zip(arrows, kept))
        assert q.arrows == (("u", "u", "b", 1), ("u", "v", "a", 1),
                            ("v", "v", "a", 1), ("w", "v", "b", 2))

    def test_repeated_vertices_and_colors_deduplicated_sorted(self):
        q = make_quiver(["w", "v", "w", "v"], ["d", "c", "d", "e", "c"],
                        [("v", "w", "d")])
        assert q.vertices == ("v", "w") and q.colors == ("c", "d", "e")
        q = make_quiver(iter(["w", "v"]), (c for c in "dcd"),
                        iter([("w", "v", "c")]))
        assert q.vertices == ("v", "w") and q.colors == ("c", "d")
        assert q.arrows == (("w", "v", "c", 1),)

    def test_arrow_and_plain_tuples_agree(self):
        vs, cs = ["u", "v", "w"], ["a", "b"]
        triples = [("w", "u", "b"), ("u", "v", "a"), ("u", "u", "a"),
                   ("v", "w", "b")]
        quads = [t + (1 + i % 2,) for i, t in enumerate(triples)]
        assert (make_quiver(vs, cs, [list(t) for t in triples])
                == make_quiver(vs, cs, triples))
        assert (make_quiver(vs, cs, [list(t) for t in quads])
                == make_quiver(vs, cs, quads))
        q = make_quiver(vs, cs, triples)
        assert q.arrows == tuple(sorted(t + (1,) for t in triples))
        assert all(type(a) is tuple for a in q.arrows)
        assert q.to_json()["arrows"][0] == {"src": "u", "dst": "u",
                                            "color": "a", "value": 1}

    def test_arrows_are_untracked_plain_tuples(self):
        # exact tuples of strings and ints leave the cycle collector's
        # lists at its next pass; tuple subclasses never do.  A
        # truncation's bundle arrows are made when arrows is first read
        vs, cs = ["u", "v"], ["a"]
        arrows = [("u", "v", "a"), ["v", "v", "a", 2]]
        made = [make_quiver(vs, cs, arrows),
                quiver_from_json(make_quiver(vs, cs, arrows).to_json()),
                gen_realization_acc(
                    normalize_poset([("p0", "p1")], ["p0", "p1"]),
                    TruncationSpec(depth=2)).quiver]
        assert all(q.arrows for q in made)
        gc.collect()
        for q in made:
            assert type(q.arrows) is tuple
            for a in q.arrows:
                assert type(a) is tuple and not gc.is_tracked(a)

    @pytest.mark.parametrize("build", [make_quiver])
    @pytest.mark.parametrize("bad", [("v", "w"), ("v", "w", "c", 1, 0)])
    def test_arrow_of_wrong_length_is_type_error(self, build, bad):
        with pytest.raises(TypeError):
            build(["v", "w"], ["c"], [("v", "w", "c"), bad])


def first_fault_by_scan(vertices, colors, arrows):
    """Reference for make_quiver's errors: check each arrow in order."""
    seen = set()
    for src, dst, color, *_ in arrows:
        if src not in vertices:
            return (UnknownVertex, {"vertex": src},
                    "arrow source not declared")
        if dst not in vertices:
            return (UnknownVertex, {"vertex": dst},
                    "arrow target not declared")
        if color not in colors:
            return UnknownColor, {"color": color}, "arrow color not declared"
        if (src, dst, color) in seen:
            return (DuplicateArrow, {"src": src, "dst": dst, "color": color},
                    "two arrows share (src, dst, color)")
        seen.add((src, dst, color))
    return None


class TestSubquiver:
    def test_chain_prefix(self):
        q = full_subquiver(path3(), ["v1", "v2"])
        assert [(a[0], a[1]) for a in q.arrows] == [("v1", "v2")]

    def test_full_and_empty(self):
        q = path3()
        assert full_subquiver(q, q.vertices).arrows == q.arrows
        assert full_subquiver(q, []).vertices == ()

    def test_unknown(self):
        with pytest.raises(UnknownVertex):
            full_subquiver(path3(), ["nope"])


class TestSplit:
    def test_chain_tail(self):
        sub, quot = split_by_closed(path3(), ["v3"])
        assert sub.vertices == ("v3",)
        assert [(a[0], a[1]) for a in quot.arrows] == [("v1", "v2")]

    def test_not_closed(self):
        q = make_quiver(["v1", "v2"], ["c"], [("v1", "v2", "c")])
        with pytest.raises(NotTargetClosed):
            split_by_closed(q, ["v1"])

    def test_everything(self):
        sub, quot = split_by_closed(path3(), path3().vertices)
        assert quot.vertices == ()
        assert sub.vertices == path3().vertices


class TestDisjointUnion:
    def test_two_loops(self):
        q = disjoint_union([point("v", "c0"), point("v", "c1")])
        assert len(q.vertices) == 2
        assert len(q.arrows) == 2
        assert all(a[0] == a[1] for a in q.arrows)

    def test_single_block_prefixing(self):
        q = disjoint_union([path3()])
        assert set(q.vertices) == {"0/v1", "0/v2", "0/v3"}
        assert len(q.arrows) == 2

    def test_empty(self):
        q = disjoint_union([])
        assert q.vertices == () and q.arrows == ()

    def test_colors_shared_not_renamed(self):
        q = disjoint_union([point("v", "c"), point("v", "c")])
        assert q.colors == ("c",)

    @pytest.mark.parametrize("names", [["x", "x"], [1, "1"]])
    def test_repeated_names_rejected(self, names):
        # repeated names would merge the blocks' vertices
        with pytest.raises(ValueError, match="repeat"):
            disjoint_union([point("v", "c0"), point("v", "c1")], names=names)

    def test_name_count_other_than_the_block_count_rejected(self):
        # one name for two blocks would drop the second block
        with pytest.raises(ValueError, match="names"):
            disjoint_union([point("v", "c0"), point("v", "c0")], names=["x"])

    def test_colliding_vertex_names_rejected(self):
        # x + a/b and x/a + b are both x/a/b: merging them would give
        # one vertex with both loops, not the direct sum of two loops
        with pytest.raises(ValueError, match="'x/a/b'"):
            disjoint_union([point("a/b", "c"), point("b", "d")],
                           names=["x", "x/a"])


@st.composite
def skeletons_with_blocks(draw):
    """A skeleton on at most four vertices with any arrows, and a block
    per vertex (perhaps one missing) drawn from at most three quivers."""
    ws = [f"w{i}" for i in range(draw(st.integers(0, 4)))]
    tags = ["m", "n"]
    skel = make_quiver(ws, tags, draw(st.lists(
        st.tuples(*[st.sampled_from(ws)] * 2, st.sampled_from(tags)),
        max_size=6, unique=True)) if ws else [])
    pool = ["c", "d", bundle_color("m", "v", "v"), bundle_color("n", "v", "w"),
            bundle_color("m", "w", "x")]

    def block():
        vs = draw(st.lists(st.sampled_from("vwx"), max_size=3, unique=True))
        cs = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        arrows = draw(st.lists(
            st.tuples(*[st.sampled_from(vs)] * 2, st.sampled_from(cs),
                      st.integers(1, 2)),
            max_size=4, unique_by=lambda a: a[:3])) if vs and cs else []
        return make_quiver(vs, cs, arrows)

    quivers = [block() for _ in range(draw(st.integers(1, 3)))]
    blocks = {w: draw(st.sampled_from(quivers)) for w in ws}
    if ws and draw(st.sampled_from([False] * 9 + [True])):
        del blocks[draw(st.sampled_from(ws))]
    return skel, blocks


class TestSubstitute:
    def column(self):
        return make_quiver(["v", "w"], ["c"], [("v", "w", "c")])

    def test_four_column_example(self):
        # skeleton: w1 -(a)-> w2 -(a)-> w3 -(b)-> w4, every block the
        # two-vertex column.  Expect 4 internal arrows plus 3 complete
        # bipartite bundles of 4, and bundle colors keyed by
        # (skeleton color, block-local endpoints), so the two (a)
        # bundles share their 4 colors.
        skel = make_quiver(["w1", "w2", "w3", "w4"], ["(a)", "(b)"],
                           [("w1", "w2", "(a)"), ("w2", "w3", "(a)"),
                            ("w3", "w4", "(b)")])
        q = substitute(skel, {w: self.column() for w in skel.vertices})
        assert len(q.vertices) == 8
        assert len(q.arrows) == 4 + 3 * 4
        a_colors = {a[2] for a in q.arrows if "(a);" in a[2]}
        b_colors = {a[2] for a in q.arrows if "(b);" in a[2]}
        assert len(a_colors) == 4 and len(b_colors) == 4
        assert bundle_color("(a)", "v", "w") in a_colors
        # shared color across the two (a) bundles: 8 bundle arrows, 4 colors
        n_a_arrows = sum(1 for a in q.arrows if a[2] in a_colors)
        assert n_a_arrows == 8

    def test_single_vertex_skeleton(self):
        skel = make_quiver(["w"], [], [])
        q = substitute(skel, {"w": self.column()})
        assert len(q.vertices) == 2 and len(q.arrows) == 1

    def test_bundle_count_and_distinct_colors(self):
        skel = make_quiver(["x", "y"], ["m"], [("x", "y", "m")])
        big = make_quiver(["a", "b", "c"], [], [])
        q = substitute(skel, {"x": big, "y": self.column()})
        bundle = [a for a in q.arrows if a[2].startswith("!(")]
        assert len(bundle) == 3 * 2
        assert len({a[2] for a in bundle}) == 6

    def test_missing_block(self):
        skel = make_quiver(["x"], [], [])
        with pytest.raises(MissingBlock):
            substitute(skel, {})

    def test_color_clash_detected(self):
        skel = make_quiver(["x", "y"], ["m"], [("x", "y", "m")])
        poisoned = make_quiver(["v"], [bundle_color("m", "v", "v")], [])
        with pytest.raises(ColorClash):
            substitute(skel, {"x": poisoned, "y": poisoned})

    @settings(max_examples=300, deadline=None)
    @given(skeletons_with_blocks())
    def test_equals_the_arrow_by_arrow_oracle(self, case):
        # any skeleton, cycles and loops included; blocks repeat by
        # identity, and their colors may be the bundle colors
        skel, blocks = case
        try:
            want = oracle_substitute(skel, blocks)
        except AtomcatError as err:
            with pytest.raises(AtomcatError) as got:
                substitute(skel, blocks)
            assert type(got.value) is type(err)
            if isinstance(err, ColorClash):
                # the oracle names the first clash it meets, substitute
                # the least clashing color
                held = set().union(*(blocks[w].colors for w in skel.vertices))
                clash = held.intersection(
                    bundle_color(mu, v, v2) for w, w2, mu, _ in skel.arrows
                    for v in blocks[w].vertices for v2 in blocks[w2].vertices)
                assert got.value.context == {"color": min(clash)}
            return
        assert substitute(skel, blocks) == want




class TestChain:
    def test_three_loop_points(self):
        q = chain([point("v", "cL")] * 3)
        assert len(q.vertices) == 3
        loops = [a for a in q.arrows if a[0] == a[1]]
        bundles = [a for a in q.arrows if a[0] != a[1]]
        assert len(loops) == 3 and len(bundles) == 2
        assert len({a[2] for a in bundles}) == 2

    def test_single_block(self):
        q = chain([point("v", "cL")])
        assert q.vertices == ("b0/v",)

    def test_bundle_arrow_count(self):
        q = chain([point("v"), point("v")])
        assert sum(1 for a in q.arrows if a[0] != a[1]) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyRange):
            chain([])


def test_json_roundtrip():
    q = path3()
    assert quiver_from_json(q.to_json()) == q


@pytest.mark.parametrize("value", ["1", 1.5, 1.0, True, None, [1]])
def test_json_arrow_value_must_be_an_integer(value):
    data = path3().to_json()
    data["arrows"][1]["value"] = value
    with pytest.raises(ValueError, match=r"\['v2', 'v3', 'c23'\]"):
        quiver_from_json(data)


def runs_forward(q, order):
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[a[0]] < pos[a[1]] for a in q.arrows if a[0] != a[1])


def test_topo_order():
    assert runs_forward(path3(), loop_stripped_topo_order(path3()))
    cyc = make_quiver(["a", "b"], ["c", "d"],
                      [("a", "b", "c"), ("b", "a", "d")])
    assert loop_stripped_topo_order(cyc) is None
    loops = disjoint_union([point("v", "c0"), point("v", "c1")])
    order = loop_stripped_topo_order(loops)
    assert order is not None and len(order) == 2
    assert runs_forward(loops, order)
    # a diamond whose arrows run against the vertex names
    diamond = make_quiver(["a", "b", "c", "d"], ["x"],
                          [("d", "b", "x"), ("d", "c", "x"), ("b", "a", "x"),
                           ("c", "a", "x"), ("a", "a", "x")])
    assert runs_forward(diamond, loop_stripped_topo_order(diamond))


@st.composite
def random_digraphs(draw):
    nv = draw(st.integers(0, 8))
    vs = [f"v{i}" for i in range(nv)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          max_size=3 * nv, unique=True)) if vs else []
    return make_quiver(vs, ["c"], [(v, w, "c") for v, w in pairs])


def reachability(q):
    """Transitive closure by repeated squaring of the relation."""
    reach = {(v, v) for v in q.vertices}
    reach |= {(a[0], a[1]) for a in q.arrows}
    while True:
        more = reach | {(u, w) for u, v in reach for v2, w in reach
                        if v == v2}
        if more == reach:
            return reach
        reach = more


def assert_blocks_match_closure_oracle(q):
    """strong_components against reachability on the expanded arrows,
    and each block's inner arrows against a scan of them."""
    blocks = strong_components(q)
    inner = blocks_with_arrows(q)
    reach = reachability(q)
    assert sorted(v for b in blocks for v in b) == list(q.vertices)
    for b in blocks:
        assert list(b) == sorted(b)
        others = [w for w in q.vertices if (b[0], w) in reach
                  and (w, b[0]) in reach]
        assert list(b) == others
    # sinks first: no arrow runs from a block to a later one
    pos = {v: i for i, b in enumerate(blocks) for v in b}
    assert all(pos[a[0]] >= pos[a[1]] for a in q.arrows)
    assert [b for b, _ in inner] == blocks
    # the same blocks as the expanded quiver, perhaps in another order
    assert sorted(blocks) == sorted(strong_components(
        make_quiver(q.vertices, q.colors, q.arrows)))
    for b, arrows in inner:
        assert arrows == tuple(a for a in q.arrows
                               if a[0] in b and a[1] in b)
        for v in b:
            assert q.loops_at(v) == tuple(a for a in arrows
                                          if a[0] == a[1] == v)
    order = loop_stripped_topo_order(q)
    if all(len(b) == 1 for b in blocks):
        assert runs_forward(q, order)
    else:
        assert order is None


@settings(max_examples=150, deadline=None)
@given(random_digraphs())
def test_property_strong_components_match_closure_oracle(q):
    assert_blocks_match_closure_oracle(q)


def substituted(case):
    """A skeletons_with_blocks case substituted, with bundles, and by
    the arrow-by-arrow oracle; None if the oracle refuses it."""
    skel, blocks = case
    try:
        want = oracle_substitute(skel, blocks)
    except AtomcatError:
        return None
    return substitute(skel, blocks), want


@settings(max_examples=200, deadline=None)
@given(skeletons_with_blocks())
def test_property_bundle_quiver_blocks_match_closure_oracle(case):
    # cyclic skeletons put bundles inside blocks
    if (pair := substituted(case)) is not None:
        assert_blocks_match_closure_oracle(pair[0])


# leaves of nested terms: points with and without a loop, an empty
# block, a quiver on integers (renamed 2 -> "x/2", 10 -> "x/10", which
# sort the other way) with a 2-cycle, and a truncation of a cyclic term
LEAVES = (Point("A", "a"), Point("B", "b", loop=False), Composite((), (), ()),
          make_quiver([2, 3, 10], ["k"],
                      [(2, 10, "k"), (10, 2, "k"), (3, 2, "k")]),
          truncate(Composite((Point("A", "a"), Point("B", "b", loop=False),
                              Point("C", "c")), "xyz",
                             ((0, 1, "in"), (1, 0, "in"), (1, 2, "in")))
                   ).quiver)


@st.composite
def nested_terms(draw):
    """Composites of composites, three deep at most, on skeletons with
    any arrows (cycles, loops and arrows to empty blocks included), one
    fresh tag per composite so that no bundle color clashes."""
    tags = iter(range(100))

    def term(depth):
        if not depth or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(LEAVES))
        n = draw(st.integers(1, 3 if depth == 3 else 2))
        blocks = tuple(term(depth - 1) for _ in range(n))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=4, unique=True))
        tag = f"t{next(tags)}"
        return Composite(blocks, tuple(f"b{k}" for k in range(n)),
                         tuple((i, j, tag) for i, j in pairs))

    return term(3)


@settings(max_examples=200, deadline=None)
@given(nested_terms())
def test_property_nested_term_blocks_match_closure_oracle(term):
    q = truncate(term).quiver
    blocks = blocks_with_arrows(q)
    # only bundles inside a block were expanded
    assert "arrows" not in vars(q) and "colors" not in vars(q)
    assert_blocks_match_closure_oracle(q)
    assert blocks_with_arrows(q) == blocks
    # the records truncate hands the quiver hold what make_quiver holds
    assert q == make_quiver(q.vertices, q.colors, q.arrows)


def test_blocks_of_skeleton_corner_cases():
    # each term is a case the skeleton reading can get wrong
    a, b = Point("A", "a"), Point("B", "b", loop=False)
    pair = Composite((a, b), "xy", ())  # two blocks, neither reaching the other
    empty = Composite((), (), ())
    cases = {
        # a cycle through an empty block joins nothing
        "empty": Composite((pair, empty), "pe", ((0, 1, "t"), (1, 0, "t"))),
        # a skeleton loop joins every vertex of its block
        "loop": Composite((pair,), "p", ((0, 0, "t"),)),
        # blocks come sinks first along either skeleton direction
        "forward": Composite((a, b, pair), "xyz", ((0, 1, "t"), (1, 2, "t"))),
        "backward": Composite((a, b, pair), "xyz", ((2, 1, "t"), (1, 0, "t"))),
    }
    want = {"empty": 2, "loop": 1, "forward": 4, "backward": 4}
    for name, term in cases.items():
        q = truncate(term).quiver
        assert_blocks_match_closure_oracle(q)
        assert len(strong_components(q)) == want[name], name


@settings(max_examples=200, deadline=None)
@given(skeletons_with_blocks(), st.sampled_from([2, 3]))
def test_property_bundle_spectra_equal_expanded(case, p):
    # a block of more than 10 vertices at p = 3 has more seed vectors
    # than the budget allows: then both refuse it alike
    if (pair := substituted(case)) is not None:
        got, want = pair
        outcomes = []
        for q in pair:
            try:
                outcomes.append(spectrum(q, FieldSpec(p)).to_json())
            except BudgetExceeded as err:
                outcomes.append((str(err), err.context))
        assert outcomes[0] == outcomes[1]
        assert "arrows" not in vars(got) and "colors" not in vars(got)
        assert got == make_quiver(got.vertices, got.colors, got.arrows)


def expand(bundles):
    return [(v, w, c.render(c.tag, c.sources[x], c.targets[y]), 1)
            for sources, targets, c in bundles
            for x, v in enumerate(sources) for y, w in enumerate(targets)]


def test_bundle_quiver_equals_make_quiver_of_its_arrows():
    # the 2x2 bundles of a 2-cycle skeleton lie inside one block; hash,
    # repr and the JSON forms read the expanded arrows
    skeleton = make_quiver(["L", "R"], ["f", "g"],
                           [("L", "R", "f"), ("R", "L", "g")])
    q = substitute(skeleton, {
        "L": make_quiver("ab", "x", [("a", "a", "x", 2)]),
        "R": make_quiver("cd", "", [])})
    whole = ("L/a", "L/b", "R/c", "R/d")
    arrows = [*q.plain, *expand(q.bundles)]
    want = make_quiver(whole, [*q.declared, *(a[2] for a in arrows)], arrows)
    assert strong_components(q) == [whole] == [
        b for b, _ in blocks_with_arrows(q)]
    assert "arrows" not in vars(q) and "colors" not in vars(q)
    assert q == want and hash(q) == hash(want) and repr(q) == repr(want)
    assert (q.to_json(), q.to_dot()) == (want.to_json(), want.to_dot())
    assert blocks_with_arrows(q) == [(whole, want.arrows)]


def test_shared_bundle_colors_render_once_per_expansion():
    # three bundles share one BundleColors, as every occurrence of a
    # composite does: its four colors are rendered once, not per bundle
    calls = []

    def render(tag, v, w):
        calls.append((v, w))
        return f"{tag}:{v}>{w}"

    colors = BundleColors(render, "t", ("a", "b"), ("x", "y"))
    bundles = [((f"{k}a", f"{k}b"), (f"{k}x", f"{k}y"), colors)
               for k in range(3)]
    vertices = [v for s, t, _ in bundles for v in (*s, *t)]
    q = _bundle_quiver(vertices, [], [], bundles, [])
    assert len(q.arrows) == 12 and len(calls) == 4
    assert {c for _, _, c, _ in q.arrows} == {
        "t:a>x", "t:a>y", "t:b>x", "t:b>y"}
    # each color is one string, shared by the three bundles' arrows
    assert len({id(c) for _, _, c, _ in q.arrows}) == 4


def test_strong_components_of_a_long_path_and_cycle():
    # deeper than any recursion limit would allow
    n = 5000
    vs = [f"v{i:05d}" for i in range(n)]
    path = make_quiver(vs, ["c"], [(vs[i], vs[i + 1], "c")
                                   for i in range(n - 1)])
    assert strong_components(path) == [(v,) for v in reversed(vs)]
    cycle = make_quiver(vs, ["c"], [(vs[i], vs[(i + 1) % n], "c")
                                    for i in range(n)])
    assert strong_components(cycle) == [tuple(vs)]
