"""Generators: truncation shapes, color discipline, atom tables."""

import functools
import gc
import tracemalloc

import pytest

from atomcat import quiver
from atomcat.errors import (ColorClash, DepthTooSmall, DuplicateArrow,
                            EmptyRange, UnknownPreset, UnknownVertex,
                            WindowTooSmall)
from atomcat.generators import (gen_noatom, gen_realization_acc,
                                gen_realization_general, preset, truncate)
from atomcat.harness import all_posets, random_poset
from atomcat.ordertop import normalize_poset
from atomcat.quiver import (ColoredQuiver, GeneratedQuiver, TruncationSpec,
                            full_subquiver, loop_stripped_topo_order,
                            make_quiver, quiver_from_json, strong_components)
from atomcat.terms import (PRESET_NAMES, Composite, Point, acc_term,
                           chain_term, composite_term, general_term,
                           noatom_term, preset_term, union_term)
from noatom_oracle import renamed, word_tree
from substitute_oracle import substitute


def poset(pairs, elems):
    return normalize_poset(pairs, elems)


def render_bundle_colors_with(monkeypatch, render):
    """Make every bundle color render(tag, v, w), under the head "" that
    every string starts with, so the clash check renders them all."""
    bundle = quiver.BundleColors
    monkeypatch.setattr(bundle, "color", lambda c, x, y: render(
        c.tag, c.sources[x], c.targets[y]))
    monkeypatch.setattr(bundle, "rows", lambda c: (
        [render(c.tag, v, w) for w in c.targets] for v in c.sources))
    monkeypatch.setattr(bundle, "head", lambda c: "")


POINT = poset([], ["p"])
CHAIN2 = poset([("p0", "p1")], ["p0", "p1"])
CHAIN4 = poset([("p0", "p1"), ("p1", "p2"), ("p2", "p3")],
               ["p0", "p1", "p2", "p3"])
ANTICHAIN2 = poset([], ["a", "b"])
DIAMOND = poset([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                ["a", "b", "c", "d"])


def loops_of(quiver):
    return [a for a in quiver.arrows if a[0] == a[1]]


class TestRealizationAcc:
    def test_build_leaves_no_cyclic_garbage(self):
        # a truncation's arrows are freed by reference counting on
        # return, not kept alive until the next full collection
        y = poset([("d", "a"), ("a", "b"), ("a", "c")], ["a", "b", "c", "d"])
        builds = [lambda: gen_realization_acc(y, TruncationSpec(depth=3)),
                  lambda: gen_realization_general(y, TruncationSpec(2, (-1, 1)))]
        builds += [lambda n=n: preset(n, 3) for n in PRESET_NAMES]
        gc.collect()
        gc.disable()
        try:
            for build in builds:
                build()
                assert gc.collect() == 0, build
        finally:
            gc.enable()

    def test_single_point(self):
        g = gen_realization_acc(POINT, TruncationSpec(depth=2))
        assert len(g.quiver.vertices) == 1
        assert len(loops_of(g.quiver)) == 1
        assert set(g.atom_table) == {"simple(p)"}

    def test_chain2_depth3_is_three_block_chain(self):
        g = gen_realization_acc(CHAIN2, TruncationSpec(depth=3))
        # p1 block: one loop point; p0 block: three copies chained
        p1 = [v for v in g.quiver.vertices if v.startswith("p1/")]
        p0 = [v for v in g.quiver.vertices if v.startswith("p0/")]
        assert len(p1) == 1 and len(p0) == 3
        bundles = [a for a in g.quiver.arrows if a[2].startswith("!(")]
        assert len(bundles) == 2
        tags = {a[2].split(";")[0] for a in bundles}
        assert tags == {"!((p0"}

    def test_antichain_two_loop_points(self):
        g = gen_realization_acc(ANTICHAIN2, TruncationSpec(depth=2))
        assert len(g.quiver.vertices) == 2
        assert len(g.quiver.arrows) == 2
        assert {a[2] for a in g.quiver.arrows} == {"c(a)", "c(b)"}

    def test_diamond_depth2_block_sizes(self):
        # derived: J(a) = {b, c}, each pass contributes one copy of each;
        # blocks of b and c are depth-2 chains over the loop point d
        g = gen_realization_acc(DIAMOND, TruncationSpec(depth=2))
        sizes = {p: len([v for v in g.quiver.vertices
                         if v.startswith(f"{p}/")])
                 for p in "abcd"}
        assert sizes == {"d": 1, "b": 2, "c": 2, "a": 8}

    def test_monotone_truncation(self):
        for p in (CHAIN2, CHAIN4, DIAMOND):
            shallow = set(gen_realization_acc(p, TruncationSpec(depth=2))
                          .quiver.vertices)
            deep = set(gen_realization_acc(p, TruncationSpec(depth=3))
                       .quiver.vertices)
            assert shallow <= deep

    def test_depth_too_small(self):
        with pytest.raises(DepthTooSmall):
            gen_realization_acc(CHAIN2, TruncationSpec(depth=0))

    def test_loop_stripped_dag(self):
        for p in (CHAIN4, DIAMOND):
            g = gen_realization_acc(p, TruncationSpec(depth=3))
            assert loop_stripped_topo_order(g.quiver) is not None

    def test_atom_table_partitions_vertices(self):
        g = gen_realization_acc(DIAMOND, TruncationSpec(depth=2))
        simple_vs = set()
        for key, entry in g.atom_table.items():
            if entry["kind"] == "simple":
                simple_vs |= set(entry["vertices"])
        # every vertex realizes exactly one maximal element's loop point
        assert simple_vs == set(g.quiver.vertices)

    def test_json_roundtrip(self):
        g = gen_realization_acc(CHAIN2, TruncationSpec(depth=2))
        data = g.to_json()
        g2 = GeneratedQuiver(quiver_from_json(data), {
            k: dict(v) for k, v in data["atom_table"].items()})
        assert g2.quiver == g.quiver and g2.atom_table == g.atom_table

    def test_bundle_color_clash_detected(self, monkeypatch):
        # a minted bundle color equal to the loop color of a block
        def clashing(skeleton_color, src_vertex, dst_vertex):
            return "c(p1)"
        render_bundle_colors_with(monkeypatch, clashing)
        for build in (lambda: gen_realization_acc(CHAIN2, TruncationSpec(2)),
                      lambda: truncate(acc_term(CHAIN2, 2))):
            with pytest.raises(ColorClash) as got:
                build()
            assert got.value.context["color"] == "c(p1)"

    def test_bundle_color_clash_names_the_least_clashing_color(
            self, monkeypatch):
        # p0's bundle colors: c(p1) and c(p2) clash with the loop colors
        # of the maximal elements, z(...) do not; the least clash is named
        def clashing(skeleton_color, src_vertex, dst_vertex):
            return {"v(p2)": "c(p2)", "v(p1)": "c(p1)"}.get(
                dst_vertex, f"z({skeleton_color})")
        render_bundle_colors_with(monkeypatch, clashing)
        v = poset([("p0", "p1"), ("p0", "p2")], ["p0", "p1", "p2"])
        with pytest.raises(ColorClash) as got:
            gen_realization_acc(v, TruncationSpec(depth=2))
        assert got.value.context == {"color": "c(p1)"}
        # without the patch: a leaf declares two colors the bundle mints
        monkeypatch.undo()
        leaf = make_quiver(["x", "y"], ["!(o;y,v(c))", "!(o;x,v(c))", "zz"],
                           [])
        with pytest.raises(ColorClash) as got:
            truncate(chain_term([leaf, Point("C", "c")], ["o"]))
        assert got.value.context == {"color": "!(o;x,v(c))"}

    def test_working_set_of_the_largest_listed_truncation(self):
        # the benchmark's largest realize-acc truncation (519 vertices,
        # 31,952 arrows, 26,654 colors): its build peaks near 0.27 MB
        # with bundle colors as records (5.74 MB as color strings),
        # bounded at 1.75x that
        P = random_poset(7134768400813504092, 6)
        gc.collect()
        tracemalloc.start()
        try:
            g = gen_realization_acc(P, TruncationSpec(depth=6))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(g.quiver.vertices), len(g.quiver.arrows),
                len(g.quiver.colors)) == (519, 31952, 26654)
        assert peak <= 0.47e6, (peak, kept)

    def test_working_set_of_the_largest_golden_preset(self):
        # no-dcc at depth 4 nests four acc chains, one inside the next;
        # its build peaks near 0.21 MB (2.34 MB as color strings),
        # bounded at 1.75x that
        gc.collect()
        tracemalloc.start()
        try:
            g = preset("no-dcc", 4)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(g.quiver.vertices), len(g.quiver.arrows)) == (341, 17732)
        assert peak <= 0.37e6, (peak, kept)

    def test_kept_memory_of_a_deep_truncation(self):
        # depth 5 of random_poset(1001, 6): 1,531 vertices and 145,730
        # colors, which kept 16.0 MB as color strings; its records keep
        # about 0.53 MB, bounded at 1.75x that
        P = random_poset(1001, 6)
        gc.collect()
        tracemalloc.start()
        try:
            g = gen_realization_acc(P, TruncationSpec(depth=5))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "colors" not in vars(g.quiver)
        assert (len(g.quiver.vertices), len(g.quiver.colors)) == (1531, 145730)
        assert kept <= 0.93e6, (kept, peak)

    def test_acc_truncation_renders_no_color(self, monkeypatch):
        # acc tags (p;i,j) are never prefix-related, so the clash check
        # proves every composite clear without a color string
        bundle, rendered = quiver.BundleColors, []
        real_color, real_rows = bundle.color, bundle.rows

        def color(c, x, y):
            rendered.append((c, x, y))
            return real_color(c, x, y)

        def rows(c):
            rendered.append(c)
            return real_rows(c)
        monkeypatch.setattr(bundle, "color", color)
        monkeypatch.setattr(bundle, "rows", rows)
        for P in [DIAMOND, CHAIN4] + [random_poset(s, 6) for s in range(4)]:
            truncate(acc_term(P, 3))
        assert rendered == []

    def test_crosscheck_reads_blocks_off_the_term(self, monkeypatch):
        # Tarjan sees at most a skeleton, one node per block of a
        # composite, never the truncation's vertices (an acc term's
        # skeletons all run forward, so it runs on none); and spectrum
        # canonical-forms one simple per distinct block signature, not
        # one per block
        from atomcat import atomspec, skeleton
        from atomcat.predictor import crosscheck, predict_realization
        real, sizes = quiver._tarjan, []
        real_form, forms = atomspec.canonical_simple_form, []

        def recording(succ, roots):
            sizes.append(len(succ))
            return real(succ, roots)

        def forming(simple):
            forms.append(simple)
            return real_form(simple)
        monkeypatch.setattr(quiver, "_tarjan", recording)
        monkeypatch.setattr(skeleton, "_tarjan", recording)
        monkeypatch.setattr(atomspec, "canonical_simple_form", forming)
        # the benchmark's largest listed truncation (519 vertices)
        for P, depth in [(DIAMOND, 3), (random_poset(7134768400813504092, 6),
                                        6)]:
            sizes.clear()
            forms.clear()
            gen = gen_realization_acc(P, TruncationSpec(depth=depth))
            sym = predict_realization(P, "acc").pre_quotient
            assert crosscheck(sym, gen).ok()
            assert "arrows" not in vars(gen.quiver)
            assert "colors" not in vars(gen.quiver)
            blocks = quiver.blocks_with_arrows(gen.quiver)
            signatures = {tuple(a[2] for a in arrows) for _, arrows in blocks}
            assert all(len(b) == 1 for b, _ in blocks)
            assert len(forms) == len(signatures) < len(blocks)
            todo, seen, widest = [acc_term(P, depth)], set(), 0
            while todo:
                t = todo.pop()
                if isinstance(t, Composite) and id(t) not in seen:
                    seen.add(id(t))
                    widest = max(widest, len(t.blocks))
                    todo.extend(t.blocks)
            assert max(sizes, default=0) <= widest < len(gen.quiver.vertices)


def nested(term):
    """The oracle for `truncate`: every subterm built on its own (a
    point as a one-vertex quiver, a quiver leaf as itself, a composite
    by the arrow-by-arrow `substitute_oracle.substitute` on its
    skeleton), the atom table read off the nested quivers by a second
    walk."""
    quivers, table, depth_of = {}, {}, {}

    def build(t):
        if id(t) not in quivers:
            if isinstance(t, Point):
                v, c = f"v({t.tag})", f"c({t.tag})"
                quivers[id(t)] = (make_quiver([v], [c], [(v, v, c)]) if t.loop
                                  else make_quiver([v], [], []))
            elif isinstance(t, ColoredQuiver):
                quivers[id(t)] = t
            else:
                skeleton = make_quiver(
                    t.names, {tag for _, _, tag in t.arrows},
                    [(t.names[i], t.names[j], tag) for i, j, tag in t.arrows])
                quivers[id(t)] = substitute(skeleton, {
                    name: build(b) for name, b in zip(t.names, t.blocks)},
                    t.shared)
        return quivers[id(t)]

    def walk(t, prefix, depth):
        if isinstance(t, ColoredQuiver):
            return
        if isinstance(t, Point):
            table.setdefault(t.label, {
                "kind": "simple", "atom_label": t.label,
                "loop_colors": [f"c({t.tag})"] if t.loop else [],
                "vertices": []})["vertices"].append(f"{prefix}v({t.tag})")
            return
        if t.limit and depth < depth_of.get(t.limit, depth + 1):
            depth_of[t.limit] = depth
            table[t.limit] = {
                "kind": "chain_limit", "atom_label": t.limit,
                "vertices": [prefix + v for v in quivers[id(t)].vertices]}
        for name, b in zip(t.names, t.blocks):
            walk(b, f"{prefix}{name}/", depth + 1)

    q = build(term)
    walk(term, "", 0)
    for entry in table.values():
        entry["vertices"].sort()
    return GeneratedQuiver(q, table)


def assert_truncates_as_nested(term, case):
    got, want = truncate(term), nested(term)
    assert got.quiver == want.quiver, case
    assert (got.quiver.to_json(), got.quiver.to_dot()) == (
        want.quiver.to_json(), want.quiver.to_dot()), case
    assert list(got.atom_table.items()) == list(want.atom_table.items()), case


class TestTruncate:
    def test_presets_equal_nested_combinators(self):
        for name in PRESET_NAMES:
            for d in (1, 2, 3, 4):
                assert_truncates_as_nested(preset_term(name, d), (name, d))

    def test_acc_terms_equal_nested_combinators(self):
        posets = [(P, d) for n in range(1, 5) for P in all_posets(n)
                  for d in (1, 2, 3)]
        posets += [(random_poset(s, 6), 1 + s % 3) for s in range(16)]
        # names that list the bottom last, after its blocks' own chains
        posets += [(poset([("z", "m"), ("m", "a")], ["a", "m", "z"]), 2)]
        for P, d in posets:
            assert_truncates_as_nested(acc_term(P, d), (P, d))

    def test_general_terms_equal_nested_combinators(self):
        for n in range(1, 5):
            for P in all_posets(n):
                for d in (0, 1, 2):
                    for ints in ((0,), (-1, 0, 1)):
                        assert_truncates_as_nested(general_term(P, d, ints),
                                                   (P, d, ints))

    def test_noatom_terms_equal_nested_combinators(self):
        # the oracle skips the clash check for a composite's shared tags
        for d in range(5):
            for ints in ((0,), range(d + 1), (-1, 0, 1, 2)):
                assert_truncates_as_nested(noatom_term(list(ints), d),
                                           (d, ints))

    def test_repeated_skeleton_arrow_refused_as_make_quiver_refuses(self):
        # its bundle's first arrow is the first repeat in walk order; a
        # repeat between empty blocks makes no arrow
        column = make_quiver(["v", "w"], ["!(t;v,w)"], [("v", "w", "!(t;v,w)")])
        empty = union_term([], [])
        twice = Composite((empty, empty), ("e", "f"), ((0, 1, "t"),) * 2)
        repeated = Composite((Point("A", "a"), column, twice), ("x", "y", "e"),
                             ((0, 1, "t"), (0, 1, "u"), (2, 2, "s"),
                              (2, 2, "s"), (0, 1, "t")))
        with pytest.raises(DuplicateArrow) as got:
            truncate(union_term([column, repeated], ["o", "z"]))
        assert got.value.context == {"src": "z/x/v(a)", "dst": "z/y/v",
                                     "color": "!(t;v(a),v)"}
        assert truncate(union_term([column, twice], ["o", "z"])).quiver == (
            truncate(union_term([column], ["o"])).quiver)

    def test_shared_tag_on_a_skeleton_loop_refused(self):
        column = make_quiver(["v", "w"], ["!(t;v,w)"], [("v", "w", "!(t;v,w)")])
        looped = Composite((column,), ("x",), ((0, 0, "t"),), shared=("t",))
        with pytest.raises(ValueError, match="shared tag"):
            truncate(looped)

    def test_unions_inside_chains_equal_nested_combinators(self):
        a, b = Point("A", "a"), Point("B", "b", loop=False)
        pair = union_term([a, chain_term([b, a], ["u"], "lim")], ["l", "r"])
        term = union_term([chain_term([pair, a, pair], ["s0", "s1"], "outer"),
                           pair], [0, 1])
        assert_truncates_as_nested(term, term)

    def test_bundle_color_clash_with_a_nested_chain(self):
        # the outer bundle mints the color the inner bundle minted: both
        # are tagged o, and the inner bundle's ends b1/v(c) and v(c) are
        # also the names of an outer bundle's ends, relative to its blocks
        inner = chain_term([make_quiver(["b1/v(c)"], [], []),
                            make_quiver(["v(c)"], [], [])], ["o"])
        for build in (truncate, nested):
            with pytest.raises(ColorClash) as got:
                build(chain_term([inner, Point("C", "c")], ["o"]))
            assert got.value.context == {"color": "!(o;b1/v(c),v(c))"}

    def test_quiver_leaves_equal_nested_combinators(self):
        # a quiver leaf keeps its vertices, arrows and declared colors,
        # and has no atom table entry
        column = make_quiver(["v", "w"], ["c", "spare"], [("v", "w", "c", 2)])
        inner = chain_term([column, Point("A", "a"), column], ["s0", "s1"],
                           "lim")
        term = union_term([inner, column, chain_term([inner, column], ["o"])],
                          ["x", "y", "z"])
        assert_truncates_as_nested(term, term)
        g = truncate(term)
        assert "spare" in g.quiver.colors and list(g.atom_table) == [
            "lim", "A"]

    def test_quiver_leaf_colors_are_inside_for_the_clash_check(self):
        # the outer bundle mints a color that a nested leaf declares,
        # though no arrow of the leaf wears it
        poisoned = make_quiver(["v"], ["!(o;b0/v,v(c))"], [])
        term = chain_term([chain_term([poisoned, Point("B", "b")], ["i"]),
                           Point("C", "c")], ["o"])
        for build in (truncate, nested):
            with pytest.raises(ColorClash) as got:
                build(term)
            assert got.value.context == {"color": "!(o;b0/v,v(c))"}

    def test_tag_with_a_semicolon_renders_an_outer_color(self):
        # (a;x, b0/v(p), v(q)) and (a, x;b0/v(p), v(q)) are different
        # triples that render one string; the outer tag a is not shared
        p, q = Point("P", "p"), Point("Q", "q")
        inner = composite_term((union_term([p], ["b0"]), q), ("l", "r"),
                               ((0, 1, "a;x"),))
        outer = composite_term((inner, union_term([p], ["x;b0"]), q),
                               ("i", "s", "t"), ((1, 2, "a"),))
        for build in (truncate, nested):
            with pytest.raises(ColorClash) as got:
                build(outer)
            assert got.value.context == {"color": "!(a;x;b0/v(p),v(q))"}
        apart = outer._replace(arrows=((1, 2, "ax"),))
        assert truncate(apart).quiver == nested(apart).quiver

    def test_tag_with_a_semicolon_renders_an_inner_color(self):
        # the other way round: the inner tag's head !(a; is a prefix of
        # the outer tag's !(a;x;, and (a, x;b0/v(p), v(q)) inside renders
        # what (a;x, b0/v(p), v(q)) outside does
        p, q = Point("P", "p"), Point("Q", "q")
        inner = composite_term((union_term([p], ["x;b0"]), q), ("l", "r"),
                               ((0, 1, "a"),))
        outer = composite_term((inner, union_term([p], ["b0"]), q),
                               ("i", "s", "t"), ((1, 2, "a;x"),))
        for build in (truncate, nested):
            with pytest.raises(ColorClash) as got:
                build(outer)
            assert got.value.context == {"color": "!(a;x;b0/v(p),v(q))"}

    def test_commas_in_names_under_a_repeated_tag(self):
        # the tag t recurs inside a nested block, and (t, u, v,w) and
        # (t, u,v, w) render !(t;u,v,w): the least of the clashes is
        # named
        def leaf(*names):
            return make_quiver(names, [], [])
        inner = composite_term((leaf("u"), leaf("v,x", "v,w")), ("a", "b"),
                               ((0, 1, "t"),))
        outer = composite_term((inner, leaf("u,v"), leaf("x", "w", "y")),
                               ("i", "c", "d"), ((1, 2, "t"),))
        assert [a[2] for a in truncate(inner).quiver.arrows] == [
            "!(t;u,v,w)", "!(t;u,v,x)"]
        with pytest.raises(ColorClash) as got:
            truncate(outer)
        assert got.value.context == {"color": "!(t;u,v,w)"}
        # a shared t may mint them again, as the oracle agrees
        shared = outer._replace(shared=("t",))
        assert truncate(shared).quiver == nested(shared).quiver

    def test_tag_with_a_comma_and_semicolon_renders_another_tags_color(self):
        # (a;b,c, d, v(e)) and (a, b,c;d, v(e)) render one string
        e = Point("E", "e")
        inner = composite_term((make_quiver(["d"], [], []), e), ("l", "r"),
                               ((0, 1, "a;b,c"),))
        outer = composite_term((inner, make_quiver(["b,c;d"], [], []), e),
                               ("i", "s", "t"), ((1, 2, "a"),))
        with pytest.raises(ColorClash) as got:
            truncate(outer)
        assert got.value.context == {"color": "!(a;b,c;d,v(e))"}

    def test_refuses_an_empty_chain(self):
        with pytest.raises(EmptyRange):
            chain_term([], [])

    def test_refuses_a_wrong_tag_count(self):
        with pytest.raises(ValueError):
            chain_term([Point("A", "a"), Point("B", "b")], [])

    def test_refuses_repeated_tags(self):
        with pytest.raises(ColorClash):
            chain_term([Point("A", "a")] * 3, ["t", "t"])

    def test_refuses_repeated_union_names(self):
        with pytest.raises(ValueError):
            union_term([Point("A", "a", loop=False),
                        Point("B", "b", loop=False)], ["x", "x"])

    def test_refuses_a_wrong_union_name_count(self):
        # one name for two members would drop the second member
        with pytest.raises(ValueError, match="names"):
            truncate(union_term([Point("A", "a"), Point("B", "b")], ["x"]))

    def test_simple_entry_collects_every_occurrence(self):
        a = Point("A", "a")
        g = truncate(chain_term([a, Point("B", "b"), a], ["t0", "t1"], "lim"))
        assert g.atom_table["A"] == {
            "kind": "simple", "atom_label": "A", "loop_colors": ["c(a)"],
            "vertices": ["b0/v(a)", "b2/v(a)"]}
        assert list(g.atom_table) == ["lim", "A", "B"]

    def test_loop_free_point(self):
        g = truncate(Point("A", "a", loop=False))
        assert g.quiver.arrows == () and g.quiver.vertices == ("v(a)",)
        assert g.atom_table["A"]["loop_colors"] == []

    def test_chain_limit_takes_its_shallowest_occurrence(self):
        # inner occurs first at depth 2 (inside outer), then twice at
        # depth 1: its entry keeps its place but takes the vertices of
        # the first depth-1 occurrence
        inner = chain_term([Point("A", "a")] * 2, ["i0"], "inner")
        outer = chain_term([inner], [], "outer")
        g = truncate(union_term([outer, inner, inner], ["x", "y", "z"]))
        assert list(g.atom_table) == ["outer", "inner", "A"]
        assert g.atom_table["inner"]["vertices"] == ["y/b0/v(a)",
                                                     "y/b1/v(a)"]
        assert g.atom_table["outer"]["vertices"] == ["x/b0/b0/v(a)",
                                                     "x/b0/b1/v(a)"]

    def test_unlimited_chain_has_no_entry(self):
        g = truncate(chain_term([Point("A", "a"), Point("B", "b")], ["t"]))
        assert set(g.atom_table) == {"A", "B"}

    def test_composite_refuses_a_cyclic_skeleton(self):
        # a 2-cycle would truncate to one 2-dim simple no window predicts
        a, b = Point("A", "a"), Point("B", "b")
        with pytest.raises(ValueError, match="cycle"):
            composite_term((a, b), ("x", "y"), ((0, 1, "f"), (1, 0, "g")))
        with pytest.raises(ValueError, match="cycle"):
            composite_term((a, b), ("x", "y"), ((0, 0, "f"),))
        for end in ((0, 2, "f"), (-1, 0, "f")):
            with pytest.raises(UnknownVertex):
                composite_term((a, b), ("x", "y"), (end,))
        term = composite_term((a, b, a), ("x", "y", "z"),
                              ((0, 1, "f"), (1, 2, "g"), (0, 2, "h")))
        assert_truncates_as_nested(term, term)

    def test_composite_refuses_a_shared_tag_without_an_arrow(self):
        a, b = Point("A", "a"), Point("B", "b")
        with pytest.raises(ValueError, match="shared"):
            composite_term((a, b), ("x", "y"), ((0, 1, "f"),), shared=["g"])
        with pytest.raises(ValueError, match="names"):
            composite_term((a, b), ("x",), ())

    def test_raw_composite_refuses_ends_and_names_off_its_blocks(self):
        # read as an index, end -1 would be the last block, and the
        # quiver would lose a block its arrows have
        a, b = Point("A", "a"), Point("B", "b")
        for i, j in ((-1, 0), (0, -1), (2, 0), (0, 2)):
            with pytest.raises(UnknownVertex) as got:
                truncate(Composite((a, b), ("x", "y"), ((i, j, "t"),)))
            assert got.value.context == {"arrow": [i, j]}
        for names in (("x",), ("x", "y", "z")):
            with pytest.raises(ValueError, match="need 2 block names"):
                truncate(Composite((a, b), names, ((0, 1, "t"),)))

    def test_only_declared_tags_may_reuse_colors_inside_blocks(self):
        # inner mints !(s;v(a),v(b)) between its blocks; the outer
        # composite mints that color again between its own copies of
        # the two points, which only a shared tag may do
        a, b = Point("A", "a"), Point("B", "b")
        inner = composite_term((a, b), ("b0", "b1"), ((0, 1, "s"),))
        nested_ab = composite_term((inner, a, b), ("i", "b0", "b1"),
                                   ((1, 2, "s"),), shared=["s"])
        g = truncate(nested_ab)
        assert [x[:3] for x in g.quiver.arrows if x[2].startswith("!(")] == [
            ("b0/v(a)", "b1/v(b)", "!(s;v(a),v(b))"),
            ("i/b0/v(a)", "i/b1/v(b)", "!(s;v(a),v(b))")]
        with pytest.raises(ColorClash) as got:
            truncate(nested_ab._replace(shared=()))
        assert got.value.context == {"color": "!(s;v(a),v(b))"}
        # a second tag clashing beside the shared one is still refused
        inner2 = composite_term((a, b), ("b0", "b1"),
                                ((0, 1, "s"), (0, 1, "u")))
        both = composite_term((inner2, a, b), ("i", "b0", "b1"),
                              ((1, 2, "s"), (1, 2, "u")), shared=["s"])
        with pytest.raises(ColorClash) as got:
            truncate(both)
        assert got.value.context == {"color": "!(u;v(a),v(b))"}


@functools.cache
def deepening_pairs():
    """(case, truncation, the same construction one step deeper), where
    a case starts with its family:
    - "acc": the acc terms of every poset with at most 4 elements at
      depths 1 to 3;
    - "general": the general terms of the same posets at depths 0 and 1
      over the windows (0, 0), (0, 1) and (-1, 1);
    - "window": the depth-1 general term over (0, 0) against the window
      grown upward to (0, 1) and downward to (-1, 0);
    - "preset": the presets at depths 1 to 3;
    - "noatom": the atom-free construction over {0, 1, 2} at depths 0
      to 3, and over {0, 1} against {0, 1, 2} at the same depths."""
    def acc(P):
        return lambda d: gen_realization_acc(P, TruncationSpec(depth=d))

    def general(P, window):
        return lambda d: gen_realization_general(P, TruncationSpec(d, window))

    def named(name):
        return lambda d: preset(name, d)

    posets = [P for n in range(1, 5) for P in all_posets(n)]
    builds = [(("acc", P.le), acc(P), range(1, 5)) for P in posets]
    builds += [(("general", P.le, window), general(P, window), range(3))
               for P in posets for window in ((0, 0), (0, 1), (-1, 1))]
    builds += [(("preset", name), named(name), range(1, 5))
               for name in PRESET_NAMES]
    builds += [(("noatom",), lambda d: gen_noatom(TruncationSpec(d, (0, 2))),
                range(5))]
    pairs = []
    for case, build, depths in builds:
        gens = [build(d) for d in depths]
        pairs += [((*case, d), shallow, deep) for d, shallow, deep
                  in zip(depths, gens, gens[1:])]
    for P in posets:
        base = general(P, (0, 0))(1)
        pairs += [(("window", P.le, wider), base, general(P, wider)(1))
                  for wider in ((0, 1), (-1, 0))]
    pairs += [(("noatom", "window", d), gen_noatom(TruncationSpec(d, (0, 1))),
               gen_noatom(TruncationSpec(d, (0, 2)))) for d in range(4)]
    return tuple(pairs)


def is_convex(quiver, vertices):
    """Whether no path of the quiver leaves the vertex set and comes
    back, by reachability on its own hub graph, independent of how
    `ColoredQuiver._blocks` are found: one node per vertex, and a hub
    per bundle with an edge from each of its sources and to each of its
    targets."""
    inside = set(vertices)
    succ = {v: [] for v in quiver.vertices}
    for src, dst, _, _ in quiver.plain:
        succ[src].append(dst)
    hubs = {}
    for k, (sources, targets, _) in enumerate(quiver.bundles):
        hubs[("hub", k)] = targets
        for v in sources:
            succ[v].append(("hub", k))
    succ.update(hubs)
    # a path leaves the set at the first vertex outside it, so a hub
    # entered from inside is passed through
    entered = {w for v in inside for w in succ[v]}
    out = {x for w in entered for x in hubs.get(w, (w,))} - inside
    todo = list(out)
    seen = set(todo)
    while todo:
        for w in succ[todo.pop()]:
            if w in inside:
                return False
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return True


class TestDeepening:
    """What ties a truncation to the infinite construction: it is the
    full subquiver of every deeper truncation on its vertices, and each
    of its vertices is a block of its own.  Its vertex set need not be
    convex in the deeper one, so its module need not be a subquotient of
    the deeper module."""

    def test_truncation_is_a_full_subquiver_of_the_next(self):
        for case, shallow, deep in deepening_pairs():
            q = shallow.quiver
            # full_subquiver reads colors, rendered from the records
            sub = full_subquiver(deep.quiver, q.vertices)
            assert (sub.vertices, sub.arrows) == (q.vertices, q.arrows), case
            assert set(q.colors) <= set(sub.colors), case
            for label, entry in shallow.atom_table.items():
                if entry["kind"] == "simple":
                    assert (deep.atom_table[label]["loop_colors"]
                            == entry["loop_colors"]), (case, label)

    def test_every_vertex_is_its_own_block(self):
        for case, shallow, deep in deepening_pairs():
            for g in (shallow, deep):
                blocks = strong_components(g.quiver)
                assert len(blocks) == len(g.quiver.vertices), case

    def test_windows_grown_downward_are_convex(self):
        down = [(case, shallow, deep) for case, shallow, deep
                in deepening_pairs() if case[0] == "window"
                and case[2] == (-1, 0)]
        assert len(down) == 24
        for case, shallow, deep in down:
            assert is_convex(deep.quiver, shallow.quiver.vertices), case

    def test_a_deeper_acc_chain_is_not_convex(self):
        # e0/b0/b1/v(e2) -> e0/b0/b2/v(e2), new at depth 3 -> e0/b1/b0/v(e2)
        chain3 = poset([("e0", "e1"), ("e1", "e2")], ["e0", "e1", "e2"])
        shallow, deep = (gen_realization_acc(chain3, TruncationSpec(depth=d))
                         for d in (2, 3))
        assert not is_convex(deep.quiver, shallow.quiver.vertices)
        assert is_convex(deep.quiver, deep.quiver.vertices)


class TestRealizationGeneral:
    def test_single_point(self):
        g = gen_realization_general(POINT, TruncationSpec(depth=1,
                                                          ladder_range=(0, 0)))
        assert list(g.quiver.vertices) == ["p/v(p)"]
        assert len(loops_of(g.quiver)) == 1

    def test_negative_depth_rejected(self):
        with pytest.raises(DepthTooSmall, match=">= 0"):
            gen_realization_general(CHAIN2, TruncationSpec(depth=-1,
                                                           ladder_range=(0, 0)))

    def test_chain2_window3_vertex_count(self):
        # derived oracle: words are (p0), (p1), (p0,i,p1) for each i
        g = gen_realization_general(CHAIN2, TruncationSpec(depth=2,
                                                           ladder_range=(-1, 1)))
        assert len(g.quiver.vertices) == 2 + 3

    def test_vertex_count_matches_word_enumeration_oracle(self):
        # independent count: alternating words over strictly increasing
        # chains with one window integer per step
        def count_words(poset, depth, window_size):
            def chains_from(e, length):
                if length == 0:
                    return 1
                return sum(chains_from(e2, length - 1)
                           for e2 in poset.elements if poset.lt(e, e2))
            total = 0
            for e in poset.elements:
                for l in range(depth + 1):
                    total += chains_from(e, l) * window_size ** l
            return total

        for poset, trunc in ((CHAIN2, TruncationSpec(2, (-1, 1))),
                             (CHAIN4, TruncationSpec(2, (0, 1))),
                             (DIAMOND, TruncationSpec(3, (0, 0)))):
            g = gen_realization_general(poset, trunc)
            lo, hi = trunc.ladder_range
            assert len(g.quiver.vertices) == \
                count_words(poset, trunc.depth, hi - lo + 1)

    def test_same_position_arrows_descend_the_well_order(self):
        # words (a, i, e) sit at a/i,e/...: the word (a, 0, c) points
        # to (a, 0, b), and nothing points back up the id order
        vee = poset([("a", "b"), ("a", "c")], ["a", "b", "c"])
        g = gen_realization_general(vee, TruncationSpec(depth=1,
                                                        ladder_range=(0, 0)))
        zero_family = [x for x in g.quiver.arrows if x[2].startswith("!(0c")]
        assert [(x[0], x[1]) for x in zero_family] == \
            [("a/0,c/v(c)", "a/0,b/v(b)")]

    def test_every_vertex_has_one_loop(self):
        g = gen_realization_general(CHAIN4, TruncationSpec(depth=2,
                                                           ladder_range=(0, 1)))
        per_vertex = {}
        for a in loops_of(g.quiver):
            per_vertex.setdefault(a[0], []).append(a[2])
        assert set(per_vertex) == set(g.quiver.vertices)
        for v, loops in per_vertex.items():
            # the word is the first element, then one i,e per step
            steps = [part for part in v.split("/") if "," in part]
            last = steps[-1].split(",")[1] if steps else v.split("/")[0]
            assert loops == [f"c({last})"], v

    def test_step_colors_shared_skip_colors_positional(self):
        g = gen_realization_general(CHAIN2, TruncationSpec(depth=1,
                                                           ladder_range=(-1, 1)))
        steps = [a for a in g.quiver.arrows if a[2].startswith("!(1c")]
        skips = [a for a in g.quiver.arrows if a[2].startswith("!(2c")]
        assert len(steps) == 2 and len({a[2] for a in steps}) == 1
        assert len(skips) == 1
        # skip colors appear once per enclosing context
        assert len({a[2] for a in skips}) == len(skips)

    def test_loop_colors_shared_across_copies(self):
        g = gen_realization_general(CHAIN2, TruncationSpec(depth=1,
                                                           ladder_range=(0, 1)))
        loops = loops_of(g.quiver)
        by_color = {}
        for a in loops:
            by_color.setdefault(a[2], []).append(a[0])
        # p1's loop sits on the bare word and on every nested copy
        assert len(by_color["c(p1)"]) == 3

    def test_window_required(self):
        with pytest.raises(WindowTooSmall):
            gen_realization_general(CHAIN2, TruncationSpec(depth=1,
                                                           ladder_range=None))

    def test_dag(self):
        g = gen_realization_general(CHAIN4, TruncationSpec(depth=3,
                                                           ladder_range=(0, 0)))
        assert loop_stripped_topo_order(g.quiver) is not None


def _color_classes(q, rename=lambda v: v):
    """The arrow set of each color, as sorted (src, dst) pairs, sorted."""
    by_color = {}
    for src, dst, color, _ in q.arrows:
        by_color.setdefault(color, []).append((rename(src), rename(dst)))
    return sorted(sorted(pairs) for pairs in by_color.values())


NOATOM_GRID = [TruncationSpec(depth=d, ladder_range=w) for d in range(5)
               for w in (None, (0, 0), (0, 2), (0, 3), (0, 4), (1, 3), (0, 5),
                         (-2, 2))]


class TestNoAtom:
    def test_depth1_window01(self):
        g = gen_noatom(TruncationSpec(depth=1, ladder_range=(0, 1)))
        assert sorted(g.quiver.vertices) == ["0/1/r/v(1)", "0/r/v(0)",
                                             "1/r/v(1)"]
        steps = [a for a in g.quiver.arrows if a[2].startswith("!(1c")]
        fans = [a for a in g.quiver.arrows if a[2].startswith("!(ic")]
        assert len(steps) == 2 and len(fans) == 1

    def test_every_vertex_one_loop_keyed_by_last_entry(self):
        g = gen_noatom(TruncationSpec(depth=2, ladder_range=(0, 2)))
        for v in g.quiver.vertices:
            loops = [a for a in g.quiver.arrows
                     if a[0] == a[1] and a[0] == v]
            assert len(loops) == 1
            # w0/.../wk/r/v(wk): the word's last entry is the block
            # name before r
            last = v.split("/")[-3]
            assert loops[0][2] == f"c({last})"

    def test_equals_the_word_tree_up_to_renaming(self):
        # word w is vertex w0/.../wk/r/v(wk); each color class of the
        # word tree is one color class of the term, and back
        for trunc in NOATOM_GRID:
            got, want = gen_noatom(trunc), word_tree(trunc)
            assert sorted(got.quiver.vertices) == sorted(
                map(renamed, want.quiver.vertices)), trunc
            assert len(got.quiver.arrows) == len(want.quiver.arrows), trunc
            assert _color_classes(got.quiver) == _color_classes(
                want.quiver, renamed), trunc
            assert {k: e["vertices"] for k, e in got.atom_table.items()} == {
                k: sorted(map(renamed, e["vertices"]))
                for k, e in want.atom_table.items()}, trunc

    def test_noetherian_family_equals_the_word_tree(self):
        # the runs computed from the window are the word tree's
        # consecutive words; loop loop[i] is the term's c(i)
        def term_loop_colors(member):
            if member["kind"] != "loop_simple":
                return member
            return {**member, "loop_colors": [
                c.replace("loop[", "c(").replace("]", ")")
                for c in member["loop_colors"]]}

        for trunc in NOATOM_GRID:
            want = word_tree(trunc).noetherian_family
            assert gen_noatom(trunc).noetherian_family == tuple(
                map(term_loop_colors, want)), trunc

    def test_step_tags_must_be_shared(self):
        # the 1c colors recur at every nesting level: without the shared
        # tags, the fresh-color rule refuses the term
        term = noatom_term([0, 1, 2], 2)
        assert term.shared == ("1c[0]", "1c[1]")
        assert term.blocks[0].shared == ("1c[1]",)

        def unshared(t):
            if isinstance(t, Point):
                return t
            return t._replace(blocks=tuple(map(unshared, t.blocks)),
                              shared=())
        with pytest.raises(ColorClash) as got:
            truncate(unshared(term))
        assert got.value.context["color"].startswith("!(1c[")

    def test_vertex_count_is_nonempty_subsets(self):
        # window {0..d}, any length: strictly increasing words are
        # exactly the nonempty subsets
        for d in (1, 2, 3):
            g = gen_noatom(TruncationSpec(depth=d, ladder_range=(0, d)))
            assert len(g.quiver.vertices) == (1 << (d + 1)) - 1

    def test_empty_window_rejected(self):
        with pytest.raises(DepthTooSmall):
            gen_noatom(TruncationSpec(depth=1, ladder_range=(1, 0)))

    def test_negative_depth_rejected(self):
        with pytest.raises(DepthTooSmall, match=">= 0"):
            gen_noatom(TruncationSpec(depth=-1, ladder_range=(0, 1)))

    def test_noetherian_family_lists_loops_and_chains(self):
        g = gen_noatom(TruncationSpec(depth=1, ladder_range=(0, 1)))
        kinds = {f["kind"] for f in g.noetherian_family}
        assert kinds == {"loop_simple", "chain"}
        loop_labels = {f["label"] for f in g.noetherian_family
                       if f["kind"] == "loop_simple"}
        assert loop_labels == {"noeth-loop(0)", "noeth-loop(1)"}

    def test_monotone(self):
        small = set(gen_noatom(TruncationSpec(depth=1, ladder_range=(0, 1)))
                    .quiver.vertices)
        big = set(gen_noatom(TruncationSpec(depth=2, ladder_range=(0, 2)))
                  .quiver.vertices)
        assert small <= big

    def test_dag(self):
        g = gen_noatom(TruncationSpec(depth=3, ladder_range=(0, 3)))
        assert loop_stripped_topo_order(g.quiver) is not None


class TestPresets:
    def test_infinite_chain_depth4(self):
        g = preset("infinite-chain", 4)
        assert len(g.quiver.vertices) == 4
        assert len(g.quiver.arrows) == 3
        assert len({a[2] for a in g.quiver.arrows}) == 3

    def test_aass_vs_asupp_depth3(self):
        g = preset("aass-vs-asupp", 3)
        assert len(g.quiver.vertices) == 4
        bundles = [a for a in g.quiver.arrows if a[2].startswith("!(")]
        # 2 inside the chain of 3 points, 3 chain vertices x 1 terminal
        assert len(bundles) == 5

    def test_max_not_open_depth2(self):
        g = preset("max-not-open", 2)
        assert len(g.quiver.vertices) == 4
        assert {a[2] for a in loops_of(g.quiver)} == {"c(0)", "c(1)"}

    def test_min_not_closed_shifted_blocks_share_colors(self):
        g = preset("min-not-closed", 2)
        # blocks are shifts 0..1 of length 2: vertices v(0),v(1) | v(1),v(2)
        assert len(g.quiver.vertices) == 4
        c1_loops = [a for a in loops_of(g.quiver) if a[2] == "c(1)"]
        assert len(c1_loops) == 2  # same loop color in both shifted copies
        assert set(g.atom_table) >= {"delta(0)", "delta(1)", "delta(2)",
                                     "gamma", "gamma'"}

    def test_no_minimal_and_no_dcc_generate(self):
        for name in ("no-minimal-atom", "no-dcc"):
            g = preset(name, 2)
            assert len(g.quiver.vertices) >= 3
            assert loop_stripped_topo_order(g.quiver) is not None

    def test_unknown_and_depth_errors(self):
        with pytest.raises(UnknownPreset):
            preset("nope", 2)
        with pytest.raises(DepthTooSmall):
            preset("infinite-chain", 0)


def test_chain_cyclic_generation_ignores_trailing_blocks():
    # in a chain of blocks with fresh bundle colors, a vector's cyclic
    # submodule is decided by its leading-block part alone
    from atomcat.linmod import FieldSpec, module_of_quiver
    from strategies import chain, cyclic_submodule
    blk = make_quiver(["u", "w"], ["cl"], [("u", "u", "cl"), ("w", "w", "cl")])
    m = module_of_quiver(chain([blk, blk, blk], tags=["t0", "t1"]),
                         FieldSpec(2))
    idx = {v: i for i, v in enumerate(m.basis_labels)}
    lead = [v for v in m.basis_labels if v.startswith("b0/")]
    trail = [v for v in m.basis_labels if v.startswith("b1/")]
    for lead_v in lead:
        for trail_v in trail:
            x = m.ops.add(m.ops.unit_vec(idx[lead_v], m.dim),
                          m.ops.unit_vec(idx[trail_v], m.dim))
            xp = m.ops.unit_vec(idx[lead_v], m.dim)
            assert cyclic_submodule(m, x).key() == \
                cyclic_submodule(m, xp).key()


def test_spectrum_dag_path_agrees_with_generic_on_realization():
    from atomcat.atomspec import _dedupe_simples, spectrum
    from atomcat.linmod import FieldSpec, composition_factors, \
        module_of_quiver
    g = gen_realization_acc(DIAMOND, TruncationSpec(depth=2))
    dag_labels = set(spectrum(g.quiver).atoms.labels())
    m = module_of_quiver(g.quiver, FieldSpec(2))
    generic = _dedupe_simples((f, [i]) for f, i in composition_factors(m))
    assert set(generic.labels()) == dag_labels


def test_all_generated_quivers_revalidate():
    gens = [
        gen_realization_acc(DIAMOND, TruncationSpec(depth=2)),
        gen_realization_general(CHAIN2, TruncationSpec(depth=2,
                                                       ladder_range=(0, 1))),
        gen_noatom(TruncationSpec(depth=2, ladder_range=(0, 2))),
    ] + [preset(n, 2) for n in ("infinite-chain", "aass-vs-asupp",
                                "no-minimal-atom", "no-dcc",
                                "max-not-open", "min-not-closed")]
    for g in gens:
        q = g.quiver
        rebuilt = make_quiver(q.vertices, q.colors, q.arrows)
        assert rebuilt == q
