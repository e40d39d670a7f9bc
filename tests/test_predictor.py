"""Symbolic spectra, order rules, claim checkers, brute crosschecks."""

import gc
import itertools
from dataclasses import replace

import pytest

from atomcat import predictor
from atomcat.errors import AtomcatError, NotFinite, UnknownElement
from atomcat.generators import (gen_noatom, gen_realization_acc,
                                gen_realization_general, preset, truncate)
from atomcat.harness import all_posets, random_poset
from atomcat.linmod import FieldSpec
from atomcat.ordertop import canonical_form, normalize_poset
from atomcat.predictor import (DiffReport, check_infinite_descent,
                               check_max_not_open, check_min_not_closed,
                               check_no_minimal_atom, check_preset_claims,
                               crosscheck, predict_noatom, predict_preset,
                               predict_realization, quotient, window)
from atomcat.quiver import GeneratedQuiver, TruncationSpec, make_quiver
from atomcat.terms import (PRESET_NAMES, Composite, Point, chain_term,
                           noatom_term, preset_term, union_term)

CHAIN2 = normalize_poset([("p0", "p1")], ["p0", "p1"])
DIAMOND = normalize_poset([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                          ["a", "b", "c", "d"])


def point(label):
    """A loop point whose simple atom is label."""
    return Point(label, label)


def union(labels):
    """The window of a union of one loop point per label."""
    return window(union_term([point(l) for l in labels], labels))


def limited(blocks, **kw):
    """The window of a chain of blocks with the limit lim."""
    tags = [f"t{i}" for i in range(len(blocks) - 1)]
    return window(chain_term(blocks, tags, "lim", **kw))


class TestDisjointUnion:
    def test_two_distinct_loop_points(self):
        out = union(["S(c0)", "S(c1)"])
        assert out.labels() == ("S(c0)", "S(c1)")
        assert not out.order.lt("S(c0)", "S(c1)")

    def test_identical_blocks_merge(self):
        # two distinct points with one label are one atom
        out = window(union_term([point("S(c)"), point("S(c)")], ["x", "y"]))
        assert out.labels() == ("S(c)",)

    def test_empty(self):
        assert union([]).labels() == ()


class TestChain:
    def test_infinite_repetition_adds_limit_below(self):
        out = limited([point("S(c)")])
        assert set(out.labels()) == {"S(c)", "lim"}
        assert out.order.lt("lim", "S(c)")
        assert {a.label: a.kind for a in out.atoms}["lim"] == "chain_limit"

    def test_finite_chain_has_no_limit(self):
        # a finite chain's spectrum is the disjoint union of its blocks
        out = window(chain_term([point("S(c)")] * 3, ["t0", "t1"]))
        assert out.labels() == ("S(c)",)
        # brute force confirms: a finite 3-chain of one loop point has a
        # single atom and nothing below it
        from atomcat.atomspec import spectrum
        from strategies import chain
        blk = make_quiver(["v"], ["c"], [("v", "v", "c")])
        rep = spectrum(chain([blk] * 3))
        assert rep.atoms.labels() == ("S(c)",)

    def test_repeating_part_of_two_blocks(self):
        out = limited([point("A"), point("B")], recurring=("A", "B"))
        assert out.order.lt("lim", "A") and out.order.lt("lim", "B")

    def test_prefix_blocks_do_not_receive_the_limit(self):
        # block A is a prefix: its atoms are left out of the recurring ones
        out = limited([point("A"), point("B")], recurring=("B",))
        assert not out.order.lt("lim", "A")
        assert out.order.lt("lim", "B")

    def test_pairwise_distinct_blocks_recur_nowhere(self):
        out = limited([point("A"), point("B")], recurring=())
        assert out.order.le == {(l, l) for l in ("A", "B", "lim")}
        assert out.chain_families[0]["recurring"] == ()

    def test_limit_is_minimal(self):
        out = limited([point("A"), point("B")])
        assert "lim" in out.order.minimal_elements()

    def test_limit_label_of_a_block_atom_refused(self):
        with pytest.raises(ValueError, match="collides"):
            limited([point("A"), point("lim")])
        with pytest.raises(ValueError, match="collides"):
            window(chain_term([chain_term([point("A")], [], "lim")], [],
                              "lim"))


class TestWindow:
    def test_leaves_no_cyclic_garbage(self):
        # the fold's values are freed by reference counting on return,
        # not kept alive until the next full collection
        poset = random_poset(4313450035427509199, 6)
        reads = {mode: lambda mode=mode: predict_realization(poset, mode)
                 for mode in ("acc", "general")}
        reads |= {name: lambda name=name: window(preset_term(name, 3))
                  for name in PRESET_NAMES}
        reads["noatom"] = lambda: window(noatom_term([0, 1, 2], 2))
        gc.collect()
        gc.disable()
        try:
            for case, read in reads.items():
                read()
                assert gc.collect() == 0, case
        finally:
            gc.enable()

    def test_repeated_block_enters_once(self):
        a = Point("A", "a")
        out = window(chain_term([a, a, a], ["t0", "t1"], "lim"))
        assert out.chain_families[0]["block_atom_sets"] == (("A",),)
        assert out.order.lt("lim", "A")

    def test_equal_but_distinct_blocks_stay_apart(self):
        out = window(chain_term([Point("A", "a"), Point("A", "a")], ["t"],
                                "lim"))
        assert out.chain_families[0]["block_atom_sets"] == (("A",), ("A",))

    def test_recurring_atoms_alone_lie_above_the_limit(self):
        blocks = [Point("A", "a"), Point("B", "b")]
        out = window(chain_term(blocks, ["t"], "lim", recurring=("B",)))
        assert not out.order.lt("lim", "A")
        assert out.order.lt("lim", "B")
        assert window(chain_term(blocks, ["t"], "lim",
                                 recurring=())).order.le \
            == {(l, l) for l in ("A", "B", "lim")}

    def test_finite_chain_and_union_are_unions(self):
        blocks = [Point("A", "a"), Point("B", "b", provenance="bee")]
        for term in (chain_term(blocks, ["t"]),
                     union_term(blocks, ["x", "y"])):
            out = window(term)
            assert out.labels() == ("A", "B") and out.chain_families == ()
            assert out.provenance == {"A": "", "B": "bee"}

    def test_min_not_closed_outer_limit_sits_below_gamma_prime_only(self):
        for depth in (1, 2, 3, 4):
            assert preset_term("min-not-closed", depth).recurring == ("gamma'",)
            sym = predict_preset("min-not-closed", depth)
            assert sym.chain_families[-1]["recurring"] == ("gamma'",)
            assert set(sym.order.up_set("gamma")) == {"gamma", "gamma'"}
            assert [f["limit"] for f in sym.chain_families] == \
                ["gamma'"] * depth + ["gamma"]

    def test_one_family_per_limit_the_deepest(self):
        # on the diamond, T(b, 0) and T(b, 1) both truncate gamma(b); the
        # depth-0 stub (blocks delta(b), nothing recurring) goes
        families = predict_realization(DIAMOND, "general").pre_quotient \
            .chain_families
        assert sorted(f["limit"] for f in families) == \
            ["gamma(a)", "gamma(b)", "gamma(c)"]
        for q in "bc":
            assert {"limit": f"gamma({q})",
                    "block_atom_sets": ((f"delta({q})",), ("gamma(d)",)),
                    "recurring": ("gamma(d)",)} in families
        # the acc window meets chain(b) inside chain(a) and on its own
        limits = [f["limit"] for f in
                  predict_realization(DIAMOND, "acc").pre_quotient
                  .chain_families]
        assert sorted(limits) == ["chain(a)", "chain(b)", "chain(c)"]

    def test_refuses_a_cyclic_skeleton_that_still_truncates(self):
        # substitution is defined on any skeleton, so a directly built
        # 2-cycle truncates, to one 2-dim simple that no window of A and
        # B predicts; the window refuses it, also inside another term
        a, b = Point("A", "a"), Point("B", "b")
        for arrows in (((0, 1, "f"), (1, 0, "g")), ((1, 1, "f"),)):
            term = Composite((a, b), ("x", "y"), arrows)
            assert len(truncate(term).quiver.arrows) == 2 + len(arrows)
            for t in (term, union_term([term, a], ["u", "v"])):
                with pytest.raises(ValueError, match="cycle"):
                    window(t)

    def test_refuses_a_quiver_leaf(self):
        # truncate takes a quiver leaf as is; it has no symbolic spectrum
        leaf = make_quiver(["v"], ["c"], [("v", "v", "c")])
        term = union_term([leaf], ["x"])
        assert truncate(term).quiver.vertices == ("x/v",)
        for t in (term, chain_term([Point("A", "a"), term], ["t"], "lim")):
            with pytest.raises(TypeError, match="quiver leaf"):
                window(t)

    def test_a_shallower_family_goes_whichever_comes_first(self):
        a, b = Point("A", "a"), Point("B", "b")
        stub = chain_term([a], [], "lim", recurring=())
        deep = chain_term([a, b], ["t"], "lim", recurring=("B",))
        for blocks in ([stub, deep], [deep, stub]):
            out = window(union_term(blocks, ["x", "y"]))
            assert out.chain_families == (
                {"limit": "lim", "block_atom_sets": (("A",), ("B",)),
                 "recurring": ("B",)},)

    def test_refuses_a_recurring_label_outside_its_blocks(self):
        # the limit may lie only below its own blocks' atoms, even when
        # a sibling of the composite holds the label
        limited_a = Composite((Point("A", "a"),), ("b0",), (), "L", ("B",))
        for term in (limited_a, union_term([limited_a, Point("B", "b")],
                                           ["x", "y"])):
            with pytest.raises(UnknownElement) as info:
                window(term)
            assert info.value.context == {"pair": ["L", "B"]}
        # its own limit is no label outside its blocks
        out = window(Composite((Point("A", "a"),), ("b0",), (), "L",
                               ("A", "L")))
        assert out.order.lt("L", "A")

    def test_the_first_atom_of_a_label_stays(self):
        # a sibling's limit may carry a point's label: the union keeps
        # the atom of its first block that has the label
        point = Point("L", "l")
        limited = Composite((Point("A", "a"),), ("b0",), (), "L")
        for blocks, kind in (([point, limited], "simple"),
                             ([limited, point], "chain_limit")):
            out = window(union_term(blocks, ["x", "y"]))
            assert {a.label: a.kind for a in out.atoms}["L"] == kind


class TestQuotient:
    CHAIN = predictor._spectrum(
        [predictor.SymAtom(l, "simple") for l in "abc"],
        [("a", "b"), ("b", "c")],
        {"c": "top", "a": "bottom", "b": "middle"})

    def test_absorbs_the_up_closure(self):
        out = quotient(self.CHAIN, {"b"})
        assert out.labels() == ("a",)
        assert out.order.le == {("a", "a")}

    def test_absorbing_the_minimum_leaves_nothing(self):
        assert quotient(self.CHAIN, {"a"}).labels() == ()

    def test_absorbing_nothing_changes_nothing(self):
        out = quotient(self.CHAIN, set())
        assert out.labels() == ("a", "b", "c")
        assert out.order.le == self.CHAIN.order.le

    def test_provenance_in_label_order(self):
        out = quotient(self.CHAIN, set())
        assert list(out.provenance.items()) == [
            ("a", "bottom"), ("b", "middle"), ("c", "top")]
        assert list(quotient(self.CHAIN, {"c"}).provenance) == ["a", "b"]


def all_posets_up_to(n):
    """Every poset on <= n labeled elements via upward-closed pair sets."""
    out = []
    for size in range(1, n + 1):
        elements = [f"e{i}" for i in range(size)]
        idx_pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        for keep in itertools.product([0, 1], repeat=len(idx_pairs)):
            pairs = [(elements[i], elements[j])
                     for (i, j), k in zip(idx_pairs, keep) if k]
            try:
                out.append(normalize_poset(pairs, elements))
            except Exception:
                continue
    # dedupe up to equality of relations (labeled)
    seen = {}
    for p in out:
        seen[(p.elements, p.le)] = p
    return list(seen.values())


class TestRealizationPrediction:
    def test_single_point(self):
        res = predict_realization(normalize_poset([], ["p"]), "acc")
        assert res.spectrum.labels() == ("simple(p)",)

    @pytest.mark.parametrize("mode", ["acc", "general"])
    def test_refuses_the_ids_the_truncation_refuses(self, mode):
        # "a/b" would read as a vertex path in the truncation's names
        bad = normalize_poset([("x", "a/b")], ["x", "a/b"])
        build = {"acc": gen_realization_acc,
                 "general": gen_realization_general}[mode]
        with pytest.raises(ValueError, match="structural"):
            build(bad, TruncationSpec(depth=1, ladder_range=(0, 0)))
        with pytest.raises(ValueError, match="structural"):
            predict_realization(bad, mode)

    def test_refuses_a_non_poset_and_an_unknown_mode(self):
        with pytest.raises(NotFinite):
            predict_realization({"elements": ["p0"], "le": []})
        with pytest.raises(ValueError, match="unknown realization mode: dcc"):
            predict_realization(CHAIN2, "dcc")

    def test_chain2_acc_order(self):
        res = predict_realization(CHAIN2, "acc")
        assert set(res.spectrum.labels()) == {"chain(p0)", "simple(p1)"}
        assert res.spectrum.order.lt("chain(p0)", "simple(p1)")

    def test_acc_order_isomorphic_spot_checks(self):
        for p in (CHAIN2, DIAMOND,
                  normalize_poset([], ["x", "y", "z"])):
            res = predict_realization(p, "acc")
            w = res.witness
            for a in p.elements:
                for b in p.elements:
                    assert p.leq(a, b) == res.spectrum.order.leq(w[a], w[b])

    def test_general_diamond(self):
        res = predict_realization(DIAMOND, "general")
        assert len(res.spectrum.labels()) == 4
        w = res.witness
        for a in DIAMOND.elements:
            for b in DIAMOND.elements:
                assert DIAMOND.leq(a, b) == \
                    res.spectrum.order.leq(w[a], w[b])
        # the pre-quotient window also carries the non-maximal simples,
        # delta(b) above gamma(a) exactly when a < b
        pre = res.pre_quotient
        assert set(pre.labels()) >= set(res.spectrum.labels())
        for a in DIAMOND.elements:
            for b in "abc":
                assert DIAMOND.lt(a, b) == \
                    pre.order.lt(f"gamma({a})", f"delta({b})")

    def test_general_witness_isomorphism_via_backtracker(self):
        res = predict_realization(DIAMOND, "general")
        assert canonical_form(DIAMOND)[0] == \
            canonical_form(res.spectrum.order)[0]

    def test_chain_limits_minimal_in_their_chain(self):
        res = predict_realization(DIAMOND, "acc")
        for fam in res.spectrum.chain_families:
            limit = fam["limit"]
            for b in fam["recurring"]:
                assert res.spectrum.order.leq(limit, b)


class TestCrosscheck:
    def test_every_five_element_poset(self):
        # acc at depths 2 and 3 over GF(2) and GF(3); general at depth 2
        # over the window (0, 0)
        for P in all_posets(5):
            acc = predict_realization(P, "acc").pre_quotient
            for depth in (2, 3):
                gen = gen_realization_acc(P, TruncationSpec(depth=depth))
                for p in (2, 3):
                    diff = crosscheck(acc, gen, FieldSpec(p))
                    assert diff.ok(), (P.le, depth, p)
            gen = gen_realization_general(
                P, TruncationSpec(depth=2, ladder_range=(0, 0)))
            diff = crosscheck(predict_realization(P, "general").pre_quotient,
                              gen)
            assert diff.ok(), (P.le, "general")

    def test_acc_crosscheck_never_expands_arrows(self):
        # the truncation keeps its bundles as records; blocks and
        # spectra read them without making each arrow or color
        posets = [P for n in range(1, 5) for P in all_posets(n)]
        for P in posets + [random_poset(s, 6) for s in range(4)]:
            acc = predict_realization(P, "acc").pre_quotient
            for depth in (2, 3):
                gen = gen_realization_acc(P, TruncationSpec(depth=depth))
                assert crosscheck(acc, gen).ok(), (P.le, depth)
                assert "arrows" not in vars(gen.quiver), (P.le, depth)
                assert "colors" not in vars(gen.quiver), (P.le, depth)

    def test_chain2_acc_depth3(self):
        g = gen_realization_acc(CHAIN2, TruncationSpec(depth=3))
        res = predict_realization(CHAIN2, "acc")
        diff = crosscheck(res.pre_quotient, g)
        assert diff.matched == ("simple(p1)",)
        assert diff.missing_in_brute == ("chain(p0)",)
        assert diff.unexpected == () and diff.order_violations == ()

    def test_finite_loops_chain_all_matched(self):
        q = make_quiver(
            ["v1", "v2", "v3"], ["c1", "c2", "c3", "b1", "b2"],
            [("v1", "v1", "c1"), ("v2", "v2", "c2"), ("v3", "v3", "c3"),
             ("v1", "v2", "b1"), ("v2", "v3", "b2")])
        table = {f"delta({i})": {"kind": "simple",
                                 "atom_label": f"delta({i})",
                                 "loop_colors": [f"c{i}"],
                                 "vertices": [f"v{i}"]}
                 for i in (1, 2, 3)}
        gen = GeneratedQuiver(q, table)
        sym = union([f"delta({i})" for i in (1, 2, 3)])
        diff = crosscheck(sym, gen)
        assert set(diff.matched) == {"delta(1)", "delta(2)", "delta(3)"}
        assert diff.missing_in_brute == () and diff.unexpected == ()

    def test_corrupted_atom_table_yields_unexpected(self):
        g = gen_realization_acc(CHAIN2, TruncationSpec(depth=2))
        bad_table = {k: dict(v) for k, v in g.atom_table.items()}
        bad_table["simple(p1)"]["loop_colors"] = ["c(WRONG)"]
        bad = GeneratedQuiver(g.quiver, bad_table)
        res = predict_realization(CHAIN2, "acc")
        diff = crosscheck(res.pre_quotient, bad)
        assert diff.unexpected != ()

    def test_general_mode_smallest_window(self):
        g = gen_realization_general(DIAMOND, TruncationSpec(depth=3,
                                                            ladder_range=(0, 0)))
        res = predict_realization(DIAMOND, "general")
        diff = crosscheck(res.pre_quotient, g)
        assert diff.unexpected == () and diff.order_violations == ()

    def test_fan_beyond_the_listing_cap(self):
        # a bottom below 17 maximal elements: 17 discrete atoms
        leaves = [f"m{i:02d}" for i in range(17)]
        fan = normalize_poset([("b", m) for m in leaves], ["b"] + leaves)
        g = gen_realization_acc(fan, TruncationSpec(depth=2))
        diff = crosscheck(predict_realization(fan, "acc").pre_quotient, g)
        assert diff.ok()
        assert len(diff.matched) == 17

    def test_monotone_matched_sets(self):
        res = predict_realization(DIAMOND, "acc")
        matched = []
        for d in (1, 2, 3):
            g = gen_realization_acc(DIAMOND, TruncationSpec(depth=d))
            matched.append(set(crosscheck(res.pre_quotient, g).matched))
        assert matched[0] <= matched[1] <= matched[2]


class TestNoAtomPrediction:
    def test_post_quotient_empty_pre_nonzero(self):
        tr = TruncationSpec(depth=2, ladder_range=(0, 2))
        pred = predict_noatom(tr)
        assert pred.post_quotient_empty
        assert len(pred.pre_spectrum.labels()) > 0
        gen = gen_noatom(tr)
        assert len(gen.quiver.vertices) > 0  # nonzero module witness

    def test_absorption_at_depths(self):
        # every truncation atom is credited to a loop simple of the window
        for p, d in itertools.product((2, 3), (1, 2, 3)):
            tr = TruncationSpec(depth=d, ladder_range=(0, d))
            diff = crosscheck(predict_noatom(tr).pre_spectrum,
                              gen_noatom(tr), FieldSpec(p))
            assert diff.matched and diff.ok(), (p, d)
            assert set(diff.matched) == {f"delta({i})" for i in range(d + 1)}

    def test_uncredited_loop_simple_is_unexpected(self):
        # a table that lacks delta(0) leaves the brute S(c(0)) uncredited
        tr = TruncationSpec(depth=1, ladder_range=(0, 1))
        gen = gen_noatom(tr)
        crippled = replace(gen, atom_table={
            k: v for k, v in gen.atom_table.items() if k != "delta(0)"})
        diff = crosscheck(predict_noatom(tr).pre_spectrum, crippled)
        assert diff.unexpected == ("S(c(0))",)
        assert not diff.ok()

    def test_absorption_reads_loop_colors_not_labels(self, monkeypatch):
        # each loop simple goes to the family's loop simple with its
        # loop color, whatever the point is called
        def renamed(ints, depth):
            term = noatom_term(ints, depth)
            return term._replace(blocks=tuple(
                n._replace(blocks=(n.blocks[0]._replace(
                    label=f"atom<{n.blocks[0].label}>"), *n.blocks[1:]))
                for n in term.blocks))
        monkeypatch.setattr(predictor, "noatom_term", renamed)
        pred = predict_noatom(TruncationSpec(depth=1, ladder_range=(0, 1)))
        assert pred.absorption == {"atom<delta(0)>": "noeth-loop(0)",
                                   "atom<delta(1)>": "noeth-loop(1)"}

    def test_simple_atoms_are_the_window_of_the_term(self):
        tr = TruncationSpec(depth=2, ladder_range=(0, 2))
        pre = predict_noatom(tr).pre_spectrum
        sym = window(noatom_term([0, 1, 2], 2))
        assert [a for a in pre.atoms if a.kind == "simple"] == list(sym.atoms)
        assert {a.label: pre.provenance[a.label] for a in sym.atoms} == \
            sym.provenance

    def test_crosscheck_matches_deltas(self):
        tr = TruncationSpec(depth=1, ladder_range=(0, 1))
        diff = crosscheck(predict_noatom(tr).pre_spectrum, gen_noatom(tr))
        assert set(diff.matched) == {"delta(0)", "delta(1)"}
        assert diff.unexpected == ()


class TestPresetPredictions:
    def test_infinite_chain_order(self):
        sym = predict_preset("infinite-chain", 4)
        assert sym.order.lt("gamma", "delta")

    def test_aass_vs_asupp_claims(self):
        sym = predict_preset("aass-vs-asupp", 3)
        checks = check_preset_claims("aass-vs-asupp", sym, 3)
        assert all(checks.values())

    def test_no_minimal_atom(self):
        sym = predict_preset("no-minimal-atom", 4)
        assert check_no_minimal_atom(sym)
        # negative control: a spectrum with an honest minimal atom
        assert not check_no_minimal_atom(
            predict_realization(CHAIN2, "acc").spectrum)

    def test_no_dcc(self):
        sym = predict_preset("no-dcc", 4)
        assert check_infinite_descent(sym)
        # negative control: a claimed descent of three atoms
        descent = sym.claims["infinite_descent"]
        assert not check_infinite_descent(
            replace(sym, claims={"infinite_descent": descent[:3]}))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_no_dcc_claim_needs_a_descent_of_four(self, depth):
        # the window p0 > p1 > p2 > p3 is fixed, so every depth claims a
        # descent of four atoms and witnesses it
        sym = predict_preset("no-dcc", depth)
        held = check_preset_claims("no-dcc", sym, depth)
        assert len(sym.claims["infinite_descent"]) == 4
        assert held == {"no_dcc": True}
        assert held["no_dcc"] == check_infinite_descent(sym)

    def test_max_not_open(self):
        sym = predict_preset("max-not-open", 4)
        assert check_max_not_open(sym)
        # negative control: discrete spectra have open maximal sets
        assert not check_max_not_open(union(["A", "B"]))

    def test_min_not_closed(self):
        sym = predict_preset("min-not-closed", 4)
        assert check_min_not_closed(sym)
        assert not check_min_not_closed(union(["A", "B"]))
        # minimal set: outer limit plus every loop simple
        minimal = set(sym.order.minimal_elements())
        assert "gamma" in minimal
        assert all(f"delta({i})" in minimal for i in range(4))
        assert "gamma'" not in minimal

    def test_all_presets_crosscheck_at_depths(self):
        for name in ("infinite-chain", "aass-vs-asupp", "no-minimal-atom",
                     "no-dcc", "max-not-open", "min-not-closed"):
            for depth in (1, 2, 3, 4):
                diff = crosscheck(predict_preset(name, depth),
                                  preset(name, depth))
                assert diff.unexpected == (), (name, depth)
                assert diff.order_violations == (), (name, depth)

    def test_preset_missing_atoms_are_chain_limits(self):
        for name in ("infinite-chain", "max-not-open", "min-not-closed"):
            sym = predict_preset(name, 2)
            kind = {a.label: a.kind for a in sym.atoms}
            diff = crosscheck(sym, preset(name, 2))
            for lbl in diff.missing_in_brute:
                assert kind[lbl] == "chain_limit", (name, lbl)


def _refusal(call):
    with pytest.raises(AtomcatError) as err:
        call()
    return type(err.value), err.value.context


@pytest.mark.parametrize("name, depth", [(n, 0) for n in PRESET_NAMES]
                         + [("nope", 0), ("nope", 1)])
def test_preset_refusals_match_the_truncation(name, depth):
    """The symbolic side refuses a preset request exactly as `preset`
    does: depth before name, with the same context."""
    want = _refusal(lambda: preset(name, depth))
    assert _refusal(lambda: predict_preset(name, depth)) == want
    sym = predict_preset("infinite-chain", 1)
    assert _refusal(lambda: check_preset_claims(name, sym, depth)) == want


def test_diffreport_json_roundtrip():
    import json
    d = DiffReport(("a",), ("b",), (), (("x", "y"),))
    data = d.to_json()
    assert data["matched"] == ["a"] and data["missing_in_brute"] == ["b"]
    assert json.loads(json.dumps(data)) == data
    assert not d.ok()
    assert DiffReport((), (), (), ()).ok()
