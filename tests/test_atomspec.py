"""Atom layer tests.

The oracles here implement the definitions verbatim and exhaustively:
common subobjects by scanning all submodule pairs, monoformness by
scanning every quotient, atom supports by scanning every nested pair of
lattice members.  The fast implementations must agree on every small
input.
"""

import pytest

from atomcat.atomspec import (Atom, asupp, aass, atom_equivalent, atom_of,
                              canonical_simple_form,
                              has_common_nonzero_subobject, is_monoform,
                              is_uniform, localize, localizing_subcategories,
                              membership, report_from_parts, spectrum)
from atomcat.errors import NotMonoform, UnknownAtom, ZeroModule
from atomcat.linmod import (FdModule, FieldSpec, module_of_quiver,
                            submodule_as_module, submodule_lattice,
                            subquotient)
from atomcat.quiver import disjoint_union, make_quiver
from iso_oracle import Tristate, is_isomorphic

GF2 = FieldSpec(2)


def loop_quiver(color="c"):
    return make_quiver(["v"], [color], [("v", "v", color)])


def chain_quiver(k):
    vs = [f"v{i+1}" for i in range(k)]
    arrows = [(vs[i], vs[i + 1], f"c{i+1}{i+2}") for i in range(k - 1)]
    return make_quiver(vs, [a[2] for a in arrows], arrows)


def loops_chain_quiver():
    """Three looped vertices joined by a path, distinct loop colors."""
    return make_quiver(
        ["v1", "v2", "v3"], ["c1", "c2", "c3", "c12", "c23"],
        [("v1", "v1", "c1"), ("v2", "v2", "c2"), ("v3", "v3", "c3"),
         ("v1", "v2", "c12"), ("v2", "v3", "c23")])


def monoform_dim2():
    """v1 -> v2 with a loop only on v2: socle and top are distinct."""
    q = make_quiver(["v1", "v2"], ["a", "t"],
                    [("v1", "v2", "a"), ("v2", "v2", "t")])
    return module_of_quiver(q, GF2)


# -- literal oracles ----------------------------------------------------------

def brute_common(m, n):
    for s in submodule_lattice(m).nonzero():
        for t in submodule_lattice(n).nonzero():
            if is_isomorphic(submodule_as_module(s),
                             submodule_as_module(t)) is Tristate.YES:
                return True
    return False


def brute_monoform(h):
    lat = submodule_lattice(h)
    for sub in lat.nonzero():
        quot = subquotient(h, sub, [s for s in lat
                                    if s.dim == h.dim][0])
        if quot.dim and brute_common(h, quot):
            return False
    return True


def brute_uniform(u):
    from atomcat.linmod import intersect_submodules
    nz = submodule_lattice(u).nonzero()
    for a in nz:
        for b in nz:
            if intersect_submodules(a, b).dim == 0:
                return False
    return True


def brute_asupp_class_count(m):
    """Number of atom classes among all monoform subquotients."""
    lat = submodule_lattice(m)
    monoforms = []
    for low in lat:
        for upp in lat:
            if upp.dim <= low.dim or not upp.contains(low):
                continue
            h = subquotient(m, low, upp)
            if h.dim and brute_monoform(h):
                monoforms.append(h)
    classes = []
    for h in monoforms:
        for cls in classes:
            if brute_common(h, cls[0]):
                cls.append(h)
                break
        else:
            classes.append([h])
    return classes


class TestCommonSubobject:
    def test_simple_with_itself(self):
        s = module_of_quiver(loop_quiver(), GF2)
        assert has_common_nonzero_subobject(s, s)

    def test_distinct_loop_colors(self):
        a = module_of_quiver(loop_quiver("c"), GF2)
        b = module_of_quiver(loop_quiver("c'"), GF2)
        assert not has_common_nonzero_subobject(a, b)

    def test_chain_and_its_top(self):
        m = module_of_quiver(chain_quiver(2), GF2)
        lat = submodule_lattice(m)
        socle = [s for s in lat if s.dim == 1][0]
        top = subquotient(m, socle, [s for s in lat if s.dim == 2][0])
        assert has_common_nonzero_subobject(m, top)

    def test_agrees_with_brute_oracle(self):
        mods = [module_of_quiver(q, GF2) for q in
                (loop_quiver(), loop_quiver("d"), chain_quiver(2),
                 loops_chain_quiver())] + [monoform_dim2()]
        for a in mods:
            for b in mods:
                assert has_common_nonzero_subobject(a, b) == brute_common(a, b)


class TestMonoform:
    def test_one_dim_always(self):
        assert is_monoform(module_of_quiver(loop_quiver(), GF2))

    def test_plain_chain2_fails(self):
        # socle and quotient-by-socle are the same zero-action simple
        assert not is_monoform(module_of_quiver(chain_quiver(2), GF2))

    def test_shared_loop_chain_fails(self):
        q = make_quiver(["v1", "v2"], ["cL", "b"],
                        [("v1", "v1", "cL"), ("v2", "v2", "cL"),
                         ("v1", "v2", "b")])
        assert not is_monoform(module_of_quiver(q, GF2))

    def test_distinct_layers_pass(self):
        assert is_monoform(monoform_dim2())

    def test_zero_module_rejected(self):
        with pytest.raises(ZeroModule):
            is_monoform(FdModule(GF2, 0, (), {}))

    def test_agrees_with_brute_oracle(self):
        mods = [module_of_quiver(q, GF2) for q in
                (loop_quiver(), chain_quiver(2), chain_quiver(3),
                 loops_chain_quiver())] + [monoform_dim2()]
        for m in mods:
            assert is_monoform(m) == brute_monoform(m)


class TestUniform:
    def test_simple(self):
        assert is_uniform(module_of_quiver(loop_quiver(), GF2))

    def test_direct_sum_fails(self):
        q = disjoint_union([loop_quiver("c"), loop_quiver("d")])
        assert not is_uniform(module_of_quiver(q, GF2))

    def test_chain2(self):
        assert is_uniform(module_of_quiver(chain_quiver(2), GF2))

    def test_zero_module_rejected(self):
        with pytest.raises(ZeroModule):
            is_uniform(FdModule(GF2, 0, (), {}))

    def test_agrees_with_brute_oracle(self):
        mods = [module_of_quiver(q, GF2) for q in
                (loop_quiver(), chain_quiver(2), loops_chain_quiver())]
        for m in mods:
            assert is_uniform(m) == brute_uniform(m)


class TestAtomEquivalence:
    def test_self(self):
        s = module_of_quiver(loop_quiver(), GF2)
        assert atom_equivalent(s, s)

    def test_distinct_loops(self):
        a = module_of_quiver(loop_quiver("c"), GF2)
        b = module_of_quiver(loop_quiver("d"), GF2)
        assert not atom_equivalent(a, b)

    def test_simple_vs_monoform_with_that_socle(self):
        socle_class = module_of_quiver(loop_quiver("t"), GF2)
        assert atom_equivalent(socle_class, monoform_dim2())

    def test_not_monoform_rejected(self):
        m = module_of_quiver(chain_quiver(2), GF2)
        with pytest.raises(NotMonoform):
            atom_equivalent(m, m)


class TestSupports:
    def test_chain3_single_atom(self):
        m = module_of_quiver(chain_quiver(3), GF2)
        assert len(asupp(m)) == 1

    def test_loops_chain_three_atoms(self):
        m = module_of_quiver(loops_chain_quiver(), GF2)
        assert len(asupp(m)) == 3

    def test_zero_module_empty(self):
        assert len(asupp(FdModule(GF2, 0, (), {}))) == 0

    def test_aass_nonempty_on_nonzero(self):
        for q in (chain_quiver(2), loops_chain_quiver(), loop_quiver()):
            assert len(aass(module_of_quiver(q, GF2))) >= 1

    def test_uniform_aass_singleton(self):
        assert len(aass(monoform_dim2())) == 1

    def test_aass_subset_asupp(self):
        for q in (chain_quiver(3), loops_chain_quiver()):
            m = module_of_quiver(q, GF2)
            assert set(aass(m).labels()) <= set(asupp(m).labels())

    def test_asupp_class_count_matches_brute(self):
        for q in (chain_quiver(2), chain_quiver(3), loops_chain_quiver()):
            m = module_of_quiver(q, GF2)
            assert len(asupp(m)) == len(brute_asupp_class_count(m))


class TestSpectrum:
    def test_chain_of_three(self):
        rep = spectrum(chain_quiver(3))
        assert len(rep.atoms) == 1
        assert len(rep.opens.opens) == 2
        assert all(f["represented_by_simple"] for f in rep.flags.values())

    def test_loops_discrete(self):
        rep = spectrum(loops_chain_quiver())
        assert len(rep.atoms) == 3
        assert len(rep.opens.opens) == 8
        assert all(not rep.order.lt(a, b)
                   for a in rep.order.elements for b in rep.order.elements)

    def test_empty_quiver(self):
        rep = spectrum(make_quiver([], [], []))
        assert len(rep.atoms) == 0
        assert rep.opens.opens == (0,)

    def test_dag_path_equals_generic_path(self):
        # force the generic composition-factor path by adding a 2-cycle
        q = loops_chain_quiver()
        rep_dag = spectrum(q)
        m = module_of_quiver(q, GF2)
        from atomcat.atomspec import _dedupe_simples
        from atomcat.linmod import composition_factors
        generic = _dedupe_simples(list(composition_factors(m)))
        assert set(generic.labels()) == set(rep_dag.atoms.labels())

    def test_cyclic_quiver_works(self):
        q = make_quiver(["a", "b"], ["c", "d"],
                        [("a", "b", "c"), ("b", "a", "d")])
        rep = spectrum(q)
        assert len(rep.atoms) >= 1

    def test_json(self):
        data = spectrum(chain_quiver(2)).to_json()
        assert data["atoms"][0]["label"] == "S()"
        assert data["order"] == []


def two_chain_report():
    """Hand-built spectrum alpha < beta (the window of an infinite
    chain construction)."""
    a = Atom("alpha", FdModule(GF2, 1, ("s0",), {}))
    b = Atom("beta", module_of_quiver(loop_quiver("t"), GF2))
    return report_from_parts([a, b], [(), ("beta",), ("alpha", "beta")])


class TestLocalize:
    def test_discrete_three_atoms(self):
        rep = spectrum(loops_chain_quiver())
        lbl = rep.atoms.labels()[0]
        loc = localize(rep, lbl)
        assert loc.atoms.labels() == (lbl,)

    def test_two_chain_at_top(self):
        rep = two_chain_report()
        assert rep.order.lt("alpha", "beta")
        loc = localize(rep, "beta")
        assert set(loc.atoms.labels()) == {"alpha", "beta"}
        # beta is the unique greatest element after localizing
        assert loc.order.maximal_elements() == ("beta",)

    def test_two_chain_at_bottom(self):
        loc = localize(two_chain_report(), "alpha")
        assert loc.atoms.labels() == ("alpha",)

    def test_unknown(self):
        with pytest.raises(UnknownAtom):
            localize(two_chain_report(), "gamma")


class TestLocalizingSubcategories:
    def test_discrete_count(self):
        rep = spectrum(loops_chain_quiver())
        assert len(localizing_subcategories(rep)) == 8

    def test_membership_whole(self):
        q = loops_chain_quiver()
        rep = spectrum(q)
        m = module_of_quiver(q, GF2)
        assert membership(m, rep.atoms.labels())

    def test_membership_simple_iff_in_set(self):
        rep = spectrum(loops_chain_quiver())
        s = module_of_quiver(loop_quiver("c1"), GF2)
        cls = asupp(s).labels()[0]
        assert membership(s, (cls,))
        others = tuple(l for l in rep.atoms.labels() if l != cls)
        assert not membership(s, others)


def test_flags_match_point_topology_characterization():
    # on a finite spectrum: maximal iff the singleton is open, minimal
    # iff it is closed
    reports = [spectrum(loops_chain_quiver()), spectrum(chain_quiver(3)),
               two_chain_report(), localize(two_chain_report(), "beta")]
    for rep in reports:
        for lbl, f in rep.flags.items():
            assert f["maximal"] == f["open_point"], lbl
            assert f["minimal"] == f["closed_point"], lbl


def test_canonical_form_dim1_labels():
    lbl, rep = canonical_simple_form(module_of_quiver(loop_quiver("c"), GF2))
    assert lbl == "S(c)"
    lbl0, _ = canonical_simple_form(FdModule(GF2, 1, ("x",), {}))
    assert lbl0 == "S()"


def test_canonical_form_dim2_basis_independent():
    import numpy as np
    a = FdModule(GF2, 2, ("a", "b"),
                 {"c": GF2.ops.pack(np.array([[0, 1], [1, 1]]), 2)})
    # conjugate by [[1,1],[0,1]]
    t = np.array([[1, 1], [0, 1]])
    tinv = np.array([[1, 1], [0, 1]])
    conj = (tinv @ np.array([[0, 1], [1, 1]]) @ t) % 2
    b = FdModule(GF2, 2, ("a", "b"), {"c": GF2.ops.pack(conj, 2)})
    la, ra = canonical_simple_form(a)
    lb, rb = canonical_simple_form(b)
    assert la == lb
    assert ra.key() == rb.key()


def test_atom_of_monoform():
    atom = atom_of(monoform_dim2())
    assert atom.label == "S(t)"


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def small_quivers(draw):
    nv = draw(st.integers(1, 3))
    nc = draw(st.integers(1, 2))
    vs = [f"v{i}" for i in range(nv)]
    cs = [f"c{i}" for i in range(nc)]
    arrows = []
    for v in vs:
        for w in vs:
            for c in cs:
                if draw(st.booleans()):
                    arrows.append((v, w, c))
    return make_quiver(vs, cs, arrows)


@settings(max_examples=60, deadline=None)
@given(small_quivers())
def test_property_monoform_implies_uniform_and_aass_inside_asupp(q):
    m = module_of_quiver(q, GF2)
    if m.dim and is_monoform(m):
        assert is_uniform(m)
    assert set(aass(m).labels()) <= set(asupp(m).labels())
    if m.dim:
        assert len(aass(m)) >= 1


@settings(max_examples=40, deadline=None)
@given(small_quivers())
def test_property_spectrum_kolmogorov(q):
    from atomcat.ordertop import is_kolmogorov
    rep = spectrum(q)
    assert is_kolmogorov(rep.opens)
    assert rep.opens.validate()


@settings(max_examples=40, deadline=None)
@given(small_quivers(), small_quivers())
def test_property_direct_sum_support(q1, q2):
    union = disjoint_union([q1, q2])
    got = set(asupp(module_of_quiver(union, GF2)).labels())
    want = set(asupp(module_of_quiver(q1, GF2)).labels()) | \
        set(asupp(module_of_quiver(q2, GF2)).labels())
    assert got == want


def test_spectrum_over_gf3():
    f3 = FieldSpec(3)
    q = make_quiver(["v", "w"], ["c", "d"],
                    [("v", "v", "c", 2), ("w", "w", "d", 1),
                     ("v", "w", "c", 1)])
    rep = spectrum(q, f3)
    assert set(rep.atoms.labels()) == {"S(c=2)", "S(d)"}
    m = module_of_quiver(q, f3)
    assert set(asupp(m).labels()) == set(rep.atoms.labels())
    # the unique minimal submodule is the w line, so one associated atom
    assert aass(m).labels() == ("S(d)",)


def test_spectrum_report_json_roundtrip():
    import json
    from atomcat.atomspec import report_from_json
    for q in (loops_chain_quiver(), chain_quiver(3)):
        rep = spectrum(q)
        data = json.loads(json.dumps(rep.to_json()))
        back = report_from_json(data)
        assert back.to_json() == rep.to_json()


# -- exact canonical forms at p = 2 and p = 3 --------------------------------

import numpy as np

from atomcat import modp
from atomcat.linmod import hom_basis


@st.composite
def simple_actions(draw, p, dims):
    """Dense actions of a simple module: a k-cycle with nonzero weights
    and a loop on the first line (any nonzero invariant subspace reaches
    that line along the cycle, then every line), plus up to two random
    colors, which keep it simple."""
    k = draw(st.sampled_from(dims))
    nonzero = st.integers(1, p - 1)
    cycle = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        cycle[i, (i + 1) % k] = draw(nonzero)
    loop = np.zeros((k, k), dtype=np.int64)
    loop[0, 0] = draw(nonzero)
    dense = {"c": cycle, "d": loop}
    for j in range(draw(st.integers(0, 2))):
        entries = draw(st.lists(st.integers(0, p - 1),
                                min_size=k * k, max_size=k * k))
        dense[f"e{j}"] = np.array(entries, dtype=np.int64).reshape(k, k)
    return dense


@st.composite
def base_changes(draw, p, k):
    """An invertible T = P L U over GF(p) and its inverse."""
    low = np.eye(k, dtype=np.int64)
    up = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        up[i, i] = draw(st.integers(1, p - 1))
        for j in range(k):
            if j < i:
                low[i, j] = draw(st.integers(0, p - 1))
            elif j > i:
                up[i, j] = draw(st.integers(0, p - 1))
    perm = np.eye(k, dtype=np.int64)[draw(st.permutations(range(k)))]
    t = perm @ low @ up % p
    red, _ = modp.rref(np.hstack([t, np.eye(k, dtype=np.int64)]), p)
    return t, red[:, k:]


def module_from_dense(p, dense):
    field = FieldSpec(p)
    k = next(iter(dense.values())).shape[0]
    return FdModule(field, k, tuple(f"b{i}" for i in range(k)),
                    {c: field.ops.pack(m % p, k) for c, m in dense.items()})


def simple_pair(data, dims):
    """Two simples over one field: the second is either a base change
    of the first or drawn on its own."""
    p = data.draw(st.sampled_from((2, 3)))
    dense = data.draw(simple_actions(p, dims))
    if data.draw(st.booleans()):
        k = dense["c"].shape[0]
        t, tinv = data.draw(base_changes(p, k))
        other = {c: t @ m @ tinv % p for c, m in dense.items()}
    else:
        other = data.draw(simple_actions(p, dims))
    return module_from_dense(p, dense), module_from_dense(p, other)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_canonical_form_ignores_base_change(data):
    p = data.draw(st.sampled_from((2, 3)))
    dense = data.draw(simple_actions(p, range(2, 7)))
    k = dense["c"].shape[0]
    t, tinv = data.draw(base_changes(p, k))
    a = module_from_dense(p, dense)
    b = module_from_dense(p, {c: t @ m @ tinv % p for c, m in dense.items()})
    la, ra = canonical_simple_form(a)
    lb, rb = canonical_simple_form(b)
    assert la == lb
    assert ra.key() == rb.key()
    assert la.startswith(f"S[{k}]") and "?" not in la
    assert hom_basis(a, ra)  # the representative is a copy of a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_equal_labels_iff_nonzero_hom(data):
    a, b = simple_pair(data, range(1, 6))
    same = canonical_simple_form(a)[0] == canonical_simple_form(b)[0]
    assert same == bool(hom_basis(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_labels_agree_with_exhaustive_iso_oracle(data):
    a, b = simple_pair(data, range(1, 4))
    same = canonical_simple_form(a)[0] == canonical_simple_form(b)[0]
    assert same == (is_isomorphic(a, b) is Tristate.YES)


def test_dedupe_keys_isomorphic_simples_to_one_atom():
    # a dimension-5 simple and a base change of it, found as two sources
    p, k = 2, 5
    cycle = np.roll(np.eye(k, dtype=np.int64), 1, axis=1)
    loop = np.zeros((k, k), dtype=np.int64)
    loop[0, 0] = 1
    t = np.triu(np.ones((k, k), dtype=np.int64))
    tinv = (np.eye(k, dtype=np.int64) + np.eye(k, k, 1, dtype=np.int64)) % p
    assert not ((t @ tinv) % p - np.eye(k)).any()
    a = module_from_dense(p, {"c": cycle, "d": loop})
    b = module_from_dense(p, {"c": t @ cycle @ tinv % p,
                              "d": t @ loop @ tinv % p})
    from atomcat.atomspec import _dedupe_simples
    atoms = _dedupe_simples([(a, "x"), (b, "y")])
    assert atoms.labels() == (canonical_simple_form(b)[0],)
    assert "?" not in atoms.labels()[0]
    assert atoms.atoms[0].source == ("x", "y")


def test_dedupe_raises_when_two_forms_share_a_label(monkeypatch):
    from atomcat import atomspec
    from atomcat.errors import LabelCollision
    a = module_of_quiver(loop_quiver("c"), GF2)
    b = module_of_quiver(loop_quiver("d"), GF2)
    monkeypatch.setattr(atomspec, "canonical_simple_form",
                        lambda simple: ("S(x)", simple))
    with pytest.raises(LabelCollision):
        atomspec._dedupe_simples([(a, "a"), (b, "b")])


# -- the structure store ------------------------------------------------------

def renamed_cycle_quivers():
    """One quiver under two vertex namings: a 2-cycle whose GF(2)
    action has no eigenvector, and a third vertex mapping into it."""
    def build(a, b, c):
        return make_quiver([a, b, c], ["x", "y"],
                           [(a, b, "x"), (b, a, "x"), (b, b, "x"),
                            (c, a, "y")])
    return build("a", "b", "c"), build("u", "v", "w")


def test_equal_actions_share_atoms_with_own_sources():
    q1, q2 = renamed_cycle_quivers()
    m1, m2 = module_of_quiver(q1, GF2), module_of_quiver(q2, GF2)
    assert m1.key() == m2.key()
    for fn in (asupp, aass):
        one, two = fn(m1), fn(m2)
        assert one.labels() == two.labels()
        assert [a.representative.key() for a in one] == \
            [a.representative.key() for a in two]
    # atoms sort by label: "S()" (the zero-action line) before "S[2]..."
    assert [a.source for a in asupp(m1)] == [("c",), ("a",)]
    assert [a.source for a in asupp(m2)] == [("w",), ("u",)]
    assert [a.source for a in aass(m1)] == [("a",)]
    assert [a.source for a in aass(m2)] == [("u",)]


@st.composite
def valued_quivers(draw, p, max_vertices):
    nv = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(nv)]
    cs = ["c0", "c1"]
    arrows = [(v, w, c, draw(st.integers(1, p - 1)))
              for v in vs for w in vs for c in cs if draw(st.booleans())]
    return make_quiver(vs, cs, arrows)


def structure_view(module):
    """Every stored answer about a module, with labels, sources and
    parents spelled out."""
    from atomcat.linmod import composition_factors, minimal_submodules
    subs = lambda ss: [(s.key(), s.parent is module) for s in ss]
    return {
        "factors": [(f.key(), f.basis_labels, f.provenance, lbl)
                    for f, lbl in composition_factors(module)],
        "asupp": [(a.label, a.source) for a in asupp(module)],
        "aass": [(a.label, a.source) for a in aass(module)],
        "minimal": subs(minimal_submodules(module)),
        "lattice": subs(submodule_lattice(module)),
    }


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_warm_store_matches_cleared_store(data):
    from atomcat import linmod
    from atomcat.linmod import quotient_module
    p = data.draw(st.sampled_from((2, 3)))
    q = data.draw(valued_quivers(p, 4 if p == 2 else 3))

    def modules():
        m = module_of_quiver(q, FieldSpec(p))
        lat = submodule_lattice(m)
        return [m] + [f(s) for s in lat for f in
                      (submodule_as_module, lambda s: quotient_module(m, s))]

    warm = [structure_view(mod) for mod in modules()]
    again = [structure_view(mod) for mod in modules()]
    cold = []
    for i in range(len(warm)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linmod, "_STORE", {})
            cold.append(structure_view(modules()[i]))
    assert warm == again == cold
