"""Atom layer tests.

The oracles here implement the definitions verbatim and exhaustively:
common subobjects by scanning all submodule pairs, monoformness by
scanning every quotient, atom supports by scanning every nested pair of
lattice members.  The fast implementations must agree on every small
input.
"""

import pytest

from atomcat.atomspec import (asupp, aass, atom_of, canonical_simple_form,
                              is_monoform, is_uniform, spectrum)
from atomcat.errors import NotMonoform, ZeroModule
from atomcat.linmod import (FdModule, FieldSpec, minimal_submodules,
                            module_of_quiver, structure_report,
                            submodule_as_module, submodule_lattice,
                            subquotient, sum_submodules)
from atomcat.ordertop import poset_of_topology
from atomcat.quiver import make_quiver
from iso_oracle import Tristate, is_isomorphic
from strategies import (disjoint_union, irreducible_plus_line,
                        mixed_quivers, nonzero_members)

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


def has_common_nonzero_subobject(m, n):
    """A common nonzero subobject contains a simple one, a minimal
    submodule on both sides, so m and n share one exactly when their
    associated atoms meet."""
    return bool(set(aass(m).labels()) & set(aass(n).labels()))


def atom_equivalent(h1, h2):
    """Atom equivalence by its definition: monoform modules sharing a
    nonzero subobject."""
    if not (is_monoform(h1) and is_monoform(h2)):
        raise NotMonoform("atom equivalence needs monoform arguments")
    return has_common_nonzero_subobject(h1, h2)


def monoform_dim2():
    """v1 -> v2 with a loop only on v2: socle and top are distinct."""
    q = make_quiver(["v1", "v2"], ["a", "t"],
                    [("v1", "v2", "a"), ("v2", "v2", "t")])
    return module_of_quiver(q, GF2)


# -- literal oracles ----------------------------------------------------------

def brute_common(m, n):
    for s in nonzero_members(submodule_lattice(m)):
        for t in nonzero_members(submodule_lattice(n)):
            if is_isomorphic(submodule_as_module(s),
                             submodule_as_module(t)) is Tristate.YES:
                return True
    return False


def brute_monoform(h):
    lat = submodule_lattice(h)
    for sub in nonzero_members(lat):
        quot = subquotient(h, sub, [s for s in lat
                                    if s.dim == h.dim][0])
        if quot.dim and brute_common(h, quot):
            return False
    return True


def brute_uniform(u):
    """Every two nonzero submodules meet: dim a + dim b > dim(a + b)."""
    nz = nonzero_members(submodule_lattice(u))
    for a in nz:
        for b in nz:
            if a.dim + b.dim == sum_submodules(a, b).dim:
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

    def test_atom_of_a_direct_sum_is_refused(self):
        q = disjoint_union([loop_quiver("c"), loop_quiver("d")])
        with pytest.raises(NotMonoform, match="not uniform"):
            atom_of(module_of_quiver(q, GF2))

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
        assert all(structure_report(a.representative).is_simple
                   for a in rep.atoms)

    def test_loops_discrete(self):
        rep = spectrum(loops_chain_quiver())
        assert len(rep.atoms) == 3
        assert len(rep.opens.opens) == 8
        assert poset_of_topology(rep.opens).le == {
            (a, a) for a in rep.atoms.labels()}

    def test_empty_quiver(self):
        rep = spectrum(make_quiver([], [], []))
        assert len(rep.atoms) == 0
        assert rep.opens.opens == (0,)

    def test_dag_path_equals_generic_path(self):
        # the block path's atoms against the whole module's factors
        q = loops_chain_quiver()
        rep_dag = spectrum(q)
        m = module_of_quiver(q, GF2)
        from atomcat.atomspec import _dedupe_simples
        from atomcat.linmod import composition_factors
        generic = _dedupe_simples((f, [i]) for f, i in composition_factors(m))
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


class TestLocalizingSubcategories:
    """The spectrum is discrete, so every set of atoms is open, and a
    module lies in the localizing subcategory of a set exactly when its
    atom support is inside the set."""

    def test_discrete_count(self):
        rep = spectrum(loops_chain_quiver())
        assert len(rep.opens.opens) == 8

    def test_membership_whole(self):
        q = loops_chain_quiver()
        rep = spectrum(q)
        m = module_of_quiver(q, GF2)
        assert set(asupp(m).labels()) == set(rep.atoms.labels())

    def test_membership_simple_iff_in_set(self):
        rep = spectrum(loops_chain_quiver())
        s = module_of_quiver(loop_quiver("c1"), GF2)
        cls = asupp(s).labels()[0]
        assert asupp(s).labels() == (cls,)
        assert cls in rep.atoms.labels()


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


def loop_points_quiver(n):
    """n vertices, each with a loop of its own color: n discrete atoms."""
    vs = [f"v{i:03d}" for i in range(n)]
    cs = [f"c{i:03d}" for i in range(n)]
    return make_quiver(vs, cs, [(v, v, c) for v, c in zip(vs, cs)])


@pytest.mark.parametrize("n", [17, 20, 300])
def test_spectrum_beyond_the_listing_cap(n):
    # no cap refuses a discrete spectrum, at any atom count
    import json
    rep = spectrum(loop_points_quiver(n))
    assert len(rep.atoms) == n
    data = json.loads(json.dumps(rep.to_json()))
    assert set(data) == {"p", "atoms", "order"} and data["order"] == []
    assert len(data["atoms"]) == n


def test_empty_spectrum_keeps_its_prime():
    rep = spectrum(make_quiver([], [], []), FieldSpec(3))
    assert rep.p == 3 and rep.to_json()["p"] == 3


# -- the block path ------------------------------------------------------------

def cycle_chain_quiver(cycles, length=3):
    """`cycles` directed cycles of color c, each joined to the next by
    an e-arrow: one strongly connected block per cycle."""
    vs, arrows = [], []
    for i in range(cycles):
        ring = [f"k{i:02d}/{j}" for j in range(length)]
        vs += ring
        arrows += [(ring[j], ring[(j + 1) % length], "c")
                   for j in range(length)]
        if i:
            arrows.append((f"k{i - 1:02d}/0", ring[0], "e"))
    return make_quiver(vs, ["c", "e"], arrows)


@pytest.mark.parametrize("p, dims", [(2, [1, 2]), (3, [1])])
def test_chain_of_small_cycles_answers_block_by_block(p, dims):
    # 42 vertices: 2^42 - 1 seeds for the whole module, 7 per block
    q = cycle_chain_quiver(14)
    rep = spectrum(q, FieldSpec(p))
    assert sorted(a.representative.dim for a in rep.atoms) == dims
    assert rep.atoms.labels()[0] == "S(c)"
    one = spectrum(cycle_chain_quiver(1), FieldSpec(p))
    assert rep.atoms.labels() == one.atoms.labels()
    # every block contributes a source to every atom
    for atom in rep.atoms:
        assert {v.split("/")[0] for v in atom.source} == \
            {f"k{i:02d}" for i in range(14)}
    if p == 3:  # three factors per cycle, one pivot label per vertex
        assert rep.atoms.atoms[0].source == q.vertices


def test_arrows_vanishing_mod_p_keep_their_block():
    # a 2-cycle of value-3 arrows is one block of two zero-action lines
    q = make_quiver(["a", "b", "c"], ["x"],
                    [("a", "b", "x", 3), ("b", "a", "x", 3)])
    rep = spectrum(q, FieldSpec(3))
    assert [(a.label, a.source) for a in rep.atoms] == \
        [("S()", ("a", "b", "c"))]


@pytest.mark.parametrize("p", [2, 3])
def test_loops_vanishing_mod_p_act_as_no_loop(p, monkeypatch):
    # loops of value p and p + 1 on one-vertex blocks (a, b) and inside
    # the 2-cycle block x <-> y read as the same quiver with values
    # reduced mod p and the zero arrows dropped: the same spectrum, from
    # the same block modules, so no zero arrow reaches one
    from atomcat import linmod
    real, built = linmod._module_of_arrows, []

    def recording(field, labels, arrows):
        built.append((len(labels), tuple(arrows)))
        return real(field, labels, arrows)
    monkeypatch.setattr(linmod, "_module_of_arrows", recording)
    loops = [("a", "a", "c", p), ("a", "a", "d", p + 1), ("b", "b", "c", p),
             ("x", "x", "c", p), ("x", "x", "d", p + 1), ("y", "y", "d", p)]
    cycle = [("x", "y", "e", 1), ("y", "x", "e", 1)]
    q = make_quiver(["a", "b", "x", "y"], ["c", "d", "e"], loops + cycle)
    reduced = make_quiver(q.vertices, q.colors, cycle + [
        (v, w, c, x % p) for v, w, c, x in loops if x % p])
    assert sorted(len(b) for b, _ in q._blocks) == [1, 1, 2]
    reports = []
    for quiver in (q, reduced):
        built.clear()
        reports.append((spectrum(quiver, FieldSpec(p)).to_json(), built[:]))
    assert reports[0] == reports[1]
    assert all(value for _, arrows in reports[0][1] for *_, value in arrows)


def test_budget_error_names_the_block():
    from atomcat.errors import BudgetExceeded
    # a 16-cycle of c with a d-loop on its first vertex: the only
    # c-eigenline (all ones) is not d-stable, so no common eigenvector,
    # and 2^16 - 1 seeds pass the default budget; a sink hangs below it
    ring = [f"r{i:02d}" for i in range(16)]
    arrows = [(ring[i], ring[(i + 1) % 16], "c") for i in range(16)]
    arrows += [(ring[0], ring[0], "d"), (ring[3], "sink", "c")]
    q = make_quiver(ring + ["sink"], ["c", "d"], arrows)
    with pytest.raises(BudgetExceeded) as info:
        spectrum(q, GF2)
    ctx = info.value.context
    assert ctx["block"] == ring and ctx["dim"] == 16
    assert ctx["seeds"] == 2 ** 16 - 1 and ctx["budget"] == 50_000
    assert info.value.partial is None


# -- exact canonical forms at p = 2 and p = 3 --------------------------------

import numpy as np

from atomcat.linalg import FpOps
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
    red, _ = FpOps(p).rref(
        np.hstack([t, np.eye(k, dtype=np.int64)]).tolist(), None)
    return t, np.array(red)[:, k:]


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
    atoms = _dedupe_simples([(a, ["x"]), (b, ["y"])])
    assert atoms.labels() == (canonical_simple_form(b)[0],)
    assert "?" not in atoms.labels()[0]
    assert atoms.atoms[0].source == ("x", "y")


def cycle_and_loop(p, weights, loop=1, **extra):
    """Dense actions of a simple module: a weighted k-cycle `c`, a loop
    `d` on the first line and any extra colors."""
    k = len(weights)
    cycle = np.zeros((k, k), dtype=np.int64)
    for i, w in enumerate(weights):
        cycle[i, (i + 1) % k] = w
    d = np.zeros((k, k), dtype=np.int64)
    d[0, 0] = loop
    return {"c": cycle, "d": d,
            **{c: np.array(m, dtype=np.int64) for c, m in extra.items()}}


# labels computed by the dense-list spin-up at both primes, kept
# literally so that a change of form, order or digest shows
PINNED_LABELS = [
    (2, {"c": np.array([[1]]), "d": np.array([[0]])}, "S(c)"),
    (3, {"c": np.array([[1]]), "d": np.array([[2]])}, "S(c,d=2)"),
    (2, {"c": np.array([[0, 1], [1, 1]])}, "S[2]eb93380867e6"),
    (2, cycle_and_loop(2, [1, 1, 1]), "S[3]a580f154955e"),
    (2, cycle_and_loop(2, [1, 1, 1, 1], e=[[1, 0, 1, 1], [0, 1, 1, 0],
                                           [1, 1, 0, 0], [0, 0, 0, 1]]),
     "S[4]9486b0b226d6"),
    # the cycle-plus-loop module of the dedupe test above
    (2, cycle_and_loop(2, [1] * 5), "S[5]cb00460372c5"),
    (3, cycle_and_loop(3, [1, 2]), "S[2]fb46d8b77195"),
    (3, cycle_and_loop(3, [2, 1, 1], loop=2), "S[3]f22799c522ec"),
    (3, cycle_and_loop(3, [1, 2, 2, 1], e=[[0, 2, 1, 0], [1, 0, 0, 2],
                                           [2, 2, 0, 1], [0, 1, 1, 0]]),
     "S[4]92b8a127f5ed"),
    (3, cycle_and_loop(3, [1, 1, 2, 1, 1], loop=2), "S[5]e4c10a35fb9e"),
]


@pytest.mark.parametrize("p, dense, label", PINNED_LABELS)
def test_canonical_labels_are_pinned(p, dense, label):
    module = module_from_dense(p, dense)
    assert structure_report(module).is_simple
    assert canonical_simple_form(module)[0] == label
    # a color acting as zero leaves label and representative alone
    k = module.dim
    zero = module_from_dense(p, {**dense, "z": np.zeros((k, k), np.int64)})
    assert canonical_simple_form(zero)[0] == label
    assert (canonical_simple_form(zero)[1].key()
            == canonical_simple_form(module)[1].key())


def test_canonical_representatives_are_pinned():
    _, rep = canonical_simple_form(
        module_from_dense(3, cycle_and_loop(3, [2, 1, 1], loop=2)))
    assert rep.dense_actions() == {
        "c": [[0, 1, 0], [0, 0, 1], [2, 0, 0]],
        "d": [[0, 0, 0], [0, 0, 0], [0, 0, 2]]}
    _, rep = canonical_simple_form(
        module_from_dense(2, cycle_and_loop(2, [1, 1, 1])))
    assert rep.dense_actions() == {
        "c": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        "d": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]}


@pytest.mark.parametrize("p", [2, 3])
def test_canonical_form_of_a_non_simple_module_fails_the_span_check(p):
    # e0 spins up to both lines, e1 only to its own
    module = module_from_dense(p, {"c": np.array([[0, 1], [0, 0]])})
    with pytest.raises(ValueError, match="spun up by every seed"):
        canonical_simple_form(module)


def test_dedupe_raises_when_two_forms_share_a_label(monkeypatch):
    from atomcat import atomspec
    from atomcat.errors import LabelCollision
    a = module_of_quiver(loop_quiver("c"), GF2)
    b = module_of_quiver(loop_quiver("d"), GF2)
    monkeypatch.setattr(atomspec, "canonical_simple_form",
                        lambda simple: ("S(x)", simple))
    with pytest.raises(LabelCollision):
        atomspec._dedupe_simples([(a, ["a"]), (b, ["b"])])


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


MODULE_CACHE_ONLY = {"asupp", "aass", "lattice", "minimal"}


def _entry_names(entry):
    """The names of a store entry's keys: a tuple key by its first item."""
    return {k[0] if isinstance(k, tuple) else k for k in entry}


@pytest.mark.parametrize("p", [2, 3])
def test_supports_live_in_the_module_cache(p):
    m = irreducible_plus_line(p, ("a", "b", "c"))
    support, associated = asupp(m), aass(m)
    lattice = submodule_lattice(m)
    minimal_submodules(m)
    assert [a.source for a in support] == [("c",), ("a",)]
    assert [a.source for a in associated] == [("a",)]
    assert not _entry_names(m.stored()) & MODULE_CACHE_ONLY
    assert asupp(m) is support and aass(m) is associated
    assert submodule_lattice(m) is lattice


@pytest.mark.parametrize("case_seed", [20240811, 424242])
def test_store_keeps_only_what_other_labellings_reuse(case_seed,
                                                      monkeypatch):
    """Over the core battery's first 43 cases, every structure-store
    entry holds only cyclic scans, canonical forms, factor series,
    subquotients and interned modules."""
    from atomcat import harness, linmod
    monkeypatch.setattr(linmod, "_STORE", {})
    result = harness.run_suite("core", harness.RunConfig(p=2,
                                                         seed=case_seed), 43)
    assert result.passed and len(result.cases) == 43
    names = set().union(*map(_entry_names, linmod._STORE.values()))
    assert names <= {"cyclic", "canon", "factors", "subquotient", "module"}


@pytest.mark.parametrize("p", [2, 3])
def test_equal_actions_get_supports_with_own_sources(p, monkeypatch):
    from atomcat import linmod

    def view(module):
        return [[(a.label, a.representative.key(), a.source)
                 for a in fn(module)] for fn in (asupp, aass)]

    # labels that sort the other way round from the basis order
    one = view(irreducible_plus_line(p, ("a", "b", "c")))
    two = view(irreducible_plus_line(p, ("z", "y", "x")))
    assert [[src for _, _, src in atoms] for atoms in two] == \
        [[("x",), ("z",)], [("z",)]]
    assert [[(lbl, key) for lbl, key, _ in atoms] for atoms in one] == \
        [[(lbl, key) for lbl, key, _ in atoms] for atoms in two]
    monkeypatch.setattr(linmod, "_STORE", {})
    assert view(irreducible_plus_line(p, ("z", "y", "x"))) == two


@pytest.mark.parametrize("p", [2, 3])
def test_supports_with_a_smaller_budget_still_raise_after_a_hit(p):
    from atomcat.errors import BudgetExceeded
    # two copies of the 2-dim simple: no eigenvector at all, so the
    # composition factors need the seed scan, which 10 cannot cover
    x = [[0, 1], [1, 1]] if p == 2 else [[0, 2], [1, 0]]
    dense = [[*x[0], 0, 0], [*x[1], 0, 0], [0, 0, *x[0]], [0, 0, *x[1]]]

    def module():
        return FdModule(FieldSpec(p), 4, tuple("abcd"),
                        {"x": FieldSpec(p).ops.pack(dense, 4)})

    m = module()
    assert len(asupp(m)) == len(aass(m)) == 1
    for mod in (m, module()):
        for fn in (asupp, aass):
            with pytest.raises(BudgetExceeded):
                fn(mod, budget=10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_monoform_matches_brute_oracle(data):
    """Uniform with the socle class once among the factors agrees with
    the literal definition on every submodule and quotient."""
    from atomcat.linmod import quotient_module
    p = data.draw(st.sampled_from((2, 3)))
    q = data.draw(mixed_quivers(p, 4 if p == 2 else 3))
    m = module_of_quiver(q, FieldSpec(p))
    for s in submodule_lattice(m):
        for h in (submodule_as_module(s), quotient_module(m, s)):
            if h.dim:
                assert is_monoform(h) == brute_monoform(h)


def star_module(k, p):
    """v_i -> v0 with color c_i for 0 < i < k: uniform with socle x_v0,
    and k zero-action composition factors."""
    vs = [f"v{i}" for i in range(k)]
    arrows = [(v, "v0", f"c{i}") for i, v in enumerate(vs) if i]
    return module_of_quiver(make_quiver(vs, [a[2] for a in arrows], arrows),
                            FieldSpec(p))


@pytest.mark.parametrize("k, p", [(7, 2), (6, 3)])
def test_star_answers_without_a_lattice(k, p, monkeypatch):
    from atomcat import linmod

    def refuse(module, budget):
        raise AssertionError("the submodule lattice was enumerated")

    monkeypatch.setattr(linmod, "_STORE", {})
    monkeypatch.setattr(linmod, "_close_lattice", refuse)
    m = star_module(k, p)
    assert is_uniform(m) and not is_monoform(m)
    rep = structure_report(m)
    assert not rep.is_simple
    assert rep.composition_length == k and rep.socle.dim == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_block_path_matches_whole_module_factors(data):
    from atomcat.atomspec import _dedupe_simples
    from atomcat.linmod import composition_factors
    from atomcat.quiver import (full_subquiver, loop_stripped_topo_order,
                                strong_components)
    p = data.draw(st.sampled_from((2, 3)))
    dag = data.draw(st.booleans())
    q = data.draw(mixed_quivers(p, 6 if p == 2 else 4, dag))
    field = FieldSpec(p)
    blocks = spectrum(q, field).atoms
    whole = _dedupe_simples((f, [i]) for f, i in composition_factors(
        module_of_quiver(q, field)))
    assert blocks.labels() == whole.labels()
    assert [a.representative.key() for a in blocks] == \
        [a.representative.key() for a in whole]
    if loop_stripped_topo_order(q) is not None:
        assert [a.source for a in blocks] == [a.source for a in whole]
    # sources: the pivot labels of each block's own subquiver module
    per_block = _dedupe_simples([
        (f, [i]) for b in strong_components(q) for f, i in
        composition_factors(module_of_quiver(full_subquiver(q, b), field))])
    assert [(a.label, a.source) for a in blocks] == \
        [(a.label, a.source) for a in per_block]


@pytest.mark.parametrize("p, nv, arrows", [
    # the eigenvector x_v2 + x_v3 of c1 has pivot v2; peeling it first
    # named S(c1) after v2
    (3, 4, [("v3", "v2", "c1", 1), ("v3", "v3", "c1", 1)]),
    (2, 5, [("v0", "v0", "c1", 1), ("v0", "v1", "c1", 1),
            ("v0", "v4", "c0", 1), ("v0", "v4", "c1", 1),
            ("v1", "v1", "c0", 1), ("v1", "v2", "c0", 1),
            ("v1", "v3", "c0", 1), ("v1", "v3", "c1", 1),
            ("v2", "v2", "c0", 1), ("v2", "v2", "c1", 1),
            ("v2", "v4", "c1", 1), ("v3", "v2", "c0", 1),
            ("v3", "v2", "c1", 1), ("v3", "v4", "c1", 1),
            ("v4", "v4", "c0", 1)]),
])
def test_dag_factor_sources_are_their_vertices(p, nv, arrows):
    """On a DAG plus loops every vertex carries one factor, and the
    whole module's peel names each factor by that vertex."""
    from atomcat.atomspec import _dedupe_simples
    from atomcat.linmod import composition_factors
    q = make_quiver([f"v{i}" for i in range(nv)], ["c0", "c1"], arrows)
    field = FieldSpec(p)
    whole = _dedupe_simples((f, [i]) for f, i in composition_factors(
        module_of_quiver(q, field)))
    assert [(a.label, a.source) for a in spectrum(q, field).atoms] == \
        [(a.label, a.source) for a in whole]


def structure_view(module):
    """Every stored answer about a module, with labels, sources and
    parents spelled out."""
    from atomcat.linmod import composition_factors, minimal_submodules
    subs = lambda ss: [(s.key(), s.parent is module) for s in ss]
    lat = list(submodule_lattice(module))
    return {
        "subquotients": [(s.key(), t.key(), q.key(), q.basis_labels)
                         for t in lat for s in lat if t.contains(s)
                         for q in (subquotient(module, s, t),)],
        "factors": [(f.key(), f.basis_labels, lbl)
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
    q = data.draw(mixed_quivers(p, 4 if p == 2 else 3))

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
