"""Module layer: quiver modules, lattices, subquotients, hom spaces.

The lattice oracle here is independent of the implementation: it
enumerates every subspace of GF(2)^n as the span of a small vector
subset and filters for action invariance.
"""

import itertools

import numpy as np
import pytest

from atomcat.errors import BudgetExceeded, NotNested
from atomcat.linmod import (FdModule, FieldSpec, composition_factors,
                            cyclic_submodule, find_one_minimal, full_submodule,
                            hom_basis, intersect_submodules, is_essential,
                            minimal_submodules, module_from_json,
                            module_of_quiver, structure_report,
                            submodule_lattice, submodule_span, subquotient,
                            sum_submodules, zero_submodule)
from atomcat.quiver import make_quiver
from iso_oracle import Tristate, is_isomorphic

GF2 = FieldSpec(2)


def dense_rref2(rows):
    """Integer-bitset elimination; returns a canonical frozenset key."""
    work = [int("".join(str(b) for b in reversed(r)), 2) for r in rows]
    basis = []
    for v in work:
        for b in basis:
            if (v ^ b) < v:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # full reduction
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i != j and (basis[i] ^ basis[j]) < basis[i]:
                    basis[i] ^= basis[j]
                    changed = True
        basis.sort(reverse=True)
    return frozenset(basis)


def all_invariant_subspaces(module):
    """Oracle: spans of all <= dim-sized subsets of GF(2)^dim, filtered
    for invariance under every color action."""
    n = module.dim
    acts = {c: np.array(module.dense_actions()[c], dtype=np.uint8)
            for c in module.colors}
    vectors = [np.array([(x >> i) & 1 for i in range(n)], dtype=np.uint8)
               for x in range(1, 1 << n)]
    spans = {frozenset()}
    for size in range(1, n + 1):
        for combo in itertools.combinations(vectors, size):
            spans.add(dense_rref2([list(v) for v in combo]))

    def span_vectors(key):
        out = {0}
        for b in key:
            out |= {x ^ b for x in out}
        return out

    def invariant(key):
        vecs = span_vectors(key)
        for b in key:
            row = np.array([(b >> i) & 1 for i in range(n)], dtype=np.uint8)
            for c, a in acts.items():
                img = (row @ a) % 2
                img_int = int("".join(str(x) for x in reversed(img)), 2)
                if img_int not in vecs:
                    return False
        return True

    return {key for key in spans if invariant(key)}


def lattice_keys(module, lat):
    out = set()
    for s in lat:
        dense = module.ops.unpack(s.basis, module.dim)
        out.add(dense_rref2([list(r) for r in dense]))
    return out


def loop_point(color="c"):
    return module_of_quiver(make_quiver(["v"], [color], [("v", "v", color)]), GF2)


def chain_module(k, prefix="v"):
    vs = [f"{prefix}{i+1}" for i in range(k)]
    arrows = [(vs[i], vs[i + 1], f"c{i+1}{i+2}") for i in range(k - 1)]
    return module_of_quiver(
        make_quiver(vs, [a[2] for a in arrows], arrows), GF2)


class TestModuleOfQuiver:
    def test_loop_point(self):
        m = loop_point()
        assert m.dim == 1
        assert m.dense_actions()["c"] == [[1]]

    def test_nilpotent_square_zero(self):
        m = chain_module(2)
        a = np.array(m.dense_actions()["c12"], dtype=np.uint8)
        assert ((a @ a) % 2 == 0).all()
        assert a[0, 1] == 1

    def test_empty(self):
        m = module_of_quiver(make_quiver([], [], []), GF2)
        assert m.dim == 0 and m.actions == {}

    def test_json_roundtrip(self):
        m = chain_module(3)
        m2 = module_from_json(m.to_json())
        assert m2.key() == m.key()


class TestCyclic:
    def test_zero_vector(self):
        m = chain_module(3)
        s = cyclic_submodule(m, m.ops.zero_vec(3))
        assert s.dim == 0

    def test_generator_of_chain(self):
        m = chain_module(3)
        s = cyclic_submodule(m, m.ops.unit_vec(0, 3))
        assert s.dim == 3

    def test_mixed_vector_still_full(self):
        # x_{v1} + x_{v2} generates everything: leading coordinate wins
        m = chain_module(3)
        vec = m.ops.add(m.ops.unit_vec(0, 3), m.ops.unit_vec(1, 3))
        s = cyclic_submodule(m, vec)
        assert s.dim == 3

    def test_equals_intersection_of_lattice_members(self):
        m = chain_module(3)
        lat = submodule_lattice(m)
        vec = m.ops.unit_vec(1, 3)
        cyc = cyclic_submodule(m, vec)
        containing = [s for s in lat if s.contains_vec(vec)]
        meet = containing[0]
        for s in containing[1:]:
            meet = intersect_submodules(meet, s)
        assert meet.key() == cyc.key()


class TestLattice:
    def test_zero_action_dim2_has_five_subspaces(self):
        m = FdModule(GF2, 2, ("a", "b"), {})
        lat = submodule_lattice(m)
        assert len(lat) == 5 and lat.complete

    def test_chain2_lattice(self):
        m = chain_module(2)
        lat = submodule_lattice(m)
        assert len(lat) == 3
        dims = sorted(s.dim for s in lat)
        assert dims == [0, 1, 2]

    def test_against_subspace_oracle(self):
        for m in (chain_module(2), chain_module(3), loop_point(),
                  FdModule(GF2, 3, ("a", "b", "c"), {})):
            lat = submodule_lattice(m)
            assert lattice_keys(m, lat) == all_invariant_subspaces(m)

    def test_closed_under_sum_and_intersection(self):
        m = chain_module(3)
        lat = submodule_lattice(m)
        keys = {s.key() for s in lat}
        for a in lat:
            for b in lat:
                assert sum_submodules(a, b).key() in keys
                assert intersect_submodules(a, b).key() in keys

    def test_budget(self):
        m = FdModule(GF2, 4, tuple("abcd"), {})
        with pytest.raises(BudgetExceeded) as ei:
            submodule_lattice(m, budget=10)
        assert ei.value.partial is None or not ei.value.partial.complete

    def test_all_members_action_closed(self):
        m = chain_module(3)
        for s in submodule_lattice(m):
            assert s.is_action_closed()


class TestSubquotient:
    def test_whole_module(self):
        m = chain_module(2)
        q = subquotient(m, zero_submodule(m), full_submodule(m))
        assert q.dim == 2
        assert q.key() == m.key()

    def test_middle_layer(self):
        m = chain_module(3)
        low = submodule_span(m, m.ops.stack([m.ops.unit_vec(2, 3)], 3))
        upp = submodule_span(
            m, m.ops.stack([m.ops.unit_vec(1, 3), m.ops.unit_vec(2, 3)], 3))
        q = subquotient(m, low, upp)
        assert q.dim == 1
        assert q.actions == {}  # zero action on the layer
        assert q.basis_labels == ("v2",)

    def test_degenerate(self):
        m = chain_module(3)
        s = cyclic_submodule(m, m.ops.unit_vec(1, 3))
        q = subquotient(m, s, s)
        assert q.dim == 0

    def test_not_nested(self):
        m = FdModule(GF2, 2, ("a", "b"), {})
        s1 = submodule_span(m, m.ops.stack([m.ops.unit_vec(0, 2)], 2))
        s2 = submodule_span(m, m.ops.stack([m.ops.unit_vec(1, 2)], 2))
        with pytest.raises(NotNested):
            subquotient(m, s1, s2)


class TestHom:
    def test_zero_action_line_to_line(self):
        a = FdModule(GF2, 1, ("x",), {})
        b = FdModule(GF2, 1, ("y",), {})
        assert len(hom_basis(a, b)) == 1

    def test_different_loop_colors_have_no_homs(self):
        a = loop_point("c")
        b = loop_point("c'")
        assert hom_basis(a, b) == []

    def test_identity_present(self):
        m = chain_module(3)
        homs = hom_basis(m, m)
        eye = np.eye(3, dtype=np.int64)
        combos = set()
        for bits in itertools.product([0, 1], repeat=len(homs)):
            f = sum(int(b) * h for b, h in zip(bits, homs)) % 2 \
                if homs else np.zeros((3, 3), dtype=np.int64)
            combos.add(f.tobytes())
        assert eye.tobytes() in combos


class TestIso:
    def test_self(self):
        m = chain_module(2)
        assert is_isomorphic(m, m) is Tristate.YES

    def test_dim_mismatch(self):
        assert is_isomorphic(chain_module(1), chain_module(2)) is Tristate.NO

    def test_loop_color_mismatch(self):
        assert is_isomorphic(loop_point("c"), loop_point("d")) is Tristate.NO

    def test_relabeled_chain(self):
        m = chain_module(2)
        q = make_quiver(["w1", "w2"], ["c12"], [("w1", "w2", "c12")])
        assert is_isomorphic(m, module_of_quiver(q, GF2)) is Tristate.YES


class TestStructure:
    def test_one_dim_simple(self):
        rep = structure_report(loop_point())
        assert rep.is_simple and rep.composition_length == 1

    def test_chain3(self):
        m = chain_module(3)
        rep = structure_report(m)
        assert not rep.is_simple
        assert rep.composition_length == 3
        assert rep.socle.dim == 1
        assert rep.socle.contains_vec(m.ops.unit_vec(2, 3))
        assert rep.radical_series_lengths == (1, 1, 1)

    def test_zero_module(self):
        m = FdModule(GF2, 0, (), {})
        rep = structure_report(m)
        assert not rep.is_simple and rep.composition_length == 0


class TestEssentialAndMinimal:
    def test_full_is_essential(self):
        m = chain_module(2)
        assert is_essential(full_submodule(m), m)

    def test_zero_not_essential(self):
        m = chain_module(2)
        assert not is_essential(zero_submodule(m), m)

    def test_socle_of_chain_is_essential(self):
        m = chain_module(2)
        assert is_essential(structure_report(m).socle, m)

    def test_minimal_submodules_match_lattice(self):
        for m in (chain_module(3), FdModule(GF2, 3, tuple("abc"), {}),
                  loop_point()):
            lat = submodule_lattice(m)
            nonzero = lat.nonzero()
            expect = {s.key() for s in nonzero
                      if not any(0 < t.dim < s.dim and s.contains(t)
                                 for t in nonzero)}
            got = {s.key() for s in minimal_submodules(m)}
            assert got == expect

    def test_find_one_minimal_is_minimal(self):
        for m in (chain_module(4), loop_point()):
            k = find_one_minimal(m)
            assert k.dim >= 1
            assert any(k.key() == s.key() for s in minimal_submodules(m))


class TestCompositionFactors:
    def test_chain3_factors(self):
        m = chain_module(3)
        factors = composition_factors(m)
        assert len(factors) == 3
        assert all(f.dim == 1 and f.actions == {} for f, _ in factors)
        assert sorted(lbl for _, lbl in factors) == ["v1", "v2", "v3"]

    def test_two_loops(self):
        q = make_quiver(["v", "w"], ["c0", "c1"],
                        [("v", "v", "c0"), ("w", "w", "c1")])
        m = module_of_quiver(q, GF2)
        factors = composition_factors(m)
        keys = sorted(tuple(f.colors) for f, _ in factors)
        assert keys == [("c0",), ("c1",)]

    def test_factor_count_equals_composition_length(self):
        for m in (chain_module(2), chain_module(4), loop_point()):
            assert len(composition_factors(m)) == \
                structure_report(m).composition_length


def test_gf3_module_roundtrip():
    f3 = FieldSpec(3)
    q = make_quiver(["v", "w"], ["c"], [("v", "w", "c", 2)])
    m = module_of_quiver(q, f3)
    assert m.dense_actions()["c"][0][1] == 2
    s = cyclic_submodule(m, m.ops.unit_vec(0, 2))
    assert s.dim == 2
    assert len(submodule_lattice(m)) == 3  # 0, <x_w>, M


def test_gf3_composition_factors_split_eigenvalues():
    # swap action over GF(3) diagonalizes with eigenvalues 1 and 2
    f3 = FieldSpec(3)
    swap = f3.ops.pack(np.array([[0, 1], [1, 0]]), 2)
    m = FdModule(f3, 2, ("v", "w"), {"c": swap})
    factors = composition_factors(m)
    scalars = sorted(f.dense_actions()["c"][0][0] for f, _ in factors)
    assert scalars == [1, 2]
    assert len(minimal_submodules(m)) == 2


def test_gf3_irreducible_two_dim_simple():
    # companion matrix of x^2 + 1, irreducible over GF(3)
    f3 = FieldSpec(3)
    comp = f3.ops.pack(np.array([[0, 2], [1, 0]]), 2)
    m = FdModule(f3, 2, ("v", "w"), {"c": comp})
    assert [f.dim for f, _ in composition_factors(m)] == [2]
    mins = minimal_submodules(m)
    assert len(mins) == 1 and mins[0].dim == 2


def test_higher_dim_simple_is_found():
    # action [[0,1],[1,1]] is irreducible over GF(2) (no eigenvector)
    m = FdModule(GF2, 2, ("a", "b"),
                 {"c": GF2.ops.pack(np.array([[0, 1], [1, 1]]), 2)})
    assert find_one_minimal(m).dim == 2
    mins = minimal_submodules(m)
    assert len(mins) == 1 and mins[0].dim == 2
    assert len(submodule_lattice(m)) == 2


class TestCyclicScanMemo:
    @pytest.mark.parametrize("p", [2, 3])
    def test_memoized_scan_matches_fresh_module(self, p):
        from atomcat.linmod import _distinct_cyclic
        q = make_quiver(["a", "b", "c"], ["x", "y"],
                        [("a", "b", "x"), ("b", "c", "y"), ("c", "b", "x"),
                         ("a", "a", "y")])
        m = module_of_quiver(q, FieldSpec(p))
        first = _distinct_cyclic(m, 1000)
        assert isinstance(first, tuple)
        minimal_submodules(m)
        submodule_lattice(m)
        assert _distinct_cyclic(m, 1000) is first
        fresh = _distinct_cyclic(module_of_quiver(q, FieldSpec(p)), 1000)
        assert [s.key() for s in first] == [s.key() for s in fresh]

    def test_smaller_budget_still_raises_after_memo(self):
        q = make_quiver(["a", "b", "c", "d"], ["x"],
                        [("a", "b", "x"), ("b", "c", "x"), ("c", "d", "x")])
        m = module_of_quiver(q, GF2)
        assert len(minimal_submodules(m)) == 1
        with pytest.raises(BudgetExceeded):
            minimal_submodules(m, budget=10)


# -- the structure store -------------------------------------------------------

def irreducible_plus_line(p, labels):
    """A simple 2-dim block on the first two lines (no eigenvector: the
    companion matrix of x^2 + x + 1 at p = 2, of x^2 + 1 at p = 3) and
    a third line that color y sends into it."""
    field = FieldSpec(p)
    x = [[0, 1], [1, 1]] if p == 2 else [[0, 2], [1, 0]]
    dense = {"x": np.array([[*x[0], 0], [*x[1], 0], [0, 0, 0]]),
             "y": np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]])}
    return FdModule(field, 3, labels,
                    {c: field.ops.pack(m, 3) for c, m in dense.items()})


def factor_view(factors):
    return [(f.key(), f.basis_labels, f.provenance, lbl) for f, lbl in factors]


class TestStructureStore:
    RENAME = {"a": "u", "b": "v", "c": "w"}

    @pytest.mark.parametrize("p", [2, 3])
    def test_equal_actions_share_factors_with_own_labels(self, p,
                                                         monkeypatch):
        from atomcat import linmod
        m1 = irreducible_plus_line(p, ("a", "b", "c"))
        m2 = irreducible_plus_line(p, ("u", "v", "w"))
        assert m1.key() == m2.key()
        first, second = composition_factors(m1), composition_factors(m2)
        assert [f.dim for f, _ in first] == [2, 1]
        assert [lbl for _, lbl in first] == ["a", "c"]
        assert [lbl for _, lbl in second] == ["u", "w"]
        for (f1, _), (f2, _) in zip(first, second):
            assert f1.key() == f2.key()
            assert f2.basis_labels == tuple(self.RENAME[v]
                                            for v in f1.basis_labels)
            assert f2.provenance == {"kind": "subquotient",
                                     "pivot_labels": list(f2.basis_labels)}
        monkeypatch.setattr(linmod, "_STORE", {})
        cold = composition_factors(irreducible_plus_line(p, ("u", "v", "w")))
        assert factor_view(second) == factor_view(cold)

    @pytest.mark.parametrize("p", [2, 3])
    def test_equal_actions_get_submodules_of_their_own(self, p):
        from atomcat.linmod import _distinct_cyclic
        m1 = irreducible_plus_line(p, ("a", "b", "c"))
        m2 = irreducible_plus_line(p, ("u", "v", "w"))
        for fn in (minimal_submodules, submodule_lattice,
                   lambda m: _distinct_cyclic(m, 1000)):
            one, two = list(fn(m1)), list(fn(m2))
            assert [s.key() for s in one] == [s.key() for s in two]
            assert all(s.parent is m1 for s in one)
            assert all(s.parent is m2 for s in two)

    def test_smaller_budget_still_raises_after_a_hit(self):
        # two copies of the x^2 + x + 1 block: no eigenvector at all, so
        # composition factors need the 15-seed scan
        block = np.array([[0, 1], [1, 1]])
        dense = np.zeros((4, 4), dtype=np.int64)
        dense[:2, :2] = dense[2:, 2:] = block

        def module():
            return FdModule(GF2, 4, tuple("abcd"),
                            {"x": GF2.ops.pack(dense, 4)})

        m = module()
        assert [f.dim for f, _ in composition_factors(m)] == [2, 2]
        assert len(minimal_submodules(m)) == 5
        assert len(submodule_lattice(m)) == 7
        for mod in (m, module()):
            for fn in (composition_factors, minimal_submodules,
                       submodule_lattice):
                with pytest.raises(BudgetExceeded):
                    fn(mod, budget=10)

    def test_smaller_lattice_budget_still_overflows_after_a_hit(self):
        # zero action on GF(2)^3: 7 seeds pass a budget of 10, and the
        # 16 subspaces overflow it
        m = FdModule(GF2, 3, tuple("abc"), {})
        assert len(submodule_lattice(m)) == 16
        for mod in (m, FdModule(GF2, 3, tuple("xyz"), {})):
            with pytest.raises(BudgetExceeded) as ei:
                submodule_lattice(mod, budget=10)
            assert not ei.value.partial.complete
