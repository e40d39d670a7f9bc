"""Module layer: quiver modules, lattices, subquotients, hom spaces.

The lattice oracle here is independent of the implementation: it
enumerates every subspace of GF(2)^n as the span of a small vector
subset and filters for action invariance.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomcat.atomspec import aass
from atomcat.errors import BudgetExceeded, NotNested
from atomcat.linmod import (DEFAULT_BUDGET, FdModule, FieldSpec, Submodule,
                            _find_one_minimal, composition_factors,
                            full_submodule, hom_basis, is_essential,
                            minimal_submodules, module_of_quiver,
                            quotient_module, structure_report,
                            submodule_as_module, submodule_lattice,
                            subquotient, sum_submodules, zero_submodule)
from atomcat.quiver import make_quiver
import dense_modp
from iso_oracle import Tristate, is_isomorphic
from strategies import (contains_vec, cyclic_submodule,
                        irreducible_plus_line, is_action_closed,
                        mixed_quivers, nonzero_members)

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


def submodule_span(module, rows, check=True):
    """The span of packed rows as a Submodule; unless told otherwise,
    the rows must span an action-closed subspace."""
    basis, piv = module.ops.rref(rows, module.dim)
    sub = Submodule(module, basis, piv)
    if check and not is_action_closed(sub):
        raise ValueError("row span is not action-invariant")
    return sub


def meet_dim(a, b):
    """dim(a & b) = dim a + dim b - dim(a + b)."""
    return a.dim + b.dim - sum_submodules(a, b).dim


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

    @pytest.mark.parametrize("p", [3.0, "2"])
    def test_field_must_be_an_int_prime(self, p):
        with pytest.raises(ValueError, match=re.escape(f"prime: {p!r}")):
            FieldSpec(p)


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
        containing = [s for s in lat if contains_vec(s, vec)]
        assert cyc in containing
        assert all(meet_dim(cyc, s) == cyc.dim for s in containing)


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
                # a member inside a and b of dimension dim(a & b) is a & b
                assert any(a.contains(s) and b.contains(s)
                           and s.dim == meet_dim(a, b) for s in lat)

    def test_budget(self):
        m = FdModule(GF2, 4, tuple("abcd"), {})
        with pytest.raises(BudgetExceeded) as ei:
            submodule_lattice(m, budget=10)
        assert ei.value.partial is None or not ei.value.partial.complete

    def test_all_members_action_closed(self):
        m = chain_module(3)
        for s in submodule_lattice(m):
            assert is_action_closed(s)


def rref_key(rows, p):
    """The reduced row-echelon rows of a dense matrix as a tuple."""
    rows = np.array(rows, dtype=np.int64).reshape(-1, np.shape(rows)[-1])
    return tuple(map(tuple, dense_modp.rref(rows, p)[0].tolist()))


def invariant_subspaces_modp(module):
    """Oracle at any prime: the row-echelon span of every set of at most
    dim vectors of GF(p)^dim, kept when every color maps it into
    itself."""
    p, n = module.field.p, module.dim
    acts = [np.array(a, dtype=np.int64)
            for a in module.dense_actions().values()]
    vectors = list(itertools.product(range(p), repeat=n))[1:]
    spans = {rref_key(combo, p) for size in range(1, n + 1)
             for combo in itertools.combinations(vectors, size)}
    return {()} | {key for key in spans if all(
        len(rref_key([*key, *(np.array(key) @ a % p)], p)) == len(key)
        for a in acts)}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_lattice_is_every_invariant_subspace(data):
    # p = 2 on up to 4 vertices against the GF(2) span oracle, p = 3 on
    # up to 3 against the dense mod-p one
    p = data.draw(st.sampled_from((2, 3)))
    q = data.draw(mixed_quivers(p, 4 if p == 2 else 3))
    m = module_of_quiver(q, FieldSpec(p))
    lat = submodule_lattice(m)
    if p == 2:
        assert lattice_keys(m, lat) == all_invariant_subspaces(m)
    else:
        assert {rref_key(m.ops.unpack(s.basis, m.dim), p) if s.dim else ()
                for s in lat} == invariant_subspaces_modp(m)


class TestSubquotient:
    def test_whole_module(self):
        m = chain_module(2)
        q = subquotient(m, zero_submodule(m), full_submodule(m))
        assert q.dim == 2
        assert q.key() == m.key()

    def test_middle_layer(self):
        m = chain_module(3)
        low = submodule_span(m, (m.ops.unit_vec(2, 3),))
        upp = submodule_span(m, (m.ops.unit_vec(1, 3), m.ops.unit_vec(2, 3)))
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
        s1 = submodule_span(m, (m.ops.unit_vec(0, 2),))
        s2 = submodule_span(m, (m.ops.unit_vec(1, 2),))
        with pytest.raises(NotNested):
            subquotient(m, s1, s2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_upper_not_action_closed_is_a_value_error(self, p):
        m = irreducible_plus_line(p, ("a", "b", "c"))
        # y sends line c into the block, outside span(c)
        upper = submodule_span(m, (m.ops.unit_vec(2, 3),), check=False)
        for _ in range(2):
            with pytest.raises(ValueError, match="action-closed"):
                subquotient(m, zero_submodule(m), upper)
        assert ("subquotient", (), upper.basis) not in m.stored()


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
        homs = [np.array(h, dtype=np.int64) for h in hom_basis(m, m)]
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


# -- lattice oracles for the structure report ---------------------------------

def longest_chain(module):
    """Oracle: the length of a longest chain of submodules, by a walk
    over the whole lattice."""
    lat = sorted(submodule_lattice(module), key=lambda s: s.dim)
    longest = {}
    for s in lat:
        longest[s.key()] = 1 + max((longest[t.key()] for t in lat
                                    if t.dim < s.dim and s.contains(t)),
                                   default=0)
    return max(longest.values()) - 1


def lattice_socle(module):
    """Oracle: the sum of the lattice-minimal nonzero members."""
    nonzero = nonzero_members(submodule_lattice(module))
    socle = zero_submodule(module)
    for s in nonzero:
        if not any(0 < t.dim < s.dim and s.contains(t) for t in nonzero):
            socle = sum_submodules(socle, s)
    return socle


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_structure_report_matches_lattice_oracles(data):
    """On a module and all its submodules and quotients: simple exactly
    when the lattice has two members, length the longest chain, socle
    the sum of the lattice-minimal members."""
    p = data.draw(st.sampled_from((2, 3)))
    q = data.draw(mixed_quivers(p, 4 if p == 2 else 3))
    m = module_of_quiver(q, FieldSpec(p))
    lat = submodule_lattice(m)
    for s in lat:
        for h in (submodule_as_module(s),
                  subquotient(m, s, full_submodule(m))):
            rep = structure_report(h)
            assert rep.is_simple == (len(submodule_lattice(h)) == 2)
            assert rep.composition_length == longest_chain(h)
            assert rep.socle.key() == lattice_socle(h).key()


def peel_oracle(module, budget=50_000):
    """Oracle for `composition_factors`: the peel through nullspaces and
    quotient modules.  Each step takes the lowest coordinate line in a
    common eigenspace (`_eigen_leaves`, one nullspace per color and
    scalar), else the least eigenspace's first row, else a smallest
    cyclic submodule, and quotients by it with `quotient_module`.
    Returns the factors as (key, basis labels)."""
    from atomcat.linmod import _distinct_cyclic, _eigen_leaves
    out = []
    while module.dim:
        ops, n = module.ops, module.dim
        leaves = _eigen_leaves(module)
        units = [i for basis, piv in leaves for row, i in zip(basis, piv)
                 if row == ops.unit_vec(i, n)]
        if units:
            i = min(units)
            k = Submodule(module, (ops.unit_vec(i, n),), (i,))
        elif leaves:
            k = Submodule(module, *ops.rref(min(leaves)[0][:1], n))
        else:
            k = min(_distinct_cyclic(module, budget), key=Submodule.key)
        factor = submodule_as_module(k)
        out.append((factor.key(), factor.basis_labels))
        module = quotient_module(module, k)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_factors_match_the_peel_oracle(data):
    """Factor order, actions and labels, on a quiver module and on every
    submodule and quotient of it."""
    p = data.draw(st.sampled_from((2, 3)))
    q = data.draw(mixed_quivers(p, 5 if p == 2 else 3))
    m = module_of_quiver(q, FieldSpec(p))
    for h in [m] + [f(s) for s in submodule_lattice(m) for f in (
            submodule_as_module, lambda s: quotient_module(m, s))]:
        assert [(f.key(), f.basis_labels) for f, _ in
                composition_factors(h)] == peel_oracle(h)


def test_scan_memory_is_bounded():
    # one pass over the 16,383 lines of a 14-dimensional module with
    # three colors: per-line images, successors and Tarjan's arrays
    import tracemalloc
    from atomcat import harness
    from atomcat.linmod import _scan_cyclic
    m = module_of_quiver(harness.random_quiver(15, 14, 3, 0.15), GF2)
    assert (m.dim, len(m.actions)) == (14, 3)
    tracemalloc.start()
    try:
        _scan_cyclic(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("fn", [minimal_submodules, submodule_lattice,
                                lambda m: is_essential(full_submodule(m), m),
                                aass])
def test_over_budget_scan_refuses_before_allocating(fn):
    # a 17-cycle at p = 2: 131,071 lines, past the default budget
    import tracemalloc
    vs = [f"v{i:02d}" for i in range(17)]
    m = module_of_quiver(make_quiver(
        vs, ["c"], [(vs[i], vs[(i + 1) % 17], "c") for i in range(17)]), GF2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as ei:
            fn(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ei.value.context == {"seeds": 2 ** 17 - 1, "budget": 50_000}
    assert ei.value.partial is None
    assert peak < 2 ** 16


def test_seed_budget_counts_lines():
    # a 4-cycle at p = 3: 80 nonzero vectors on 40 lines, and
    # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) splits it into three simples
    def cycle(k):
        vs = [f"v{i}" for i in range(k)]
        return module_of_quiver(make_quiver(
            vs, ["c"], [(vs[i], vs[(i + 1) % k], "c") for i in range(k)]),
            FieldSpec(3))

    mins = minimal_submodules(cycle(4), budget=50)
    assert sorted(s.dim for s in mins) == [1, 1, 2]
    # a 5-cycle: 242 vectors on 121 lines
    with pytest.raises(BudgetExceeded) as ei:
        minimal_submodules(cycle(5), budget=50)
    assert ei.value.context["seeds"] == 121


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
        assert contains_vec(rep.socle, m.ops.unit_vec(2, 3))

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
            nonzero = nonzero_members(lat)
            expect = {s.key() for s in nonzero
                      if not any(0 < t.dim < s.dim and s.contains(t)
                                 for t in nonzero)}
            got = {s.key() for s in minimal_submodules(m)}
            assert got == expect

    def test_find_one_minimal_is_minimal(self):
        for m in (chain_module(4), loop_point()):
            k = _find_one_minimal(m, DEFAULT_BUDGET)
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
        for m in (chain_module(2), chain_module(4), loop_point(),
                  FdModule(GF2, 3, tuple("abc"), {})):
            assert len(composition_factors(m)) == longest_chain(m)


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
    assert _find_one_minimal(m, DEFAULT_BUDGET).dim == 2
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

def nested_pairs(module):
    """Every (lower, upper) pair of lattice members with lower in upper."""
    lat = list(submodule_lattice(module))
    return [(s, t) for t in lat for s in lat if t.contains(s)]


def factor_view(factors):
    return [(f.key(), f.basis_labels, lbl) for f, lbl in factors]


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

    @pytest.mark.parametrize("p", [2, 3])
    def test_subquotients_are_stored_per_pair_of_bases(self, p):
        m = irreducible_plus_line(p, ("a", "b", "c"))
        pairs = nested_pairs(m)
        quotients = [subquotient(m, s, t) for s, t in pairs]
        stored = m.stored()
        assert {k for k in stored if k[0] == "subquotient"} == {
            ("subquotient", s.basis, t.basis) for s, t in pairs}
        for (s, t), q in zip(pairs, quotients):
            pivots, actions = stored[("subquotient", s.basis, t.basis)]
            assert q.basis_labels == tuple("abc"[i] for i in pivots)
            assert actions == tuple(sorted(q.actions.items()))

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_upper_over_different_lowers(self, p):
        m = irreducible_plus_line(p, ("a", "b", "c"))
        block = minimal_submodules(m)[0]
        assert subquotient(m, zero_submodule(m), full_submodule(m)).dim == 3
        top = quotient_module(m, block)
        assert (top.dim, top.basis_labels) == (1, ("c",))
        assert submodule_as_module(block).basis_labels == ("a", "b")

    @pytest.mark.parametrize("p", [2, 3])
    def test_equal_actions_get_subquotients_with_own_labels(self, p,
                                                            monkeypatch):
        from atomcat import linmod
        m1 = irreducible_plus_line(p, ("a", "b", "c"))
        m2 = irreducible_plus_line(p, ("u", "v", "w"))
        one = [subquotient(m1, s, t) for s, t in nested_pairs(m1)]
        two = [subquotient(m2, s, t) for s, t in nested_pairs(m2)]
        assert [q.key() for q in one] == [q.key() for q in two]
        assert [q.basis_labels for q in two] == [
            tuple(self.RENAME[v] for v in q.basis_labels) for q in one]
        monkeypatch.setattr(linmod, "_STORE", {})
        m3 = irreducible_plus_line(p, ("u", "v", "w"))
        cold = [subquotient(m3, s, t) for s, t in nested_pairs(m3)]
        assert [(q.key(), q.basis_labels) for q in cold] == \
            [(q.key(), q.basis_labels) for q in two]

    @pytest.mark.parametrize("p", [2, 3])
    def test_reversed_pair_still_not_nested_after_a_hit(self, p):
        m = irreducible_plus_line(p, ("a", "b", "c"))
        block, full = minimal_submodules(m)[0], full_submodule(m)
        assert subquotient(m, block, full).dim == 1
        for mod in (m, irreducible_plus_line(p, ("u", "v", "w"))):
            with pytest.raises(NotNested):
                subquotient(mod, full_submodule(mod),
                            minimal_submodules(mod)[0])
        assert ("subquotient", full.basis, block.basis) not in m.stored()

    def test_smaller_lattice_budget_still_overflows_after_a_hit(self):
        # zero action on GF(2)^3: 7 seeds pass a budget of 10, and the
        # 16 subspaces overflow it
        m = FdModule(GF2, 3, tuple("abc"), {})
        assert len(submodule_lattice(m)) == 16
        for mod in (m, FdModule(GF2, 3, tuple("xyz"), {})):
            with pytest.raises(BudgetExceeded) as ei:
                submodule_lattice(mod, budget=10)
            assert not ei.value.partial.complete
