"""Kernel-level checks: the GF(2) int-bitset kernel against a dense
numpy RREF oracle and against `modp` run at p = 2, and the `modp`
tuple-row kernel against the dense numpy routines of `dense_modp` at
p = 3 and 5."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_modp
from atomcat import bitmat, harness, modp
from atomcat.linalg import ops_for
from atomcat.linmod import (FieldSpec, hom_basis, module_of_quiver,
                            submodule_lattice)
from atomcat.quiver import make_quiver


def pack_rows(dense):
    """A dense 0/1 array, or one 0/1 vector, as int-bitset rows."""
    dense = np.atleast_2d(dense)
    return ops_for(2).pack(dense, dense.shape[1])


def unpack_rows(rows, ncols):
    """Int-bitset rows as a (len(rows), ncols) uint8 0/1 array."""
    return np.array(ops_for(2).unpack(rows, ncols),
                    dtype=np.uint8).reshape(len(rows), ncols)


def dense_rref_gf2(dense):
    """Independent dense-uint8 RREF oracle."""
    work = np.array(dense, dtype=np.uint8) % 2
    nrows, ncols = work.shape
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(work[r:, col])[0]
        if hits.size == 0:
            continue
        pr = r + hits[0]
        work[[r, pr]] = work[[pr, r]]
        for i in range(nrows):
            if i != r and work[i, col]:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def random_bits(draw, shape):
    size = int(np.prod(shape))
    bits = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return np.array(bits, dtype=np.uint8).reshape(shape)


@st.composite
def dense_matrices(draw):
    # widths cross a 64-bit word boundary and beyond
    r = draw(st.integers(0, 7))
    n = draw(st.integers(1, 130))
    return random_bits(draw, (r, n))


@st.composite
def actions_and_seed(draw):
    n = draw(st.integers(1, 12))
    colors = draw(st.integers(0, 3))
    acts = [random_bits(draw, (n, n)) for _ in range(colors)]
    return acts, random_bits(draw, (n,))


@settings(max_examples=80, deadline=None)
@given(dense_matrices())
def test_rref_matches_dense_oracle(dense):
    basis, pivots = bitmat.rref(pack_rows(dense))
    oracle, opiv = dense_rref_gf2(dense)
    assert list(pivots) == opiv
    assert np.array_equal(unpack_rows(basis, dense.shape[1]), oracle)


@settings(max_examples=80, deadline=None)
@given(actions_and_seed())
def test_cyclic_closure_matches_modp_at_p2(case):
    acts, seed = case
    n = len(seed)
    basis, pivots = bitmat.cyclic_closure(
        pack_rows(seed)[0], [pack_rows(a) for a in acts])
    want, wpiv = modp.cyclic_closure(seed.tolist(),
                                     [a.tolist() for a in acts], 2)
    assert list(pivots) == list(wpiv)
    assert unpack_rows(basis, n).tolist() == [list(r) for r in want]


@settings(max_examples=80, deadline=None)
@given(dense_matrices())
def test_nullspaces_match_modp_at_p2(dense):
    r, n = dense.shape
    packed = pack_rows(dense)
    right = bitmat.nullspace(packed, n)
    assert (unpack_rows(right, n).tolist()
            == [list(x) for x in modp.nullspace(dense.tolist(), n, 2)])
    left = bitmat.left_nullspace(packed, r, n)
    assert (unpack_rows(left, r).tolist()
            == [list(x) for x in modp.nullspace(dense.T.tolist(), r, 2)])


@st.composite
def gf2_simples(draw):
    """Dense actions of a simple module over GF(2), in a drawn order: a
    k-cycle and a loop on the first line (an invariant subspace reaches
    that line along the cycle, then every line), plus up to two random
    colors."""
    k = draw(st.integers(1, 8))
    loop = np.zeros((k, k), dtype=np.int64)
    loop[0, 0] = 1
    acts = [np.roll(np.eye(k, dtype=np.int64), 1, axis=1), loop]
    acts += [random_bits(draw, (k, k)).astype(np.int64)
             for _ in range(draw(st.integers(0, 2)))]
    return k, draw(st.permutations(acts))


@settings(max_examples=30, deadline=None)
@given(gf2_simples())
def test_spin_up_matches_modp_at_p2_for_every_seed(case):
    k, acts = case
    packed = [pack_rows(a) for a in acts]
    keys, forms = [], []
    for seed in range(1, 1 << k):
        keys.append(bitmat.spin_up(seed, packed, k))
        forms.append(modp.spin_up(tuple(seed >> t & 1 for t in range(k)),
                                  [a.tolist() for a in acts], k, 2))
        assert bitmat.unpack_form(keys[-1], k, len(acts)) == forms[-1]
    # int keys order the seeds as the coordinate tuples do
    seeds = range(len(keys))
    assert (sorted(seeds, key=keys.__getitem__)
            == sorted(seeds, key=forms.__getitem__))


def test_lattice_order_is_dim_then_rows():
    # directed 10-cycle: the invariant subspaces of a cyclic shift, rows
    # of 10 bits compared as ints
    verts = [f"v{i}" for i in range(10)]
    q = make_quiver(verts, ["a"],
                    [(verts[i], verts[(i + 1) % 10], "a") for i in range(10)])
    m = module_of_quiver(q, FieldSpec(2))
    members = submodule_lattice(m).members
    assert len(members) == 9
    assert list(members) == sorted(members, key=lambda s: (s.dim, s.basis))


def test_pack_roundtrip():
    # 200 columns: a GF(2) row spans more than one machine word
    rng = np.random.default_rng(7)
    verts = ["a", "b", "c"]
    q = make_quiver(verts, ["x", "y"], [("a", "b", "x"), ("b", "c", "x"),
                                        ("c", "a", "x"), ("a", "a", "y")])
    for p in (2, 3, 5):
        ops = ops_for(p)
        d = rng.integers(-p, 3 * p, size=(5, 200))
        back = ops.unpack(ops.pack(d, 200), 200)
        assert back == (d % p).tolist()
        assert all(type(x) is int for row in back for x in row)
        # dense matrices leave the library as plain int lists
        m = module_of_quiver(q, FieldSpec(p))
        assert json.dumps(m.dense_actions())
        assert json.dumps(hom_basis(m, m))


def test_vec_mat_matches_dense():
    rng = np.random.default_rng(3)
    n = 70
    act_dense = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
    v_dense = rng.integers(0, 2, size=n).astype(np.uint8)
    act = pack_rows(act_dense)
    v = pack_rows(v_dense)[0]
    got = unpack_rows([bitmat.vec_mat(v, act)], n)[0]
    want = (v_dense @ act_dense) % 2
    assert np.array_equal(got, want)


def test_cyclic_closure_nilpotent_chain():
    # single color shifting e0 -> e1 -> e2 -> 0
    n = 3
    act_dense = np.zeros((n, n), dtype=np.uint8)
    act_dense[0, 1] = 1
    act_dense[1, 2] = 1
    act = pack_rows(act_dense)
    basis, pivots = bitmat.cyclic_closure(0b001, [act])
    assert len(basis) == 3
    basis2, _ = bitmat.cyclic_closure(0b100, [act])
    assert len(basis2) == 1


def test_nullspace():
    dense = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    ns = bitmat.nullspace(pack_rows(dense), 4)
    assert len(ns) == 2
    for x in unpack_rows(ns, 4):
        assert not ((dense @ x) % 2).any()


def test_left_nullspace():
    # v . A = 0 with A the shift matrix: kernel is spanned by e2
    n = 3
    a = np.zeros((n, n), dtype=np.uint8)
    a[0, 1] = 1
    a[1, 2] = 1
    ker = bitmat.left_nullspace(pack_rows(a), n, n)
    assert len(ker) == 1
    assert np.array_equal(unpack_rows(ker, n)[0], [0, 0, 1])


def test_coords_in_basis():
    dense = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    basis, piv = bitmat.rref(pack_rows(dense))
    row = pack_rows([1, 1, 0])[0]
    assert bitmat.coords_in_basis(row, basis, piv) == 0b11
    assert bitmat.coords_in_basis(pack_rows([1, 0, 0])[0],
                                  basis, piv) is None


def test_modp_rref_gf3():
    mat = ((2, 1, 0), (1, 1, 0), (0, 0, 2))
    basis, piv = modp.rref(mat, 3)
    assert len(basis) == 3
    assert list(piv) == [0, 1, 2]
    # unit pivots, fully reduced
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_modp_nullspace_gf5():
    mat = ((1, 2, 3),)
    ns = modp.nullspace(mat, 3, 5)
    assert len(ns) == 2
    for row in ns:
        assert sum(a * x for a, x in zip(mat[0], row)) % 5 == 0


def test_line_seeds():
    vecs = list(ops_for(2).line_seeds(4))
    assert len(vecs) == 15
    assert len(set(vecs)) == 15
    # one vector per line of GF(3)^2, the one with leading coordinate 1
    assert sorted(ops_for(3).line_seeds(2)) == [(0, 1), (1, 0), (1, 1),
                                                (1, 2)]


# -- the GF(p) tuple-row kernel against the dense oracle ---------------------

@st.composite
def fp_cases(draw):
    """A prime, an r x n matrix over GF(p) (random, zero or of full rank
    r <= n, r = 0 included), a vector and up to three n x n actions, all
    as lists of ints in [0, p)."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 9))
    entry = st.integers(0, p - 1)

    def rows(r, m):
        return [draw(st.lists(entry, min_size=m, max_size=m))
                for _ in range(r)]

    kind = draw(st.sampled_from(["random", "zero", "full"]))
    r = draw(st.integers(0, min(n, 6) if kind == "full" else 6))
    mat = rows(r, n)
    if kind == "zero":
        mat = [[0] * n for _ in range(r)]
    elif kind == "full":
        # a nonzero entry in a column of its own per row: rank r
        cols = draw(st.permutations(range(n)))[:r]
        for i, row in enumerate(mat):
            for c in cols:
                row[c] = 0
            row[cols[i]] = draw(st.integers(1, p - 1))
    acts = [rows(n, n) for _ in range(draw(st.integers(0, 3)))]
    return p, n, mat, draw(st.lists(entry, min_size=n, max_size=n)), acts


def dense(mat, n):
    return np.array(mat, dtype=np.int64).reshape(len(mat), n)


def as_lists(rows):
    return [list(map(int, r)) for r in rows]


@settings(max_examples=150, deadline=None)
@given(fp_cases())
def test_fp_rref_and_reduce_row_match_dense_oracle(case):
    p, n, mat, vec, _ = case
    basis, piv = modp.rref(tuple(map(tuple, mat)), p)
    want, wpiv = dense_modp.rref(dense(mat, n), p)
    assert list(piv) == wpiv.tolist()
    assert as_lists(basis) == want.tolist()
    got = modp.reduce_row(tuple(vec), basis, piv, p)
    assert list(got) == dense_modp.reduce_row(vec, want, wpiv, p).tolist()


@settings(max_examples=150, deadline=None)
@given(fp_cases())
def test_fp_nullspaces_match_dense_oracle(case):
    p, n, mat, _, _ = case
    rows = tuple(map(tuple, mat))
    assert (as_lists(modp.nullspace(rows, n, p))
            == dense_modp.nullspace(dense(mat, n), p).tolist())
    r = len(mat)
    assert (as_lists(modp.left_nullspace(rows, r, n, p))
            == dense_modp.nullspace(dense(mat, n).T, p).tolist())


@settings(max_examples=150, deadline=None)
@given(fp_cases(), st.data())
def test_fp_coords_in_basis_match_dense_oracle(case, data):
    p, n, mat, vec, _ = case
    basis, piv = modp.rref(tuple(map(tuple, mat)), p)
    want, wpiv = dense_modp.rref(dense(mat, n), p)
    # a combination of the basis, and an arbitrary vector
    comb = data.draw(st.lists(st.integers(0, p - 1), min_size=len(basis),
                              max_size=len(basis)))
    inside = (np.array(comb, dtype=np.int64) @ want) % p
    for row in (inside.tolist(), vec):
        coeffs = modp.coords_in_basis(tuple(row), basis, piv, p)
        if dense_modp.reduce_row(row, want, wpiv, p).any():
            assert coeffs is None
        else:
            rebuilt = (np.array(coeffs, dtype=np.int64) @ want) % p
            assert rebuilt.tolist() == list(row)
    # a fully reduced basis has one set of coordinates per span vector
    assert (modp.coords_in_basis(tuple(inside.tolist()), basis, piv, p)
            == tuple(comb))


@settings(max_examples=150, deadline=None)
@given(fp_cases())
def test_fp_cyclic_closure_matches_dense_oracle(case):
    p, n, _, seed, acts = case
    basis, piv = modp.cyclic_closure(tuple(seed),
                                     [tuple(map(tuple, a)) for a in acts], p)
    want, wpiv = dense_modp.cyclic_closure(
        np.array(seed, dtype=np.int64), [dense(a, n) for a in acts], p)
    assert list(piv) == wpiv.tolist()
    assert as_lists(basis) == want.tolist()


def test_fp_lattice_order_is_dim_then_rows():
    # lattices of a directed 4-cycle and of a few random quivers
    verts = [f"v{i}" for i in range(4)]
    cycle = make_quiver(verts, ["a"], [(verts[i], verts[(i + 1) % 4], "a")
                                       for i in range(4)])
    quivers = [cycle] + [harness.random_quiver(s, 4, 2, 0.4) for s in range(8)]
    for p in (3, 5):
        for q in quivers:
            m = module_of_quiver(q, FieldSpec(p))
            members = submodule_lattice(m).members
            assert list(members) == sorted(
                members, key=lambda s: (s.dim, s.basis))
