"""Kernel-level checks: the GF(2) int-bitset kernel against a dense
numpy RREF oracle and against `modp`'s dense routines run at p = 2."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atomcat import bitmat, modp
from atomcat.linalg import ops_for
from atomcat.linmod import FieldSpec, module_of_quiver, submodule_lattice
from atomcat.quiver import make_quiver


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
    basis, pivots = bitmat.rref(bitmat.pack_rows(dense))
    oracle, opiv = dense_rref_gf2(dense)
    assert list(pivots) == opiv
    assert np.array_equal(bitmat.unpack_rows(basis, dense.shape[1]), oracle)


@settings(max_examples=80, deadline=None)
@given(actions_and_seed())
def test_cyclic_closure_matches_modp_at_p2(case):
    acts, seed = case
    n = len(seed)
    basis, pivots = bitmat.cyclic_closure(
        bitmat.pack_rows(seed)[0], [bitmat.pack_rows(a) for a in acts])
    want, wpiv = modp.cyclic_closure(seed.astype(np.int64),
                                     [a.astype(np.int64) for a in acts], 2)
    assert list(pivots) == list(wpiv)
    assert np.array_equal(bitmat.unpack_rows(basis, n), want)


@settings(max_examples=80, deadline=None)
@given(dense_matrices())
def test_nullspaces_match_modp_at_p2(dense):
    r, n = dense.shape
    packed = bitmat.pack_rows(dense)
    right = bitmat.nullspace(packed, n)
    assert np.array_equal(bitmat.unpack_rows(right, n),
                          modp.nullspace(dense.astype(np.int64), 2))
    left = bitmat.left_nullspace(packed, r, n)
    assert np.array_equal(bitmat.unpack_rows(left, r),
                          modp.nullspace(dense.T.astype(np.int64), 2))


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
    packed = [bitmat.pack_rows(a) for a in acts]
    keys, forms = [], []
    for seed in range(1, 1 << k):
        keys.append(bitmat.spin_up(seed, packed, k))
        forms.append(modp.spin_up(tuple(seed >> t & 1 for t in range(k)),
                                  acts, k, 2))
        assert bitmat.unpack_form(keys[-1], k, len(acts)) == forms[-1]
    # int keys order the seeds as the coordinate tuples do
    seeds = range(len(keys))
    assert (sorted(seeds, key=keys.__getitem__)
            == sorted(seeds, key=forms.__getitem__))


def packed_word_bytes(rows, ncols):
    """Rows as little-endian uint64 words, one word per 64 columns."""
    words = max(1, (ncols + 63) // 64)
    mask = (1 << 64) - 1
    return np.array([[(r >> (64 * j)) & mask for j in range(words)]
                     for r in rows], dtype=np.uint64).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 12), st.integers(1, 4),
       st.lists(st.integers(0, 2 ** 48 - 1), min_size=2, max_size=12))
def test_order_key_matches_packed_word_bytes(n, dim, draws):
    ops = ops_for(2)
    mask = (1 << n) - 1
    bases = []
    for x in draws:
        rows = [(x >> (12 * i)) & mask for i in range(dim)]
        bases.append(bitmat.rref(rows)[0])
    bases = [b for b in bases if len(b) == dim]
    by_key = sorted(bases, key=lambda b: ops.order_key(b, n))
    by_bytes = sorted(bases, key=lambda b: packed_word_bytes(b, n))
    assert by_key == by_bytes


def test_lattice_order_matches_packed_word_bytes():
    # directed 10-cycle: the invariant subspaces of a cyclic shift
    verts = [f"v{i}" for i in range(10)]
    q = make_quiver(verts, ["a"],
                    [(verts[i], verts[(i + 1) % 10], "a") for i in range(10)])
    m = module_of_quiver(q, FieldSpec(2))
    members = submodule_lattice(m).members
    assert len(members) == 9
    assert list(members) == sorted(
        members, key=lambda s: (s.dim, packed_word_bytes(s.basis, 10)))


def test_pack_roundtrip():
    rng = np.random.default_rng(7)
    dense = rng.integers(0, 2, size=(5, 200), dtype=np.uint64).astype(np.uint8)
    packed = bitmat.pack_rows(dense)
    assert np.array_equal(bitmat.unpack_rows(packed, 200), dense)


def test_vec_mat_matches_dense():
    rng = np.random.default_rng(3)
    n = 70
    act_dense = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
    v_dense = rng.integers(0, 2, size=n).astype(np.uint8)
    act = bitmat.pack_rows(act_dense)
    v = bitmat.pack_rows(v_dense)[0]
    got = bitmat.unpack_rows([bitmat.vec_mat(v, act)], n)[0]
    want = (v_dense @ act_dense) % 2
    assert np.array_equal(got, want)


def test_cyclic_closure_nilpotent_chain():
    # single color shifting e0 -> e1 -> e2 -> 0
    n = 3
    act_dense = np.zeros((n, n), dtype=np.uint8)
    act_dense[0, 1] = 1
    act_dense[1, 2] = 1
    act = bitmat.pack_rows(act_dense)
    basis, pivots = bitmat.cyclic_closure(0b001, [act])
    assert len(basis) == 3
    basis2, _ = bitmat.cyclic_closure(0b100, [act])
    assert len(basis2) == 1


def test_nullspace():
    dense = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    ns = bitmat.nullspace(bitmat.pack_rows(dense), 4)
    assert len(ns) == 2
    for x in bitmat.unpack_rows(ns, 4):
        assert not ((dense @ x) % 2).any()


def test_left_nullspace():
    # v . A = 0 with A the shift matrix: kernel is spanned by e2
    n = 3
    a = np.zeros((n, n), dtype=np.uint8)
    a[0, 1] = 1
    a[1, 2] = 1
    ker = bitmat.left_nullspace(bitmat.pack_rows(a), n, n)
    assert len(ker) == 1
    assert np.array_equal(bitmat.unpack_rows(ker, n)[0], [0, 0, 1])


def test_coords_in_basis():
    dense = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    basis, piv = bitmat.rref(bitmat.pack_rows(dense))
    row = bitmat.pack_rows([1, 1, 0])[0]
    assert bitmat.coords_in_basis(row, basis, piv) == 0b11
    assert bitmat.coords_in_basis(bitmat.pack_rows([1, 0, 0])[0],
                                  basis, piv) is None


def test_modp_rref_gf3():
    mat = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 2]], dtype=np.int64)
    basis, piv = modp.rref(mat, 3)
    assert basis.shape[0] == 3
    assert list(piv) == [0, 1, 2]
    # unit pivots, fully reduced
    assert np.array_equal(basis, np.eye(3, dtype=np.int64))


def test_modp_nullspace_gf5():
    mat = np.array([[1, 2, 3]], dtype=np.int64)
    ns = modp.nullspace(mat, 5)
    assert ns.shape[0] == 2
    for row in ns:
        assert (mat @ row) % 5 == 0


def test_enumerate_nonzero_vectors():
    vecs = list(ops_for(2).enumerate_nonzero(4))
    assert len(vecs) == 15
    assert len(set(vecs)) == 15
    vecs3 = list(modp.enumerate_nonzero_vectors(2, 3))
    assert len(vecs3) == 8
