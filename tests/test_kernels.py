"""Kernel-level checks: the GF(2) int-bitset kernel `F2Ops` against a
dense numpy RREF oracle and against `FpOps(2)`, and the `FpOps`
tuple-row kernel against the dense numpy routines of `dense_modp` at
p = 3 and 5."""

import inspect
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_modp
from atomcat import harness
from atomcat.linalg import F2Ops, FpOps, cyclic_submodules, ops_for
from atomcat.linmod import (FieldSpec, hom_basis, module_of_quiver,
                            submodule_lattice)
from atomcat.quiver import make_quiver

F2 = ops_for(2)


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
    basis, pivots = F2.rref(pack_rows(dense), None)
    oracle, opiv = dense_rref_gf2(dense)
    assert list(pivots) == opiv
    assert np.array_equal(unpack_rows(basis, dense.shape[1]), oracle)


def line_seeds(n, p):
    """Every line of GF(p)^n once, as a dense vector, in the kernels'
    seed order: at p = 2 the ints 1, 2, ..., 2**n - 1 read bit j as
    coordinate j; at odd p the vectors with leading coordinate 1,
    lexicographically."""
    if p == 2:
        return [[v >> j & 1 for j in range(n)] for v in range(1, 1 << n)]
    return [list(s) for s in itertools.product(range(p), repeat=n)
            if next((x for x in s if x), 0) == 1]


def dense_closure(seed, acts, n, p):
    """`dense_modp.cyclic_closure` of a dense seed as (rows, pivots)
    lists."""
    basis, piv = dense_modp.cyclic_closure(
        np.array(seed, dtype=np.int64),
        [np.array(a, dtype=np.int64).reshape(n, n) for a in acts], p)
    return basis.tolist(), piv.tolist()


def dense_cyclic_submodules(acts, n, p):
    """Oracle: the dense closure of every line seed, the distinct ones
    in the order of their first seed."""
    out = {}
    for seed in line_seeds(n, p):
        basis, piv = dense_closure(seed, acts, n, p)
        out.setdefault((tuple(map(tuple, basis)), tuple(piv)), None)
    return [(list(map(list, b)), list(q)) for b, q in out]


def kernel_cyclic_submodules(acts, n, p):
    """`cyclic_submodules` of the field's kernel on dense actions, as
    (rows, pivots) lists."""
    ops = ops_for(p)
    got = cyclic_submodules(ops, [ops.pack(a, n) for a in acts], n)
    return [(ops.unpack(b, n), list(q)) for b, q in got]


def least_holding(subs, seed, p):
    """The smallest of the (rows, pivots) submodules whose span holds
    the dense seed: the cyclic submodule of the seed when `subs` lists
    every cyclic submodule."""
    holding = [(b, q) for b, q in subs if not dense_modp.reduce_row(
        seed, np.array(b, dtype=np.int64).reshape(len(b), len(seed)),
        q, p).any()]
    return min(holding, key=lambda s: len(s[0]))


@settings(max_examples=80, deadline=None)
@given(actions_and_seed())
def test_cyclic_closure_matches_modp_at_p2(case):
    # the cyclic submodule of a seed, read off each kernel's scan at
    # p = 2, is the dense oracle's closure of the seed
    acts, seed = case
    n = len(seed)
    acts = [a.tolist() for a in acts]
    want = dense_closure(seed.tolist(), acts, n, 2)
    scans = [kernel_cyclic_submodules(acts, n, 2)]
    if n <= 8:  # the tuple-row scan of 2**12 lines takes a while
        scans.append([(list(map(list, b)), list(q))
                      for b, q in cyclic_submodules(FpOps(2), acts, n)])
        assert sorted(scans[0]) == sorted(scans[1])
    for subs in scans:
        if seed.any():
            assert least_holding(subs, seed.tolist(), 2) == tuple(want)


@settings(max_examples=80, deadline=None)
@given(dense_matrices())
def test_nullspaces_match_modp_at_p2(dense):
    r, n = dense.shape
    packed = pack_rows(dense)
    right = F2.nullspace(packed, n)
    assert (unpack_rows(right, n).tolist()
            == [list(x) for x in FpOps(2).nullspace(dense.tolist(), n)])
    left = F2.left_nullspace(packed, r, n)
    assert (unpack_rows(left, r).tolist()
            == [list(x) for x in FpOps(2).nullspace(dense.T.tolist(), r)])


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
        keys.append(F2.spin_up(seed, packed, k, None))
        forms.append(FpOps(2).spin_up(tuple(seed >> t & 1 for t in range(k)),
                                      [a.tolist() for a in acts], k, None))
        assert F2.unpack_form(keys[-1], k, len(acts)) == forms[-1]
    # int keys order the seeds as the coordinate tuples do
    seeds = range(len(keys))
    assert (sorted(seeds, key=keys.__getitem__)
            == sorted(seeds, key=forms.__getitem__))


def bounded_least(spin_up, seeds):
    """The least form as `atomspec.canonical_simple_form` finds it: each
    spin-up bounded by the least form so far."""
    best = None
    for seed in seeds:
        form = spin_up(seed, best)
        if form is not None:
            best = form
    return best


@st.composite
def gf3_simples(draw):
    """Dense actions of a simple module over GF(3): a k-cycle with
    nonzero weights, a nonzero loop on the first line and up to two
    random colors, in a drawn order (simple as in `gf2_simples`)."""
    k = draw(st.integers(1, 5))
    cycle = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        cycle[i, (i + 1) % k] = draw(st.integers(1, 2))
    loop = np.zeros((k, k), dtype=np.int64)
    loop[0, 0] = draw(st.integers(1, 2))
    acts = [cycle, loop] + [
        np.array(draw(st.lists(st.integers(0, 2), min_size=k * k,
                               max_size=k * k))).reshape(k, k)
        for _ in range(draw(st.integers(0, 2)))]
    return k, draw(st.permutations(acts))


# simples whose endomorphism ring is GF(4) or GF(9): every seed spins up
# to the least form, so each seed ties with the bound
TIED = [(2, [[[0, 1], [1, 1]]]), (3, [[[0, 2], [1, 0]]]),
        (3, [[[0, 2], [1, 0]], [[1, 1], [2, 1]]])]


def check_bounded_least(p, k, acts):
    """The bounded least form equals the unbounded min over every seed,
    in the field's kernel and, at p = 2, in `FpOps(2)` as well."""
    seeds = list(ops_for(p).line_seeds(k))
    if p == 2:
        packed = [pack_rows(a) for a in acts]
        want = min(F2.spin_up(s, packed, k, None) for s in seeds)
        assert bounded_least(lambda s, b: F2.spin_up(s, packed, k, b),
                             seeds) == want
        seeds = [tuple(s >> t & 1 for t in range(k)) for s in seeds]
    rows, fp = [np.asarray(a).tolist() for a in acts], FpOps(p)
    want = min(fp.spin_up(s, rows, k, None) for s in seeds)
    assert bounded_least(lambda s, b: fp.spin_up(s, rows, k, b),
                         seeds) == want
    return [fp.spin_up(s, rows, k, None) for s in seeds].count(want)


@settings(max_examples=40, deadline=None)
@given(st.one_of(gf2_simples().map(lambda c: (2, *c)),
                 gf3_simples().map(lambda c: (3, *c))))
def test_bounded_spin_ups_keep_the_least_form(case):
    check_bounded_least(*case)


@pytest.mark.parametrize("p, acts", TIED)
def test_bounded_spin_ups_keep_the_least_form_through_ties(p, acts):
    k = len(acts[0])
    assert check_bounded_least(p, k, acts) == len(
        list(ops_for(p).line_seeds(k)))


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
    got = unpack_rows([F2.vec_mat(v, act, n)], n)[0]
    want = (v_dense @ act_dense) % 2
    assert np.array_equal(got, want)


def test_cyclic_closure_nilpotent_chain():
    # single color shifting e0 -> e1 -> e2 -> 0: the seeds e0, e1 and e2
    # close to the three tails, listed in seed order: e0 first at p = 2
    # (seeds 1, 2, 4), e2 first at p = 3 (lexicographic)
    act = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    tails = [([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2]),
             ([[0, 1, 0], [0, 0, 1]], [1, 2]), ([[0, 0, 1]], [2])]
    for p, order in ((2, tails), (3, tails[::-1])):
        assert kernel_cyclic_submodules([act], 3, p) == order
        assert dense_cyclic_submodules([act], 3, p) == order
        for seed, tail in zip(([1, 0, 0], [0, 1, 0], [0, 0, 1]), tails):
            assert dense_closure(seed, [act], 3, p) == tail


def test_nullspace():
    dense = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    ns = F2.nullspace(pack_rows(dense), 4)
    assert len(ns) == 2
    for x in unpack_rows(ns, 4):
        assert not ((dense @ x) % 2).any()


def test_left_nullspace():
    # v . A = 0 with A the shift matrix: kernel is spanned by e2
    n = 3
    a = np.zeros((n, n), dtype=np.uint8)
    a[0, 1] = 1
    a[1, 2] = 1
    ker = F2.left_nullspace(pack_rows(a), n, n)
    assert len(ker) == 1
    assert np.array_equal(unpack_rows(ker, n)[0], [0, 0, 1])


def test_coords_in_basis():
    dense = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    basis, piv = F2.rref(pack_rows(dense), None)
    row = pack_rows([1, 1, 0])[0]
    assert F2.coords(row, basis, piv, 3) == 0b11
    assert F2.coords(pack_rows([1, 0, 0])[0], basis, piv, 3) is None


def test_modp_rref_gf3():
    mat = ((2, 1, 0), (1, 1, 0), (0, 0, 2))
    basis, piv = FpOps(3).rref(mat, None)
    assert len(basis) == 3
    assert list(piv) == [0, 1, 2]
    # unit pivots, fully reduced
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_modp_nullspace_gf5():
    mat = ((1, 2, 3),)
    ns = FpOps(5).nullspace(mat, 3)
    assert len(ns) == 2
    for row in ns:
        assert sum(a * x for a, x in zip(mat[0], row)) % 5 == 0


def ops_shape(cls):
    """Each public method of an ops class with its signature."""
    return {name: str(inspect.signature(fn))
            for name, fn in vars(cls).items()
            if inspect.isfunction(fn) and not name.startswith("_")}


def test_both_kernels_have_one_ops_shape():
    # callers reach either field's kernel through the same methods, with
    # the same parameter names, although the classes live in two modules
    shape = ops_shape(F2Ops)
    assert "rref" in shape and shape == ops_shape(FpOps)


def test_line_seeds():
    vecs = list(ops_for(2).line_seeds(4))
    assert len(vecs) == 15
    assert len(set(vecs)) == 15
    # one vector per line of GF(3)^2, the one with leading coordinate 1
    assert sorted(ops_for(3).line_seeds(2)) == [(0, 1), (1, 0), (1, 1),
                                                (1, 2)]


# -- the GF(p) tuple-row kernel against the dense oracle ---------------------

@st.composite
def fp_cases(draw, max_n=9):
    """A prime, an r x n matrix over GF(p) (random, zero or of full rank
    r <= n, r = 0 included), a vector and up to three n x n actions, all
    as lists of ints in [0, p)."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, max_n))
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
    fp = FpOps(p)
    basis, piv = fp.rref(tuple(map(tuple, mat)), None)
    want, wpiv = dense_modp.rref(dense(mat, n), p)
    assert list(piv) == wpiv.tolist()
    assert as_lists(basis) == want.tolist()
    got = fp.reduce_row(tuple(vec), basis, piv)
    assert list(got) == dense_modp.reduce_row(vec, want, wpiv, p).tolist()


@st.composite
def rref_extensions(draw):
    """The ops of F2Ops, FpOps(2) or FpOps(3), a dimension, the dense
    rows of a space and new dense rows: random, or combinations of the
    space's rows."""
    ops = draw(st.sampled_from([ops_for(2), FpOps(2), FpOps(3)]))
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(0, ops.p - 1), min_size=n, max_size=n)
    old = draw(st.lists(row, max_size=n + 1))
    if old and draw(st.booleans()):
        coeffs = draw(st.lists(st.lists(st.integers(0, ops.p - 1),
                                        min_size=len(old),
                                        max_size=len(old)), max_size=3))
        new = ((np.array(coeffs, dtype=np.int64).reshape(-1, len(old))
                @ dense(old, n)) % ops.p).tolist()
    else:
        new = draw(st.lists(row, max_size=n + 2))
    return ops, n, old, new


@settings(max_examples=200, deadline=None)
@given(rref_extensions())
def test_rref_extends_a_space_like_the_dense_oracle(case):
    # the rows of the space, then the new rows, in the dense oracle; the
    # space itself back when they add nothing; at full rank the identity,
    # or the full space given, with no row read after it (a None row
    # would raise)
    ops, n, old, new = case
    space = ops.rref(ops.pack(old, n), n)
    got = ops.rref(ops.pack(new, n), n, space)
    want, wpiv = dense_modp.rref(dense(old + new, n), ops.p)
    assert (ops.unpack(got[0], n), list(got[1])) == \
        (want.tolist(), wpiv.tolist())
    assert (got is space) == (len(wpiv) == len(space[1]))
    if len(space[1]) < len(wpiv) == n:
        full = ops.rref((*ops.pack(new, n), None), n, space)
        assert (ops.unpack(full[0], n), list(full[1])) == \
            (np.eye(n, dtype=int).tolist(), list(range(n)))
        shared = tuple(full[0]), tuple(full[1])
        assert ops.rref((*ops.pack(new, n), None), n, space,
                        shared) is shared


@settings(max_examples=150, deadline=None)
@given(fp_cases())
def test_fp_nullspaces_match_dense_oracle(case):
    p, n, mat, _, _ = case
    rows = tuple(map(tuple, mat))
    assert (as_lists(FpOps(p).nullspace(rows, n))
            == dense_modp.nullspace(dense(mat, n), p).tolist())
    r = len(mat)
    assert (as_lists(FpOps(p).left_nullspace(rows, r, n))
            == dense_modp.nullspace(dense(mat, n).T, p).tolist())


@settings(max_examples=150, deadline=None)
@given(fp_cases(), st.data())
def test_fp_coords_in_basis_match_dense_oracle(case, data):
    p, n, mat, vec, _ = case
    fp = FpOps(p)
    basis, piv = fp.rref(tuple(map(tuple, mat)), None)
    want, wpiv = dense_modp.rref(dense(mat, n), p)
    # a combination of the basis, and an arbitrary vector
    comb = data.draw(st.lists(st.integers(0, p - 1), min_size=len(basis),
                              max_size=len(basis)))
    inside = (np.array(comb, dtype=np.int64) @ want) % p
    for row in (inside.tolist(), vec):
        coeffs = fp.coords(tuple(row), basis, piv, n)
        if dense_modp.reduce_row(row, want, wpiv, p).any():
            assert coeffs is None
        else:
            rebuilt = (np.array(coeffs, dtype=np.int64) @ want) % p
            assert rebuilt.tolist() == list(row)
    # a fully reduced basis has one set of coordinates per span vector
    assert (fp.coords(tuple(inside.tolist()), basis, piv, n)
            == tuple(comb))


@settings(max_examples=150, deadline=None)
@given(fp_cases(max_n=4))
def test_fp_cyclic_closure_matches_dense_oracle(case):
    # the scan holds every line of GF(p)^n, so n stays at most 4
    p, n, _, seed, acts = case
    want = dense_closure(seed, acts, n, p)
    if any(seed):
        assert least_holding(kernel_cyclic_submodules(acts, n, p), seed,
                             p) == tuple(want)


@st.composite
def scan_cases(draw):
    """A prime, a dimension and up to three actions as dense lists: zero
    actions, a nilpotent shift, or random entries in a drawn density."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 6 if p == 2 else 4))

    def action():
        kind = draw(st.sampled_from(["zero", "shift", "sparse", "dense"]))
        if kind == "zero":
            return [[0] * n for _ in range(n)]
        if kind == "shift":
            return [[int(j == i + 1) for j in range(n)] for i in range(n)]
        nonzero = st.integers(1, p - 1)
        entry = (st.one_of(st.just(0), st.just(0), st.just(0), nonzero)
                 if kind == "sparse" else st.integers(0, p - 1))
        return [[draw(entry) for _ in range(n)] for _ in range(n)]

    return p, n, [action() for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=120, deadline=None)
@given(scan_cases())
def test_cyclic_submodules_match_dense_closures_of_every_seed(case):
    p, n, acts = case
    assert kernel_cyclic_submodules(acts, n, p) == \
        dense_cyclic_submodules(acts, n, p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, acts, count", [
    (0, [], 0),                               # dim 0
    (0, [[]], 0),
    (3, [], None),                            # no colors: every line
    (3, [[[0] * 3] * 3], None),               # a zero action
    (4, [[[int(j == i + 1) for j in range(4)] for i in range(4)]], 4),
    (4, [[[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)],
         [[int(i == j == 0) for j in range(4)] for i in range(4)]], 1),
])
def test_cyclic_submodules_edge_cases(p, n, acts, count):
    # None: each line is a submodule of its own; a nilpotent shift has
    # its four tails, a cycle with a loop is simple
    got = kernel_cyclic_submodules(acts, n, p)
    assert got == dense_cyclic_submodules(acts, n, p)
    assert len(got) == (len(line_seeds(n, p)) if count is None else count)


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
