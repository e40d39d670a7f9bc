"""Hypothesis strategies, small modules and submodule helpers shared by
the test modules."""

import numpy as np
from hypothesis import strategies as st

import dense_modp
from atomcat.generators import truncate
from atomcat.linmod import FdModule, FieldSpec, Submodule
from atomcat.quiver import make_quiver
from atomcat.terms import chain_term, union_term


@st.composite
def valued_quivers(draw, p, max_vertices, dag=False):
    """Random arrows with values in 1..p-1; with `dag`, only loops and
    arrows from a vertex to a later one."""
    nv = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(nv)]
    cs = ["c0", "c1"]
    arrows = [(v, w, c, draw(st.integers(1, p - 1)))
              for i, v in enumerate(vs) for j, w in enumerate(vs)
              for c in cs if (i <= j or not dag) and draw(st.booleans())]
    return make_quiver(vs, cs, arrows)


@st.composite
def sparse_quivers(draw, p, max_vertices, dag=False):
    """At most two valued arrows per vertex: sparse quivers have the
    largest lattices, with sums of three or more cyclic submodules, and
    often two isomorphic simple summands; with `dag`, only loops and
    arrows from a vertex to a later one."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    triples = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs),
                                      st.sampled_from(("c0", "c1"))),
                            max_size=2 * len(vs), unique=True))
    return make_quiver(vs, ["c0", "c1"], [
        (*t, draw(st.integers(1, p - 1))) for t in triples
        if not dag or vs.index(t[0]) <= vs.index(t[1])])


def mixed_quivers(p, max_vertices, dag=False):
    """Dense (`valued_quivers`) or sparse (`sparse_quivers`) draws."""
    return st.one_of(valued_quivers(p, max_vertices, dag),
                     sparse_quivers(p, max_vertices, dag))


def disjoint_union(quivers, names=None):
    """The quivers side by side, `truncate(union_term(...))`: block k
    under names[k] (k if None), colors shared rather than renamed."""
    names = range(len(quivers)) if names is None else names
    return truncate(union_term(quivers, names)).quiver


def chain(blocks, tags=None):
    """The blocks on a path, `truncate(chain_term(...))`: block i under
    bi, joined to block i + 1 by a bundle tagged tags[i], (chain;i) if
    None."""
    return truncate(chain_term(blocks, tags)).quiver


def irreducible_plus_line(p, labels):
    """A simple 2-dim block on the first two lines (no eigenvector: the
    companion matrix of x^2 + x + 1 at p = 2, of x^2 + 1 at p = 3) and
    a third line that color y sends into it."""
    field = FieldSpec(p)
    x = [[0, 1], [1, 1]] if p == 2 else [[0, 2], [1, 0]]
    dense = {"x": [[*x[0], 0], [*x[1], 0], [0, 0, 0]],
             "y": [[0, 0, 0], [0, 0, 0], [1, 0, 0]]}
    return FdModule(field, 3, labels,
                    {c: field.ops.pack(m, 3) for c, m in dense.items()})


def contains_vec(sub, vec):
    """Whether the submodule holds the packed row vec."""
    ops = sub.parent.ops
    return ops.is_zero(ops.reduce_row(vec, sub.basis, sub.pivots))


def cyclic_submodule(module, vec):
    """The smallest submodule holding the packed row vec, by the dense
    oracle `dense_modp.cyclic_closure`."""
    ops, n, p = module.ops, module.dim, module.field.p
    acts = [np.array(ops.unpack(a, n), dtype=np.int64).reshape(n, n)
            for a in module.action_stack()]
    basis, piv = dense_modp.cyclic_closure(
        np.array(ops.unpack((vec,), n)[0], dtype=np.int64), acts, p)
    return Submodule(module, ops.pack(basis.tolist(), n),
                     tuple(map(int, piv)))


def is_action_closed(sub):
    """Whether every color maps the submodule's basis rows into it."""
    return all(contains_vec(sub, sub.parent.act(row, c))
               for row in sub.basis for c in sub.parent.colors)


def nonzero_members(lattice):
    """The nonzero submodules of a lattice, in listing order."""
    return [s for s in lattice if s.dim > 0]
