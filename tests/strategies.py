"""Hypothesis strategies, small modules and submodule helpers shared by
the test modules."""

from hypothesis import strategies as st

from atomcat import linalg
from atomcat.generators import truncate, union_term
from atomcat.linmod import FdModule, FieldSpec, Submodule
from atomcat.quiver import make_quiver


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


def disjoint_union(quivers, names=None):
    """The quivers side by side, `truncate(union_term(...))`: block k
    under names[k] (k if None), colors shared rather than renamed."""
    names = range(len(quivers)) if names is None else names
    return truncate(union_term(quivers, names)).quiver


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
    return linalg.in_span(sub.parent.ops, vec, sub.basis, sub.pivots)


def cyclic_submodule(module, vec):
    """The smallest submodule holding the packed row vec, by the
    field kernel's `cyclic_closure`."""
    basis, piv = module.ops.cyclic_closure(vec, module.action_stack(),
                                           module.dim)
    return Submodule(module, basis, piv)


def is_action_closed(sub):
    """Whether every color maps the submodule's basis rows into it."""
    return all(contains_vec(sub, sub.parent.act(row, c))
               for row in sub.basis for c in sub.parent.colors)


def nonzero_members(lattice):
    """The nonzero submodules of a lattice, in listing order."""
    return [s for s in lattice.members if s.dim > 0]
