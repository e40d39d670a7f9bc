"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

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
