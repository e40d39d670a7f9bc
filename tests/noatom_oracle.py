"""The atom-free construction grown as a word tree: the reference for
`terms.noatom_term`, built without terms or substitution.

Words are the strictly increasing integer words of at most depth + 1
entries from the window, grown shortest first.  Word w is vertex
v(w0,...,wk) with loop loop[wk].  Step arrows run from f + e to f + e2
when e starts one integer below e2, colored 1c(e|e2); fan arrows run
from f + (i,) to f + e when e starts with i and has at least two
entries, colored ic[i](e[1:]).  Neither color names the prefix f.
"""

from atomcat.errors import DepthTooSmall
from atomcat.quiver import GeneratedQuiver, make_quiver


def _ser(word):
    return ",".join(str(x) for x in word)


def _arrows(words):
    # (prefix, next entry) -> [(tail from that entry, word)]
    contexts = {}
    for w in words:
        for k in range(len(w)):
            contexts.setdefault(w[:k], {}).setdefault(w[k], []).append(
                (w[k:], w))
    for f, by_first in contexts.items():
        for i, tails in by_first.items():
            for e, w in tails:
                for e2, w2 in by_first.get(i + 1, ()):
                    yield w, w2, f"1c({_ser(e)}|{_ser(e2)})"
                if len(e) >= 2:
                    yield f + (i,), w, f"ic[{i}]({_ser(e[1:])})"


def words(trunc):
    """The words of a truncation, shortest first."""
    if trunc.depth < 0:
        raise DepthTooSmall("word length bound must be >= 0",
                            depth=trunc.depth)
    window = trunc.ladder_values()
    if window is None:
        window = range(trunc.depth + 1)
    window = [i for i in window if i >= 0]
    if not window:
        raise DepthTooSmall("empty integer window",
                            ladder_range=trunc.ladder_range)
    out = frontier = [(i,) for i in window]
    for _ in range(trunc.depth):
        frontier = [w + (j,) for w in frontier for j in window if j > w[-1]]
        out = out + frontier
    return window, out


def word_tree(trunc):
    """The truncation with its atom table (delta(i): the words ending in
    i) and its noetherian family (the loop simple of each integer, then
    the words that are runs i, i + 1, ..., shortest first)."""
    window, ws = words(trunc)
    vname = {w: f"v({_ser(w)})" for w in ws}
    arrows = [*dict.fromkeys((vname[s], vname[d], c, 1)
                             for s, d, c in _arrows(ws)),
              *((vname[w], vname[w], f"loop[{w[-1]}]", 1) for w in ws)]
    q = make_quiver(list(vname.values()),
                    sorted({color for _, _, color, _ in arrows}), arrows)
    table = {f"delta({i})": {"kind": "simple", "atom_label": f"delta({i})",
                             "loop_colors": [f"loop[{i}]"],
                             "vertices": [vname[w] for w in ws if w[-1] == i]}
             for i in window}
    family = [{"kind": "loop_simple", "label": f"noeth-loop({i})",
               "loop_colors": [f"loop[{i}]"]} for i in window]
    family += [{"kind": "chain", "label": f"noeth-chain({_ser(w)})",
                "word": list(w)}
               for w in ws if w == tuple(range(w[0], w[0] + len(w)))]
    return GeneratedQuiver(q, table, tuple(family))


def renamed(word_vertex):
    """Word vertex v(w0,...,wk) as the term names it, w0/w1/.../wk/r/v(wk)."""
    w = word_vertex[2:-1].split(",")
    return "/".join(w) + f"/r/v({w[-1]})"
