"""The forward-skeleton shortcut of the skeleton reads of
`atomcat.terms` against the Tarjan-only reads of `skeleton_oracle`: the
same refusals and the same (plan, count) on small random skeletons,
and no Tarjan on a skeleton whose arrows all run forward."""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomcat import terms
from atomcat.errors import AtomcatError
from skeleton_oracle import require_acyclic, skeleton_parts


@st.composite
def skeletons(draw):
    """(counts, arrows): n <= 6 children with 0 to 2 blocks each, and
    (i, j, tag) arrows that run forward, run backward, or have any ends
    in -1..n, so loops, cycles and ends out of range come up."""
    n = draw(st.integers(0, 6))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("forward", "backward", "any")))
    if n < 2:  # no arrow joins two distinct children
        kind = "any"
    ends = st.integers(-1, n) if kind == "any" else \
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    arrows = []
    for k in range(draw(st.integers(0, 8))):
        if kind == "any":
            i, j = draw(ends), draw(ends)
        else:
            i, j = sorted(draw(ends), reverse=kind == "backward")
        arrows.append((i, j, f"t{k}"))
    return counts, tuple(arrows)


def outcome(read, *args):
    try:
        return "value", read(*args)
    except (AtomcatError, IndexError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "context", None)


@settings(max_examples=400, deadline=None)
@given(skeletons())
@example(([1], ((0, 0, "t"),)))              # a loop is no forward arrow
@example(([1, 1], ((0, 1, "t"), (1, 1, "u"))))
@example(([1, 1], ((0, 2, "t"),)))           # forward, but out of range
@example(([1, 1], ((-1, 0, "t"),)))
@example(([1, 0, 1], ((2, 1, "t"), (1, 0, "u"))))  # an empty child
def test_forward_shortcut_agrees_with_tarjan(case):
    """`_require_acyclic` on every drawn arrow, ends in -1..n;
    `_skeleton_parts` on the arrows with both ends in 0..n-1, the only
    ones `generators._composite` passes it once `_require_ends` has
    refused the rest."""
    counts, arrows = case
    n = len(counts)
    in_range = tuple(a for a in arrows if 0 <= a[0] < n and 0 <= a[1] < n)
    with mock.patch.object(terms, "_tarjan", wraps=terms._tarjan) as tarjan:
        assert outcome(terms._require_acyclic, n, arrows) == \
            outcome(require_acyclic, n, arrows)
        assert outcome(terms._skeleton_parts, in_range, counts) == \
            outcome(skeleton_parts, in_range, counts)
    if all(0 <= i < j < n for i, j, _ in arrows):
        assert tarjan.call_count == 0
