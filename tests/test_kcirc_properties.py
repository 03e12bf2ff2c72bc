"""Property tests of |Aut|, the symmetry profile and the spectrum under
relabelling; skipped without hypothesis, so the rest of the suite runs on
pytest alone."""
import random

import pytest

from circulant_lab.aut import automorphism_group, symmetry_profile
from circulant_lab.cli import build_odd
from circulant_lab.kcirc import k_spectrum
from circulant_lab.perm import cycle_structure, is_semiregular
from helpers import random_cubic_graph, relabel

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def _graph_and_relabelling(draw):
    if draw(st.booleans()):
        n = draw(st.sampled_from(range(4, 21, 2)))
        graph = random_cubic_graph(random.Random(draw(st.integers(0, 2 ** 16))), n)
    else:
        graph = build_odd(draw(st.sampled_from((3, 5)))).graph
    images = draw(st.permutations(range(graph.n)))
    return graph, images


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(_graph_and_relabelling())
def test_spectrum_is_invariant_under_relabelling(case):
    # |Aut| and the whole symmetry profile are invariants too
    graph, images = case
    moved = relabel(graph, images)
    group, moved_group = automorphism_group(graph), automorphism_group(moved)
    assert moved_group.order() == group.order()
    assert symmetry_profile(moved, moved_group) == symmetry_profile(graph, group)
    report = k_spectrum(moved, moved_group)
    assert report.spectrum == k_spectrum(graph, group).spectrum
    for k, w in report.witnesses.items():
        cs = cycle_structure(w)
        assert is_semiregular(w) and len(cs.cycle_lengths) == k
        assert all(w[v] in moved.adjacency[w[u]] for u, v in moved.edges())
