"""One test per acceptance criterion.  Each delegates to the acceptance
module, prints the one-line report entry, and asserts the verdict.  The
rooted-tree enumerator behind criterion 6's monotonicity sweep is pinned
against OEIS A000081 and an independent canonical form; the inputs of
criteria 7 and 9b are pinned against the exhaustive filters they replace,
and criterion 9a's oracle is shown to catch faulty mutants of find_squares'
kernel."""

import pytest

from nonrep import acceptance
from nonrep.repetitions import _square_pairs


def _ahu(parent):
    """AHU canonical string of a rooted tree given as a parent array with
    parent[v] < v: each vertex reads "(" + its children's sorted strings + ")"."""
    kids = [[] for _ in parent]
    form = [""] * len(parent)
    for v in range(len(parent) - 1, -1, -1):
        form[v] = "(" + "".join(sorted(kids[v])) + ")"
        if v:
            kids[parent[v]].append(form[v])
    return form[0]


def test_rooted_trees_one_per_shape():
    trees = list(acceptance._rooted_trees(10))
    sizes = [len(p) for p in trees]
    assert sizes == sorted(sizes)
    # unlabeled rooted trees on 1..10 vertices (OEIS A000081)
    assert [sizes.count(n) for n in range(1, 11)] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    for p in trees:
        assert p[0] == -1 and all(0 <= p[v] < v for v in range(1, len(p)))
    assert len({_ahu(p) for p in trees}) == len(trees)


def test_proper_path_colorings_are_the_proper_binary_words():
    # criterion 7 checks exactly the words the exhaustive filter keeps
    for k in range(1, 5):
        length = 4 * k
        words = (format(x, f"0{length}b") for x in range(2 ** length))
        proper = [w for w in words if all(w[i] != w[i + 1] for i in range(length - 1))]
        assert acceptance._proper_path_colorings(length) == proper


@pytest.mark.parametrize("max_vertices", [4, 5, 7])
def test_atlas_graphs_are_the_filtered_atlas(max_vertices):
    # the lazy reader is a private part of networkx: pin that it yields the
    # graphs criterion 9b used to take from the full atlas list
    import networkx as nx

    def shape(g):
        return g.number_of_nodes(), sorted(g.edges())

    want = [shape(g) for g in nx.graph_atlas_g()
            if 2 <= g.number_of_nodes() <= max_vertices and g.number_of_edges()]
    assert [shape(g) for g in acceptance._atlas_graphs(max_vertices)] == want


@pytest.mark.parametrize(
    "mutant",
    [
        lambda w, lo, hi: _square_pairs(w, lo, hi)[:-1],
        lambda w, lo, hi: [(s, p) for s, p in _square_pairs(w, lo, hi) if p < hi],
        lambda w, lo, hi: ([(0, 1)] if w.startswith("01") else []) + _square_pairs(w, lo, hi),
        # every square, but not in the documented (start, period) order
        lambda w, lo, hi: _square_pairs(w, lo, hi)[::-1],
    ],
    ids=["drops-last-square", "cuts-top-period", "spurious-square", "reversed"],
)
def test_criterion_9a_catches_find_squares_mutants(monkeypatch, mutant):
    # 9a checks find_squares' kernel, which test_repetitions ties to it
    monkeypatch.setattr(acceptance, "_C9A_MAX_LEN", 6)
    assert acceptance.criterion_9a_words()
    monkeypatch.setattr(acceptance, "_square_pairs", mutant)
    assert not acceptance.criterion_9a_words()


def test_criteria_table_holds_the_criterion_functions():
    # run_all calls the table's entries, and the benchmark's layer tracer
    # times a criterion by wrapping the function wherever it is bound; a
    # tuple or lambda in the table would leave its acceptance.*_s untimed
    assert sorted(acceptance._CRITERIA) == list(range(1, 10))
    for n, fn in acceptance._CRITERIA.items():
        assert fn is getattr(acceptance, f"criterion_{n}"), n
    # a criterion returns its verdict; run_all alone times it
    assert acceptance.criterion_1() == ("morphism fidelity", True, "g2 3x12, g5 3x21 tables")


def test_run_all_runs_each_distinct_criterion_once_in_order():
    assert [r.number for r in acceptance.run_all([1, 1])] == [1]
    assert [r.number for r in acceptance.run_all([7, 1, 7])] == [1, 7]


def _run(number):
    (result,) = acceptance.run_all([number])
    print(f"criterion {result.number} [{result.name}]: "
          f"{'pass' if result.passed else 'FAIL'} ({result.seconds:.1f}s) {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_morphism_fidelity():
    _run(1)


def test_criterion_2_g2_certificate():
    _run(2)


def test_criterion_3_g5_certificate():
    _run(3)


def test_criterion_4_level_tree_oracle():
    _run(4)


def test_criterion_5_path_theorems():
    _run(5)


def test_criterion_6_pik_exactness():
    _run(6)


def test_criterion_7_lemma_path():
    _run(7)


def test_criterion_8_construction_invariants():
    _run(8)


def test_criterion_9_oracle_equivalence():
    _run(9)
