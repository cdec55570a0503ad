"""Tests for exact pi_k search and word extension search."""

import contextlib
import hashlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nonrep.acceptance import _rooted_trees
from nonrep.graphs import (
    Coloring,
    Graph,
    complete_tree,
    leveled_outerplanar,
    outerplanar_U,
    path_graph,
    stacked_triangulation,
    verify_coloring,
)
from nonrep.search import (
    PiResult,
    SearchBudget,
    WordSearchResult,
    extend_word_search,
    pi_k_exact,
)
from fractions import Fraction

from nonrep.repetitions import is_power_free
from nonrep.words import PowerFreeSpec, _free_words


def _pi_naive(g: Graph, k: int, max_colors: int = 5) -> int:
    """Brute force over all colorings with verify_coloring as the oracle."""
    for c in range(1, max_colors + 1):
        colors = [0] * g.n

        def rec(v):
            if v == g.n:
                return verify_coloring(g, Coloring(tuple(colors), c), k, g.n) is None
            for col in range(c):
                colors[v] = col
                if rec(v + 1):
                    return True
            return False

        if rec(0):
            return c
    raise AssertionError("max_colors too small")


def test_pi_k_exact_examples():
    assert pi_k_exact(path_graph(4), 1).value == 3
    assert pi_k_exact(path_graph(3), 1).value == 2
    assert pi_k_exact(stacked_triangulation(0), 1).value == 4  # K4


def test_pi_k_exact_witness_verifies():
    res = pi_k_exact(path_graph(10), 1)
    assert res.value == 3
    assert res.witness is not None
    assert res.witness.color_count == 3
    assert verify_coloring(path_graph(10), res.witness, 1, 10) is None


def test_pi_k_exact_matches_naive_small():
    # oracle equivalence on small paths, a star, and K4 for k = 1..3
    star = Graph(4)
    for leaf in (1, 2, 3):
        star.add_edge(0, leaf)
    graphs = [path_graph(n) for n in range(2, 7)] + [star, stacked_triangulation(0)]
    for g in graphs:
        for k in (1, 2, 3):
            assert pi_k_exact(g, k).value == _pi_naive(g, k)


def test_pi_k_exact_monotone_in_k():
    for n in (4, 6, 8):
        g = path_graph(n)
        vals = [pi_k_exact(g, k).value for k in range(1, 6)]
        assert vals == sorted(vals, reverse=True)


def test_pi_k_exact_monotone_in_n():
    for k in (1, 3):
        prev = 1
        for n in range(2, 15):
            v = pi_k_exact(path_graph(n), k).value
            assert v >= prev
            prev = v


def test_pi_k_exact_budget_exhaustion():
    res = pi_k_exact(path_graph(12), 1, SearchBudget(node_limit=3))
    assert res.exhausted and res.value is None
    assert res.lower <= (res.upper or 10**9)


def test_extend_word_search_examples():
    res = extend_word_search(2, 1, 4)
    assert not res.reached_target and res.word == "010"
    res = extend_word_search(3, 1, 200)
    assert res.reached_target and len(res.word) == 200
    assert is_power_free(res.word, PowerFreeSpec(Fraction(2), strict=False)) is None
    res = extend_word_search(2, 3, 500)
    assert res.reached_target and len(res.word) == 500


def test_extend_word_search_result_is_square_free():
    res = extend_word_search(2, 3, 120)
    w = res.word
    for p in range(3, len(w) // 2 + 1):
        for i in range(len(w) - 2 * p + 1):
            assert w[i : i + p] != w[i + p : i + 2 * p]


def test_extend_word_search_lex_least():
    # exhaustive: the returned word is the lex-least admissible one
    import itertools

    def ok(w, k):
        for p in range(k, len(w) // 2 + 1):
            for i in range(len(w) - 2 * p + 1):
                if w[i : i + p] == w[i + p : i + 2 * p]:
                    return False
        return True

    for k, length in ((1, 6), (2, 8)):
        want = min(
            "".join(t) for t in itertools.product("012", repeat=length) if ok("".join(t), k)
        )
        assert extend_word_search(3, k, length).word == want


# (alphabet, k, target, node_limit) -> (word, reached, exhausted): two budget
# stops, and the longest binary word with no square of period >= 2, which has
# 18 letters (Entringer, Jackson & Schatz 1974; the reason pi_2(tree) >= 3)
_PINNED_WORDS = [
    ((2, 2, 30, 50), ("000111000110010", False, True)),
    ((3, 1, 100, 40), ("0102012021012010201", False, True)),
    ((2, 2, 19, None), ("010011000111001101", False, False)),
]


@pytest.mark.parametrize("args, want", _PINNED_WORDS, ids=[str(a) for a, _ in _PINNED_WORDS])
def test_extend_word_search_pinned(args, want):
    alphabet, k, target, node_limit = args
    budget = SearchBudget() if node_limit is None else SearchBudget(node_limit=node_limit)
    res = extend_word_search(alphabet, k, target, budget)
    assert (res.word, res.reached_target, res.exhausted) == want


def test_word_search_counts_nodes():
    # the symbols criterion 5's three searches try; they pin the DFS order
    assert extend_word_search(2, 1, 4).nodes == 14
    assert extend_word_search(3, 1, 1000).nodes == 2223
    assert extend_word_search(2, 3, 1000).nodes == 1927
    res = extend_word_search(2, 2, 30, SearchBudget(node_limit=50))
    assert res.exhausted and res.nodes == 51  # as PiResult, the one over the limit
    assert WordSearchResult("0", True, False).nodes == 0  # positional fields unchanged


@settings(max_examples=100, deadline=None)
@given(
    alphabet=st.integers(2, 3),
    k=st.integers(1, 3),
    target=st.integers(1, 40),
    node_limit=st.integers(1, 300),
)
def test_word_search_keeps_longest_word(alphabet, k, target, node_limit):
    # oracle: copy the whole word at every new longest one
    squares = PowerFreeSpec(Fraction(2), min_period=k, strict=False)
    best, nodes = "", 0
    for word, kept in _free_words(alphabet, squares, target):
        nodes += 1
        if nodes > node_limit:
            break
        if kept and len(word) > len(best):
            best = "".join(word)
            if len(best) == target:
                break
    res = extend_word_search(alphabet, k, target, SearchBudget(node_limit=node_limit))
    assert (res.word, res.nodes) == (best, nodes)
    assert res.reached_target == (len(best) == target)


def test_ternary_squarefree_never_dead_ends():
    res = extend_word_search(3, 1, 1000)
    assert res.reached_target and not res.exhausted


def test_pi_k_exact_rejected_witness_raises(monkeypatch):
    # the witness check is the sweep alone; when it reports a square, the
    # error names the path the full verifier returns
    from nonrep import search
    from nonrep.repetitions import Repetition

    monkeypatch.setattr(search, "_swept_square", lambda *args: True)
    monkeypatch.setattr(search, "verify_coloring", lambda *args: ((0, 1), Repetition(0, 2, 1)))
    with pytest.raises(RuntimeError, match=r"witness.*\(0, 1\)"):
        search.pi_k_exact(path_graph(3), 1)


def test_pi_k_exact_sweeps_its_clean_witness(monkeypatch):
    # a clean witness still costs one sweep kernel call per vertex: the
    # search's kernel calls go through the search module's binding, the
    # sweep's through the graphs module's
    from nonrep import graphs, search

    kernel = graphs._square_through_vertex
    swept = []

    def spy(g, colors, v, k, pmax, cands):
        swept.append(v)
        return kernel(g, colors, v, k, pmax, cands)

    monkeypatch.setattr(graphs, "_square_through_vertex", spy)
    g = stacked_triangulation(1)
    res = search.pi_k_exact(g, 1)
    assert res.value == 5
    assert swept == list(range(g.n - 1, -1, -1))


def _kernel_calls(monkeypatch, g, k, budget=SearchBudget()):
    """Each kernel call pi_k_exact makes: (v, k, pmax, candidates, bad set,
    the colours it was called on)."""
    from nonrep import graphs, search

    calls = []

    def spy(g_, colors, v, k_, pmax, cands):
        snapshot = list(colors)
        bad = graphs._square_through_vertex(g_, colors, v, k_, pmax, cands)
        calls.append((v, k_, pmax, set(cands), bad, snapshot))
        return bad

    monkeypatch.setattr(search, "_square_through_vertex", spy)
    search.pi_k_exact(g, k, budget)
    return calls


def test_short_pass_keeps_the_bad_sets(monkeypatch):
    # on a branching graph the forward check walks periods k .. k + 2 first
    # and the rest only for undecided candidates: per vertex entry, the two
    # walks' union is one walk over every period up to (v + 1) // 2
    from nonrep import graphs

    g, k = stacked_triangulation(2), 1
    calls = _kernel_calls(monkeypatch, g, k, SearchBudget(node_limit=120))
    entries = []
    for call in calls:
        if call[1] == k:
            entries.append([call])
        else:
            entries[-1].append(call)
    short_dead_ends = 0
    for entry in entries:
        v, _, pmax, cands, bad, colors = entry[0]
        cap = (v + 1) // 2
        want = graphs._square_through_vertex(g, list(colors), v, k, cap, cands)
        if cap <= k + 2:
            assert len(entry) == 1 and pmax == cap
        else:
            assert pmax == k + 2
            if bad == cands:
                assert len(entry) == 1  # decided by the short walk alone
                short_dead_ends += 1
            else:
                (_, k2, pmax2, cands2, bad2, colors2), = entry[1:]
                assert (k2, pmax2, cands2, colors2) == (k + 3, cap, cands - bad, colors)
                bad = bad | bad2
        assert bad == want
    assert short_dead_ends >= 1


@pytest.mark.parametrize("g, k", [(path_graph(20), 3), (complete_tree(3, 2), 1)],
                         ids=["path20-k3", "tree15-k1"])
def test_sparse_graphs_walk_once_per_entry(monkeypatch, g, k):
    # at most as many edges as vertices: one walk up to the full cap
    calls = _kernel_calls(monkeypatch, g, k)
    assert calls and all(k_ == k and pmax == (v + 1) // 2 for v, k_, pmax, *_ in calls)
    assert any((v + 1) // 2 > k + 2 for v, *_ in calls)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(node_limit=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=float("nan"))  # would run with no deadline


def test_extend_word_search_refuses_alphabet_past_ten():
    # symbols are single digits: an 11th would read as the two symbols "1" "0"
    with pytest.raises(ValueError, match="alphabet"):
        extend_word_search(11, 1, 5)
    assert extend_word_search(10, 1, 5).word == "01020"


# PiResult (lower, upper, exhausted, nodes, witness) as the search computed it
# when each color tried at a vertex had a kernel call of its own: the same
# values show that deciding a vertex's candidates in one walk leaves the search
# tree, the node count and the bounds at a budget stop as they were
_PINNED_PI = [
    ("U4", 1, 3000, (5, None, True, 3001, None)),
    ("U4", 2, 3000, (4, None, True, 3001, None)),
    ("G2", 1, 200, (6, None, True, 201, None)),
    ("G2", 2, 400, (4, None, True, 401, None)),
    ("lev2x4", 1, 3000, (5, None, True, 3001, None)),
    ("lev2x4", 2, 400, (3, None, True, 401, None)),
    ("lev2x4", 2, None,
     (4, 4, False, 1204, (0, 0, 0, 1, 2, 1, 1, 1, 2, 2, 2, 2, 3, 0, 2, 0, 3, 0, 3, 2, 2))),
    ("G1", 1, None, (5, 5, False, 63, (0, 1, 2, 3, 3, 4, 4, 4))),
    ("G1", 2, None, (4, 4, False, 316, (0, 1, 2, 3, 0, 0, 0, 0))),
    ("U3", 1, None, (5, 5, False, 256, (0, 1, 2, 0, 3, 0, 1, 0, 4))),
    ("U3", 2, None, (3, 3, False, 56, (0, 0, 0, 1, 2, 0, 1, 1, 1))),
    # two full searches whose dead ends the short forward-checking pass decides
    ("G2", 1, None, (6, 6, False, 252, (0, 1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5))),
    ("U4", 2, None, (4, 4, False, 16534, (0, 0, 0, 1, 2, 0, 1, 1, 1, 3, 0, 3, 3, 3, 2, 0, 3))),
]
_PINNED_GRAPHS = {
    "U3": lambda: outerplanar_U(3),
    "U4": lambda: outerplanar_U(4),
    "G1": lambda: stacked_triangulation(1),
    "G2": lambda: stacked_triangulation(2),
    "lev2x4": lambda: leveled_outerplanar(2, 4),
}


@pytest.mark.parametrize("name, k, node_limit, want", _PINNED_PI,
                         ids=[f"{n}-k{k}-{lim}" for n, k, lim, _ in _PINNED_PI])
def test_pi_k_exact_pinned(name, k, node_limit, want):
    budget = SearchBudget() if node_limit is None else SearchBudget(node_limit=node_limit)
    res = pi_k_exact(_PINNED_GRAPHS[name](), k, budget)
    witness = res.witness.colors if res.witness else None
    assert (res.lower, res.upper, res.exhausted, res.nodes, witness) == want


def test_pi_k_exact_pinned_by_digest():
    # the sha256 of the repr of every (lower, upper, exhausted, nodes,
    # witness) over criterion 6's searches: each rooted tree of at most 8
    # vertices at k = 1..5, P_4..P_14 at k = 1 and P_2..P_60 at k = 3
    graphs = []
    for parent in _rooted_trees(8):
        g = Graph(len(parent))
        for v in range(1, len(parent)):
            g.add_edge(parent[v], v)
        graphs += [(g, k) for k in range(1, 6)]
    graphs += [(path_graph(n), 1) for n in range(4, 15)]
    graphs += [(path_graph(n), 3) for n in range(2, 61)]
    rows = []
    for g, k in graphs:
        res = pi_k_exact(g, k)
        rows.append((res.lower, res.upper, res.exhausted, res.nodes,
                     res.witness.colors if res.witness else None))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(rows), digest) == (
        1070, "013f554372f427c6a99b819219713f64f530a4fd1a250ad5e6b7b7714dc8bc05")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(1, 3))
def test_pi_result_value_consistency(n, k):
    res = pi_k_exact(path_graph(n), k)
    assert not res.exhausted
    assert res.lower == res.upper == res.value
    if res.witness is not None:
        assert verify_coloring(path_graph(n), res.witness, k, n) is None


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Lower the interpreter's recursion limit to `frames` above the caller's
    stack depth, so that code recursing once per path vertex fails fast."""
    depth, f = 0, sys._getframe()
    while f is not None:
        depth, f = depth + 1, f.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_pi_k_exact_long_path_does_not_recurse():
    g = path_graph(150)
    with recursion_headroom(50):
        res = pi_k_exact(g, 30)
    assert res.value == 2 and not res.exhausted
    assert verify_coloring(g, res.witness, 30, g.n) is None


def test_pi_result_counts_nodes():
    # the search tries 19 color assignments on P6 over palettes 1, 2 and 3
    assert pi_k_exact(path_graph(6), 1).nodes == 19
    res = pi_k_exact(path_graph(12), 1, SearchBudget(node_limit=3))
    assert res.exhausted and res.nodes == 4
    assert PiResult(1, 1, None, False).nodes == 0  # positional fields unchanged
