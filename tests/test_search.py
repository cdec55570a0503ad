"""Tests for exact pi_k search and word extension search."""

import contextlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nonrep.graphs import Coloring, Graph, path_graph, stacked_triangulation, verify_coloring
from nonrep.search import (
    PiResult,
    SearchBudget,
    extend_word_search,
    pi_k_exact,
)
from fractions import Fraction

from nonrep.repetitions import is_power_free
from nonrep.words import PowerFreeSpec


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


def test_ternary_squarefree_never_dead_ends():
    res = extend_word_search(3, 1, 1000)
    assert res.reached_target and not res.exhausted


def test_pi_k_exact_rejected_witness_raises(monkeypatch):
    from nonrep import search
    from nonrep.repetitions import Repetition

    monkeypatch.setattr(search, "verify_coloring", lambda *args: ((0, 1), Repetition(0, 2, 1)))
    with pytest.raises(RuntimeError, match="witness"):
        search.pi_k_exact(path_graph(3), 1)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(node_limit=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=0)


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
