"""Exact searches: the minimum palette size for square-free path colorings of
small graphs (backtracking over colorings on the graphs square kernel), and
longest-word searches on paths (the words module's free-word DFS, keyed on
"no square of period >= k", under a node budget counted in symbols tried)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, Coloring, _square_through_vertex, verify_coloring
from .repetitions import PowerFreeSpec
from .words import _free_words


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a backtracking search."""

    node_limit: int = 10_000_000
    time_limit: float = 300.0

    def __post_init__(self):
        # `not x > 0` also refuses nan, which every comparison calls False
        if self.node_limit < 1 or not self.time_limit > 0:
            raise ValueError("budget fields must be positive")


_MAX_COLORS = 16  # the largest palette pi_k_exact tries


@dataclass
class PiResult:
    """Minimum color count for square-period->=k-free path colorings, or
    bracketing bounds when the search ran out of budget.  `nodes` counts the
    color assignments tried, over every palette size."""

    lower: int
    upper: int | None
    witness: Coloring | None
    exhausted: bool
    nodes: int = 0

    @property
    def value(self) -> int | None:
        return self.lower if self.lower == self.upper else None


def pi_k_exact(g: Graph, k: int, budget: SearchBudget = SearchBudget()) -> PiResult:
    """Minimum number of colors so that no simple path of g reads a color
    square of period >= k.  Backtracking over vertex-ordered colorings with
    forward checking (on entering a vertex, one walk over the paths through it
    decides which of its candidate colors close a square) and symmetry
    breaking: vertex 0 gets color 0, and color c+1 may appear only once
    color c has."""
    if k < 1:
        raise ValueError("need k >= 1")
    if g.n == 0:
        return PiResult(0, 0, Coloring((), 1), False)
    deadline = time.monotonic() + budget.time_limit
    nodes = 0

    def solve(ncolors: int) -> Coloring | bool | None:
        """Coloring if one exists, False if provably none, None on budget."""
        nonlocal nodes
        colors = [-1] * g.n
        # per vertex: the next color to try, how many colors the vertices
        # before it use (an explicit stack, so long paths do not recurse), and
        # the colors that close a square through it, all decided on entry
        next_color = [0] * g.n
        used = [0] * (g.n + 1)
        bad: list[set[int]] = [set()] * g.n
        v = 0
        while v < g.n:
            c = next_color[v]
            top = min(used[v] + 1, ncolors)
            if c >= top:
                next_color[v] = 0
                if v == 0:
                    return False
                v -= 1
                colors[v] = -1
                continue
            next_color[v] = c + 1
            nodes += 1
            if nodes > budget.node_limit or time.monotonic() > deadline:
                return None
            if c == 0:  # vertices 0..v-1 are colored
                bad[v] = _square_through_vertex(g, colors, v, k, (v + 1) // 2, range(top))
            if c not in bad[v]:
                colors[v] = c
                used[v + 1] = max(used[v], c + 1)
                v += 1
        return Coloring(tuple(colors), ncolors)

    lower = 1
    for ncolors in range(1, _MAX_COLORS + 1):
        res = solve(ncolors)
        if res is None:
            return PiResult(lower, None, None, True, nodes)
        if res is not False:
            check = verify_coloring(g, res, k, g.n)
            if check is not None:
                raise RuntimeError(
                    f"pi_k search returned a witness coloring that the verifier rejects: {check}"
                )
            return PiResult(ncolors, ncolors, res, False, nodes)
        lower = ncolors + 1
    # palette exhausted: the lower bound is proven, not a budget timeout
    return PiResult(lower, None, None, False, nodes)


@dataclass
class WordSearchResult:
    """The word found, how the search ended, and `nodes`, the symbols the
    free-word DFS tried."""

    word: str
    reached_target: bool
    exhausted: bool
    nodes: int = 0


def extend_word_search(
    alphabet: int, k: int, target_len: int, budget: SearchBudget = SearchBudget()
) -> WordSearchResult:
    """Depth-first lexicographic extension of words over the given alphabet,
    keeping every prefix free of squares of period >= k.  Returns the
    lexicographically least such word of target_len, or the longest prefix
    ever reached if no word of target_len exists (or the budget ran out).
    Symbols are the digits 0..alphabet-1, so the alphabet is at most 10;
    target_len is at most the free-word DFS's length budget."""
    if alphabet < 1 or k < 1 or target_len < 1:
        raise ValueError("need alphabet, k, target_len >= 1")
    if alphabet > 10:
        raise ValueError(f"need alphabet <= 10, not {alphabet}: symbols are the digits 0-9")
    deadline = time.monotonic() + budget.time_limit
    squares = PowerFreeSpec(Fraction(2), min_period=k, strict=False)
    nodes = 0
    # best is the longest word kept so far; only its symbols from index
    # `stale` on can differ from the search's word, so a new longest word
    # copies just those instead of the whole word
    best: list[str] = []
    stale = 0
    for word, kept in _free_words(alphabet, squares, target_len):
        nodes += 1
        if nodes > budget.node_limit or time.monotonic() > deadline:
            return WordSearchResult("".join(best), False, True, nodes)
        m = len(word) - 1
        stale = min(stale, m)
        if kept and m == len(best):
            best[stale:] = word[stale:]
            stale = m + 1
            if m + 1 == target_len:
                return WordSearchResult("".join(best), True, False, nodes)
    return WordSearchResult("".join(best), False, False, nodes)
