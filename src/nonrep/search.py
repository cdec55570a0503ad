"""Exact and exploratory searches: the minimum palette size for square-free
path colorings of small graphs, longest-word searches on paths, and witness
hunts for trees that defeat a given palette."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import Graph, Coloring, _square_through_vertex, path_graph, verify_coloring
from .repetitions import _tail_hit


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a backtracking search."""

    node_limit: int = 10_000_000
    time_limit: float = 300.0
    max_colors: int = 16

    def __post_init__(self):
        if self.node_limit < 1 or self.time_limit <= 0 or self.max_colors < 1:
            raise ValueError("budget fields must be positive")


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
    incremental checking (only paths through the newly colored vertex) and
    symmetry breaking: vertex 0 gets color 0, and color c+1 may appear only
    once color c has."""
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
        # per vertex: the next color to try, and how many colors the vertices
        # before it use (an explicit stack, so long paths do not recurse)
        next_color = [0] * g.n
        used = [0] * (g.n + 1)
        v = 0
        while v < g.n:
            c = next_color[v]
            if c >= min(used[v] + 1, ncolors):
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
            colors[v] = c
            if _square_through_vertex(g, colors, v, k, (v + 1) // 2):  # vertices 0..v are colored
                colors[v] = -1
            else:
                used[v + 1] = max(used[v], c + 1)
                v += 1
        return Coloring(tuple(colors), ncolors)

    lower = 1
    for ncolors in range(1, budget.max_colors + 1):
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
    word: str
    reached_target: bool
    exhausted: bool


def extend_word_search(
    alphabet: int, k: int, target_len: int, budget: SearchBudget = SearchBudget()
) -> WordSearchResult:
    """Depth-first lexicographic extension of words over the given alphabet,
    keeping every prefix free of squares of period >= k.  Returns the
    lexicographically least such word of target_len, or the longest prefix
    ever reached if no word of target_len exists (or the budget ran out)."""
    if alphabet < 1 or k < 1 or target_len < 1:
        raise ValueError("need alphabet, k, target_len >= 1")
    deadline = time.monotonic() + budget.time_limit
    nodes = 0
    best = ""
    word: list[str] = []
    need = range(target_len // 2 + 1)  # a square of period p needs a run of p matches

    # explicit stack of next-symbol-to-try per depth (plain recursion would
    # blow the interpreter limit well before target_len 1000)
    next_try = [0]
    res = False
    while next_try:
        if len(word) > len(best):
            best = "".join(word)
        if len(word) == target_len:
            res = True
            break
        c = next_try[-1]
        if c >= alphabet:
            next_try.pop()
            if word:
                word.pop()
            continue
        next_try[-1] = c + 1
        nodes += 1
        if nodes > budget.node_limit or time.monotonic() > deadline:
            res = None
            break
        word.append(str(c))
        m = len(word) - 1
        if _tail_hit(word, m, k, (m + 1) // 2, need) is None:
            next_try.append(0)
        else:
            word.pop()
    return WordSearchResult(best, res is True, res is None)


def _rooted_trees(max_vertices: int):
    """Yield rooted trees as canonical parent arrays (parent[0] = -1,
    parent[v] < v), smallest vertex count first, one per isomorphism class."""
    for n in range(1, max_vertices + 1):
        seen = set()
        # BFS labelings have non-decreasing parents, so restricting to them
        # keeps every shape reachable while cutting the search to
        # Catalan-many arrays; exact dedup happens via the canonical form.
        # The arrays come in lexicographic order: parent[v] ranges over
        # parent[v-1] .. v-1, so the next array bumps the last entry below
        # its cap and resets every later entry to the bumped value.
        parent = [-1] + [0] * (n - 1)
        while True:
            kids: list[list[tuple]] = [[] for _ in range(n)]
            for v in range(n - 1, 0, -1):  # children before parents
                kids[parent[v]].append(tuple(sorted(kids[v])))
            key = tuple(sorted(kids[0]))
            if key not in seen:
                seen.add(key)
                yield list(parent)
            v = n - 1
            while v > 0 and parent[v] == v - 1:
                v -= 1
            if v == 0:
                break
            parent[v:] = [parent[v] + 1] * (n - v)


def tree_witness_search(
    k: int,
    colors: int,
    max_depth: int = 6,
    max_arity: int = 3,
    budget: SearchBudget = SearchBudget(),
):
    """Smallest rooted tree (by vertex count, then canonical shape) within the
    shape bounds that admits no coloring with the given palette avoiding color
    squares of period >= k on paths; unsatisfiability is established by the
    exact solver.  Returns (Graph, PiResult) or None when the search space or
    budget is exhausted without a witness (inconclusive, not a refutation)."""
    if colors < 1 or k < 1:
        raise ValueError("need colors, k >= 1")
    max_vertices = 0
    total = 1
    for _ in range(max_depth):
        total = total * max_arity + 1
    max_vertices = min(total, 12)
    deadline = time.monotonic() + budget.time_limit
    for parent in _rooted_trees(max_vertices):
        if time.monotonic() > deadline:
            return None
        n = len(parent)
        depth = [0] * n
        arity = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
            arity[parent[v]] += 1
        if n > 1 and (max(depth) > max_depth or max(arity) > max_arity):
            continue
        g = Graph(n)
        for v in range(1, n):
            g.add_edge(parent[v], v)
        g.family = "tree"
        sub = SearchBudget(budget.node_limit, max(deadline - time.monotonic(), 0.01), colors)
        res = pi_k_exact(g, k, sub)
        if res.exhausted:
            return None
        if res.lower > colors:
            return g, res
    return None
