"""Acceptance criteria for the toolkit, runnable as a suite (CLI `suite run`)
and individually from the test suite.  Each criterion function returns its
verdict as (name, passed, detail); run_all is the one place that runs a
selection, times each criterion and wraps it in a CriterionResult, and
format_report renders the fixed-width pass/fail table.  _CRITERIA maps each
number to the module-level function itself, so that wrapping either name
(as the benchmark's layer tracer does) times the same call."""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .words import G2, G5, Morphism, apply_morphism, generate_powerfree_ternary
from .repetitions import PowerFreeSpec, Repetition, _square_pairs, find_squares
from .treecert import BranchCheckSpec, build_level_tree, certify_morphic_tree_coloring
from .graphs import (
    Coloring,
    Graph,
    check_3tree,
    fan_witness,
    outerplanar_U,
    path_graph,
    plus4_gadget,
    stacked_triangulation,
    u_witness,
    verify_coloring,
)
from .search import extend_word_search, pi_k_exact


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


Verdict = tuple[str, bool, str]  # what a criterion returns: name, passed, detail


# independently transcribed copies of the published morphism tables
_G2_TABLE = ("011220012201", "122001120012", "200112201120")
_G5_TABLE = (
    "001101110001010110010",
    "001101110001001110101",
    "001101110001001101010",
)


def criterion_1() -> Verdict:
    """Hard-coded morphism tables match the published 3x12 and 3x21 tables."""
    ok = G2.images == _G2_TABLE and G5.images == _G5_TABLE
    return "morphism fidelity", ok, "g2 3x12, g5 3x21 tables"


def criterion_2() -> Verdict:
    """g2 certificate with (k=2, 19/10+, n=2, d=3, factor_len=8), p* = 20."""
    spec = BranchCheckSpec(2, PowerFreeSpec(Fraction(19, 10), min_period=2), 3)
    cert = certify_morphic_tree_coloring(G2, spec, factor_len=8, morphism_name="g2")
    return (
        "g2 certificate",
        cert.passed and cert.p_star == 20,
        f"passed={cert.passed} p*={cert.p_star} over {cert.source_words} source words",
    )


def criterion_3() -> Verdict:
    """g5 certificate with (k=5, 83/42+, n=5, d=20), p* = 798."""
    spec = BranchCheckSpec(5, PowerFreeSpec(Fraction(83, 42), min_period=5), 20)
    cert = certify_morphic_tree_coloring(G5, spec, morphism_name="g5")
    return (
        "g5 certificate",
        cert.passed and cert.p_star == 798,
        f"passed={cert.passed} p*={cert.p_star} factor_len={cert.factor_len} "
        f"over {cert.source_words} source words",
    )


def _level_tree_clean(m: Morphism, k: int, depth: int, arity: int) -> bool:
    src = generate_powerfree_ternary(depth // m.uniform_width + 2)
    word = apply_morphism(m, src)
    g, coloring = build_level_tree(word, depth, arity)
    return verify_coloring(g, coloring, k, 2 * depth + 1) is None


def criterion_4() -> Verdict:
    """Level trees colored through the morphisms pass the brute-force path
    oracle: g2 at depth 12 arity 2 in full; g5 at depth 12 arity 1 in full
    plus an arity-2 spot check at depth 9."""
    ok = (
        _level_tree_clean(G2, 2, 12, 2)
        and _level_tree_clean(G5, 5, 12, 1)
        and _level_tree_clean(G5, 5, 9, 2)
    )
    return "level-tree oracle", ok, "g2 depth 12 arity 2; g5 depth 12 arity 1, depth 9 arity 2"


def criterion_5() -> Verdict:
    """Path-word searches: binary k=1 tops out at length 3; ternary squarefree
    and binary k=3 words reach length 1000."""
    a = extend_word_search(2, 1, 4)
    b = extend_word_search(3, 1, 1000)
    c = extend_word_search(2, 3, 1000)
    ok = (
        not a.reached_target
        and not a.exhausted
        and len(a.word) == 3
        and b.reached_target
        and c.reached_target
    )
    return (
        "path word searches",
        ok,
        f"binary k=1 max {len(a.word)}; ternary len {len(b.word)}; "
        f"binary k=3 len {len(c.word)}",
    )


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


def criterion_6() -> Verdict:
    """pi_k exactness: paths need 3 colors at k=1 (n=4..14) and 2 at k=3
    (n<=60); P_18/P_19 need 2/3 colors at k=2 and P_9/P_10 need 1/2 at k=5;
    pi is monotone non-increasing in k on all trees <= 8 vertices."""
    failures = []
    for n in range(4, 15):
        if pi_k_exact(path_graph(n), 1).value != 3:
            failures.append(f"P_{n} k=1 != 3")
    for n in range(2, 61):
        res = pi_k_exact(path_graph(n), 3)
        # a monochromatic path shorter than 6 vertices has no period-3 square
        want = 1 if n <= 5 else 2
        if res.value != want:
            failures.append(f"P_{n} k=3 = {res.value}")
    # the paths behind pi_2(tree) >= 3 and pi_5(tree) >= 2: binary words free
    # of squares of period >= 2 have at most 18 letters (Entringer, Jackson &
    # Schatz 1974), and a one-colour P_10 reads a square of period 5
    for n, k, want in ((18, 2, 2), (19, 2, 3), (9, 5, 1), (10, 5, 2)):
        value = pi_k_exact(path_graph(n), k).value
        if value != want:
            failures.append(f"P_{n} k={k} = {value}")
    for parent in _rooted_trees(8):
        g = Graph(len(parent))
        for v in range(1, len(parent)):
            g.add_edge(parent[v], v)
        values = [pi_k_exact(g, k).value for k in range(1, 6)]
        if any(values[i + 1] > values[i] for i in range(4)):
            failures.append(f"monotonicity fails on tree {parent}: {values}")
    return "pi_k exactness", not failures, "; ".join(failures) or "paths k=1/k=3 and tree monotone sweep"


def _proper_path_colorings(length: int) -> list[str]:
    """Every proper 2-coloring of the path on `length` vertices as a binary
    word, in lexicographic order: the two alternating words."""
    return [("01" * length)[:length], ("10" * length)[:length]]


def criterion_7() -> Verdict:
    """Every proper 2-coloring of the path on 4k vertices contains a square of
    period >= k, for k = 1..4."""
    ok = True
    checked = 0
    for k in range(1, 5):
        length = 4 * k
        for w in _proper_path_colorings(length):
            checked += 1
            if not find_squares(w, k, length // 2):
                ok = False
    return "proper 2-colorings of P_4k", ok, f"k = 1..4 exhaustive, {checked} proper colorings"


def criterion_8() -> Verdict:
    """Construction invariants: stacked triangulations (counts, Euler, 3-tree),
    the outerplanar family counts, the gadget closed forms, fan witnesses, and
    copies of U_t next to a vertex of G_0 (t = 0, 1, 2)."""
    failures = []
    for i in range(7):
        g = stacked_triangulation(i)
        v, e, f = g.n, g.edge_count, len(g.faces)
        if not (v == 2 * 3 ** i + 2 and f == 4 * 3 ** i and v - e + f == 2):
            failures.append(f"G_{i} counts")
        if check_3tree(g) is not None:
            failures.append(f"G_{i} 3-tree")
    for i in range(11):
        u = outerplanar_U(i)
        if not (u.n == 2 ** i + 1 and u.edge_count == 2 ** (i + 1) - 1):
            failures.append(f"U_{i} counts")
    for hn, he in ((1, 0), (2, 1), (3, 2), (0, 0)):
        h = Graph(hn)
        for j in range(he):
            h.add_edge(j, j + 1)
        for m in (1, 2, 3):
            g = plus4_gadget(h, m)
            if not (
                g.n == 2 * m * (1 + hn) + 2
                and g.edge_count == 5 * m + 1 + 2 * m * (hn + he)
            ):
                failures.append(f"plus4 h={hn} m={m}")
    for i in range(4):
        base = stacked_triangulation(i)
        for t in range(1, 5):
            big = stacked_triangulation(i + t)
            for x, y in base.edges():
                ws = fan_witness(i, (x, y), t)
                good = (
                    len(ws) == t
                    and all(w >= base.n for w in ws)
                    and all(big.has_edge(w, x) and big.has_edge(w, y) for w in ws)
                    and all(big.has_edge(ws[j], ws[j + 1]) for j in range(t - 1))
                )
                if not good:
                    failures.append(f"fan i={i} t={t} edge=({x},{y})")
    base = stacked_triangulation(0)
    for t in range(3):
        big = stacked_triangulation(t + 2)
        mapping = u_witness(0, 0, t)
        hosts = set(mapping.values())
        good = (
            len(hosts) == 2 ** t + 1
            and all(h >= base.n and big.has_edge(h, 0) for h in hosts)
            and all(big.has_edge(mapping[a], mapping[b]) for a, b in outerplanar_U(t).edges())
        )
        if not good:
            failures.append(f"U_{t} witness at vertex 0 of G_0")
    detail = "; ".join(failures) or "G_i, U_i, gadget, fan and U_t witnesses"
    return "construction invariants", not failures, detail


_C9A_MAX_LEN = 14


def criterion_9a_words() -> bool:
    """find_squares' kernel `_square_pairs` returns, in its (start, period)
    order, exactly the squares found by slice compares at each end index, on
    every ternary word of length 2.._C9A_MAX_LEN.  One walk grows the words
    a symbol at a time: appending at end index e adds the squares
    (e - 2p + 1, p) whose two halves x[e-2p+1 : e-p+1] and x[e-p+1 : e+1]
    are equal, so a word's squares are its prefix's plus those."""

    def walk(x: str, squares: list[tuple[int, int]]) -> bool:
        n = len(x)
        if n >= 2 and _square_pairs(x, 1, n // 2) != sorted(squares):
            return False
        if n == _C9A_MAX_LEN:
            return True
        for s in "012":
            y = x + s
            ends = [(n - 2 * p + 1, p) for p in range(1, (n + 1) // 2 + 1)
                    if y[n - 2 * p + 1 : n - p + 1] == y[n - p + 1 :]]
            if not walk(y, squares + ends):
                return False
        return True

    return walk("", [])


def _naive_verify(adjs: list[list[int]], colors, k: int, max_path: int):
    """Independent re-implementation of verify_coloring, on a graph's
    increasing neighbour lists adjs (its g.adj): same exploration order, but
    each path tail is re-scanned from scratch with slice compares."""
    path: list[int] = []
    seq: list[int] = []
    on_path = [False] * len(adjs)

    def rec(v):
        path.append(v)
        seq.append(colors[v])
        on_path[v] = True
        m = len(seq)
        for p in range(k, m // 2 + 1):
            if seq[m - 2 * p : m - p] == seq[m - p :]:
                return tuple(path), Repetition(m - 2 * p, 2 * p, p)
        if m < max_path:
            for u in adjs[v]:
                if not on_path[u]:
                    res = rec(u)
                    if res is not None:
                        return res
        on_path[v] = False
        path.pop()
        seq.pop()
        return None

    for start in range(len(adjs)):
        res = rec(start)
        if res is not None:
            return res
    return None


def _atlas_graphs(max_vertices: int):
    """The graphs of the networkx graph atlas with 2..max_vertices vertices
    and at least one edge, in atlas order.  The atlas is sorted by vertex
    count, so the file is read lazily and reading stops at the first larger
    graph instead of parsing all 1253 (`nx.graph_atlas_g()`)."""
    from networkx.generators.atlas import _generate_graphs

    with closing(_generate_graphs()) as atlas:  # closes the atlas file on an early stop
        for ng in atlas:
            n = ng.number_of_nodes()
            if n > max_vertices:
                return
            if n >= 2 and ng.number_of_edges():
                yield ng


def criterion_9b_graphs(max_vertices: int = 7) -> bool:
    """verify_coloring agrees with the naive re-implementation on every graph
    with <= max_vertices vertices (atlas representatives) under every
    2-coloring, at k=1.  The graphs of one vertex count share its 2^n
    colorings, built once as a list (a generator would run out after the
    first graph)."""
    colorings: dict[int, list[Coloring]] = {}
    for ng in _atlas_graphs(max_vertices):
        n = ng.number_of_nodes()
        g = Graph(n)
        for u, v in ng.edges():
            g.add_edge(u, v)
        if n not in colorings:
            colorings[n] = [Coloring(c, 2) for c in product((0, 1), repeat=n)]
        for coloring in colorings[n]:
            if verify_coloring(g, coloring, 1, n) != _naive_verify(g.adj, coloring.colors, 1, n):
                return False
    return True


def criterion_9() -> Verdict:
    """find_squares and verify_coloring agree with their naive oracles
    (criteria 9a and 9b)."""
    words_ok = criterion_9a_words()
    graphs_ok = criterion_9b_graphs()
    return "oracle equivalence", words_ok and graphs_ok, f"words={words_ok} graphs={graphs_ok}"


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4, 5: criterion_5,
    6: criterion_6, 7: criterion_7, 8: criterion_8, 9: criterion_9,
}


def run_all(numbers=None) -> list[CriterionResult]:
    numbers = sorted(_CRITERIA) if numbers is None else sorted(set(numbers))
    unknown = [i for i in numbers if i not in _CRITERIA]
    if unknown:
        raise ValueError(f"unknown criterion numbers {unknown} (known: {sorted(_CRITERIA)})")
    results = []
    for i in numbers:
        t0 = time.monotonic()
        name, passed, detail = _CRITERIA[i]()
        results.append(CriterionResult(i, name, passed, detail, time.monotonic() - t0))
    return results


def format_report(results) -> str:
    lines = [f"{'#':>2} {'criterion':<28} {'status':<6} {'seconds':>8}  detail"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.number:>2} {r.name:<28} {status:<6} {r.seconds:>8.2f}  {r.detail}")
    overall = "pass" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
