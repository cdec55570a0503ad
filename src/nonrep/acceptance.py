"""Acceptance criteria for the toolkit, runnable as a suite (CLI `suite run`)
and individually from the test suite.  Each criterion function returns a
CriterionResult; run_all executes a selection and format_report renders the
fixed-width pass/fail table."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .words import G2, G5, Morphism, apply_morphism, generate_powerfree_ternary
from .repetitions import PowerFreeSpec, Repetition, find_squares
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
from .search import SearchBudget, extend_word_search, pi_k_exact, _rooted_trees


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


# independently transcribed copies of the published morphism tables
_G2_TABLE = ("011220012201", "122001120012", "200112201120")
_G5_TABLE = (
    "001101110001010110010",
    "001101110001001110101",
    "001101110001001101010",
)


def criterion_1() -> CriterionResult:
    """Hard-coded morphism tables match the published 3x12 and 3x21 tables."""
    t0 = time.monotonic()
    ok = G2.images == _G2_TABLE and G5.images == _G5_TABLE
    return CriterionResult(
        1, "morphism fidelity", ok, "g2 3x12, g5 3x21 tables", time.monotonic() - t0
    )


def criterion_2() -> CriterionResult:
    """g2 certificate with (k=2, 19/10+, n=2, d=3, factor_len=8), p* = 20."""
    t0 = time.monotonic()
    spec = BranchCheckSpec(2, PowerFreeSpec(Fraction(19, 10), min_period=2), 3)
    cert = certify_morphic_tree_coloring(G2, spec, factor_len=8, morphism_name="g2")
    ok = cert.passed and cert.p_star == 20
    return CriterionResult(
        2,
        "g2 certificate",
        ok,
        f"passed={cert.passed} p*={cert.p_star} over {cert.source_words} source words",
        time.monotonic() - t0,
    )


def criterion_3() -> CriterionResult:
    """g5 certificate with (k=5, 83/42+, n=5, d=20), p* = 798."""
    t0 = time.monotonic()
    spec = BranchCheckSpec(5, PowerFreeSpec(Fraction(83, 42), min_period=5), 20)
    cert = certify_morphic_tree_coloring(G5, spec, morphism_name="g5")
    ok = cert.passed and cert.p_star == 798
    return CriterionResult(
        3,
        "g5 certificate",
        ok,
        f"passed={cert.passed} p*={cert.p_star} factor_len={cert.factor_len} "
        f"over {cert.source_words} source words",
        time.monotonic() - t0,
    )


def _level_tree_clean(m: Morphism, k: int, depth: int, arity: int) -> bool:
    src = generate_powerfree_ternary(depth // m.uniform_width + 2)
    word = apply_morphism(m, src)
    g, coloring = build_level_tree(word, depth, arity)
    return verify_coloring(g, coloring, k, 2 * depth + 1) is None


def criterion_4() -> CriterionResult:
    """Level trees colored through the morphisms pass the brute-force path
    oracle: g2 at depth 12 arity 2 in full; g5 at depth 12 arity 1 in full
    plus an arity-2 spot check at depth 9."""
    t0 = time.monotonic()
    ok = (
        _level_tree_clean(G2, 2, 12, 2)
        and _level_tree_clean(G5, 5, 12, 1)
        and _level_tree_clean(G5, 5, 9, 2)
    )
    return CriterionResult(
        4,
        "level-tree oracle",
        ok,
        "g2 depth 12 arity 2; g5 depth 12 arity 1, depth 9 arity 2",
        time.monotonic() - t0,
    )


def criterion_5() -> CriterionResult:
    """Path-word searches: binary k=1 tops out at length 3; ternary squarefree
    and binary k=3 words reach length 1000."""
    t0 = time.monotonic()
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
    return CriterionResult(
        5,
        "path word searches",
        ok,
        f"binary k=1 max {len(a.word)}; ternary len {len(b.word)}; "
        f"binary k=3 len {len(c.word)}",
        time.monotonic() - t0,
    )


def criterion_6() -> CriterionResult:
    """pi_k exactness: paths need 3 colors at k=1 (n=4..14) and 2 at k=3
    (n<=60); pi is monotone non-increasing in k on all trees <= 8 vertices."""
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in range(4, 15):
        if pi_k_exact(path_graph(n), 1).value != 3:
            ok = False
            detail.append(f"P_{n} k=1 != 3")
    for n in range(2, 61):
        res = pi_k_exact(path_graph(n), 3)
        # a monochromatic path shorter than 6 vertices has no period-3 square
        want = 1 if n <= 5 else 2
        if res.value != want:
            ok = False
            detail.append(f"P_{n} k=3 = {res.value}")
    for parent in _rooted_trees(8):
        g = Graph(len(parent))
        for v in range(1, len(parent)):
            g.add_edge(parent[v], v)
        values = [pi_k_exact(g, k).value for k in range(1, 6)]
        if any(values[i + 1] > values[i] for i in range(4)):
            ok = False
            detail.append(f"monotonicity fails on tree {parent}: {values}")
    return CriterionResult(
        6,
        "pi_k exactness",
        ok,
        "; ".join(detail) if detail else "paths k=1/k=3 and tree monotone sweep",
        time.monotonic() - t0,
    )


def criterion_7() -> CriterionResult:
    """Every proper 2-coloring of the path on 4k vertices contains a square of
    period >= k, for k = 1..4, by exhausting all 2^(4k) binary words."""
    t0 = time.monotonic()
    ok = True
    for k in range(1, 5):
        length = 4 * k
        for x in range(2 ** length):
            w = format(x, f"0{length}b")
            if any(w[i] == w[i + 1] for i in range(length - 1)):
                continue  # improper
            if not find_squares(w, k, length // 2):
                ok = False
    return CriterionResult(
        7,
        "proper 2-colorings of P_4k",
        ok,
        "k = 1..4 exhaustive over binary words",
        time.monotonic() - t0,
    )


def criterion_8() -> CriterionResult:
    """Construction invariants: stacked triangulations (counts, Euler, 3-tree),
    the outerplanar family counts, the gadget closed forms, fan witnesses, and
    copies of U_t next to a vertex of G_0 (t = 0, 1, 2)."""
    t0 = time.monotonic()
    ok = True
    detail = []
    for i in range(7):
        g = stacked_triangulation(i)
        v, e, f = g.n, g.edge_count, len(g.faces)
        if not (v == 2 * 3 ** i + 2 and f == 4 * 3 ** i and v - e + f == 2):
            ok = False
            detail.append(f"G_{i} counts")
        if check_3tree(g) is not None:
            ok = False
            detail.append(f"G_{i} 3-tree")
    for i in range(11):
        u = outerplanar_U(i)
        if not (u.n == 2 ** i + 1 and u.edge_count == 2 ** (i + 1) - 1):
            ok = False
            detail.append(f"U_{i} counts")
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
                ok = False
                detail.append(f"plus4 h={hn} m={m}")
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
                    ok = False
                    detail.append(f"fan i={i} t={t} edge=({x},{y})")
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
            ok = False
            detail.append(f"U_{t} witness at vertex 0 of G_0")
    return CriterionResult(
        8,
        "construction invariants",
        ok,
        "; ".join(detail) if detail else "G_i, U_i, gadget, fan and U_t witnesses",
        time.monotonic() - t0,
    )


def _naive_square_table(chunk, k: int):
    """For a chunk of equal-length words as a numpy int array, the list of
    (start, period) pairs per word by the literal triple-loop definition,
    vectorized across the chunk."""
    import numpy as np

    n, length = chunk.shape
    out = [[] for _ in range(n)]
    for p in range(k, length // 2 + 1):
        for t in range(0, length - 2 * p + 1):
            eq = (chunk[:, t : t + p] == chunk[:, t + p : t + 2 * p]).all(axis=1)
            for idx in np.nonzero(eq)[0]:
                out[idx].append((t, p))
    return out


_C9A_MAX_LEN = 14


def criterion_9a_words() -> bool:
    """find_squares agrees with the naive triple loop on every ternary word of
    length <= _C9A_MAX_LEN."""
    import numpy as np

    for length in range(2, _C9A_MAX_LEN + 1):
        total = 3 ** length
        powers = 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)
        chunk_size = 200_000
        for lo in range(0, total, chunk_size):
            idx = np.arange(lo, min(lo + chunk_size, total), dtype=np.int64)
            digits = (idx[:, None] // powers) % 3
            naive = _naive_square_table(digits.astype(np.int8), 1)
            text = (digits + ord("0")).astype(np.uint8).tobytes()
            for j in range(len(idx)):
                w = text[j * length : (j + 1) * length].decode()
                fast = [(r.start, r.period) for r in find_squares(w, 1, length // 2)]
                if sorted(fast) != sorted(naive[j]):
                    return False
    return True


def _naive_verify(g: Graph, coloring: Coloring, k: int, max_path: int):
    """Independent re-implementation of verify_coloring: same exploration
    order, but each path tail is re-scanned from scratch with slice compares."""
    colors = coloring.colors
    path: list[int] = []
    on_path = [False] * g.n

    def rec(v):
        path.append(v)
        on_path[v] = True
        try:
            seq = [colors[u] for u in path]
            m = len(seq)
            if m >= 2:
                for p in range(k, m // 2 + 1):
                    if seq[m - 2 * p : m - p] == seq[m - p :]:
                        return tuple(path), Repetition(m - 2 * p, 2 * p, p)
            if len(path) < max_path:
                for u in sorted(g.adj[v]):
                    if not on_path[u]:
                        res = rec(u)
                        if res is not None:
                            return res
            return None
        finally:
            on_path[v] = False
            path.pop()

    for start in range(g.n):
        res = rec(start)
        if res is not None:
            return res
    return None


def criterion_9b_graphs(max_vertices: int = 7) -> bool:
    """verify_coloring agrees with the naive re-implementation on every graph
    with <= max_vertices vertices (connected atlas representatives) under
    every 2-coloring, at k=1."""
    import networkx as nx

    for ng in nx.graph_atlas_g():
        n = ng.number_of_nodes()
        if n < 2 or n > max_vertices or ng.number_of_edges() == 0:
            continue
        g = Graph(n)
        for u, v in ng.edges():
            g.add_edge(u, v)
        for mask in range(2 ** n):
            coloring = Coloring(tuple((mask >> v) & 1 for v in range(n)), 2)
            a = verify_coloring(g, coloring, 1, n)
            b = _naive_verify(g, coloring, 1, n)
            if a != b:
                return False
    return True


def criterion_9() -> CriterionResult:
    t0 = time.monotonic()
    words_ok = criterion_9a_words()
    graphs_ok = criterion_9b_graphs()
    return CriterionResult(
        9,
        "oracle equivalence",
        words_ok and graphs_ok,
        f"words={words_ok} graphs={graphs_ok}",
        time.monotonic() - t0,
    )


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_all(numbers=None) -> list[CriterionResult]:
    numbers = sorted(numbers) if numbers else sorted(_CRITERIA)
    unknown = [i for i in numbers if i not in _CRITERIA]
    if unknown:
        raise ValueError(f"unknown criterion numbers {unknown} (known: {sorted(_CRITERIA)})")
    return [_CRITERIA[i]() for i in numbers]


def format_report(results) -> str:
    lines = [f"{'#':>2} {'criterion':<28} {'status':<6} {'seconds':>8}  detail"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.number:>2} {r.name:<28} {status:<6} {r.seconds:>8.2f}  {r.detail}")
    overall = "pass" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
