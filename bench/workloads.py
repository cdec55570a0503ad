"""The benchmark's three workloads.

Each build_* function takes the imported nonrep modules (``nr``), a
random.Random seeded from ``--seed`` and a size ("full" or "smoke"); it
generates the inputs and returns the job list.  Every job produces one
verdict, and its check re-derives that verdict with ``verdicts`` (no nonrep
code) or compares it with a pinned value; the check returns the exact counts
the job contributes.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import pinned
from verdicts import (
    check_certificate,
    check_violating_path,
    check_word_violation,
    dynamic_period_count,
    expect,
    has_square,
    image,
    tree_coloring_clean,
)

NO_DEADLINE = 1e9  # seconds; search jobs stop on node budgets only


@dataclass
class Job:
    name: str
    tag: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _cli(nr, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = nr.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _seeded_source(rng, base: str, length: int) -> str:
    """A factor of base at a seeded offset with a seeded alphabet permutation;
    both keep a 7/4+-free word 7/4+-free."""
    off = rng.randrange(len(base) - length + 1)
    perm = rng.sample("012", 3)
    return base[off : off + length].translate(str.maketrans("012", "".join(perm)))


# acceptance criteria short enough to repeat, each in the workload of the
# layer it exercises


def _criterion_job(nr, num: int, detail: str = "") -> Job:
    def check(res):
        expect(len(res) == 1 and res[0].number == num and res[0].passed, f"criterion {num} failed")
        expect(detail in res[0].detail, f"criterion {num} detail {res[0].detail!r}")
        return {}

    return Job(f"acceptance/c{num}", "criterion", lambda: nr.acceptance.run_all([num]), check)


def _oracle_graphs_job(nr, max_vertices: int) -> Job:
    import networkx  # noqa: F401  criterion 9b imports it; pay that during set-up, not in a round

    def check(res):
        expect(res is True, "verify_coloring disagrees with the naive oracle")
        return {}

    return Job(f"acceptance/c9b-{max_vertices}", "criterion",
               lambda: nr.acceptance.criterion_9b_graphs(max_vertices), check)


# ---------------------------------------------------------------------------
# certify: treecert through the CLI, plus long-word checks

G2_PARAMS = ("g2", 2, "19/10", 2, 3)
G5_PARAMS = ("g5", 5, "83/42", 5, 20)

# name, (morphism, k, beta, n, d), --factor-len, exit code, failing checks, p*, factor_len used
CERTIFICATES = [
    ("g2-fl8", G2_PARAMS, 8, 0, (), 20, 8),
    ("g2-fl9", G2_PARAMS, 9, 0, (), 20, 9),
    ("g2-fl10", G2_PARAMS, 10, 0, (), 20, 10),
    ("g5-fl9", G5_PARAMS, 9, 0, (), 798, 9),
    ("g2-k1", ("g2", 1, "19/10", 2, 3), 8, 1, ("center-scan",), 20, 8),
    ("g2-beta3/2", ("g2", 2, "3/2", 2, 3), 8, 1, ("image-freeness",), 4, 8),
    ("g2-d2", ("g2", 2, "19/10", 2, 2), 8, 1, ("directedness",), 10, 8),
    ("g5-beta7/4", ("g5", 5, "7/4", 5, 20), 9, 1, ("image-freeness",), 76, 9),
    ("g5-d10", ("g5", 5, "83/42", 5, 10), None, 1, ("directedness",), 378, 9),
    ("g5-fl3", G5_PARAMS, 3, 2, None, None, None),
    ("g5-beta7/4-minimal", ("g5", 5, "7/4", 5, 20), None, 2, None, None, None),
    ("g2-beta2", ("g2", 2, "2/1", 2, 3), 8, 2, None, None, None),
]
SMOKE_CERTIFICATES = ("g2-fl8", "g2-k1", "g2-d2", "g5-fl3", "g2-beta2")
LONG_SOURCE = {"full": 100, "smoke": 30}


def _certificate_job(nr, spec) -> Job:
    name, (morphism, k, beta, n, d), fl, rc_want, failing, p_star, fl_used = spec
    argv = ["treecert", "certify", "--morphism", morphism, "--k", str(k), "--beta", beta,
            "--n", str(n), "--d", str(d)]
    if fl is not None:
        argv += ["--factor-len", str(fl)]

    def check(res):
        rc, out, err = res
        expect(rc == rc_want, f"exit code {rc} != {rc_want}")
        if rc == 2:
            expect(out == "" and err.startswith("error: "), "configuration error not reported on stderr")
            return {}
        doc = json.loads(out)
        expect(doc["factor_len"] == fl_used, f"factor_len {doc['factor_len']} != {fl_used}")
        check_certificate(doc, morphism, failing, p_star)
        return {"source_words": doc["source_words"], "dynamic_periods": dynamic_period_count(doc)}

    return Job(f"certify/{name}", "certificate", lambda: _cli(nr, argv), check)


def _word_job(nr, name, argv, rc_want, check_out) -> Job:
    def check(res):
        rc, out, _ = res
        expect(rc == rc_want, f"exit code {rc} != {rc_want}")
        check_out(out.strip())
        return {}

    return Job(f"certify/{name}", "word", lambda: _cli(nr, argv), check)


def build_certify(nr, rng, size: str) -> list[Job]:
    specs = CERTIFICATES if size == "full" else [s for s in CERTIFICATES if s[0] in SMOKE_CERTIFICATES]
    jobs = [_certificate_job(nr, s) for s in specs]
    base = nr.words.generate_powerfree_ternary(2 * LONG_SOURCE[size])
    src = _seeded_source(rng, base, LONG_SOURCE[size])
    img = nr.words.apply_morphism(nr.words.G2, src)
    expect(img == image("g2", src), "apply_morphism disagrees with the g2 table")

    def is_line(want):
        return lambda out: expect(out == want, f"output {out[:40]!r} != {want!r}")

    jobs += [
        _word_job(nr, "long-free", ["word", "check-free", "--strict", "--beta", "19/10", "--n", "2", img],
                  0, is_line("free")),
        _word_job(nr, "long-directed", ["word", "check-directed", "--d", "3", img], 0, is_line("directed")),
        _word_job(nr, "long-beta3/2", ["word", "check-free", "--beta", "3/2", "--n", "2", img],
                  1, lambda out: check_word_violation(out, img, Fraction(3, 2), 2)),
        _criterion_job(nr, 2, "p*=20"),
        _criterion_job(nr, 7),
    ]
    return jobs


# ---------------------------------------------------------------------------
# verify: the brute-force path oracle on clean and planted level trees

# morphism, k, depth, arity, planted jobs, their square periods (a chain of
# 2p vertices must fit below many vertices, so g5 at depth 7 gets none)
TREES = {
    "full": [("g2", 2, 8, 2, 14, (2,)), ("g2", 2, 5, 3, 14, (2,)), ("g5", 5, 7, 2, 0, ()),
             ("g5", 5, 12, 1, 6, (5, 6))],
    "smoke": [("g2", 2, 5, 2, 3, (2,)), ("g5", 5, 12, 1, 2, (5,))],
}


def _preorder(n: int, arity: int) -> list[int]:
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(c for c in range(arity * v + arity, arity * v, -1) if c < n)
    return order


def _planted_chain(rng, order, level, arity, depth, p, rank):
    """2p vertices straight down, through seeded children, from the vertex
    with room below it whose preorder rank is nearest `rank`.  The traversal
    from the root meets the chain within the top vertex's subtree, so the rank
    fixes how much of the tree is explored before the first hit."""
    tops = [i for i, v in enumerate(order) if level[v] + 2 * p - 1 <= depth]
    chain = [order[min(tops, key=lambda i: abs(i - rank))]]
    while len(chain) < 2 * p:
        chain.append(arity * chain[-1] + 1 + rng.randrange(arity))
    return chain


def build_verify(nr, rng, size: str) -> list[Job]:
    base = nr.words.generate_powerfree_ternary(200)
    clean, planted = [], []
    for morphism, k, depth, arity, n_planted, periods in TREES[size]:
        m = nr.words.NAMED_MORPHISMS[morphism]
        src = _seeded_source(rng, base, depth // m.uniform_width + 2)
        g, coloring = nr.treecert.build_level_tree(nr.words.apply_morphism(m, src), depth, arity)
        word = image(morphism, src)
        level = [0] * g.n
        for v in range(1, g.n):
            level[v] = level[(v - 1) // arity] + 1
        colors = [int(word[depth - lv]) for lv in level]
        order = _preorder(g.n, arity)
        max_path = 2 * depth + 1
        tree = f"{morphism}-d{depth}a{arity}"

        def adjacent(a, b, arity=arity):
            return (a > 0 and (a - 1) // arity == b) or (b > 0 and (b - 1) // arity == a)

        def check_clean(res, n=g.n, colors=tuple(colors), given=coloring.colors):
            expect(given == colors, "level tree colors differ from the level word")
            expect(res is None, f"clean tree reported violation {res}")
            return {"clean_paths": n * (n - 1)}

        clean.append(Job(f"verify/{tree}-clean", "clean",
                         lambda g=g, c=coloring, k=k, mp=max_path: nr.graphs.verify_coloring(g, c, k, mp),
                         check_clean))
        # planted jobs spread their first hits evenly over the root's
        # traversal; the seed picks each chain's branches and its square
        for j in range(n_planted):
            p = periods[j % len(periods)]
            chain = _planted_chain(rng, order, level, arity, depth, p, (2 * j + 1) * g.n // (2 * n_planted))
            x = [rng.randrange(coloring.color_count) for _ in range(p)]
            mine = list(colors)
            for i, v in enumerate(chain):
                mine[v] = x[i % p]
            pc = nr.graphs.Coloring(tuple(mine), coloring.color_count)

            def check_planted(res, adjacent=adjacent, mine=tuple(mine), k=k):
                expect(res is not None, "planted square not found")
                check_violating_path(res[0], res[1], adjacent, mine, k)
                return {}

            planted.append(Job(f"verify/{tree}-planted{j}", "planted",
                               lambda g=g, c=pc, k=k, mp=max_path: nr.graphs.verify_coloring(g, c, k, mp),
                               check_planted))
    return clean + planted + [_oracle_graphs_job(nr, 5 if size == "full" else 4)]


# ---------------------------------------------------------------------------
# search: exact pi_k, word searches, and budget-stopped searches


def _parents(code: str) -> list[int]:
    parent, stack = [], []
    for ch in code:
        if ch == "(":
            parent.append(stack[-1] if stack else -1)
            stack.append(len(parent) - 1)
        else:
            stack.pop()
    return parent


def _pik_job(nr, name, n, edges, k, want, budget) -> Job:
    g = nr.graphs.Graph(n)
    adj = [[] for _ in range(n)]
    for a, b in edges:
        g.add_edge(a, b)
        adj[a].append(b)
        adj[b].append(a)

    def check(res):
        expect(res.value == want and not res.exhausted, f"pi_{k} = {res.value} (lower {res.lower}) != {want}")
        w = res.witness.colors
        expect(len(w) == n and res.witness.color_count == want and set(w) <= set(range(want)), "bad witness")
        expect(tree_coloring_clean(adj, w, k), "witness coloring has a square")
        return {}

    return Job(f"search/{name}-k{k}", "pik", lambda: nr.search.pi_k_exact(g, k, budget), check)


# generator, k, node limit, lower bound at the stop
BOUNDED = {
    "full": [("U4", 1, 500, 5), ("U4", 2, 400, 3), ("G2", 1, 120, 5), ("G2", 2, 400, 4),
             ("lev2x4", 1, 1000, 5), ("C17", 1, 400, 3)],
    "smoke": [("U4", 2, 100, 3)],
}
# alphabet, k, target length
WORD_SEARCHES = {"full": [(3, 1, 1000), (2, 3, 1000), (2, 1, 4)], "smoke": [(3, 1, 50), (2, 1, 4)]}


def _graph(nr, name):
    if name == "U4":
        return nr.graphs.outerplanar_U(4)
    if name == "G2":
        return nr.graphs.stacked_triangulation(2)
    if name == "lev2x4":
        return nr.graphs.leveled_outerplanar(2, 4)
    if name == "C17":
        g = nr.graphs.path_graph(17)
        g.add_edge(16, 0)
        return g
    raise ValueError(f"unknown graph {name}")


def _word_search_job(nr, alphabet, k, target, budget) -> Job:
    def check(res):
        w = res.word
        expect(not res.exhausted and set(w) <= set("0123456789"[:alphabet]), "word search result malformed")
        expect(not has_square(w, k), "word search result has a square of period >= k")
        if res.reached_target:
            expect(len(w) == target, "reached target with the wrong length")
        else:
            # the search is exhaustive, so it may stop short only when every
            # word one symbol longer contains a square
            words = ("".join(t) for t in product("0123456789"[:alphabet], repeat=len(w) + 1))
            expect(target > len(w) and all(has_square(x, k) for x in words), "word search stopped short")
        return {}

    return Job(f"search/word-a{alphabet}k{k}t{target}", "word",
               lambda: nr.search.extend_word_search(alphabet, k, target, budget), check)


def build_search(nr, rng, size: str) -> list[Job]:
    full = size == "full"
    budget = nr.search.SearchBudget(time_limit=NO_DEADLINE)
    jobs = []
    # paths keep their order up to a seeded reversal: a random labeling of a
    # long path makes the vertex-order backtracking exponential
    for k, lengths in ((1, range(4, 15 if full else 7)), (3, range(2, 61 if full else 8))):
        for n in lengths:
            flip = rng.random() < 0.5
            edges = [((n - 1 - i, n - 2 - i) if flip else (i, i + 1)) for i in range(n - 1)]
            want = 3 if k == 1 else (1 if n <= 5 else 2)
            jobs.append(_pik_job(nr, f"P{n}", n, edges, k, want, budget))
    for code, pis in pinned.TREE_PI.items():
        if len(code) > 2 * (8 if full else 4):
            continue
        parent = _parents(code)
        label = list(range(len(parent)))
        rng.shuffle(label)
        edges = [(label[parent[v]], label[v]) for v in range(1, len(parent))]
        for k in range(1, 6):
            jobs.append(_pik_job(nr, f"T{code}", len(parent), edges, k, int(pis[k - 1]), budget))
    for alphabet, k, target in WORD_SEARCHES[size]:
        jobs.append(_word_search_job(nr, alphabet, k, target, budget))
    for name, k, limit, lower in BOUNDED[size]:
        g = _graph(nr, name)
        b = nr.search.SearchBudget(node_limit=limit, time_limit=NO_DEADLINE)

        def check(res, lower=lower, limit=limit):
            expect(res.exhausted and res.upper is None and res.witness is None, "budget search did not stop on its budget")
            expect(res.lower == lower, f"lower bound {res.lower} != {lower}")
            return {"bounded_nodes": limit + 1}

        jobs.append(Job(f"search/{name}-k{k}-nodes{limit}", "bounded",
                        lambda g=g, k=k, b=b: nr.search.pi_k_exact(g, k, b), check))
    return jobs


WORKLOADS = {"certify": build_certify, "verify": build_verify, "search": build_search}
