"""Tests for the graph family generators, witnesses, and the coloring verifier."""

import time
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from nonrep import graphs
from nonrep.acceptance import _naive_verify as _naive_least_violation
from nonrep.graphs import (
    Coloring,
    Graph,
    _square_through_vertex,
    _swept_square,
    check_3tree,
    complete_tree,
    fan_witness,
    leveled_outerplanar,
    outerplanar_U,
    path_graph,
    plus4_gadget,
    stacked_triangulation,
    u_witness,
    verify_coloring,
)
from nonrep.repetitions import Repetition
from nonrep.treecert import build_level_tree
from nonrep.words import generate_powerfree_ternary


def test_path_graph_examples():
    g1 = path_graph(1)
    assert g1.n == 1 and g1.edge_count == 0
    g2 = path_graph(2)
    assert g2.edges() == [(0, 1)]
    g5 = path_graph(5)
    assert g5.edge_count == 4
    degrees = [len(g5.adj[v]) for v in range(5)]
    assert degrees.count(1) == 2 and degrees.count(2) == 3


def test_stacked_triangulation_counts():
    for i, (v, e, f) in enumerate([(4, 6, 4), (8, 18, 12), (20, 54, 36)]):
        g = stacked_triangulation(i)
        assert (g.n, g.edge_count, len(g.faces)) == (v, e, f)


def test_stacked_triangulation_recurrences_and_euler():
    v, e, f = 4, 6, 4
    for i in range(7):
        g = stacked_triangulation(i)
        assert (g.n, g.edge_count, len(g.faces)) == (v, e, f)
        assert g.n - g.edge_count + len(g.faces) == 2
        assert len(g.faces) == 4 * 3**i
        assert check_3tree(g) is None
        v, e, f = v + f, e + 3 * f, 3 * f


def test_stacked_faces_are_triangles():
    g = stacked_triangulation(2)
    for f in g.faces:
        a, b, c = f
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)


def test_check_3tree_failure():
    k5 = Graph(0)
    for i in range(5):
        k5.add_vertex(range(i))
    assert check_3tree(k5) == 4  # four earlier neighbours
    # a path has treewidth 1; no construction log is needed
    assert check_3tree(path_graph(3)) is None
    # a 4-cycle numbered around: vertex 3's earlier neighbours 0 and 2 are
    # not adjacent, so this order is no perfect elimination order
    c4 = path_graph(4)
    c4.add_edge(0, 3)
    assert check_3tree(c4) == 3


def test_outerplanar_U_examples():
    u0 = outerplanar_U(0)
    assert u0.n == 2 and u0.edges() == [(0, 1)]
    assert u0.main_edge == (0, 1)
    u1 = outerplanar_U(1)
    assert u1.n == 3 and u1.edge_count == 3  # triangle
    for i in range(11):
        ui = outerplanar_U(i)
        assert ui.n == 2**i + 1
        assert ui.edge_count == 2 ** (i + 1) - 1
        a, d = ui.main_edge
        assert ui.has_edge(a, d)


def glued_outerplanar_U(i: int) -> Graph:
    """Reference builder by the recursive definition: glue a copy of U_(i-1)
    to itself, the copy's first main-edge end identified with the original's
    second, and close the two with a new main edge."""
    g = Graph(2)
    g.add_edge(0, 1)
    g.main_edge = (0, 1)
    for _ in range(i):
        a, b = g.main_edge
        n = g.n

        def remap(v):
            if v == a:
                return b
            return n + v - (1 if v > a else 0)

        edges = g.edges()
        for _ in range(g.n - 1):
            g.add_vertex()
        for u, v in edges:
            g.add_edge(remap(u), remap(v))
        g.main_edge = (a, remap(b))
        g.add_edge(*g.main_edge)
    g.family = "outeru"
    return g


def test_outerplanar_U_matches_glued_reference():
    for i in range(11):
        assert outerplanar_U(i).to_json_dict() == glued_outerplanar_U(i).to_json_dict(), i


def test_plus4_gadget_counts():
    g = plus4_gadget(path_graph(1), 1)  # h = K1
    assert g.n == 6 and g.edge_count == 8
    empty = Graph(0)
    for h, hn, he in (
        (empty, 0, 0),
        (path_graph(1), 1, 0),
        (path_graph(2), 2, 1),
        (path_graph(3), 3, 2),
    ):
        for m in (1, 2, 3):
            g = plus4_gadget(h, m)
            assert g.n == 2 * m * (1 + hn) + 2
            assert g.edge_count == 5 * m + 1 + 2 * m * (hn + he)


def test_plus4_gadget_structure():
    # matched vertices all adjacent to both extra vertices c, d; cd is an edge
    m = 2
    g = plus4_gadget(Graph(0), m)
    c, d = g.n - 2, g.n - 1
    assert g.has_edge(c, d)
    matched = [v for v in range(g.n - 2)]
    for x in matched:
        assert g.has_edge(x, c) and g.has_edge(x, d)


def test_leveled_outerplanar_examples():
    assert leveled_outerplanar(0, 3).n == 1
    fan = leveled_outerplanar(1, 3)
    assert fan.n == 4 and fan.edge_count == 5
    assert leveled_outerplanar(2, 2).n == 7
    with pytest.raises(ValueError):
        leveled_outerplanar(10, 10)


def test_generators_share_one_vertex_budget():
    # an over-budget instance of each family is refused before it is built:
    # 200 001, 354 296 (G_11), 262 145 (U_18), 200 012, 2^18 - 1 and 2^41 - 1
    # vertices; the last, a level tree's shape, would otherwise exhaust memory
    for build in (lambda: path_graph(200_001), lambda: stacked_triangulation(11),
                  lambda: outerplanar_U(18), lambda: plus4_gadget(path_graph(4), 20_001),
                  lambda: leveled_outerplanar(17, 2), lambda: complete_tree(40, 2)):
        with pytest.raises(ValueError, match="budget"):
            build()
    assert stacked_triangulation(2).n == 20 and outerplanar_U(4).n == 17


def test_leveled_outerplanar_child_paths():
    g = leveled_outerplanar(2, 3)
    # root is vertex 0 with 3 consecutive children
    kids = sorted(v for v in g.adj[0] if g.levels[v] == 1)
    assert len(kids) == 3
    assert g.has_edge(kids[0], kids[1]) and g.has_edge(kids[1], kids[2])
    assert not g.has_edge(kids[0], kids[2])


def test_complete_tree_numbering():
    # level by level: the children of v are a*v + 1 .. a*v + a
    for depth in range(5):
        for a in range(1, 4):
            g = complete_tree(depth, a)
            n = sum(a**i for i in range(depth + 1))
            tree = [((v - 1) // a, v) for v in range(1, n)]
            assert g.n == n and g.edges() == tree
            assert g.levels == [0] + [g.levels[(v - 1) // a] + 1 for v in range(1, n)]
            siblings = [(v - 1, v) for v in range(1, n) if (v - 1) % a]
            assert leveled_outerplanar(depth, a).edges() == sorted(tree + siblings)
    with pytest.raises(ValueError):
        complete_tree(-1, 2)
    with pytest.raises(ValueError):
        complete_tree(2, 0)


def test_fan_witness_t1():
    g1 = stacked_triangulation(1)
    w = fan_witness(0, (0, 1), 1)
    assert len(w) == 1 and w[0] >= 4
    assert g1.has_edge(w[0], 0) and g1.has_edge(w[0], 1)


def test_fan_witness_rejects_non_edges():
    # (0, 4) is an edge of G_1 but not of G_0; (4, 5) is no edge of G_1
    for i, edge in ((0, (0, 0)), (0, (0, 4)), (0, (-1, 0)), (1, (4, 5)), (-1, (0, 1))):
        with pytest.raises(ValueError):
            fan_witness(i, edge, 1)


def _check_fan(i, edge, t):
    w = fan_witness(i, edge, t)
    big = stacked_triangulation(i + t)
    base_n = stacked_triangulation(i).n
    assert len(w) == t and len(set(w)) == t
    for v in w:
        assert v >= base_n
        assert big.has_edge(v, edge[0]) and big.has_edge(v, edge[1])
    for a, b in zip(w, w[1:]):
        assert big.has_edge(a, b)


def test_fan_witness_examples():
    _check_fan(0, (0, 1), 3)
    g1 = stacked_triangulation(1)
    _check_fan(1, g1.edges()[0], 5)


def test_fan_witness_all_edges_small():
    for i in range(3):
        gi = stacked_triangulation(i)
        for edge in gi.edges():
            for t in range(1, 4):
                _check_fan(i, edge, t)


def test_u_witness_examples():
    for i in range(3):
        base_n = stacked_triangulation(i).n
        for t in range(5 - i):
            host = stacked_triangulation(i + t + 2)
            template = glued_outerplanar_U(t)
            for x in range(base_n):
                image = u_witness(i, x, t)
                assert sorted(image) == list(range(2**t + 1))
                assert len(set(image.values())) == template.n
                for v in image.values():
                    assert v >= base_n
                    assert host.has_edge(v, x)
                for a, b in template.edges():
                    assert host.has_edge(image[a], image[b])
    with pytest.raises(ValueError):
        u_witness(0, 0, -1)
    for i in range(3):
        with pytest.raises(ValueError):
            u_witness(i, stacked_triangulation(i).n, 1)


def enumerate_paths(g: Graph, max_vertices: int):
    """Yield every simple path with 2..max_vertices vertices exactly once up to
    reversal, oriented with the lexicographically smaller endpoint first.
    This is the path source of the naive verifier below."""
    if max_vertices < 2:
        raise ValueError("need max_vertices >= 2")
    path = []
    on_path = [False] * g.n

    def rec(v):
        path.append(v)
        on_path[v] = True
        if len(path) >= 2 and path[0] < path[-1]:
            yield tuple(path)
        if len(path) < max_vertices:
            for u in sorted(g.adj[v]):
                if not on_path[u]:
                    yield from rec(u)
        on_path[v] = False
        path.pop()

    for start in range(g.n):
        yield from rec(start)


def test_enumerate_paths_examples():
    assert len(list(enumerate_paths(path_graph(3), 3))) == 3
    k3 = Graph(3)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        k3.add_edge(a, b)
    assert len(list(enumerate_paths(k3, 3))) == 6
    star = Graph(4)
    for leaf in (1, 2, 3):
        star.add_edge(0, leaf)
    assert len(list(enumerate_paths(star, 3))) == 6


def test_enumerate_paths_canonical_and_complete():
    g = stacked_triangulation(0)  # K4
    paths = list(enumerate_paths(g, 4))
    assert len(paths) == len(set(paths))
    for p in paths:
        assert p[0] < p[-1]
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
    # K4 path counts: 6 edges + 12 three-vertex + 12 four-vertex
    by_len = {}
    for p in paths:
        by_len[len(p)] = by_len.get(len(p), 0) + 1
    assert by_len == {2: 6, 3: 12, 4: 12}


def test_verify_coloring_examples():
    p4 = path_graph(4)
    assert verify_coloring(p4, Coloring((0, 1, 0, 2), 3), 1, 4) is None
    bad = verify_coloring(p4, Coloring((0, 1, 0, 1), 2), 1, 4)
    assert bad is not None
    path, rep = bad
    assert rep.period == 2 and len(path) >= 4
    mono = verify_coloring(p4, Coloring((0, 0, 0, 0), 1), 1, 4)
    assert mono is not None and mono[1].period == 1


def test_verify_coloring_counterexample_is_genuine():
    p6 = path_graph(6)
    res = verify_coloring(p6, Coloring((0, 1, 2, 0, 1, 2), 3), 2, 6)
    assert res is not None
    path, rep = res
    s = "".join(str((0, 1, 2, 0, 1, 2)[v]) for v in path)
    chunk = s[rep.start : rep.start + rep.period]
    assert s[rep.start : rep.start + rep.length] == chunk * 2
    assert rep.period >= 2


def _naive_verify(g, coloring, k, max_path):
    """Independent slice-rescan reimplementation over enumerate_paths."""
    best = None
    for p in enumerate_paths(g, max_path):
        for variant in (p, p[::-1]):
            s = [coloring.colors[v] for v in variant]
            n = len(s)
            for start in range(n):
                for period in range(k, (n - start) // 2 + 1):
                    if s[start : start + period] == s[start + period : start + 2 * period]:
                        cand = tuple(variant)
                        if best is None or cand < best:
                            best = cand
    return best


def test_verify_coloring_matches_naive_small():
    g = stacked_triangulation(0)
    for colors in product(range(2), repeat=4):
        for k in (1, 2):
            got = verify_coloring(g, Coloring(colors, 2), k, 4)
            want = _naive_verify(g, Coloring(colors, 2), k, 4)
            assert (got is None) == (want is None), (colors, k)
            if got is not None:
                assert got[0] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(1, 2), st.data())
def test_verify_coloring_matches_naive_random_paths(n, k, data):
    g = path_graph(n)
    colors = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    got = verify_coloring(g, Coloring(colors, 3), k, n)
    want = _naive_verify(g, Coloring(colors, 3), k, n)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want


def _tail_repetition(g, coloring, path, k):
    """The smallest-period square of period >= k ending at the path's last
    vertex, by slicing."""
    s = [coloring.colors[v] for v in path]
    m = len(s)
    p = next(p for p in range(k, m // 2 + 1) if s[m - 2 * p : m - p] == s[m - p :])
    return Repetition(m - 2 * p, 2 * p, p)


@st.composite
def _colored_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n + 4)) if pairs else []
    ncolors = draw(st.integers(1, 4))
    colors = tuple(draw(st.lists(st.integers(0, ncolors - 1), min_size=n, max_size=n)))
    g = Graph(n)
    for a, b in edges:
        g.add_edge(a, b)
    return g, Coloring(colors, ncolors)


@settings(max_examples=300, deadline=None)
@given(_colored_graphs(), st.integers(1, 4), st.data())
def test_verify_coloring_matches_naive_random_graphs(case, k, data):
    # max_path below n exercises the sweep's period cap
    g, coloring = case
    max_path = data.draw(st.integers(2, g.n + 2))
    got = verify_coloring(g, coloring, k, max_path)
    want = _naive_verify(g, coloring, k, max_path)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == (want, _tail_repetition(g, coloring, want, k))


@settings(max_examples=200, deadline=None)
@given(_colored_graphs(), st.data())
def test_verify_coloring_below_twice_the_period_matches_naive(case, data):
    # k runs up past n / 2 and max_path down to 1, so the early return
    # (max_path or n below 2k: no square fits) meets the oracle too
    g, coloring = case
    k = data.draw(st.integers(1, g.n + 1))
    max_path = data.draw(st.integers(1, g.n + 2))
    naive = _naive_least_violation(g.adj, coloring.colors, k, max_path)
    assert verify_coloring(g, coloring, k, max_path) == naive


def test_verify_coloring_short_paths():
    # a square spans two vertices: one-vertex graphs and max_path 1 are clean
    assert verify_coloring(path_graph(1), Coloring((0,), 1), 1, 1) is None
    assert verify_coloring(path_graph(3), Coloring((0, 0, 0), 1), 1, 1) is None
    with pytest.raises(ValueError):
        verify_coloring(path_graph(3), Coloring((0, 0, 0), 1), 1, 0)


def _spy(monkeypatch, name):
    """Replace graphs.<name> by a wrapper that records each call's result;
    returns the list of results."""
    real = getattr(graphs, name)
    results = []

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(graphs, name, spy)
    return results


def test_verify_coloring_names_violation_past_the_probe(monkeypatch):
    # a clean verdict comes from the sweep once the probe runs out: P_4 has
    # 12 path extensions, past the probe's 4
    swept = _spy(monkeypatch, "_swept_square")
    tails = _spy(monkeypatch, "_tail_square")
    assert verify_coloring(path_graph(4), Coloring((0, 1, 0, 2), 3), 1, 4) is None
    assert swept == [False] and len(tails) == 4
    # a square-free path 0..5 and, apart from it, an edge of one color: the
    # DFS spends 30 extensions on the path before it reaches the edge, past
    # the probe's 8, so the sweep finds the square once and the same DFS goes
    # on to name it, testing each of its 31 extensions once
    swept.clear()
    tails.clear()
    g = path_graph(6)
    g.add_vertex()
    g.add_vertex((6,))
    coloring = Coloring((0, 1, 0, 2, 0, 1, 2, 2), 3)
    assert verify_coloring(g, coloring, 1, g.n) == ((6, 7), Repetition(0, 2, 1))
    assert swept == [True] and len(tails) == 31 and tails.count(None) == 30


class _RecordingList(list):
    """A list that records the index of every item read, by index or by
    iterating over it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.reads.extend(range(len(self)))
        return super().__iter__()


def test_verify_coloring_reads_only_the_neighbours_it_expands():
    # a square met early costs the neighbour lists of the vertices the DFS
    # expanded, each read once, not all g.n of them: on the path, a
    # square-free prefix of 30 colours and then a repeat of the last, so the
    # DFS expands 0..29 and the extension to 30 closes the square
    word = [int(c) for c in generate_powerfree_ternary(30)]
    g = path_graph(2000)
    g.adj = _RecordingList(g.adj)
    colors = word + word[-1:] + [0] * (g.n - 31)
    got = verify_coloring(g, Coloring(tuple(colors), 3), 1, g.n)
    assert got == (tuple(range(31)), Repetition(29, 2, 1))
    assert g.adj.reads == list(range(30))
    # on G_4, where vertex 0 neighbours 1, 2, 3 and more, the path 0-1-2-3
    # reads 0101: the DFS expands 0, 1 and 2
    g = stacked_triangulation(4)
    g.adj = _RecordingList(g.adj)
    got = verify_coloring(g, Coloring((0, 1, 0, 1) + (2,) * (g.n - 4), 3), 1, g.n)
    assert got == ((0, 1, 2, 3), Repetition(0, 4, 2))
    assert g.adj.reads == [0, 1, 2]


def test_coloring_names_the_first_color_out_of_range():
    assert Coloring((), 0).colors == ()
    for colors, bad in (((0, 2, 5, -1, 7), 5), ((0, -1, 5), -1), ((3,), 3)):
        with pytest.raises(ValueError, match=f"^color {bad} out of range$"):
            Coloring(colors, 3)


def _relabelled(g, coloring, perm):
    h = Graph(g.n)
    for u, v in g.edges():
        h.add_edge(perm[u], perm[v])
    colors = [0] * g.n
    for v, c in enumerate(coloring.colors):
        colors[perm[v]] = c
    return h, Coloring(tuple(colors), coloring.color_count)


@settings(max_examples=300, deadline=None)
@given(_colored_graphs(), st.integers(1, 3), st.data())
def test_sweep_decides_like_the_naive_oracle_in_any_numbering(case, k, data):
    # the sweep reveals vertices from the highest index down; a random
    # relabelling moves each square's last revealed vertex anywhere on it,
    # and max_path runs below and above n
    g, coloring = case
    max_path = data.draw(st.integers(2, g.n + 2))
    perm = data.draw(st.permutations(range(g.n)))
    for h, c in ((g, coloring), _relabelled(g, coloring, perm)):
        naive = _naive_least_violation(h.adj, c.colors, k, max_path)
        assert _swept_square(h, c.colors, k, max_path) == (naive is not None)
        assert verify_coloring(h, c, k, max_path) == naive


def test_sweep_finds_a_square_at_the_last_vertex_revealed(monkeypatch):
    # the path 1-2-3-0 reads 0101, the only square: the sweep meets it only
    # when it reveals vertex 0, last
    g = Graph(4)
    for u, v in ((1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    coloring = Coloring((1, 0, 1, 0), 2)
    kernel = graphs._square_through_vertex
    calls = []

    def spy(g, colors, v, k, pmax, cands):
        calls.append((v, pmax, kernel(g, colors, v, k, pmax, cands)))
        return calls[-1][2]

    monkeypatch.setattr(graphs, "_square_through_vertex", spy)
    assert _swept_square(g, coloring.colors, 1, 4) is True
    # the period cap counts revealed vertices: 1, 2, 3, then 4
    assert calls == [(3, 0, set()), (2, 1, set()), (1, 1, set()), (0, 2, {1})]


def _naive_square_through(adj, colors, v, k, pmax) -> bool:
    """Brute force: does some simple path through v over colored vertices,
    compared half against half by slicing, read a square of period in
    k..pmax?"""

    def grow(path) -> bool:
        h = len(path) // 2
        if v in path and len(path) % 2 == 0 and k <= h <= pmax:
            seq = [colors[u] for u in path]
            if seq[:h] == seq[h:]:
                return True
        return any(
            grow(path + [u]) for u in adj[path[-1]] if colors[u] >= 0 and u not in path
        )

    return any(grow([s]) for s in range(len(colors)) if colors[s] >= 0)


@st.composite
def _partial_colorings(draw):
    """A small graph, colors in -1..2 (-1: not yet colored) and a vertex v,
    whose own color the kernel must not read."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
    colors = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    v = draw(st.integers(0, n - 1))
    return n, edges, colors, v


@settings(max_examples=300, deadline=None)
@given(_partial_colorings(), st.integers(1, 3), st.integers(1, 5), st.sets(st.integers(0, 3)))
# a square away from v (vertices 0, 1) must not count
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 0, 1, 2, 0], 4), 1, 4, {0})
# v ends the first half: read from the far end, one vertex lies past v
@example((4, [(0, 1), (1, 2), (2, 3)], [1, 2, 1, 2], 1), 1, 2, {2})
# the only square has period 2, above the cap
@example((4, [(0, 1), (1, 2), (2, 3)], [1, 2, 1, 2], 1), 1, 1, {2})
# 001001 has only a period-3 square through v = 3: period 2 dies at
# |R| = 4, where period 3 must not join under the cap 2
@example((6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 0, 1, 0, 0, 1], 3), 2, 2, {0})
# 1010 with v = 2 in its second half: the completion past v reads color 0
@example((4, [(0, 1), (1, 2), (2, 3)], [1, 0, -1, 0], 2), 2, 2, {1})
# every candidate closes a square; the walk decides 1, then 0 by a completion
# walk through vertex 4, then 2 by the square 3-4, which a completion walk
# that left 4 marked would hide
@example((6, [(0, 5), (1, 4), (2, 3), (2, 5), (3, 4)], [0, 1, 1, 1, 2, 2], 3), 1, 3, {0, 1, 2})
def test_square_through_vertex_matches_brute_force(case, k, pmax, cands):
    n, edges, colors, v = case
    g = Graph(n)
    for a, b in edges:
        g.add_edge(a, b)
    marked = list(colors)
    got = _square_through_vertex(g, marked, v, k, pmax, cands)
    assert marked == colors  # the kernel restores its path marks, found or not
    for c in range(4):
        colors[v] = c
        assert (c in got) == (c in cands and _naive_square_through(g.adj, colors, v, k, pmax))


def test_graph_json_round_trip():
    for g in (
        path_graph(4),
        stacked_triangulation(1),
        outerplanar_U(2),
        leveled_outerplanar(2, 2),
    ):
        assert Graph.from_json_dict(g.to_json_dict()) == g


def test_graph_invariants():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    g.add_edge(0, 1)
    assert g.has_edge(1, 0)


def _assert_sorted_adjacency(g, edges):
    """g.adj[u] is the strictly increasing list of u's neighbours in edges, a
    set of (min, max) pairs; edges() and has_edge agree with it; and adding
    an existing edge, either way round, changes nothing."""
    for u, nbrs in enumerate(g.adj):
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
        assert set(nbrs) == {b for a, b in edges if a == u} | {a for a, b in edges if b == u}
    assert g.edges() == sorted(edges)
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    before = [list(a) for a in g.adj]
    for u, v in edges:
        g.add_edge(v, u)
        g.add_edge(u, v)
    assert g.adj == before


def test_every_builder_keeps_neighbour_lists_increasing():
    built = [path_graph(7), plus4_gadget(stacked_triangulation(1), 3), complete_tree(3, 3),
             build_level_tree(generate_powerfree_ternary(6), 5, 2)[0], leveled_outerplanar(3, 3)]
    built += [stacked_triangulation(i) for i in range(5)]
    built += [outerplanar_U(i) for i in range(7)]
    for g in built:
        edges = {(min(u, v), max(u, v)) for u in range(g.n) for v in g.adj[u]}
        _assert_sorted_adjacency(g, edges)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph_json_in_any_edge_order_loads_increasing_lists(data):
    # shuffled, reversed, duplicated and (v, u) pairs
    n = data.draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    listed = [[b, a] if data.draw(st.booleans()) else [a, b] for a, b in edges]
    listed += data.draw(st.lists(st.sampled_from(listed), max_size=4)) if listed else []
    listed = data.draw(st.permutations(listed))
    for order in (listed, listed[::-1]):
        _assert_sorted_adjacency(Graph.from_json_dict({"n": n, "edges": order}), set(edges))
    # the same lists come from add_edge calls in file order
    g = Graph(n)
    for a, b in listed:
        g.add_edge(a, b)
    _assert_sorted_adjacency(g, set(edges))


def test_graph_json_star_listed_backward_loads_in_linear_time(monkeypatch):
    # inserting in file order would move every earlier leaf of the hub's
    # list once per leaf, quadratic in the leaves (4.7 s against 0.2 s on a
    # 2-core host); the load adds the edges in sorted order, so each appends
    n = 200_000
    doc = {"n": n, "edges": [[0, v] for v in range(n - 1, 0, -1)]}
    inserts = _spy(monkeypatch, "insort")
    t0 = time.perf_counter()
    g = Graph.from_json_dict(doc)
    assert time.perf_counter() - t0 < 2
    assert inserts == []
    assert g.adj[0] == list(range(1, n)) and g.adj[n - 1] == [0]
