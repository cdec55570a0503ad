"""Graph data model, the planar/outerplanar family generators, the
square-through-a-vertex kernel (one walk out of a vertex decides which of a
set of candidate colors for it would close a color square), and the
non-repetitive coloring verifier that serves as the global oracle for the rest
of the toolkit.

Planarity of the generated families is guaranteed by construction (face-tracked
stacking, the closed form of U_i); no general planarity test is included.  The
fan and U_t witnesses are built from the stacking rounds, not searched for.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain

from .repetitions import Repetition


def _json_list(value, key: str, size: int | None = None, ints: bool = False) -> list:
    """value, checked to be a list (of length size, if given; of ints, if
    ints); ValueError naming the graph JSON key otherwise."""
    if (
        not isinstance(value, list)
        or size not in (None, len(value))
        or (ints and any(type(v) is not int for v in value))
    ):
        what = f"{size or 'any number of'} {'ints' if ints else 'items'}"
        raise ValueError(f"graph JSON {key!r}: {value!r} is not a list of {what}")
    return value


class Graph:
    """Undirected simple graph on vertices 0..n-1 with optional construction
    metadata (insertion log, face list, levels, distinguished main edge).
    Each g.adj[u] lists u's neighbours in strictly increasing order: its two
    writers, add_edge and from_json_dict, keep it so."""

    def __init__(self, n: int = 0):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.construction_log: list[tuple[int, tuple[int, ...]]] | None = None
        self.faces: list[tuple[int, int, int]] | None = None
        self.main_edge: tuple[int, int] | None = None
        self.levels: list[int] | None = None
        self.family: str | None = None

    def add_vertex(self, neighbors=()) -> int:
        v = self.n
        self.n += 1
        self.adj.append([])
        for u in neighbors:
            self.add_edge(u, v)
        return v

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("no self-loops")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        au, av = self.adj[u], self.adj[v]
        if (not au or au[-1] < v) and (not av or av[-1] < u):
            au.append(v)
            av.append(u)
        elif not self.has_edge(u, v):
            insort(au, v)
            insort(av, u)

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def to_json_dict(self) -> dict:
        d: dict = {"n": self.n, "edges": [list(e) for e in self.edges()]}
        if self.construction_log is not None:
            d["construction"] = [[v, list(nb)] for v, nb in self.construction_log]
        if self.faces is not None:
            d["faces"] = [list(f) for f in self.faces]
        if self.main_edge is not None:
            d["main_edge"] = list(self.main_edge)
        if self.levels is not None:
            d["levels"] = list(self.levels)
        if self.family is not None:
            d["family"] = self.family
        return d

    @classmethod
    def from_json_dict(cls, d) -> "Graph":
        """Inverse of to_json_dict; raises ValueError on a document of the
        wrong shape or with more than _MAX_VERTICES vertices, before any
        vertex is allocated."""
        if not isinstance(d, dict) or "n" not in d or "edges" not in d:
            raise ValueError("graph JSON must be an object with 'n' and 'edges'")
        if type(d["n"]) is not int or d["n"] < 0:
            raise ValueError(f"graph JSON 'n' must be a non-negative int, not {d['n']!r}")
        if d["n"] > _MAX_VERTICES:
            raise ValueError(f"graph JSON 'n' {d['n']} is past the budget of {_MAX_VERTICES} vertices")
        edges = [_json_list(e, "edges", 2, ints=True) for e in _json_list(d["edges"], "edges")]
        g = cls(d["n"])
        # in sorted (min, max) order every insertion appends
        for u, v in sorted((u, v) if u < v else (v, u) for u, v in edges):
            g.add_edge(u, v)
        if "construction" in d:
            g.construction_log = []
            for r in _json_list(d["construction"], "construction"):
                v, nb = _json_list(r, "construction", 2)
                if type(v) is not int:
                    raise ValueError(f"graph JSON 'construction': {v!r} is not an int")
                g.construction_log.append((v, tuple(_json_list(nb, "construction", ints=True))))
        if "faces" in d:
            faces = _json_list(d["faces"], "faces")
            g.faces = [tuple(_json_list(f, "faces", 3, ints=True)) for f in faces]
        if "main_edge" in d:
            g.main_edge = tuple(_json_list(d["main_edge"], "main_edge", 2, ints=True))
        if "levels" in d:
            g.levels = list(_json_list(d["levels"], "levels", ints=True))
        g.family = d.get("family")
        if g.family is not None and not isinstance(g.family, str):
            raise ValueError("graph JSON 'family' must be a string")
        return g

    def __eq__(self, other):
        return isinstance(other, Graph) and self.to_json_dict() == other.to_json_dict()


@dataclass(frozen=True)
class Coloring:
    """A total vertex -> color-id assignment."""

    colors: tuple[int, ...]
    color_count: int

    def __post_init__(self):
        if self.colors and not (0 <= min(self.colors) and max(self.colors) < self.color_count):
            c = next(c for c in self.colors if not 0 <= c < self.color_count)
            raise ValueError(f"color {c} out of range")


_MAX_VERTICES = 200_000


def _check_vertex_budget(parts) -> None:
    """Refuse, before anything is built, an instance whose vertex count (the
    sum of parts) passes _MAX_VERTICES, the one budget of every generated
    family.  parts may be a lazy sequence of growing terms: summing stops at
    the budget, so a huge parameter costs nothing to refuse."""
    total = 0
    for part in parts:
        total += part
        if total > _MAX_VERTICES:
            raise ValueError(f"instance would have more than {_MAX_VERTICES} vertices, the budget")


def path_graph(n: int) -> Graph:
    """Path on n vertices, 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_vertex_budget((n,))
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    g.family = "path"
    return g


def _stack_rounds(rounds: int):
    """Run the face-stacking construction, returning the graph together with a
    per-round map from the subdivided face to the vertex inserted into it."""
    g = Graph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    g.construction_log = [(v, tuple(u for u in range(4) if u != v)) for v in range(4)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    round_maps = []
    for _ in range(rounds):
        inserted: dict[frozenset, int] = {}
        new_faces = []
        for a, b, c in faces:
            v = g.add_vertex((a, b, c))
            g.construction_log.append((v, tuple(sorted((a, b, c)))))
            inserted[frozenset((a, b, c))] = v
            new_faces += [(a, b, v), (a, c, v), (b, c, v)]
        faces = new_faces
        round_maps.append(inserted)
    g.faces = faces
    g.family = "stacked"
    return g, round_maps


def stacked_triangulation(i: int) -> Graph:
    """The i-th stacked planar triangulation: K4 with i rounds of inserting a
    degree-3 vertex into every face.  Deterministic insertion-order numbering;
    carries its face list and construction log.  |V| = 2 * 3^i + 2."""
    if i < 0:
        raise ValueError("need i >= 0")
    # round r inserts one vertex into each of the 4 * 3^r faces
    _check_vertex_budget(chain((4,), (4 * 3**r for r in range(i))))
    g, _ = _stack_rounds(i)
    return g


def outerplanar_U(i: int) -> Graph:
    """The i-th graph of the recursive outerplanar family: an edge at level 0,
    then two copies of U_(i-1) glued end to end and closed by a new main edge.
    Numbered along its Hamiltonian path 0..2^i, it has the closed form: the
    edge (a, a + 2^s) for every scale s <= i and every multiple a of 2^s below
    2^i, with main edge (0, 2^i).  |V| = 2^i + 1, |E| = 2^(i+1) - 1."""
    if i < 0:
        raise ValueError("need i >= 0")
    _check_vertex_budget(chain((2,), (2**s for s in range(i))))
    g = Graph(2**i + 1)
    for s in range(i + 1):
        for a in range(0, 2**i, 2**s):
            g.add_edge(a, a + 2**s)
    g.main_edge = (0, 2**i)
    g.family = "outeru"
    return g


def plus4_gadget(h: Graph, m: int) -> Graph:
    """Matching of m edges; every matched vertex dominates its own copy of h;
    two extra adjacent vertices each adjacent to all matched vertices."""
    if m < 1:
        raise ValueError("need m >= 1")
    _check_vertex_budget((2 * m + 2, 2 * m * h.n))
    g = Graph(2 * m + 2)
    c, d = 2 * m, 2 * m + 1
    for j in range(m):
        g.add_edge(2 * j, 2 * j + 1)
    for x in range(2 * m):
        g.add_edge(c, x)
        g.add_edge(d, x)
    g.add_edge(c, d)  # last, so that every edge above appends
    h_edges = h.edges()
    for x in range(2 * m):
        base = g.n
        for _ in range(h.n):
            g.add_vertex((x,))
        for u, v in h_edges:
            g.add_edge(base + u, base + v)
    g.family = "plus4"
    return g


def complete_tree(depth: int, arity: int) -> Graph:
    """Complete rooted tree of the given depth and branching, numbered level by
    level: the children of v are arity*v + 1 .. arity*v + arity, and g.levels
    holds each vertex's depth."""
    if depth < 0 or arity < 1:
        raise ValueError("need depth >= 0 and arity >= 1")
    levels = [lv for lv in range(depth + 1) for _ in range(arity**lv)]
    g = Graph(len(levels))
    for v in range(1, g.n):
        g.add_edge((v - 1) // arity, v)
    g.levels = levels
    return g


def leveled_outerplanar(levels: int, path_len: int) -> Graph:
    """Rooted leveled graph: every vertex on level i carries a child path of
    path_len vertices on level i+1 (children adjacent to the parent and
    consecutive children adjacent)."""
    if levels < 0 or path_len < 1:
        raise ValueError("need levels >= 0 and path_len >= 1")
    _check_vertex_budget(path_len**lv for lv in range(levels + 1))
    g = complete_tree(levels, path_len)
    for v in range(1, g.n):
        if (v - 1) % path_len:  # v is not its parent's first child
            g.add_edge(v - 1, v)
    g.family = "leveled"
    return g


def check_3tree(g: Graph) -> int | None:
    """None if decreasing vertex index is a perfect elimination order whose
    earlier neighbourhoods are cliques of size <= 3 (certifying treewidth
    <= 3); otherwise the first failing vertex.  Every stacked triangulation
    numbers a vertex after the face it goes into, so this reads the
    numbering, not the construction log."""
    for v in range(g.n - 1, -1, -1):
        earlier = [u for u in g.adj[v] if u < v]
        if len(earlier) > 3:
            return v
        for a in range(len(earlier)):
            for b in range(a + 1, len(earlier)):
                if not g.has_edge(earlier[a], earlier[b]):
                    return v
    return None


# the witness builders only read the rounds, so they share one build per count
_shared_rounds = functools.lru_cache(maxsize=8)(_stack_rounds)


def fan_witness(i: int, edge: tuple[int, int], t: int) -> list[int]:
    """t vertices outside the i-th stacked triangulation, forming a path in the
    (i+t)-th one, each adjacent to both endpoints of the given edge.  Built by
    stacking into the face spanned by the edge and the previous witness."""
    if i < 0 or t < 1:
        raise ValueError("need i >= 0 and t >= 1")
    x, y = edge
    _, round_maps = _shared_rounds(i + t)
    # first step: least third vertex among the level-i faces (the ones round i
    # subdivides) containing the edge; two vertices share one only along an edge
    thirds = [v for f in round_maps[i] if x in f and y in f for v in f if v not in (x, y)]
    if x == y or not thirds:
        raise ValueError(f"edge {edge} not in the level-{i} triangulation")
    prev = min(thirds)
    witnesses = []
    for r in range(i, i + t):
        v = round_maps[r][frozenset((x, y, prev))]
        witnesses.append(v)
        prev = v
    return witnesses


def u_witness(i: int, x: int, t: int) -> dict[int, int]:
    """A copy of the t-th outerplanar family graph inside the (i+t+2)-th
    stacked triangulation, disjoint from the i-th one, with every copy vertex
    adjacent to x; returned as the template -> host map.  Built by stacking:
    two fan witnesses of an edge at x span a face with x, and each later round
    puts a vertex into every face (x, p, q) between consecutive hosts, so the
    hosts run along U_t's path numbering."""
    if i < 0 or t < 0:
        raise ValueError("need i >= 0 and t >= 0")
    if not 0 <= x < 2 * 3**i + 2:
        raise ValueError(f"vertex {x} not in the level-{i} triangulation")
    big, round_maps = _shared_rounds(i + t + 2)
    # later rounds number their vertices after G_i's: x's least neighbour is in G_i
    hosts = fan_witness(i, (x, big.adj[x][0]), 2)
    for r in range(i + 2, i + t + 2):
        inserted = round_maps[r]
        nxt = [hosts[0]]
        for p, q in zip(hosts, hosts[1:]):
            nxt += [inserted[frozenset((x, p, q))], q]
        hosts = nxt
    mapping = dict(enumerate(hosts))
    for u, v in outerplanar_U(t).edges():
        if not big.has_edge(mapping[u], mapping[v]):
            raise RuntimeError(f"witness mapping sends template edge ({u}, {v}) to a non-edge")
    return mapping


def _complete(adj, colors, v: int, seq: list[int], h: int) -> bool:
    """Is there an off-path walk from v reading seq[h-1], ..., seq[L-h]?  The
    walk marks its own vertices as on the path (color -1) and restores them
    before it returns, found or not, so the caller's walk may go on after a hit."""
    walk: list[int] = []
    stack = [iter(adj[v])]
    while stack:
        want = seq[h - 1 - len(walk)]
        for u in stack[-1]:
            if colors[u] == want:
                break
        else:
            stack.pop()
            if walk:
                w = walk.pop()
                colors[w] = seq[h - 1 - len(walk)]
            continue
        if len(seq) + len(walk) + 1 == 2 * h:
            for i, w in enumerate(walk):
                colors[w] = seq[h - 1 - i]
            return True
        walk.append(u)
        colors[u] = -1
        stack.append(iter(adj[u]))
    return False


def _square_through_vertex(g: Graph, colors: list[int], v: int, k: int, pmax: int, cands) -> set[int]:
    """The colors c in cands for which, with v colored c, some simple path
    through v over the colored vertices (colors[u] >= 0) reads a color square
    of period h with k <= h <= pmax (one spans 2h colored vertices, so pmax
    past half their count is moot).  v's entry is never read as a color: the
    walk marks each path vertex, v too, as -1 in colors, and restores every
    entry before it returns, found or not.

    Read a square path x_0, ..., x_{2h-1} through v = x_j from the end that
    puts v in its second half (j >= h).  Then R = x_j, x_{j-1}, ..., x_0, the
    part from v back to the start, holds the whole first half, and with
    L = |R| (h < L <= 2h) the path is a square exactly when
      - R has period h: in the terms of `repetitions`, the match run at
        period h ending at R's tail is L - h, that is, it never broke; and
      - the 2h - L vertices past v read the fixed colors
        R[h-1], R[h-2], ..., R[L-h].
    Only the run's first match, R[h] == R[0], reads v's color, so one walk
    decides every candidate (forward checking).  It grows R out of v (an
    explicit stack of neighbour iterators) and keeps the periods still alive
    at each depth: appending a vertex keeps an alive h when its color equals
    R[L-h] (the run grows by one; otherwise it drops to 0 and h dies for
    good), and makes h = L alive when k <= L <= pmax and the color R[h] is a
    candidate not yet decided; R[h] is h's tag, the color v must have.  An
    alive h with 2h == L is a square; any other alive h is completed by a
    narrow walk from v that follows only off-path neighbours of the next
    required color, if a neighbour of v other than R[1] has the color R[h-1]
    (so never at a vertex with one colored neighbour).  A square decides its
    tag, and the alive periods with that tag are dropped.  The walk returns
    once every candidate is decided.  R grows only by a vertex that keeps or
    starts a period, or while it stays short enough (L <= pmax) for a later
    period to join.
    """
    if k > pmax or not cands:
        return set()
    undecided = set(cands)
    adj = g.adj
    seq = [colors[v]]  # R's colors; seq[0] only keeps v's entry for the restore
    colors[v] = -1
    stack = [(v, iter(adj[v]), [])]  # per path vertex: neighbours left, alive periods
    while stack:
        _, nbrs, alive = stack[-1]
        L = len(seq)
        # the next vertex keeps or starts a period, or leaves R short enough
        # for a later one to join (k <= pmax here)
        for u in nbrs:
            c = colors[u]
            if c < 0:
                continue
            # an alive h has 2h > L: at 2h == L it was a square
            grown = [h for h in alive if seq[L - h] == c] if alive else []
            if k <= L <= pmax and c in undecided:
                grown.append(L)
            if grown or L < pmax:
                break
        else:
            colors[stack.pop()[0]] = seq.pop()
            continue
        seq.append(c)
        colors[u] = -1
        L += 1
        if L == 2:
            # R[1] is chosen: a completion walk starts by another neighbour
            firsts = set(map(colors.__getitem__, adj[v]))
        for h in grown:
            # the tag test follows the hit: grown holds undecided tags but
            # for one decided earlier in this loop, so it rarely fails
            if (
                2 * h == L or seq[h - 1] in firsts and _complete(adj, colors, v, seq, h)
            ) and seq[h] in undecided:
                tag = seq[h]
                undecided.discard(tag)
                if not undecided:
                    for (x, _, _), c in zip(stack, seq):
                        colors[x] = c
                    colors[u] = seq[-1]
                    return set(cands)
                stack = [(x, it, [p for p in ps if seq[p] != tag]) for x, it, ps in stack]
                grown = [p for p in grown if seq[p] != tag]
        stack.append((u, iter(adj[u]), grown))
    return set(cands) - undecided


def _tail_square(seq, m: int, lo: int, hi: int) -> int | None:
    """The least period p in [lo, hi] of a square ending at index m of seq,
    i.e. whose match run ending at m reaches p, or None.  Each run is
    counted backward from m, and only up to p; callers keep 1 <= lo and
    2 * hi <= m + 1, so that every square in range fits."""
    x = seq[m]
    for p in range(lo, hi + 1):
        if seq[m - p] == x:
            j, stop = m - 1, m - p
            while j > stop and seq[j] == seq[j - p]:
                j -= 1
            if j == stop:
                return p
    return None


def _swept_square(g: Graph, colors, k: int, max_path: int) -> bool:
    """Does some path of at most max_path vertices read a color square of
    period >= k?  The sweep reveals the colors in decreasing vertex index and
    asks the kernel at each vertex v whether a square path of period
    k..min(max_path, revealed count) // 2 runs through v over the revealed
    vertices.  It is exact for any reveal order: the last revealed vertex of a
    square path lies on it; and a path of at most max_path vertices holds a
    square of period >= k exactly when a square path of 2h <= max_path
    vertices with h >= k exists.

    The order sets the cost: the kernel at v walks every short path out of
    v.  Every family built here numbers a vertex after the ones it hangs
    from (a tree parent, the face a stacked vertex goes into), so revealed
    from the highest index down, a tree path is last revealed at its top,
    and the kernel walks only downward paths, at most n of each length;
    increasing order would also walk every path that climbs and then
    descends into an earlier subtree.
    """
    revealed = [-1] * g.n
    for v in range(g.n - 1, -1, -1):
        # g.n - v vertices are revealed, v among them
        if _square_through_vertex(g, revealed, v, k, min(max_path, g.n - v) // 2, (colors[v],)):
            return True
        revealed[v] = colors[v]
    return False


def verify_coloring(
    g: Graph, coloring: Coloring, k: int, max_path: int
) -> tuple[tuple[int, ...], Repetition] | None:
    """None if no simple path with at most max_path vertices induces a color
    square of period >= k; otherwise the lexicographically least violating path
    with the (smallest-period) repetition ending at its last vertex.

    Exhaustive whenever max_path >= g.n.  None at once if max_path or g.n is
    below 2k, where no square of period >= k fits; else one lexicographic
    path DFS, whose extensions each ask only whether a square ends at the new
    tail (`_tail_square`), in two steps: (1) the probe, its first g.n
    extensions, returns the verdict it reaches; (2) past them the sweep
    (`_swept_square`) decides once, and on a violation the same DFS goes on
    to name the least violating path: the first it meets, as it walks each
    vertex's neighbours in g.adj's increasing order.
    """
    if k < 1 or max_path < 1:
        raise ValueError("need k >= 1 and max_path >= 1")
    if len(coloring.colors) != g.n:
        raise ValueError("coloring size mismatch")
    if max_path < 2 * k or g.n < 2 * k:
        return None
    colors = coloring.colors
    pmax = max_path // 2
    adj = g.adj
    stop = g.n + 1  # the first extension past the probe; 0 once swept
    visited_paths = 0
    on_path = [False] * g.n
    for start in range(g.n):
        # an explicit stack of neighbour iterators, one per path vertex, so
        # long paths do not recurse; unwinding it clears on_path again
        path = [start]
        seq = [colors[start]]
        on_path[start] = True
        nbrs = iter(adj[start])
        stack = [nbrs]
        while True:
            for u in nbrs:
                if not on_path[u]:
                    break
            else:
                on_path[path.pop()] = False
                seq.pop()
                stack.pop()
                if not stack:
                    break
                nbrs = stack[-1]
                continue
            m = len(path)
            path.append(u)
            seq.append(colors[u])
            on_path[u] = True
            visited_paths += 1
            if visited_paths == stop:
                if not _swept_square(g, colors, k, max_path):
                    return None
                stop = 0  # counts only grow: never reached again
            hi = (m + 1) // 2  # the longest period of a square ending at m
            if hi >= k:
                p = _tail_square(seq, m, k, hi if hi < pmax else pmax)
                if p is not None:
                    return tuple(path), Repetition(m - 2 * p + 1, 2 * p, p)
            if m + 1 < max_path:
                nbrs = iter(adj[u])
                stack.append(nbrs)
            else:
                on_path[u] = False
                path.pop()
                seq.pop()
    return None
