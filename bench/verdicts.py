"""Independent re-checks of nonrep verdicts.

Everything here uses plain slice comparisons and the benchmark's own copy of
the published morphism tables; nothing calls into nonrep, so a wrong verdict
cannot be confirmed by the code that produced it.  Each check raises
VerdictMismatch with a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import ceil

# independently transcribed 3x12 and 3x21 tables of the branch morphisms
TABLES = {
    "g2": ("011220012201", "122001120012", "200112201120"),
    "g5": (
        "001101110001010110010",
        "001101110001001110101",
        "001101110001001101010",
    ),
}


class VerdictMismatch(Exception):
    """The program's verdict or its evidence disagrees with the re-check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise VerdictMismatch(message)


def image(morphism: str, source: str) -> str:
    return "".join(TABLES[morphism][int(c)] for c in source)


def threshold_free(w: str) -> bool:
    """No factor of w has exponent above 7/4."""
    n = len(w)
    for p in range(1, n):
        for i in range(n - p):
            j = i + p
            while j < n and w[j] == w[j - p]:
                j += 1
            if 4 * (j - i) > 7 * p:
                return False
    return True


def has_square(seq, k: int) -> bool:
    """Some factor of seq is a square xx with |x| >= k."""
    n = len(seq)
    for p in range(k, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if seq[i] == seq[i + p] and seq[i : i + p] == seq[i + p : i + 2 * p]:
                return True
    return False


def _square_at(seq, start: int, period: int) -> bool:
    return (
        0 <= start
        and start + 2 * period <= len(seq)
        and seq[start : start + period] == seq[start + period : start + 2 * period]
    )


def _rep_fields(rep: dict) -> tuple[int, int, int]:
    start, length, period = rep["start"], rep["length"], rep["period"]
    e = Fraction(length, period)
    expect(rep["exponent"] == f"{e.numerator}/{e.denominator}", f"exponent field {rep['exponent']} is not {e}")
    return start, length, period


def _check_image(doc: dict, cx: dict) -> str:
    src, img = cx["source"], cx["image"]
    expect(len(src) == doc["factor_len"], "counterexample source has the wrong length")
    expect(threshold_free(src), f"counterexample source {src} is not 7/4+-free")
    expect(image(doc["morphism"], src) == img, "counterexample image is not the image of its source")
    return img


def _check_freeness(doc: dict, cx: dict) -> None:
    img = _check_image(doc, cx)
    start, length, period = _rep_fields(cx["repetition"])
    beta = Fraction(doc["beta"])
    expect(
        start + length <= len(img) and img[start : start + length - period] == img[start + period : start + length],
        "freeness counterexample is not a repetition of the image",
    )
    expect(period >= doc["n"], "freeness counterexample period below n")
    expect(Fraction(length, period) > beta, "freeness counterexample does not exceed beta")


def _check_directedness(doc: dict, cx: dict) -> None:
    f, r = cx["factor"], cx["reversal"]
    width = len(TABLES[doc["morphism"]][0])
    expect(len(f) == doc["d"] and r == f[::-1], "directedness counterexample is not a length-d factor and its reversal")
    # a factor of length <= width + 1 lies inside the image of two distinct
    # consecutive source symbols, and every such pair occurs in a 7/4+-free word
    expect(doc["d"] <= width + 1, "directedness re-check needs d <= width + 1")
    pairs = [image(doc["morphism"], a + b) for a, b in permutations("012", 2)]
    for w in (f, r):
        expect(any(w in p for p in pairs), f"{w} occurs in no image")


def _check_center_scan(doc: dict, cx: dict) -> None:
    img = _check_image(doc, cx)
    start, length, period = _rep_fields(cx["repetition"])
    expect(length == 2 * period and period >= doc["k"], "center-scan counterexample is not a square of period >= k")
    if "center" not in cx:
        expect(_square_at(img, start, period), "square counterexample does not occur in the image")
        return
    i = cx["center"]
    branch = img[: i + 1] + img[:i][::-1]
    expect(_square_at(branch, start, period), "crossing square does not occur in the branch word")
    expect(start <= i < start + length - 1, "square does not cross the center")
    expect(start + length - 1 - i == cx["delta"], "delta field disagrees with the square")
    expect(period < doc["p_star"], "crossing square period not below p*")


_CX_CHECKS = {
    "image-freeness": _check_freeness,
    "directedness": _check_directedness,
    "center-scan": _check_center_scan,
}


def check_certificate(doc: dict, morphism: str, failing: tuple, p_star: int) -> None:
    """doc is the certificate JSON; failing names the checks expected to fail."""
    expect(doc["morphism"] == morphism and tuple(doc["images"]) == TABLES[morphism], "certificate morphism table differs")
    beta = Fraction(doc["beta"])
    expect(doc["p_star"] == p_star == ceil((doc["d"] - 1) / (2 - beta)), f"p* {doc['p_star']} != {p_star}")
    bad = tuple(c["name"] for c in doc["checks"] if not c["passed"])
    expect(bad == failing, f"failing checks {bad} != {failing}")
    expect(doc["passed"] == (not failing), "passed flag disagrees with the checks")
    for c in doc["checks"]:
        if c["passed"]:
            expect(c["counterexample"] is None, f"passing check {c['name']} carries a counterexample")
        else:
            _CX_CHECKS[c["name"]](doc, c["counterexample"])


def dynamic_period_count(doc: dict) -> int:
    params = {c["name"]: c["params"] for c in doc["checks"]}
    scan = params["center-scan"]
    return (
        len(params["image-freeness"]["dynamic_periods"])
        + len(scan["dynamic_crossing_periods"])
        + len(scan["dynamic_square_periods"])
    )


def check_word_violation(line: str, word: str, beta: Fraction, n: int) -> None:
    """line is `violation: start=S len=L period=P exp=a/b` from a
    non-strict freeness check of word."""
    expect(line.startswith("violation: "), f"unexpected output {line!r}")
    fields = dict(f.split("=") for f in line[len("violation: ") :].split())
    start, length, period = int(fields["start"]), int(fields["len"]), int(fields["period"])
    _rep_fields({"start": start, "length": length, "period": period, "exponent": fields["exp"]})
    expect(
        start + length <= len(word) and word[start : start + length - period] == word[start + period : start + length],
        "reported repetition does not occur in the word",
    )
    expect(period >= n and Fraction(length, period) >= beta, "reported repetition does not violate the spec")


def check_violating_path(path, rep, adjacent, colors, k: int) -> None:
    """path is a vertex tuple from the verifier and rep its repetition; the
    path must be simple, follow edges, and end in a color square of period
    >= k."""
    expect(len(set(path)) == len(path), "violating path is not simple")
    expect(all(adjacent(a, b) for a, b in zip(path, path[1:])), "violating path leaves the graph")
    seq = [colors[v] for v in path]
    p, start = rep.period, rep.start
    expect(rep.length == 2 * p and p >= k, "repetition is not a square of period >= k")
    expect(start + 2 * p == len(seq), "square does not end at the path tail")
    expect(_square_at(seq, start, p), "path colors do not read a square")


def tree_coloring_clean(adj, colors, k: int) -> bool:
    """No path of the tree given by adjacency lists reads a color square of
    period >= k.  Every path is a factor of a leaf-to-leaf path."""
    n = len(adj)
    leaves = [v for v in range(n) if len(adj[v]) <= 1]
    for a in leaves:
        parent = [-1] * n
        parent[a] = a
        order = [a]
        for v in order:
            for u in adj[v]:
                if parent[u] < 0:
                    parent[u] = v
                    order.append(u)
        for b in leaves:
            if b <= a:
                continue
            seq = [colors[b]]
            v = b
            while v != a:
                v = parent[v]
                seq.append(colors[v])
            if has_square(seq, k):
                return False
    return True
