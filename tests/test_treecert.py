"""Tests for the tree-coloring certificate machinery, including differential
validation of the center-crossing scan against a naive palindromic scan that
compares slices of every branch word, and of the packed pass over many images
against the per-image checks."""

import json
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nonrep.words import (G2, G5, Morphism, PowerFreeSpec, apply_morphism, generate_powerfree_ternary,
                          iter_powerfree_ternary)
from nonrep import treecert
from nonrep.repetitions import Repetition, find_squares, is_power_free
from nonrep.treecert import (
    BranchCheckSpec,
    ConfigurationError,
    MorphismStructure,
    _Packed,
    _chunks,
    _dynamic_periods,
    _scan_image_centers,
    analyze_morphism_structure,
    build_level_tree,
    certify_morphic_tree_coloring,
    directedness_threshold,
)
from nonrep.graphs import verify_coloring

G2_SPEC = BranchCheckSpec(2, PowerFreeSpec(Fraction(19, 10), min_period=2), 3)
G5_SPEC = BranchCheckSpec(5, PowerFreeSpec(Fraction(83, 42), min_period=5), 20)


def test_directedness_threshold_examples():
    assert directedness_threshold(Fraction(19, 10), 3) == 20
    assert directedness_threshold(Fraction(83, 42), 20) == 798
    assert directedness_threshold(Fraction(1), 2) == 1
    with pytest.raises(ValueError):
        directedness_threshold(Fraction(2), 3)
    with pytest.raises(ValueError):
        directedness_threshold(Fraction(19, 10), 0)


def test_directedness_threshold_is_least_satisfying_p():
    # p* is the least p with (2 - beta) * p + 1 >= d, scanning p = 1..1000
    for beta, d in ((Fraction(19, 10), 3), (Fraction(83, 42), 20), (Fraction(3, 2), 7)):
        p_star = directedness_threshold(beta, d)
        sat = [p for p in range(1, 1001) if (2 - beta) * p + 1 >= d]
        assert sat and sat[0] == p_star


def slice_squares(w, lo, hi):
    """(start, period) of every square in w with period in [lo, hi], in
    (start, period) order, found by comparing slices."""
    return [
        (start, p)
        for start in range(len(w))
        for p in range(lo, min(hi, (len(w) - start) // 2) + 1)
        if w[start : start + p] == w[start + p : start + 2 * p]
    ]


def branch_palindrome_scan(w: str, k: int, pmax: int):
    """Naive reference scan: for each center i, search w[:i+1] + reverse(w[:i])
    for a square of period in [k, pmax] that crosses the center (starts at or
    before index i and ends strictly after it).  Returns (center, Repetition)
    for the first hit, with the repetition located in the palindromic branch
    word, or None."""
    if not 1 <= k <= pmax:
        raise ValueError("need 1 <= k <= pmax")
    for i in range(len(w)):
        branch = w[: i + 1] + w[:i][::-1]
        for start, p in slice_squares(branch, k, pmax):
            if start <= i < start + 2 * p - 1:
                return i, Repetition(start, 2 * p, p)
    return None


def test_branch_palindrome_scan_examples():
    assert branch_palindrome_scan("01", 1, 1) is None
    hit = branch_palindrome_scan("00", 1, 1)
    assert hit is not None
    center, rep = hit
    assert rep.period == 1
    with pytest.raises(ValueError):
        branch_palindrome_scan("01", 2, 1)


def test_branch_scan_all_g2_images_clean():
    # every palindromic branch word over every image of a threshold-free
    # length-8 source word is square-free for periods 2..19
    for src in iter_powerfree_ternary(8):
        assert branch_palindrome_scan(apply_morphism(G2, src), 2, 19) is None


def naive_crossing_square(w: str, periods) -> bool:
    """Exists a center i and period p such that the palindromic branch word
    w[:i+1] + reverse(w[:i]) has a square of period p ending 1..p symbols past
    the center."""
    for i in range(len(w)):
        branch = w[: i + 1] + w[:i][::-1]
        for start, p in slice_squares(branch, min(periods), max(periods)):
            if p in periods and 1 <= start + 2 * p - 1 - i <= p:
                return True
    return False


def test_scan_image_centers_exhaustive_binary():
    periods = list(range(1, 5))
    for length in range(0, 11):
        for tw in product("01", repeat=length):
            w = "".join(tw)
            got = _scan_image_centers(w, periods)
            want = naive_crossing_square(w, set(periods))
            assert (got is not None) == want, w
            if got is not None:
                i, delta, rep = got
                branch = w[: i + 1] + w[:i][::-1]
                assert (
                    branch[rep.start : rep.start + rep.period]
                    == branch[rep.start + rep.period : rep.start + rep.length]
                )
                assert rep.start + rep.length - 1 - i == delta
                assert 1 <= delta <= rep.period


@settings(max_examples=300)
@given(st.text(alphabet="012", max_size=60), st.integers(1, 8), st.integers(0, 8))
def test_scan_image_centers_random(w, lo, extra):
    periods = list(range(lo, lo + extra + 1))
    got = _scan_image_centers(w, periods)
    assert (got is not None) == naive_crossing_square(w, set(periods))


def least_crossing_square(w: str, periods):
    """The hit _scan_image_centers must name, by slice comparison on branch
    words: the first period in order, then the least center i, then the least
    delta in 1..p with a square of that period ending delta symbols past i in
    w[:i+1] + reverse(w[:i])."""
    for p in periods:
        for i in range(len(w)):
            branch = w[: i + 1] + w[:i][::-1]
            for delta in range(1, min(p, i) + 1):
                start = i + delta - 2 * p + 1
                if start >= 0 and branch[start : start + p] == branch[start + p : i + delta + 1]:
                    return i, delta, Repetition(start, 2 * p, p)
    return None


@st.composite
def long_images(draw):
    """Words of 60-200 symbols, past the 64- and 128-bit boundaries of the
    masks, built from repeated and mirrored chunks so that crossing squares
    of many periods occur."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    n = draw(st.integers(60, 200))
    w = ""
    while len(w) < n:
        chunk = draw(st.text(alphabet, min_size=1, max_size=30))
        w += draw(st.sampled_from([chunk, chunk * 2, chunk + chunk[::-1]]))
    return w[:n]


@settings(max_examples=60, deadline=None)
@given(long_images(), st.integers(1, 60), st.integers(0, 12))
def test_scan_image_centers_matches_slices_on_long_images(w, lo, extra):
    periods = list(range(lo, lo + extra + 1))
    assert _scan_image_centers(w, periods) == least_crossing_square(w, periods)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(iter_powerfree_ternary(9))),
    st.integers(120, 189),
    st.text(alphabet="01", max_size=40),
    st.integers(5, 30),
    st.integers(0, 12),
)
def test_scan_image_centers_hits_past_128_bits(src, cut, tail, lo, extra):
    # a g5 image has no crossing square of period >= 5, so every hit lies at
    # a center in the tail, past bit 120 of the masks
    w = apply_morphism(G5, src)[:cut] + tail
    periods = list(range(lo, lo + extra + 1))
    assert _scan_image_centers(w, periods) == least_crossing_square(w, periods)


def test_morphism_structure_g2():
    st2 = analyze_morphism_structure(G2)
    assert st2.width == 12 and st2.distinct
    assert st2.shifted_window_hits == ()
    assert (st2.lcp_max, st2.lcs_max, st2.solo_run_max) == (0, 0, 0)
    assert st2.misaligned_run_bound() == 22
    assert st2.run_bound(13) == 22
    assert st2.run_bound(12) == 0  # one aligned block pair, images disagree everywhere
    assert st2.run_bound(48) == 36  # floor(3*4/4) = 3 full blocks


def test_morphism_structure_g5():
    st5 = analyze_morphism_structure(G5)
    assert st5.width == 21 and st5.distinct
    assert st5.shifted_window_hits == ()
    # common prefix of images 1 and 2 is 16 symbols; common suffix pairs are
    # short; both recomputed here by direct comparison
    lcp = max(
        len_common_prefix(a, b) for a in G5.images for b in G5.images if a != b
    )
    lcs = max(
        len_common_prefix(a[::-1], b[::-1]) for a in G5.images for b in G5.images if a != b
    )
    assert (st5.lcp_max, st5.lcs_max) == (lcp, lcs) == (16, 3)
    assert st5.solo_run_max == 16
    assert st5.misaligned_run_bound() == 40


def len_common_prefix(a, b):
    n = 0
    while n < len(a) and a[n] == b[n]:
        n += 1
    return n


def test_run_bound_is_sound_on_enumerated_images():
    # actual match runs inside images never exceed the structural bound
    st2 = analyze_morphism_structure(G2)
    for src in iter_powerfree_ternary(6):
        img = apply_morphism(G2, src)
        for p in range(1, 40):
            run = 0
            best = 0
            for j in range(p, len(img)):
                run = run + 1 if img[j] == img[j - p] else 0
                best = max(best, run)
            assert best <= st2.run_bound(p), (src, p)


def test_certify_g2():
    cert = certify_morphic_tree_coloring(G2, G2_SPEC, 8, "g2")
    assert cert.passed and cert.p_star == 20
    assert cert.factor_len == 8 and cert.covered_window == 84
    names = [c.name for c in cert.checks]
    assert names == ["image-freeness", "directedness", "threshold", "center-scan"]
    scan = cert.checks[3]
    assert scan.params["pmax"] == 19
    assert set(scan.params["dynamic_crossing_periods"]) <= set(range(2, 20))


def test_certificate_json():
    cert = certify_morphic_tree_coloring(G2, G2_SPEC, 8, "g2")
    doc = json.loads(cert.to_json())
    assert doc["beta"] == "19/10"
    assert doc["passed"] is True
    assert doc["p_star"] == 20
    assert doc["images"] == list(G2.images)
    # keys are sorted in the serialized form
    text = cert.to_json()
    top_keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert top_keys == sorted(top_keys)


def test_certify_constant_morphism_fails_freeness():
    const = Morphism(("0", "0", "0"))
    spec = BranchCheckSpec(1, PowerFreeSpec(Fraction(19, 10), min_period=1), 2)
    cert = certify_morphic_tree_coloring(const, spec, 4, "const")
    assert not cert.passed
    assert not cert.checks[0].passed
    assert cert.checks[0].counterexample["repetition"]["period"] == 1


def test_certify_factor_len_too_small():
    with pytest.raises(ConfigurationError) as exc:
        certify_morphic_tree_coloring(G2, G2_SPEC, 3)
    assert exc.value.min_factor_len == 5
    # the reported minimum is itself admissible
    cert = certify_morphic_tree_coloring(G2, G2_SPEC, exc.value.min_factor_len)
    assert cert.passed


@pytest.mark.parametrize("m", [G2, G5], ids=["g2", "g5"])
def test_crossing_periods_are_those_the_run_bound_leaves_open(m, monkeypatch):
    # the certificate checks directly exactly the periods in [k, p*) whose
    # structural run bound reaches p - (d - 1); an empty enumeration keeps the
    # certificate to its period lists
    monkeypatch.setattr(treecert, "iter_powerfree_ternary", lambda length: iter(()))
    structure = analyze_morphism_structure(m)
    for beta in (Fraction(3, 2), Fraction(7, 4), Fraction(19, 10), Fraction(83, 42)):
        for k in range(1, 7):
            for d in range(1, 25):
                p_star = directedness_threshold(beta, d)
                want = [p for p in range(k, p_star) if structure.run_bound(p) >= p - (d - 1)]
                opened = _dynamic_periods(structure, k, lambda p: p - (d - 1), 1)
                assert [p for p in opened if p < p_star] == want, (beta, k, d)
                spec = BranchCheckSpec(k, PowerFreeSpec(beta, min_period=k), d)
                if beta <= Fraction(7, 4):
                    # freeness bounds need beta > 7/4: no minimal factor length
                    with pytest.raises(ConfigurationError):
                        certify_morphic_tree_coloring(m, spec)
                    continue
                doc = json.loads(certify_morphic_tree_coloring(m, spec).to_json())
                assert doc["checks"][3]["params"]["dynamic_crossing_periods"] == want


def test_branch_check_spec_invariants():
    with pytest.raises(ValueError):
        BranchCheckSpec(0, PowerFreeSpec(Fraction(19, 10)), 3)
    with pytest.raises(ValueError):
        BranchCheckSpec(3, PowerFreeSpec(Fraction(19, 10)), 0)


def _images(alphabet):
    return st.integers(1, 4).flatmap(
        lambda w: st.lists(st.text(alphabet=alphabet, min_size=w, max_size=w), min_size=3, max_size=3)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["01", "012"]).flatmap(_images),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(2, 5),
    st.sampled_from([Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(19, 10)]),
)
def test_center_scan_image_squares_oracle(images, k, n, d, factor_len, beta):
    # the image-square part of center-scan against slice comparison on every
    # enumerated image: none when the check passes, and otherwise the least
    # (start, period) square of the first image that has one
    m = Morphism(tuple(images))
    spec = BranchCheckSpec(k, PowerFreeSpec(beta, min_period=n), d)
    try:
        cert = certify_morphic_tree_coloring(m, spec, factor_len)
    except ConfigurationError:
        return
    scan = cert.checks[3]
    imgs = [apply_morphism(m, src) for src in iter_powerfree_ternary(factor_len)]
    squares = [slice_squares(img, k, len(img) // 2) for img in imgs]
    if scan.passed:
        assert not any(squares)
    elif "center" not in scan.counterexample:
        first = next(i for i, sq in enumerate(squares) if sq)
        rep = scan.counterexample["repetition"]
        assert scan.counterexample["image"] == imgs[first]
        assert (rep["start"], rep["period"]) == squares[first][0]


def test_build_level_tree_examples():
    g, coloring = build_level_tree("012", 2, 1)
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]
    # leaf-to-root colors spell the word
    assert [coloring.colors[v] for v in (2, 1, 0)] == [0, 1, 2]
    g0, c0 = build_level_tree("012", 0, 1)
    assert g0.n == 1 and c0.colors == (0,)
    with pytest.raises(ValueError):
        build_level_tree("01", 2, 1)


def test_level_tree_small_oracle():
    # depth-6 binary tree colored through g2 has no squares of period >= 2
    word = apply_morphism(G2, "010")
    g, coloring = build_level_tree(word, 6, 2)
    assert verify_coloring(g, coloring, 2, 13) is None


# ---------------------------------------------------------------------------
# the packed pass over many images against the per-image checks


@st.composite
def equal_length_words(draw):
    """A list of words of one length L in 8..200, each random or a repeated
    block with a few symbols changed, so that every check has hits."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    length = draw(st.integers(8, 200))
    words = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            words.append(draw(st.text(alphabet, min_size=length, max_size=length)))
            continue
        block = draw(st.text(alphabet, min_size=1, max_size=12))
        w = list((block * length)[:length])
        for i in draw(st.lists(st.integers(0, length - 1), max_size=3)):
            w[i] = draw(st.sampled_from(alphabet))
        words.append("".join(w))
    return words


def packed_flags(words, hits_of):
    """The indices of the words a packed pass flags, chunk by chunk, after
    checking that no hit lies in a gap and that `first` names the least."""
    flagged = []
    offset = 0
    for chunk in _chunks(words, len(words[0])):
        packed = _Packed(chunk)
        hits = hits_of(packed)
        assert hits & ~packed.everywhere == 0
        block = (1 << packed.stride) - 1
        mine = [j for j in range(len(chunk)) if (hits >> (j * packed.stride)) & block]
        assert packed.first(hits) == (mine[0] if mine else None)
        flagged += [offset + j for j in mine]
        offset += len(chunk)
    return flagged


@settings(max_examples=150, deadline=None)
@given(
    equal_length_words(),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(7, 4), Fraction(19, 10), Fraction(83, 42)]),
    st.booleans(),
    st.integers(1, 8),
    st.integers(1, 40),
    st.integers(0, 12),
    st.sampled_from([0, 1, 3]),
)
def test_packed_pass_flags_the_words_each_check_fails(words, beta, strict, n, lo, extra, per_chunk):
    # per_chunk 1 or 3 packs the list into several chunks; 0 keeps the
    # module's chunk size
    length = len(words[0])
    strict = strict or beta == 1
    spec = PowerFreeSpec(beta, min_period=n, strict=strict)
    lo = min(lo, length // 2)
    hi = min(lo + extra, length // 2)
    periods = list(range(lo, min(lo + extra, length) + 1))
    bits = 2 * length * per_chunk or treecert._PACK_BITS
    with mock.patch.object(treecert, "_PACK_BITS", bits):
        free = packed_flags(words, lambda pk: pk.free_hits(spec))
        squares = packed_flags(words, lambda pk: pk.square_hits(lo, hi))
        scan = packed_flags(words, lambda pk: pk.scan_hits(periods))
    assert free == [i for i, w in enumerate(words) if is_power_free(w, spec) is not None]
    assert squares == [i for i, w in enumerate(words) if find_squares(w, lo, hi)]
    assert scan == [i for i, w in enumerate(words) if _scan_image_centers(w, periods) is not None]


def test_packed_pass_past_one_chunk_of_the_module_size():
    # 170 windows of 200 symbols of a g5 image do not fit in one chunk.  A
    # g5 image has no square of period >= 5, so planting one of period 6
    # past bit 128 of every tenth window makes exactly those fail freeness
    # and the squares of periods 5..8, and gives them crossing squares
    image = apply_morphism(G5, generate_powerfree_ternary(100))
    words = []
    for i in range(170):
        w = image[7 * i : 7 * i + 200]
        words.append(w[:150] + w[150:156] * 2 + w[162:] if i % 10 == 3 else w)
    assert len(list(_chunks(words, 200))) == 2
    planted = list(range(3, 170, 10))
    spec = PowerFreeSpec(Fraction(83, 42), min_period=5)
    assert packed_flags(words, lambda pk: pk.free_hits(spec)) == planted
    assert packed_flags(words, lambda pk: pk.square_hits(5, 8)) == planted
    periods = range(5, 30)
    scan = packed_flags(words, lambda pk: pk.scan_hits(periods))
    assert scan == [i for i, w in enumerate(words) if _scan_image_centers(w, periods) is not None]
    assert scan == planted


def failing_checks(doc):
    return {c["name"]: c["counterexample"] for c in doc["checks"] if not c["passed"]}


# the failing certificates of the benchmark, with their counterexamples as
# the per-image loop named them: (morphism, k, beta, n, d, factor_len)
PINNED_FAILURES = [
    ((G2, 1, Fraction(19, 10), 2, 3, 8), "center-scan",
     {"source": "01020120", "center": 2, "delta": 1, "repetition": (2, 2, 1)}),
    ((G2, 2, Fraction(3, 2), 2, 3, 8), "image-freeness",
     {"source": "01020120", "repetition": (0, 18, 10)}),
    ((G2, 2, Fraction(19, 10), 2, 2, 8), "directedness", {"factor": "00", "reversal": "00"}),
    ((G5, 5, Fraction(7, 4), 5, 20, 9), "image-freeness",
     {"source": "010201202", "repetition": (0, 79, 42)}),
    ((G5, 5, Fraction(83, 42), 5, 10, None), "directedness",
     {"factor": "0001001101", "reversal": "1011001000"}),
]


@pytest.mark.parametrize("args, name, want", PINNED_FAILURES,
                         ids=["g2-k1", "g2-beta3/2", "g2-d2", "g5-beta7/4", "g5-d10"])
def test_failing_certificates_pinned(args, name, want):
    m, k, beta, n, d, factor_len = args
    spec = BranchCheckSpec(k, PowerFreeSpec(beta, min_period=n), d)
    doc = json.loads(certify_morphic_tree_coloring(m, spec, factor_len).to_json())
    failing = failing_checks(doc)
    assert list(failing) == [name]
    got = dict(failing[name])
    got.pop("image", None)
    if "repetition" in got:
        rep = got["repetition"]
        got["repetition"] = (rep["start"], rep["length"], rep["period"])
    assert got == want


# ---------------------------------------------------------------------------
# the dynamic-period walk against the one-period-at-a-time loop


def stepwise_dynamic_periods(st_, lo, needed, slope):
    """The walk as it was before misaligned periods were skipped: every
    period is visited and its run bound compared with needed(p)."""
    slope = Fraction(slope)
    if slope <= Fraction(3, 4):
        raise ConfigurationError("slope")
    window = 8 * st_.width * slope.denominator
    out, streak, p = [], 0, lo
    while streak < window:
        rb = st_.run_bound(p)
        if rb is None:
            raise ConfigurationError("bounds")
        if rb >= needed(p):
            out.append(p)
            streak = 0
        else:
            streak += 1
        p += 1
    return out


def walks(structure, spec):
    """Both walks on the three period families the certificate derives from
    spec, each as its list or the message of the error it raised first."""
    k, d = spec.k, spec.directed_d
    free = spec.free_spec
    families = [
        (free.min_period, lambda p: free.violation_length(p) - p, free.exponent_bound - 1),
        (k, lambda p: p, Fraction(1)),
        (k, lambda p: p - (d - 1), Fraction(1)),
    ]
    results = []
    for walk in (_dynamic_periods, stepwise_dynamic_periods):
        got = []
        for lo, needed, slope in families:
            try:
                got.append(walk(structure, lo, needed, slope))
            except ConfigurationError as exc:
                got.append("slope" if "slope" in str(exc) else "bounds")
                break
        results.append(got)
    return results


# (morphism, k, beta, n, d) of every certificate the benchmark runs
BENCH_SPECS = [
    (G2, 2, Fraction(19, 10), 2, 3), (G2, 1, Fraction(19, 10), 2, 3), (G2, 2, Fraction(3, 2), 2, 3),
    (G2, 2, Fraction(19, 10), 2, 2), (G2, 2, Fraction(2), 2, 3), (G5, 5, Fraction(83, 42), 5, 20),
    (G5, 5, Fraction(7, 4), 5, 20), (G5, 5, Fraction(83, 42), 5, 10),
]


@pytest.mark.parametrize("m, k, beta, n, d", BENCH_SPECS)
def test_dynamic_periods_match_the_stepwise_walk(m, k, beta, n, d):
    structure = analyze_morphism_structure(m)
    new, old = walks(structure, BranchCheckSpec(k, PowerFreeSpec(beta, min_period=n), d))
    assert new == old


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(0, 60),
    st.booleans(),
    st.booleans(),
    st.integers(1, 12),
    st.integers(1, 6),
    st.sampled_from([Fraction(7, 4), Fraction(9, 5), Fraction(19, 10), Fraction(83, 42), Fraction(2)]),
    st.integers(1, 25),
)
def test_dynamic_periods_match_the_stepwise_walk_on_any_structure(
        width, run_max, distinct, hits, k, n, beta, d):
    # structures with and without bounds, including widths of 1 (no
    # misaligned periods) and shifted-window hits (no misaligned bound)
    structure = MorphismStructure(width, distinct, ((0, 0, 1),) if hits else (),
                                  run_max // 3, run_max // 2, run_max)
    spec = BranchCheckSpec(k, PowerFreeSpec(beta, min_period=n, strict=beta < 2), d)
    new, old = walks(structure, spec)
    assert new == old
