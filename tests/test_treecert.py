"""Tests for the tree-coloring certificate machinery, including differential
validation of the center-crossing scan against a naive palindromic scan that
compares slices of every branch word, and of the packed pass over many images
against the per-image checks."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nonrep.words import (G2, G5, NAMED_MORPHISMS, Morphism, PowerFreeSpec, apply_morphism, factors,
                          generate_powerfree_ternary, iter_powerfree_ternary)
from nonrep import repetitions, treecert
from nonrep.repetitions import (Repetition, _match_mask, _match_table, _run_reaches, _violation_ends,
                                 find_squares, is_power_free)
from nonrep.treecert import (
    BranchCheckSpec,
    ConfigurationError,
    MorphismStructure,
    _Packed,
    _chunks,
    _crossing_centers,
    _dynamic_periods,
    _scan_image_centers,
    _image_windows,
    analyze_morphism_structure,
    build_level_tree,
    certify_morphic_tree_coloring,
    directedness_threshold,
)
from nonrep.graphs import verify_coloring
from test_cli import PINNED_CERTIFICATES

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
    assert st2.width == 12 and st2.distinct_images
    assert st2.shifted_window_hits == 0
    assert (st2.lcp_max, st2.lcs_max, st2.solo_run_max) == (0, 0, 0)
    assert st2.misaligned_run_bound() == 22
    assert st2.run_bound(13) == 22
    assert st2.run_bound(12) == 0  # one aligned block pair, images disagree everywhere
    assert st2.run_bound(48) == 36  # floor(3*4/4) = 3 full blocks


def test_morphism_structure_g5():
    st5 = analyze_morphism_structure(G5)
    assert st5.width == 21 and st5.distinct_images
    assert st5.shifted_window_hits == 0
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


def test_certify_refuses_a_table_past_the_width_budget(monkeypatch):
    # refused before the quadratic structure analysis runs; the widest
    # admitted table reaches it
    class Analysed(Exception):
        pass

    def analysed(m):
        raise Analysed

    monkeypatch.setattr(treecert, "analyze_morphism_structure", analysed)
    spec = BranchCheckSpec(1, PowerFreeSpec(Fraction(19, 10), min_period=1), 2)
    width = treecert._MAX_WIDTH
    assert width == 10_000
    with pytest.raises(Analysed):
        certify_morphic_tree_coloring(Morphism(("01" * (width // 2),) * 3), spec)
    with pytest.raises(ConfigurationError, match="width 10001: past the budget of 10000"):
        certify_morphic_tree_coloring(Morphism(("0" * (width + 1),) * 3), spec)


def test_certify_refuses_images_past_the_length_budget(monkeypatch):
    # a given factor_len, or one implied by d, is refused before the
    # structure analysis; one implied by the periods left open, after it
    class Analysed(Exception):
        pass

    def analysed(m):
        raise Analysed

    spec = BranchCheckSpec(1, PowerFreeSpec(Fraction(19, 10), min_period=1), 2)
    wide = Morphism(("01" * 5000,) * 3)
    assert treecert._MAX_IMAGE_LEN == 50_000
    with monkeypatch.context() as patch:
        patch.setattr(treecert, "analyze_morphism_structure", analysed)
        with pytest.raises(Analysed):
            certify_morphic_tree_coloring(wide, spec, factor_len=5)
        with pytest.raises(ConfigurationError, match="^factor_len 6: images of 60000 symbols, past the budget of 50000$"):
            certify_morphic_tree_coloring(wide, spec, factor_len=6)
        far = BranchCheckSpec(1, spec.free_spec, 45_000)
        with pytest.raises(ConfigurationError, match="need factor_len >= 6: images of 60000 symbols, past"):
            certify_morphic_tree_coloring(wide, far)
    # g5 at d = 10 needs factor_len 9, images of 189 symbols
    g5_d10 = BranchCheckSpec(5, PowerFreeSpec(Fraction(83, 42), min_period=5), 10)
    monkeypatch.setattr(treecert, "iter_powerfree_ternary", lambda length: iter(()))
    assert certify_morphic_tree_coloring(G5, g5_d10).factor_len == 9
    monkeypatch.setattr(treecert, "_MAX_IMAGE_LEN", 188)
    with pytest.raises(ConfigurationError, match="need factor_len >= 9: images of 189 symbols, past the budget of 188"):
        certify_morphic_tree_coloring(G5, g5_d10)


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


# the per-period hit masks the certificate hands to `_Packed.first`, from
# the loops of is_power_free (freeness, and squares as freeness at exponent
# 2) and _scan_image_centers on a match table of the packing


def free_hits(spec, n=None):
    return lambda pk: (ends for *_, ends in _violation_ends(_match_table(pk.masks), n or pk.length, spec))


def square_hits(lo, hi):
    # over 2 * hi + 1 symbols, squares of period lo..hi
    return free_hits(PowerFreeSpec(Fraction(2), min_period=lo, strict=False), 2 * hi + 1)


def scan_hits(periods):
    return lambda pk: (centers for eq in [_match_table(pk.masks)] for p in periods
                       for _, centers in _crossing_centers(eq, p))


def packed_flags(words, hits_of):
    """The indices of the words a packed pass flags, chunk by chunk, after
    checking that no hit lies in a gap and that `first` names the least.
    hits_of gives the per-period hit masks of one check on a packing."""
    flagged = []
    offset = 0
    for chunk in _chunks(words, len(words[0])):
        packed = _Packed(chunk)
        hit_masks = list(hits_of(packed))
        hits = 0
        for h in hit_masks:
            hits |= h
        assert hits & ~_match_mask(packed.masks, 0) == 0
        block = (1 << packed.stride) - 1
        mine = [j for j in range(len(chunk)) if (hits >> (j * packed.stride)) & block]
        assert packed.first(iter(hit_masks)) == (mine[0] if mine else None)
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
        free = packed_flags(words, free_hits(spec))
        squares = packed_flags(words, square_hits(lo, hi))
        scan = packed_flags(words, scan_hits(periods))
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
    assert packed_flags(words, free_hits(spec)) == planted
    assert packed_flags(words, square_hits(5, 8)) == planted
    periods = range(5, 30)
    scan = packed_flags(words, scan_hits(periods))
    assert scan == [i for i, w in enumerate(words) if _scan_image_centers(w, periods) is not None]
    assert scan == planted


# ---------------------------------------------------------------------------
# the center scan's mirror pairs as shifted match masks


def mirror_pair(masks, p, delta):
    """The delta-th mirror-pair mask from the symbol masks, two shifts per
    symbol: bit i set when img[i - p + delta] == img[i - delta]."""
    pair = 0
    for m in masks:
        pair |= (m << delta) & (m << (p - delta))
    return pair


def reference_crossing_centers(masks, everywhere, p):
    """The center scan with each mirror pair from the symbol masks
    (`mirror_pair`): the reference for `_crossing_centers`."""
    mirrors = [everywhere]
    for delta in range(1, p + 1):
        pair = mirror_pair(masks, p, delta) & mirrors[-1]
        if not pair:
            break
        mirrors.append(pair)
    top = len(mirrors) - 1
    if not top:
        return
    eq = _match_mask(masks, p)
    reach = _run_reaches(eq, p - top) if top < p else everywhere
    for delta in range(top, 0, -1):
        yield delta, mirrors[delta] & reach
        reach &= eq << (p - delta)


@st.composite
def palindromic_packings(draw):
    """The symbol masks and length L of 1-4 words of one length L in 1..40,
    packed with gaps (`_Packed`), each word cut from random pieces and
    palindromes so that mirror pairs agree far past p/2."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    length = draw(st.integers(1, 40))
    words = []
    for _ in range(draw(st.integers(1, 4))):
        w = ""
        while len(w) < length:
            half = draw(st.text(alphabet, min_size=1, max_size=12))
            if draw(st.booleans()):
                w += half
            else:
                w += half + draw(st.sampled_from(["", *alphabet])) + half[::-1]
        words.append(w[:length])
    return _Packed(words).masks, length


# palindromes, so every mirror pair of the last center agrees past p/2
PALINDROMES = (_Packed(["0110110", "2011102", "0120210"]).masks, 7)


@settings(max_examples=200, deadline=None)
@given(palindromic_packings())
@example(PALINDROMES)
def test_mirror_pairs_are_shifted_match_masks(packing):
    # delta < p/2, 2 delta = p and delta > p/2 for every p <= L
    masks, length = packing
    for p in range(1, length + 1):
        for delta in range(1, p + 1):
            want = mirror_pair(masks, p, delta)
            assert _match_mask(masks, abs(p - 2 * delta)) << min(delta, p - delta) == want, (p, delta)


@settings(max_examples=200, deadline=None)
@given(palindromic_packings())
@example(PALINDROMES)
def test_crossing_centers_match_the_symbol_mask_scan(packing):
    masks, length = packing
    everywhere = _match_mask(masks, 0)
    eq = _match_table(masks)
    for p in range(1, length + 1):
        assert list(_crossing_centers(eq, p)) == list(reference_crossing_centers(masks, everywhere, p)), p


@pytest.mark.parametrize("m, spec, factor_len", [(G2, G2_SPEC, 8), (G5, G5_SPEC, 9)], ids=["g2-fl8", "g5-fl9"])
@pytest.mark.parametrize("per_chunk", [0, 10])
def test_certify_computes_each_match_mask_once_per_chunk(m, spec, factor_len, per_chunk, monkeypatch):
    # the freeness, square and center-scan passes of a chunk share one
    # match table; per_chunk 10 packs the images into several chunks
    calls = []
    real = repetitions._match_mask

    def spy(masks, q):
        calls.append((masks, q))  # keeps masks alive, so ids stay distinct
        return real(masks, q)

    monkeypatch.setattr(repetitions, "_match_mask", spy)
    length = factor_len * m.uniform_width
    if per_chunk:
        monkeypatch.setattr(treecert, "_PACK_BITS", 2 * length * per_chunk)
    cert = certify_morphic_tree_coloring(m, spec, factor_len)
    assert cert.passed
    chunks = -(-cert.source_words // (per_chunk or treecert._PACK_BITS // (2 * length)))
    keys = [(id(masks), q) for masks, q in calls]
    assert len({id(masks) for masks, _ in calls}) == chunks
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("m", [G2, G5], ids=["g2", "g5"])
@pytest.mark.parametrize("factor_len", [1, 2, 5, 9])
def test_image_windows_are_the_union_of_image_factors(m, factor_len):
    # the windows of the short source factors' images against the
    # per-image factor sets, for chunks of one, three and the module's
    # number of images, and every window length up to the image length
    width = m.uniform_width
    length = factor_len * width
    for per_chunk in (1, 3, 0):
        bits = 2 * length * per_chunk or treecert._PACK_BITS
        with mock.patch.object(treecert, "_PACK_BITS", bits):
            for chunk in _chunks(iter_powerfree_ternary(factor_len), length):
                imgs = [apply_morphism(m, src) for src in chunk]
                for d in range(1, length + 1, 1 if factor_len < 9 else 7):
                    assert _image_windows(m, chunk, d) == set().union(*(factors(img, d) for img in imgs))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda w: st.lists(st.text("012", min_size=w, max_size=w), min_size=3, max_size=3)),
       st.lists(st.text("012", min_size=4, max_size=4), min_size=1, max_size=6), st.data())
def test_image_windows_of_any_width(images, sources, data):
    # widths 1-7, where a window of d symbols spans from 1 to all 4 blocks
    m = Morphism(tuple(images))
    d = data.draw(st.integers(1, 4 * m.uniform_width))
    want = set().union(*(factors(apply_morphism(m, src), d) for src in sources))
    assert _image_windows(m, sources, d) == want


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


RANDOM_BETAS = [Fraction(3, 2), Fraction(7, 4), Fraction(9, 5), Fraction(19, 10), Fraction(83, 42)]


def random_certificate_cases(rng, count):
    """count (morphism, spec, factor_len) drawn from rng: 3 binary or ternary
    images of width 1-6, k and d in 1-4, n in 1-6, and factor_len 2-7 on
    about 80 % of them, None (the least admissible) on the rest."""
    for _ in range(count):
        width = rng.randint(1, 6)
        alphabet = rng.choice(("01", "012"))
        images = tuple("".join(rng.choice(alphabet) for _ in range(width)) for _ in range(3))
        k, d, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6)
        beta = rng.choice(RANDOM_BETAS)
        factor_len = rng.randint(2, 7) if rng.random() < 0.8 else None
        yield Morphism(images), BranchCheckSpec(k, PowerFreeSpec(beta, min_period=n), d), factor_len


def test_random_table_certificates_pinned():
    # 400 seeded random tables, mostly failing or misconfigured: 273 failing
    # certificates (75 of them name an in-image square) and 127 configuration
    # errors, many on the best-effort path.  The sha256 of every certificate's
    # JSON or error message pins their bytes
    digest = hashlib.sha256()
    for m, spec, factor_len in random_certificate_cases(random.Random(2026), 400):
        try:
            text = certify_morphic_tree_coloring(m, spec, factor_len, morphism_name="random").to_json()
        except ConfigurationError as exc:
            text = "error: " + str(exc)
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "f716a86af68678f4de8f4c191f4e67467d743060857d3e7113cddd183333a37c"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_certificate_square_is_the_first_square_of_its_image(rng):
    # an in-image square counterexample is the first square, by start and
    # then period, that find_squares lists for its image
    m, spec, factor_len = next(random_certificate_cases(rng, 1))
    try:
        cert = certify_morphic_tree_coloring(m, spec, factor_len)
    except ConfigurationError:
        return
    cx = cert.checks[3].counterexample
    if cx is not None and "center" not in cx:
        first = find_squares(cx["image"], spec.k, len(cx["image"]) // 2)[0]
        rep = cx["repetition"]
        assert (rep["start"], rep["length"], rep["period"]) == (first.start, first.length, first.period)


def test_certificate_never_lists_squares(monkeypatch):
    # the certificate names its square through the freeness check, so none
    # of the benchmark's certificates calls find_squares
    def refuse(*args):
        raise AssertionError("find_squares called")

    monkeypatch.setattr(repetitions, "find_squares", refuse)
    assert not hasattr(treecert, "find_squares")
    for _, morphism, k, beta, n, d, factor_len, _ in PINNED_CERTIFICATES:
        spec = BranchCheckSpec(k, PowerFreeSpec(Fraction(beta), min_period=n), d)
        try:
            certify_morphic_tree_coloring(NAMED_MORPHISMS[morphism], spec, factor_len)
        except ConfigurationError:
            pass


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
    structure = MorphismStructure(width, distinct, int(hits),
                                  run_max // 3, run_max // 2, run_max)
    spec = BranchCheckSpec(k, PowerFreeSpec(beta, min_period=n, strict=beta < 2), d)
    new, old = walks(structure, spec)
    assert new == old
