"""Tests for words: morphisms, power-free generation and enumeration."""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nonrep import words
from nonrep.words import (
    G2,
    G5,
    Morphism,
    PowerFreeSpec,
    TERNARY_THRESHOLD,
    apply_morphism,
    check_word,
    factors,
    generate_powerfree_ternary,
    iter_powerfree_ternary,
)
from nonrep.repetitions import Repetition, is_power_free

ternary_words = st.text(alphabet="012", max_size=30)


def naive_threshold_free(w: str) -> bool:
    """Oracle: no factor of w has exponent > 7/4 (checked by the definition:
    for every start and period, extend the periodic run and compare)."""
    n = len(w)
    for start in range(n):
        for p in range(1, n - start):
            length = p
            while start + length < n and w[start + length] == w[start + length - p]:
                length += 1
            if 4 * length > 7 * p:
                return False
    return True


def test_check_word():
    check_word("0102", 3)
    with pytest.raises(ValueError):
        check_word("013", 3)
    with pytest.raises(ValueError):
        check_word("0a", 3)
    with pytest.raises(ValueError):
        check_word("0\uff11", 3)  # a full-width 1


def test_factors():
    assert factors("0102", 2) == {"01", "10", "02"}
    assert factors("0011", 3) == {"001", "011"}
    assert factors("0011", 0) == {""}
    with pytest.raises(ValueError):
        factors("01", 3)


def test_morphism_tables():
    assert G2.uniform_width == 12 and G2.source_alphabet_size == 3
    assert G5.uniform_width == 21 and G5.source_alphabet_size == 3


def test_morphism_uniformity_enforced():
    with pytest.raises(ValueError):
        Morphism(("01", "0"))


def test_morphism_images_validated():
    # no image, width 0, a letter, a digit outside ASCII
    for images in ((), ("", "", ""), ("0a1", "012", "210"), ("01", "1\u0662")):
        with pytest.raises(ValueError):
            Morphism(images)
    with pytest.raises(ValueError):
        Morphism.from_text("0 ->\n1 ->\n2 ->")


def test_morphism_text_round_trip():
    text = "0 -> 011220012201\n1 -> 122001120012\n\n  2 -> 200112201120\n"
    assert Morphism.from_text(text) == G2
    with pytest.raises(ValueError):
        Morphism.from_text("1 -> 01")


def test_apply_morphism_examples():
    assert apply_morphism(G2, "0") == "011220012201"
    assert apply_morphism(G2, "") == ""
    assert apply_morphism(G2, "01") == "011220012201122001120012"
    with pytest.raises(ValueError):
        apply_morphism(G2, "3")
    with pytest.raises(ValueError):
        apply_morphism(G2, "\uff10")  # a full-width 0


@given(ternary_words, ternary_words)
def test_apply_morphism_distributes(u, v):
    assert apply_morphism(G5, u + v) == apply_morphism(G5, u) + apply_morphism(G5, v)
    assert len(apply_morphism(G2, u)) == 12 * len(u)


def test_powerfree_spec():
    spec = PowerFreeSpec(Fraction(7, 4))
    assert spec.violation_length(4) == 8  # exponent 2 > 7/4; exactly 7/4 passes, strict
    assert PowerFreeSpec(Fraction(7, 4), strict=False).violation_length(4) == 7
    # periods below min_period are exempt, so the square 0101 passes
    assert is_power_free("0101", PowerFreeSpec(Fraction(2), min_period=3, strict=False)) is None
    with pytest.raises(ValueError):
        PowerFreeSpec(Fraction(1, 2))
    with pytest.raises(ValueError):
        PowerFreeSpec(Fraction(2), min_period=0)
    # the non-strict bound 1 would forbid every word, since every factor has
    # exponent >= 1; the strict bound 1 forbids every repetition
    with pytest.raises(ValueError):
        PowerFreeSpec(Fraction(1), strict=False)
    with pytest.raises(ValueError):
        PowerFreeSpec(1, min_period=3, strict=False)
    assert is_power_free("01", PowerFreeSpec(Fraction(1))) is None
    assert is_power_free("010", PowerFreeSpec(Fraction(1))) == Repetition(0, 3, 2)
    assert TERNARY_THRESHOLD.exponent_bound == Fraction(7, 4)


def test_enumerate_sizes():
    assert len(set(iter_powerfree_ternary(1))) == 3
    assert len(set(iter_powerfree_ternary(2))) == 6
    assert len(set(iter_powerfree_ternary(3))) == 12
    assert set(iter_powerfree_ternary(0)) == {""}
    with pytest.raises(ValueError):
        next(iter_powerfree_ternary(-1))


def test_enumeration_matches_naive_oracle():
    from itertools import product

    for length in range(0, 8):
        expected = {
            "".join(w)
            for w in product("012", repeat=length)
            if naive_threshold_free("".join(w))
        }
        assert set(iter_powerfree_ternary(length)) == expected


def test_iteration_is_lexicographic():
    words = list(iter_powerfree_ternary(6))
    assert words == sorted(words)
    assert len(set(words)) == len(words)


def test_factor_closedness():
    free = {n: set(iter_powerfree_ternary(n)) for n in range(9)}
    for w in free[8]:
        assert naive_threshold_free(w)
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert w[i:j] in free[j - i]


def test_generate_examples():
    assert generate_powerfree_ternary(0) == ""
    assert generate_powerfree_ternary(1) == "0"
    assert generate_powerfree_ternary(4) == "0102"


def test_generate_least_extendable_prefix():
    # oracle: among all threshold-free words of length 6, the least one's
    # 4-symbol prefix is the generator's length-4 output
    least6 = min(iter_powerfree_ternary(6))
    assert generate_powerfree_ternary(4) == least6[:4]


def test_generate_prefix_stable():
    w = generate_powerfree_ternary(40)
    for length in (0, 1, 7, 25, 39):
        assert generate_powerfree_ternary(length) == w[:length]
    assert naive_threshold_free(w)


def test_enumeration_pinned_through_length_20():
    # the counts, and every word in order, as the per-period DFS gave them
    counts = [1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 186, 240, 312, 420, 528, 678, 888, 1140, 1464, 1854]
    digest = hashlib.sha256()
    for length, want in enumerate(counts):
        found = list(iter_powerfree_ternary(length))
        assert len(found) == want
        digest.update(("\n".join(found) + "\n\n").encode())
    assert digest.hexdigest() == "f2add022335f1255e4c6f0a01db5ed8f9aedd5e2021085781d4f3082c3cfcc26"


def slice_free_words(alphabet: int, spec: PowerFreeSpec, length: int):
    """Oracle for `words._free_words`: the same (word, kept) stream from a
    recursive DFS that compares slices.  The word before the new symbol was
    kept, so a violation of period p has to be its suffix of
    violation_length(p) symbols, and that suffix has period p exactly when
    it equals itself shifted by p."""

    def kept(w):
        for p in range(spec.min_period, len(w)):
            n = spec.violation_length(p)
            if n <= len(w) and w[len(w) - n:len(w) - p] == w[len(w) - n + p:]:
                return False
        return True

    def dfs(prefix):
        for s in "0123456789"[:alphabet]:
            w = prefix + s
            ok = kept(w)
            yield w, ok
            if ok and len(w) < length:
                yield from dfs(w)

    return dfs("")


@settings(max_examples=150, deadline=None)
@given(
    alphabet=st.integers(2, 4),
    bound=st.sampled_from([Fraction(7, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(7, 3)]),
    strict=st.booleans(),
    min_period=st.integers(1, 4),
    length=st.sampled_from([*range(15), 16, 17, 32, 33, 64, 65, 66]),
    every=st.sampled_from([1, 2, 3, 5, 64]),
)
def test_free_words_match_slice_oracle(alphabet, bound, strict, min_period, length, every):
    # the packed run state against slice comparisons, over the first 3000
    # symbols tried; small checkpoint spacings make the backtracks replay
    spec = PowerFreeSpec(bound, min_period=min_period, strict=strict)
    with mock.patch.object(words, "_EVERY", every):
        got = [("".join(w), kept) for w, kept in islice(words._free_words(alphabet, spec, length), 3000)]
    assert got == list(islice(slice_free_words(alphabet, spec, length), 3000))


def test_free_words_replay_past_checkpoints():
    # an exhaustive run (binary, no square of period >= 2: at most 18
    # letters) backtracks through every depth; with `_EVERY` at 1-4 the
    # checkpoints are 3 or 4 depths apart, so the backtracks replay
    spec = PowerFreeSpec(Fraction(2), min_period=2, strict=False)
    want = list(slice_free_words(2, spec, 19))
    for every in (1, 2, 3, 4):
        with mock.patch.object(words, "_EVERY", every):
            assert [("".join(w), kept) for w, kept in words._free_words(2, spec, 19)] == want


def test_free_words_length_budget():
    # a length past the budget is refused before any run state is built;
    # the budget itself is admitted (only the first symbol is tried here)
    word, kept = next(words._free_words(3, TERNARY_THRESHOLD, words._MAX_LENGTH))
    assert word == ["0"] and kept
    for search in (words._free_words(3, TERNARY_THRESHOLD, words._MAX_LENGTH + 1),
                   iter_powerfree_ternary(words._MAX_LENGTH + 1)):
        with pytest.raises(ValueError, match="past the budget"):
            next(search)
    with pytest.raises(ValueError, match="past the budget"):
        generate_powerfree_ternary(10 ** 8)


def test_generation_memory_grows_less_than_quadratically():
    # the run state of every depth would hold about 7.5 MB here; checkpoints
    # and the window below the top hold well under 1 MB
    tracemalloc.start()
    try:
        generate_powerfree_ternary(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
