"""Tests for words: morphisms, power-free generation and enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    text = G2.to_text()
    assert text.splitlines()[0] == "0 -> 011220012201"
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
