"""Tests for repetition detection: both forms of the match-run kernel against
its slice definition, exhaustive naive-oracle equivalences, slice oracles on
words longer than a machine word, and pinned examples."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nonrep.graphs import _tail_square
from nonrep.words import G2, G5, PowerFreeSpec, apply_morphism
from nonrep.repetitions import (
    Repetition,
    _match_mask,
    _run_reaches,
    _square_pairs,
    _symbol_masks,
    find_squares,
    is_d_directed,
    is_power_free,
)

small_words = st.text(alphabet="012", min_size=0, max_size=25)


def naive_squares(w, min_period, max_period):
    out = []
    for start in range(len(w)):
        for p in range(min_period, max_period + 1):
            if start + 2 * p <= len(w) and all(
                w[start + j] == w[start + p + j] for j in range(p)
            ):
                out.append((start, p))
    return out


def test_repetition_type():
    r = Repetition(2, 6, 3)
    assert r.exponent == Fraction(2)
    assert r.describe() == "start=2 len=6 period=3 exp=2/1"
    assert Repetition(0, 7, 3).exponent == Fraction(7, 3)
    with pytest.raises(ValueError):
        Repetition(0, 2, 3)


def slice_run(w, m, p):
    """The match run at period p ending at index m, by its definition: the
    largest r with w[m-r+1 : m+1] == w[m-r+1-p : m+1-p]."""
    r = 0
    while r <= m - p and w[m - r : m + 1] == w[m - r - p : m + 1 - p]:
        r += 1
    return r


@given(
    st.text(alphabet="012", min_size=2, max_size=30) | st.text(alphabet="01", min_size=2, max_size=30),
    st.data(),
)
def test_match_run_kernel_matches_slice_definition(w, data):
    n = len(w)
    masks = _symbol_masks(w)
    assert sum(masks) == (1 << n) - 1  # each index in exactly one symbol mask
    for p in range(1, n + 2):
        runs = [slice_run(w, j, p) for j in range(n)]
        eq = _match_mask(masks, p)
        assert eq == sum(1 << j for j in range(n) if runs[j])
        for r in range(1, n + 1):
            assert _run_reaches(eq, r) == sum(1 << j for j in range(n) if runs[j] >= r)
    # the path DFS's square test, at one index
    m = data.draw(st.integers(1, n - 1))
    lo = data.draw(st.integers(1, (m + 1) // 2))
    hi = data.draw(st.integers(lo - 1, (m + 1) // 2))
    want = next((p for p in range(lo, hi + 1) if slice_run(w, m, p) >= p), None)
    assert _tail_square(w, m, lo, hi) == want
    assert _tail_square(list(w), m, lo, hi) == want


def test_find_squares_examples():
    assert [(r.start, r.length, r.period) for r in find_squares("0101", 1, 4)] == [
        (0, 4, 2)
    ]
    assert find_squares("011220012201", 2, 10) == []
    assert [(r.start, r.length, r.period) for r in find_squares("00", 1, 1)] == [
        (0, 2, 1)
    ]
    with pytest.raises(ValueError):
        find_squares("00", 2, 1)


def test_find_squares_sorted_and_exhaustive_small():
    for length in range(0, 9):
        for tw in product("012", repeat=length):
            w = "".join(tw)
            got = find_squares(w, 1, max(1, length // 2))
            assert [(r.start, r.period) for r in got] == sorted(
                naive_squares(w, 1, length // 2 if length else 1)
            )


def test_find_squares_wraps_the_pairs_kernel():
    # criterion 9a checks the kernel, so find_squares must add nothing to it
    rng = random.Random(7)
    for _ in range(300):
        w = "".join(rng.choice("012"[: rng.randint(1, 3)]) for _ in range(rng.randint(0, 40)))
        lo = rng.randint(1, 6)
        hi = rng.randint(lo, 25)
        pairs = _square_pairs(w, lo, hi)
        assert find_squares(w, lo, hi) == [Repetition(s, 2 * p, p) for s, p in pairs]
        assert pairs == sorted(naive_squares(w, lo, hi))


@given(st.text(alphabet="01", max_size=40), st.integers(1, 5), st.integers(1, 20))
def test_find_squares_matches_naive(w, lo, extra):
    hi = lo + extra
    got = [(r.start, r.period) for r in find_squares(w, lo, hi)]
    assert got == naive_squares(w, lo, hi)


@st.composite
def long_words(draw):
    """Words of 60-200 symbols, so the masks cross the 64- and 128-bit
    boundaries; built from repeated chunks so that squares and long runs of
    every period occur."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    n = draw(st.integers(60, 200))
    w = ""
    while len(w) < n:
        w += draw(st.text(alphabet, min_size=1, max_size=40)) * draw(st.integers(1, 4))
    return w[:n]


def slice_squares(w, lo, hi):
    """(start, period) of every square with period in [lo, hi], in (start,
    period) order, by slice comparison."""
    return [
        (s, p)
        for s in range(len(w))
        for p in range(lo, min(hi, (len(w) - s) // 2) + 1)
        if w[s : s + p] == w[s + p : s + 2 * p]
    ]


def slice_power_violation(w, spec):
    """(start, length, period) of the violation is_power_free must report, by
    slice comparison: least start, then least period, at maximal length."""
    n = len(w)
    for s in range(n):
        for p in range(spec.min_period, n):
            length = spec.violation_length(p)
            if length <= p or s + length > n or w[s : s + length - p] != w[s + p : s + length]:
                continue
            while s + length < n and w[s : s + length + 1 - p] == w[s + p : s + length + 1]:
                length += 1
            return s, length, p
    return None


@settings(max_examples=60, deadline=None)
@given(long_words(), st.integers(1, 40), st.integers(0, 100))
def test_find_squares_matches_slices_on_long_words(w, lo, extra):
    got = [(r.start, r.period) for r in find_squares(w, lo, lo + extra)]
    assert got == slice_squares(w, lo, lo + extra)


@settings(max_examples=60, deadline=None)
@given(
    long_words(),
    st.sampled_from([Fraction(19, 10), Fraction(83, 42), Fraction(7, 4), Fraction(2), Fraction(5, 4)]),
    st.integers(1, 30),
    st.booleans(),
)
def test_is_power_free_matches_slices_on_long_words(w, beta, min_period, strict):
    spec = PowerFreeSpec(beta, min_period, strict)
    r = is_power_free(w, spec)
    assert (None if r is None else (r.start, r.length, r.period)) == slice_power_violation(w, spec)


@given(st.integers(1, 60).flatmap(lambda den: st.integers(den, 3 * den).map(lambda num: Fraction(num, den))),
       st.booleans(), st.integers(0, 400))
def test_max_period_is_the_largest_period_whose_violation_fits(beta, strict, n):
    strict = strict or beta == 1
    spec = PowerFreeSpec(beta, strict=strict)
    fits = [p for p in range(1, n + 1) if spec.violation_length(p) <= n]
    assert max(spec.max_period(n), 0) == max(fits, default=0)
    assert spec.violation_length(spec.max_period(n) + 1) > n


def test_is_power_free_examples():
    assert is_power_free(apply_morphism(G5, "0"), PowerFreeSpec(Fraction(83, 42), 5)) is None
    r = is_power_free("01010", PowerFreeSpec(Fraction(19, 10), 2))
    assert (r.start, r.period, r.exponent) == (0, 2, Fraction(5, 2))
    assert is_power_free("", PowerFreeSpec(Fraction(19, 10), 2)) is None


def test_is_power_free_counterexample_is_genuine_and_least():
    for length in range(0, 10):
        for tw in product("01", repeat=length):
            w = "".join(tw)
            spec = PowerFreeSpec(Fraction(19, 10), min_period=1)
            r = is_power_free(w, spec)
            violations = [
                (start, p)
                for start in range(length)
                for p in range(1, (length - start))
                if _run(w, start, p) * 10 > 19 * p
            ]
            if r is None:
                assert not violations
            else:
                assert (r.start, r.period) == min(violations)
                assert r.length >= spec.violation_length(r.period)
                # reported factor really is periodic
                assert all(
                    w[r.start + j] == w[r.start + j + r.period]
                    for j in range(r.length - r.period)
                )


def _run(w, start, p):
    length = p
    while start + length < len(w) and w[start + length] == w[start + length - p]:
        length += 1
    return length


def test_power_free_square_equivalence():
    # freeness at bound 2 (non-strict) is exactly square-freeness at period >= k
    for length in range(0, 11):
        for tw in product("01", repeat=length):
            w = "".join(tw)
            for k in (1, 2, 3):
                free = is_power_free(w, PowerFreeSpec(Fraction(2), k, strict=False))
                squares = find_squares(w, k, max(k, length // 2))
                assert (free is None) == (not squares)


def test_is_d_directed_examples():
    assert is_d_directed("0123210", 3) == ("012", "210")
    assert is_d_directed(apply_morphism(G2, "012"), 3) is None
    assert is_d_directed("01", 5) is None  # vacuous
    assert is_d_directed("01", 1) == ("0", "0")  # palindromic factor
    with pytest.raises(ValueError):
        is_d_directed("01", 0)


@given(small_words, st.integers(1, 6))
def test_directedness_monotone(w, d):
    if is_d_directed(w, d) is None:
        for d2 in range(d, d + 3):
            assert is_d_directed(w, d2) is None


def test_g5_image_is_20_directed():
    assert is_d_directed(apply_morphism(G5, "012"), 20) is None
