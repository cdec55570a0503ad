"""Detection of repetitions in words: squares with bounded period, freeness
checks against an exponent bound, and directedness checks.

Every square and exponent test in the package reduces to one quantity, the
match run: the run at period p ending at index m is the number of consecutive
j <= m with seq[j] == seq[j - p].  A square of period p ends at m exactly when
that run reaches p, and a repetition of period p and length p + r ends at m
exactly when it reaches r.  Over a whole word, the masks here answer it at
every index at once: one int bit mask per symbol (`_symbol_masks`), whose
shifted ANDs give the match mask of a period (`_match_mask`), whose shifted
ANDs in turn give the indices where the run reaches r (`_run_reaches`), in
O(log r) big-int operations (Shift-And: Baeza-Yates & Gonnet, CACM 1992;
Myers, JACM 1999).  The freeness check's per-period loop is the generator
`_violation_ends`, which the tree certificate also runs over many images
packed into one set of masks, reading them through a `_match_table`: one
per chunk, shared by its freeness, square and center-scan passes (its square
pass is the freeness check at exponent 2).  `find_squares` lists every
square for criterion 7 and the public API from its kernel `_square_pairs`,
whose (start, period) pairs criterion 9a checks.  The run has two more
forms, each beside its one caller: the free-word DFS (`words._free_words`)
packs the runs at the tail of a growing word into fixed-width fields of one
int, and the graph path DFS (`graphs._tail_square`) counts the run at its
tail one period at a time.

The oracle tests pin every form against slice comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial


@dataclass(frozen=True, slots=True)
class Repetition:
    """A located factor w[start : start+length] having period `period`."""

    start: int
    length: int
    period: int

    def __post_init__(self):
        if not 1 <= self.period <= self.length:
            raise ValueError("need 1 <= period <= length")

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)

    def describe(self) -> str:
        e = self.exponent
        return f"start={self.start} len={self.length} period={self.period} exp={e.numerator}/{e.denominator}"


@dataclass(frozen=True)
class PowerFreeSpec:
    """Freeness parameters: forbid repetitions of exponent beyond exponent_bound
    with period at least min_period.

    strict=True forbids exponent strictly greater than the bound (the "beta-plus"
    reading); strict=False also forbids exponent equal to the bound.  Every
    factor has exponent >= 1, so the non-strict bound 1 is refused: it would
    forbid every word.  Any other spec needs a match run of at least one
    symbol for a violation.
    """

    exponent_bound: Fraction
    min_period: int = 1
    strict: bool = True

    def __post_init__(self):
        if self.exponent_bound < 1:
            raise ValueError("exponent bound must be >= 1")
        if self.exponent_bound == 1 and not self.strict:
            raise ValueError("a non-strict exponent bound of 1 forbids every word; use a strict bound")
        if self.min_period < 1:
            raise ValueError("min period must be >= 1")

    def violation_length(self, period: int) -> int:
        """The least length at which a factor with this period breaks the
        exponent bound (min_period aside)."""
        num, den = self.exponent_bound.as_integer_ratio()
        if self.strict:
            return (num * period) // den + 1
        return -(-(num * period) // den)


def _symbol_masks(w: str, blank: str | None = None) -> list[int]:
    """One int per distinct symbol of w other than blank, with bit j set
    where w[j] is that symbol; positions holding blank are in no mask."""
    rev = w[::-1]
    table = dict.fromkeys(map(ord, set(w)), "0")
    skip = None if blank is None else ord(blank)
    masks = []
    for c in table:
        if c == skip:
            continue
        table[c] = "1"
        masks.append(int(rev.translate(table), 2))
        table[c] = "0"
    return masks


def _match_mask(masks: list[int], p: int) -> int:
    """The match mask at period p: bit j set exactly when w[j] == w[j - p]."""
    eq = 0
    for m in masks:
        eq |= m & (m << p)
    return eq


def _match_table(masks: list[int]):
    """q -> _match_mask(masks, q), each mask computed once and kept."""
    return cache(lambda q: _match_mask(masks, q))


def _run_reaches(eq: int, r: int) -> int:
    """The bits j where the match run ending at j reaches r >= 1, i.e. bits
    j - r + 1 .. j of the match mask eq are all set.  Each AND with a shifted
    copy doubles the span covered; the last one overlaps to land on r."""
    span = 1
    while 2 * span < r:
        eq &= eq << span
        span *= 2
    return eq & (eq << (r - span))


def find_squares(w: str, min_period: int, max_period: int) -> list[Repetition]:
    """All square occurrences in w with period in [min_period, max_period],
    sorted by (start, period)."""
    if not 1 <= min_period <= max_period:
        raise ValueError("need 1 <= min_period <= max_period")
    return [Repetition(start, 2 * p, p) for start, p in _square_pairs(w, min_period, max_period)]


def _square_pairs(w: str, min_period: int, max_period: int) -> list[tuple[int, int]]:
    """find_squares as sorted (start, period) pairs, for callers that need
    no `Repetition`; each period is asked for once, so no table."""
    masks = _symbol_masks(w)
    hits = []
    for p in range(min_period, min(max_period, len(w) // 2) + 1):
        # a square of period p ends at e when the run there reaches p
        ends = _run_reaches(_match_mask(masks, p), p)
        while ends:
            low = ends & -ends
            hits.append((low.bit_length() - 2 * p, p))
            ends ^= low
    hits.sort()
    return hits


def _violation_ends(eq, n: int, spec: PowerFreeSpec):
    """For each period p >= spec.min_period whose violation fits in n
    symbols, in order: (p, violation length, match mask eq(p), the bits j
    where a violating factor of period p ends), i.e. where the match run at
    p reaches the violation length minus p, which is at least 1."""
    for p in range(spec.min_period, n):
        length = spec.violation_length(p)
        if length > n:
            return
        match = eq(p)
        yield p, length, match, _run_reaches(match, length - p)


def is_power_free(w: str, spec: PowerFreeSpec) -> Repetition | None:
    """None if w contains no repetition violating spec; otherwise the violating
    repetition with smallest start, then smallest period, reported at its
    maximal length (the full periodic run)."""
    best = None  # (start, period, match mask)
    for p, length, eq, ends in _violation_ends(partial(_match_mask, _symbol_masks(w)), len(w), spec):
        if best is not None:
            # once a violation starts at s, only starts before s can beat it
            ends &= (1 << (best[0] + length - 1)) - 1
        if ends:
            best = ((ends & -ends).bit_length() - length, p, eq)
            if best[0] == 0:
                break
    if best is None:
        return None
    start, p, eq = best
    # the periodic run ends at the first mismatch past the violation; the
    # mask has no bits at or beyond len(w), so that is at most len(w)
    end = start + spec.violation_length(p)
    tail = eq >> end
    end += ((tail + 1) & ~tail).bit_length() - 1
    return Repetition(start, end - start, p)


def is_d_directed(w: str, d: int) -> tuple[str, str] | None:
    """None if no length-d factor of w has its reversal also a factor of w;
    otherwise the lexicographically least offending (factor, reversed factor)
    pair.  A palindromic factor offends by definition."""
    if d < 1:
        raise ValueError("window length must be >= 1")
    return _reversal_pair({w[i:i + d] for i in range(len(w) - d + 1)})


def _reversal_pair(factor_set) -> tuple[str, str] | None:
    """(f, reversal of f) for the least f in factor_set whose reversal is also
    in it, or None."""
    f = min((f for f in factor_set if f[::-1] in factor_set), default=None)
    return None if f is None else (f, f[::-1])
