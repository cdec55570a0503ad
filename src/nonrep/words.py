"""Words over small integer alphabets, uniform morphisms, and power-free word
generation/enumeration.

A word is represented as a plain string of digit characters ('0'-'9'); symbol
ids are the digit values.  All exponent comparisons are exact (integer cross
multiplication or fractions.Fraction), never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .repetitions import PowerFreeSpec


_DIGITS = "0123456789"


def check_word(w: str, alphabet_size: int) -> None:
    """Raise ValueError unless every symbol of w is an ASCII digit <
    alphabet_size."""
    for ch in w:
        if ch not in _DIGITS[:alphabet_size]:
            raise ValueError(f"symbol {ch!r} out of range for alphabet of size {alphabet_size}")


def factors(w: str, length: int) -> set[str]:
    """All distinct contiguous factors of w of the given length."""
    if length < 0 or length > len(w):
        raise ValueError(f"factor length {length} out of range for word of length {len(w)}")
    return {w[i:i + length] for i in range(len(w) - length + 1)}


@dataclass(frozen=True)
class Morphism:
    """A uniform morphism given by one image word per source symbol.

    There is at least one image, every image is a word of digits, and all
    images have a common length of at least 1 (the uniform width).
    """

    images: tuple[str, ...]

    def __post_init__(self):
        widths = {len(img) for img in self.images}
        if len(widths) > 1:
            raise ValueError(f"images have differing lengths {sorted(widths)}; morphism must be uniform")
        if not self.images or 0 in widths:
            raise ValueError("morphism needs at least one image, of width >= 1")
        for img in self.images:
            if not (img.isascii() and img.isdigit()):
                raise ValueError(f"image {img!r} is not a word of digits")

    @property
    def source_alphabet_size(self) -> int:
        return len(self.images)

    @property
    def uniform_width(self) -> int:
        return len(self.images[0])

    @classmethod
    def from_text(cls, text: str) -> "Morphism":
        images = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            sym, _, img = line.partition("->")
            if int(sym.strip()) != len(images):
                raise ValueError("morphism lines must list symbols 0,1,2,... in order")
            images.append(img.strip())
        return cls(tuple(images))


def apply_morphism(m: Morphism, w: str) -> str:
    """Concatenation of the images of the symbols of w, in order."""
    out = []
    for ch in w:
        s = _DIGITS.find(ch)  # -1 for anything but an ASCII digit
        if not 0 <= s < m.source_alphabet_size:
            raise ValueError(f"symbol {ch!r} not in source alphabet of size {m.source_alphabet_size}")
        out.append(m.images[s])
    return "".join(out)


# The two hard-coded branch-coloring morphisms (12-uniform and 21-uniform).
G2 = Morphism((
    "011220012201",
    "122001120012",
    "200112201120",
))

G5 = Morphism((
    "001101110001010110010",
    "001101110001001110101",
    "001101110001001101010",
))

NAMED_MORPHISMS = {"g2": G2, "g5": G5}


# Dejean's threshold for three symbols: repetitions of exponent > 7/4 are
# avoidable, and that bound is tight.
TERNARY_THRESHOLD = PowerFreeSpec(Fraction(7, 4), min_period=1, strict=True)

# the least checkpoint spacing of the free-word DFS, so that a search of up
# to this length keeps the run state of every depth
_EVERY = 64

# the longest word the free-word DFS searches for: its time grows about
# quadratically in the length and its memory like length**1.5 (`word gen`
# at the bound: 11.4 s and 72 MB peak RSS on a 2-core host; at 20 000
# symbols, 1.1 s and 30 MB)
_MAX_LENGTH = 50_000


def _free_words(alphabet: int, spec: PowerFreeSpec, length: int):
    """Depth-first, lexicographic extension of the words over the digits
    0..alphabet-1 that satisfy spec, up to the given length.  After each
    symbol tried it yields the word (a list shared with the search, so valid
    only until the next step) and whether that symbol was kept.  A new symbol
    is checked only for repetitions ending at it, since every shorter prefix
    already passed; an explicit stack keeps long words from recursing.

    The match runs ending at the tail, one per period, are packed into one
    int of `width`-bit fields (Shift-And: Baeza-Yates & Gonnet, CACM 1992):
    with the tail at index t, field j < t holds the run at period t - j,
    the one that compares word[t] with word[j].  Appending a symbol s moves
    every field up one, adds one where word[j] == s and clears the fields
    where it is not, so a new symbol costs a few big-int operations however
    long the word is:

        run' = ((run << width) + low[s]) & full[s]

    where low[s] has the low bit and full[s] every bit of field j set when
    word[j] == s.  A repetition of period p ending at the tail breaks spec
    once its run reaches need[p] = violation_length(p) - p, which is at
    least 1 (`PowerFreeSpec` refuses the non-strict bound 1).  Field
    length - p of `offsets` holds guard - need[p] for every period
    p >= min_period whose violation fits in length, and 0 for the rest;
    shifted down to the tail and added to run', it sets the guard bit (the
    top bit of a field) exactly where a run reaches its need.  A run is at
    most length < guard, so no field carries into the next.

    Keeping the state of every depth would take length**2 * width / 2 bits,
    so states are kept only at every `every`-th depth and at the `every`
    depths below the top, length * width * (every + length / (2 * every))
    bits in all; a backtrack past those replays at most `every` symbols from
    the checkpoint below, and keeps the states it replays.

    A length past _MAX_LENGTH raises ValueError before anything is built."""
    if length > _MAX_LENGTH:
        raise ValueError(f"a search for words of length {length} is past the budget of {_MAX_LENGTH}")
    width = length.bit_length() + 1
    guard = 1 << (width - 1)
    ones = (1 << width) - 1
    lo = spec.min_period
    needs = (spec.violation_length(p) - p for p in range(1, length + 1))
    offsets = int("0" + "".join(
        format(guard - need if p >= lo and need + p <= length else 0, f"0{width}b")
        for p, need in enumerate(needs, 1)
    ), 2)
    guards = int("0" + format(guard, f"0{width}b") * length, 2)
    every = max(_EVERY, isqrt(length // 2))  # near the least of those bits
    symbols = _DIGITS[:alphabet]
    low = dict.fromkeys(symbols, 0)
    full = dict.fromkeys(symbols, 0)
    word: list[str] = []
    states: list[int | None] = [0]  # states[i]: the runs of word[:i], if kept
    stack = [iter(symbols)]  # per depth, the symbols still to try there
    while stack:
        m = len(word)
        shifted = states[m] << width
        offs = offsets >> (length - m) * width
        for s in stack[-1]:
            run = (shifted + low[s]) & full[s]
            word.append(s)
            kept = not (run + offs) & guards
            yield word, kept
            if kept and m + 1 < length:
                low[s] |= 1 << m * width
                full[s] |= ones << m * width
                states.append(run)
                if (m + 1) % every and m + 1 > every:
                    states[m + 1 - every] = None
                stack.append(iter(symbols))
                break
            word.pop()
        else:
            stack.pop()
            states.pop()
            if word:
                s = word.pop()
                m -= 1
                low[s] ^= 1 << m * width
                full[s] ^= ones << m * width
                if states[m] is None:
                    base = m - m % every
                    run = states[base]
                    for j in range(base, m):
                        s = word[j]
                        run = ((run << width) + low[s]) & full[s] & ((1 << j * width) - 1)
                        states[j + 1] = run


def iter_powerfree_ternary(length: int):
    """Yield every ternary word of exactly the given length containing no
    repetition of exponent > 7/4, in lexicographic order."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        yield ""
        return
    for word, kept in _free_words(3, TERNARY_THRESHOLD, length):
        if kept and len(word) == length:
            yield "".join(word)


_MARGIN = 50


def generate_powerfree_ternary(length: int) -> str:
    """The lexicographically least (7/4+)-free ternary word of the given
    length that extends to a (7/4+)-free word _MARGIN symbols longer.

    The lookahead margin makes the output a prefix of the result for any
    larger length (checked as a property test), so generation is
    deterministic and prefix-stable.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    n = length + _MARGIN
    words = (w for w, kept in _free_words(3, TERNARY_THRESHOLD, n) if kept and len(w) == n)
    word = next(words, None)
    if word is None:
        raise RuntimeError("no extendable power-free word found; margin too small")
    return "".join(word[:length])
