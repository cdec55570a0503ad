"""Words over small integer alphabets, uniform morphisms, and power-free word
generation/enumeration.

A word is represented as a plain string of digit characters ('0'-'9'); symbol
ids are the digit values.  All exponent comparisons are exact (integer cross
multiplication or fractions.Fraction), never floating point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .repetitions import PowerFreeSpec, _tail_hit


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

    def to_text(self) -> str:
        """Serialize as one 'symbol -> image' line per source symbol."""
        return "\n".join(f"{i} -> {img}" for i, img in enumerate(self.images))

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


def _free_words(alphabet: int, spec: PowerFreeSpec, length: int):
    """Depth-first, lexicographic extension of the words over the digits
    0..alphabet-1 that satisfy spec, up to the given length.  After each
    symbol tried it yields the word (a list shared with the search, so valid
    only until the next step) and whether that symbol was kept.  A new symbol
    is checked only for repetitions ending at it, since every shorter prefix
    already passed; an explicit stack keeps long words from recursing.

    A repetition of period p ending at the new symbol breaks spec once it is
    lengths[p] long, i.e. once its match run reaches need[p].  _tail_hit
    needs need[p] >= 1, which every spec meets (`PowerFreeSpec` refuses the
    non-strict bound 1)."""
    lengths = [spec.violation_length(p) for p in range(length + 1)]
    need = [n - p for p, n in enumerate(lengths)]
    lo = spec.min_period
    symbols = _DIGITS[:alphabet]
    word: list[str] = []
    stack = [iter(symbols)]  # per depth, the symbols still to try there
    while stack:
        for s in stack[-1]:
            word.append(s)
            m = len(word) - 1
            hi = bisect_right(lengths, m + 1) - 1  # the periods a violation fits
            kept = _tail_hit(word, m, lo, hi, need) is None
            yield word, kept
            if kept and m + 1 < length:
                stack.append(iter(symbols))
                break
            word.pop()
        else:
            stack.pop()
            if word:
                word.pop()


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
