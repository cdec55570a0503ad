"""Machine-checkable certificates that a uniform ternary-source morphism yields
non-repetitive colorings of level-colored trees.

Setting: color the levels of a rooted tree by a binary word produced by
applying a uniform morphism g to a square-exponent-threshold-free ternary word
(no factor of exponent above 7/4).  A path between two vertices of the tree
reads a branch word f s f'^R where f, f' are factors ending at a common
ancestor level s; the worst case is f' = f, making the branch a palindrome
around s.  The certificate establishes that no branch word contains a color
square of period >= k, by combining four checks:

1. image freeness  -- images of source words contain no repetition of period
   >= n and exponent beyond beta;
2. d-directedness  -- no factor of length d of any image occurs together with
   its reversal;
3. threshold       -- periods p >= p* = ceil((d-1)/(2-beta)) crossing the
   palindrome center are impossible given checks 1 and 2;
4. center scan     -- periods in [k, p*-1] crossing the center, and squares
   of period in [k, n-1] inside images, are ruled out directly, the latter
   as freeness at exponent 2 (so a failing image names its first square
   without listing the rest); in-image squares of period >= n are ruled out
   by check 1 on the same image, since a square has exponent 2 > beta.

Checks 1 and 4 quantify over all images of threshold-free source words, which
is an infinite family.  They are reduced to a finite enumeration through
structural run bounds: positionwise match runs at distance p inside any image
are bounded by constants extracted from the morphism table (shifted-window
disagreement for p not a multiple of the width; block-run counting via source
freeness for aligned p).  Periods whose bound already falls short of the run a
violation would require are excluded statically; the finitely many remaining
periods are checked exhaustively on images of all threshold-free source words
of a sufficient fixed length.

Those images all have one length L, and the direct checks run on all of them
at once (`_Packed`): the images are laid end to end in one int bit mask per
symbol, each followed by a gap of L positions that no mask sets.  Every
period checked is at most L, so no match run and no mirror pair of the
center scan reaches across a gap, and one pass per period over the packed
masks answers a check for every image.  The lowest hit, divided by the
stride 2L, names the first failing source word; the per-image check then
names its counterexample exactly as it would alone.  Memory does not grow
with factor_len: a chunk keeps its symbol masks and at most L match masks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from math import ceil

from .words import (
    Morphism,
    apply_morphism,
    factors,
    iter_powerfree_ternary,
)
from .repetitions import (PowerFreeSpec, Repetition, _match_table, _reversal_pair, _run_reaches,
                          _symbol_masks, _violation_ends, is_power_free)
from .graphs import Coloring, complete_tree


class ConfigurationError(ValueError):
    """The certificate parameters cannot produce a sound verdict (as opposed to
    a sound verdict of failure)."""

    def __init__(self, message: str, min_factor_len: int | None = None):
        super().__init__(message)
        self.min_factor_len = min_factor_len


@dataclass(frozen=True)
class BranchCheckSpec:
    """Parameters of the branch-word property to certify: no square of period
    >= k on branch words, via (free_spec)-freeness, directed_d-directedness,
    and an exhaustive scan of center-crossing periods up to p* - 1 and of
    in-image squares of period below free_spec.min_period (p* and the periods
    that need a direct check are derived from these fields)."""

    k: int
    free_spec: PowerFreeSpec
    directed_d: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need k >= 1")
        if self.directed_d < 1:
            raise ValueError("need directed_d >= 1")


def directedness_threshold(beta: Fraction, d: int) -> int:
    """Smallest p* such that a square of period p >= p* crossing the palindrome
    center is incompatible with beta-freeness and d-directedness of the
    surrounding word: p* = ceil((d-1)/(2-beta))."""
    if d < 1:
        raise ValueError("need d >= 1")
    beta = Fraction(beta)
    if beta >= 2:
        raise ValueError("threshold argument needs beta < 2")
    return ceil(Fraction(d - 1) / (2 - beta))


# ---------------------------------------------------------------------------
# structural run bounds


@dataclass(frozen=True)
class MorphismStructure:
    """Constants extracted from a uniform morphism table that bound how long a
    positionwise match run u[j] == u[j-p] can be inside any image u of a
    threshold-free source word.

    shifted_window_hits counts the triples (x, y, r) where some image equals
    the window (x+y)[r:r+width] for 0 < r < width; when there are none, a run
    at any distance p not divisible by the width can never contain a whole
    aligned block, so it has length at most 2*width - 2.

    For p = q*width and pairwise distinct images, a run decomposes into at most
    floor(3q/4) whole matching blocks (more would force a source factor of
    exponent above 7/4 at period q) plus partial agreement of mismatched
    blocks at both ends, bounded by lcs_max and lcp_max; a run inside a single
    mismatched block pair is bounded by solo_run_max."""

    width: int
    distinct_images: bool
    shifted_window_hits: int
    lcp_max: int
    lcs_max: int
    solo_run_max: int

    def misaligned_run_bound(self) -> int | None:
        if self.shifted_window_hits:
            return None
        return 2 * self.width - 2

    def run_bound(self, p: int) -> int | None:
        if p < 1:
            raise ValueError("need p >= 1")
        if p % self.width:
            return self.misaligned_run_bound()
        if not self.distinct_images:
            return None
        blocks = (3 * (p // self.width)) // 4
        return max(self.solo_run_max, self.lcs_max + self.width * blocks + self.lcp_max)


def analyze_morphism_structure(m: Morphism) -> MorphismStructure:
    imgs = m.images
    w = m.uniform_width
    image_set = set(imgs)
    hits = 0
    for x in imgs:
        for y in imgs:
            cat = x + y
            for r in range(1, w):
                if cat[r : r + w] in image_set:
                    hits += 1
    lcp_max = lcs_max = solo_max = 0
    for x in imgs:
        for y in imgs:
            if x == y:
                continue
            p = 0
            while x[p] == y[p]:
                p += 1
            lcp_max = max(lcp_max, p)
            s = 0
            while x[w - 1 - s] == y[w - 1 - s]:
                s += 1
            lcs_max = max(lcs_max, s)
            run = best = 0
            for a, b in zip(x, y):
                run = run + 1 if a == b else 0
                best = max(best, run)
            solo_max = max(solo_max, best)
    return MorphismStructure(
        width=w,
        distinct_images=len(image_set) == len(imgs),
        shifted_window_hits=hits,
        lcp_max=lcp_max,
        lcs_max=lcs_max,
        solo_run_max=solo_max,
    )


def _dynamic_periods(st: MorphismStructure, lo: int, needed, slope: Fraction) -> list[int]:
    """Periods p >= lo whose structural run bound does not already fall short
    of needed(p) match-run symbols, i.e. those still requiring an exhaustive
    check.

    needed must not decrease and must grow linearly with exact slope:
    needed(p + W) - needed(p) >= slope*W - 1 for the window W below.  For
    aligned periods the bound grows by exactly (3/4)*W per window (W is a
    multiple of 4*width) and misaligned bounds are constant, so with slope >
    3/4 the deficit strictly increases window over window; one fully static
    window therefore proves every larger period static, which is the stopping
    rule.  Past the first static misaligned period every misaligned period is
    static, so the walk steps from one aligned period to the next and counts
    the periods between toward the window."""
    slope = Fraction(slope)
    if slope <= Fraction(3, 4):
        raise ConfigurationError(
            f"required run grows with slope {slope} <= 3/4; structural bounds "
            "cannot exclude large periods"
        )
    window = 8 * st.width * slope.denominator
    misaligned = st.misaligned_run_bound()
    out: list[int] = []
    streak = 0
    aligned_only = False
    p = lo
    while streak < window:
        if p % st.width and (aligned_only or misaligned is not None and needed(p) > misaligned):
            aligned_only = True
            skip = -p % st.width
            streak += skip
            p += skip
            continue
        rb = st.run_bound(p)
        if rb is None:
            raise ConfigurationError(
                "structural run bounds unavailable for this morphism "
                "(images not distinct or shifted-window collision)"
            )
        if rb >= needed(p):
            out.append(p)
            streak = 0
        else:
            streak += 1
        p += 1
    return out


# ---------------------------------------------------------------------------
# per-image dynamic checks


def _crossing_centers(eq, p: int):
    """For one period p: (delta, centers) from the largest feasible delta
    down to 1, where centers has bit i set when a square of period p in the
    palindromic branch word over img[:i + 1] ends delta symbols past center i.
    eq maps a period q to the word's match mask; eq(0) marks its symbols.

    It first ANDs the mirror masks for delta = 1, 2, ... (the delta-th has
    bit i set when the first delta mirror pairs img[i-p+j] == img[i-j] agree)
    until none is left.  Then, from the largest such delta down, it meets each
    with the mask of centers whose trailing match run reaches p - delta, which
    one shifted AND of the match mask narrows per step.  The delta-th pair
    alone is a match at period |p - 2 delta| read at its later index, which
    is i - delta while 2 delta <= p and i - p + delta past p/2: its mask is
    eq(|p - 2 delta|) << min(delta, p - delta).

    No separate cut enforces delta <= i and the fit left of the center,
    i >= 2p - 1 - delta: a mirror pair at j = delta reads img[i - delta], a
    run of p - delta >= 1 matches ending at i reads back to
    img[i - 2p + 1 + delta], and at delta = p the mirror pairs read back to
    img[i - p].  Bits whose reads fall before a word's first symbol are never
    set, and neither are bits where no symbol is."""
    mirrors = [eq(0)]
    for delta in range(1, p + 1):
        # bit i: img[i - p + delta] == img[i - delta]
        pair = (eq(abs(p - 2 * delta)) << min(delta, p - delta)) & mirrors[-1]
        if not pair:
            break
        mirrors.append(pair)
    top = len(mirrors) - 1
    if not top:
        return
    match = eq(p)
    reach = _run_reaches(match, p - top) if top < p else mirrors[0]
    for delta in range(top, 0, -1):
        yield delta, mirrors[delta] & reach
        reach &= match << (p - delta)


def _scan_image_centers(img: str, periods):
    """Search for a feasible center-crossing square inside palindromic branch
    words built over prefixes of img.

    For center index i and period p, a square ending delta symbols past the
    center (1 <= delta <= p) exists iff the trailing match run R at distance p
    ending at i satisfies delta >= p - R, the square fits left of the center
    (delta >= 2p - i - 1), delta <= min(p, i), and the first delta mirror
    pairs img[i-p+j] == img[i-j] (j = 1..delta) all agree.  Squares with
    delta > p reduce to delta' = 2p - 1 - delta by the palindrome's mirror
    symmetry, and delta = 0 squares lie inside the image itself.

    Per period the scan works on bit masks over the centers i, made from
    match masks (`_crossing_centers`); a center whose least admissible delta
    is delta shows up at that delta.  The packed certificate pass (`_Packed`)
    runs it on many images laid end to end, each followed by a gap of
    len(img) empty positions.  Each bit of a match or mirror mask reads
    positions at most p <= len(img) before it, so a read past an image's
    start lands in the gap, never in the image before: no bit mixes two
    images, and the centers of one image are those of its own scan.

    Returns (center, delta, Repetition-in-branch-word) for the least period,
    then the least center, then the least delta; or None."""
    eq = _match_table(_symbol_masks(img))
    for p in periods:
        hits = [((c & -c).bit_length() - 1, delta) for delta, c in _crossing_centers(eq, p) if c]
        if not hits:
            continue
        i, delta = min(hits)
        branch = img[: i + 1] + img[:i][::-1]
        end = i + delta
        start = end - 2 * p + 1
        if start < 0 or branch[start : start + p] != branch[start + p : end + 1]:
            raise RuntimeError(
                f"center scan derived a square of period {p} ending at {end} "
                f"that the branch word does not contain"
            )
        return i, delta, Repetition(start, 2 * p, p)
    return None


_PACK_BITS = 1 << 16  # bits per chunk mask, at most (one image of more packs alone)


def _chunks(items, length: int):
    """Consecutive runs of items, as many per list as fit in _PACK_BITS when
    each packs to 2 * length bits (at least one), so that memory does not
    grow with the number of items: a chunk holds its symbol masks and at
    most `length` match masks, each of max(_PACK_BITS, length) bits at most."""
    per = max(1, _PACK_BITS // (2 * length))
    it = iter(items)
    while chunk := list(islice(it, per)):
        yield chunk


def _image_windows(m: Morphism, sources: list[str], d: int) -> set[str]:
    """The distinct length-d factors of the images of the source words, all
    of one length n with d <= n * width.  A window of d image symbols
    touches at most `span` consecutive source blocks, so it is a factor of
    the image of a span-symbol factor of its source word (the last span
    symbols when it ends near the end), and the images of those few distinct
    factors give every window."""
    n, width = len(sources[0]), m.uniform_width
    span = min(n, (d + width - 2) // width + 1)
    heads = {src[i:i + span] for src in sources for i in range(n - span + 1)}
    return set().union(*(factors(apply_morphism(m, u), d) for u in heads))


class _Packed:
    """Words of one length L laid end to end in one int mask per symbol,
    each word followed by a gap of L positions that no mask sets: word j
    occupies bits j*stride .. j*stride + L - 1, with stride = 2L.

    Every period checked is at most L, so a match run or mirror pair never
    crosses a gap (see `_scan_image_centers`), and one pass per period
    answers a check for all words at once.  The class holds only this
    packing: each check's caller runs the per-word check's own per-period
    loop on a `_match_table` of `masks` and hands its hit masks to `first`,
    which names the word of the lowest hit."""

    def __init__(self, words: list[str]):
        self.length = len(words[0])
        self.stride = 2 * self.length
        self.masks = _symbol_masks((" " * self.length).join(words), blank=" ")

    def first(self, hit_masks) -> int | None:
        """The index of the first word with a bit in any of hit_masks, or
        None."""
        hits = 0
        for h in hit_masks:
            hits |= h
        return ((hits & -hits).bit_length() - 1) // self.stride if hits else None


def _image_cx(src: str, img: str, rep: Repetition | None) -> dict:
    """The counterexample record of an image the packed pass flagged; rep is
    what the per-image check found there."""
    if rep is None:
        raise RuntimeError(f"packed pass flagged the image of {src} but its own check passes")
    repetition = {**asdict(rep), "exponent": _fmt_frac(rep.exponent)}
    return {"source": src, "image": img, "repetition": repetition}


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class CheckRecord:
    name: str
    passed: bool
    params: dict
    counterexample: dict | None = None


@dataclass
class Certificate:
    """Outcome of the four-part tree-coloring check for one morphism.  passed
    means: on every level-colored tree whose level word is the image of a
    threshold-free ternary word read toward the root, no simple path reads a
    color square of period >= k."""

    morphism_name: str
    images: tuple
    k: int
    beta: Fraction
    n: int
    d: int
    factor_len: int
    p_star: int
    covered_window: int
    source_words: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # shallow copies of the fields, not asdict's recursive deep copy
        doc = {**vars(self), "checks": [{**vars(c)} for c in self.checks]}
        doc["morphism"] = doc.pop("morphism_name")
        return {**doc, "beta": _fmt_frac(self.beta), "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


# the longest source words the certificate enumerates: their number grows
# about 1.25x per symbol, to 166 710 at 40, where g2 certifies in about 28 s
# and g5 in about 81 s (2-core host, 17 MB peak RSS)
_MAX_FACTOR_LEN = 40

# the freeness walk of _dynamic_periods stops after a window of
# 8 * width * (beta's denominator) static periods and steps through about
# 8 * denominator of them, one aligned period each: at this budget that is
# well under a second for any width
_MAX_BETA_DENOMINATOR = 10_000

# analyze_morphism_structure compares every pair of images position by
# position and every shifted window of each image pair, quadratic in the
# width: on random binary tables 0.34 s at this budget, 1.2 s at 20 000 and
# 10.6 s at 60 000 (2-core host)
_MAX_WIDTH = 10_000

# the packed passes take about quadratic time in the image length factor_len *
# width: on random binary tables (k 1, n 1, d 2, beta 19/10) 2.2 s and 174 MB at
# 48 000 symbols, 3.1 s and 262 MB at 60 000, 5.8 s and 450 MB at 80 000 (2-core host)
_MAX_IMAGE_LEN = 50_000


def _check_factor_len_budget(factor_len: int, width: int, implied: bool) -> None:
    what = "these parameters need factor_len >=" if implied else "factor_len"
    if factor_len > _MAX_FACTOR_LEN:
        raise ConfigurationError(f"{what} {factor_len}: past the budget of {_MAX_FACTOR_LEN}")
    if factor_len * width > _MAX_IMAGE_LEN:
        images = f"images of {factor_len * width} symbols"
        raise ConfigurationError(f"{what} {factor_len}: {images}, past the budget of {_MAX_IMAGE_LEN}")


def certify_morphic_tree_coloring(
    m: Morphism,
    spec: BranchCheckSpec,
    factor_len: int | None = None,
    morphism_name: str = "custom",
) -> Certificate:
    """Run the four checks for morphism m against spec, enumerating
    threshold-free ternary source words of length factor_len (minimal
    admissible length when omitted).

    Raises ConfigurationError (with the minimal admissible value) when
    factor_len is too small for the enumeration to cover every period the
    structural bounds leave open, and when the given or implied factor_len
    is past _MAX_FACTOR_LEN or makes images longer than _MAX_IMAGE_LEN.
    Before the morphism's structure is analysed it refuses a table wider than
    _MAX_WIDTH, a beta whose denominator is past _MAX_BETA_DENOMINATOR, a
    given factor_len past those budgets and a d whose image windows alone imply
    one, so neither the analysis nor a period walk can run long.  When the
    morphism table admits no structural run bounds at all, the enumeration
    still runs over every period the window can exhibit: a violation found that
    way is a sound failure verdict, but a clean sweep is inconclusive and raises."""
    k, d = spec.k, spec.directed_d
    beta = Fraction(spec.free_spec.exponent_bound)
    n = spec.free_spec.min_period
    width = m.uniform_width
    if m.source_alphabet_size != 3:
        raise ConfigurationError("source alphabet must be ternary")
    if width > _MAX_WIDTH:
        raise ConfigurationError(f"width {width}: past the budget of {_MAX_WIDTH}")
    if not 1 < beta < 2:
        raise ConfigurationError("need 1 < beta < 2")
    if beta.denominator > _MAX_BETA_DENOMINATOR:
        raise ConfigurationError(
            f"beta {beta}: denominator past the budget of {_MAX_BETA_DENOMINATOR}"
        )
    if factor_len is not None and factor_len < 2:
        raise ConfigurationError("need factor_len >= 2", min_factor_len=2)

    # every image window of d symbols must be covered, and the period walks
    # below take about d steps: decide the budget from d and the width
    # before the analysis and the walks, given factor_len or not
    if factor_len is not None:
        _check_factor_len_budget(factor_len, width, implied=False)
    _check_factor_len_budget(ceil(Fraction(d, width)) + 1, width, implied=True)
    st = analyze_morphism_structure(m)
    p_star = directedness_threshold(beta, d)
    free_len = spec.free_spec.violation_length

    bounds_error = None
    try:
        free_dyn = _dynamic_periods(st, n, lambda p: free_len(p) - p, beta - 1)
        square_dyn = _dynamic_periods(st, k, lambda p: p, Fraction(1))
        # a crossing square of period p needs a trailing run of p - delta
        # matches, and d-directedness caps delta at d - 1
        scan_dyn = [p for p in _dynamic_periods(st, k, lambda p: p - (d - 1), 1) if p < p_star]
    except ConfigurationError as exc:
        if factor_len is None:
            raise
        # best effort: check every period the window can exhibit; only a
        # found violation is conclusive
        bounds_error = exc
        covered = (factor_len - 1) * width
        free_dyn = [p for p in range(n, covered) if free_len(p) <= covered]
        square_dyn = list(range(k, covered // 2 + 1))
        scan_dyn = list(range(k, min(p_star - 1, covered // 2) + 1))

    need = max(
        [d]
        + [free_len(p) for p in free_dyn]
        + [2 * p for p in square_dyn]
        + [2 * p for p in scan_dyn]
    )
    if factor_len is None:
        factor_len = ceil(Fraction(need, width)) + 1
        _check_factor_len_budget(factor_len, width, implied=True)
    covered = (factor_len - 1) * width
    if bounds_error is None and covered < need:
        min_fl = ceil(Fraction(need, width)) + 1
        raise ConfigurationError(
            f"factor_len {factor_len} covers image windows of {covered} symbols "
            f"but {need} are required; need factor_len >= {min_fl}",
            min_factor_len=min_fl,
        )

    free_spec = spec.free_spec
    squares = PowerFreeSpec(Fraction(2), min_period=k, strict=False)
    free_cx = square_cx = scan_cx = None
    dir_factors: set[str] = set()
    source_words = 0
    length = factor_len * width
    clean_hi = min(n - 1, length // 2)
    for chunk in _chunks(iter_powerfree_ternary(factor_len), length):
        source_words += len(chunk)
        if d <= length:
            dir_factors |= _image_windows(m, chunk, d)
        if free_cx is not None and square_cx is not None and scan_cx is not None:
            continue
        imgs = [apply_morphism(m, src) for src in chunk]
        packed = _Packed(imgs)
        eq = _match_table(packed.masks)  # shared by the three passes
        if free_cx is None:
            j = packed.first(ends for *_, ends in _violation_ends(eq, length, free_spec))
            if j is not None:
                free_cx = _image_cx(chunk[j], imgs[j], is_power_free(imgs[j], free_spec))
        if square_cx is None:
            # the in-image squares are freeness at exponent 2, and `squares`
            # over 2 * hi + 1 symbols asks for periods k..hi.  A square has
            # exponent 2 > beta, so an image that passed freeness has no
            # square of period >= n; from the chunk of the first freeness
            # failure on, every period up to length // 2 is checked (on
            # images that passed, that finds the same squares).  Either way
            # the flagged image has no square of period past hi, so
            # `is_power_free` names its first square, by start and then
            # period as `find_squares` sorts them, at the length of its run
            hi = clean_hi if free_cx is None else length // 2
            j = packed.first(ends for *_, ends in _violation_ends(eq, 2 * hi + 1, squares))
            if j is not None:
                run = is_power_free(imgs[j], squares)
                square = run and Repetition(run.start, 2 * run.period, run.period)
                square_cx = _image_cx(chunk[j], imgs[j], square)
        if scan_cx is None:
            j = packed.first(centers for p in scan_dyn for _, centers in _crossing_centers(eq, p))
            if j is not None:
                i, delta, rep = _scan_image_centers(imgs[j], scan_dyn) or (None, None, None)
                scan_cx = {"center": i, "delta": delta, **_image_cx(chunk[j], imgs[j], rep)}

    pair = _reversal_pair(dir_factors)
    dir_cx = None if pair is None else {"factor": pair[0], "reversal": pair[1]}

    if bounds_error is not None and not any((free_cx, square_cx, scan_cx, dir_cx)):
        raise bounds_error

    checks = [
        CheckRecord(
            "image-freeness",
            free_cx is None,
            {
                "beta": _fmt_frac(beta),
                "strict": free_spec.strict,
                "min_period": n,
                "dynamic_periods": free_dyn,
                **asdict(st),
            },
            free_cx,
        ),
        CheckRecord(
            "directedness",
            dir_cx is None,
            {"d": d, "factors_of_length_d": len(dir_factors)},
            dir_cx,
        ),
        CheckRecord(
            "threshold",
            True,
            {"p_star": p_star, "scan_range": [k, p_star - 1] if k < p_star else []},
            None,
        ),
        CheckRecord(
            "center-scan",
            scan_cx is None and square_cx is None,
            {
                "k": k,
                "pmax": p_star - 1,
                "dynamic_crossing_periods": scan_dyn,
                "dynamic_square_periods": square_dyn,
            },
            scan_cx if scan_cx is not None else square_cx,
        ),
    ]
    return Certificate(
        morphism_name=morphism_name,
        images=m.images,
        k=k,
        beta=beta,
        n=n,
        d=d,
        factor_len=factor_len,
        p_star=p_star,
        covered_window=covered,
        source_words=source_words,
        checks=checks,
    )


def build_level_tree(word: str, depth: int, arity: int):
    """The complete tree of `graphs.complete_tree`, vertices colored by level:
    a vertex on level i gets color word[depth - i], so reading a
    root-to-leaf path from the leaf up spells word[0..depth].  Returns
    (Graph, Coloring)."""
    if len(word) < depth + 1:
        raise ValueError("word must have at least depth + 1 symbols")
    g = complete_tree(depth, arity)
    g.family = "leveltree"
    digits = [int(c) for c in word[depth::-1]]  # digits[i] = word[depth - i]
    colors = tuple(digits[lv] for lv in g.levels)
    return g, Coloring(colors, max(colors) + 1)
