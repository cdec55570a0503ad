"""A fixed control job that calibrates a run's times to the machine's speed.

On a shared host the speed a process gets drifts by a tenth or more over
minutes, and every time measured in a run moves with it.  A run times this
control between the jobs of its untraced rounds, for about 5 % of the run,
and scales its end-to-end times by ``CONTROL_S`` over the control's mean time
in the run, so that the drift cancels: over ten seeds per workload it cut the
spread of ``wall_s`` to between a fifth and a half of the measured one.  The
control runs the benchmark's own verdict checks on fixed inputs, pure-Python
slicing and tree walks like nonrep's, so it slows down and speeds up with the
host as nonrep does (over 40 s, the means of the two correlate at about 0.9),
and no change to nonrep alters it; only a change that slowed the whole
process, such as a thread left running, would slow the control too.  On a
machine where the control takes ``CONTROL_S``, scaled times are plain seconds.
"""

from __future__ import annotations

from time import perf_counter

from verdicts import expect, has_square, image, threshold_free, tree_coloring_clean

CONTROL_S = 0.009  # about the control's mean time on a 2-vCPU Xeon (Sapphire Rapids) VM
EVERY_S = 0.2  # the control runs once for each EVERY_S of jobs
MIN_RUNS = 5  # a run too short for this many is topped up at its end

# a 7/4+-free ternary word, its g2 image, and the complete binary tree of
# depth 5 colored level by level from that image
_WORD = (
    "0102012021012010201210120210201021012010201202101210201021"
    "01201021201210120102012021012010210121020102120121012010201202"
)
_IMAGE = image("g2", _WORD[:28])
_N = 63
_ADJ = [[] for _ in range(_N)]
for _v in range(1, _N):
    _ADJ[_v].append((_v - 1) // 2)
    _ADJ[(_v - 1) // 2].append(_v)
_LEVEL = [0] * _N
for _v in range(1, _N):
    _LEVEL[_v] = _LEVEL[(_v - 1) // 2] + 1
_COLORS = [int(_IMAGE[5 - lv]) for lv in _LEVEL]


def control() -> None:
    """Scan every factor of each input: none of them has a repetition."""
    expect(threshold_free(_WORD), "control word has a 7/4+ power")
    expect(tree_coloring_clean(_ADJ, _COLORS, 2), "control tree coloring has a square")
    expect(not has_square(_IMAGE, 4), "control image has a square")


class Control:
    """Times of the control, about one for each EVERY_S of the run."""

    def __init__(self):
        self.times: list[float] = []
        self._last = perf_counter()

    def _run(self) -> None:
        t0 = perf_counter()
        control()
        self._last = perf_counter()
        self.times.append(self._last - t0)

    def tick(self) -> None:
        """Run the control once for each EVERY_S since it last ran, so that a
        long job weighs as much as many short ones."""
        for _ in range(int((perf_counter() - self._last) / EVERY_S)):
            self._run()

    def scale(self) -> float:
        """The factor that turns this run's seconds into seconds at the
        control's speed."""
        while len(self.times) < MIN_RUNS:
            self._run()
        return CONTROL_S / (sum(self.times) / len(self.times))
