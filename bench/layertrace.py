"""Per-layer tracing for the benchmark's traced run.

Every public function of each nonrep layer module is wrapped at every name
that binds it: the module attribute, the re-export in the package and in
other modules (``nonrep.treecert.is_power_free`` as well as
``nonrep.repetitions.is_power_free``), and dict entries such as the
acceptance criteria table.  Private helpers are not wrapped, so their time
stays in the self time of the public function that calls them.  Spans are
aggregated when they close; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("words", "repetitions", "treecert", "graphs", "search", "acceptance", "cli")

# work units per call: symbols scanned, or symbols produced
WORK = {
    "repetitions.is_power_free": lambda args, res: len(args[0]),
    "repetitions.find_squares": lambda args, res: len(args[0]),
    "search.extend_word_search": lambda args, res: len(res.word),
}


class Tracer:
    def __init__(self, package, modules: dict):
        self._package = package
        self._modules = modules
        self._sites: list = []
        self.tag = None
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)  # key -> seconds, outermost span of the key
        self.self_time = defaultdict(float)  # same, minus children in other layers
        self.layer_outer = defaultdict(float)  # key -> seconds with no same-layer ancestor
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.tagged = defaultdict(float)  # (job tag, key) -> seconds
        self.under = defaultdict(float)  # (parent key, key) -> seconds
        self._stack: list = []
        self._active = defaultdict(int)
        self._layer_active = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _enter(self, key: str, layer: str) -> list:
        self._active[key] += 1
        self._layer_active[layer] += 1
        frame = [key, layer, 0.0, 0.0]  # key, layer, start, time in other layers
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        dur = perf_counter() - frame[2]
        key, layer, _, foreign = frame
        self._stack.pop()
        self._active[key] -= 1
        self._layer_active[layer] -= 1
        self.calls[key] += 1
        if not self._active[key]:
            self.total[key] += dur
            self.self_time[key] += dur - foreign
            if self.tag is not None:
                self.tagged[self.tag, key] += dur
        if not self._layer_active[layer]:
            self.layer_outer[key] += dur
        if self._stack:
            parent = self._stack[-1]
            self.under[parent[0], key] += dur
            parent[3] += dur if parent[1] != layer else foreign

    def _wrap(self, fn, key: str, layer: str):
        tracer = self
        work = WORK.get(key)
        if inspect.isgeneratorfunction(fn):
            # one span per next(), so time spent by the consumer between
            # items is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(key, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.work[key] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(key, layer)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if work is not None:
                tracer.work[key] += work(args, res)
            return res

        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        if self._sites:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer, mod in self._modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        for mod in (self._package, *self._modules.values()):
            ns = vars(mod)
            for name, val in list(ns.items()):
                if name.startswith("__"):
                    continue
                self._bind(ns, name, val, wrapped)
                if isinstance(val, dict):
                    for k, v in list(val.items()):
                        self._bind(val, k, v, wrapped)

    def _bind(self, container: dict, key, val, wrapped: dict) -> None:
        hit = wrapped.get(id(val))
        if hit is not None and hit[0] is val:
            container[key] = hit[1]
            self._sites.append((container, key, val))

    def restore(self) -> None:
        for container, key, original in reversed(self._sites):
            container[key] = original
        self._sites.clear()

    @property
    def sites(self) -> int:
        return len(self._sites)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def bindings(package, modules: dict) -> dict:
    """Snapshot of every function-valued binding the tracer may replace, for
    checking that restore left the program as it found it."""
    snap = {}
    for mod in (package, *modules.values()):
        for name, val in vars(mod).items():
            if name.startswith("__"):
                continue
            if inspect.isfunction(val):
                snap[mod.__name__, name] = val
            elif isinstance(val, dict):
                for k, v in val.items():
                    if inspect.isfunction(v):
                        snap[mod.__name__, name, k] = v
    return snap
