"""Benchmark-side tracing: one span around every call into a program layer.

The program itself is never edited. `Tracer.install` replaces each public
function of the layer modules with a timing wrapper, in the defining module
and in every specmult module that imported the same object (for example both
`specmult.spectra.multiplicity` and `specmult.theorems.multiplicity`), and
`uninstall` puts the originals back.

Each span records its name, start, end and parent span; spans stay in memory
and are written out once, by `save`, after the traced region. Self time of a
span is its duration minus the durations of its direct children, which are
disjoint because the client is single-threaded; summed over all spans it
equals the root span's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAYERS = ("graphs", "hermitian", "spectra", "structure", "theorems", "oracle", "cli")
ROOT = "client"

# functions whose arguments are fingerprinted, to measure how often a call
# repeats arguments already seen in the run (what a cache could save at most)
REPEAT_TRACKED = (
    "spectra.scaled_char_poly",
    "spectra.irreducible_factors",
    "theorems.conclusion_classifier",
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # qualified name -> [calls, inclusive seconds, self seconds, repeats]
        self.stats: dict[str, list] = {}
        self._seen: dict[str, set] = {}
        # open spans: [span index, seconds covered by its children so far]
        self._stack: list[list] = [[-1, 0.0]]
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper, built once
        self._root = None

    def _wrap(self, fn, qualname: str):
        clock = time.perf_counter
        stack = self._stack
        name_id = len(self.names)
        self.names.append(qualname)
        stat = self.stats[qualname] = [0, 0.0, 0.0, 0]
        seen = self._seen.setdefault(qualname, set()) if qualname in REPEAT_TRACKED else None
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if seen is not None:
                try:
                    key = hash((args, tuple(sorted(kwargs.items()))))
                except TypeError:  # unhashable argument: never counted as a repeat
                    key = object()
                if key in seen:
                    stat[3] += 1
                else:
                    seen.add(key)
            idx = len(starts)
            frame = [idx, 0.0]
            add_name(name_id)
            add_parent(stack[-1][0])
            add_start(0.0)
            add_end(0.0)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever bound.

        Counts and self times accumulate over repeated install/uninstall.
        """
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"specmult.{layer}"]
                for name, fn in _public_functions(module):
                    self._wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "specmult" or k.startswith("specmult.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                w = self._wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, w)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def run_root(self, body):
        """Run body() as a root span; returns its result."""
        if self._root is None:
            self._root = self._wrap(lambda f: f(), ROOT)
        return self._root(body)

    @property
    def root_seconds(self) -> float:
        """Time covered by all root spans."""
        return self.stats[ROOT][1]

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        for qualname, stat in self.stats.items():
            out[qualname.split(".", 1)[0]] += stat[2]
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for q, s in self.stats.items() if q.split(".", 1)[0] == layer)

    def calls(self, qualname: str) -> int:
        return self.stats.get(qualname, [0])[0]

    def inclusive_seconds(self, qualname: str) -> float:
        return self.stats.get(qualname, [0, 0.0])[1]

    def repeat_ratio(self, qualname: str) -> float:
        stat = self.stats.get(qualname)
        return stat[3] / stat[0] if stat and stat[0] else 0.0

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to a compressed .npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
