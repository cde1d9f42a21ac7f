"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side: each public function is
replaced, at the module attribute its caller looks it up by, with a wrapper
that records name, start, end and parent.  Nothing inside ``cpasim`` changes.
The wrappers are installed only for the duration of a traced pass.

A span's self time is its duration minus the part its child spans cover.
Calls are nested and single-threaded, so children never overlap and the
covered part is the sum of the children's durations.

``mean_field_rhs`` runs about a million times per pass, so it is a *leaf*:
each call adds its duration to the enclosing span's covered time and to an
aggregate (calls, seconds) instead of storing a span of its own.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter


def _one(_result) -> int:
    return 1


def _n_folds(curve) -> int:
    return len(curve.folds)


# (module, attribute, span name, counter).  The span name's prefix before
# the first dot is the layer the span's self time belongs to.  A counter is
# (name, function of the call's result giving the amount to add).
# ``build_polynomial`` is steady's work wherever it is called from; the
# lookup through ``cpasim.sweep`` is the fold scan and bisection, counted
# separately as ``sweep.polynomial_builds``.
SPANS = (
    ("cpasim.cli", "fig3_preset", "cli.fig3_preset", None),
    ("cpasim.cli", "fig4_preset", "cli.fig4_preset", None),
    ("cpasim.steady", "solve_steady_states", "steady.solve_steady_states",
     ("steady.roots_returned", len)),
    ("cpasim.sweep", "solve_steady_states", "steady.solve_steady_states",
     ("steady.roots_returned", len)),
    ("cpasim.cpa", "solve_steady_states", "steady.solve_steady_states",
     ("steady.roots_returned", len)),
    ("cpasim.steady", "build_polynomial", "steady.build_polynomial", None),
    ("cpasim.sweep", "build_polynomial", "steady.build_polynomial",
     ("sweep.polynomial_builds", _one)),
    ("cpasim.steady", "classify_stability", "steady.classify_stability", None),
    ("cpasim.sweep", "scan_folds", "sweep.scan_folds", ("sweep.folds_found", len)),
    ("cpasim.sweep", "trace_hysteresis", "sweep.trace_hysteresis",
     ("sweep.folds_found", _n_folds)),
    ("cpasim.cpa", "verify_cpa", "cpa.verify_cpa", None),
    ("cpasim.dynamics", "integrate", "dynamics.integrate", None),
    ("cpasim.dynamics", "solve_ivp", "dynamics.solve_ivp", None),
    ("cpasim.io", "emit_csv", "io.emit_csv", None),
    ("cpasim.io", "emit_svg", "io.emit_svg", None),
)
LEAVES = (("cpasim.dynamics", "mean_field_rhs", "dynamics.mean_field_rhs"),)
ROOT = "bench.pass"
LAYERS = ("cli", "steady", "sweep", "cpa", "dynamics", "io", "bench")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Holds the spans of the traced passes in memory until written out."""

    def __init__(self) -> None:
        # (id, parent id or -1, name, start, end, self seconds)
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, start, covered]
        self._next_id = 0

    def _open(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append((frame[0], parent, name, frame[1], end,
                           duration - frame[2]))

    def _span(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name)
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result
        return traced

    def _leaf(self, fn, name: str):
        agg = self.leaves[name]
        stack = self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack[-1][2] += dt
                agg[0] += 1
                agg[1] += dt
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed attribute, restoring the originals on exit."""
        saved = []
        try:
            for mod_name, attr, name, counter in SPANS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._span(fn, name, counter))
            for mod_name, attr, name in LEAVES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._leaf(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def root(self):
        """The span of one whole pass; its self time is the benchmark's own."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, ROOT)


def write_spans(path: str, tracers) -> None:
    """One CSV row per span of each traced pass; the aggregated leaves get
    a row each with their call count in ``id`` and no parent or times."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,id,parent,name,start_s,end_s,self_s\n")
        for k, tracer in enumerate(tracers):
            for sid, parent, name, start, end, self_s in tracer.spans:
                fh.write(f"{k},{sid},{parent},{name},{start!r},{end!r},{self_s!r}\n")
            for name, (calls, seconds) in tracer.leaves.items():
                fh.write(f"{k},{calls},,{name},,,{seconds!r}\n")


def totals(tracer: Tracer) -> dict:
    """Per-name call counts, total and self seconds, over all recorded spans."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for _, _, name, start, end, self_s in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
    for name, (n, seconds) in tracer.leaves.items():
        calls[name] += n
        total[name] += seconds
        own[name] += seconds
    return {"calls": calls, "total": total, "self": own}
