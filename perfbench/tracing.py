"""Spans around calls into qdiscord's public functions, recorded from outside.

The tracer replaces a public function with a wrapper in every qdiscord
module namespace that holds it under that name (a module that did
`from .optimizer import grid_oracle` looks the name up in its own
namespace, so patching only the defining module would miss it), and
restores the originals when the `installed()` block ends.

Each span is (name, start, end, parent, state id), kept in compact
arrays in start order and written out with `save`.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "qdiscord"

# (module, public name, span name).  Several functions may share one span
# name when they are one layer's work.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("states", "load_state", "states.load_state"),
    ("correlations", "quantum_discord", "correlations.quantum_discord"),
    ("correlations", "mutual_information", "correlations.mutual_information"),
    ("su_basis", "decompose", "su_basis.decompose"),
    ("measurement", "conditional_entropy_fn", "measurement.compile"),
    ("measurement", "bell_conditional_entropy", "measurement.cost_eval"),
    ("measurement", "from_angles", "measurement.map"),
    ("measurement", "from_bloch", "measurement.map"),
    ("optimizer", "multi_start", "optimizer.search"),
    ("optimizer", "nelder_mead", "optimizer.search"),
    ("optimizer", "gradient_descent", "optimizer.search"),
    ("optimizer", "grid_oracle", "optimizer.grid_oracle"),
    ("linalg", "hermitian_eig", "linalg.eig"),
)

# The evaluator that conditional_entropy_fn returns is itself traced.
EVALUATOR_SPAN = "measurement.cost_eval"
STATE_SPAN = "bench.state"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("h")
        self._parent = array("q")
        self._state = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.state = -1
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        nid = self._name_id(name)
        names, parents, states = self._name, self._parent, self._state
        starts, ends, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            states.append(self.state)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def _wrap_compiler(self, name: str, fn):
        wrap = self.wrap

        def compile_traced(*args, **kwargs):
            return wrap(EVALUATOR_SPAN, fn(*args, **kwargs))

        return wrap(name, compile_traced)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target while the block runs.

        A target the package no longer defines is listed in `absent`
        instead of failing, so layers that later changes delete are
        reported as missing.
        """
        patched = []
        self.absent = []
        try:
            homes = {}
            for module_name, _, _ in TARGETS:
                try:
                    homes[module_name] = importlib.import_module(
                        f"{PACKAGE}.{module_name}")
                except ModuleNotFoundError:
                    homes[module_name] = None
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == PACKAGE
                                             or key.startswith(PACKAGE + "."))]
            for module_name, attr, span in TARGETS:
                original = getattr(homes[module_name], attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if attr == "conditional_entropy_fn":
                    wrapped = self._wrap_compiler(span, original)
                else:
                    wrapped = self.wrap(span, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapped)
                        patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def missing_spans(self) -> set:
        """Span names none of whose functions exist any more."""
        sources: dict[str, list] = {}
        for module_name, attr, span in TARGETS:
            spans = [span]
            if attr == "conditional_entropy_fn":
                spans.append(EVALUATOR_SPAN)
            for name in spans:
                sources.setdefault(name, []).append(f"{module_name}.{attr}")
        return {name for name, fns in sources.items()
                if all(fn in self.absent for fn in fns)}

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "state": np.frombuffer(self._state, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
        }

    def summary(self, scale: dict) -> dict:
        """Per span name: calls, total seconds and self seconds of the
        spans recorded while a state was set, with each span's duration
        multiplied by `scale[its state id]`."""
        a = self.arrays()
        inside = a["state"] >= 0
        states, which = np.unique(a["state"][inside], return_inverse=True)
        factor = np.zeros(len(inside))
        factor[inside] = np.array([scale[s] for s in states.tolist()])[which]
        dur = (a["end"] - a["start"]) * factor
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = (a["name"] == nid) & inside
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
