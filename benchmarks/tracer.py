"""Spans around every call into the package's public functions, recorded
from outside the package.

``Tracer.install`` wraps each public function of the layer modules at every
place it is bound: the defining module, every ``from .x import y`` name in
any loaded ``deeplin`` module (and the package namespace), and the values
of ``lab.RUNNERS``.  Spans (name, start, end, parent, item) are kept in
flat arrays in memory and written out by ``save`` after the run.  A span's
self time is its duration minus the durations of its child spans; calls
are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("matcore", "network", "factor", "project", "trainers", "verify", "lab")

# Spans the benchmark adds itself: one per timed item, and one around the
# counting done after a traced call returns, so that counting is charged to
# no layer.
ITEM = "bench.item"
PROBE = "bench.probe"


VERIFY_CHECKERS = (
    "check_gradient_lower_bound",
    "check_hessian_upper_bound",
    "trace_recurrence_check",
    "check_commuting_normal",
    "eigen_recurrence_check",
    "fd_gradient_check",
    "fd_hessian_check",
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _clipped(args, kwargs, result):
    """A projection clipped when its result differs from its input; both
    projections return feasible input unchanged."""
    a = args[0] if args else kwargs["a"]
    return not np.array_equal(np.asarray(a, dtype=float), result)


def _trace_path(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["path"]


class Tracer:
    """Install, record, uninstall.  Not reentrant; one per run."""

    def __init__(self, memory: bool = False):
        # tracemalloc slows every allocation inside the call it watches, so
        # peak memory is taken in a pass of its own, not in the timed one
        self.memory = memory
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1
        self.counters: dict = defaultdict(float)
        self._patched: list = []

    # --- recording --------------------------------------------------------

    def _id(self, name) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def record_item(self, item_id, fn, *args):
        """Run ``fn(*args)`` as the root span of item ``item_id``."""
        self.item_id = item_id
        idx = self._open(self._id(ITEM))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, qualname, fn):
        nid = self._id(qualname)
        probe_id = self._id(PROBE)
        post = self._post_hook(qualname)
        measure_memory = self.memory and qualname == "network.full_hessian"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            if measure_memory:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(idx, t0, t1)
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"{qualname}.peak_mb"
                    self.counters[key] = max(self.counters[key], peak)
            if post is None:
                return result
            post(args, kwargs, result)
            self.name_id.append(probe_id)
            self.parent.append(self.stack[-1])
            self.item.append(self.item_id)
            self.start.append(t1)
            self.end.append(perf_counter())
            return result

        return traced

    def _post_hook(self, qualname):
        """Counters measured where the work happens: trainer steps, whether
        a projection clipped, whether a checker skipped, bytes written."""
        module, name = qualname.split(".")
        counters = self.counters
        if module == "trainers" and name.startswith("run_"):
            def post(args, kwargs, result):
                counters["trainers.steps"] += len(result.etas)
        elif module == "project" and name.startswith("project_"):
            def post(args, kwargs, result):
                counters[f"{qualname}.clipped"] += _clipped(args, kwargs, result)
        elif module == "verify" and name in VERIFY_CHECKERS:
            def post(args, kwargs, result):
                counters["verify.checks"] += 1
                counters["verify.skipped"] += result.status == "skipped"
        elif qualname == "lab.write_trace_csv":
            def post(args, kwargs, result):
                counters["lab.write_trace_csv.bytes"] += os.path.getsize(_trace_path(args, kwargs))
        else:
            post = None
        return post

    # --- installing -------------------------------------------------------

    def install(self):
        """Wrap every binding of every public layer function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"deeplin.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "deeplin" and not mod_name.startswith("deeplin."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((vars(module), name, obj))
        runners = sys.modules["deeplin.lab"].RUNNERS
        for name, obj in list(runners.items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                runners[name] = entry[1]
                self._patched.append((runners, name, obj))
        return len(self._patched)

    def uninstall(self):
        """Put every original back and check that each one is in place."""
        for namespace, name, original in reversed(self._patched):
            namespace[name] = original
        wrong = [name for namespace, name, original in self._patched
                 if namespace[name] is not original]
        self._patched = []
        if wrong:
            raise RuntimeError(f"originals not restored: {wrong}")

    # --- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, self seconds)."""
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def items_calling(self, qualname) -> list:
        """Ids of the items whose spans include a call to ``qualname``."""
        if qualname not in self._name_ids:
            return []
        hit = np.asarray(self.name_id) == self._name_ids[qualname]
        return sorted(set(np.asarray(self.item)[hit].tolist()))

    def save(self, path):
        """Write the spans (compressed npz) with their name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            item=np.asarray(self.item),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )

