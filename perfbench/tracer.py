"""Spans around korbit's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each function in TRACED by a timing
wrapper on its module, e.g. ``korbit.exp_action.coadjoint_move``. Package
code reaches these functions through module globals and attributes looked
up at call time, so calls made inside ``orbits`` and ``foliation`` are seen
too. Private helpers (``_expm``, ``_batch_skew_ranks``, inlined loops) are
not wrapped: their time is self time of the public caller.

A span records its name, start, end, parent span and unit id. Self time is
the span's duration minus the durations of its direct children; single
threaded calls nest, so children never overlap. Spans stay in memory until
``write`` is called at the end of the run. Only time.perf_counter is used.
"""

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from korbit.errors import EvaluationError


def _sample_rows(out):
    return out.points.shape[0]


def _stack_rows(out):
    return out.shape[0]


def _text_bytes(out):
    return len(out.encode("utf-8"))


# (module, function, stat name for the counted size of each call or None)
TRACED = (
    ("algebra", "build_algebra", None),
    ("algebra", "ad_matrix", None),
    ("exp_action", "exp_ad", None),
    ("exp_action", "exp_ad_closed", None),
    ("exp_action", "coadjoint_move", None),
    ("exp_action", "coadjoint_move_531", None),
    ("exp_action", "sample_orbit", ("rows", _sample_rows)),
    ("kirillov", "kirillov_forms", ("rows", _stack_rows)),
    ("kirillov", "md_scan", None),
    ("orbits", "classify_orbit", None),
    ("orbits", "is_member", None),
    ("orbits", "orbits_equal", None),
    ("orbits", "constraint_residuals", None),
    ("orbits", "verify_proposition", None),
    ("foliation", "partition_check", None),
    ("foliation", "local_triviality_probe", None),
    ("reports", "dumps", ("bytes", _text_bytes)),
)

# Functions whose EvaluationError rejections are reported as ``.failed``.
COUNT_FAILED = ("orbits.constraint_residuals",)

# Spans the benchmark opens itself: one per unit call, one per payload emit.
UNIT, EMIT = 0, 1
NAMES = ("bench.unit", "bench.emit") + tuple(f"{m}.{f}" for m, f, _ in TRACED)


class Tracer:
    """Span store plus per-function call counts, self times and sizes."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")  # 1 when the call raised EvaluationError
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.size = [0] * len(NAMES)
        self.unit_id = -1
        self._stack = []  # [span index, summed duration of its children]

    def open(self, nid: int) -> None:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def close(self, nid: int) -> None:
        t = perf_counter()
        idx, child = self._stack.pop()
        d = t - self.start[idx]
        self.end[idx] = t
        self.calls[nid] += 1
        self.self_s[nid] += d - child
        if self._stack:
            self._stack[-1][1] += d

    def _wrap(self, nid, fn, size):
        def traced(*args, **kwargs):
            self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except EvaluationError:
                self.raised[self._stack[-1][0]] = 1
                raise
            finally:
                self.close(nid)
            if size is not None:
                self.size[nid] += size(out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Replace every TRACED function by its wrapper, and restore it."""
        saved = []
        try:
            for nid, (mod, attr, size) in enumerate(TRACED, start=2):
                module = importlib.import_module(f"korbit.{mod}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr,
                        self._wrap(nid, fn, size and size[1]))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def spans(self) -> dict:
        def copy(arr, dtype):
            return np.frombuffer(arr, dtype=dtype).copy()
        return {"name": copy(self.name, np.int32),
                "parent": copy(self.parent, np.int32),
                "unit": copy(self.unit, np.int32),
                "start": copy(self.start, np.float64),
                "end": copy(self.end, np.float64),
                "raised": copy(self.raised, np.int8)}

    def count_by_unit(self, name, parent=None, raised=None) -> dict:
        """Per unit id: spans of ``name``; only the direct children of
        ``parent`` when given, only those that raised EvaluationError
        (True) or did not (False) when ``raised`` is given."""
        s = self.spans()
        hit = s["name"] == NAMES.index(name)
        if raised is not None:
            hit &= s["raised"] == int(raised)
        if parent is not None:
            hit &= s["parent"] >= 0
            hit[hit] = s["name"][s["parent"][hit]] == NAMES.index(parent)
        ids, counts = np.unique(s["unit"][hit], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls and self_s of every traced function, plus its
        counted sizes and rejections; values are (number, unit)."""
        out = {}
        for nid, (mod, attr, size) in enumerate(TRACED, start=2):
            key = f"{mod}.{attr}"
            out[f"{key}.calls"] = (self.calls[nid] / passes, "count")
            out[f"{key}.self_s"] = (self.self_s[nid] / passes, "s")
            if size is not None:
                out[f"{key}.{size[0]}"] = (self.size[nid] / passes,
                                           size[0] if size[0] == "bytes"
                                           else "count")
            if key in COUNT_FAILED:
                failed = sum(self.count_by_unit(key, raised=True).values())
                out[f"{key}.failed"] = (failed / passes, "count")
        return out

    def write(self, path, unit_labels) -> None:
        np.savez_compressed(path, names=np.array(NAMES),
                            unit_labels=np.array(unit_labels),
                            **self.spans())
