"""Spans recorded from outside the library, around calls into its layers.

:func:`instrument` swaps selected public functions of ``povmlab`` for
wrappers that record one span per call while a :class:`Tracer` op is
open.  Outside an op the wrappers only forward the call.  The library's
modules import each other's functions by name, so every module namespace
that holds the original object gets the wrapper; ``hs`` is not wrapped
and is seen only through the ``povm`` calls that use it.

A span is ``(id, parent, op, name, start, end, weight)``.  ``weight`` is
an optional number taken from the call's result (draws sampled, bytes
dumped).  Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, weight from result or None).  A dotted
# attribute is a method or cached property of a class in that module.
WRAPPED = [
    ("povm", "Povm.__init__", "povm.build", None),
    ("povm", "Povm.span_projector", "povm.span", None),
    ("povm", "Povm.span_rank", "povm.span", None),
    ("povm", "DualFrame.resolution_residual", "povm.resolution_residual", None),
    ("povm", "Observable.__init__", "povm.observable", None),
    ("povm", "canonical_dual", "povm.canonical_dual", None),
    ("povm", "spectral_povm", "povm.spectral_povm", None),
    ("povm", "is_infocomplete", "povm.is_infocomplete", None),
    ("povm", "is_r_infocomplete", "povm.is_r_infocomplete", None),
    ("povm", "povm_report", "povm.povm_report", None),
    ("processing", "Ensemble.__init__", "processing.ensemble", None),
    ("processing", "optimal_dual", "processing.optimal_dual", None),
    ("processing", "min_error", "processing.min_error", None),
    ("processing", "processing_from_dual", "processing.coefficients", None),
    ("processing", "ensemble_error", "processing.ensemble_error", None),
    ("processing", "statistical_error", "processing.statistical_error", None),
    ("processing", "metric_diagonal", "processing.metric_diagonal", None),
    ("postproc", "find_post_processing", "postproc.find_post_processing", None),
    ("postproc", "find_joint_measurement", "postproc.find_joint_measurement", None),
    ("postproc", "blur_for_post_processing", "postproc.blur", None),
    ("postproc", "apply_post_processing", "postproc.apply_post_processing", None),
    # HiGHS is scipy's, not postproc's: its own span keeps it out of
    # postproc's self time and counts the LPs solved
    ("postproc", "linprog", "scipy.linprog", None),
    ("montecarlo", "sample", "montecarlo.sample", lambda run: run.n_ex),
    ("montecarlo", "empirical_estimate", "montecarlo.estimate", None),
    ("serialize", "load_json_file", "serialize.load", None),
    ("serialize", "povm_from_json", "serialize.load", None),
    ("serialize", "operator_from_json", "serialize.load", None),
    ("serialize", "observable_from_json", "serialize.load", None),
    ("serialize", "ensemble_from_json", "serialize.load", None),
    ("serialize", "dump_json", "serialize.dump", len),
    ("serialize", "operator_to_json", "serialize.dump", None),
    ("serialize", "povm_to_json", "serialize.dump", None),
    ("serialize", "markov_to_json", "serialize.dump", None),
    ("qubit", "optimal_three_outcome", "qubit.optimal", None),
    ("qubit", "optimal_four_outcome", "qubit.optimal", None),
    ("qubit", "noise_quantities", "qubit.noise_quantities", None),
    ("abspace", "ab_space", "abspace.ab_space", None),
    ("abspace", "is_ab_infocomplete", "abspace.is_ab_infocomplete", None),
    ("abspace", "is_minimal_ab_infocomplete", "abspace.is_minimal_ab_infocomplete", None),
    ("cli", "main", "cli.main", None),
]

OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store; spans are recorded only inside :meth:`op`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = None

    @property
    def active(self) -> bool:
        return self._op is not None

    def op(self, op_id: int, fn):
        """Run ``fn()`` as traced op ``op_id`` under a root span."""
        self._op = op_id
        try:
            return self.call(OP_SPAN, None, fn)
        finally:
            self._op = None

    def call(self, name, weigh, fn, *args, **kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            weight = weigh(result) if weigh is not None and result is not None else None
            self.spans[span_id] = (span_id, parent, self._op, name, start, end, weight)

    def write(self, path) -> None:
        fields = ["id", "parent", "op", "name", "start", "end", "weight"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _wrap(tracer: Tracer, name: str, weigh, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, weigh, fn, *args, **kwargs)

    return wrapper


class instrument:
    """Context manager installing the span wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "povmlab" or n.startswith("povmlab."))]
        for module, attr, name, weigh in WRAPPED:
            owner = sys.modules.get(f"povmlab.{module}")
            if owner is None:
                continue  # never imported, so never called
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(
                        _wrap(self.tracer, name, weigh, original.func))
                    replacement.__set_name__(cls, member)
                else:
                    replacement = _wrap(self.tracer, name, weigh, original)
                self._swap(cls, member, replacement)
                continue
            original = getattr(owner, attr)
            replacement = _wrap(self.tracer, name, weigh, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, replacement)
        return self.tracer

    def _swap(self, owner, key, replacement):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, replacement)

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False


def layer_times(spans):
    """Per span name: inclusive seconds of outermost spans, calls, self seconds, weight.

    A span's self time is its duration minus its children's; children of
    one span never overlap because the benchmark runs on one thread.
    Inclusive time counts only spans with no ancestor of the same name,
    so nested calls (``operator_from_json`` inside ``povm_from_json``)
    are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[5] - s[4]
    stats = defaultdict(lambda: {"incl": 0.0, "calls": 0, "self": 0.0, "weight": 0.0})
    for s in spans:
        name, dur = s[3], s[5] - s[4]
        entry = stats[name]
        entry["calls"] += 1
        entry["self"] += dur - child_time[s[0]]
        if s[6] is not None:
            entry["weight"] += s[6]
        parent = s[1]
        while parent is not None and by_id[parent][3] != name:
            parent = by_id[parent][1]
        if parent is None:
            entry["incl"] += dur
    return stats
