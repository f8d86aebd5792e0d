"""Span tracer that times cvswap's public layers from outside the package.

``Tracer`` rebinds each name in ``TRACED`` to a wrapper in every loaded
``cvswap`` module that holds it, so calls between modules and within a
module both pass through the wrapper; a class is wrapped on its
``__init__``. Every call leaves one span (id, parent id, name, start, end,
workload, item index). Leaving the ``with`` block puts every original back;
entering it again resumes recording into the same spans.
A name the library no longer has is skipped and reports 0 calls.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

TRACED = (
    "gaussian.GaussianState",
    "gaussian.symplectic_eigenvalues",
    "gaussian.apply_symplectic",
    "gaussian.log_negativity",
    "gaussian.two_mode_standard_form",
    "relay.bell_detect",
    "relay.homodyne_condition",
    "relay.embed_orthogonal",
    "relay.cluster_closed_form",
    "analysis.gle_numeric",
    "analysis.pairwise_logneg_numeric",
    "analysis.block_logneg_numeric",
    "sources.sample_normal_form",
    "sources.max_swap_logneg_at_asymmetry",
    "optomech.steady_state_cm",
    "optomech.is_stable",
    "optomech.mechanical_cluster",
    "cli.write_table",
)

_ABSENT = object()


class Tracer:
    """Records spans for the ``TRACED`` names while it is entered."""

    def __init__(self, workload: str):
        self.workload = workload
        self.item = -1  # index of the item being run; -1 outside items
        self.spans = []  # (id, parent id or -1, name, start, end, workload, item)
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items()) if key.partition(".")[0] == "cvswap"]
        for qualname in TRACED:
            module_name, attr = qualname.split(".")
            target = getattr(sys.modules.get("cvswap." + module_name), attr, None)
            if target is None:
                continue
            if isinstance(target, type):
                self._rebind(target, "__init__", self._wrap(qualname, target.__init__))
                continue
            wrapper = self._wrap(qualname, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._rebind(module, key, wrapper)
        return self

    def __exit__(self, *exc_info):
        while self._undo:
            owner, key, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        return False

    def _rebind(self, owner, key, wrapper):
        self._undo.append((owner, key, vars(owner).get(key, _ABSENT)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.workload, self.item))

        return traced

    def totals(self):
        """Per-name call count and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        child spans, which nest inside it.
        """
        child_time = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for span_id, _, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child_time[span_id]
        return calls, self_s

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        info = {span_id: (parent, span_name) for span_id, parent, span_name, *_ in self.spans}
        count = 0
        for span_id, (parent, span_name) in info.items():
            if span_name != name:
                continue
            while parent >= 0:
                parent, above = info[parent]
                if above == ancestor:
                    count += 1
                    break
        return count

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "name", "start_s", "end_s", "workload", "item"))
            out.writerows(self.spans)
