"""Layer tracing from outside the program.

:class:`Tracer` replaces public functions of the biolock modules with timing
wrappers, in the defining module and in every module that imported the name
(``biolock.registry.build_template``, ``biolock.cli.access``, ...), and puts
the originals back on :meth:`Tracer.uninstall`.  Each call records a span
``[name, start_ns, end_ns, parent, op]`` in memory; nothing is written until
the caller asks for :meth:`Tracer.write`.  The wrappers return what the
wrapped function returned, so tracing never changes an output.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from biolock import cli, fingerprint, fusion, imaging, iris, registry

# (span name, owner, attribute, metric suffix).  The owner is the defining
# module, or the class for a method.  Every time metric is self time: the
# span's duration minus its traced children.  Spans that mostly contain other
# spans say so with the ``self_ms`` suffix.
TARGETS = (
    ("imaging.decode_pgm", imaging, "decode_pgm", "ms"),
    ("imaging.adaptive_threshold", imaging, "adaptive_threshold", "ms"),
    ("imaging.thin", imaging, "thin", "ms"),
    ("fingerprint.build_template", fingerprint, "build_template", "self_ms"),
    ("fingerprint.segment", fingerprint, "segment", "ms"),
    ("fingerprint.estimate_orientation", fingerprint, "estimate_orientation", "ms"),
    ("fingerprint.estimate_frequency", fingerprint, "estimate_frequency", "ms"),
    ("fingerprint.gabor_enhance", fingerprint, "gabor_enhance", "ms"),
    ("fingerprint.extract_minutiae", fingerprint, "extract_minutiae", "ms"),
    ("fingerprint.filter_false_minutiae", fingerprint, "filter_false_minutiae", "ms"),
    ("fingerprint.match_minutiae", fingerprint, "match_minutiae", "ms"),
    ("fingerprint.register_minutiae", fingerprint, "register_minutiae", "ms"),
    ("iris.build_codes", iris, "build_codes", "self_ms"),
    ("iris.locate_pupil", iris, "locate_pupil", "ms"),
    ("iris.locate_iris_boundary", iris, "locate_iris_boundary", "ms"),
    ("iris.normalize", iris, "normalize", "ms"),
    ("iris.detect_eyelids", iris, "detect_eyelids", "ms"),
    ("iris.haar_code", iris, "haar_code", "ms"),
    ("iris.mellin_code", iris, "mellin_code", "ms"),
    ("iris.hamming_distance", iris, "hamming_distance", "ms"),
    ("fusion.fuse_pipeline", fusion, "fuse_pipeline", "ms"),
    ("registry.load_db", registry, "load_db", "ms"),
    ("registry.enroll", registry, "enroll", "self_ms"),
    ("registry.verify", registry, "verify", "self_ms"),
    ("registry.identify", registry, "identify", "self_ms"),
    ("registry.access", registry, "access", "self_ms"),
    ("registry.audit_append", registry.AuditLog, "append", "ms"),
    ("cli", cli, "main", "self_ms"),
)

# Counters read off return values: span name -> (counter, size of the result).
_COUNTERS = {
    "fingerprint.extract_minutiae": ("minutiae_raw", len),
    "fingerprint.build_template": (
        "minutiae_kept", lambda r: len(r[0] if isinstance(r, tuple) else r)),
}


class Tracer:
    """Span recorder over the program's public functions."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every target wherever its name is bound."""
        if self._patches:
            return
        for name, owner, attr, _ in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [mod for mod in list(sys.modules.values())
                            if mod is not owner
                            and getattr(mod, "__dict__", {}).get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Per span name: [self ns, calls]; self time excludes children."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            slot = out[name]
            slot[0] += end - start - child[i]
            slot[1] += 1
        return out

    def covered_ns(self) -> dict:
        """Per op: nanoseconds covered by top-level spans."""
        out: dict = defaultdict(int)
        for _, start, end, parent, op in self.spans:
            if parent < 0:
                out[op] += end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def span_cost_ns(calls: int = 20000) -> float:
    """Time one traced call adds: a wrapped no-op timed against the bare one."""
    def noop():
        return None

    elapsed = []
    for fn in (noop, Tracer()._wrap("noop", noop)):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter_ns() - t0)
    return (elapsed[1] - elapsed[0]) / calls
