"""Span tracing installed from outside jtkit.

``Tracer.install()`` replaces the public functions of each layer with
timing wrappers on every module that binds them (``sequences`` imports
``det_bareiss`` by name, ``quadric`` imports ``jt_minor`` and so on), and the
hot methods by assignment on their class.  The ``__mul__`` wrappers count
and time only products of two ring elements, not integer scalings.  ``uninstall()`` puts the
originals back.

Each wrapped call pushes a frame; on return its duration is charged to the
caller's frame, so a name's self time is its span time minus the time of the
wrapped calls made inside it.  Spans of non-hot names are kept in memory as
(name, start_ns, end_ns, parent, op) with parent the index of the enclosing
span, or -1.  Hot names (``GradedSequence.term``, ``mult_one`` and the
partition generators' ``next``) are counted and timed without span records.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter_ns

# (module, attribute, metric name, hot)
FUNCTIONS = (
    ("jtkit.determinant", "det_expand", "determinant.det_expand", False),
    ("jtkit.determinant", "det_bareiss", "determinant.det_bareiss", False),
    ("jtkit.symfunc", "mult_one", "symfunc.mult_one", True),
    ("jtkit.symfunc", "lr_coefficient", "symfunc.lr_coefficient", False),
    ("jtkit.symfunc", "dim_super", "symfunc.dim_super", False),
    ("jtkit.symfunc", "dim_gl_skew", "symfunc.dim_gl_skew", False),
    ("jtkit.sequences", "jt_minor", "sequences.jt_minor", False),
    ("jtkit.sequences", "e_class", "sequences.e_class", False),
    ("jtkit.sequences", "pf_check", "sequences.pf_check", False),
    ("jtkit.quadric", "quadric_schur_dim", "quadric.quadric_schur_dim", False),
    ("jtkit.quadric", "multigraded_hs_check", "quadric.multigraded_hs_check", False),
    ("jtkit.quadric", "orthogonal_stable_decomposition", "quadric.orthogonal_stable_decomposition", False),
    ("jtkit.resolutions", "validate_purity", "resolutions.validate_purity", False),
    ("jtkit.resolutions", "quadric_pure_resolution", "resolutions.quadric_pure_resolution", False),
    ("jtkit.resolutions", "rnc_pure_resolution", "resolutions.rnc_pure_resolution", False),
    ("jtkit.resolutions", "hk_solve", "resolutions.hk_solve", False),
    ("jtkit.zelevinsky", "jt_complex_layout", "zelevinsky.jt_complex_layout", False),
)
GENERATORS = (
    ("jtkit.shapes", "scan_partitions", "shapes.scan_partitions"),
    ("jtkit.shapes", "subpartitions", "shapes.subpartitions"),
)
# (module, class, method, metric name, hot)
METHODS = (
    ("jtkit.symfunc", "SchurClass", "__mul__", "symfunc.class_mul", False),
    ("jtkit.powerseries", "TruncSeries", "__mul__", "powerseries.mul", False),
    ("jtkit.powerseries", "TruncSeries", "inverse", "powerseries.inverse", False),
    ("jtkit.sequences", "GradedSequence", "term", "sequences.term", True),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self.op = -1
        self._stack: list = []  # open frames: [span index or -1, child ns]
        self._pf_depth = 0
        self._restore: list = []

    # ---- recording ----------------------------------------------------------

    def _call(self, name, hot, fn, args, kwargs):
        stack = self._stack
        parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
        idx = -1
        if not hot:
            idx = len(self.spans)
            self.spans.append(None)
        frame = [idx, 0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[1]
            if idx >= 0:
                self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name, fn, hot, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._call(name, hot, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer._call(name, True, next, (it,), {})
                except StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- observers: counts taken at the boundary ---------------------------

    def _obs_det_expand(self, args, kwargs, result):
        self.counts["determinant.det_expand.max_order"] = max(
            self.counts["determinant.det_expand.max_order"], len(args[0])
        )

    def _obs_jt_minor(self, args, kwargs, result):
        if self._pf_depth and (result == 0 if isinstance(result, int) else result.is_zero()):
            self.counts["sequences.pf_check.vanished"] += 1

    def _obs_mult_one(self, args, kwargs, result):
        self.distinct["symfunc.mult_one"].add((args[0], args[1]))

    def _obs_term(self, args, kwargs, result):
        self.distinct["sequences.term"].add((args[0].name, args[1]))

    def _obs_series_mul(self, args, kwargs, result):
        self.counts["powerseries.mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)

    def _obs_layout(self, args, kwargs, result):
        self.counts["zelevinsky.jt_complex_layout.terms"] += len(result.terms)

    # ---- special cases ------------------------------------------------------

    def _pf_check(self, fn):
        inner = self.wrap("sequences.pf_check", fn, False)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._pf_depth += 1
            try:
                report = inner(*args, **kwargs)
            finally:
                tracer._pf_depth -= 1
            tracer.counts["sequences.pf_check.minors_checked"] += report.checked
            return report

        wrapper.__wrapped__ = fn
        return wrapper

    def _quadric_schur_dim(self, fn):
        # one metric per method, since the three routes are different kernels
        wrapped = {m: self.wrap(f"quadric.quadric_schur_dim.{m}", fn, False) for m in ("jt", "vertical_strip", "super")}

        def wrapper(ctx, shape, method="jt"):
            return wrapped.get(method, fn)(ctx, shape, method)

        wrapper.__wrapped__ = fn
        return wrapper

    def _ring_mul(self, name, fn, observe=None):
        # only ring multiplications: an integer scaling is not one
        inner = self.wrap(name, fn, False, observe)

        def wrapper(a, b):
            return inner(a, b) if type(b) is type(a) else fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        observers = {
            "determinant.det_expand": self._obs_det_expand,
            "sequences.jt_minor": self._obs_jt_minor,
            "symfunc.mult_one": self._obs_mult_one,
            "zelevinsky.jt_complex_layout": self._obs_layout,
        }
        for module, attr, name, hot in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            if name == "sequences.pf_check":
                wrapper = self._pf_check(fn)
            elif name == "quadric.quadric_schur_dim":
                wrapper = self._quadric_schur_dim(fn)
            else:
                wrapper = self.wrap(name, fn, hot, observers.get(name))
            self._rebind(fn, wrapper)
        for module, attr, name in GENERATORS:
            fn = getattr(sys.modules[module], attr)
            self._rebind(fn, self._wrap_generator(name, fn))
        method_observers = {"powerseries.mul": self._obs_series_mul, "sequences.term": self._obs_term}
        for module, cls_name, attr, name, hot in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            fn = cls.__dict__[attr]
            if attr == "__mul__":
                wrapper = self._ring_mul(name, fn, method_observers.get(name))
            else:
                wrapper = self.wrap(name, fn, hot, method_observers.get(name))
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, fn))
        return self

    def _rebind(self, fn, wrapper):
        """Replace fn by wrapper on every loaded jtkit module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "jtkit" or modname.startswith("jtkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # ---- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-name totals, mergeable across processes by addition."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
