"""In-memory span tracer for the traced pass.

``Tracer.install`` replaces spikerec's layer functions at the names their
callers look them up by (``spikerec.eigenmatrix.compute_svd`` is what
``recover`` calls, ``spikerec.experiments.recover`` is what ``run_one``
calls), so no file of the program changes.  A span is
``[name, start, end, parent, record, extra]``: ``name`` is
``<layer module>.<function>``, ``parent`` the index of the enclosing span
(-1 for a root), and ``record`` the ordinal of the enclosing ``run_one``
call in this process (-1 outside one).  Spans stay in memory until the
process writes them out once at its end.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import sys
import time

SITES = {
    "spikerec.experiments": (
        "run_sweep", "run_one", "recover", "match_and_error", "generate_samples",
        "synthesize", "add_noise", "emit_report", "load_preset", "make_method",
    ),
    "spikerec.eigenmatrix": (
        "build_collocation_system", "compute_svd", "lcurve_select", "tikhonov_solve",
        "truncated_pinv_apply", "build_eigenmatrix", "krylov_original",
        "krylov_regularized", "esprit_extract", "recover_weights",
    ),
    "spikerec.cli": ("main", "run_sweep", "emit_report", "load_preset", "make_method"),
}
RECORD_SPAN = "experiments.run_one"


def _svd_gflop(shape) -> float:
    # Golub & Van Loan R-SVD count for U1, Sigma, V (6mn^2 + 20n^3, m >= n),
    # times 4 for complex arithmetic; computed from the shape, not measured.
    m, n = max(shape), min(shape)
    return 4.0 * (6.0 * m * n * n + 20.0 * n**3) * 1e-9


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._record = -1
        self._records = 0
        self._seen = set()

    def add(self, name, start, end, extra=None):
        """Record a finished span under the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self._record, extra])

    @contextlib.contextmanager
    def span(self, name, extra=None):
        """Open a span around the block; yields its extra dict."""
        extra = {} if extra is None else extra
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._record, extra]
        outer_record = self._record
        if name == RECORD_SPAN:
            self._record = span[4] = self._records
            self._records += 1
        # The calibration timer may add spans between any two statements
        # here; opening the span before its clock starts keeps them right.
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield extra
        except Exception:
            extra["failed"] = 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._record = outer_record

    def _seen_before(self, tag, *arrays) -> bool:
        # Identity of the inputs, for the repeat fractions.  Hashing is the
        # tracer's own work, so it gets its own span outside the layer's.
        start = time.perf_counter()
        h = hashlib.blake2b(tag.encode(), digest_size=16)
        for a in arrays:
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        key = h.digest()
        seen = key in self._seen
        self._seen.add(key)
        self.add("bench.fingerprint", start, time.perf_counter())
        return seen

    def _probe(self, name, args) -> dict:
        if name == "kernels.build_collocation_system":
            kernel, samples, nodes = args[:3]
            return {"repeat": self._seen_before(kernel.kind.value, samples.points, nodes.nodes)}
        if name == "regularization.compute_svd":
            return {
                "repeat": self._seen_before(name, args[0]),
                "gflop": _svd_gflop(args[0].shape),
            }
        return {}

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, self._probe(name, args)) as extra:
                result = fn(*args, **kwargs)
            if name == "experiments.emit_report":
                extra["bytes"] = sum(os.path.getsize(p) for p in result)
            return result

        return traced

    def install(self):
        """Wrap every call site of the spikerec modules already imported."""
        wrapped = {}
        for module_name, attrs in SITES.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr in attrs:
                fn = getattr(module, attr)
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(fn)
                setattr(module, attr, wrapped[fn])


def summarize(spans) -> dict:
    """Per span name: calls, self seconds and summed extras.

    Self time is a span's duration minus the part of it its direct children
    cover.
    """
    self_s = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1:3]
            self_s[parent] -= max(0.0, min(end, p_end) - max(start, p_start))
    table = {}
    for (name, *_, extra), s in zip(spans, self_s):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s
        for key, value in (extra or {}).items():
            row[key] = row.get(key, 0) + value
    return table
