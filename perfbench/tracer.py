"""Per-layer tracing from outside the program.

The tracer replaces a public function or method with a wrapper at every
place a caller looks it up: the attribute of each loaded matroidlab module
that holds the same object (so `engine.order_ideals` and the re-export in
the package both see the wrapper), or the attribute of the class for a
method.  A wrapper records one span: name, start, end and the span that was
open when it began.  Self time is a span's duration minus the time of the
spans nested directly inside it.  Aggregates are kept for every name; the
span records themselves are kept in memory for the coarse layers only and
written out when the run ends.

Hot, tiny calls (RowSpace.add, Matroid.is_independent) are counted without
a span, because a timed wrapper would cost more than the call.

`engine.sorted` is the builtin as the engine module looks it up: shadowing
it in that module's namespace gives a span to the grlex sort of the lower
ideal inside nbc_check, which no public function covers.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time

# (module, attribute path, kind): kind "span" times the call, "count" only
# counts it.  Names follow <module>.<public name>.
TARGETS = (
    ("engine", "nbc_check", "span"),
    ("engine", "search_orderings", "span"),
    ("engine", "order_ideals", "span"),
    ("engine", "lsop", "span"),
    ("engine", "sorted", "span"),
    ("incidence", "basis_is_nonsingular", "span"),
    ("complexes", "bc_faces", "span"),
    ("complexes", "f_h_vectors", "span"),
    ("polynomials", "monomials_independent_in_quotient", "span"),
    ("polynomials", "groebner_basis", "span"),
    ("polynomials", "normal_form", "span"),
    ("linalg", "RowSpace.add", "count"),
    ("linalg", "Matrix.rank", "span"),
    ("linalg", "Matrix.is_totally_unimodular", "span"),
    ("linalg", "tu_signing", "span"),
    ("matroids", "Matroid.representation_over", "span"),
    ("matroids", "Matroid.circuits", "span"),
    ("matroids", "Matroid.bases", "span"),
    ("matroids", "Matroid.is_independent", "count"),
    ("families", "theta_matroid", "span"),
    ("families", "phi_matroid", "span"),
)

# span records are kept only for these; the rest are aggregated
KEEP_SPANS = {
    "engine.nbc_check", "engine.search_orderings", "engine.order_ideals",
    "engine.lsop", "polynomials.monomials_independent_in_quotient",
    "polynomials.groebner_basis", "matroids.Matroid.representation_over",
    "families.theta_matroid", "families.phi_matroid",
}
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.extra: dict = {}
        self.spans: list = []
        self._stack: list = []  # [span id, child seconds]
        self._active: dict = {}
        self._patched: list = []  # (owner, attribute, original or None to delete)

    def install(self) -> None:
        """Wrap every target in the loaded package; call after the last import."""
        modules = [m for k, m in sys.modules.items() if k == "matroidlab" or k.startswith("matroidlab.")]
        for mod_name, path, kind in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules[f"matroidlab.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            shadow = not hasattr(owner, attr)  # a builtin the module looks up
            original = getattr(builtins, attr) if shadow else getattr(owner, attr)
            wrapper = self._counter(name, original) if kind == "count" else self._span(name, original)
            places = [(owner, attr)]
            if not cls_path and not shadow:
                places += [
                    (mod, key) for mod in modules for key, value in vars(mod).items()
                    if value is original and (mod, key) != (owner, attr)
                ]
            for place, key in places:
                setattr(place, key, wrapper)
                self._patched.append((place, key, None if shadow else original))
            self.calls[name] = 0
            if kind == "span":
                self.total[name] = 0.0
                self.self_time[name] = 0.0
        self.extra["engine.order_ideals.monomials"] = 0

    def uninstall(self) -> None:
        """Put every original back, so later calls are not traced."""
        for place, key, original in reversed(self._patched):
            if original is None:
                delattr(place, key)
            else:
                setattr(place, key, original)
        self._patched.clear()

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, active, spans = self._stack, self._active, self.spans
        keep = name in KEEP_SPANS
        on_result = self._lower_ideal_size if name == "engine.order_ideals" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = None
            if keep and len(spans) < SPAN_CAP:
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                sid = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_time[name] += dur - frame[1]
                if not active[name]:
                    total[name] += dur  # outermost call only, no double count
                if sid is not None:
                    spans[sid][1:3] = (t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _lower_ideal_size(self, result) -> None:
        _, lower = result
        self.extra["engine.order_ideals.monomials"] += len(lower)

    def metrics(self) -> dict:
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = (n, "count")
        for name, s in self.total.items():
            out[f"{name}.s"] = (s, "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for key, n in self.extra.items():
            out[key] = (n, "count")
        return out

    def dump(self, path: str) -> None:
        """Write the aggregates and the kept spans (ids are list positions)."""
        doc = {
            "aggregates": {k: v for k, (v, _) in sorted(self.metrics().items())},
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, (n, a, b, p) in enumerate(self.spans)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
