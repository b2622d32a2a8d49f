"""Span tracing installed from outside the package, for the per-layer run.

`install` replaces public functions of the skeinkit modules, and a few
ring and diagram methods, with timing wrappers.  A function is rebound in
every skeinkit module that holds it under any name: `verify` and `cli`
import the evaluators by name, and `adjoint_homfly` reaches `homfly`
through the globals of `skein_eval`, so patching one module alone would
let calls escape the trace.

Layer calls (evaluators, verifier, CLI, diagram surgery, eigenvalues,
annulus plans) are kept as spans: name, start, end and parent span.  Ring
operations run hundreds of thousands of times per pass, so they are
counted and timed per name instead of stored one by one; they still count
as children of the span they run in.  A span's self time is its duration
minus the time its children cover.  A name's total time counts only its
outermost calls, so recursion (`realize_symbolic`, `expand_ylambda`) is
not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (skeinkit module, function) pairs traced as spans
_FUNCTIONS = (
    ("cli", "run"),
    ("verify", "verify_rudolph"),
    ("skein_eval", "homfly"),
    ("skein_eval", "kauffman"),
    ("skein_eval", "adjoint_homfly"),
    ("eigen", "kauffman_meridian_eigenvalue"),
    ("eigen", "isolating_polynomial"),
    ("eigen", "check_eigenvalue_distinctness"),
    ("annulus", "expand_ylambda"),
    ("annulus", "realize_symbolic"),
    ("annulus", "hsr_structure_check"),
)


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s, open calls]
        self.counters: dict[str, int] = {}
        # open frames: [seconds covered by children, index of the span]
        self._stack = [[0.0, -1]]

    def wrap(self, name, fn, keep_span=True, count=None):
        """Return `fn` timed under `name`; `count(counters, args, result)` adds tallies."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        counters = self.counters
        origin = self.origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[1]
            frame = [0.0, index]
            stack.append(frame)
            stats[3] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent[0] += took
                stats[3] -= 1
                stats[0] += 1
                if not stats[3]:
                    stats[1] += took
                stats[2] += took - frame[0]
                if keep_span:
                    spans[index] = (name, start - origin, end - origin, parent[1])
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls_under(self, span_name: str) -> dict[str, int]:
        """Span counts per name below every span called `span_name`."""
        inside = set()
        out: dict[str, int] = {}
        for index, (name, _start, _end, parent) in enumerate(self.spans):
            if name == span_name or parent in inside:
                inside.add(index)
                if name != span_name:
                    out[name] = out.get(name, 0) + 1
        return out


def _tally(key, measure):
    def count(counters, args, result):
        counters[key] = counters.get(key, 0) + measure(args, result)

    return count


def _rebind(original, replacement):
    for module_name, module in list(sys.modules.items()):
        if module_name != "skeinkit" and not module_name.startswith("skeinkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced skeinkit entry points in place, for the rest of the process."""
    from skeinkit.diagram import LinkDiagram
    from skeinkit.ring import LaurentPoly, RingElem

    input_crossings = _tally("skein_eval.crossings_in", lambda args, _r: len(args[0].crossings))
    output_crossings = _tally("diagram.crossings_out", lambda _a, result: len(result.crossings))
    for module_name, attr in _FUNCTIONS:
        module = importlib.import_module(f"skeinkit.{module_name}")
        original = getattr(module, attr)
        count = input_crossings if attr in ("homfly", "kauffman") else None
        _rebind(original, tracer.wrap(f"{module_name}.{attr}", original, count=count))

    for attr in ("cable", "with_meridians"):
        original = getattr(LinkDiagram, attr)
        setattr(LinkDiagram, attr, tracer.wrap(f"diagram.{attr}", original, count=output_crossings))

    def term_pairs(args, _result):
        a, b = args
        return len(a) * (len(b) if isinstance(b, LaurentPoly) else 1)

    mul = tracer.wrap(
        "ring.poly_mul",
        LaurentPoly.__mul__,
        keep_span=False,
        count=_tally("ring.poly_mul_term_pairs", term_pairs),
    )
    LaurentPoly.__mul__ = mul
    LaurentPoly.__rmul__ = mul
    LaurentPoly.try_div = tracer.wrap(
        "ring.try_div",
        LaurentPoly.try_div,
        keep_span=False,
        count=_tally("ring.try_div_exact", lambda _a, result: result is not None),
    )
    RingElem.__init__ = tracer.wrap("ring.elem_new", RingElem.__init__, keep_span=False)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures, keyed as in BENCHMARK.json's per_layer list."""
    out: dict[str, float] = {}
    for module_name, attr in _FUNCTIONS:
        name = f"{module_name}.{attr}"
        out[f"{name}_calls"] = tracer.calls(name)
        if name not in ("cli.run", "verify.verify_rudolph"):
            out[f"{name}_s"] = tracer.seconds(name)
    out["skein_eval.crossings_in"] = tracer.counters.get("skein_eval.crossings_in", 0)
    out["skein_eval.self_s"] = sum(
        tracer.self_seconds(f"skein_eval.{attr}")
        for attr in ("homfly", "kauffman", "adjoint_homfly")
    )
    out["verify.verify_rudolph_self_s"] = tracer.self_seconds("verify.verify_rudolph")
    out["cli.run_self_s"] = tracer.self_seconds("cli.run")
    for attr in ("cable", "with_meridians"):
        out[f"diagram.{attr}_calls"] = tracer.calls(f"diagram.{attr}")
        out[f"diagram.{attr}_s"] = tracer.seconds(f"diagram.{attr}")
    out["diagram.crossings_out"] = tracer.counters.get("diagram.crossings_out", 0)
    for name in ("ring.poly_mul", "ring.try_div", "ring.elem_new"):
        out[f"{name}_calls"] = tracer.calls(name)
        out[f"{name}_s"] = tracer.seconds(name)
    out["ring.poly_mul_term_pairs"] = tracer.counters.get("ring.poly_mul_term_pairs", 0)
    out["ring.try_div_exact_ratio"] = tracer.counters.get("ring.try_div_exact", 0) / max(
        tracer.calls("ring.try_div"), 1
    )
    return out
