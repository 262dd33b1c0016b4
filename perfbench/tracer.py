"""Per-layer tracing from outside the library.

The tracer replaces selected functions and methods of the six modules with
timing wrappers, at every place they are bound: the defining module, every
module that imported them by name (``from .lincode import product_span``)
and the package namespace.  Patching only the defining module would miss
calls made through those other names.

Spans are aggregated at the boundary rather than stored one by one,
because the support search alone opens about half a million of them.  For
each function it keeps the call count and its self time (span duration
minus the time covered by traced child spans); for a generator, each
resumption is one span.  A few counts are taken at the same boundaries:
codewords yielded by span enumeration, support subsets scanned, distance
calls that ended capped.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("gf", "grm", "lincode", "qcode", "puncture", "cli")

# layer -> traced functions ("module.qualname"); self time is summed per layer
LAYERS = {
    "gf.matmul": ["gf.FieldSpec.matmul"],
    "grm.build_grm": ["grm.build_grm", "grm.grm_dual_code"],
    "lincode.rref": ["lincode.rref"],
    "lincode.kernel_basis": ["lincode.kernel_basis"],
    "lincode.support_search": ["lincode.min_weight_support_search"],
    "lincode.distance": ["lincode.exact_min_weight", "lincode.exact_difference_weight"],
    "lincode.span": [
        "lincode.iter_span_blocks",
        "lincode._base_block",
        "lincode._span_min_weight",
        "lincode.min_weight_difference",
        "lincode._extension_rows",
    ],
    "lincode.min_weight": ["lincode.LinearCode.min_weight", "lincode.LinearCode._partial_lower_bound"],
    "lincode.reduce": ["lincode.LinearCode.reduce"],
    "lincode.algebra": [
        "lincode.LinearCode.dual",
        "lincode.LinearCode.hermitian_dual",
        "lincode.LinearCode.frobenius_image",
        "lincode.LinearCode.trace_code",
        "lincode.LinearCode.restriction",
        "lincode.product_span",
    ],
    "qcode": [
        "qcode.css",
        "qcode.hermitian",
        "qcode.css_grm",
        "qcode.hermitian_grm",
        "qcode._min_weight_or_none",
        "qcode.hermitian_self_orthogonal",
        "qcode.StabilizerMatrix.symplectic_gram",
    ],
    "puncture.pcode": ["puncture.puncture_code_css", "puncture.puncture_code_hermitian"],
    "puncture.witness": ["puncture.find_weight_witness", "lincode.find_first_of_weight"],
    "puncture.materialize": ["puncture.puncture_css", "puncture.puncture_hermitian", "puncture.mds_chain"],
    "cli": ["cli.main", "cli.run_grm", "cli.run_quantum", "cli.run_puncture", "cli.run_sweep"],
}
LAYER_OF = {label: layer for layer, labels in LAYERS.items() for label in labels}

# entry points that answer "what is the minimum weight"; a CapExceeded
# leaving the outermost one is a capped distance
DISTANCE_ENTRIES = {
    "lincode.exact_min_weight",
    "lincode.exact_difference_weight",
    "lincode.min_weight_difference",
    "lincode.min_weight_support_search",
    "lincode.LinearCode.min_weight",
}
RECORD_MAKERS = ("qcode.css", "qcode.hermitian")
SUPPORT_SEARCH = "lincode.min_weight_support_search"
SPAN_BLOCKS = "lincode.iter_span_blocks"


class Tracer:
    """Install with ``with Tracer() as t:``; counts are read after exit."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.codewords = 0
        self.witness_codewords = 0
        self.subsets = 0
        self.dependent_subsets = 0
        self.capped = 0
        self.capped_s = 0.0
        self.qcode_distance_calls = 0
        self.unbound: list[str] = []
        self._stack: list = []
        self._distance_depth = 0
        self._witness_depth = 0
        self._restore: list = []

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        pkg = importlib.import_module("grmcodes")
        mods = [pkg] + [importlib.import_module(f"grmcodes.{name}") for name in MODULES]
        for label in sorted(LAYER_OF.keys() | DISTANCE_ENTRIES):
            modname, *path = label.split(".")
            owner = importlib.import_module(f"grmcodes.{modname}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = vars(owner).get(path[-1]) if owner is not None else None
            if original is None:
                self.unbound.append(label)
                continue
            wrapper = self._wrap(label, original)
            if len(path) > 1:  # a method: patch the class once
                self._patch(owner, path[-1], original, wrapper)
                continue
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, label: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(label, fn)
        from grmcodes.errors import CapExceeded

        tracer, stack, calls, self_s = self, self._stack, self.calls, self.self_s
        perf = time.perf_counter
        distance = label in DISTANCE_ENTRIES
        witness = LAYER_OF.get(label) == "puncture.witness"
        kernel = label == "lincode.kernel_basis"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            if distance:
                outermost = tracer._distance_depth == 0
                tracer._distance_depth += 1
                if parent is not None and LAYER_OF.get(parent[0]) == "qcode":
                    tracer.qcode_distance_calls += 1
            if witness:
                tracer._witness_depth += 1
            capped = False
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except CapExceeded:
                capped = True
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                calls[label] += 1
                self_s[label] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if distance:
                    tracer._distance_depth -= 1
                    if capped and outermost:
                        tracer.capped += 1
                        tracer.capped_s += dt
                if witness:
                    tracer._witness_depth -= 1
            if kernel and parent is not None and parent[0] == SUPPORT_SEARCH:
                tracer.subsets += 1
                tracer.dependent_subsets += result.shape[0] > 0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, label: str, fn):
        tracer, stack, calls, self_s = self, self._stack, self.calls, self.self_s
        perf = time.perf_counter
        count_rows = label == SPAN_BLOCKS

        def wrapper(*args, **kwargs):
            calls[label] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    parent = stack[-1] if stack else None
                    frame = [label, 0.0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf() - t0
                        stack.pop()
                        self_s[label] += dt - frame[1]
                        if parent is not None:
                            parent[1] += dt
                    if count_rows:
                        rows = item[1].shape[0]
                        tracer.codewords += rows
                        if tracer._witness_depth:
                            tracer.witness_codewords += rows
                    yield item
            finally:
                inner.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[label] for label in LAYERS[layer])

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s[label] for label in LAYERS[layer])

    def counts(self) -> dict:
        """Every count that must repeat exactly for the same code and cases."""
        out = {f"{label}.calls": n for label, n in sorted(self.calls.items())}
        out.update(
            {
                "lincode.span.codewords": self.codewords,
                "puncture.witness.codewords": self.witness_codewords,
                "lincode.support_search.subsets": self.subsets,
                "lincode.support_search.dependent": self.dependent_subsets,
                "lincode.distance.capped": self.capped,
                "qcode.distance_calls": self.qcode_distance_calls,
            }
        )
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as (value, unit)."""
        records = sum(self.calls[label] for label in RECORD_MAKERS)
        return {
            "gf.matmul.calls": (self.calls["gf.FieldSpec.matmul"], "count"),
            "gf.matmul.self_s": (self.layer_self_s("gf.matmul"), "s"),
            "grm.build_grm.calls": (self.calls["grm.build_grm"], "count"),
            "grm.build_grm.self_s": (self.layer_self_s("grm.build_grm"), "s"),
            "lincode.rref.calls": (self.calls["lincode.rref"], "count"),
            "lincode.rref.self_s": (self.layer_self_s("lincode.rref"), "s"),
            "lincode.kernel_basis.calls": (self.calls["lincode.kernel_basis"], "count"),
            "lincode.kernel_basis.self_s": (self.layer_self_s("lincode.kernel_basis"), "s"),
            "lincode.support_search.subsets": (self.subsets, "count"),
            "lincode.support_search.self_s": (self.layer_self_s("lincode.support_search"), "s"),
            "lincode.support_search.dependent_ratio": (
                self.dependent_subsets / self.subsets if self.subsets else 0.0,
                "ratio",
            ),
            "lincode.distance.capped": (self.capped, "count"),
            "lincode.distance.capped_s": (self.capped_s, "s"),
            "lincode.span.codewords": (self.codewords, "count"),
            "lincode.span.self_s": (self.layer_self_s("lincode.span"), "s"),
            "lincode.min_weight.self_s": (self.layer_self_s("lincode.min_weight"), "s"),
            "lincode.reduce.self_s": (self.layer_self_s("lincode.reduce"), "s"),
            "lincode.algebra.self_s": (self.layer_self_s("lincode.algebra"), "s"),
            "qcode.distance_calls_per_record": (
                self.qcode_distance_calls / records if records else 0.0,
                "ratio",
            ),
            "qcode.self_s": (self.layer_self_s("qcode"), "s"),
            "puncture.pcode.self_s": (self.layer_self_s("puncture.pcode"), "s"),
            "puncture.witness.codewords": (self.witness_codewords, "count"),
            "puncture.witness.self_s": (self.layer_self_s("puncture.witness"), "s"),
            "puncture.materialize.self_s": (self.layer_self_s("puncture.materialize"), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        }
