"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the package's modules
(apart from the per-element helpers in ``HELPERS``, whose cost stays in
the caller's self time) with a wrapper, in every module namespace that
bound it, so calls from one module into another are seen too. Each call
becomes a span ``[name, start, end, parent, op, outermost]`` kept in
memory; ``layer_metrics`` turns a list of spans into the per-layer report.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

LAYERS = ("cli", "textform", "core", "constructions", "moves", "dimension", "homology", "intmat", "bridging")

# Per-element helpers called in inner loops; spans for them would cost more
# than the work they time.
HELPERS = {
    "core": {"zero_degree", "unit_degree", "deg_add", "deg_sub", "deg_join", "deg_leq", "deg_total",
             "vertex_path", "path_source", "path_degree"},
    "intmat": {"zeros", "identity", "mat_copy", "mat_eq", "shape", "vec_mat", "vec_add", "vec_sub",
               "vec_scale", "is_zero_vec", "is_nonneg_vec", "transpose", "stack_rows"},
    "dimension": {"dim_element", "unit_element", "zero_element", "dge_shift", "dge_scale", "dge_neg"},
}


def _max_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.op = 0
        self.counters = {"intmat.snf_max_bits": 0, "core.squares_validated": 0,
                         "textform.bytes_in": 0, "textform.bytes_out": 0,
                         "bridging.families_examined": 0}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -------------------------------------------------------------- install

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"kgraphs.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in HELPERS.get(layer, ())):
                    originals[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kgraphs" and not mod_name.startswith("kgraphs."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    setattr(mod, name, originals[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active, counters = self.spans, self.stack, self.active, self.counters
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, depth == 0]
            spans.append(span)
            stack.append(idx)
            active[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active[name] = depth
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper


def _snf_hook(c, args, result):
    c["intmat.snf_max_bits"] = max(c["intmat.snf_max_bits"], _max_bits(args[0]))


def _validate_hook(c, args, result):
    c["core.squares_validated"] += len(args[1])


def _parse_hook(c, args, result):
    c["textform.bytes_in"] += len(args[0].encode())


def _dump_hook(c, args, result):
    c["textform.bytes_out"] += len(result.encode())


def _search_hook(c, args, result):
    if type(result).__name__ == "Exhausted":
        c["bridging.families_examined"] += result.count


_HOOKS = {
    "intmat.smith_normal_form": _snf_hook,
    "core.validate_kgraph": _validate_hook,
    "textform.parse_kgraph_parts": _parse_hook,
    "textform.dump_kgraph": _dump_hook,
    "bridging.bridging_search": _search_hook,
}

# (metric, span name) pairs: `_calls` counts every call, `_s` is the time
# inside outermost calls (a recursive call is not counted twice).
CALLS = {
    "intmat.snf_calls": "intmat.smith_normal_form",
    "intmat.mat_mul_calls": "intmat.mat_mul",
    "core.vertex_matrix_calls": "core.vertex_matrix",
    "dimension.dge_eq_calls": "dimension.dge_eq",
    "moves.insplit_calls": "moves.insplit",
    "core.mce_calls": "core.mce",
    "core.validate_calls": "core.validate_kgraph",
    "bridging.search_calls": "bridging.bridging_search",
}
SECONDS = {
    "intmat.snf_s": "intmat.smith_normal_form",
    "intmat.mat_mul_s": "intmat.mat_mul",
    "core.vertex_matrix_s": "core.vertex_matrix",
    "dimension.dge_eq_s": "dimension.dge_eq",
    "dimension.rank_invariant_s": "dimension.rank_invariant",
    "homology.h0_s": "homology.h0",
    "dimension.iso_check_s": "dimension.iso_check",
    "moves.pairing_closure_s": "moves.pairing_closure",
    "core.mce_s": "core.mce",
    "core.validate_s": "core.validate_kgraph",
    "textform.parse_s": "textform.parse_kgraph_parts",
    "textform.dump_s": "textform.dump_kgraph",
    "bridging.coherence_check_s": "bridging.coherence_check",
    "dimension.sse_search_s": "dimension.sse_search",
    "bridging.search_s": "bridging.bridging_search",
}


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Call counts, inclusive times, per-layer self times (span time minus
    the time of its direct child spans) and the hook counters."""
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, outermost in spans:
        calls[name] = calls.get(name, 0) + 1
        if outermost:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, *_), child in zip(spans, child_time):
        self_s[name.split(".", 1)[0]] += (end - start) - child
    out: dict[str, float] = {}
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0)
    for metric, name in SECONDS.items():
        out[metric] = inclusive.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out.update(counters)
    search_s = out.pop("bridging.search_s")
    out["bridging.families_per_s"] = out["bridging.families_examined"] / search_s if search_s else 0.0
    return out


def merge_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = max(total.get(key, 0), value) if key.endswith("max_bits") else total.get(key, 0) + value
