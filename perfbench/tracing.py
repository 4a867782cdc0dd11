"""Traced runs: spans and counters around the program's layers.

The wrappers are installed from here, by replacing module attributes of the
imported ``spherediv`` modules (every module that imported the same function
object gets the wrapper), and removed again when the traced passes end;
nothing under ``src/`` is edited.  Spans are kept in memory as
(name, start, end, parent, op id) and written out when the run ends.  Hot
leaf calls (``gegenbauer.evaluate``, the ``QuadExt`` operators,
``unit_vectors_sum_is_zero``) get a call count and a total time instead of a
span each; a leaf call made inside another call of the same leaf group is
counted but not timed again.

Per-layer times are seconds per pass (each generated input run once).
Inclusive time counts the outermost span of a name; self time subtracts the
direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name)
SPANS = [
    ("serialize", "tuple_from_json", "serialize.tuple_from_json"),
    ("points", "validate_tuple", "points.validate_tuple"),
    ("zonal", "build_zonal_basis", "zonal.basis"),
    ("points", "enumerate_points", "zonal.enumerate_points"),
    ("obstruction", "certify_degrees", "obstruction.certify"),
    ("obstruction", "l_matrix", "obstruction.l_matrix"),
    ("obstruction", "extract_witness", "obstruction.witness"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "kernel_vector", "linalg.kernel"),
    ("circle", "classify", "circle.classify"),
    ("circle", "fractional_test", "circle.fractional_test"),
    ("circle", "verify_arcset", "circle.verify_arcset"),
    ("tiling", "solve", "tiling.solve"),
    ("actions", "enumerate_group", "actions.enumerate_group"),
    ("actions", "orbit", "actions.orbit"),
    ("actions", "common_fixed_point_test", "actions.fixed_point"),
    ("euler", "orbit_polytope", "euler.orbit_polytope"),
    ("euler", "face_lattice", "euler.face_lattice"),
    ("lifting", "verify_partition", "lifting.verify_partition"),
    ("synthesis", "complete_rows", "synthesis.complete_rows"),
    ("synthesis", "genericity_diagnostics", "synthesis.diagnostics"),
]
ROOT_SPAN = "cli"

QUAD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__")

# Counts that depend only on the inputs; two passes, and two runs with the
# same seed, must give them identically.
DETERMINISTIC = (
    "linalg.det_max_dim", "linalg.det_max_bits", "obstruction.l_entries",
    "gegenbauer.evaluate_calls", "cyclotomic.zero_test_calls", "tiling.nodes",
    "tiling.budget_exhausted", "lifting.retained_ratio",
)


def _bits(x) -> int:
    """Largest bit length among the rational parts of an exact scalar."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if hasattr(x, "terms"):  # CycloNum
        return max((_bits(c) for c in x.terms.values()), default=0)
    if hasattr(x, "a") and hasattr(x, "b"):  # QuadExt
        return max(_bits(x.a), _bits(x.b))
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.op = None
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self.leaf_depth: Counter = Counter()
        self.engines: list = []
        self.problems: list[str] = []  # budget stops that spent the wrong node count
        self.default_node_budget = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()
        self.active[self.spans[idx][0]] -= 1

    def _span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx)
                if after:
                    after(args, kwargs, None, exc)
                raise
            tracer.end(idx)
            if after:
                after(args, kwargs, result, None)
            return result
        return wrapper

    def _leaf(self, group: str, counter: str | None, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.counts[counter] += 1
            if tracer.leaf_depth[group]:
                return fn(*args, **kwargs)
            if group == "cyclotomic.zero_test" and tracer.active["circle.fractional_test"]:
                tracer.counts["circle.fractional_scan_steps"] += 1
            tracer.leaf_depth[group] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf_time[group] += perf_counter() - t0
                tracer.leaf_depth[group] -= 1
        return wrapper

    # -- counters fed by span exits ---------------------------------------------

    def _after_basis(self, args, kwargs, result, exc):
        self.counts["zonal.basis_calls"] += 1

    def _after_l_matrix(self, args, kwargs, result, exc):
        if exc is None:
            rotations, basis = args[2], args[3]
            self.counts["obstruction.l_entries"] += len(basis.points) ** 2 * rotations.r

    def _after_det(self, args, kwargs, result, exc):
        k = len(args[0])
        self.counts["linalg.det_calls"] += 1
        self.counts["linalg.det_ops"] += k ** 3 / 3
        self.maxima["linalg.det_max_dim"] = max(self.maxima["linalg.det_max_dim"], k)
        if exc is None:
            self.maxima["linalg.det_max_bits"] = max(self.maxima["linalg.det_max_bits"],
                                                     _bits(result))

    def _after_solve(self, args, kwargs, result, exc):
        nodes = sum(e.nodes for e in self.engines)
        self.engines.clear()
        self.counts["tiling.solve_calls"] += 1
        self.counts["tiling.nodes"] += nodes
        if exc is not None and type(exc).__name__ == "BudgetExceeded":
            self.counts["tiling.budget_exhausted"] += 1
            # the search stops at the first node past the budget it was given
            budget = kwargs.get("node_budget",
                                args[1] if len(args) > 1 else self.default_node_budget)
            if nodes != budget + 1:
                self.problems.append(f"op {self.op}: budget stop after {nodes} nodes, "
                                     f"budget {budget}")

    def _after_group(self, args, kwargs, result, exc):
        if exc is None and result.complete:
            self.maxima["actions.group_order_max"] = max(
                self.maxima["actions.group_order_max"], len(result.elements))

    def _after_polytope(self, args, kwargs, result, exc):
        if exc is None:
            self.maxima["euler.vertices_max"] = max(self.maxima["euler.vertices_max"],
                                                    len(result.vertices))

    def _after_partition(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["lifting.samples_requested"] += result.samples_requested
            self.counts["lifting.retained"] += result.retained

    # -- install / uninstall -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "spherediv" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"spherediv.{name}") for name in
                ("serialize", "points", "zonal", "obstruction", "linalg", "circle",
                 "tiling", "actions", "euler", "lifting", "synthesis", "gegenbauer",
                 "cyclotomic", "scalars")}
        after = {"zonal.basis": self._after_basis, "obstruction.l_matrix": self._after_l_matrix,
                 "linalg.det": self._after_det, "tiling.solve": self._after_solve,
                 "actions.enumerate_group": self._after_group,
                 "euler.orbit_polytope": self._after_polytope,
                 "lifting.verify_partition": self._after_partition}
        for mod, attr, name in SPANS:
            original = getattr(mods[mod], attr)
            self._patch_everywhere(original, self._span(name, original, after.get(name)))
        for mod, attr, group, counter in (
                ("gegenbauer", "evaluate", "gegenbauer.evaluate", "gegenbauer.evaluate_calls"),
                ("cyclotomic", "unit_vectors_sum_is_zero", "cyclotomic.zero_test",
                 "cyclotomic.zero_test_calls")):
            original = getattr(mods[mod], attr)
            self._patch_everywhere(original, self._leaf(group, counter, original))
        quad = mods["scalars"].QuadExt
        for attr in QUAD_OPS:
            counter = "scalars.quad_mul_calls" if "mul" in attr else None
            self._patch(quad, attr, self._leaf("scalars.quad_op", counter, getattr(quad, attr)))
        # private hooks: where the basis came from, and the search engine's
        # node count (the program does not report either yet)
        zonal = mods["zonal"]
        for attr, counter_of in (
                ("_greedy_select", lambda result: "zonal.basis_built"),
                ("_load_disk_cache",
                 lambda result: "zonal.basis_from_disk" if result is not None else None)):
            self._patch(zonal, attr, self._counted(getattr(zonal, attr), counter_of))
        self.default_node_budget = mods["tiling"].DEFAULT_NODE_BUDGET
        engine = mods["tiling"]._TilingSearch
        init = engine.__init__
        tracer = self

        @functools.wraps(init)
        def record_engine(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.engines.append(obj)
        self._patch(engine, "__init__", record_engine)

    def _counted(self, fn, counter_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter = counter_of(result)
            if counter:
                tracer.counts[counter] += 1
            return result
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per pass ------------------------------------------------------------------

    def take_pass(self) -> dict:
        """Counters and span sums of the ops since the last call; resets them."""
        spans = self.spans
        children = Counter()
        for name, start, end, parent, _ in spans:
            if parent is not None:
                children[parent] += end - start
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for idx, (name, start, end, parent, _) in enumerate(spans):
            self_time[name] += (end - start) - children[idx]
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                inclusive[name] += end - start
        ops = sum(1 for s in spans if s[0] == ROOT_SPAN)
        data = {"inclusive": inclusive, "self": self_time, "counts": Counter(self.counts),
                "maxima": Counter(self.maxima), "leaf_time": Counter(self.leaf_time),
                "ops": ops, "spans": spans}
        self.spans = []
        self.counts.clear()
        self.maxima.clear()
        self.leaf_time.clear()
        return data


def write_spans(path: str, passes: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, data in enumerate(passes, start=1):
            spans = data["spans"]
            for idx, (name, start, end, parent, op) in enumerate(spans):
                fh.write(json.dumps({"pass": number, "id": idx, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "op": op}) + "\n")


# -- per-layer metrics -------------------------------------------------------------

# (metric, span name) for span-derived inclusive and self times, in seconds
SPAN_METRICS = [
    ("serialize.tuple_from_json", "serialize.tuple_from_json"),
    ("points.validate_tuple", "points.validate_tuple"),
    ("zonal.basis", "zonal.basis"),
    ("zonal.enumerate_points", "zonal.enumerate_points"),
    ("obstruction.certify", "obstruction.certify"),
    ("obstruction.l_matrix", "obstruction.l_matrix"),
    ("obstruction.witness", "obstruction.witness"),
    ("linalg.det", "linalg.det"),
    ("linalg.kernel", "linalg.kernel"),
    ("circle.classify", "circle.classify"),
    ("circle.fractional_test", "circle.fractional_test"),
    ("circle.verify_arcset", "circle.verify_arcset"),
    ("tiling.solve", "tiling.solve"),
    ("actions.enumerate_group", "actions.enumerate_group"),
    ("actions.orbit", "actions.orbit"),
    ("actions.fixed_point", "actions.fixed_point"),
    ("euler.orbit_polytope", "euler.orbit_polytope"),
    ("euler.face_lattice", "euler.face_lattice"),
    ("lifting.verify_partition", "lifting.verify_partition"),
    ("synthesis.complete_rows", "synthesis.complete_rows"),
    ("synthesis.diagnostics", "synthesis.diagnostics"),
]
LEAF_METRICS = [("gegenbauer.evaluate_s", "gegenbauer.evaluate"),
                ("scalars.quad_op_s", "scalars.quad_op"),
                ("cyclotomic.zero_test_s", "cyclotomic.zero_test")]
COUNT_METRICS = [
    ("zonal.basis_calls", "lower"), ("zonal.basis_built", "lower"),
    ("zonal.basis_from_disk", "higher"), ("gegenbauer.evaluate_calls", "lower"),
    ("obstruction.l_entries", "lower"), ("linalg.det_calls", "lower"),
    ("linalg.det_ops", "lower"), ("scalars.quad_mul_calls", "lower"),
    ("cyclotomic.zero_test_calls", "lower"), ("circle.fractional_scan_steps", "lower"),
    ("tiling.solve_calls", "lower"), ("tiling.nodes", "lower"),
    ("tiling.budget_exhausted", "lower"),
]
MAX_METRICS = [("linalg.det_max_dim", "lower"), ("linalg.det_max_bits", "lower"),
               ("actions.group_order_max", "lower"), ("euler.vertices_max", "lower")]


def per_layer_spec() -> list[dict]:
    """Every per-layer metric name, unit and direction, in output order."""
    spec = [{"name": "cli.import_s", "unit": "s", "better": "lower"},
            {"name": "cli.self_ms", "unit": "ms", "better": "lower"}]
    for metric, _ in SPAN_METRICS:
        spec.append({"name": metric + "_s", "unit": "s", "better": "lower"})
        spec.append({"name": metric + "_self_s", "unit": "s", "better": "lower"})
    spec += [{"name": m, "unit": "s", "better": "lower"} for m, _ in LEAF_METRICS]
    spec += [{"name": m, "unit": "count", "better": b} for m, b in COUNT_METRICS]
    spec += [{"name": m, "unit": "count", "better": b} for m, b in MAX_METRICS]
    spec += [{"name": "tiling.nodes_per_s", "unit": "1/s", "better": "higher"},
             {"name": "lifting.samples_per_s", "unit": "1/s", "better": "higher"},
             {"name": "lifting.retained_ratio", "unit": "ratio", "better": "higher"},
             {"name": "trace.untraced_p50_ms", "unit": "ms", "better": "lower"},
             {"name": "trace.traced_p50_ms", "unit": "ms", "better": "lower"},
             {"name": "trace.overhead_ms", "unit": "ms", "better": "lower"}]
    return spec


def layer_values(passes: list[dict], import_s: float, untraced_p50_ms: float,
                 traced_p50_ms: float) -> dict[str, float]:
    """Per-layer values: times averaged over the traced passes, counts from
    the first pass (the passes must agree on them)."""
    k = len(passes)
    first = passes[0]

    def mean(key: str, name: str) -> float:
        return sum(p[key][name] for p in passes) / k

    ops = first["ops"] or 1
    out = {"cli.import_s": import_s,
           "cli.self_ms": 1000.0 * mean("self", ROOT_SPAN) / ops}
    for metric, span in SPAN_METRICS:
        out[metric + "_s"] = mean("inclusive", span)
        out[metric + "_self_s"] = mean("self", span)
    for metric, group in LEAF_METRICS:
        out[metric] = mean("leaf_time", group)
    for metric, _ in COUNT_METRICS:
        out[metric] = first["counts"][metric]
    for metric, _ in MAX_METRICS:
        out[metric] = first["maxima"][metric]
    solve_s = out["tiling.solve_s"]
    out["tiling.nodes_per_s"] = out["tiling.nodes"] / solve_s if solve_s else 0.0
    verify_s = out["lifting.verify_partition_s"]
    requested = first["counts"]["lifting.samples_requested"]
    out["lifting.samples_per_s"] = requested / verify_s if verify_s else 0.0
    out["lifting.retained_ratio"] = (first["counts"]["lifting.retained"] / requested
                                     if requested else 0.0)
    out["trace.untraced_p50_ms"] = untraced_p50_ms
    out["trace.traced_p50_ms"] = traced_p50_ms
    out["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
    return out


def deterministic_counts(data: dict) -> dict[str, float]:
    """The DETERMINISTIC counts of one pass."""
    counts, maxima = data["counts"], data["maxima"]
    requested = counts["lifting.samples_requested"]
    values = {**{k: counts[k] for k in counts}, **{k: maxima[k] for k in maxima}}
    values["lifting.retained_ratio"] = counts["lifting.retained"] / requested if requested else 0.0
    return {k: values.get(k, 0) for k in DETERMINISTIC}
