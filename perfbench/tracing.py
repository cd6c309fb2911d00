"""Spans and counters for the traced run, installed from outside the
library by replacing its functions with timing wrappers.

Every wrapped call records a span (name, start, end, parent) in a flat
in-memory array.  A function imported by name into several modules is
replaced in each of them, so calls through any import are seen.  The
library's lru_cache functions are wrapped from outside, so cache hits
still count as calls; hit ratios come from their cache_info().  A
layer's self time is the time of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from array import array
from collections import Counter

PACKAGE = "shifted_tableaux"
LAYERS = ("core", "enumeration", "jdt", "switching", "bender_knuth",
          "engine", "cli")

# functions wrapped in each layer; a name the library no longer has is
# skipped, and its metrics read 0
FUNCTIONS = {
    "core": ("canonicalize", "standardize", "destandardize",
             "restrict_interval", "reassemble", "reindex", "parse_tableau",
             "render_text", "to_json"),
    "enumeration": ("enumerate_tableaux", "_is_canonical", "straight_shapes",
                    "skew_shapes"),
    "jdt": ("rectify", "reversal", "eta", "sigma", "evacuation_jdt",
            "complement", "inner_slide", "outer_slide", "inner_corners"),
    "switching": ("switch_pair", "full_switch", "evac_switch", "evac_skew",
                  "evac_k_switch", "evac_k_skew", "evac_interval_skew"),
    "bender_knuth": ("bk", "bk_trace", "promotion", "q", "q_interval"),
    "engine": ("apply_symbol", "eval_word", "parse_word", "verify_relation",
               "verify_relation_over", "verify_cactus_action",
               "search_counterexample", "orbit_graph", "run_preset",
               "straight_families", "skew_families"),
    "cli": ("main",),
}
EVAC = ("evac_switch", "evac_skew", "evac_k_switch", "evac_k_skew",
        "evac_interval_skew")
# engine entry points whose verdicts count instances when no other
# engine call is running
ENGINE_ENTRIES = ("run_preset", "verify_relation_over", "verify_relation",
                  "verify_cactus_action", "search_counterexample")
RULES = tuple(f"S{k}" for k in range(1, 8))
FIELDS = 4  # name id, start ns, end ns, parent span index (-1 for a root)


class Tracer:
    """Wrappers, spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.rules: Counter = Counter()
        self.hashes = itertools.count()
        self.originals: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        core = self._module("core")
        hooks = self._hooks()
        for layer, names in FUNCTIONS.items():
            module = self._module(layer)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                self.originals[f"{layer}.{name}"] = fn
                before, after = hooks.get(f"{layer}.{name}", (None, None))
                self._replace(fn, self._wrap(f"{layer}.{name}", layer, fn,
                                             before, after))
        tableau = core.ShiftedTableau
        self._set(tableau, "__init__",
                  self._wrap("core.construct", "core", tableau.__init__))
        original_hash, hashes = tableau.__hash__, self.hashes

        def counted_hash(t):
            next(hashes)
            return original_hash(t)
        self._set(tableau, "__hash__", counted_hash)
        from_cells = vars(core.ShiftedSkewShape)["from_cells"].__func__
        self._set(core.ShiftedSkewShape, "from_cells", classmethod(
            self._wrap("core.from_cells", "core", from_cells)))
        evac_core = getattr(self._module("switching"), "_evac_core", None)
        if evac_core is not None:
            self.originals["switching._evac_core"] = evac_core

    def uninstall(self) -> None:
        """Put every original back, and check that none is left wrapped."""
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        for module in self.modules:
            for attr, value in vars(module).items():
                if getattr(value, "__perfbench_wrapper__", False):
                    raise RuntimeError(f"{module.__name__}.{attr} still wrapped")

    def _module(self, layer: str):
        return self.modules[1 + LAYERS.index(layer)]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace(self, original, wrapper) -> None:
        """Rebind every module-level name that refers to original."""
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        lid = self.layer_of[nid]
        spans, stack, layer_of = self.spans, self.stack, self.layer_of
        errors, clock = self.errors, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            token = before() if before else None
            idx = len(spans) // FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end = clock()
                stack.pop()
                spans[idx * FIELDS + 1], spans[idx * FIELDS + 2] = start, end
                if not stack or layer_of[spans[stack[-1] * FIELDS]] != lid:
                    errors[layer] += 1
                raise
            end = clock()
            stack.pop()
            spans[idx * FIELDS + 1], spans[idx * FIELDS + 2] = start, end
            if after:
                after(result, end - start, token)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- counters read from return values ----------------------------------

    def _on_stack(self, name: str) -> bool:
        return any(self.names[self.spans[s * FIELDS]] == name
                   for s in self.stack)

    def _hooks(self) -> dict:
        counts, rules = self.counts, self.rules
        rectify = getattr(self._module("jdt"), "rectify", None)
        engine_layer = LAYERS.index("engine")

        def enumerated(family, ns, _):
            counts["enumeration.tableaux"] += len(family)
            counts["enumeration.ns"] += ns
            if self._on_stack("engine.search_counterexample"):
                counts["engine.search.shapes"] += 1

        def rectify_misses():
            info = getattr(rectify, "cache_info", None)
            return info().misses if info else None

        def rectified(result, ns, misses_before):
            # a cache hit replays no slides
            if misses_before is None \
                    or rectify.cache_info().misses > misses_before:
                counts["jdt.slides"] += len(result[1])

        def switched_pair(result, ns, _):
            counts["switching.steps"] += len(result[2])
            rules.update(rule for rule, _ in result[2])

        def switched_full(result, ns, _):
            counts["switching.steps"] += len(result[2])
            rules.update(step.rule for step in result[2])

        def verdict(result, ns, _):
            if any(self.layer_of[self.spans[s * FIELDS]] == engine_layer
                   for s in self.stack):
                return
            results = result if isinstance(result, list) else [result]
            counts["engine.instances"] += sum(
                getattr(r, "verdict", r).instances_checked for r in results)
            counts["engine.ns"] += ns

        def orbit(graph, ns, _):
            counts["engine.orbit.nodes"] += len(graph.nodes)

        hooks = {"enumeration.enumerate_tableaux": (None, enumerated),
                 "jdt.rectify": (rectify_misses, rectified),
                 "switching.switch_pair": (None, switched_pair),
                 "switching.full_switch": (None, switched_full),
                 "engine.orbit_graph": (None, orbit)}
        hooks.update({f"engine.{name}": (None, verdict)
                      for name in ENGINE_ENTRIES})
        return hooks

    # -- results ----------------------------------------------------------

    def per_name(self) -> tuple[Counter, Counter]:
        """Calls and self time in ns, by span name."""
        spans, count = self.spans, len(self.spans) // FIELDS
        child = array("q", bytes(8 * count))
        for idx in range(count):
            parent = spans[idx * FIELDS + 3]
            if parent >= 0:
                child[parent] += spans[idx * FIELDS + 2] - spans[idx * FIELDS + 1]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for idx in range(count):
            name = self.names[spans[idx * FIELDS]]
            calls[name] += 1
            self_ns[name] += (spans[idx * FIELDS + 2] - spans[idx * FIELDS + 1]
                              - child[idx])
        return calls, self_ns

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls, self_ns = self.per_name()
        layer_self = Counter()
        for name, ns in self_ns.items():
            layer_self[name.split(".")[0]] += ns
        counts = self.counts

        def hit_ratio(key: str) -> float:
            fn = self.originals.get(key)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            if info is None or info.hits + info.misses == 0:
                return 0.0
            return info.hits / (info.hits + info.misses)

        candidates = calls["enumeration._is_canonical"]
        tableaux = counts["enumeration.tableaux"]
        out = {
            "bender_knuth.bk.calls": (calls["bender_knuth.bk"], "count"),
            "bender_knuth.bk.hit_ratio": (hit_ratio("bender_knuth.bk"), "ratio"),
            "bender_knuth.promotion.calls": (calls["bender_knuth.promotion"], "count"),
            "bender_knuth.q.calls": (calls["bender_knuth.q"], "count"),
            "bender_knuth.q_interval.calls": (calls["bender_knuth.q_interval"], "count"),
            "switching.switch_pair.calls": (calls["switching.switch_pair"], "count"),
            "switching.steps": (counts["switching.steps"], "count"),
            **{f"switching.rule.{r}": (self.rules[r], "count") for r in RULES},
            "switching.evac.calls": (sum(calls[f"switching.{e}"] for e in EVAC), "count"),
            "switching.evac.hit_ratio": (hit_ratio("switching._evac_core"), "ratio"),
            "switching.full_switch.calls": (calls["switching.full_switch"], "count"),
            "jdt.rectify.calls": (calls["jdt.rectify"], "count"),
            "jdt.rectify.hit_ratio": (hit_ratio("jdt.rectify"), "ratio"),
            "jdt.slides": (counts["jdt.slides"] + calls["jdt.outer_slide"]
                           + calls["jdt.inner_slide"], "count"),
            "jdt.reversal.calls": (calls["jdt.reversal"], "count"),
            "jdt.reversal.hit_ratio": (hit_ratio("jdt.reversal"), "ratio"),
            "jdt.eta.calls": (calls["jdt.eta"], "count"),
            "jdt.eta.hit_ratio": (hit_ratio("jdt.eta"), "ratio"),
            "core.construct.calls": (calls["core.construct"], "count"),
            "core.construct.self_s": (self_ns["core.construct"] / 1e9, "s"),
            "core.canonicalize.calls": (calls["core.canonicalize"], "count"),
            "core.standardize.calls": (calls["core.standardize"], "count"),
            "core.destandardize.calls": (calls["core.destandardize"], "count"),
            "core.hash.calls": (next(self.hashes), "count"),
            "enumeration.calls": (calls["enumeration.enumerate_tableaux"], "count"),
            "enumeration.tableaux": (tableaux, "count"),
            "enumeration.us_per_tableau": (
                counts["enumeration.ns"] / 1e3 / tableaux if tableaux else 0.0, "us"),
            # with no separate candidate filter every candidate is kept
            "enumeration.kept_ratio": (
                tableaux / candidates if candidates else 1.0, "ratio"),
            "engine.instances": (counts["engine.instances"], "count"),
            "engine.instances_per_s": (
                counts["engine.instances"] * 1e9 / counts["engine.ns"]
                if counts["engine.ns"] else 0.0, "1/s"),
            "engine.apply_symbol.calls": (calls["engine.apply_symbol"], "count"),
            "engine.orbit.nodes": (counts["engine.orbit.nodes"], "count"),
            "engine.search.shapes": (counts["engine.search.shapes"], "count"),
            "cli.queries": (calls["cli.main"], "count"),
            "trace.spans": (len(self.spans) // FIELDS, "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out

    def write(self, path: str) -> None:
        """Spans as raw int64 rows of FIELDS, plus a JSON header beside them."""
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "dtype": "int64, native byte order",
                       "spans": len(self.spans) // FIELDS,
                       "names": self.names}, fh)
