"""Span tracing of the `aldbraid` layers, installed from outside the package.

`Tracer.install()` wraps every public function of every `aldbraid` module
(a module-level function or cached function whose name has no leading
underscore) at every module binding that holds it.  Modules import by name
(`from .braids import braid_equal`), so each importing module, the package
and the benchmark's own modules get the wrapper too.

A call through a binding in another module than the function's own is a
layer boundary and opens a span (name, start, end, parent).  Calls from
inside the defining module open a span only for the functions in `INNER`,
the entry points the per-layer metrics are taken at; the module's other
helpers keep their own binding, run unwrapped, and their time stays in
their caller's self time.  Spans are kept in flat arrays in memory, and
`dump()` writes them out after the run.

A call made while the innermost open span belongs to the same function
opens none, so only the outermost call of a recursive function (`inv_I`,
`inv_J`, `eval_star_braid`, `diagram_eval_term`, `size`, ...) is a span.  A
function that returns a generator also gets one span per `next()`, so the
time spent producing items counts where it is spent.

A few boundaries record a count from their arguments or result (letters in,
states visited, verdicts); `layer_metrics()` derives the per-layer metrics
from the spans and those counts.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types
from array import array
from collections import defaultdict

MODULES = ("terms", "invariants", "braids", "ldoracle", "pbwords", "diagrams", "cli")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Functions that open a span on calls from inside their own module too.
INNER = {
    "terms": ("enumerate_terms", "apply_law", "law_instances", "circ_less", "seq_sq"),
    "invariants": ("inv_I", "inv_J", "ald_class_key", "decide_ald"),
    "braids": ("handle_reduce", "braid_compare", "eval_star_braid"),
    "ldoracle": ("ld_closure", "decide_ld_1var", "decide_ld_bounded"),
    "pbwords": ("pb_eval_term", "pb_eval_closed"),
    "diagrams": (
        "diagram_reduce",
        "diagram_multiply",
        "diagram_equal",
        "split_strand",
        "reduction_sites",
        "word_to_diagram",
        "diagram_eval_term",
    ),
    "cli": ("freeness_scan", "relation_audit"),
}


def out_path(workload: str, seed: int, ext: str) -> str:
    """Where a traced run of `workload` with `seed` writes its `ext` file."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.{ext}")


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("site_yield", "overhead")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self, extra_modules=()):
        self.mods = [importlib.import_module(f"aldbraid.{m}") for m in MODULES]
        self.bindings = self.mods + [importlib.import_module("aldbraid")] + list(extra_modules)
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.originals: dict = {}  # qualified name -> original callable
        self._patched: list = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def _public_functions(self) -> dict:
        found = {}
        for mod in self.mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if getattr(target, "__module__", None) != mod.__name__:
                    continue
                found[id(obj)] = (f"{short}.{attr}", obj, mod)
        return found

    def install(self) -> None:
        public = self._public_functions()
        wrappers = {}
        for key, (qual, obj, home) in public.items():
            self.originals[qual] = obj
            wrappers[key] = (self._wrap(obj, self._name_id(qual), HOOKS.get(qual)), qual, home)
        for mod in self.bindings:
            for attr, obj in list(vars(mod).items()):
                found = wrappers.get(id(obj))
                if found is None:
                    continue
                wrapper, qual, home = found
                module, name = qual.split(".")
                if mod is home and name not in INNER.get(module, ()):
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _name_id(self, qual: str) -> int:
        self.names.append(qual)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int, hook):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        def open_span() -> int:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            starts.append(clock())
            stack.append(idx)
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        class TimedIter:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = open_span()
                try:
                    return next(self.it)
                finally:
                    close_span(idx)

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if hook is not None:
                hook(tracer, args, result)
            if isinstance(result, types.GeneratorType):
                return TimedIter(result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def dump(self, path: str) -> None:
        """Write the name table as JSON, then the four span arrays, raw."""
        with open(path, "wb") as fh:
            header = json.dumps(
                {
                    "names": self.names,
                    "spans": self.span_count(),
                    "arrays": [
                        ["name", self.span_name.typecode],
                        ["parent", self.span_parent.typecode],
                        ["start", self.span_start.typecode],
                        ["end", self.span_end.typecode],
                    ],
                    "byteorder": sys.byteorder,
                }
            ).encode()
            fh.write(header + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per-name span count, inclusive time of outermost spans, self time,
        and the few parent-child tallies the per-layer metrics need."""
        names, parents = self.span_name, self.span_parent
        ids = {qual: k for k, qual in enumerate(self.names)}
        count = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        child_of = defaultdict(int)  # (parent name, child name) -> spans
        dur = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        child_time = array("d", bytes(8 * len(dur)))
        # a span is nested when an ancestor belongs to its nesting group;
        # inclusive totals skip nested spans so that no time counts twice
        group_bit = {
            ids[qual]: 1 << g for g, members in enumerate(NESTING_GROUPS) for qual in members if qual in ids
        }
        groups_open = bytearray(len(dur))
        nested = bytearray(len(dur))
        scan_id = ids.get("cli.freeness_scan", -1)
        equal_id = ids.get("diagrams.diagram_equal", -1)
        choice_ids = {ids.get("terms.circ_less", -1), ids.get("terms.seq_sq", -1)}
        last_scan_child = -1
        critical_equal = 0
        for i in range(len(dur)):
            nid = names[i]
            p = parents[i]
            count[nid] += 1
            above = 0
            if p >= 0:
                child_time[p] += dur[i]
                child_of[(names[p], nid)] += 1
                above = groups_open[p]
                if names[p] == scan_id:
                    if nid == equal_id and last_scan_child in choice_ids:
                        critical_equal += 1
                    last_scan_child = nid
            bit = group_bit.get(nid, 0)
            nested[i] = 1 if above & bit else 0
            groups_open[i] = above | bit
        for i in range(len(dur)):
            nid = names[i]
            self_s[nid] += dur[i] - child_time[i]
            if not nested[i]:
                total_s[nid] += dur[i]
        by_name = {
            qual: {"spans": count[k], "total_s": total_s[k], "self_s": self_s[k]}
            for k, qual in enumerate(self.names)
            if count[k]
        }
        tallies = {f"{self.names[a]}>{self.names[b]}": v for (a, b), v in child_of.items()}
        return {"by_name": by_name, "children": tallies, "critical_equal_calls": critical_equal}

    def layer_metrics(self, summary: dict) -> dict:
        by_name, children = summary["by_name"], summary["children"]
        c, mx = self.counts, self.maxima

        def spans(*quals) -> int:
            return sum(by_name.get(q, {}).get("spans", 0) for q in quals)

        def total(*quals) -> float:
            return sum(by_name.get(q, {}).get("total_s", 0.0) for q in quals)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        reduce_q = "diagrams.diagram_reduce"
        sites_tried = children.get(f"{reduce_q}>diagrams.split_strand", 0)
        # each accepted site restarts the search for sites in the reduced diagram
        sites_accepted = children.get(f"{reduce_q}>diagrams.reduction_sites", 0) - spans(reduce_q)
        cache = self.originals.get("braids.eval_star_braid")
        out = {
            "terms.enumerate_s": total("terms.enumerate_terms"),
            "terms.order_s": total("terms.circ_less", "terms.seq_sq"),
            "terms.law_steps": spans("terms.apply_law"),
            "terms.law_instances_s": total("terms.law_instances"),
            "invariants.inv_s": total("invariants.inv_I", "invariants.inv_J"),
            "invariants.partition_s": total("invariants.ald_class_key"),
            "invariants.class_index_compares": children.get(
                "invariants.ald_class_key>braids.braid_compare", 0
            ),
            "ldoracle.closure_calls": spans("ldoracle.ld_closure"),
            "ldoracle.closure_states": c["closure_states"],
            "ldoracle.closure_states_per_s": ratio(c["closure_states"], total("ldoracle.ld_closure")),
            "ldoracle.closure_s": total("ldoracle.ld_closure"),
            "ldoracle.unknown_pairs": c["unknown_pairs"],
            "ldoracle.decide_1var_s": total("ldoracle.decide_ld_1var"),
            "braids.handle_reduce_calls": spans("braids.handle_reduce"),
            "braids.handle_reduce_s": total("braids.handle_reduce"),
            "braids.letters_in": c["letters_in"],
            "braids.letters_per_s": ratio(c["letters_in"], total("braids.handle_reduce")),
            "braids.max_word_len": mx["word_len"],
            "braids.eval_star_s": total("braids.eval_star_braid"),
            "braids.eval_cache_entries": cache.cache_info().currsize if cache else 0,
            "pbwords.eval_s": total("pbwords.pb_eval_term", "pbwords.pb_eval_closed"),
            "pbwords.letters_out": c["letters_out"],
            "diagrams.word_to_diagram_s": total("diagrams.word_to_diagram"),
            "diagrams.multiply_calls": spans("diagrams.diagram_multiply"),
            "diagrams.eval_term_s": total("diagrams.diagram_eval_term"),
            "diagrams.reduce_calls": spans(reduce_q),
            "diagrams.reduce_s": total(reduce_q),
            "diagrams.sites_tried": sites_tried,
            "diagrams.sites_accepted": sites_accepted,
            "diagrams.site_yield": ratio(sites_accepted, sites_tried),
            "diagrams.equal_calls": spans("diagrams.diagram_equal"),
            "diagrams.equal_s": total("diagrams.diagram_equal"),
            "diagrams.split_strand_calls": spans("diagrams.split_strand"),
            "diagrams.max_strands": mx["strands"],
            "cli.scan_s": total("cli.freeness_scan"),
            "cli.critical_pairs": c["critical_pairs"],
            "cli.critical_equal_calls": summary["critical_equal_calls"],
            "cli.audit_s": total("cli.relation_audit"),
        }
        return out


#: Names whose spans can nest inside one another; their inclusive time
#: counts only the outermost span of the group.
NESTING_GROUPS = (
    ("invariants.inv_I", "invariants.inv_J"),
    ("pbwords.pb_eval_term", "pbwords.pb_eval_closed"),
)


# ---------------------------------------------------------------------------
# Counts taken at a boundary from the arguments or the result


def _handle_reduce(tr, args, result):
    n = len(args[0])
    tr.counts["letters_in"] += n
    if n > tr.maxima["word_len"]:
        tr.maxima["word_len"] = n


def _ld_closure(tr, args, result):
    tr.counts["closure_states"] += len(result)


def _decide_ld_bounded(tr, args, result):
    if getattr(result, "value", None) == "unknown":
        tr.counts["unknown_pairs"] += 1


def _pb_eval(tr, args, result):
    # pb_eval_closed calls pb_eval_term once per entry; count its word only
    top = tr.stack[-1]
    if top < 0 or tr.names[tr.span_name[top]] not in NESTING_GROUPS[1]:
        tr.counts["letters_out"] += len(result)


def _split_strand(tr, args, result):
    n = tr.originals["terms.size"](result.dom)
    if n > tr.maxima["strands"]:
        tr.maxima["strands"] = n


def _freeness_scan(tr, args, result):
    tr.counts["critical_pairs"] += result["critical_pairs_checked"]


HOOKS = {
    "braids.handle_reduce": _handle_reduce,
    "ldoracle.ld_closure": _ld_closure,
    "ldoracle.decide_ld_bounded": _decide_ld_bounded,
    "pbwords.pb_eval_term": _pb_eval,
    "pbwords.pb_eval_closed": _pb_eval,
    "diagrams.split_strand": _split_strand,
    "cli.freeness_scan": _freeness_scan,
}
