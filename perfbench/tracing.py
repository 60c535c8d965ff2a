"""Spans around the calls the workloads make into the library.

Workload code reaches the library only through a ``Layers`` object, whose
attributes are the library's public functions.  An untraced ``Layers``
holds the functions themselves; a traced one holds wrappers that append
(name, start ns, end ns, op id) to a ``Spans`` list kept in memory and
written out when the run ends.  The checker never goes through
``Layers``, so checking adds no spans.
"""

from __future__ import annotations

import json
import time

# (module, function) pairs the workloads call.
CALLS = (
    ("syntax", "parse_formula"), ("syntax", "print_formula"),
    ("syntax", "formula_signature"), ("syntax", "free_vars"),
    ("semantics", "eval_formula"), ("semantics", "model_to_dict"),
    ("semantics", "model_from_dict"),
    ("randgen", "random_epistemic_model"), ("randgen", "random_model"),
    ("modelsearch", "find_countermodel"), ("modelsearch", "find_witness"),
    ("modelsearch", "el_distinguishes"),
    ("translation", "translate"), ("translation", "translate_universal"),
    ("translation", "induce_structure"), ("translation", "fol_eval"),
    ("proofkit", "match_axiom"), ("proofkit", "check_proof"),
    ("proofkit", "load_script"), ("proofkit", "connective_mutations"),
    ("suites", "random_axiom_instance"), ("suites", "corpus_formulas"),
    ("suites", "robot_readings"), ("suites", "separation_models"),
)

# Functions that return generators; the layer hands back a list so that a
# span covers the work, not the creation of the generator.
GENERATORS = {"connective_mutations"}

# Span names reported as per-layer metrics (".calls" and ".ms" each).
REPORTED = (
    "syntax.parse_formula", "semantics.eval_formula", "semantics.model_to_dict",
    "randgen.random_epistemic_model", "randgen.random_model",
    "modelsearch.find_countermodel", "modelsearch.find_witness",
    "modelsearch.el_distinguishes",
    "translation.translate", "translation.translate_universal",
    "translation.induce_structure", "translation.fol_eval",
    "proofkit.match_axiom", "suites.random_axiom_instance",
    "proofkit.check_proof", "proofkit.load_script",
)

OP = "bench.op"


class Spans:
    def __init__(self):
        self.records = []
        self.op = None          # id of the op in progress, None outside ops


class Layers:
    """The library's public functions as attributes, traced into spans
    when spans is given."""

    def __init__(self, modules: dict, spans: Spans = None):
        for module, name in CALLS:
            fn = getattr(modules[module], name)
            if name in GENERATORS:
                fn = _listing(fn)
            if spans is not None:
                fn = _traced(f"{module}.{name}", fn, spans)
            setattr(self, name, fn)


def _listing(fn):
    return lambda *args, **kwargs: list(fn(*args, **kwargs))


def _traced(name, fn, spans: Spans):
    clock = time.perf_counter_ns
    record = spans.records.append

    def call(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record((name, start, clock(), spans.op))
    return call


def layer_metrics(spans: Spans, counters: dict, rounds: int) -> dict:
    """Per-layer figures from the spans of one traced setup and `rounds`
    traced rounds.  counters maps op id -> the counts its check returned."""
    calls = {name: 0 for name in REPORTED}
    busy = {name: 0 for name in REPORTED}
    per_op = {}                 # (op id, span name) -> ns
    op_ns = 0
    for name, start, end, op in spans.records:
        if name == OP:
            op_ns += end - start
            continue
        if name in calls:
            calls[name] += 1
            busy[name] += end - start
        if op is not None:
            key = (op, name)
            per_op[key] = per_op.get(key, 0) + end - start
    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.ms"] = (busy[name] / 1e6, "ms")

    covered = steps = search_ns = check_ns = 0
    for op, counts in counters.items():
        if "models_covered" in counts:
            covered += counts["models_covered"]
            search_ns += per_op.get((op, "modelsearch.find_countermodel"), 0)
        if "steps_checked" in counts:
            steps += counts["steps_checked"]
            check_ns += per_op.get((op, "proofkit.check_proof"), 0)
    per_round = max(rounds, 1)
    out["modelsearch.models_covered"] = (covered // per_round, "count")
    out["modelsearch.models_per_s"] = (covered / search_ns * 1e9 if search_ns else 0.0, "1/s")
    out["proofkit.steps_checked"] = (steps // per_round, "count")
    out["proofkit.steps_per_s"] = (steps / check_ns * 1e9 if check_ns else 0.0, "1/s")
    out["bench.outside_layers.ms"] = ((op_ns - sum(per_op.values())) / 1e6, "ms")
    return out


def write_spans(spans: Spans, path) -> None:
    """One JSON array per line: [name, start_ns, end_ns, op id or null]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans.records:
            fh.write(json.dumps(record) + "\n")
