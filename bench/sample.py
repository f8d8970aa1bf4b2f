"""One benchmark sample: a fresh interpreter doing one unit of measured work.

    python3 bench/sample.py SPEC.json RESULT.json
    python3 bench/sample.py --command RESULT.json ARG...

The first form sets up and runs one pass.  SPEC holds the workload name,
the item descriptions, whether to stop after set-up, whether to trace, and
where to write the spans.  RESULT receives ``perf_counter`` readings at the
end of set-up and of the pass (on Linux the clock is CLOCK_MONOTONIC, shared
by all processes, so the parent can subtract its own reading taken before
the start), each item's time, output, start and end, the speed samples and,
when traced, the per-layer metrics.

``--command`` runs ``lepage.cli`` as ``python -m lepage.cli ARG...`` does,
with its own stdout and exit code.  Both forms run under a
:class:`speed.SpeedSampler` and write its samples to RESULT; item times
exclude the samples' own time.
"""
from __future__ import annotations

import json
import sys
import time

from speed import SpeedSampler

# The functions traced per layer, as "<module>.<function>".
LAYERS = {
    "expr": ["diff", "canonicalize", "substitute", "equals_zero", "is_zero_expr"],
    "jets": ["total_derivative", "sym_partial"],
    "forms": ["make_form", "wedge", "exterior_derivative", "form_is_zero"],
    "variational": [
        "euler_lagrange_expressions", "principal_lepage", "caratheodory_first",
        "caratheodory_second", "fundamental_first_order", "fundamental_second_order_n2",
    ],
    "verification": [
        "is_lepage_form", "is_lepage_equivalent", "is_trivial", "order_reducible",
        "trivial_conditions_second_order", "combination_conditions",
        "el_expansion_crosscheck", "calibrate_convention",
    ],
    "parsing": ["parse_lagrangian"],
    "serialize": ["form_to_text", "form_to_latex", "form_to_json", "expr_to_text"],
    "cli": ["run_command"],
}
TRACED = [f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs]
ZERO_KINDS = ("proven-zero", "proven-nonzero", "numeric-zero", "numeric-nonzero")


class LayerProbe:
    """Installs the tracer on every function in TRACED and derives the layer counters."""

    def __init__(self, tracer):
        from lepage.expr import Add, Div

        def expr_terms(e) -> int:
            """Summands: top-level terms of the numerator plus the denominator."""
            if isinstance(e, Div):
                return expr_terms(e.num) + expr_terms(e.den)
            return len(e.terms) if isinstance(e, Add) else 1

        self.tracer = tracer
        self.diff_calls: list = []
        counters = tracer.counters
        serializers = {f"serialize.{f}" for f in LAYERS["serialize"]}

        def on_diff(span, args, kwargs, result):
            self.diff_calls.append((span, args[0], args[1]))
            counters["expr.diff.terms_out_max"] = max(
                counters["expr.diff.terms_out_max"], expr_terms(result))

        def on_equals_zero(span, args, kwargs, result):
            counters[f"expr.equals_zero.{result.kind}"] += 1

        def terms_out(name):
            def observe(span, args, kwargs, result):
                counters[name] += len(result.terms)
            return observe

        def on_serialize(span, args, kwargs, result):
            # nested serializer calls (expr_to_text inside form_to_json) are
            # already counted in their caller's output
            if tracer.parent_name() not in serializers:
                counters["serialize.bytes_out"] += len(result.encode())

        observers = {
            "expr.diff": on_diff,
            "expr.equals_zero": on_equals_zero,
            "forms.exterior_derivative": terms_out("forms.exterior_derivative.terms_out"),
            "forms.wedge": terms_out("forms.wedge.terms_out"),
        }
        observers.update({name: on_serialize for name in serializers})
        tracer.install({name: observers.get(name) for name in TRACED})

    def metrics(self) -> dict:
        from lepage.expr import expr_key

        self.tracer.uninstall()
        summary = self.tracer.summary()
        out = {}
        for name in TRACED:
            calls, self_s = summary.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        counters = self.tracer.counters
        # diff calls no traced function, so a diff span's self time is its duration
        seen, repeat_s = set(), 0.0
        for span, e, v in self.diff_calls:
            key = (expr_key(e), v)
            if key in seen:
                repeat_s += self.tracer.end[span] - self.tracer.start[span]
            seen.add(key)
        out["expr.diff.distinct_share"] = len(seen) / len(self.diff_calls) if self.diff_calls else 0.0
        out["expr.diff.repeat_self_s"] = repeat_s
        out["expr.diff.terms_out_max"] = counters["expr.diff.terms_out_max"]
        for kind in ZERO_KINDS:
            out[f"expr.equals_zero.{kind}"] = counters[f"expr.equals_zero.{kind}"]
        for name in ("forms.exterior_derivative.terms_out", "forms.wedge.terms_out",
                     "serialize.bytes_out"):
            out[name] = counters[name]
        return out


def run_pass(spec: dict) -> dict:
    """Set up (import, build inputs) and run every item once, in order.

    Item times and spans exclude the time the speed samples took.
    """
    sampler = SpeedSampler()
    sampler.start()

    def clock() -> float:
        return time.perf_counter() - sampler.spent

    import workloads

    workload = spec["workload"]
    import lepage  # noqa: F401  (timed: part of set-up)
    if workload == "cli-session":
        import lepage.cli  # noqa: F401

    tracer = probe = None
    if spec["trace"]:
        from trace_spans import Tracer

        tracer = Tracer(clock=clock)
        probe = LayerProbe(tracer)
        traced_from = clock()
        setup_span = tracer.open("setup")
    prepared = [workloads.prepare(workload, item) for item in spec["items"]]
    if tracer is not None:
        tracer.close(setup_span)
    setup_end = time.perf_counter()
    setup_spent, setup_refs = sampler.spent, len(sampler.durations)

    results = []
    for item, ready in zip([] if spec["setup_only"] else spec["items"], prepared):
        span = tracer.open("item") if tracer is not None else None
        began = time.perf_counter()
        start = clock()
        try:
            output = workloads.run_item(workload, item, ready)
        except Exception as err:  # an item that raises is a failed item
            output = {"error": f"{type(err).__name__}: {err}"}
        seconds = clock() - start
        if tracer is not None:
            tracer.close(span)
        results.append({"id": item["id"], "seconds": seconds, "output": output,
                        "start": began, "end": time.perf_counter()})
    traced_to = clock()
    pass_end = time.perf_counter()
    sampler.stop()

    doc = {"setup_end": setup_end, "setup_spent": setup_spent, "setup_refs": setup_refs,
           "pass_end": pass_end, "items": results, **sampler.report()}
    if tracer is not None:
        doc["layers"] = probe.metrics()
        doc["layers"]["trace.wall_s"] = traced_to - traced_from
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    return doc


def run_cli(args: list[str]) -> None:
    """``python -m lepage.cli ARG...``; ends the process with the command's exit code."""
    import runpy

    sys.argv = ["lepage", *args]
    runpy.run_module("lepage.cli", run_name="__main__", alter_sys=True)


def main(argv: list[str]) -> int:
    if argv[0] == "--command":
        result_path, sampler = argv[1], SpeedSampler()
        sampler.start()
        try:
            run_cli(argv[2:])
        finally:
            sampler.stop()
            with open(result_path, "w", encoding="utf-8") as handle:
                json.dump(sampler.report(), handle)
        return 0
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    doc = run_pass(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
