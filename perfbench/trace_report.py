#!/usr/bin/env python3
"""Per-layer metrics from one scx_bench record.

The record holds, per workload, every timed operation (latency, whether it
was traced, and the counters scx returned in OptimizeDiagnostics and
ExecMetrics) and the spans the benchmark recorded around its public calls:
"op" (the whole operation), its children "compile", "optimize" and
"execute", and a root-level "check" span for the output comparison.

Times and counts are taken from the traced operations only; the untraced
operations of the same run (alternate rounds) give the tracing overhead.
Every ratio is printed with its base.

Usage: python3 perfbench/trace_report.py RECORD.json
"""

import json
import statistics
import sys

LAYER_SPANS = ("compile", "optimize", "execute")


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _span_times(run):
    """Per traced op: duration of the op span and of each child layer."""
    spans = run["spans"]
    per_op = {}
    for span in spans:
        if span["name"] == "op":
            per_op.setdefault(span["op"], {})["op"] = span["end"] - span["start"]
    for span in spans:
        if span["name"] in LAYER_SPANS and span["parent"] >= 0:
            parent = spans[span["parent"]]
            times = per_op.setdefault(parent["op"], {})
            times[span["name"]] = (times.get(span["name"], 0.0) +
                                   span["end"] - span["start"])
    return per_op


def _tracing_overhead(traced, untraced):
    """Traced minus untraced latency, paired by input so that the mix of
    inputs in each half does not count as overhead. Returns (median
    difference, number of inputs seen both ways)."""
    def by_item(ops):
        out = {}
        for o in ops:
            out.setdefault(o["item"], []).append(o["latency_s"])
        return out
    t, u = by_item(traced), by_item(untraced)
    diffs = [_median(t[i]) - _median(u[i]) for i in t if i in u]
    return _median(diffs), len(diffs)


def per_layer_metrics(run):
    """Returns [(name, value, unit, base)] for one workload's run record."""
    traced = [o for o in run["ops"] if o["traced"] and o["ok"]]
    untraced = [o for o in run["ops"] if not o["traced"] and o["ok"]]
    times = _span_times(run)
    ops = [(o, times[o["op"]]) for o in traced if o["op"] in times]
    n = len(ops)
    base_ops = f"median over {n} traced ops"

    def total(key):
        return sum(o["counters"][key] for o, _ in ops)

    def mean(key):
        return _ratio(total(key), n)

    def span(o_t, name):
        return o_t[1].get(name, 0.0)

    op_s = [t["op"] for _, t in ops]
    self_s = [t["op"] - sum(t.get(k, 0.0) for k in LAYER_SPANS) for _, t in ops]
    compile_s = [span(x, "compile") for x in ops]
    optimize_s = [span(x, "optimize") for x in ops]
    execute_s = [span(x, "execute") for x in ops]
    cse_run_s = [o["counters"]["cse_run_s"] for o, _ in ops]
    phase2_s = [o["counters"]["phase2_s"] for o, _ in ops]
    wall = sum(op_s)
    winner_lookups = total("winner_hits") + total("winner_misses")
    spool_lookups = total("opt_spool_hits") + total("opt_spool_misses")
    exec_rows = (total("rows_extracted") + total("rows_shuffled") +
                 total("rows_output"))
    traced_p50 = _median([o["latency_s"] for o, _ in ops])
    overhead, paired = _tracing_overhead(traced, untraced)
    per_op = f"mean per op over {n} traced ops"

    return [
        ("api.self_s", _median(self_s), "s",
         f"op span minus compile/optimize/execute, {base_ops}"),
        ("api.self_share", _ratio(sum(self_s), wall), "ratio",
         f"of {wall:.4f} s traced op time"),
        ("compile.s", _median(compile_s), "s", base_ops),
        ("compile.share", _ratio(sum(compile_s), wall), "ratio",
         f"of {wall:.4f} s traced op time"),
        ("core.optimize_s", _median(optimize_s), "s", base_ops),
        ("core.share", _ratio(sum(optimize_s), wall), "ratio",
         f"of {wall:.4f} s traced op time"),
        ("core.cse_run_s", _median(cse_run_s), "s",
         "diagnostics.optimize_seconds, " + base_ops),
        ("core.phase2_s", _median(phase2_s), "s",
         "diagnostics.phase2_seconds, " + base_ops),
        ("core.phase1_s", _median([a - b for a, b in zip(cse_run_s, phase2_s)]),
         "s", "cse_run_s - phase2_s, " + base_ops),
        ("core.conv_check_s",
         _median([a - b for a, b in zip(optimize_s, cse_run_s)]), "s",
         "optimize span - cse_run_s, " + base_ops),
        ("core.rounds_planned", mean("rounds_planned"), "count", per_op),
        ("core.rounds_executed", mean("rounds_executed"), "count", per_op),
        ("core.rounds_pruned", mean("rounds_pruned"), "count", per_op),
        ("core.alts_pruned", mean("alts_pruned"), "count", per_op),
        ("core.rounds_per_s", _ratio(total("rounds_executed"), sum(phase2_s)),
         "1/s", f"{total('rounds_executed'):.0f} rounds in "
         f"{sum(phase2_s):.4f} s of phase 2"),
        ("core.winner_hit_ratio", _ratio(total("winner_hits"), winner_lookups),
         "ratio", f"of {winner_lookups:.0f} winner-cache lookups"),
        ("core.spool_hit_ratio", _ratio(total("opt_spool_hits"), spool_lookups),
         "ratio", f"of {spool_lookups:.0f} spool-base-cache lookups"),
        ("core.shared_groups", mean("shared_groups"), "count", per_op),
        ("core.cross_script_shared_groups", mean("cross_script_shared_groups"),
         "count", per_op),
        ("core.reachable_groups", mean("reachable_groups"), "count", per_op),
        ("core.budget_exhausted", total("budget_exhausted"), "count",
         f"of {n} traced ops"),
        ("core.fell_back", total("fell_back"), "count", f"of {n} traced ops"),
        ("core.est_cost", mean("est_cost"), "cost", per_op),
        ("core.trace_entries", mean("trace_entries"), "count", per_op),
        ("exec.execute_s", _median(execute_s), "s", base_ops),
        ("exec.share", _ratio(sum(execute_s), wall), "ratio",
         f"of {wall:.4f} s traced op time"),
        ("exec.rows_per_s", _ratio(exec_rows, sum(execute_s)), "1/s",
         f"{exec_rows:.0f} extracted+shuffled+output rows in "
         f"{sum(execute_s):.4f} s"),
        ("exec.us_per_operator",
         1e6 * _ratio(sum(execute_s), total("operator_invocations")), "us",
         f"{sum(execute_s):.4f} s over "
         f"{total('operator_invocations'):.0f} operator invocations"),
        ("exec.rows_extracted", mean("rows_extracted"), "count", per_op),
        ("exec.rows_shuffled", mean("rows_shuffled"), "count", per_op),
        ("exec.bytes_shuffled", mean("bytes_shuffled"), "B", per_op),
        ("exec.bytes_spooled", mean("bytes_spooled"), "B", per_op),
        ("exec.operator_invocations", mean("operator_invocations"), "count",
         per_op),
        ("exec.batches_evaluated", mean("batches_evaluated"), "count", per_op),
        ("exec.morsels_evaluated", mean("morsels_evaluated"), "count", per_op),
        ("exec.exprs_deduped", mean("exprs_deduped"), "count", per_op),
        ("exec.spool_executions", mean("spool_executions"), "count", per_op),
        ("exec.spool_hit_ratio",
         _ratio(total("spool_cache_hits"), total("spool_reads")), "ratio",
         f"of {total('spool_reads'):.0f} spool reads"),
        ("exec.cross_query_spool_hits", mean("cross_query_spool_hits"),
         "count", per_op),
        ("exec.spool_bytes_evicted", mean("spool_bytes_evicted"), "B", per_op),
        ("trace.latency_p50_s", traced_p50, "s", base_ops),
        ("trace.overhead_s", overhead, "s",
         f"median over {paired} inputs run both ways of traced minus "
         f"untraced median latency"),
    ]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        record = json.load(f)
    for run in record["runs"]:
        print(f"== {run['workload']}")
        for name, value, unit, base in per_layer_metrics(run):
            print(f"  {name:<32} {value:>16.6g} {unit:<6} {base}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
