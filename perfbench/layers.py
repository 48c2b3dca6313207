"""Per-layer metrics of the traced pass, computed from perfbench_layers' spans.

Each metric has a unit, a direction, the end-to-end metric it should move on
which workload, and a function that computes it from the pass: a total over
spans, a per-call percentile for latencies, a rate or a ratio of counts.
Spans under a `perfbench.command` root come from the workload's own
commands; when a workload never reaches a layer, its metric comes from the
probe lines (`perfbench.probe` roots) instead, and the report says so.
"""

from stats import quantile


class Pass:
    """One traced pass: span durations grouped by name, split into command
    and probe lines, and the pass's counts. Each accessor returns (value,
    the spans it was read from, "command" or "probe")."""

    def __init__(self, spans, raw):
        self.by_root = {"command": {}, "probe": {}}
        roots = []
        for s in spans:
            parent = s["parent"]
            root = roots[parent] if parent >= 0 else s["name"]
            roots.append(root)
            kind = "probe" if root == "perfbench.probe" else "command"
            self.by_root[kind].setdefault(s["name"], []).append(s)
        self.counts = raw["counts"]
        self.raw = raw

    def pick(self, *names):
        """The command-line spans of `names` when there are any, else the probes'."""
        for kind in ("command", "probe"):
            found = [s for n in names for s in self.by_root[kind].get(n, [])]
            if found:
                return found, kind
        return [], "none"

    def count(self, name, kind):
        return self.counts.get(("probe." if kind == "probe" else "") + name, 0.0)

    def total_ms(self, *names):
        found, kind = self.pick(*names)
        return sum(s["dur_us"] for s in found) / 1e3, found, kind

    def excess_ms(self, name, baseline):
        """Total of `name` minus the total of `baseline` from the same lines."""
        found, kind = self.pick(name)
        less = self.by_root[kind].get(baseline, [])
        return (sum(s["dur_us"] for s in found) - sum(s["dur_us"] for s in less)) / 1e3, found, kind

    def per_call_us(self, name, percentile):
        found, kind = self.pick(name)
        return quantile([s["dur_us"] for s in found] or [0.0], percentile), found, kind

    def per_call_ms(self, name, percentile):
        value, found, kind = self.per_call_us(name, percentile)
        return value / 1e3, found, kind

    def mips(self, run, instructions):
        """Instructions counted as `instructions` per microsecond of `run` spans."""
        found, kind = self.pick(run)
        busy_us = sum(s["dur_us"] for s in found)
        return (self.count(instructions, kind) / busy_us if busy_us > 0 else 0.0), found, kind

    def counted(self, name):
        kind = "probe" if name not in self.counts and "probe." + name in self.counts else "command"
        return self.count(name, kind), [], kind

    def ratio(self, numerator, denominator):
        den, _, kind = self.counted(denominator)
        return (self.count(numerator, kind) / den if den else 0.0), [], kind

    def trace_overhead(self):
        return self.raw["wall_on_s"] / self.raw["wall_off_s"] - 1, [], "command"


# name: (unit, better, should move, value from the pass)
METRICS = {
    "apps.build_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                      lambda p: p.total_ms("apps.build")),
    "ir.parse_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                    lambda p: p.total_ms("ir.parse")),
    "ir.verify_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                     lambda p: p.total_ms("ir.verify")),
    "support.spawn_ms": ("ms", "lower",
                         "req_cpu_p50_ms on analyze-cold; req_cpu_p90_ms on serve-warm",
                         lambda p: p.per_call_ms("support.spawn", 50)),
    "vm.traced_mips": ("Minstr/s", "higher", "req_cpu_p50_ms / req_cpu_p90_ms on analyze-cold",
                       lambda p: p.mips("vm.traced_run", "vm.traced_instructions")),
    "vm.untraced_mips": ("Minstr/s", "higher", "req_per_cpu_s on inject-register",
                         lambda p: p.mips("vm.untraced_run", "vm.untraced_instructions")),
    "vm.compile_ms": ("ms", "lower", "req_cpu_p50_ms on both inject workloads",
                      lambda p: p.total_ms("vm.compile")),
    "ddg.build_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                     lambda p: p.excess_ms("ddg.graph_run", "vm.traced_run")),
    "ddg.nodes": ("count", "lower", "req_cpu_p50_ms on analyze-cold",
                  lambda p: p.counted("ddg.nodes")),
    "ddg.ace_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                   lambda p: p.total_ms("ddg.ace")),
    "crash.propagate_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                           lambda p: p.total_ms("crash.propagate")),
    "epvf.run_ms": ("ms", "lower", "req_cpu_p50_ms on analyze-cold",
                    lambda p: p.total_ms("epvf.run")),
    "epvf.rate_estimate_ms": ("ms", "lower",
                              "req_cpu_p90_ms on analyze-cold (the rate-estimate tail)",
                              lambda p: p.total_ms("epvf.rate_estimate")),
    "epvf.report_ms": ("ms", "lower", "req_cpu_p50_ms on serve-warm",
                       lambda p: p.total_ms("epvf.report")),
    "fi.sites_ms": ("ms", "lower", "req_cpu_p50_ms on inject-register",
                    lambda p: p.total_ms("fi.sites")),
    "fi.memory_sites_ms": ("ms", "lower", "req_cpu_p50_ms on inject-memory",
                           lambda p: p.total_ms("fi.memory_sites")),
    "fi.checkpoint_build_ms": ("ms", "lower", "req_cpu_p50_ms on inject-memory",
                               lambda p: p.total_ms("fi.checkpoint_build")),
    "fi.checkpoint_rss_mb": ("MiB", "lower", "peak_rss_mb on inject-memory",
                             lambda p: p.counted("fi.checkpoint_rss_mb")),
    "fi.inject_full_us.p50": ("us", "lower", "req_per_cpu_s on inject-register",
                              lambda p: p.per_call_us("fi.inject_full", 50)),
    "fi.inject_full_us.p90": ("us", "lower", "req_per_cpu_s on inject-register",
                              lambda p: p.per_call_us("fi.inject_full", 90)),
    "fi.inject_resume_us.p50": ("us", "lower", "req_per_cpu_s on inject-memory",
                                lambda p: p.per_call_us("fi.inject_resume", 50)),
    "fi.inject_resume_us.p90": ("us", "lower", "req_per_cpu_s on inject-memory",
                                lambda p: p.per_call_us("fi.inject_resume", 90)),
    "fi.resumed_frac": ("ratio", "higher",
                        "req_per_cpu_s on both inject workloads (0 on inject-register today)",
                        lambda p: p.ratio("fi.resumed_runs", "fi.campaign_runs")),
    "fi.skipped_instr_frac": ("ratio", "higher", "req_per_cpu_s on both inject workloads",
                              lambda p: p.ratio("fi.skipped_instructions",
                                                "fi.campaign_instructions")),
    "fi.static_masked_frac": ("ratio", "higher", "req_per_cpu_s on inject-memory",
                              lambda p: p.ratio("fi.static_masked_runs", "fi.campaign_runs")),
    "fi.plan_rounds": ("count", "lower", "req_cpu_p50_ms on inject-register (stratified commands)",
                       lambda p: p.counted("fi.plan_rounds")),
    "fi.plan_runs": ("count", "lower", "req_cpu_p50_ms on inject-register (stratified commands)",
                     lambda p: p.counted("fi.plan_runs")),
    "fi.plan_overhead_ms": ("ms", "lower",
                            "req_cpu_p50_ms on inject-register (stratified commands)",
                            lambda p: p.total_ms("fi.plan_setup", "fi.plan_begin",
                                                 "fi.plan_commit")),
    "fi.plan_round_ms": ("ms", "lower", "req_cpu_p50_ms on inject-register (stratified commands)",
                         lambda p: p.total_ms("fi.plan_round")),
    "fi.campaign_ms": ("ms", "lower", "req_per_cpu_s on both inject workloads",
                       lambda p: p.total_ms("fi.campaign")),
    "store.analysis_miss_ms": ("ms", "lower", "setup_s on serve-warm",
                               lambda p: p.total_ms("store.analysis_miss")),
    "store.analysis_hit_ms": ("ms", "lower", "req_cpu_p50_ms on serve-warm",
                              lambda p: p.total_ms("store.analysis_hit")),
    "store.campaign_hit_ms": ("ms", "lower", "req_cpu_p90_ms on serve-warm (repeat injects)",
                              lambda p: p.total_ms("store.campaign_hit")),
    "store.merge_ms": ("ms", "lower", "req_cpu_p90_ms on serve-warm",
                       lambda p: p.total_ms("store.merge")),
    "store.bytes_written": ("bytes", "lower", "setup_s / req_cpu_p90_ms on serve-warm",
                            lambda p: p.counted("store.bytes_written")),
    "store.hit_frac": ("ratio", "higher", "req_cpu_p50_ms on serve-warm",
                       lambda p: p.ratio("store.serve_hits", "store.serve_lookups")),
    "serve.connect_ms": ("ms", "lower", "req_cpu_p50_ms on serve-warm",
                         lambda p: p.per_call_ms("serve.connect", 50)),
    "serve.ack_ms": ("ms", "lower", "req_cpu_p50_ms / req_cpu_p90_ms on serve-warm",
                     lambda p: p.per_call_ms("serve.ack", 50)),
    "serve.analyze_rtt_ms": ("ms", "lower", "req_cpu_p50_ms on serve-warm",
                             lambda p: p.per_call_ms("serve.analyze_rtt", 50)),
    "serve.inject_rtt_ms": ("ms", "lower", "req_cpu_p90_ms on serve-warm",
                            lambda p: p.per_call_ms("serve.inject_rtt", 50)),
    "serve.busy": ("count", "lower", "ok_frac on serve-warm",
                   lambda p: p.counted("serve.busy")),
    "obs.trace_overhead_frac": ("ratio", "lower", "nothing: tracing off must stay free",
                                lambda p: p.trace_overhead()),
}


def compute(spans, raw):
    """The traced-pass table: every metric in METRICS with its value, the
    self time of the spans it comes from, and whether those are the
    workload's own commands or probes; plus per-span-name totals."""
    traced = Pass(spans, raw)
    metrics = {}
    for name, (unit, _, should_move, value_of) in METRICS.items():
        value, found, kind = value_of(traced)
        metrics[name] = {"value": value, "unit": unit, "from": kind,
                         "self_ms": sum(s["self_us"] for s in found) / 1e3 if found else None,
                         "should_move": should_move}

    table = {}
    for name, found in sorted(traced.by_root["command"].items()):
        table[name] = span_row(found)
    for name, found in sorted(traced.by_root["probe"].items()):
        table["probe:" + name] = span_row(found)
    return {"metrics": metrics, "spans": table, "counts": raw["counts"],
            "wall_on_s": raw["wall_on_s"], "wall_off_s": raw["wall_off_s"]}


def span_row(found):
    return {"count": len(found),
            "total_ms": sum(s["dur_us"] for s in found) / 1e3,
            "self_ms": sum(s["self_us"] for s in found) / 1e3}


def report(workload, table):
    """The human-readable traced-pass report."""
    lines = ["== traced pass: %s (spans-on %.2f s, spans-off %.2f s) ==" %
             (workload, table["wall_on_s"], table["wall_off_s"])]
    lines.append("%-24s %13s %-9s %11s %-6s %s" % ("metric", "value", "unit", "self ms", "from",
                                                   "should move"))
    for name, row in table["metrics"].items():
        self_ms = "" if row["self_ms"] is None else "%.3f" % row["self_ms"]
        lines.append("%-24s %13.6g %-9s %11s %-6s %s" % (
            name, row["value"], row["unit"], self_ms,
            "probe" if row["from"] == "probe" else "", row["should_move"]))
    lines.append("%-34s %7s %12s %12s" % ("span", "calls", "total ms", "self ms"))
    for name, row in table["spans"].items():
        lines.append("%-34s %7d %12.3f %12.3f" % (name, row["count"], row["total_ms"],
                                                  row["self_ms"]))
    return "\n".join(lines)
