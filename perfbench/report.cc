// Reporting shared by the three workloads.

#include <algorithm>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace xbench {

void ReportEndToEnd(const std::vector<double>& latencies_ms, size_t verdicts,
                    double busy_ms, double cpu_ms, double setup_s,
                    Outcome* out) {
  const Tail tail = TailOf(latencies_ms);
  out->E2e("setup_s", setup_s, "s");
  out->E2e("throughput_qps",
           busy_ms > 0 ? static_cast<double>(verdicts) / (busy_ms / 1e3) : 0,
           "1/s");
  out->E2e("latency_p50_ms", Median(latencies_ms), "ms");
  out->E2e("latency_tail_ms", tail.value, "ms");
  out->E2e("ok_share",
           static_cast<double>(out->attempted - out->failed) /
               static_cast<double>(std::max<size_t>(1, out->attempted)),
           "share");
  out->E2e("cpu_ms_per_query",
           cpu_ms / static_cast<double>(std::max<size_t>(1, verdicts)), "ms");
  out->E2e("peak_rss_mb", PeakRssMb(), "MiB");
  char line[200];
  std::snprintf(line, sizeof(line),
                "latency_tail_ms is p%.2f: %zu of %zu samples lie beyond it",
                tail.percentile, tail.beyond, latencies_ms.size());
  out->notes.push_back(line);
  std::snprintf(line, sizeof(line), "fail_share=%.6f (%zu of %zu failed)",
                static_cast<double>(out->failed) /
                    static_cast<double>(std::max<size_t>(1, out->attempted)),
                out->failed, out->attempted);
  out->notes.push_back(line);
}

void AddIlp(const xicc::ConsistencyResult& result, IlpTotals* totals) {
  const xicc::ConsistencyStats& s = result.stats;
  totals->queries += 1;
  totals->nodes += static_cast<double>(s.ilp_nodes);
  totals->pivots += static_cast<double>(s.lp_pivots);
  totals->depth += static_cast<double>(s.search_depth);
  totals->warm += static_cast<double>(s.warm_starts);
  totals->cold += static_cast<double>(s.cold_restarts);
  totals->bland_fallbacks += static_cast<double>(s.lp_kernel.bland_fallbacks);
  totals->promotions += static_cast<double>(s.num_promotions);
  totals->small_ops += static_cast<double>(s.num_small_ops);
  totals->arena_bytes += static_cast<double>(s.arena_bytes);
  if (result.witness.has_value()) {
    totals->witnesses += 1;
    totals->witness_nodes += static_cast<double>(result.witness->size());
  }
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void ReportIlp(const IlpTotals& t, Outcome* out) {
  out->Layer("ilp.nodes", Ratio(t.nodes, t.queries), "count/query");
  out->Layer("ilp.lp_pivots", Ratio(t.pivots, t.queries), "count/query");
  out->Layer("ilp.search_depth", Ratio(t.depth, t.queries), "count/query");
  out->Layer("ilp.warm_start_share", Ratio(t.warm, t.warm + t.cold), "share");
  out->Layer("ilp.bland_fallback_share",
             Ratio(t.bland_fallbacks, t.warm + t.cold), "share");
  out->Layer("ilp.num_promotion_rate", Ratio(t.promotions, t.small_ops),
             "share");
  out->Layer("ilp.arena_bytes_per_query", Ratio(t.arena_bytes, t.queries),
             "bytes");
  out->Layer("core.witness.nodes", Ratio(t.witness_nodes, t.witnesses),
             "count/query");
}

std::map<std::string, std::vector<double>> FinishTrace(
    const Config& cfg, const std::vector<Span>& loop_spans, double loop_ms,
    size_t loop_verdicts, std::vector<Span> probe_spans, Outcome* out) {
  // The recorder's cost per span, calibrated in this process, times the
  // spans the measured loop recorded: the share of the loop's time the
  // tracing itself took.
  const double span_ns = Tracer::CalibrateSpanCostNs();
  out->Layer("trace.overhead_share",
             Ratio(static_cast<double>(loop_spans.size()) * span_ns / 1e6,
                   loop_ms),
             "share");
  out->Layer("trace.throughput_qps",
             Ratio(static_cast<double>(loop_verdicts), loop_ms / 1e3), "1/s");
  probe_spans.insert(probe_spans.begin(), loop_spans.begin(),
                     loop_spans.end());
  out->Layer("trace.spans", static_cast<double>(probe_spans.size()), "count");
  out->Layer("fail_share",
             Ratio(static_cast<double>(out->failed),
                   static_cast<double>(out->attempted)),
             "share");
  const std::string path = cfg.work_dir + "/spans_" + cfg.workload + ".jsonl";
  if (Tracer::Write(probe_spans, path)) {
    out->notes.push_back("spans written to " + path);
  } else {
    out->notes.push_back("could not write " + path);
  }
  return SelfTimesByName(probe_spans);
}

double MedianOf(const std::map<std::string, std::vector<double>>& self,
                const std::string& name) {
  auto it = self.find(name);
  return it == self.end() ? 0.0 : Median(it->second);
}

}  // namespace xbench
