#pragma once

// The three named workloads. Each generates its inputs from cfg.seed (the
// library under test never sees the seed), sets up several times and
// reports the median set-up time, measures for cfg.seconds, checks every
// verdict it gets, and fills in the end-to-end metrics (cfg.trace false)
// or the per-layer metrics (cfg.trace true).

#include "common.h"
#include "core/consistency.h"
#include "trace.h"

namespace xbench {

/// Corollary 4.11 batch user: CheckBatch on one CompiledDtd, 4 workers.
Outcome RunBatchFixedDtd(const Config& cfg, Gate* gate);

/// xiccd authoring user: in-process net::Server, 2 closed-loop connections.
Outcome RunDaemonAuthoring(const Config& cfg, Gate* gate);

/// Theorem 4.7 hardness gadget: one-shot CheckConsistency on LIP encodings.
Outcome RunLipHard(const Config& cfg, Gate* gate);

/// Shared end-to-end reporting: throughput, p50, tail, ok share, CPU per
/// verdict and peak RSS, from the per-verdict latencies of one run.
void ReportEndToEnd(const std::vector<double>& latencies_ms, size_t verdicts,
                    double busy_ms, double cpu_ms, double setup_s,
                    Outcome* out);

/// Shared ilp.* per-layer aggregation over the ConsistencyStats of the
/// queries a run actually solved.
struct IlpTotals {
  double queries = 0, nodes = 0, pivots = 0, depth = 0;
  double warm = 0, cold = 0, bland_fallbacks = 0;
  double promotions = 0, small_ops = 0, arena_bytes = 0;
  double witness_nodes = 0, witnesses = 0;
};
/// Runs `setup` `reps` times and keeps the last result; `*median_s`
/// receives the median wall time of one set-up, in seconds, and `notes`
/// a line with every rep's time. The previous rep's state is torn down
/// before the next rep's clock starts.
template <typename Setup>
auto RepeatSetup(int reps, Setup setup, double* median_s,
                 std::vector<std::string>* notes) {
  decltype(setup()) state;
  std::vector<double> seconds;
  std::string line = "setup_s of each rep:";
  for (int r = 0; r < reps; ++r) {
    state = decltype(setup())();
    const double start = NowMs();
    state = setup();
    seconds.push_back((NowMs() - start) / 1e3);
    line += " " + std::to_string(seconds.back());
  }
  notes->push_back(line);
  *median_s = Median(seconds);
  return state;
}

void AddIlp(const xicc::ConsistencyResult& result, IlpTotals* totals);
void ReportIlp(const IlpTotals& totals, Outcome* out);

/// Ends a traced run: reports the trace.* metrics and fail_share, writes
/// every span to <work_dir>/spans_<workload>.jsonl, and returns the self
/// times by span name. `loop_spans` are the spans of the measured loop
/// (`loop_ms` long, `loop_verdicts` verdicts); `probe_spans` the rest.
std::map<std::string, std::vector<double>> FinishTrace(
    const Config& cfg, const std::vector<Span>& loop_spans, double loop_ms,
    size_t loop_verdicts, std::vector<Span> probe_spans, Outcome* out);

/// Median self time of the spans named `name` (0 when there are none).
double MedianOf(const std::map<std::string, std::vector<double>>& self,
                const std::string& name);

}  // namespace xbench
