// batch_fixed_dtd: the Corollary 4.11 batch user. One CatalogDtd(12) is
// compiled in set-up; CheckBatch answers SigmaDeltaBatch queries (|Σ| from
// 1 to 12, 25% repeated Σ) on 4 workers with witness build + verify on,
// and the caller waits for each batch.

#include <memory>

#include "core/batch.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/generators.h"

namespace xbench {
namespace {

constexpr size_t kWorkers = 4;

struct BatchSetup {
  xicc::Dtd dtd;
  std::shared_ptr<const xicc::CompiledDtd> compiled;
  std::vector<std::vector<xicc::ConstraintSet>> batches;
  /// Sequential single-session verdicts, per batch and item.
  std::vector<std::vector<bool>> reference;
  double compile_ms = 0.0;
};

BatchSetup Setup(const Config& cfg, Gate* gate) {
  BatchSetup s;
  s.dtd = xicc::workloads::CatalogDtd(cfg.smoke ? 4 : 12);
  const double start = NowMs();
  auto compiled = xicc::CompileDtd(s.dtd);
  s.compile_ms = NowMs() - start;
  if (!compiled.ok()) {
    gate->Fail("CompileDtd: " + compiled.status().message());
    return s;
  }
  s.compiled = *compiled;
  const size_t batches = cfg.smoke ? 2 : 8;
  const size_t per_batch = cfg.smoke ? 16 : 128;
  xicc::ConsistencyOptions options;
  options.build_witness = false;
  xicc::SpecSession reference(s.compiled, options, /*memo_capacity=*/0);
  for (size_t b = 0; b < batches; ++b) {
    s.batches.push_back(xicc::workloads::SigmaDeltaBatch(
        s.dtd, Mix(cfg.seed, b), per_batch, /*min_constraints=*/1,
        /*max_constraints=*/12, /*dup_percent=*/25));
    std::vector<bool> verdicts;
    for (const xicc::ConstraintSet& sigma : s.batches.back()) {
      auto r = reference.Check(sigma);
      if (!r.ok()) {
        gate->Fail("reference check: " + r.status().message());
        verdicts.push_back(false);
        continue;
      }
      verdicts.push_back(r->consistent);
    }
    s.reference.push_back(std::move(verdicts));
  }
  return s;
}

}  // namespace

Outcome RunBatchFixedDtd(const Config& cfg, Gate* gate) {
  Outcome out;
  double setup_s = 0.0;
  const BatchSetup s =
      RepeatSetup(cfg.smoke ? 1 : 5, [&] { return Setup(cfg, gate); },
                  &setup_s, &out.notes);
  if (s.compiled == nullptr) return out;

  xicc::BatchOptions options;
  options.num_threads = kWorkers;
  options.item_timeout_ms = 30'000;

  std::vector<double> latencies;
  double busy_ms = 0.0, cpu_ms = 0.0;
  size_t verdicts = 0;
  IlpTotals ilp;
  std::vector<double> stage_setup, stage_memo, stage_solve, busy_share,
      cpu_per_wall, reuse_share;
  double memo_hits = 0, memo_lookups = 0;

  // The traced run measures for part of its budget and spends the rest on
  // the per-layer probes below.
  const double measure_ms = cfg.seconds * 1e3 * (cfg.trace ? 0.7 : 1.0);
  const double start = NowMs();
  for (size_t call = 0; NowMs() - start < measure_ms; ++call) {
    const size_t b = call % s.batches.size();
    const auto& queries = s.batches[b];
    Tracer::SetEnabled(cfg.trace);
    Tracer::SetRequest(call + 1);
    xicc::BatchRunStats run;
    const double cpu0 = ProcessCpuMs();
    const double t0 = NowMs();
    std::vector<xicc::BatchItemResult> results;
    {
      ScopedSpan span("core.batch.CheckBatch");
      results = xicc::CheckBatch(s.compiled, queries, options, nullptr, &run);
    }
    const double wall = NowMs() - t0;
    const double cpu = ProcessCpuMs() - cpu0;
    latencies.push_back(wall);
    busy_ms += wall;
    cpu_ms += cpu;
    size_t ok = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      out.attempted++;
      const xicc::BatchItemResult& item = results[i];
      if (!item.status.ok()) {
        out.failed++;
        continue;
      }
      ok++;
      if (item.result.consistent != s.reference[b][i]) {
        gate->Fail("batch verdict differs from the sequential session");
      }
      if (item.result.consistent) {
        if (!item.result.witness.has_value()) {
          gate->Fail("consistent batch verdict without a witness");
        } else {
          const std::string why =
              RecheckWitness(*item.result.witness, s.dtd, queries[i]);
          if (!why.empty()) gate->Fail(why);
        }
      }
      if (cfg.trace && item.result.stats.memo_hits == 0) {
        AddIlp(item.result, &ilp);
      }
    }
    verdicts += ok;
    if (cfg.trace) {
      const xicc::StageTally& t = run.stages;
      const double setup = t.MsFor(xicc::Stage::kSessionSetup);
      const double memo = t.MsFor(xicc::Stage::kMemoKey) +
                          t.MsFor(xicc::Stage::kMemoLookup) +
                          t.MsFor(xicc::Stage::kMemoStore);
      const double solve = t.MsFor(xicc::Stage::kSolve);
      double all = 0.0;
      for (size_t k = 0; k < static_cast<size_t>(xicc::Stage::kCount); ++k) {
        all += t.ms[k];
      }
      stage_setup.push_back(setup);
      stage_memo.push_back(memo);
      stage_solve.push_back(solve);
      busy_share.push_back(all / (static_cast<double>(run.workers) * wall));
      cpu_per_wall.push_back(cpu / wall);
      reuse_share.push_back(run.chunks == 0
                                ? 0.0
                                : static_cast<double>(run.session_reuses) /
                                      static_cast<double>(run.chunks));
      memo_hits += static_cast<double>(run.memo_hits);
      memo_lookups += static_cast<double>(run.memo_hits + run.memo_misses);
    }
  }
  Tracer::SetEnabled(false);

  if (!cfg.trace) {
    ReportEndToEnd(latencies, verdicts, busy_ms, cpu_ms, setup_s, &out);
    return out;
  }

  // -- Per-layer probes (traced run only) ---------------------------------
  const std::vector<Span> loop_spans = Tracer::Collect();
  Tracer::SetEnabled(true);
  // Same batch at 1 worker and at 4, interleaved so drift hits both.
  std::vector<double> speedups;
  const int reps = cfg.smoke ? 1 : 4;
  for (int r = 0; r < reps; ++r) {
    xicc::BatchOptions one = options;
    one.num_threads = 1;
    double t0 = NowMs();
    xicc::CheckBatch(s.compiled, s.batches[0], one);
    const double one_ms = NowMs() - t0;
    t0 = NowMs();
    xicc::CheckBatch(s.compiled, s.batches[0], options);
    speedups.push_back(one_ms / (NowMs() - t0));
  }

  // Direct session replay of one batch, witness on and off, so the
  // session's own costs and the witness share can be read apart.
  xicc::ConsistencyOptions with_witness;
  xicc::ConsistencyOptions without_witness;
  without_witness.build_witness = false;
  std::unique_ptr<xicc::SpecSession> on, off;
  {
    ScopedSpan span("core.spec_session.SpecSession");
    on = std::make_unique<xicc::SpecSession>(s.compiled, with_witness, 0);
  }
  {
    ScopedSpan span("core.spec_session.SpecSession");
    off = std::make_unique<xicc::SpecSession>(s.compiled, without_witness, 0);
  }
  std::vector<double> check_on, check_off;
  for (const xicc::ConstraintSet& sigma : s.batches[0]) {
    double t0 = NowMs();
    {
      ScopedSpan span("core.spec_session.Check");
      auto r = on->Check(sigma);
      if (!r.ok()) gate->Fail("session replay: " + r.status().message());
    }
    check_on.push_back(NowMs() - t0);
    t0 = NowMs();
    {
      ScopedSpan span("core.spec_session.Check.no_witness");
      auto r = off->Check(sigma);
      if (!r.ok()) gate->Fail("session replay: " + r.status().message());
    }
    check_off.push_back(NowMs() - t0);
  }
  Tracer::SetEnabled(false);
  const auto self = FinishTrace(cfg, loop_spans, busy_ms, verdicts,
                                Tracer::Collect(), &out);
  auto median_of = [&](const char* name) { return MedianOf(self, name); };

  out.Layer("core.compile_ms", s.compile_ms, "ms");
  out.Layer("core.spec_session.setup_ms",
            median_of("core.spec_session.SpecSession"), "ms");
  out.Layer("core.spec_session.check_ms",
            median_of("core.spec_session.Check"), "ms");
  out.Layer("core.spec_session.memo_hit_share",
            memo_lookups == 0 ? 0.0 : memo_hits / memo_lookups, "share");
  out.Layer("core.spec_session.fresh_fallback_share",
            static_cast<double>(on->stats().fresh_fallbacks) /
                static_cast<double>(std::max<size_t>(1, on->stats().queries)),
            "share");
  out.Layer("core.batch.call_ms", median_of("core.batch.CheckBatch"), "ms");
  out.Layer("core.batch.cpu_per_wall", Median(cpu_per_wall), "x");
  out.Layer("core.batch.worker_busy_share", Median(busy_share), "share");
  out.Layer("core.batch.stage_setup_ms", Median(stage_setup), "ms");
  out.Layer("core.batch.stage_memo_ms", Median(stage_memo), "ms");
  out.Layer("core.batch.stage_solve_ms", Median(stage_solve), "ms");
  out.Layer("core.batch.session_reuse_share", Median(reuse_share), "share");
  out.Layer("core.batch.speedup_x", Median(speedups), "x");
  out.Layer("core.witness.build_verify_ms", Mean(check_on) - Mean(check_off),
            "ms");
  out.Layer("dtd.validate_ms", median_of("dtd.ValidateXml"), "ms");
  out.Layer("constraints.evaluate_ms", median_of("constraints.Evaluate"),
            "ms");
  ReportIlp(ilp, &out);
  return out;
}

}  // namespace xbench
